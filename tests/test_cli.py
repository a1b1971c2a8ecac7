import json
from fractions import Fraction

import numpy as np
import pytest

import cqforms.repkit
from cqforms import cli
from cqforms.cli import build_parser, main
from cqforms.repkit import rep_build
from cqforms.zetafe import zeta_quartic_mc


def test_json_default_covers_numpy_and_exact_values():
    values = [np.int64(3), np.bool_(True), np.float32(0.5), np.arange(2), 1 + 2j, Fraction(1, 3),
              np.complex64(1j), np.array([0.5 + 1j])]
    assert json.loads(json.dumps(values, default=cli._json_default)) == [
        3, True, 0.5, [0, 1], {"re": 1.0, "im": 2.0}, "1/3", {"re": 0.0, "im": 1.0},
        [{"re": 0.5, "im": 1.0}],
    ]
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"x": {1}}, default=cli._json_default)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--no-timestamp")
    return code, json.loads(out)


def test_classify_command(capsys):
    code, doc = run_json(capsys, "classify", "--p", "3", "--q", "2", "--mult", "2")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["generic"] and not doc["prehomogeneous"]
    assert doc["config"]["seed"] == 0


def test_output_deterministic(capsys):
    _, doc1 = run_json(capsys, "classify", "--p", "5", "--q", "1", "--mult", "1,1,0,0")
    _, doc2 = run_json(capsys, "classify", "--p", "5", "--q", "1", "--mult", "1,1,0,0")
    assert doc1 == doc2


def test_rep_build_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _ = run(capsys, "rep", "build", "--p", "3", "--q", "2", "--mult", "1", "--out", str(path))
    assert code == 0 and path.exists()
    code, doc = run_json(capsys, "rep", "verify", str(path))
    assert code == 0 and doc["ok"] and doc["m"] == 8


def test_rep_canonical(tmp_path, capsys):
    path = tmp_path / "rep.json"
    run(capsys, "rep", "build", "--p", "2", "--q", "1", "--mult", "1,1", "--out", str(path))
    code, doc = run_json(capsys, "rep", "canonical", str(path))
    assert code == 0
    assert doc["A"][0] == [[1, 0], [0, -1]]


def test_quartic_commands(tmp_path, capsys):
    path = tmp_path / "rep.json"
    run(capsys, "rep", "build", "--p", "1", "--q", "1", "--mult", "1,0,1,0", "--out", str(path))
    code, doc = run_json(capsys, "quartic", "coeffs", str(path))
    assert code == 0 and doc["coeffs"] == [{"key": [0, 0, 1, 1], "value": 4}]
    code, out = run(capsys, "quartic", "coeffs", str(path), "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "i,j,k,l,coefficient"
    code, doc = run_json(capsys, "quartic", "eval", str(path), "--w", "1,2")
    assert code == 0 and doc["value"] == 16
    code, doc = run_json(capsys, "quartic", "grad", str(path), "--w", "1,2")
    assert code == 0 and doc["gradient"] == [32, 16]
    code, doc = run_json(
        capsys, "quartic", "homaloidal", str(path), "--trials", "20", "--seed", "7"
    )
    assert code == 0 and doc["ok"]
    code, doc = run_json(capsys, "quartic", "square-detect", str(path))
    assert code == 0 and doc["square"] and doc["c"] == "4"


def test_homaloidal_on_degenerate_rep_trivially_passes(tmp_path, capsys):
    path = tmp_path / "deg.json"
    run(capsys, "rep", "build", "--p", "2", "--q", "1", "--mult", "1,0", "--out", str(path))
    code, doc = run_json(capsys, "quartic", "homaloidal", str(path), "--trials", "20")
    assert code == 0 and doc["ok"]


def test_check32_command(capsys):
    code, doc = run_json(capsys, "quartic", "check-32", "--k", "2")
    assert code == 0 and doc["ok"]


def test_sym_commands(capsys):
    code, doc = run_json(capsys, "sym", "h", "--p", "3", "--q", "2", "--mult", "2")
    assert code == 0 and doc["computed_dim"] == 10 and doc["match"]
    code, doc = run_json(capsys, "sym", "g", "--p", "3", "--q", "2", "--mult", "2", "--seed", "3")
    assert code == 0 and doc["computed_dim"] == 20
    code, doc = run_json(capsys, "sym", "sharp", "--p", "3", "--q", "2", "--mult", "1")
    assert code == 0 and doc["holds"] is False and doc["match"]
    code, doc = run_json(capsys, "sym", "predict", "--p", "10", "--q", "1", "--mult", "1,0")
    assert code == 0 and doc["g_dim_exceptional"] == 66


def test_zeta_commands(capsys):
    code, doc = run_json(
        capsys, "zeta", "gamma", "--p", "3", "--q", "2", "--m", "16",
        "--s", "0.4+0i", "--formula", "pullback",
    )
    assert code == 0
    assert doc["labels"] == ["+", "-"]
    assert len(doc["matrix"]) == 2 and {"re", "im"} == set(doc["matrix"][0][0])
    code, doc = run_json(
        capsys, "zeta", "check-involution", "--p", "3", "--q", "2", "--m", "16", "--s", "0.3+0.7i"
    )
    assert code == 0 and doc["ok"]
    code, doc = run_json(
        capsys, "zeta", "check-pullback", "--p", "4", "--q", "1", "--mult", "2,0", "--s", "0.27"
    )
    assert code == 0 and doc["ok"]
    code, doc = run_json(
        capsys, "zeta", "check-fe-quadratic", "--p", "2", "--q", "0", "--s", "-0.5",
        "--tol", "1e-8",
    )
    assert code == 0 and doc["ok"]
    code, doc = run_json(
        capsys, "zeta", "mc", "--p", "1", "--q", "0", "--mult", "4,0",
        "--component", "+", "--s", "1", "--samples", "100000", "--seed", "42",
    )
    assert code == 0
    assert abs(doc["value"]["re"] - 0.6079) < 0.01


def test_verify_all_small(capsys):
    code, doc = run_json(capsys, "verify-all", "--max-pq", "2", "--max-m", "4")
    assert code == 0 and doc["ok"]
    assert all(row["ok"] for row in doc["rows"])


def test_usage_errors_exit_2(capsys):
    assert main(["classify", "--p", "2", "--q", "3", "--mult", "1"]) == 2  # p < q
    assert main(["nonsense"]) == 2
    assert main(["zeta", "gamma", "--p", "2", "--q", "1", "--m", "8",
                 "--s", "0.3", "--formula", "quartic"]) == 2  # excluded case
    capsys.readouterr()
    assert main(["zeta", "gamma", "--p", "4", "--q", "0",
                 "--s", "0.3", "--formula", "quartic"]) == 2  # no --m
    assert capsys.readouterr().err.splitlines() == ["error: --formula quartic needs --m"]
    for cmd in ("eval", "grad"):  # a non-integer point entry
        argv = ["quartic", cmd, "--p", "3", "--q", "0", "--mult", "1", "--w", "1,x,0,0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --w" in err and "'1,x,0,0'" in err and "_int_list" not in err
    assert main(["classify", "--p", "3", "--q", "0", "--mult", "1,y"]) == 2
    err = capsys.readouterr().err
    assert "argument --mult" in err and "'1,y'" in err and "_int_list" not in err
    # only quartic coeffs reads --format, and sym g has no --mode
    assert main(["sym", "predict", "--p", "3", "--q", "2", "--mult", "1", "--format", "csv"]) == 2
    assert main(["sym", "g", "--p", "3", "--q", "2", "--mult", "1", "--mode", "exact"]) == 2
    assert capsys.readouterr().out == ""
    assert main(["verify-all", "--max-pq", "0", "--max-m", "0"]) == 2  # checks nothing
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


_SQUARE = [[1, 0], [0, -1]]
_VALID = {"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [_SQUARE, [[0, 1], [1, 0]]]}
MALFORMED_FILES = {
    "not-signed-permutation": json.dumps(
        {"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [_SQUARE, [[1, 1], [1, 0]]]}
    ),
    "too-few-matrices": json.dumps({"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [_SQUARE]}),
    "invalid-json": '{"p": 2, "q": 0, "basis": [',
    "missing-basis": json.dumps({"p": 2, "q": 0, "mults": [1], "m": 2}),
    # each would truncate to a valid module under int(): 2.9 -> 2, 1.7 -> 1
    "non-integer-p": json.dumps(_VALID | {"p": 2.9}),
    "non-integer-m": json.dumps(_VALID | {"m": 2.0}),
    "non-integer-mults": json.dumps(_VALID | {"mults": [1.5]}),
    "non-integer-basis": json.dumps(_VALID | {"basis": [_SQUARE, [[0, 1], [1.7, 0]]]}),
}
MODULE_COMMANDS = [
    ["rep", "verify"],
    ["quartic", "eval", "--w", "1,2"],
    ["sym", "h"],
    ["sym", "g"],
    ["zeta", "mc", "--component", "+", "--s", "1", "--samples", "100"],
]


@pytest.mark.parametrize("command", MODULE_COMMANDS, ids=lambda c: " ".join(c[:2]))
@pytest.mark.parametrize("problem", sorted(MALFORMED_FILES))
def test_malformed_module_file_exits_2(tmp_path, capsys, problem, command):
    path = tmp_path / "bad.json"
    path.write_text(MALFORMED_FILES[problem])
    argv = command[:2] + [str(path)] + command[2:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _unreadable_path(tmp_path, problem):
    if problem == "directory":
        return tmp_path
    path = tmp_path / "module.json"
    if problem == "not-utf8":
        path.write_bytes('{"p": "\u00e9"}'.encode("latin-1"))
    return path


@pytest.mark.parametrize("command", MODULE_COMMANDS, ids=lambda c: " ".join(c[:2]))
@pytest.mark.parametrize("problem", ["directory", "missing", "not-utf8"])
def test_unreadable_module_path_exits_2(tmp_path, capsys, problem, command):
    argv = command[:2] + [str(_unreadable_path(tmp_path, problem))] + command[2:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_sym_g_file_verifies_relations_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rep.json"
    path.write_text(cqforms.repkit.rep_to_json(rep_build(3, 2, (1,))))
    calls = []
    verify = cqforms.repkit.verify_relations

    def counted(rep):
        calls.append(rep)
        return verify(rep)

    # the load check and g_kernel_dim both read rep.relations
    monkeypatch.setattr(cqforms.repkit, "verify_relations", counted)
    code, doc = run_json(capsys, "sym", "g", str(path))
    assert code == 0 and doc["match"]
    assert len(calls) == 1


def test_module_file_failing_its_relations(tmp_path, capsys):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(_VALID | {"basis": [_SQUARE, [[-1, 0], [0, 1]]]}))  # S_2 = -S_1
    assert main(["sym", "g", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: module in {path} fails commutation_pattern, self_duality (see rep verify)"
    ]
    code, doc = run_json(capsys, "rep", "verify", str(path))
    assert code == 1 and not doc["ok"]
    failed = [(c["name"], c["detail"]) for c in doc["checks"] if not c["ok"]]
    assert failed == [("commutation_pattern", "pair (0,1)"), ("self_duality", "v = (1, 1)")]
    path.write_text(json.dumps(_VALID))
    code, doc = run_json(capsys, "sym", "g", str(path))
    assert code == 0 and doc["computed_dim"] == 1


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_zeta_mc_non_positive_samples_exits_2(capsys, samples):
    argv = ["zeta", "mc", "--p", "3", "--q", "0", "--mult", "1", "--samples", samples,
            "--component", "+", "--s", "0.3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _one_error_line(capsys, *needles):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")
    assert all(needle in lines[0] for needle in needles), lines[0]


@pytest.mark.parametrize("trials", [10**11, 2**40])
def test_homaloidal_trials_past_the_residue_limit_exit_2(capsys, trials):
    # drawn first, the (trials, m) block of residues would need terabytes
    argv = ["quartic", "homaloidal", "--p", "3", "--q", "2", "--mult", "1", "--trials", str(trials)]
    assert main(argv) == 2
    _one_error_line(capsys, f"{trials} trials at m = 8 exceed 1048576 residues")


def test_rep_build_above_max_dim_exits_2(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert main(["rep", "build", "--p", "3", "--q", "0", "--mult", "257", "--out", str(out)]) == 2
    _one_error_line(capsys, "1028")
    assert not out.exists()


def test_rep_verify_above_max_dim_exits_2(tmp_path, capsys):
    # a well-formed module file whose declared m is over the limit: refused
    # before its basis is converted, though its relations would hold
    path = tmp_path / "big.json"
    eye = np.eye(1025, dtype=np.int64).tolist()
    path.write_text(json.dumps({"p": 1, "q": 0, "mults": [1025, 0], "m": 1025, "basis": [eye]}))
    assert main(["rep", "verify", str(path)]) == 2
    _one_error_line(capsys, "1025", "1024")


def test_check_32_above_max_dim_exits_2(capsys):
    assert main(["quartic", "check-32", "--k", "129"]) == 2  # m = 8k = 1032
    _one_error_line(capsys, "1032", "1024")


@pytest.mark.parametrize("m", ["0", "-4"])
def test_zeta_gamma_pullback_non_positive_m_exits_2(capsys, m):
    argv = ["zeta", "gamma", "--formula", "pullback", "--p", "3", "--q", "0", "--m", m, "--s", "0.3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: m must be a positive multiple of 4"]


MODULE_ARG_COMMANDS = [
    ["quartic", "coeffs"],
    ["quartic", "eval", "--w", "1,2"],
    ["quartic", "grad", "--w", "1,2"],
    ["quartic", "homaloidal"],
    ["quartic", "square-detect"],
    ["sym", "h", "--p", "3", "--q", "0"],
    ["sym", "g", "--q", "0", "--mult", "1"],
    ["sym", "sharp", "--p", "3", "--mult", "1"],
    ["zeta", "mc", "--component", "+", "--s", "0.3"],
]


@pytest.mark.parametrize("command", MODULE_ARG_COMMANDS, ids=lambda c: " ".join(c[:2]))
def test_module_command_without_module_exits_2(capsys, command):
    # neither a module file nor all of --p, --q and --mult
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: give a module file or --p, --q and --mult"]


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "2000-01-01T00:00:00")
    out = str(tmp_path / "out.json")
    mc = ["zeta", "mc", "--p", "3", "--q", "0", "--mult", "1", "--component", "+",
          "--s", "0.3", "--samples", "500"]
    coeffs = ["quartic", "coeffs", "--p", "1", "--q", "1", "--mult", "1,0,1,0"]
    commands = [
        mc + ["--seed", "7"],
        mc,
        ["--seed", "9"] + mc + ["--out", out],
        mc + ["--no-timestamp"],
        coeffs + ["--format", "csv"],
        coeffs,
        ["--no-timestamp"] + coeffs + ["--out", out],
        coeffs,
    ]

    def run_one(argv):
        code = main(argv)
        text = None
        if out in argv:
            with open(out) as fh:
                text = fh.read()
            (tmp_path / "out.json").unlink()
        return code, capsys.readouterr().out, text

    alone = []
    for argv in commands:
        build_parser.cache_clear()
        alone.append(run_one(argv))
    assert all(code == 0 for code, _, _ in alone)
    # --seed, --no-timestamp and --format each change the output
    assert alone[0] != alone[1] and alone[3] != alone[1] and alone[4] != alone[5]
    back_to_back = [run_one(argv) for argv in commands]
    assert back_to_back == alone


@pytest.mark.parametrize("spelled,label,mults", [
    (["--component", "mm"], "--", "1,1"),
    (["--component=mm"], "--", "1,1"),
    (["--component", "mp"], "-+", "2,0"),
    (["--component", "-"], "-", "2,0"),
])
def test_zeta_mc_components_starting_with_minus(capsys, spelled, label, mults):
    # argparse takes "--" and "-+" for options, so p and m spell + and -
    code, doc = run_json(
        capsys, "zeta", "mc", "--p", "3", "--q", "1", "--mult", mults, *spelled,
        "--s", "0.3", "--samples", "3000", "--seed", "4",
    )
    assert code == 0 and doc["component"] == label
    rep = rep_build(3, 1, tuple(int(k) for k in mults.split(",")))
    est = zeta_quartic_mc(rep, label, 0.3, samples=3000, seed=4)
    assert complex(doc["value"]["re"], doc["value"]["im"]) == est.value
    assert doc["stderr"] == est.stderr


def test_zeta_mc_half_line(capsys):
    code, doc = run_json(
        capsys, "zeta", "mc", "--p", "1", "--q", "0", "--mult", "1,1", "--component", "m",
        "--s", "0", "--samples", "3000", "--seed", "4",
    )
    assert code == 0 and doc["component"] == "-"
    est = zeta_quartic_mc(rep_build(1, 0, (1, 1)), "-", 0, samples=3000, seed=4)
    assert complex(doc["value"]["re"], doc["value"]["im"]) == est.value
    assert doc["stderr"] == est.stderr
    assert 0.4 < est.value.real < 0.6  # the mass of one of two symmetric half-lines


@pytest.mark.parametrize("formula,options,named", [
    ("quartic", ["--m", "16", "--mult", "1"], "--mult"),
    ("quadratic", ["--m", "8"], "--m"),
    ("quadratic", ["--mult", "1"], "--mult"),
    ("quadratic", ["--m", "8", "--mult", "1"], "--m or --mult"),
])
def test_zeta_gamma_refuses_options_its_formula_does_not_take(capsys, formula, options, named):
    argv = ["zeta", "gamma", "--p", "3", "--q", "2", "--s", "0.4", "--formula", formula]
    assert main(argv + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --formula {formula} does not take {named}"]


def test_zeta_gamma_pullback_refuses_m_contradicting_mult(capsys):
    argv = ["zeta", "gamma", "--formula", "pullback", "--p", "3", "--q", "2", "--s", "0.3"]
    assert main(argv + ["--m", "16", "--mult", "1"]) == 2  # (3,2)x1 has m = 8
    assert capsys.readouterr().err.splitlines() == ["error: --m 16 contradicts --mult 1 (m = 8)"]
    code, doc = run_json(capsys, *argv, "--m", "16", "--mult", "2")
    assert code == 0 and doc["labels"] == ["+", "-"]


ZETA_CHECKS = [
    ["zeta", "check-involution", "--p", "3", "--q", "2", "--m", "16"],
    ["zeta", "check-pullback", "--p", "3", "--q", "2", "--mult", "1"],
    ["zeta", "check-fe-quadratic", "--p", "2", "--q", "0"],
]


@pytest.mark.parametrize("command", ZETA_CHECKS, ids=lambda c: c[1])
@pytest.mark.parametrize("tol", ["inf", "1e400", "-1", "-0.5", "nan", "x"])
def test_tolerance_that_is_not_finite_and_non_negative_exits_2(capsys, command, tol):
    # inf passed every check, and -1 or nan failed every one
    assert main(command + ["--s", "0.3", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tol: expected a finite number >= 0, got '{tol}'" in captured.err


def test_tolerance_zero_is_accepted(capsys):
    code, doc = run_json(capsys, *ZETA_CHECKS[1], "--s", "0.3", "--tol", "0")
    assert code == 1 and doc["tol"] == 0.0 and not doc["ok"]
    assert cli._tolerance("1e-10") == 1e-10 and cli._tolerance("0") == 0.0


@pytest.mark.parametrize("command", ZETA_CHECKS + [
    ["zeta", "gamma", "--p", "3", "--q", "2", "--formula", "quadratic"],
    ["zeta", "mc", "--p", "3", "--q", "0", "--mult", "1", "--component", "+", "--samples", "10"],
], ids=lambda c: c[1])
@pytest.mark.parametrize("s", ["nan", "1e400", "0.3+1e400i", "nan+0.5i"])
def test_s_that_is_not_finite_exits_2(capsys, command, s):
    # nan printed NaN tokens, which are not JSON, or failed a check
    assert main(command + ["--s", s]) == 2
    _one_error_line(capsys, f"complex number '{s}' is not finite")


NOT_FINITE = [
    # NaN tokens, or a NaN relative error that failed the check
    "zeta gamma --p 3 --q 2 --m 16 --s 100.3 --formula quartic",
    "zeta check-pullback --p 3 --q 2 --mult 1 --s 100.3",
    "zeta check-involution --p 3 --q 2 --m 16 --s 100.3",
    "zeta gamma --p 3 --q 2 --m 16 --s 80 --formula pullback",
    # uncaught OverflowError tracebacks
    "zeta gamma --p 3 --q 2 --m 16 --s 150.3 --formula quartic",
    "zeta gamma --p 3 --q 2 --s 200.3 --formula quadratic",
    "zeta gamma --p 3 --q 2 --m 16 --s 0.3+300i --formula quartic",
    "zeta gamma --p 3 --q 2 --s 0.3+300i --formula quadratic",
    "zeta gamma --p 3 --q 2 --m 16 --s 0.3+300i --formula pullback",
    "zeta check-involution --p 3 --q 2 --m 16 --s 400",
    "zeta check-fe-quadratic --p 1 --q 0 --s 1e200",
    # an Infinity token
    "zeta mc --p 3 --q 2 --mult 1 --component + --s 300 --samples 1000",
]


@pytest.mark.parametrize("command", NOT_FINITE)
def test_a_result_that_is_not_finite_in_floats_exits_2(capsys, command):
    assert main(command.split()) == 2
    _one_error_line(capsys, "no finite float64 result at these inputs")


@pytest.mark.parametrize("s", ["-0.9", "-0.95"])
def test_check_fe_quadratic_on_the_hyperbolic_plane_near_the_strip_edge(capsys, s):
    # these put the quadrature's cut past t = 355, where cosh(2t) overflows float64
    code, doc = run_json(capsys, "zeta", "check-fe-quadratic", "--p", "1", "--q", "1", f"--s={s}")
    assert code == 0 and doc["ok"] is True


@pytest.mark.parametrize("s", ["-0.97", "-0.99", "-0.99999999"])
def test_check_fe_quadratic_refuses_a_tail_past_its_cut(capsys, s):
    assert main(["zeta", "check-fe-quadratic", "--p", "1", "--q", "1", f"--s={s}"]) == 2
    _one_error_line(capsys, "need Re(s) > -0.9640 for (1, 1)", "stops at t = 500")


def test_a_document_with_a_nan_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.Z, "pullback_error", lambda consts, s: float("nan"))
    out = tmp_path / "doc.json"
    argv = ["zeta", "check-pullback", "--p", "3", "--q", "2", "--mult", "1", "--s", "0.3", "--out", str(out)]
    assert main(argv) == 2
    _one_error_line(capsys, "a value of the result is not finite")
    assert not out.exists()


def test_gamma_matrix_refuses_values_that_are_not_finite():
    from cqforms import zetafe as Z

    with pytest.raises(OverflowError, match="quartic-closed gamma matrix has a value that is not finite"):
        Z.gamma_quartic(3, 2, 16, 100.3)
    with pytest.raises(OverflowError):
        Z.GammaMatrix(["+"], np.array([[np.inf]]), "quadratic-def")
