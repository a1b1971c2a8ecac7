import json

import pytest

from cqforms.cli import main


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


_SQUARE = [[1, 0], [0, -1]]
MALFORMED_FILES = {
    "not-signed-permutation": json.dumps(
        {"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [_SQUARE, [[1, 1], [1, 0]]]}
    ),
    "too-few-matrices": json.dumps({"p": 2, "q": 0, "mults": [1], "m": 2, "basis": [_SQUARE]}),
    "invalid-json": '{"p": 2, "q": 0, "basis": [',
    "missing-basis": json.dumps({"p": 2, "q": 0, "mults": [1], "m": 2}),
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
