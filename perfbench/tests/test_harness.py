"""Tests of the benchmark harness on a tiny workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import passes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import cqforms.cli  # noqa: E402
import cqforms.suite  # noqa: E402
import cqforms.zetafe  # noqa: E402

TINY_SUITE = {"max_pq": 3, "max_m": 4}


def tiny_suite_spec(tmp_path) -> passes.Spec:
    spec = passes.prepare("suite-large", 0, tmp_path)
    spec.suite_kwargs = dict(TINY_SUITE)
    rows = cqforms.suite.run_suite(**TINY_SUITE, seed=0)
    spec.reference = {"rows": [[r.case, r.check] for r in rows]}
    spec.cases = len({r.case for r in rows})
    return spec


def tiny_cli_spec(tmp_path, extra=()) -> passes.Spec:
    spec = passes.prepare("cli-session", 0, tmp_path)
    path = str(tmp_path / "tiny.json")
    tail = ["--no-timestamp", "--seed", "0"]
    spec.script = [
        passes.Command("rep build", "(3,0)x1",
                       ["rep", "build", "--p", "3", "--q", "0", "--mult", "1", "--out", path] + tail,
                       path),
        passes.Command("rep verify", "(3,0)x1", ["rep", "verify", path] + tail),
        *extra,
    ]
    results, _, _ = passes._run_cli(spec)
    commands = []
    for cmd, code, stdout, _, _ in results:
        exact, floats = passes.normalize(cmd, stdout) if code == 0 else (None, {})
        commands.append({"kind": cmd.kind, "module": cmd.module, "exact": exact,
                         "floats": floats})
    spec.reference = {"commands": commands}
    spec.cases = 1
    return spec


def one_run(spec) -> list[dict]:
    """An untraced and a traced pass, as a traced run alternates them."""
    out = []
    for traced in (False, True):
        rec = passes.run_pass(spec, traced=traced)
        rec.update(traced=traced, setup_s=0.2)
        out.append(rec)
    return out


def bench_config() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("make_spec", [tiny_suite_spec, tiny_cli_spec])
def test_every_metric_emitted_with_unit(tmp_path, make_spec):
    recs = one_run(make_spec(tmp_path))
    config = bench_config()
    for trace, declared in ((0, config["end_to_end"]), (1, config["per_layer"])):
        res = run.result(recs, [r["setup_s"] for r in recs], trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in res["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_declared_metrics_match_harness():
    config = bench_config()
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in config["workloads"]] == passes.WORKLOADS


def test_failing_row_counted(tmp_path, monkeypatch):
    spec = tiny_suite_spec(tmp_path)
    monkeypatch.setitem(cqforms.suite.CHECKS, "degeneracy", lambda p, q, mults: (False, "injected"))
    recs = one_run(spec)
    res = run.result(recs, [0.2], 1)
    bad = sum(1 for case, check in spec.reference["rows"] if check == "degeneracy")
    assert res["failed"] == 2 * bad and not res["correct"]
    assert res["metrics"]["failed_frac"]["value"] == pytest.approx(bad / len(spec.reference["rows"]))


def test_skipped_check_counted(tmp_path):
    spec = tiny_suite_spec(tmp_path)
    spec.suite_kwargs["checks"] = [c for c in cqforms.suite.CHECKS if c != "sharp"]
    attempted, failed, messages = passes.check_suite(
        cqforms.suite.run_suite(**spec.suite_kwargs, seed=0), spec.reference)
    assert failed == sum(1 for _, check in spec.reference["rows"] if check == "sharp") > 0
    assert attempted == len(spec.reference["rows"])
    assert all("missing" in m for m in messages)


def test_nonzero_exit_counted(tmp_path):
    missing = str(tmp_path / "absent.json")
    spec = tiny_cli_spec(tmp_path, extra=[
        passes.Command("rep verify", "absent", ["rep", "verify", missing, "--no-timestamp"])])
    rec = passes.run_pass(spec)
    assert rec["attempted"] == 3 and rec["failed"] == 1
    assert "exit 2" in rec["failures"][0]
    res = run.result([dict(rec, traced=False), dict(rec, traced=True, layers={}, spans=0)],
                     [0.2], 1)
    assert res["metrics"]["failed_frac"]["value"] == pytest.approx(2 / 6)


def test_mc_oracle_and_reference_tolerance():
    cmd = passes.Command("zeta mc oracle", "(1,0)x4,0", [])
    closed = cqforms.zetafe.zeta_quartic_closed_square(4, 0.3 + 0.1j)
    near = {"value": {"re": closed.real + 1e-3, "im": closed.imag}, "stderr": 1e-3}
    far = {"value": {"re": closed.real + 4e-3, "im": closed.imag}, "stderr": 1e-3}
    assert passes.check_floats(cmd, near, {}) is None
    assert "closed form" in passes.check_floats(cmd, far, {})
    mc = passes.Command("zeta mc", "m", [])
    assert passes.check_floats(mc, near, far) is None
    assert passes.check_floats(mc, {"value": far["value"], "stderr": 1e-4}, near)
    assert passes.check_floats(passes.Command("sym g", "m", []), {"residual": 1e-6}, {})


def test_tracer_wraps_every_binding():
    orig_build = cqforms.suite.rep_build
    orig_expand = cqforms.zetafe.expand_coeffs
    orig_check = cqforms.suite.CHECKS["relations"]
    with tracing.Tracer() as tr:
        for module in (cqforms, cqforms.suite, cqforms.cli):
            assert module.rep_build is not orig_build
        assert cqforms.zetafe.expand_coeffs is not orig_expand
        assert cqforms.suite.CHECKS["relations"] is not orig_check
        assert cqforms.cli.classify_verdict is sys.modules["cqforms.classify"].classify
        cqforms.suite.run_suite(max_pq=2, max_m=2, seed=0, checks=["relations"])
    assert cqforms.suite.rep_build is orig_build and cqforms.zetafe.expand_coeffs is orig_expand
    assert cqforms.suite.CHECKS["relations"] is orig_check
    names = {s[0] for s in tr.spans}
    assert {"suite.run_suite", "suite.check_relations", "repkit.rep_build"} <= names
    ids = range(len(tr.spans))
    assert all(parent in ids or parent == -1 for _, _, _, parent in tr.spans)


def test_self_time_subtracts_child_coverage():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    agg = tracing.self_times(spans)
    assert agg["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert agg["inner"]["calls"] == 2 and agg["inner"]["self_s"] == pytest.approx(3.0)
    assert agg["leaf"]["self_s"] == pytest.approx(1.0)


def test_refuses_to_run_without_sources(tmp_path):
    for name in ("run.py", "passes.py", "tracing.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / name).write_text((BENCH / name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
