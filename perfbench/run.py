"""cqforms benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload suite-large --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout.  Each pass of the workload runs in a
fresh single-threaded interpreter (``passes.py``), one after another (a
closed loop with one caller), until ``--seconds`` is used up.  More
interpreters that only import cqforms and build the inputs top up the
set-up samples.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the machine.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passes import WORKLOADS  # noqa: E402
from tracing import CHECKS, LAYERS, layer_name  # noqa: E402

MIN_PASSES = 2  # per run; a traced run alternates untraced and traced passes and has one more
MIN_SETUPS = 9
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

# calls_per_case is reported for these layers
PER_CASE = ["repkit.rep_build", "quartic.expand_coeffs", "zetafe.gamma_constants",
            "spmat.SectorDecomposition.sectors"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for module, attr in LAYERS:
        name = layer_name(module, attr)
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    for check in CHECKS:
        out.append((f"suite.{check}.total_s", "s", "lower"))
    for name in PER_CASE:
        out.append((f"{name}.calls_per_case", "calls/case", "lower"))
    out += [
        ("cases", "count", "higher"),
        ("cli.zeta_mc.samples_per_s", "1/s", "higher"),
        ("ops.p50_s", "s", "lower"),
        ("ops.p90_s", "s", "lower"),
        ("run.wall_s", "s", "lower"),
        ("run.cpu_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("failed_frac", "frac", "lower"),
    ]
    return out


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def spawn(workload, seed, trace, workdir, deadline, setup_only=False, spans=None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the next pass")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.monotonic() - started
    return record


def run_passes(workload, seed, seconds, trace, workdir) -> tuple[list[dict], list[float]]:
    """Closed loop: passes until the next one would end more than half a
    pass after ``seconds``, so that a run lasts ``seconds`` on average."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans_dir = workdir.parent / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        spans = spans_dir / f"{workload}-seed{seed}-pass{len(passes)}.jsonl" if traced else None
        rec = spawn(workload, seed, int(traced), workdir, deadline, spans=spans)
        rec["traced"] = traced
        passes.append(rec)
        if len(passes) >= MIN_PASSES + trace:
            next_traced = bool(trace) and len(passes) % 2 == 1
            alike = [p["elapsed_s"] for p in passes if p["traced"] == next_traced]
            if time.monotonic() - start + statistics.median(alike) / 2 > seconds:
                break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, 0, workdir, deadline, setup_only=True)["setup_s"])
    return passes, setups


def quantile(values, q: float) -> float:
    """The q-quantile, by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(passes, setups) -> dict[str, float]:
    # wall_s is the fastest pass of the run.  On the shared 2-core machine
    # the benchmark was tuned on, contention comes in phases of seconds to
    # minutes; over 60 s windows the median pass spread by 21-26% from window
    # to window and the fastest pass by 7%.  Medians are reported per layer.
    return {
        "setup_s": statistics.median(setups),
        "wall_s": min(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


def per_layer(passes) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def med(values):
        return statistics.median(list(values))

    def layer(p, name, key):
        return p["layers"].get(name, {}).get(key, 0)

    out = {}
    for module, attr in LAYERS:
        name = layer_name(module, attr)
        out[f"{name}.self_s"] = med(layer(p, name, "self_s") for p in traced)
        out[f"{name}.calls"] = med(layer(p, name, "calls") for p in traced)
    for check in CHECKS:
        out[f"suite.{check}.total_s"] = med(layer(p, f"suite.{check}", "total_s") for p in traced)
    cases = traced[0]["cases"]
    for name in PER_CASE:
        out[f"{name}.calls_per_case"] = out[f"{name}.calls"] / cases
    run_wall = med(p["wall_s"] for p in plain)
    ops = [t for p in plain for t in p["ops"]]
    trace_wall = med(p["wall_s"] for p in traced)
    out.update({
        "cases": cases,
        "cli.zeta_mc.samples_per_s": med(
            p["mc_samples"] / p["mc_s"] if p["mc_s"] else 0.0 for p in plain),
        "ops.p50_s": quantile(ops, 0.5),
        "ops.p90_s": quantile(ops, 0.9),
        "run.wall_s": run_wall,
        "run.cpu_s": med(p["cpu_s"] for p in plain),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - run_wall,
        "trace.spans": med(p["spans"] for p in traced),
        "failed_frac": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    })
    return out


def result(passes, setups, trace: int) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        values, units = per_layer(passes), {n: u for n, u, _ in per_layer_metrics()}
    else:
        values, units = end_to_end(passes, setups), dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cqforms" / "__init__.py").is_file():
        print(f"error: no cqforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"machine": machine_record()}), flush=True)
    workdir = Path.cwd() / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, args.trace, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        for message in p["failures"]:
            print(f"failed: {message}", file=sys.stderr)
    print(json.dumps(result(passes, setups, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
