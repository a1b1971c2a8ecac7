"""One measured pass of a benchmark workload, run in a fresh interpreter.

A pass imports cqforms, builds the workload's inputs, runs them through the
public entry points (``cqforms.suite.run_suite`` or ``cqforms.cli.main``),
and checks every output against the reference recorded in ``reference/``.
With ``--trace 1`` the layer functions are wrapped (see ``tracing.py``) and
the pass reports per-function call counts and self times.

    PYTHONPATH=src python3 perfbench/passes.py --workload suite-large --seed 0 \
        --spawned-at 0 --workdir .bench_build/perfbench/w

prints one JSON object.  ``run.py`` spawns this script; tests call
``prepare`` and ``run_pass`` in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# run_suite keyword arguments of suite-large (the seed is added per run).
SUITE_LARGE = {"max_pq": 8, "max_m": 32, "max_total_mult": 1}

# cli-session: two modules of the acceptance enumeration at each of m = 8, 16, 32.
CLI_MODULES = [
    (3, 1, "1,1"),
    (5, 1, "0,0,0,1"),
    (4, 0, "2"),
    (5, 2, "0,1"),
    (6, 0, "2"),
    (6, 2, "1"),
]
MC_S = "0.3+0.1i"
MC_SAMPLES = 200000
# (1,0)x(4,0): the generator acts as the identity, so F(w) = |w|^4 and the
# Monte Carlo estimate has the closed form zeta_quartic_closed_square(4, s).
ORACLE_MODULE = (1, 0, "4,0")
ORACLE_M = 4
ORACLE_SIGMAS = 3.0
MC_SIGMAS = 5.0  # seed-to-seed agreement of two independent estimates
MC_STDERR_RTOL = 0.1
RESIDUAL_TOL = 1e-8  # the suite's own bound on the g residual
INLINE_LIMIT = 2000  # canonical exact parts longer than this are stored as a digest

WORKLOADS = ["suite-large", "cli-session"]


@dataclass
class Command:
    kind: str  # "rep build", "sym g", ... or "zeta mc oracle"
    module: str
    argv: list[str]
    out_file: str | None = None


@dataclass
class Spec:
    """Everything a pass needs, built before the timed region."""

    seed: int
    suite_kwargs: dict | None = None
    script: list[Command] = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    cases: int = 0


def module_id(p, q, mults) -> str:
    return f"({p},{q})x{mults}"


def cli_script(workdir: Path, seed: int) -> list[Command]:
    tail = ["--no-timestamp", "--seed", str(seed)]
    script = []
    for i, (p, q, mults) in enumerate(CLI_MODULES):
        mid = module_id(p, q, mults)
        path = str(workdir / f"module{i}.json")
        pqm = ["--p", str(p), "--q", str(q), "--mult", mults]
        steps = [
            ("rep build", ["rep", "build", *pqm, "--out", path]),
            ("rep verify", ["rep", "verify", path]),
            ("quartic coeffs", ["quartic", "coeffs", path]),
            ("quartic homaloidal", ["quartic", "homaloidal", path]),
            ("sym h", ["sym", "h", path]),
            ("sym g", ["sym", "g", path]),
            ("sym sharp", ["sym", "sharp", path]),
            ("zeta mc", ["zeta", "mc", path, "--samples", str(MC_SAMPLES),
                         "--component", "+", "--s", MC_S]),
            ("classify", ["classify", *pqm]),
        ]
        for kind, argv in steps:
            out_file = path if kind == "rep build" else None
            script.append(Command(kind, mid, argv + tail, out_file))
    p, q, mults = ORACLE_MODULE
    script.append(Command(
        "zeta mc oracle", module_id(p, q, mults),
        ["zeta", "mc", "--p", str(p), "--q", str(q), "--mult", mults, "--samples",
         str(MC_SAMPLES), "--component", "+", "--s", MC_S] + tail,
    ))
    return script


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def prepare(workload: str, seed: int, workdir: Path, reference: dict | None = None) -> Spec:
    """Import cqforms and build the workload's inputs (the timed set-up)."""
    import cqforms  # noqa: F401  (set-up time includes the package import)

    if reference is None:
        reference = load_reference(workload)
    if workload == "suite-large":
        import cqforms.suite  # noqa: F401

        return Spec(seed, suite_kwargs=dict(SUITE_LARGE),
                    reference=reference,
                    cases=len({case for case, _ in reference["rows"]}))
    if workload == "cli-session":
        import cqforms.cli  # noqa: F401

        workdir.mkdir(parents=True, exist_ok=True)
        return Spec(seed, script=cli_script(workdir, seed), reference=reference,
                    cases=len(CLI_MODULES) + 1)
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------------------
# Running a pass


def _run_suite(spec: Spec):
    import cqforms.suite

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        rows = cqforms.suite.run_suite(**spec.suite_kwargs, seed=spec.seed)
        error = None
    except Exception as exc:  # a crashed suite counts every row as failed
        rows, error = [], f"run_suite raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rows, error, wall, cpu


def check_suite(rows, reference: dict, error: str | None = None):
    """(attempted, failed, messages): the row set must equal the reference
    enumeration exactly and every row must be ok."""
    want = [tuple(r) for r in reference["rows"]]
    got: dict[tuple[str, str], object] = {}
    messages = [error] if error else []
    duplicates = 0
    for r in rows:
        key = (r.case, r.check)
        duplicates += key in got
        got[key] = r
    keys = set(want) | set(got)
    failed = duplicates
    for key in sorted(keys):
        row = got.get(key)
        if row is None:
            messages.append(f"{key}: missing")
        elif key not in want:
            messages.append(f"{key}: not in the reference enumeration")
        elif not row.ok:
            messages.append(f"{key}: {row.detail}")
        else:
            continue
        failed += 1
    return len(keys) + duplicates, failed, messages


def _run_cli(spec: Spec):
    import cqforms.cli

    results = []
    t0, c0 = time.perf_counter(), time.process_time()
    for cmd in spec.script:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cqforms.cli.main(cmd.argv)
        except Exception as exc:  # an uncaught crash is a failed command
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        results.append((cmd, code, out.getvalue(), err.getvalue(), time.perf_counter() - start))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return results, wall, cpu


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _exact_ref(obj):
    text = _canonical(obj)
    if len(text) <= INLINE_LIMIT:
        return obj
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def normalize(cmd: Command, stdout: str) -> tuple[object, dict]:
    """Split a command's output into its exact part (compared for equality,
    large parts as a digest) and its float fields (compared by tolerance)."""
    if cmd.kind == "rep build":
        with open(cmd.out_file) as fh:
            text = fh.read()
        exact = {"stdout": stdout.replace(cmd.out_file, "<out>"),
                 "file_sha256": hashlib.sha256(text.encode()).hexdigest()}
        return exact, {}
    doc = json.loads(stdout)
    doc.pop("config", None)
    doc.pop("timestamp", None)
    floats = {}
    for key in ("residual", "value", "stderr"):
        if key in doc:
            floats[key] = doc.pop(key)
    return _exact_ref(doc), floats


def _complex(v) -> complex:
    return complex(v["re"], v["im"])


def check_floats(cmd: Command, floats: dict, ref_floats: dict) -> str | None:
    if "residual" in floats and not floats["residual"] <= RESIDUAL_TOL:
        return f"residual {floats['residual']} above {RESIDUAL_TOL}"
    if "value" not in floats:
        return None
    value, se = _complex(floats["value"]), floats["stderr"]
    if cmd.kind == "zeta mc oracle":
        from cqforms.zetafe import zeta_quartic_closed_square

        closed = zeta_quartic_closed_square(ORACLE_M, complex(MC_S.replace("i", "j")))
        if abs(value - closed) > ORACLE_SIGMAS * se:
            return f"MC {value} is {abs(value - closed) / se:.1f} stderr from closed form {closed}"
        return None
    ref_value, ref_se = _complex(ref_floats["value"]), ref_floats["stderr"]
    if abs(value - ref_value) > MC_SIGMAS * math.hypot(se, ref_se):
        return f"MC {value} disagrees with reference {ref_value}"
    if abs(se - ref_se) > MC_STDERR_RTOL * ref_se:
        return f"MC stderr {se} disagrees with reference {ref_se}"
    return None


def check_cli(results, reference: dict):
    """(attempted, failed, messages) over the commands of one session."""
    ref_cmds = reference["commands"]
    messages = []
    failed = 0
    if len(ref_cmds) != len(results):
        messages.append(f"script has {len(results)} commands, reference {len(ref_cmds)}")
        failed += abs(len(ref_cmds) - len(results))
    for (cmd, code, stdout, stderr, _), ref in zip(results, ref_cmds):
        label = f"{cmd.kind} {cmd.module}"
        problem = None
        if (ref["kind"], ref["module"]) != (cmd.kind, cmd.module):
            problem = f"reference entry is {ref['kind']} {ref['module']}"
        elif code != 0:
            problem = f"exit {code}: {stderr.strip()[-200:]}"
        else:
            try:
                exact, floats = normalize(cmd, stdout)
            except (ValueError, OSError) as exc:
                problem = f"unreadable output: {exc}"
            else:
                if _canonical(exact) != _canonical(ref["exact"]):
                    problem = "output differs from the reference"
                else:
                    problem = check_floats(cmd, floats, ref["floats"])
        if problem:
            failed += 1
            messages.append(f"{label}: {problem}")
    return max(len(results), len(ref_cmds)), failed, messages


def run_pass(spec: Spec, traced: bool = False, spans_path: Path | None = None) -> dict:
    """Run the workload once, check it, and return the pass record."""
    with Tracer() if traced else contextlib.nullcontext() as tracer:
        if spec.suite_kwargs is not None:
            rows, error, wall, cpu = _run_suite(spec)
        else:
            results, wall, cpu = _run_cli(spec)
    record = {"wall_s": wall, "cpu_s": cpu, "cases": spec.cases}
    if spec.suite_kwargs is not None:
        attempted, failed, messages = check_suite(rows, spec.reference, error)
        record["ops"] = [r.seconds for r in rows]
        record["mc_samples"], record["mc_s"] = 0, 0.0
    else:
        attempted, failed, messages = check_cli(results, spec.reference)
        record["ops"] = [r[4] for r in results]
        mc = [r for r in results if r[0].kind.startswith("zeta mc")]
        record["mc_samples"] = MC_SAMPLES * len(mc)
        record["mc_s"] = sum(r[4] for r in mc)
    record.update(attempted=attempted, failed=failed, failures=messages[:10])
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = self_times(tracer.spans)
        record["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="write the traced spans here (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spec = prepare(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s}
    if not args.setup_only:
        record.update(run_pass(spec, traced=bool(args.trace), spans_path=args.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
