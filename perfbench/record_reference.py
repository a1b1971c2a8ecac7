"""Record the reference outputs the benchmark checks every pass against.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

For a suite workload the reference is the sorted list of (case, check) rows
of its enumeration; every row must be ok when recorded.  For cli-session it
is, per command, the exact part of the output (inline, or a SHA-256 digest
when long) and the float fields that are later compared by tolerance.
Re-record only when a change is meant to alter the enumeration or the
outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import passes

SEED = 0  # only the recorded Monte Carlo values depend on it


def record(workload: str, workdir: Path) -> dict:
    spec = passes.prepare(workload, SEED, workdir, reference={"rows": []})
    if spec.suite_kwargs is not None:
        rows, error, _, _ = passes._run_suite(spec)
        bad = [f"{r.case} {r.check}: {r.detail}" for r in rows if not r.ok]
        if error or bad:
            raise SystemExit(f"{workload}: not recording failing rows: {error or bad[:5]}")
        return {"workload": workload, "seed": SEED,
                "rows": [[r.case, r.check] for r in rows]}
    results, _, _ = passes._run_cli(spec)
    commands = []
    for cmd, code, stdout, stderr, _ in results:
        if code != 0:
            raise SystemExit(f"{cmd.kind} {cmd.module}: exit {code}: {stderr}")
        exact, floats = passes.normalize(cmd, stdout)
        problem = passes.check_floats(cmd, floats, floats)
        if problem:
            raise SystemExit(f"{cmd.kind} {cmd.module}: {problem}")
        commands.append({"kind": cmd.kind, "module": cmd.module, "exact": exact,
                         "floats": floats})
    return {"workload": workload, "seed": SEED, "commands": commands}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", default=passes.WORKLOADS)
    ap.add_argument("--workdir", type=Path, default=Path(".bench_build/perfbench/record"))
    args = ap.parse_args(argv)
    passes.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workloads:
        ref = record(workload, args.workdir)
        path = passes.REFERENCE_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
