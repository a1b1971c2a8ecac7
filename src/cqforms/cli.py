"""Command-line driver.

Subcommands: rep {build, verify, canonical}, quartic {coeffs, eval, grad,
homaloidal, square-detect, check-32}, sym {h, g, sharp, predict},
zeta {gamma, check-involution, check-pullback, check-fe-quadratic, mc},
classify, verify-all.

Every run prints a JSON document (or CSV where noted) carrying a schema
version, an echo of the configuration including the seed, and a timestamp
unless --no-timestamp is given.  Exit status: 0 success / checks passed,
1 a verification check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import quartic as Q
from . import symlie as SY
from . import zetafe as Z
from .classify import classify as classify_verdict
from .repkit import (
    InvalidInputError,
    UnsupportedError,
    canonicalize,
    irrep_catalog,
    rep_build,
    rep_from_json,
    rep_to_json,
    verify_relations,
)
from .suite import run_suite

SCHEMA = 1


def _parse_mults(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse complex number {text!r}") from exc


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(payload: dict, args) -> None:
    doc = {"schema": SCHEMA}
    doc.update(_jsonable(payload))
    doc["config"] = {
        "argv": args._argv,
        "seed": getattr(args, "seed", None),
    }
    if not args.no_timestamp:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_text(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_rep(path: str):
    with open(path) as fh:
        return rep_from_json(fh.read())


def _rep_from_args(args):
    if getattr(args, "rep", None):
        return _load_rep(args.rep)
    return rep_build(args.p, args.q, args.mult)


def _gamma_payload(g: Z.GammaMatrix) -> dict:
    return {
        "labels": g.labels,
        "formula": g.formula,
        "validated": g.validated,
        "matrix": [[{"re": v.real, "im": v.imag} for v in row] for row in g.values],
    }


# --------------------------------------------------------------------------


def cmd_rep_build(args) -> int:
    rep = rep_build(args.p, args.q, args.mult)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rep_to_json(rep) + "\n")
        print(f"wrote ({args.p},{args.q}) module of dimension {rep.m} to {args.out}")
    else:
        print(rep_to_json(rep))
    return 0


def cmd_rep_verify(args) -> int:
    rep = _load_rep(args.rep)
    report = verify_relations(rep)
    _emit(
        {
            "p": rep.p,
            "q": rep.q,
            "m": rep.m,
            "ok": report.ok,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in report.checks],
        },
        args,
    )
    return 0 if report.ok else 1


def cmd_rep_canonical(args) -> int:
    rep = _load_rep(args.rep)
    can, a_list, b_list = canonicalize(rep)
    _emit(
        {
            "m": can.m,
            "d": can.m // 2,
            "basis": [s.tolist() for s in can.basis],
            "A": [a.tolist() for a in a_list],
            "B": [b.tolist() for b in b_list],
        },
        args,
    )
    return 0


def cmd_quartic_coeffs(args) -> int:
    rep = _rep_from_args(args)
    form = Q.expand_coeffs(rep)
    if args.format == "csv":
        _emit_text(form.to_csv(), args)
    else:
        _emit(
            {
                "m": rep.m,
                "nonzero": len(form.coeffs),
                "coeffs": [
                    {"key": list(k), "value": v} for k, v in sorted(form.coeffs.items())
                ],
            },
            args,
        )
    return 0


def cmd_quartic_eval(args) -> int:
    rep = _rep_from_args(args)
    w = [int(x) for x in args.w.split(",")]
    _emit({"value": Q.eval_quartic(rep, w)}, args)
    return 0


def cmd_quartic_grad(args) -> int:
    rep = _rep_from_args(args)
    w = [int(x) for x in args.w.split(",")]
    _emit({"gradient": Q.grad_quartic(rep, w)}, args)
    return 0


def cmd_quartic_homaloidal(args) -> int:
    rep = _rep_from_args(args)
    ok = Q.homaloidal_check(rep, args.trials, args.seed)
    _emit(
        {"ok": ok, "trials": args.trials, "identity": "F(grad F) = 256 F^3", "probabilistic": True},
        args,
    )
    return 0 if ok else 1


def cmd_quartic_square(args) -> int:
    rep = _rep_from_args(args)
    form = Q.expand_coeffs(rep)
    if form.is_zero:
        _emit({"square": False, "detail": "quartic vanishes identically"}, args)
        return 0
    witness = Q.square_detect(form)
    if witness is None:
        _emit({"square": False}, args)
        return 0
    _emit(
        {
            "square": True,
            "c": str(witness.c),
            "matrix": [[str(v) for v in row] for row in witness.mat],
        },
        args,
    )
    return 0


def cmd_quartic_check32(args) -> int:
    ok = Q.check_32_identity(args.k, seed=args.seed)
    _emit({"ok": ok, "k": args.k, "points": 30, "probabilistic": True}, args)
    return 0 if ok else 1


def cmd_sym_h(args) -> int:
    rep = _rep_from_args(args)
    rpt = SY.h_kernel(rep)
    pred = None
    if rep.mults:
        pred = SY.predict(rep.p, rep.q, rep.mults)
    _emit(
        {
            "computed_dim": rpt.dimension,
            "predicted_dim": pred.h_dim if pred else None,
            "algebra": pred.h_algebra if pred else None,
            "match": (pred.h_dim == rpt.dimension) if pred else None,
            "method": rpt.method,
            "residual": rpt.residual,
        },
        args,
    )
    return 0 if (pred is None or pred.h_dim == rpt.dimension) else 1


def cmd_sym_g(args) -> int:
    rep = _rep_from_args(args)
    rpt = SY.g_kernel_dim(rep, samples=args.samples, seed=args.seed, mode=args.mode)
    pred = SY.predict(rep.p, rep.q, rep.mults) if rep.mults else None
    want = pred.g_dim if pred else None
    _emit(
        {
            "computed_dim": rpt.dimension,
            "predicted_dim": want,
            "match": (want == rpt.dimension) if want is not None else None,
            "method": rpt.method,
            "residual": rpt.residual,
        },
        args,
    )
    return 0 if want is None or want == rpt.dimension else 1


def cmd_sym_sharp(args) -> int:
    rep = _rep_from_args(args)
    dim, forced = SY.sharp_solution_dim(rep, seed=args.seed)
    holds = dim == forced
    expected = SY.expected_sharp(rep.p, rep.q, rep.mults) if rep.mults else None
    _emit(
        {
            "holds": holds,
            "solution_dim": dim,
            "forced_dim": forced,
            "expected": expected,
            "match": (holds == expected) if expected is not None else None,
        },
        args,
    )
    return 0 if expected is None or holds == expected else 1


def cmd_sym_predict(args) -> int:
    pred = SY.predict(args.p, args.q, args.mult)
    _emit(
        {
            "h_algebra": pred.h_algebra,
            "h_dim": pred.h_dim,
            "g_dim": pred.g_dim,
            "exceptional": pred.exceptional,
            "degenerate": pred.degenerate,
            "g_dim_exceptional": pred.g_dim_exceptional,
        },
        args,
    )
    return 0


def cmd_zeta_gamma(args) -> int:
    s = _parse_complex(args.s)
    if args.formula == "quadratic":
        g = Z.gamma_quadratic(args.p, args.q, s)
    elif args.formula == "quartic":
        g = Z.gamma_quartic(args.p, args.q, args.m, s)
    else:
        mults = args.mult or _default_mults(args.p, args.q, args.m)
        g = Z.gamma_pullback(rep_build(args.p, args.q, mults), s)
    _emit(_gamma_payload(g) | {"s": s}, args)
    return 0


def _default_mults(p: int, q: int, m: int | None):
    cat = irrep_catalog(p, q)
    if m is None or m % cat.dim:
        raise InvalidInputError(f"m must be a positive multiple of {cat.dim}")
    mults = [0] * cat.count
    mults[0] = m // cat.dim
    return tuple(mults)


def cmd_zeta_involution(args) -> int:
    s = _parse_complex(args.s)
    ok = Z.fe_involution_check(args.p, args.q, args.m, s, args.tol)
    _emit({"ok": ok, "s": s, "tol": args.tol}, args)
    return 0 if ok else 1


def cmd_zeta_pullback(args) -> int:
    s = _parse_complex(args.s)
    rep = rep_build(args.p, args.q, args.mult)
    gq = Z.gamma_quartic(args.p, args.q, rep.m, s)
    gp = Z.gamma_pullback(rep, s)
    scale = float(np.max(np.abs(gq.values)))
    err = float(np.max(np.abs(gq.values - gp.values))) / scale
    ok = err < args.tol
    _emit({"ok": ok, "relative_error": err, "tol": args.tol, "s": s}, args)
    return 0 if ok else 1


def cmd_zeta_fe_quadratic(args) -> int:
    s = _parse_complex(args.s)
    ok = Z.fe_quadratic_numeric_check(args.p, args.q, s, args.tol)
    _emit({"ok": ok, "s": s, "tol": args.tol}, args)
    return 0 if ok else 1


def cmd_zeta_mc(args) -> int:
    rep = _rep_from_args(args)
    s = _parse_complex(args.s)
    est = Z.zeta_quartic_mc(rep, args.component, s, samples=args.samples, seed=args.seed)
    _emit(
        {
            "value": est.value,
            "stderr": est.stderr,
            "samples": est.samples,
            "component": est.component,
            "s": s,
        },
        args,
    )
    return 0


def cmd_classify(args) -> int:
    verdict = classify_verdict(args.p, args.q, args.mult, explain=args.explain)
    _emit(verdict.as_dict(), args)
    return 0


def cmd_verify_all(args) -> int:
    rows = run_suite(max_pq=args.max_pq, max_m=args.max_m, seed=args.seed)
    ok = all(r.ok for r in rows)
    payload = {
        "ok": ok,
        "cases": len({r.case for r in rows}),
        "rows": [
            {
                "case": r.case,
                "check": r.check,
                "ok": r.ok,
                "seconds": round(r.seconds, 4),
                "detail": r.detail,
            }
            for r in rows
        ],
    }
    _emit(payload, args)
    return 0 if ok else 1


# --------------------------------------------------------------------------


def _sub_factory(common: argparse.ArgumentParser):
    """Parser class that carries the global flags into every subcommand."""

    class SubParser(argparse.ArgumentParser):
        def __init__(self, **kwargs):
            parents = list(kwargs.pop("parents", []))
            parents.append(common)
            super().__init__(parents=parents, **kwargs)

    return SubParser


def _add_common(sub, rep_arg=False, pq=False, mult=False):
    if rep_arg:
        sub.add_argument("rep", nargs="?", help="module JSON file (else use --p/--q/--mult)")
    if pq or rep_arg:
        sub.add_argument("--p", type=int)
        sub.add_argument("--q", type=int)
    if mult or rep_arg:
        sub.add_argument("--mult", type=_parse_mults)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cqforms", description=__doc__)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--out")
    top.add_argument("--no-timestamp", action="store_true")
    # the same global flags are accepted after any subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--format", choices=("json", "csv"))
    common.add_argument("--out")
    common.add_argument("--no-timestamp", action="store_true")
    groups = top.add_subparsers(dest="group", required=True, parser_class=_sub_factory(common))

    rep = groups.add_parser("rep").add_subparsers(dest="cmd", required=True)
    b = rep.add_parser("build")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--mult", type=_parse_mults, required=True)
    b.set_defaults(fn=cmd_rep_build)
    v = rep.add_parser("verify")
    v.add_argument("rep")
    v.set_defaults(fn=cmd_rep_verify)
    c = rep.add_parser("canonical")
    c.add_argument("rep")
    c.set_defaults(fn=cmd_rep_canonical)

    qt = groups.add_parser("quartic").add_subparsers(dest="cmd", required=True)
    for name, fn in (
        ("coeffs", cmd_quartic_coeffs),
        ("square-detect", cmd_quartic_square),
    ):
        s = qt.add_parser(name)
        _add_common(s, rep_arg=True)
        s.set_defaults(fn=fn)
    for name, fn in (("eval", cmd_quartic_eval), ("grad", cmd_quartic_grad)):
        s = qt.add_parser(name)
        _add_common(s, rep_arg=True)
        s.add_argument("--w", required=True, help="comma separated integer point")
        s.set_defaults(fn=fn)
    s = qt.add_parser("homaloidal")
    _add_common(s, rep_arg=True)
    s.add_argument("--trials", type=int, default=20)
    s.set_defaults(fn=cmd_quartic_homaloidal)
    s = qt.add_parser("check-32")
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=cmd_quartic_check32)

    sym = groups.add_parser("sym").add_subparsers(dest="cmd", required=True)
    s = sym.add_parser("h")
    _add_common(s, rep_arg=True)
    s.set_defaults(fn=cmd_sym_h)
    s = sym.add_parser("g")
    _add_common(s, rep_arg=True)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--mode", choices=("float", "exact"), default="float")
    s.set_defaults(fn=cmd_sym_g)
    s = sym.add_parser("sharp")
    _add_common(s, rep_arg=True)
    s.set_defaults(fn=cmd_sym_sharp)
    s = sym.add_parser("predict")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--mult", type=_parse_mults, required=True)
    s.set_defaults(fn=cmd_sym_predict)

    zt = groups.add_parser("zeta").add_subparsers(dest="cmd", required=True)
    s = zt.add_parser("gamma")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int)
    s.add_argument("--s", required=True, help="complex, e.g. 0.4+0.2i")
    s.add_argument("--formula", choices=("quartic", "pullback", "quadratic"), required=True)
    s.add_argument("--mult", type=_parse_mults)
    s.set_defaults(fn=cmd_zeta_gamma)
    s = zt.add_parser("check-involution")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--s", required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.set_defaults(fn=cmd_zeta_involution)
    s = zt.add_parser("check-pullback")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--mult", type=_parse_mults, required=True)
    s.add_argument("--s", required=True)
    s.add_argument("--tol", type=float, default=1e-10)
    s.set_defaults(fn=cmd_zeta_pullback)
    s = zt.add_parser("check-fe-quadratic")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--s", required=True)
    s.add_argument("--tol", type=float, default=1e-4)
    s.set_defaults(fn=cmd_zeta_fe_quadratic)
    s = zt.add_parser("mc")
    _add_common(s, rep_arg=True)
    s.add_argument("--component", required=True)
    s.add_argument("--s", required=True)
    s.add_argument("--samples", type=int, default=10**6)
    s.set_defaults(fn=cmd_zeta_mc)

    s = groups.add_parser("classify")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--mult", type=_parse_mults, required=True)
    s.add_argument("--explain", action="store_true")
    s.set_defaults(fn=cmd_classify)

    s = groups.add_parser("verify-all")
    s.add_argument("--max-pq", type=int, default=6)
    s.add_argument("--max-m", type=int, default=16)
    s.set_defaults(fn=cmd_verify_all)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._argv = argv
    try:
        return args.fn(args)
    except (InvalidInputError, UnsupportedError, Z.UnsupportedCaseError, Z.PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SY.UnstableDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
