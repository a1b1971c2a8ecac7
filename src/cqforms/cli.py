"""Command-line driver.

Subcommands: rep {build, verify, canonical}, quartic {coeffs, eval, grad,
homaloidal, square-detect, check-32}, sym {h, g, sharp, predict},
zeta {gamma, check-involution, check-pullback, check-fe-quadratic, mc},
classify, verify-all.

Every run prints a JSON document (or CSV, from quartic coeffs --format csv)
carrying a schema version, an echo of the configuration including the seed,
and a timestamp unless --no-timestamp is given.  Exit status: 0 success /
checks passed, 1 a verification check failed, 2 usage or input error,
including inputs at which a float result overflows or is not a number.

Code layout: ``COMMANDS`` has one row ``(group or None, name, handler,
arguments)`` per subcommand, and ``build_parser`` is one loop over it.  A
handler returns ``(document, status)``, the document a dict or the text of
a CSV table or a module file; ``main`` alone emits it (schema, config echo,
timestamp, ``--out``) and returns the status.  ``rep build --out`` writes
its module file itself and returns no document.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import quartic as Q
from . import symlie as SY
from . import zetafe as Z
from .classify import classify as classify_verdict
from .classify import expected_sharp, predict
from .repkit import (
    InvalidInputError,
    UnsupportedError,
    canonicalize,
    irrep_catalog,
    rep_build,
    rep_from_json,
    rep_to_json,
    require_relations,
)
from .suite import run_suite

SCHEMA = 1


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}") from None


def _component(text: str) -> str:
    """A component label with ``p`` for ``+`` and ``m`` for ``-``: argparse
    takes a value that starts with ``-``, such as ``--`` or ``-+``, for an
    option or the end of options."""
    return text.translate(str.maketrans("pm", "+-"))


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0: an infinite one would pass every check and a
    negative or NaN one fail every check, whatever the inputs."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


def _parse_complex(text: str) -> complex:
    """A finite complex number, with ``i`` or ``j`` for the imaginary unit."""
    t = text.strip().replace(" ", "").replace("i", "j")
    try:
        s = complex(t)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(s):
        raise InvalidInputError(f"complex number {text!r} is not finite")
    return s


def _json_default(x):
    """The JSON value of a complex, Fraction, ndarray or numpy scalar;
    ``json.dumps`` calls this only for the types it does not know."""
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _emit(document: dict | str, args, argv: list[str]) -> None:
    """Write a handler's document to --out or stdout: a dict as a JSON
    document with schema, configuration echo and timestamp, text as it is."""
    if isinstance(document, dict):
        doc = {"schema": SCHEMA}
        doc.update(document)
        doc["config"] = {
            "argv": argv,
            "seed": args.seed,
        }
        if not args.no_timestamp:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        try:
            document = json.dumps(doc, indent=2, default=_json_default, allow_nan=False) + "\n"
        except ValueError:  # JSON has no NaN or infinity
            raise OverflowError("a value of the result is not finite") from None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)


def _rep_from_args(args, check=True):
    """The module in the file ``args.rep``, refused if ``check`` and its
    defining relations fail (``rep verify`` reports them), or else the one
    built from --p/--q/--mult."""
    if args.rep:
        # read as bytes, so a file that is not UTF-8 is refused as malformed JSON
        with open(args.rep, "rb") as fh:
            rep = rep_from_json(fh.read())
        return require_relations(rep, f"module in {args.rep}", "rep verify") if check else rep
    if args.p is None or args.q is None or args.mult is None:
        raise InvalidInputError("give a module file or --p, --q and --mult")
    return rep_build(args.p, args.q, args.mult)


def cmd_rep_build(args):
    rep = rep_build(args.p, args.q, args.mult)
    if not args.out:
        return rep_to_json(rep) + "\n", 0
    # --out takes the module file here, not a document
    with open(args.out, "w") as fh:
        fh.write(rep_to_json(rep) + "\n")
    print(f"wrote ({args.p},{args.q}) module of dimension {rep.m} to {args.out}")
    return None, 0


def cmd_rep_verify(args):
    rep = _rep_from_args(args, check=False)
    report = rep.relations
    return {
        "p": rep.p,
        "q": rep.q,
        "m": rep.m,
        "ok": report.ok,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in report.checks],
    }, 0 if report.ok else 1


def cmd_rep_canonical(args):
    can, a_list, b_list = canonicalize(_rep_from_args(args))
    return {
        "m": can.m,
        "d": can.m // 2,
        "basis": can.basis,
        "A": a_list,
        "B": b_list,
    }, 0


def cmd_quartic_coeffs(args):
    rep = _rep_from_args(args)
    form = Q.expand_coeffs(rep)
    if args.format == "csv":
        return form.to_csv(), 0
    return {
        "m": rep.m,
        "nonzero": len(form.coeffs),
        "coeffs": [{"key": list(k), "value": v} for k, v in sorted(form.coeffs.items())],
    }, 0


def cmd_quartic_eval(args):
    return {"value": Q.eval_quartic(_rep_from_args(args), args.w)}, 0


def cmd_quartic_grad(args):
    return {"gradient": Q.grad_quartic(_rep_from_args(args), args.w)}, 0


def cmd_quartic_homaloidal(args):
    ok = Q.homaloidal_check(_rep_from_args(args), args.trials, args.seed)
    return {
        "ok": ok,
        "trials": args.trials,
        "identity": "F(grad F) = 256 F^3",
        "probabilistic": True,
    }, 0 if ok else 1


def cmd_quartic_square(args):
    form = Q.expand_coeffs(_rep_from_args(args))
    if form.is_zero:
        return {"square": False, "detail": "quartic vanishes identically"}, 0
    witness = Q.square_detect(form)
    if witness is None:
        return {"square": False}, 0
    return {
        "square": True,
        "c": str(witness.c),
        "matrix": [[str(v) for v in row] for row in witness.mat],
    }, 0


def cmd_quartic_check32(args):
    ok = Q.check_32_identity(args.k, seed=args.seed)
    doc = {"ok": ok, "k": args.k, "points": Q.CHECK32_POINTS, "probabilistic": True}
    return doc, 0 if ok else 1


def cmd_sym_h(args):
    rep = _rep_from_args(args)
    rpt = SY.h_kernel(rep)
    pred = predict(rep.p, rep.q, rep.mults)
    match = pred.h_dim == rpt.dimension
    return {
        "computed_dim": rpt.dimension,
        "predicted_dim": pred.h_dim,
        "algebra": pred.h_algebra,
        "match": match,
        "method": rpt.method,
        "residual": rpt.residual,
    }, 0 if match else 1


def cmd_sym_g(args):
    rep = _rep_from_args(args)
    rpt = SY.g_kernel_dim(rep, seed=args.seed)
    want = predict(rep.p, rep.q, rep.mults).g_dim
    match = want == rpt.dimension
    return {
        "computed_dim": rpt.dimension,
        "predicted_dim": want,
        "match": match,
        "method": rpt.method,
        "residual": rpt.residual,
    }, 0 if match else 1


def cmd_sym_sharp(args):
    rep = _rep_from_args(args)
    dim, forced = SY.sharp_solution_dim(rep, seed=args.seed)
    holds = dim == forced
    expected = expected_sharp(rep.p, rep.q, rep.mults)
    match = holds == expected
    return {
        "holds": holds,
        "solution_dim": dim,
        "forced_dim": forced,
        "expected": expected,
        "match": match,
    }, 0 if match else 1


def cmd_sym_predict(args):
    pred = predict(args.p, args.q, args.mult)
    return {
        "h_algebra": pred.h_algebra,
        "h_dim": pred.h_dim,
        "g_dim": pred.g_dim,
        "exceptional": pred.exceptional,
        "degenerate": pred.degenerate,
        "g_dim_exceptional": pred.g_dim_exceptional,
    }, 0


def cmd_zeta_gamma(args):
    unread = {"quartic": ("mult",), "quadratic": ("m", "mult")}.get(args.formula, ())
    given = [f"--{name}" for name in unread if getattr(args, name) is not None]
    if given:
        raise InvalidInputError(f"--formula {args.formula} does not take {' or '.join(given)}")
    s = _parse_complex(args.s)
    if args.formula == "quadratic":
        g = Z.gamma_quadratic(args.p, args.q, s)
    elif args.formula == "quartic":
        if args.m is None:
            raise InvalidInputError("--formula quartic needs --m")
        g = Z.gamma_quartic(args.p, args.q, args.m, s)
        _default_mults(args.p, args.q, args.m)  # after the formula's own refusals
    else:
        mults = args.mult or _default_mults(args.p, args.q, args.m)
        rep = rep_build(args.p, args.q, mults)
        if args.m not in (None, rep.m):
            given = ",".join(map(str, mults))
            raise InvalidInputError(f"--m {args.m} contradicts --mult {given} (m = {rep.m})")
        g = Z.gamma_pullback(Z.gamma_constants(rep), s)
    return {
        "labels": g.labels,
        "formula": g.formula,
        "validated": g.validated,
        "matrix": g.values,
        "s": s,
    }, 0


def _default_mults(p: int, q: int, m: int | None):
    """Class 0 alone at dimension m; refuses an m that no (p, q) module has."""
    cat = irrep_catalog(p, q)
    if m is None or m < 1 or m % cat.dim:
        raise InvalidInputError(f"m must be a positive multiple of {cat.dim}")
    return (m // cat.dim,) + (0,) * (cat.count - 1)


def cmd_zeta_involution(args):
    s = _parse_complex(args.s)
    ok = Z.fe_involution_check(args.p, args.q, args.m, s, args.tol)
    _default_mults(args.p, args.q, args.m)  # after the formula's own refusals
    return {"ok": ok, "s": s, "tol": args.tol}, 0 if ok else 1


def cmd_zeta_pullback(args):
    s = _parse_complex(args.s)
    err = Z.pullback_error(Z.gamma_constants(rep_build(args.p, args.q, args.mult)), s)
    ok = err < args.tol
    return {"ok": ok, "relative_error": err, "tol": args.tol, "s": s}, 0 if ok else 1


def cmd_zeta_fe_quadratic(args):
    s = _parse_complex(args.s)
    ok = Z.fe_quadratic_numeric_check(args.p, args.q, s, args.tol)
    return {"ok": ok, "s": s, "tol": args.tol}, 0 if ok else 1


def cmd_zeta_mc(args):
    rep = _rep_from_args(args)
    s = _parse_complex(args.s)
    est = Z.zeta_quartic_mc(rep, args.component, s, samples=args.samples, seed=args.seed)
    return {
        "value": est.value,
        "stderr": est.stderr,
        "samples": est.samples,
        "component": est.component,
        "s": s,
    }, 0


def cmd_classify(args):
    return classify_verdict(args.p, args.q, args.mult, explain=args.explain).as_dict(), 0


def cmd_verify_all(args):
    rows = run_suite(max_pq=args.max_pq, max_m=args.max_m, seed=args.seed)
    ok = all(r.ok for r in rows)
    return {
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
    }, 0 if ok else 1


# An argument is (name, add_argument options); the shared ones are named once.


def _with(arg, **options):
    """The argument ``arg`` with more add_argument options."""
    return arg[0], arg[1] | options


_P = ("--p", {"type": int})
_Q = ("--q", {"type": int})
_MULT = ("--mult", {"type": _int_list})
_FILE = ("rep", {})
_MODULE = (
    _with(_FILE, nargs="?", help="module JSON file (else use --p/--q/--mult)"), _P, _Q, _MULT
)
_PQ = (_with(_P, required=True), _with(_Q, required=True))
_PQ_MULT = _PQ + (_with(_MULT, required=True),)
_S = ("--s", {"required": True})
_W = ("--w", {"type": _int_list, "required": True, "help": "comma separated integer point"})
_TOL = ("--tol", {"type": _tolerance, "default": 1e-10})
_COMPONENT = ("--component", {
    "type": _component,
    "required": True,
    "help": "+, -, -+, --, ++ or +-, with p for + and m for - (mm is --)",
})

COMMANDS = (
    ("rep", "build", cmd_rep_build, _PQ_MULT),
    ("rep", "verify", cmd_rep_verify, (_FILE,)),
    ("rep", "canonical", cmd_rep_canonical, (_FILE,)),
    ("quartic", "coeffs", cmd_quartic_coeffs,
     _MODULE + (("--format", {"choices": ("json", "csv"), "default": "json"}),)),
    ("quartic", "square-detect", cmd_quartic_square, _MODULE),
    ("quartic", "eval", cmd_quartic_eval, _MODULE + (_W,)),
    ("quartic", "grad", cmd_quartic_grad, _MODULE + (_W,)),
    ("quartic", "homaloidal", cmd_quartic_homaloidal,
     _MODULE + (("--trials", {"type": int, "default": 20}),)),
    ("quartic", "check-32", cmd_quartic_check32, (("--k", {"type": int, "required": True}),)),
    ("sym", "h", cmd_sym_h, _MODULE),
    ("sym", "g", cmd_sym_g, _MODULE),
    ("sym", "sharp", cmd_sym_sharp, _MODULE),
    ("sym", "predict", cmd_sym_predict, _PQ_MULT),
    ("zeta", "gamma", cmd_zeta_gamma, _PQ + (
        ("--m", {"type": int}),
        _with(_S, help="complex, e.g. 0.4+0.2i"),
        ("--formula", {"choices": ("quartic", "pullback", "quadratic"), "required": True}),
        _MULT,
    )),
    ("zeta", "check-involution", cmd_zeta_involution,
     _PQ + (("--m", {"type": int, "required": True}), _S, _TOL)),
    ("zeta", "check-pullback", cmd_zeta_pullback, _PQ_MULT + (_S, _TOL)),
    ("zeta", "check-fe-quadratic", cmd_zeta_fe_quadratic, _PQ + (_S, _with(_TOL, default=1e-4))),
    ("zeta", "mc", cmd_zeta_mc,
     _MODULE + (_COMPONENT, _S, ("--samples", {"type": int, "default": 10**6}))),
    (None, "classify", cmd_classify, _PQ_MULT + (("--explain", {"action": "store_true"}),)),
    (None, "verify-all", cmd_verify_all, (
        ("--max-pq", {"type": int, "default": 6}),
        ("--max-m", {"type": int, "default": 16}),
    )),
)


@functools.cache  # parse_args keeps no state in the parser, so main() reuses one
def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its code layout paragraph
    top = argparse.ArgumentParser(prog="cqforms", description=__doc__.split("\n\nCode layout")[0])
    # the same global flags are accepted after any subcommand
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for parser, seed in ((top, 0), (common, argparse.SUPPRESS)):
        parser.add_argument("--seed", type=int, default=seed)
        parser.add_argument("--out")
        parser.add_argument("--no-timestamp", action="store_true")
    subparsers = {None: top.add_subparsers(dest="group", required=True)}
    for group, name, fn, arguments in COMMANDS:
        if group not in subparsers:
            parser = subparsers[None].add_parser(group, parents=[common])
            subparsers[group] = parser.add_subparsers(dest="cmd", required=True)
        leaf = subparsers[group].add_parser(name, parents=[common])
        for flag, options in arguments:
            leaf.add_argument(flag, **options)
        leaf.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a float that overflows or is not a number refuses the inputs
        with np.errstate(over="raise", invalid="raise"):
            document, status = args.fn(args)
            if document is not None:
                _emit(document, args, argv)
        return status
    except (InvalidInputError, UnsupportedError, Z.UnsupportedCaseError, Z.PoleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: no finite float64 result at these inputs: {exc}", file=sys.stderr)
        return 2
    except SY.UnstableDimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
