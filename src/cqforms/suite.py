"""Batch verification: every module-level invariant over an enumeration.

``run_suite`` enumerates all (p, q, multiplicities) with p >= q, a bound on
p + q, a bound on the total multiplicity, and a bound on the module
dimension, and runs each registered check on each case; the acceptance
tests and the command-line ``verify-all`` both drive this machinery.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import quartic as Q
from . import symlie as SY
from . import zetafe as Z
from .classify import classify as classify_verdict
from .classify import table1_lookup
from .repkit import irrep_catalog, rep_build, spin_equivariance_check, verify_relations
from .rng import complex_s_samples, integer_points


def enumerate_cases(max_pq: int = 11, max_total_mult: int = 2, max_m: int = 32):
    """All (p, q, mults) with p >= q, p + q <= max_pq, bounded size."""
    cases = []
    for n in range(1, max_pq + 1):
        for q in range(0, n // 2 + 1):
            p = n - q
            cat = irrep_catalog(p, q)
            for mults in itertools.product(range(max_total_mult + 1), repeat=cat.count):
                total = sum(mults)
                if 1 <= total <= max_total_mult and total * cat.dim <= max_m:
                    cases.append((p, q, mults))
    return cases


@dataclass
class SuiteRow:
    case: str
    check: str
    ok: bool
    seconds: float
    detail: str = ""


def _case_id(p, q, mults) -> str:
    return f"({p},{q})x{','.join(map(str, mults))}"


def check_relations(p, q, mults) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    report = verify_relations(rep)
    if not report.ok:
        return False, str(report.failures)
    if not spin_equivariance_check(rep):
        return False, "spin equivariance identities failed"
    # the coefficient table and the matrix formula agree pointwise
    form = Q.expand_coeffs(rep)
    for w in integer_points(83, 10, rep.m):
        if form.eval(w) != Q.eval_quartic(rep, w):
            return False, f"coefficient table disagrees with direct evaluation at {w}"
    return True, ""


def check_degeneracy(p, q, mults) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    computed, expected = Q.is_degenerate(rep)
    return computed == expected, f"computed={computed} expected={expected}"


def check_square(p, q, mults) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    form = Q.expand_coeffs(rep)
    if form.is_zero:
        return True, "degenerate, skipped"
    witness = Q.square_detect(form)
    expected = (p, q) == (1, 0) or (p, q, rep.m) in Q.SQUARE_TRIPLES
    if (witness is not None) != expected:
        return False, f"witness={'yes' if witness else 'no'} expected={expected}"
    if witness is not None:
        pairs = _mat_to_pairs(witness.mat)
        want = {k: witness.c * v for k, v in Q._poly_mul(pairs, pairs).items()}
        if want != dict(form.coeffs):
            return False, "witness square does not reproduce the quartic"
    return True, ""


def _mat_to_pairs(mat):
    out = {}
    m = len(mat)
    for a in range(m):
        for b in range(a, m):
            v = mat[a][b] if a == b else 2 * mat[a][b]
            if v:
                out[(a, b)] = v
    return out


def check_homaloidal(p, q, mults, seed=0, trials=20) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    ok = Q.homaloidal_check(rep, trials, seed + 17)
    return ok, ""


def check_symmetry_dims(p, q, mults, seed=0) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    pred = SY.predict(p, q, mults)
    hk = SY.h_kernel(rep)
    if hk.dimension != pred.h_dim:
        return False, f"h: computed {hk.dimension}, predicted {pred.h_dim} ({pred.h_algebra})"
    gk = SY.g_kernel_dim(rep, seed=seed + 29)
    if pred.degenerate:
        want = rep.m * rep.m
    elif pred.exceptional:
        want = pred.g_dim_exceptional
        if want is None:
            return True, f"g computed {gk.dimension}; no stated dimension"
    else:
        want = pred.g_dim
    if gk.dimension != want:
        return False, f"g: computed {gk.dimension}, predicted {want}"
    if gk.residual > 1e-8:
        return False, f"g residual {gk.residual:.2e}"
    # the infinitesimal rotations S_i S_j always lie in g
    if rep.n >= 2 and not SY.g_contains(rep, rep.basis[0] @ rep.basis[rep.n - 1]):
        return False, "S_1 S_n not in computed symmetry algebra"
    return True, f"h={hk.dimension} g={gk.dimension}"


def check_sharp(p, q, mults, seed=0) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    got = SY.sharp_check(rep, seed=seed + 41)
    want = SY.expected_sharp(p, q, mults)
    return got == want, f"computed={got} expected={want}"


def gamma_applicable(p, q, mults) -> bool:
    """Cases covered by the closed quartic gamma formulas with unit twists."""
    rep_m = sum(mults) * irrep_catalog(p, q).dim
    if (p, q) in ((1, 0), (1, 1), (2, 1), (3, 1)):
        return False
    if rep_m < 8 or rep_m % 8:
        return False
    if Q.expected_degenerate(p, q, mults):
        return False
    if q == 1 and p < 4:
        return False
    return True


def check_gamma_consistency(p, q, mults, seed=0, count=20, tol=1e-10) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    consts = Z.gamma_constants(rep)
    if any(abs(g - 1) > 1e-12 for g in consts.gammas):
        return True, "twists not all 1, closed form not applicable"
    worst = 0.0
    for s in complex_s_samples(seed + 53, count):
        gq = Z.gamma_quartic(p, q, rep.m, s)
        gp = Z.gamma_pullback(consts, s)
        scale = np.max(np.abs(gq.values))
        worst = max(worst, float(np.max(np.abs(gq.values - gp.values)) / scale))
    if worst >= tol:
        return False, f"pullback vs closed relative error {worst:.2e}"
    inv_bad = [
        s
        for s in complex_s_samples(seed + 67, 10)
        if not Z.fe_involution_check(p, q, rep.m, s, tol)
    ]
    if inv_bad:
        return False, f"involution failed at {inv_bad[0]}"
    return True, f"max rel err {worst:.2e}"


def check_constants(p, q, mults, seed=0) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    if Q.expected_degenerate(p, q, mults):
        return True, "degenerate, skipped"
    Z.gamma_constants(rep)  # raises on closed-form mismatch
    if not Z.det_sv_identity_check(rep, seed=seed + 71):
        return False, "det S(v) identity failed"
    return True, ""


def check_classification(p, q, mults) -> tuple[bool, str]:
    rep = rep_build(p, q, mults)
    verdict = classify_verdict(p, q, mults)
    form = Q.expand_coeffs(rep)
    if verdict.degenerate != form.is_zero:
        return False, "degenerate flag disagrees with computation"
    if not form.is_zero:
        has_witness = Q.square_detect(form) is not None
        if verdict.square_of_quadratic != has_witness:
            return False, "square flag disagrees with detection"
    if verdict.prehomogeneous != (table1_lookup(p, q, mults) is not None):
        return False, "prehomogeneous flag disagrees with the space catalog"
    flags = [verdict.degenerate, verdict.exceptional, verdict.generic]
    if sum(flags) != 1:
        return False, "verdict flags not mutually exclusive"
    return True, ""


CHECKS = {
    "relations": check_relations,
    "degeneracy": check_degeneracy,
    "square": check_square,
    "homaloidal": check_homaloidal,
    "symmetry-dims": check_symmetry_dims,
    "sharp": check_sharp,
    "gamma": check_gamma_consistency,
    "constants": check_constants,
    "classification": check_classification,
}

_SEEDED = {"homaloidal", "symmetry-dims", "sharp", "gamma", "constants"}


def run_suite(
    max_pq: int = 11,
    max_m: int = 32,
    seed: int = 0,
    checks=None,
    max_total_mult: int = 2,
) -> list[SuiteRow]:
    if max_pq > 12 or max_m > 64:
        from .repkit import InvalidInputError

        raise InvalidInputError("suite bounds: max_pq <= 12, max_m <= 64")
    names = list(CHECKS) if checks is None else list(checks)
    rows = []
    for p, q, mults in enumerate_cases(max_pq, max_total_mult, max_m):
        cid = _case_id(p, q, mults)
        for name in names:
            if name == "gamma" and not gamma_applicable(p, q, mults):
                continue
            fn = CHECKS[name]
            t0 = time.perf_counter()
            try:
                if name in _SEEDED:
                    ok, detail = fn(p, q, mults, seed=seed)
                else:
                    ok, detail = fn(p, q, mults)
            except Exception as exc:  # a crash is a failure, not an abort
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            rows.append(SuiteRow(cid, name, ok, time.perf_counter() - t0, detail))
    rows.sort(key=lambda r: (r.case, r.check))
    return rows
