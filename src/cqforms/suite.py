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
from functools import cached_property

import numpy as np

from . import quartic as Q
from . import symlie as SY
from . import zetafe as Z
from .classify import classify as classify_verdict
from .classify import table1_lookup
from .repkit import InvalidInputError, irrep_catalog, rep_build, spin_equivariance_check
from .rng import complex_s_samples, integer_points
from .spmat import signed_permutation_matrix, sp_mul


def enumerate_cases(*, max_pq: int = 11, max_total_mult: int = 2, max_m: int = 32):
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


@dataclass(frozen=True)
class Case:
    """One module of the enumeration; each shared object is built on first use."""

    p: int
    q: int
    mults: tuple
    seed: int = 0

    @cached_property
    def rep(self):
        return rep_build(self.p, self.q, self.mults)

    @cached_property
    def form(self):
        return Q.expand_coeffs(self.rep)

    @cached_property
    def witness(self):
        return None if self.form.is_zero else Q.square_detect(self.form)

    @cached_property
    def consts(self):
        return Z.gamma_constants(self.rep)


def check_relations(case) -> tuple[bool, str]:
    rep = case.rep
    report = rep.relations
    if not report.ok:
        return False, str(report.failures)
    if not spin_equivariance_check(rep):
        return False, "spin equivariance identities failed"
    # the coefficient table and the matrix formula agree pointwise
    pts = integer_points(83, 10, rep.m)
    for w, value in zip(pts.T.tolist(), Q.quartic_values(rep, pts).tolist()):
        if case.form.eval(w) != value:
            return False, f"coefficient table disagrees with direct evaluation at {w}"
    return True, ""


def check_degeneracy(case) -> tuple[bool, str]:
    computed = case.form.is_zero
    expected = Q.expected_degenerate(case.p, case.q, case.mults)
    return computed == expected, f"computed={computed} expected={expected}"


def check_square(case) -> tuple[bool, str]:
    if case.form.is_zero:
        return True, "degenerate, skipped"
    witness = case.witness
    expected = (case.p, case.q) == (1, 0) or (case.p, case.q, case.rep.m) in Q.SQUARE_TRIPLES
    if (witness is not None) != expected:
        return False, f"witness={'yes' if witness else 'no'} expected={expected}"
    if witness is not None:
        pairs = Q.quad_form_terms(witness.mat)
        want = {k: witness.c * v for k, v in Q._poly_mul(pairs, pairs).items()}
        if want != dict(case.form.coeffs):
            return False, "witness square does not reproduce the quartic"
    return True, ""


def check_homaloidal(case) -> tuple[bool, str]:
    return Q.homaloidal_check(case.rep, 20, case.seed + 17), ""


def check_symmetry_dims(case) -> tuple[bool, str]:
    rep = case.rep
    pred = SY.predict(case.p, case.q, case.mults)
    hk = SY.h_kernel(rep)
    if hk.dimension != pred.h_dim:
        return False, f"h: computed {hk.dimension}, predicted {pred.h_dim} ({pred.h_algebra})"
    gk = SY.g_kernel_dim(rep, seed=case.seed + 29)
    if pred.degenerate:
        want = rep.m * rep.m
    elif pred.exceptional:
        want = pred.g_dim_exceptional
    else:
        want = pred.g_dim
    if gk.dimension != want:
        return False, f"g: computed {gk.dimension}, predicted {want}"
    if gk.residual > 1e-8:
        return False, f"g residual {gk.residual:.2e}"
    # the infinitesimal rotations S_i S_j always lie in g
    rot = signed_permutation_matrix(*sp_mul((rep.perm[0], rep.sign[0]), (rep.perm[-1], rep.sign[-1])))
    if rep.n >= 2 and not SY.g_contains(rep, rot):
        return False, "S_1 S_n not in computed symmetry algebra"
    return True, f"h={hk.dimension} g={gk.dimension}"


def check_sharp(case) -> tuple[bool, str]:
    got = SY.sharp_check(case.rep, seed=case.seed + 41)
    want = SY.expected_sharp(case.p, case.q, case.mults)
    return got == want, f"computed={got} expected={want}"


def gamma_applicable(p, q, mults) -> bool:
    """Cases covered by the closed quartic gamma formulas with unit twists."""
    rep_m = sum(mults) * irrep_catalog(p, q).dim
    return Z._closed_form_refusal(p, q, rep_m) is None and not Q.expected_degenerate(p, q, mults)


def check_gamma_consistency(case) -> tuple[bool, str]:
    p, q, m = case.p, case.q, case.rep.m
    consts = case.consts
    if any(abs(g - 1) > 1e-12 for g in consts.gammas):
        return True, "twists not all 1, closed form not applicable"
    worst = 0.0
    for s in complex_s_samples(case.seed + 53, 20):
        gq = Z.gamma_quartic(p, q, m, s)
        gp = Z.gamma_pullback(consts, s)
        scale = np.max(np.abs(gq.values))
        worst = max(worst, float(np.max(np.abs(gq.values - gp.values)) / scale))
    if worst >= 1e-10:
        return False, f"pullback vs closed relative error {worst:.2e}"
    inv_bad = [
        s
        for s in complex_s_samples(case.seed + 67, 10)
        if not Z.fe_involution_check(p, q, m, s, 1e-10)
    ]
    if inv_bad:
        return False, f"involution failed at {inv_bad[0]}"
    return True, f"max rel err {worst:.2e}"


def check_constants(case) -> tuple[bool, str]:
    if Q.expected_degenerate(case.p, case.q, case.mults):
        return True, "degenerate, skipped"
    case.consts  # raises on closed-form mismatch
    if not Z.det_sv_identity_check(case.rep, seed=case.seed + 71):
        return False, "det S(v) identity failed"
    return True, ""


def check_classification(case) -> tuple[bool, str]:
    verdict = classify_verdict(case.p, case.q, case.mults)
    if verdict.degenerate != case.form.is_zero:
        return False, "degenerate flag disagrees with computation"
    if not case.form.is_zero and verdict.square_of_quadratic != (case.witness is not None):
        return False, "square flag disagrees with detection"
    if verdict.prehomogeneous != (table1_lookup(case.p, case.q, case.mults) is not None):
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


def run_suite(
    max_pq: int = 11,
    max_m: int = 32,
    seed: int = 0,
    checks=None,
    max_total_mult: int = 2,
) -> list[SuiteRow]:
    """Run the named checks (all by default) on every enumerated case.

    Each case is one ``Case`` shared by its checks and dropped before the
    next case.  The module, quartic, square witness and gamma constants are
    built lazily, so their cost is timed in the first check that reads them.
    """
    if max_pq > 12 or max_m > 64:
        raise InvalidInputError("suite bounds: max_pq <= 12, max_m <= 64")
    names = list(CHECKS) if checks is None else list(checks)
    if not names:
        raise InvalidInputError("no check to run")
    for name in names:
        if name not in CHECKS:
            raise InvalidInputError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
    cases = enumerate_cases(max_pq=max_pq, max_total_mult=max_total_mult, max_m=max_m)
    if not cases:
        raise InvalidInputError(f"the bounds max_pq={max_pq}, max_m={max_m} enumerate no case")
    rows = []
    for p, q, mults in cases:
        cid = _case_id(p, q, mults)
        case = Case(p, q, mults, seed)
        for name in names:
            if name == "gamma" and not gamma_applicable(p, q, mults):
                continue
            t0 = time.perf_counter()
            try:
                ok, detail = CHECKS[name](case)
            except Exception as exc:  # a crash is a failure, not an abort
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            rows.append(SuiteRow(cid, name, ok, time.perf_counter() - t0, detail))
    rows.sort(key=lambda r: (r.case, r.check))
    return rows
