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
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import modp
from . import quartic as Q
from . import symlie as SY
from . import zetafe as Z
from .classify import classify as classify_verdict
from .classify import (
    expected_degenerate,
    expected_det_square,
    expected_sharp,
    expected_twists,
    gamma_applicable,
    predict,
    table1_lookup,
)
from .repkit import InvalidInputError, irrep_catalog, rep_build, spin_equivariance_check


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
    # the coefficient table and the matrix formula agree at points mod P
    pts = modp.residue_points(83, 10, rep.m)
    bad = np.flatnonzero(modp.table_values(case.form.coeffs, pts) != modp.quartic_values(rep, pts))
    if bad.size:
        return False, f"coefficient table disagrees with direct evaluation at {pts[:, bad[0]].tolist()}"
    return True, ""


def check_degeneracy(case) -> tuple[bool, str]:
    computed = case.form.is_zero
    expected = expected_degenerate(case.p, case.q, case.mults)
    return computed == expected, f"computed={computed} expected={expected}"


def check_square(case) -> tuple[bool, str]:
    if case.form.is_zero:
        return True, "degenerate, skipped"
    witness = case.witness
    expected = classify_verdict(case.p, case.q, case.mults).square_of_quadratic
    if (witness is not None) != expected:
        return False, f"witness={'yes' if witness else 'no'} expected={expected}"
    if witness is not None:
        pairs = Q.quad_form_terms(witness.mat)
        want = {k: witness.c * v for k, v in Q.poly_mul(pairs, pairs).items()}
        if want != dict(case.form.coeffs):
            return False, "witness square does not reproduce the quartic"
    return True, ""


def check_homaloidal(case) -> tuple[bool, str]:
    return Q.homaloidal_check(case.rep, 20, case.seed + 17), ""


def check_symmetry_dims(case) -> tuple[bool, str]:
    rep = case.rep
    pred = predict(case.p, case.q, case.mults)
    hk = SY.h_kernel(rep)
    if hk.dimension != pred.h_dim:
        return False, f"h: computed {hk.dimension}, predicted {pred.h_dim} ({pred.h_algebra})"
    gk = SY.g_kernel_dim(rep, seed=case.seed + 29)
    if gk.dimension != pred.g_dim:
        return False, f"g: computed {gk.dimension}, predicted {pred.g_dim}"
    if gk.residual > 1e-8:
        return False, f"g residual {gk.residual:.2e}"
    return True, f"h={hk.dimension} g={gk.dimension}"


def check_sharp(case) -> tuple[bool, str]:
    got = SY.sharp_check(case.rep, seed=case.seed + 41)
    want = expected_sharp(case.p, case.q, case.mults)
    return got == want, f"computed={got} expected={want}"


def check_gamma_consistency(case) -> tuple[bool, str]:
    failed = Z.gamma_identity_check(case.consts)
    if failed is not None:
        return False, f"{failed} identity fails"
    return True, "pullback and involution identities hold term by term"


def check_constants(case) -> tuple[bool, str]:
    if expected_degenerate(case.p, case.q, case.mults):
        return True, "degenerate, skipped"
    consts = case.consts
    want = expected_twists(case.p, case.q, case.mults, consts.labels)
    for label, (plus, minus), x in zip(consts.labels, consts.signatures, want):
        got = Fraction(plus - minus, 8)
        if (got - x) % 1:
            return False, f"gamma mismatch on component {label}: e({got}) vs e({x})"
    holds = Z.det_sv_identity_check(case.rep, seed=case.seed + 71)
    if holds != expected_det_square(case.p, case.q, case.mults):
        return False, "det S(v) identity failed"
    return True, ""


def check_classification(case) -> tuple[bool, str]:
    verdict = classify_verdict(case.p, case.q, case.mults)
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
