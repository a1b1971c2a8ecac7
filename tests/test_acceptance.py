"""Acceptance suite: the package's exit criteria.

Everything enumerable is checked over the full range p + q <= 11 with total
multiplicity <= 2 and module dimension m <= 32 (plus the table-only p+q = 12
row of the classification regression).  One summary line is printed per
criterion; run with ``pytest -s tests/test_acceptance.py`` to see them all.
"""

import itertools
import math
import time

import pytest

from cqforms import quartic as Q
from cqforms import zetafe as Z
from cqforms.classify import classify, table1_lookup
from cqforms.repkit import irrep_catalog
from cqforms.suite import run_suite


@pytest.fixture(scope="module")
def suite_rows():
    t0 = time.time()
    rows = run_suite(max_pq=11, max_m=32, seed=0)
    print(f"\n[acceptance] full enumeration suite: {len(rows)} rows in {time.time()-t0:.0f}s")
    return rows


def _criterion(rows, name, label, budget_s):
    sel = [r for r in rows if r.check == name]
    bad = [r for r in sel if not r.ok]
    took = sum(r.seconds for r in sel)
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE {label}: {status} ({len(sel)} cases, {took:.1f}s, budget {budget_s}s)")
    for r in bad[:10]:
        print(f"  failing case {r.case}: {r.detail}")
    assert not bad, f"{label}: {len(bad)} failing cases"
    assert took < budget_s, f"{label} exceeded runtime budget"


def test_criterion_1_representation_correctness(suite_rows):
    _criterion(suite_rows, "relations", "1 representation-correctness", 300)


def test_criterion_2_degeneracy_classification(suite_rows):
    _criterion(suite_rows, "degeneracy", "2 degeneracy-classification", 300)


def test_criterion_3_square_detection(suite_rows):
    _criterion(suite_rows, "square", "3 square-detection", 600)


def test_criterion_4_homaloidal_identity(suite_rows):
    _criterion(suite_rows, "homaloidal", "4 homaloidal-identity", 600)


def test_criterion_5_symmetry_dimensions(suite_rows):
    _criterion(suite_rows, "symmetry-dims", "5 symmetry-dimensions", 1800)


def test_criterion_6_sharp_condition(suite_rows):
    _criterion(suite_rows, "sharp", "6 sharp-condition", 900)


def test_criterion_7_gamma_consistency(suite_rows):
    # pullback == closed form at 20 sample points and the double functional
    # equation at 10, both to 1e-10 relative, for every applicable case
    _criterion(suite_rows, "gamma", "7 gamma-consistency", 120)


def test_criterion_8_quadratic_fe_numerics():
    t0 = time.time()
    ok1 = Z.fe_quadratic_numeric_check(1, 0, -0.6, 1e-4)
    ok2 = Z.fe_quadratic_numeric_check(2, 0, -0.5, 1e-8)
    ok3 = Z.fe_quadratic_numeric_check(1, 1, -0.5, 1e-4)
    took = time.time() - t0
    status = "PASS" if ok1 and ok2 and ok3 else "FAIL"
    print(f"ACCEPTANCE 8 quadratic-fe-numerics: {status} (3 cases, {took:.1f}s, budget 120s)")
    assert ok1 and ok2 and ok3
    assert took < 120


def test_criterion_9_zeta_mc_oracle():
    from cqforms.repkit import rep_build

    t0 = time.time()
    failures = []
    cases = [
        (rep_build(1, 0, (4, 0)), "+", 1.0, Z.zeta_quartic_closed_square(4, 1.0)),
        (rep_build(1, 1, (1, 0, 1, 0)), "+", 1.0, 1 / math.pi**2),
    ]
    for rep, comp, s, want in cases:
        est = Z.zeta_quartic_mc(rep, comp, s, samples=10**6, seed=42)
        if abs(est.value - want) > 3 * est.stderr or est.stderr > 0.01 * abs(want):
            failures.append((rep.p, rep.q, est.value, want, est.stderr))
    took = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE 9 zeta-mc-oracle: {status} ({len(cases)} cases, {took:.1f}s, budget 240s)")
    assert not failures, failures
    assert took < 240


def test_criterion_10_split_32_identity():
    t0 = time.time()
    results = {k: Q.check_32_identity(k, seed=2024) for k in (1, 2, 3)}
    took = time.time() - t0
    status = "PASS" if all(results.values()) else "FAIL"
    print(f"ACCEPTANCE 10 rank-(3,2)-pfaffian-identity: {status} (k=1,2,3, {took:.1f}s, budget 60s)")
    assert all(results.values()), results
    assert took < 60


def test_criterion_11_classification_regression(suite_rows):
    _criterion(suite_rows, "classification", "11a classification-regression", 1800)
    _criterion(suite_rows, "constants", "11b signature-constants", 1800)
    # table-level extension to p + q = 12 at minimal multiplicities
    t0 = time.time()
    bad = []
    for q in range(0, 7):
        p = 12 - q
        cat = irrep_catalog(p, q)
        for ci in range(cat.count):
            mults = tuple(1 if i == ci else 0 for i in range(cat.count))
            verdict = classify(p, q, mults)
            if verdict.prehomogeneous or verdict.pv_entry is not None:
                bad.append((p, q, mults, "claimed prehomogeneous"))
            if not verdict.generic:
                bad.append((p, q, mults, "not generic"))
            if table1_lookup(p, q, mults) is not None:
                bad.append((p, q, mults, "unexpected catalog entry"))
    status = "PASS" if not bad else "FAIL"
    print(f"ACCEPTANCE 11c rank-12-row: {status} ({time.time()-t0:.1f}s)")
    assert not bad, bad
