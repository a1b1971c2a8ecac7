"""The suite driver: input checks, one shared module per case, and rows that
do not depend on which other checks ran."""

import dataclasses
import importlib
from collections import Counter
from fractions import Fraction

import pytest

import cqforms.quartic
import cqforms.repkit
import cqforms.suite
import cqforms.zetafe
from cqforms.classify import gamma_applicable
from cqforms.modp import P
from cqforms.repkit import InvalidInputError, rep_build
from cqforms.rng import integer_points
from cqforms.suite import CHECKS, Case, enumerate_cases, run_suite


def _key(rep):
    return (rep.p, rep.q, tuple(rep.mults))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"checks": ["no-such-check"]},
        {"checks": ["relations", "no-such-check"]},
        {"checks": []},
        {"max_pq": 0, "max_m": 0},
        {"max_pq": 4, "max_m": 0},
    ],
    ids=["unknown", "unknown-among-known", "empty-checks", "no-case", "no-case-m"],
)
def test_run_suite_refuses_input_that_checks_nothing(kwargs):
    with pytest.raises(InvalidInputError):
        run_suite(**{"max_pq": 2, "max_m": 2, **kwargs})


def test_one_module_per_case(monkeypatch):
    counts = {name: Counter() for name in ("rep_build", "square_detect", "gamma_constants")}

    def counted(name, fn, key):
        def wrapper(*args, **kwargs):
            counts[name][key(*args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cqforms.suite, "rep_build", counted(
        "rep_build", cqforms.suite.rep_build, lambda p, q, mults: (p, q, tuple(mults))))
    monkeypatch.setattr(cqforms.quartic, "square_detect", counted(
        "square_detect", cqforms.quartic.square_detect, lambda form: _key(form.rep)))
    monkeypatch.setattr(cqforms.zetafe, "gamma_constants", counted(
        "gamma_constants", cqforms.zetafe.gamma_constants, _key))
    rows = run_suite(max_pq=6, max_m=16)
    assert all(r.ok for r in rows)
    cases = enumerate_cases(max_pq=6, max_m=16)
    assert counts["rep_build"] == Counter({(p, q, tuple(mults)): 1 for p, q, mults in cases})
    for name in ("square_detect", "gamma_constants"):
        assert counts[name] and max(counts[name].values()) == 1, name


def test_relations_verified_once_per_case(monkeypatch):
    # check_relations and the h, g and sharp kernels all read rep.relations
    calls = Counter()
    verify = cqforms.repkit.verify_relations

    def counted(rep):
        calls[_key(rep)] += 1
        return verify(rep)

    monkeypatch.setattr(cqforms.repkit, "verify_relations", counted)
    rows = run_suite(max_pq=5, max_m=8)
    assert all(r.ok for r in rows)
    assert {"relations", "symmetry-dims", "sharp"} <= {r.check for r in rows}
    cases = enumerate_cases(max_pq=5, max_m=8)
    assert calls == Counter({(p, q, tuple(mults)): 1 for p, q, mults in cases})


def _rows(**kwargs):
    return [(r.case, r.check, r.ok, r.detail) for r in run_suite(max_pq=4, max_m=8, **kwargs)]


def test_rows_do_not_depend_on_the_other_checks():
    full = _rows()
    assert {check for _, check, _, _ in full} == set(CHECKS)
    for name in CHECKS:
        assert _rows(checks=[name]) == [row for row in full if row[1] == name], name
    assert _rows(checks=list(reversed(CHECKS))) == full


def test_enumerate_cases_bounds_are_keyword_only():
    # read positionally, 8 would be max_total_mult, not max_m as in run_suite
    with pytest.raises(TypeError):
        enumerate_cases(5, 8)


def test_exceptional_module_without_a_stated_g_dimension_fails(monkeypatch):
    # a missing prediction is a failed row, not a pass
    # the package binds the name classify to the function, not the module
    CL = importlib.import_module("cqforms.classify")
    exceptional = [c for c in enumerate_cases(max_pq=4, max_m=8) if CL.predict(*c).exceptional]
    assert exceptional
    p, q, mults = exceptional[0]
    assert cqforms.suite.check_symmetry_dims(Case(p, q, mults))[0]
    monkeypatch.setattr(CL, "exceptional_g_dim", lambda *args: None)
    ok, detail = cqforms.suite.check_symmetry_dims(Case(p, q, mults))
    assert not ok, detail


def test_gamma_applicable_is_where_the_closed_forms_hold():
    for p, q, mults in enumerate_cases(max_pq=12, max_m=64):
        rep = rep_build(p, q, mults)
        try:
            cqforms.zetafe.gamma_quartic(p, q, rep.m, 0.3 + 0.1j)
            covered = True
        except cqforms.zetafe.UnsupportedCaseError:
            covered = False
        probes = cqforms.quartic.quartic_values(rep, integer_points(0, 4, rep.m))
        nondegenerate = bool(probes.any()) or not cqforms.quartic.expand_coeffs(rep).is_zero
        assert gamma_applicable(p, q, mults) == (covered and nondegenerate), (p, q, mults)


def test_closed_form_off_by_an_eighth_is_a_gamma_mismatch(monkeypatch):
    case = Case(1, 1, (1, 0, 1, 0))  # twists e(1/4), e(-1/4), 1, 1
    closed = cqforms.suite.expected_twists

    def shifted(by):
        return lambda *args: [x + by for x in closed(*args)]

    monkeypatch.setattr(cqforms.suite, "expected_twists", shifted(1))  # e(x + 1) = e(x)
    assert cqforms.suite.check_constants(case) == (True, "")
    monkeypatch.setattr(cqforms.suite, "expected_twists", shifted(Fraction(1, 8)))
    ok, detail = cqforms.suite.check_constants(case)
    assert not ok and detail.startswith("gamma mismatch on component"), detail


def test_a_twist_other_than_1_fails_the_gamma_row(monkeypatch):
    # (4,0)x1 is covered by the closed forms with unit twists; a computed
    # plus - minus = 2 on its one component must fail the gamma row, not
    # mark it inapplicable
    constants = cqforms.zetafe.gamma_constants

    def twisted(rep):
        consts = constants(rep)
        assert consts.labels == ["+"] and rep.m == 8
        return dataclasses.replace(
            consts, signatures=[(5, 3)], gammas=[cqforms.zetafe.eof(Fraction(2, 8))]
        )

    monkeypatch.setattr(cqforms.zetafe, "gamma_constants", twisted)
    assert gamma_applicable(4, 0, (1,))
    ok, detail = CHECKS["gamma"](Case(4, 0, (1,)))
    assert (ok, detail) == (False, f"pullback identity fails mod {P}")
    ok, detail = CHECKS["constants"](Case(4, 0, (1,)))
    assert not ok and detail.startswith("gamma mismatch on component +"), detail


def test_gamma_row_names_its_evidence():
    ok, detail = CHECKS["gamma"](Case(4, 0, (1,)))
    assert ok and detail == f"pullback and involution identities proved mod {P} at 9 points"


def test_a_wrong_coefficient_fails_the_relations_row():
    case = Case(3, 2, (1,))
    assert CHECKS["relations"](case) == (True, "")
    key = next(iter(case.form.coeffs))
    case.form.coeffs[key] += 1
    ok, detail = CHECKS["relations"](case)
    assert not ok and detail.startswith("coefficient table disagrees with direct evaluation at ["), detail


def test_constants_row_compares_the_det_identity_with_the_table(monkeypatch):
    # (1,1)x1,0,2,0: det S(v) = (v1+v2)(v1-v2)^2, so det S(v)^2 != P(v)^3
    # by the table, and the row passes
    assert CHECKS["constants"](Case(1, 1, (1, 0, 2, 0))) == (True, "")
    for mults, told in [((1, 0, 2, 0), True), ((1, 0, 1, 0), False)]:
        monkeypatch.setattr(cqforms.suite, "expected_det_square", lambda *args: told)
        assert CHECKS["constants"](Case(1, 1, mults)) == (False, "det S(v) identity failed")
