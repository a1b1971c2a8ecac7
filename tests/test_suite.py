"""The suite driver: input checks, one shared module per case, and rows that
do not depend on which other checks ran."""

from collections import Counter

import pytest

import cqforms.quartic
import cqforms.repkit
import cqforms.suite
import cqforms.symlie
import cqforms.zetafe
from cqforms.repkit import InvalidInputError, rep_build
from cqforms.rng import integer_points
from cqforms.suite import CHECKS, Case, enumerate_cases, gamma_applicable, run_suite


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
    exceptional = [
        c for c in enumerate_cases(max_pq=4, max_m=8)
        if cqforms.symlie.predict(*c).exceptional
    ]
    assert exceptional
    p, q, mults = exceptional[0]
    assert cqforms.suite.check_symmetry_dims(Case(p, q, mults))[0]
    monkeypatch.setattr(cqforms.symlie, "exceptional_g_dim", lambda *args: None)
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
