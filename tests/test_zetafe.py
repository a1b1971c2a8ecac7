import cmath
import math

import numpy as np
import pytest

from cqforms import zetafe as Z
from cqforms.quartic import expected_degenerate
from cqforms.repkit import rep_build
from cqforms.rng import complex_s_samples
from cqforms.spmat import symmetric_signature
from cqforms.suite import enumerate_cases


# ---------------------------------------------------------------------- gamma


def test_cgamma_reference_values():
    assert abs(Z.cgamma(0.5) - math.sqrt(math.pi)) < 1e-13
    assert abs(Z.cgamma(1) - 1) < 1e-14
    assert abs(Z.cgamma(5) - 24) < 5e-12


def test_cgamma_functional_identities():
    for z in (0.3 + 0.7j, -0.4 + 1.2j, 2.5 - 0.3j):
        assert abs(Z.cgamma(z + 1) - z * Z.cgamma(z)) / abs(Z.cgamma(z + 1)) < 1e-12
        refl = Z.cgamma(z) * Z.cgamma(1 - z) - cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(refl) / abs(cmath.pi / cmath.sin(cmath.pi * z)) < 1e-12


def test_cgamma_pole():
    with pytest.raises(Z.PoleError):
        Z.cgamma(-3)


# ----------------------------------------------------------------- components


def test_components_tables():
    assert [c for c, _ in Z.components(2, 1)] == ["+", "-+", "--"]
    assert [c for c, _ in Z.components(3, 0)] == ["+"]
    assert [c for c, _ in Z.components(2, 2)] == ["+", "-"]
    assert [c for c, _ in Z.components(1, 0)] == ["+", "-"]
    assert [c for c, _ in Z.components(1, 1)] == ["++", "+-", "-+", "--"]


def test_component_representatives_lie_in_component():
    for p, q in [(2, 1), (2, 2), (1, 1), (3, 0)]:
        for label, v in Z.components(p, q):
            pv = sum(v[i] ** 2 for i in range(p)) - sum(v[p + j] ** 2 for j in range(q))
            if label[0] == "+":
                assert pv > 0
            else:
                assert pv < 0


# ------------------------------------------------------------------ constants


def test_gamma_constants_examples():
    # rank-one definite with multiplicities (3, 1): constants are +-i
    c = Z.gamma_constants(rep_build(1, 0, (3, 1)))
    assert abs(c.gamma_by_label("+") - 1j) < 1e-12
    assert abs(c.gamma_by_label("-") + 1j) < 1e-12
    # definite with p >= 2: constant 1
    c = Z.gamma_constants(rep_build(3, 0, (2,)))
    assert all(abs(g - 1) < 1e-12 for g in c.gammas)
    # (3, 2): beta = (-1)^{q+1} = -1, split signatures (m/2, m/2)
    c = Z.gamma_constants(rep_build(3, 2, (1,)))
    assert c.beta == -1
    assert c.signatures == [(4, 4), (4, 4)]
    assert abs(c.alpha) == 1


def test_gamma_constants_lorentz_case():
    # (2, 1) with classes weighted (2, 1): constants i^{+-(k+ - k-)}
    c = Z.gamma_constants(rep_build(2, 1, (2, 1)))
    assert abs(c.gamma_by_label("+") - 1) < 1e-12
    assert abs(c.gamma_by_label("-+") - 1j) < 1e-12
    assert abs(c.gamma_by_label("--") + 1j) < 1e-12


def test_gamma_signatures_match_exact_elimination():
    # the trace shortcut against Fraction elimination on S(v) itself
    checked = 0
    for p, q, mults in enumerate_cases(max_pq=6, max_m=16):
        if expected_degenerate(p, q, mults):
            continue
        rep = rep_build(p, q, mults)
        want = [
            symmetric_signature(sum(c * s for c, s in zip(v, rep.basis)).tolist())
            for _, v in Z.components(p, q)
        ]
        assert Z.gamma_constants(rep).signatures == want, (p, q, mults)
        checked += len(want)
    assert checked > 100


def test_gamma_constants_reject_degenerate():
    with pytest.raises(Z.InvalidInputError):
        Z.gamma_constants(rep_build(2, 2, (1,)))


def test_det_identity():
    for args in [(3, 2, (1,)), (1, 1, (1, 0, 1, 0)), (9, 1, (1, 1, 0, 0)), (1, 0, (2, 1))]:
        assert Z.det_sv_identity_check(rep_build(*args))


# ------------------------------------------------------------- gamma matrices


def test_gamma_quadratic_definite_value():
    # scalar case at s = -1/2 evaluates to exactly 1
    g = Z.gamma_quadratic(2, 0, -0.5)
    assert g.labels == ["+"]
    assert abs(g.values[0, 0] - 1) < 1e-12


def test_gamma_quadratic_shapes():
    assert Z.gamma_quadratic(1, 1, -0.5).values.shape == (2, 2)
    assert Z.gamma_quadratic(2, 1, 0.3).values.shape == (3, 3)
    assert Z.gamma_quadratic(5, 0, 0.3).values.shape == (1, 1)


def test_gamma_quartic_trig_factor():
    # split (3, 2): the off-diagonal trig factor -2 sin(3pi/2) cos(pi) = -2
    s = 0.4
    g = Z.gamma_quartic(3, 2, 16, s)
    pref = Z._quartic_prefactor(5, 16, s) * cmath.sin(cmath.pi * s)
    assert abs(g.values[0, 1] / pref - (-2.0)) < 1e-12


def test_gamma_quartic_definite_square_sines():
    # (4, 0): sin(pi s) sin(pi (s - 2)) = sin(pi s)^2
    s = 0.23 + 0.11j
    g = Z.gamma_quartic(4, 0, 16, s)
    pref = Z._quartic_prefactor(4, 16, s)
    assert abs(g.values[0, 0] - pref * cmath.sin(cmath.pi * s) ** 2) < 1e-10


def test_gamma_quartic_unsupported_cases():
    for p, q, m in [(1, 0, 8), (1, 1, 8), (2, 1, 8), (3, 1, 8)]:
        with pytest.raises(Z.UnsupportedCaseError):
            Z.gamma_quartic(p, q, m, 0.3)
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_quartic(2, 2, 4, 0.3)  # m < 8
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_quartic(2, 2, 12, 0.3)  # m not a multiple of 8


def test_gamma_pole_guard():
    with pytest.raises(Z.PoleError):
        Z.gamma_quartic(3, 2, 16, -1.0)


PULLBACK_CASES = [
    ((3, 2), (2,)),
    ((4, 0), (2,)),
    ((4, 1), (2, 0)),
    ((5, 0), (1, 0)),
    ((2, 2), (2,)),
    ((5, 4), (1, 0)),
]


@pytest.mark.parametrize("pq,mults", PULLBACK_CASES)
def test_pullback_equals_closed_form(pq, mults):
    rep = rep_build(*pq, mults)
    for s in complex_s_samples(31, 5):
        gq = Z.gamma_quartic(rep.p, rep.q, rep.m, s)
        gp = Z.gamma_pullback(rep, s)
        scale = np.max(np.abs(gq.values))
        assert np.max(np.abs(gq.values - gp.values)) / scale < 1e-10


def test_pullback_unvalidated_cases_labelled():
    g = Z.gamma_pullback(rep_build(1, 1, (1, 0, 1, 0)), 0.3)
    assert not g.validated
    g = Z.gamma_pullback(rep_build(1, 0, (2, 0)), 0.3)
    assert not g.validated
    # (2, 1) is outside the closed forms but the pullback is computable
    g = Z.gamma_pullback(rep_build(2, 1, (2, 1)), 0.3)
    assert g.values.shape == (3, 3) and g.validated


@pytest.mark.parametrize(
    "p,q,m,s",
    [(3, 2, 16, 0.3 + 0.7j), (4, 1, 16, 0.2), (4, 0, 16, 0.1), (9, 0, 16, 0.21 - 0.4j)],
)
def test_involution(p, q, m, s):
    assert Z.fe_involution_check(p, q, m, s, tol=1e-10)


# ----------------------------------------------------------------- quadrature


def test_zeta_quadrature_matches_closed_forms():
    for s in (1.0, 0.3, -0.25, -0.6 + 0.2j):
        got = Z.zeta_quadratic_numeric(1, 0, "+", s).value
        assert abs(got - Z.zeta_quadratic_closed(1, 0, s)) < 1e-9
    for s in (0.0, -0.5, 0.7):
        got = Z.zeta_quadratic_numeric(2, 0, "+", s).value
        assert abs(got - Z.zeta_quadratic_closed(2, 0, s)) < 1e-10


def test_zeta_quadrature_examples():
    # full-line rank-one integral at s = 1 equals 1/(2 pi)
    val = 2 * Z.zeta_quadratic_numeric(1, 0, "+", 1.0).value
    assert abs(val - 1 / (2 * math.pi)) < 1e-10
    # total Gaussian mass at s = 0
    assert abs(Z.zeta_quadratic_numeric(2, 0, "+", 0.0).value - 1) < 1e-10


def test_fe_quadratic_numeric():
    assert Z.fe_quadratic_numeric_check(1, 0, -0.6, 1e-4)
    assert Z.fe_quadratic_numeric_check(2, 0, -0.5, 1e-8)
    assert Z.fe_quadratic_numeric_check(1, 1, -0.5, 1e-4)


def test_fe_quadratic_strip_violation():
    with pytest.raises(Z.InvalidInputError):
        Z.zeta_quadratic_numeric(2, 0, "+", -1.2)


# ------------------------------------------------------------------- MC zeta


def test_mc_matches_square_oracle():
    rep = rep_build(1, 0, (4, 0))  # single generator acting as identity on R^4
    est = Z.zeta_quartic_mc(rep, "+", 1.0, samples=200_000, seed=42)
    want = Z.zeta_quartic_closed_square(4, 1.0)
    assert abs(want - 6 / math.pi**2) < 1e-12
    assert abs(est.value - want) < 3 * est.stderr
    assert est.stderr < 0.01 * abs(want)


def test_mc_separable_oracle():
    rep = rep_build(1, 1, (1, 0, 1, 0))
    est = Z.zeta_quartic_mc(rep, "+", 1.0, samples=200_000, seed=42)
    assert abs(est.value - 1 / math.pi**2) < 3 * est.stderr


def test_mc_component_masses_sum_to_one():
    rep = rep_build(2, 1, (2, 1))
    total = 0.0
    for comp in ("+", "-+", "--"):
        total += Z.zeta_quartic_mc(rep, comp, 0.0, samples=100_000, seed=5).value.real
    assert abs(total - 1) < 0.02


def test_mc_reproducible_and_stderr_scaling():
    rep = rep_build(3, 2, (1,))
    a = Z.zeta_quartic_mc(rep, "+", 0.5, samples=50_000, seed=9)
    b = Z.zeta_quartic_mc(rep, "+", 0.5, samples=50_000, seed=9)
    assert a.value == b.value and a.stderr == b.stderr
    big = Z.zeta_quartic_mc(rep, "+", 0.5, samples=200_000, seed=9)
    ratio = a.stderr / big.stderr
    assert 1.5 < ratio < 2.7  # ~2 expected from quadrupling the sample count
