"""Arithmetic mod P and the identities the suite tests with it: det S(v)^2 =
P(v)^m and the two gamma identities as Laurent polynomials in z."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cqforms import modp
from cqforms import quartic as Q
from cqforms import zetafe as Z
from cqforms.classify import expected_degenerate, gamma_applicable
from cqforms.modp import P, ZETA8
from cqforms.repkit import MAX_DIM, rep_build
from cqforms.rng import complex_s_samples, stream
from cqforms.spmat import SectorDecomposition, int_det
from cqforms.suite import enumerate_cases

# one gamma-applicable module per matrix shape: definite, Lorentzian, split
SHAPES = [(4, 0, (1,)), (4, 1, (0, 2)), (3, 2, (1,)), (3, 3, (1, 1)), (6, 6, (1,))]


def test_the_prime_and_its_eighth_root():
    assert P % 8 == 1 and all(P % d for d in range(2, math.isqrt(P) + 1))
    assert pow(ZETA8, 4, P) == P - 1  # so ZETA8 has order exactly 8
    assert MAX_DIM == 1024 and MAX_DIM * (P - 1) ** 2 < 2**63  # every S_i[w] of residues fits int64


def test_residues_and_powers():
    assert modp.residue(-1) == P - 1
    assert 2 * modp.residue(Fraction(1, 2)) % P == 1
    x = stream(0).integers(0, P, size=50)
    assert modp.power(x, 0).tolist() == [1] * 50
    assert modp.power(x, 7).tolist() == [pow(int(v), 7, P) for v in x]
    assert (modp.power(x, P - 2) * x % P).tolist() == [int(v != 0) for v in x]


def test_det_of_singular_and_swapped_stacks():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 6):
        a = rng.integers(-4, 5, size=(40, k, k))
        a[::3, :, 0] = 0  # no pivot in the first column
        a[1::4, -1] = a[1::4, 0]  # two equal rows
        a[2::5, 0] = 0  # the first row needs a swap
        want = [int_det(m.tolist()) % P for m in a]
        assert modp.det(a).tolist() == want, k


def test_det_mod_p_matches_bareiss_on_the_orbit_blocks():
    # every orbit block of S(v) at one small integer point, for the 292
    # nondegenerate modules up to total multiplicity 3
    cases = [c for c in enumerate_cases(max_pq=12, max_m=64, max_total_mult=3) if not expected_degenerate(*c)]
    assert len(cases) == 292
    for case in cases:
        rep = rep_build(*case)
        v = stream(11, 2).integers(-3, 4, size=rep.n)
        sv = sum(int(c) * s for c, s in zip(v, rep.basis))
        for idx in SectorDecomposition(rep.perm, rep.sign).orbits:
            block = sv[np.ix_(idx, idx)]
            assert modp.det(block[None])[0] == int_det(block.tolist()) % P, case


@pytest.mark.parametrize("case", [(3, 2, (1,)), (4, 0, (2,)), (6, 2, (1,)), (1, 0, (2, 1))])
def test_the_det_identity_has_exponent_m(case):
    rep = rep_build(*case)
    det, pv = Z.det_sv_residues(rep)
    assert np.all(det * det % P == modp.power(pv, rep.m))
    assert not np.all(det * det % P == modp.power(pv, rep.m - 1))


def test_quartic_and_table_values_mod_p_match_exact_values():
    for case in [(3, 2, (1,)), (6, 2, (1,)), (1, 1, (1, 0, 2, 0))]:
        rep = rep_build(*case)
        w = modp.residue_points(3, 6, rep.m)
        f, g = modp.quartic_values(rep, w, grad=True)
        exact_f, exact_g = Q.quartic_values(rep, w.astype(object), grad=True)
        assert f.tolist() == [int(x) % P for x in exact_f], case
        assert g.tolist() == (exact_g % P).tolist(), case
        assert modp.table_values(Q.expand_coeffs(rep).coeffs, w).tolist() == f.tolist(), case


# ------------------------------------------------------------ gamma identities


def _consts(case):
    assert gamma_applicable(*case)
    return Z.gamma_constants(rep_build(*case))


def _shifted(terms, by):
    """sin(pi (s + k/4)) terms as those of sin(pi (s + (k + by)/4))."""
    return [(c, a + by * b, b) for c, a, b in terms]


@pytest.mark.parametrize("case", SHAPES)
def test_both_gamma_identities_hold(case):
    assert Z.gamma_identity_check(_consts(case)) is None


def test_the_gamma_identities_hold_on_every_applicable_module():
    cases = [c for c in enumerate_cases(max_pq=12, max_m=64, max_total_mult=3) if gamma_applicable(*c)]
    assert len(cases) == 247
    for case in cases:
        assert Z.gamma_identity_check(_consts(case)) is None, case


@pytest.mark.parametrize("case", SHAPES)
@pytest.mark.parametrize("moved", [1, 2])
def test_a_flipped_twist_fails(case, moved):
    # moving one eigenvalue from plus to minus multiplies the twist
    # zeta8^(plus - minus) by zeta8^-2 = -i, moving two flips its sign
    consts = _consts(case)
    for k, (plus, minus) in enumerate(consts.signatures):
        signatures = list(consts.signatures)
        signatures[k] = (plus - moved, minus + moved)
        twisted = dataclasses.replace(consts, signatures=signatures)
        assert Z.gamma_identity_check(twisted) == "pullback", k


@pytest.mark.parametrize("case", SHAPES)
@pytest.mark.parametrize("by", [2, -2])
def test_a_sine_shift_off_by_one_fails(monkeypatch, case, by):
    consts = _consts(case)
    table = Z.gamma_laurent(consts.p, consts.q, consts.m)
    quartic = [row[:] for row in table.quartic]
    quartic[-1][-1] = _shifted(quartic[-1][-1], by)
    quadratic = [row[:] for row in table.quadratic]
    quadratic[0][0] = _shifted(quadratic[0][0], by)
    involution = (table.involution[0] + by, *table.involution[1:])
    for field, value, fails in [
        ("quartic", quartic, "pullback"),
        ("quadratic", quadratic, "pullback"),
        ("involution", involution, "involution"),
    ]:
        changed = dataclasses.replace(table, **{field: value})
        monkeypatch.setattr(Z, "gamma_laurent", lambda *args: changed)
        assert Z.gamma_identity_check(consts) == fails, field


def _trig_quadratic(p, q, s):
    """Oracle: the hand-written trig matrix of the quadratic gamma matrix."""
    n, sin, cos = p + q, cmath.sin, cmath.cos
    if q == 0:
        return ["+"], [[-sin(cmath.pi * s)]]
    if q == 1 and p >= 2:
        e = lambda x: cmath.exp(2j * cmath.pi * x)
        c = -math.cos(math.pi * n / 2)
        return ["+", "-+", "--"], [
            [-cos(cmath.pi * s), c, c],
            [0.5, 0.5 * e(-(2 * s + n) / 4), 0.5 * e((2 * s + n) / 4)],
            [0.5, 0.5 * e((2 * s + n) / 4), 0.5 * e(-(2 * s + n) / 4)],
        ]
    return ["+", "-"], [
        [-sin(cmath.pi * (2 * s + q) / 2), math.sin(math.pi * p / 2)],
        [math.sin(math.pi * q / 2), -sin(cmath.pi * (2 * s + p) / 2)],
    ]


def _trig_quartic(p, q, s):
    """Oracle: the hand-written trig matrix of the quartic gamma matrix,
    without sin(pi s)."""
    n, sin = p + q, cmath.sin
    if q == 0:
        return [[sin(cmath.pi * (s - n / 2))]]
    if q == 1:
        sn, diag = math.sin(math.pi * n / 2), -sin(cmath.pi * (s + n / 2))
        return [[-sin(cmath.pi * (s - n / 2)), 0, 0], [-sn, diag, 0], [-sn, 0, diag]]
    return [
        [sin(cmath.pi * (s + (q - p) / 2)), -2 * math.sin(math.pi * p / 2) * math.cos(math.pi * q / 2)],
        [-2 * math.sin(math.pi * q / 2) * math.cos(math.pi * p / 2), sin(cmath.pi * (s + (p - q) / 2))],
    ]


def _quadratic_prefactor(n, s):
    return cmath.exp(-(2 * s + n / 2 + 1) * math.log(math.pi)) * Z.cgamma(s + 1) * Z.cgamma(s + n / 2)


def _close(a, b):
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("case", SHAPES)
def test_the_laurent_table_is_the_float_gamma_matrices(case):
    # the float matrices evaluate the table; the oracle is written by hand
    p, q, mults = case
    n, m = p + q, rep_build(*case).m
    table = Z.gamma_laurent(p, q, m)
    for s in complex_s_samples(5, 10):
        quad = Z.gamma_quadratic(p, q, s)
        labels, trig = _trig_quadratic(p, q, s)
        assert quad.labels == table.labels == labels
        assert _close(quad.values, _quadratic_prefactor(n, s) * np.array(trig))
        quart = Z.gamma_quartic(p, q, m, s)
        want = Z._quartic_prefactor(n, m, s) * cmath.sin(cmath.pi * s) * np.array(_trig_quartic(p, q, s))
        assert quart.labels == table.labels and _close(quart.values, want)
        # the reflection formula: the prefactors at s and -m/4 - s times the
        # four involution sines give 1
        pair = Z._quartic_prefactor(n, m, s) * Z._quartic_prefactor(n, m, -m / 4 - s)
        sines = math.prod(cmath.sin(cmath.pi * (s + k / 4)) for k in table.involution)
        assert abs(pair * sines - 1) < 1e-12


@pytest.mark.parametrize("pq", [(1, 0), (1, 1), (2, 1), (3, 1)])
def test_quadratic_gamma_matrices_outside_the_closed_quartic_forms(pq):
    p, q = pq
    for s in complex_s_samples(5, 10):
        quad = Z.gamma_quadratic(p, q, s)
        labels, trig = _trig_quadratic(p, q, s)
        assert quad.labels == labels and _close(quad.values, _quadratic_prefactor(p + q, s) * np.array(trig))
    assert Z.gamma_quadratic(1, 1, 0.3).formula == "quadratic-general"
    assert Z.gamma_quadratic(2, 1, 0.3).formula == "quadratic-lorentz"


def test_a_constant_sine_that_vanishes_is_zero():
    # sin(pi) and sin(2 pi) in the split quartic matrix of (4, 2): exact zeros
    quart = Z.gamma_quartic(4, 2, 16, 0.3)
    assert quart.values[0, 1] == 0 and quart.values[1, 0] == 0


def test_the_gamma_points_prove_the_identities():
    # GAMMA_DEGREE + 1 distinct units of F_P: a nonzero Laurent polynomial
    # of z-degree spread at most GAMMA_DEGREE cannot vanish at all of them
    points = Z.GAMMA_Z
    assert len(points) == Z.GAMMA_DEGREE + 1 == len(set(points))
    assert all(0 < z < P for z in points)
    for case in SHAPES:
        table = Z.gamma_laurent(case[0], case[1], rep_build(*case).m)
        for matrix in (table.quadratic, table.quartic):
            assert {b for row in matrix for terms in row for _, _, b in terms} <= {-1, 0, 1}


def test_the_laurent_table_refuses_what_the_closed_forms_refuse():
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_laurent(3, 1, 8)
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_laurent(4, 0, 4)
