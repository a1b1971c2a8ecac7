"""Arithmetic mod P and the identity det S(v)^2 = P(v)^m that the suite
tests with it; the two gamma identities as Laurent polynomials in z,
compared term by term and against the former evaluation mod P at nine
points."""

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
from cqforms.modp import P
from cqforms.repkit import MAX_DIM, rep_build
from cqforms.rng import complex_s_samples, stream
from cqforms.spmat import SectorDecomposition, int_det
from cqforms.suite import enumerate_cases

# one gamma-applicable module per matrix shape: definite, Lorentzian, split
SHAPES = [(4, 0, (1,)), (4, 1, (0, 2)), (3, 2, (1,)), (3, 3, (1, 1)), (6, 6, (1,))]


def test_the_prime():
    assert all(P % d for d in range(2, math.isqrt(P) + 1))
    assert MAX_DIM == 1024 and MAX_DIM * (P - 1) ** 2 < 2**63  # every S_i[w] of residues fits int64


def test_residues_and_powers():
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


_FORMER_ZETA8 = pow(5, (P - 1) // 8, P)  # an eighth root of unity: P = 1 mod 8, 5 is no square


def _former_residues(matrix):
    """Oracle helper: the coefficients of z^-1, 1 and z of a table matrix mod
    P, with zeta8 mapped to 5^((P - 1) / 8), as a (3, rows, cols) array."""
    coef = np.zeros((3, len(matrix), len(matrix[0])), dtype=np.int64)
    for r, row in enumerate(matrix):
        for c, terms in enumerate(row):
            for x, a, b in terms:
                x = Fraction(x)
                coef[b + 1, r, c] += x.numerator * pow(x.denominator, -1, P) % P * pow(_FORMER_ZETA8, a % 8, P)
    return coef % P


def _former_at(coef, z, shift=0):
    turn = pow(_FORMER_ZETA8, shift % 8, P)
    zpow = np.stack([z[1] * pow(turn, -1, P) % P, np.ones_like(z[0]), z[0] * turn % P])
    return (coef[:, None] * zpow[:, :, None, None] % P).sum(axis=0) % P


def _former_gamma_identity_check(consts):
    """Oracle: the former check, both identities mod P at z = 1 .. 9."""
    assert pow(_FORMER_ZETA8, 4, P) == P - 1  # so the oracle's zeta8 has order 8
    p, q, m = consts.p, consts.q, consts.m
    table = Z.gamma_laurent(p, q, m)
    z = np.array([range(1, 10), [pow(x, -1, P) for x in range(1, 10)]], dtype=np.int64)
    z_tilde = (z[::-1], -m)
    twists = np.array([pow(_FORMER_ZETA8, (a - b) % 8, P) for a, b in consts.signatures])
    quadratic, quartic = _former_residues(table.quadratic), _former_residues(table.quartic)
    sines = _former_residues([[Z._sin(k) for k in (0, *table.involution)]])
    sin_s = _former_at(sines[:, :, :1], z)
    quartic_z = _former_at(quartic, z)
    pullback = (_former_at(quadratic, z) * twists % P) @ _former_at(quadratic, z, m - 2 * (p + q)) % P
    if np.any(pullback != sin_s * quartic_z % P):
        return "pullback"
    left = sin_s * _former_at(sines[:, :, :1], *z_tilde) % P * quartic_z % P
    left = left @ _former_at(quartic, *z_tilde) % P
    right = np.eye(len(table.labels), dtype=np.int64)
    for sine in _former_at(sines[:, :, 1:], z)[:, 0].T:
        right = right * sine[:, None, None] % P
    return "involution" if np.any(left != right) else None


@pytest.mark.parametrize("case", SHAPES)
def test_both_gamma_identities_hold(case):
    assert Z.gamma_identity_check(_consts(case)) is None


def test_the_gamma_identities_hold_on_every_applicable_module():
    cases = [c for c in enumerate_cases(max_pq=12, max_m=64, max_total_mult=3) if gamma_applicable(*c)]
    assert len(cases) == 247
    for case in cases:
        consts = _consts(case)
        assert Z.gamma_identity_check(consts) is _former_gamma_identity_check(consts) is None, case


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
        assert Z.gamma_identity_check(twisted) == "pullback" == _former_gamma_identity_check(twisted), k


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
        assert Z.gamma_identity_check(consts) == fails == _former_gamma_identity_check(consts), field


@pytest.mark.parametrize("case", SHAPES)
def test_a_false_term_divisible_by_p_fails(monkeypatch, case):
    # P z added to one quartic entry: every coefficient of the difference is
    # divisible by P, so the former check mod P missed it
    consts = _consts(case)
    table = Z.gamma_laurent(consts.p, consts.q, consts.m)
    quartic = [row[:] for row in table.quartic]
    quartic[0][0] = quartic[0][0] + [(Fraction(P), 0, 1)]
    changed = dataclasses.replace(table, quartic=quartic)
    monkeypatch.setattr(Z, "gamma_laurent", lambda *args: changed)
    assert _former_gamma_identity_check(consts) is None
    assert Z.gamma_identity_check(consts) == "pullback"


def test_every_table_coefficient_lies_in_half_the_integers():
    checked = 0
    for n in range(1, 17):
        for q in range(n // 2 + 1):
            for m in range(0, 257, 8):
                try:
                    table = Z.gamma_laurent(n - q, q, m)
                except Z.UnsupportedCaseError:
                    continue
                entries = [e for matrix in (table.quadratic, table.quartic) for row in matrix for e in row]
                assert all(2 % Fraction(c).denominator == 0 for e in entries for c, _, _ in e), (n - q, q, m)
                checked += 1
    assert checked == 32 * 76


def test_a_coefficient_outside_half_the_integers_is_refused(monkeypatch):
    consts = _consts(SHAPES[2])
    table = Z.gamma_laurent(consts.p, consts.q, consts.m)
    quartic = [row[:] for row in table.quartic]
    quartic[1][0] = [(Fraction(1, 3), 0, 0)]
    changed = dataclasses.replace(table, quartic=quartic)
    monkeypatch.setattr(Z, "gamma_laurent", lambda *args: changed)
    with pytest.raises(ValueError, match="1/3 is not in Z/2"):
        Z.gamma_identity_check(consts)


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


def test_the_laurent_table_refuses_what_the_closed_forms_refuse():
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_laurent(3, 1, 8)
    with pytest.raises(Z.UnsupportedCaseError):
        Z.gamma_laurent(4, 0, 4)
