"""Gamma factors and local zeta integrals of the module quartic.

The quadratic form P(v) of signature (p, q) has local zeta functions over
the connected components of {P != 0} satisfying matrix functional equations
with explicit gamma factors.  Pulling back along the self-dual quadratic map
of a nondegenerate Clifford module produces a functional equation for the
quartic; its gamma matrix is a twisted product of two quadratic gamma
matrices, the twist being eighth roots of unity read off the signatures of
S(v) on each component.

This module evaluates the closed-form gamma matrices, computes the
signature constants exactly, cross-checks the pullback product against the
direct quartic formulas, and verifies functional equations numerically with
Gaussian test functions (quadrature in the quadratic range, Monte Carlo for
the quartic integrals).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quartic import expand_coeffs
from .repkit import CliffordRep, InvalidInputError
from .rng import MC_CHUNK, stream
from .spmat import int_det, sp_det


class PoleError(ValueError):
    """Evaluation requested too close to a pole of the gamma factors."""


class UnsupportedCaseError(ValueError):
    """The closed-form quartic gamma matrix does not cover this case."""


POLE_RADIUS = 1e-8

# ---------------------------------------------------------------------------
# Complex gamma: Lanczos approximation (g = 7, 9 coefficients), with the
# reflection formula for Re z < 1/2.  Good to ~1e-13 relative, comfortably
# inside the 1e-10 test tolerances used downstream.
# ---------------------------------------------------------------------------

_LANCZOS_G = 7
_LANCZOS_C = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def cgamma(z: complex) -> complex:
    """Gamma(z) for complex z."""
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0 and z.real == round(z.real):
            raise PoleError(f"gamma pole at z = {z}")
        return cmath.pi / (cmath.sin(cmath.pi * z) * cgamma(1 - z))
    z -= 1
    x = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


def eof(x) -> complex:
    """e[x] = exp(2 pi i x)."""
    return cmath.exp(2j * cmath.pi * complex(x))


def _check_poles(*gamma_args: complex):
    for z in gamma_args:
        zz = complex(z)
        if zz.real <= 0.5 and abs(zz.imag) < POLE_RADIUS:
            if abs(zz.real - round(zz.real)) < POLE_RADIUS and round(zz.real) <= 0:
                raise PoleError(f"gamma argument {zz} within {POLE_RADIUS} of a pole")


# ---------------------------------------------------------------------------
# Components of {P != 0} and the signature constants
# ---------------------------------------------------------------------------


def components(p: int, q: int) -> list[tuple[str, tuple[int, ...]]]:
    """Connected components of {P != 0} with representative points.

    For the definite line (p, q) = (1, 0) the two half-lines are labeled
    '+' (x > 0) and '-' (x < 0).
    """
    if p < q or q < 0 or p + q < 1:
        raise InvalidInputError("need p >= q >= 0, p + q >= 1")
    n = p + q

    def e(i, sign=1):
        v = [0] * n
        v[i] = sign
        return tuple(v)

    if (p, q) == (1, 0):
        return [("+", e(0)), ("-", e(0, -1))]
    if (p, q) == (1, 1):
        return [("++", e(0)), ("+-", e(0, -1)), ("-+", e(1)), ("--", e(1, -1))]
    if q == 0:
        return [("+", e(0))]
    if q == 1:
        return [("+", e(0)), ("-+", e(n - 1)), ("--", e(n - 1, -1))]
    return [("+", e(0)), ("-", e(n - 1))]


@dataclass
class SignatureConstants:
    """Signatures of S(v) per component and the derived constants."""

    labels: list[str]
    signatures: list[tuple[int, int]]
    gammas: list[complex]
    alpha: int
    beta: int

    def gamma_by_label(self, label: str) -> complex:
        return self.gammas[self.labels.index(label)]


def gamma_constants(rep: CliffordRep) -> SignatureConstants:
    """Exact signature data of S(v) at the component representatives.

    Also evaluates the closed multiplicity formulas for the eighth-root
    constants and asserts agreement with the computed signatures.
    """
    if expand_coeffs(rep).is_zero:
        raise InvalidInputError("signature constants need a nondegenerate module")
    labels, sigs, gammas = [], [], []
    for label, v in components(rep.p, rep.q):
        # v = c e_i, so S(v) = c S_i is a symmetric signed-permutation
        # involution; its eigenvalues are +-1 and its trace fixes the split
        (i,) = np.flatnonzero(v)
        fixed = rep.perm[i] == np.arange(rep.m)
        trace = v[i] * int(rep.sign[i][fixed].sum())
        plus, minus = (rep.m + trace) // 2, (rep.m - trace) // 2
        labels.append(label)
        sigs.append((plus, minus))
        gammas.append(eof(Fraction(plus - minus, 8)))
    expected = _closed_form_gammas(rep, labels)
    for lab, got, want in zip(labels, gammas, expected):
        if want is not None and abs(got - want) > 1e-12:
            raise AssertionError(f"gamma mismatch on component {lab}: {got} vs {want}")
    alpha = sp_det(rep.basis[0])
    beta = (-1) ** (rep.q + 1)
    return SignatureConstants(labels, sigs, gammas, alpha, beta)


def _closed_form_gammas(rep: CliffordRep, labels):
    """Multiplicity formulas for the signature constants, where stated."""
    from .repkit import irrep_catalog

    p, q, m = rep.p, rep.q, rep.m
    cat = irrep_catalog(p, q)
    out = []
    if (p, q) == (1, 0):
        kp = rep.mults[0] * cat.dim  # class 0 is the generator acting by +1
        km = m - kp
        for lab in labels:
            sgn = 1 if lab == "+" else -1
            out.append(eof(Fraction(sgn * (kp - km), 8)))
        return out
    if (p, q) == (1, 1):
        k = [0, 0, 0, 0]
        for i, mult in enumerate(rep.mults):
            k[i] += mult  # classes ordered (+,+), (-,-), (+,-), (-,+)
        k11, k22, k33, k44 = k
        for lab in labels:
            eta = 1 if lab[0] == "+" else -1
            tau = 1 if lab[1] == "+" else -1
            val = tau * (k11 - k22) + tau * eta * (k33 - k44)
            out.append(eof(Fraction(val, 8)))
        return out
    if q == 0:
        return [1.0 for _ in labels]
    if q == 1:
        if cat.f_signs is None:
            return [None for _ in labels]
        kp = sum(k for k, s in zip(rep.mults, cat.f_signs) if s == 1)
        km = sum(k for k, s in zip(rep.mults, cat.f_signs) if s == -1)
        d = cat.dim
        for lab in labels:
            if lab == "+":
                out.append(1.0)
            else:
                sgn = 1 if lab == "-+" else -1
                out.append(eof(Fraction(sgn * d * (kp - km), 8)))
        return out
    return [1.0 for _ in labels]


# ---------------------------------------------------------------------------
# Gamma matrices of the quadratic functional equations
# ---------------------------------------------------------------------------


@dataclass
class GammaMatrix:
    labels: list[str]
    values: np.ndarray  # nu x nu complex
    formula: str
    validated: bool = True

    @property
    def nu(self) -> int:
        return len(self.labels)


def gamma_quadratic(p: int, q: int, s: complex) -> GammaMatrix:
    """Gamma matrix of the signature-(p, q) quadratic functional equation.

    Three closed forms: definite (scalar, components lumped for p = 1),
    Lorentzian (p, 1) with its three components, and the general split case
    with the two components {P > 0}, {P < 0}.
    """
    if p < q or q < 0 or p + q < 1:
        raise InvalidInputError("need p >= q >= 0 with p + q >= 1")
    s = complex(s)
    n = p + q
    _check_poles(s + 1, s + n / 2)
    pref = cmath.exp(-(2 * s + n / 2 + 1) * math.log(math.pi)) * cgamma(s + 1) * cgamma(s + n / 2)
    if q == 0:
        val = -pref * cmath.sin(cmath.pi * s)
        return GammaMatrix(["+"], np.array([[val]]), "quadratic-def")
    if q == 1 and p >= 2:
        c = cmath.cos
        mat = np.array(
            [
                [-c(cmath.pi * s), -math.cos(math.pi * n / 2), -math.cos(math.pi * n / 2)],
                [0.5, 0.5 * eof(-(2 * s + n) / 4), 0.5 * eof((2 * s + n) / 4)],
                [0.5, 0.5 * eof((2 * s + n) / 4), 0.5 * eof(-(2 * s + n) / 4)],
            ],
            dtype=complex,
        )
        return GammaMatrix(["+", "-+", "--"], pref * mat, "quadratic-lorentz")
    # p, q >= 1 split form (used for (1, 1) in the lumped two-component sense)
    mat = np.array(
        [
            [-cmath.sin(cmath.pi * (2 * s + q) / 2), math.sin(math.pi * p / 2)],
            [math.sin(math.pi * q / 2), -cmath.sin(cmath.pi * (2 * s + p) / 2)],
        ],
        dtype=complex,
    )
    return GammaMatrix(["+", "-"], pref * mat, "quadratic-general")


# ---------------------------------------------------------------------------
# Gamma matrices of the quartic functional equations
# ---------------------------------------------------------------------------

_EXCLUDED_QUARTIC = {(1, 0), (1, 1), (2, 1), (3, 1)}


def _quartic_prefactor(n: int, m: int, s: complex) -> complex:
    _check_poles(s + 1, s + n / 2, s + 1 + (m - 2 * n) / 4, s + m / 4)
    return (
        cmath.exp((4 * s + m / 2) * math.log(2))
        * cmath.exp(-(4 * s + 2 + m / 2) * math.log(math.pi))
        * cgamma(s + 1)
        * cgamma(s + n / 2)
        * cgamma(s + 1 + (m - 2 * n) / 4)
        * cgamma(s + m / 4)
    )


def gamma_quartic(p: int, q: int, m: int, s: complex) -> GammaMatrix:
    """Closed-form gamma matrix of the quartic functional equation.

    Valid when every signature constant is 1 and m is a multiple of 8 (the
    displayed closed forms absorb a shift of the sine arguments by m/4,
    which is only sign-free for 8 | m; all module dimensions >= 8 occurring
    with unit constants in the classification have 8 | m).
    """
    if p < q:
        raise InvalidInputError("need p >= q")
    if (p, q) in _EXCLUDED_QUARTIC:
        raise UnsupportedCaseError(f"(p, q) = {(p, q)} excluded; use gamma_pullback")
    if q == 1 and p == 3:
        raise UnsupportedCaseError("(3, 1) excluded; use gamma_pullback")
    if m < 8 or m % 8:
        raise UnsupportedCaseError("closed forms require m >= 8 with 8 | m")
    s = complex(s)
    n = p + q
    pref = _quartic_prefactor(n, m, s)
    sin = cmath.sin
    if q == 0:
        val = pref * sin(cmath.pi * s) * sin(cmath.pi * (s - n / 2))
        return GammaMatrix(["+"], np.array([[val]]), "quartic-closed")
    if q == 1:
        sn = math.sin(math.pi * n / 2)
        mat = np.array(
            [
                [-sin(cmath.pi * (s - n / 2)), 0, 0],
                [-sn, -sin(cmath.pi * (s + n / 2)), 0],
                [-sn, 0, -sin(cmath.pi * (s + n / 2))],
            ],
            dtype=complex,
        )
        return GammaMatrix(["+", "-+", "--"], pref * sin(cmath.pi * s) * mat, "quartic-closed")
    mat = np.array(
        [
            [sin(cmath.pi * (s + (q - p) / 2)), -2 * math.sin(math.pi * p / 2) * math.cos(math.pi * q / 2)],
            [-2 * math.sin(math.pi * q / 2) * math.cos(math.pi * p / 2), sin(cmath.pi * (s + (p - q) / 2))],
        ],
        dtype=complex,
    )
    return GammaMatrix(["+", "-"], pref * sin(cmath.pi * s) * mat, "quartic-closed")


def gamma_pullback(rep: CliffordRep, s: complex) -> GammaMatrix:
    """Gamma matrix of the quartic from the composition formula.

    Twisted product of two quadratic gamma matrices at s and s+(m-2n)/4,
    with the component-wise eighth-root constants and the power of two
    2^{4s + m/2} in front.  For the Lorentz line and the definite line the
    pullback is assembled from the lumped quadratic matrices and is flagged
    unvalidated (no closed form covers those cases).
    """
    s = complex(s)
    p, q, m, n = rep.p, rep.q, rep.m, rep.n
    consts = gamma_constants(rep)
    g1 = gamma_quadratic(p, q, s)
    g2 = gamma_quadratic(p, q, s + (m - 2 * n) / 4)
    labels = g1.labels
    validated = (p, q) not in ((1, 0), (1, 1))
    if (p, q) == (1, 1):
        gam = [consts.gamma_by_label("++"), consts.gamma_by_label("-+")]
    elif (p, q) == (1, 0):
        gam = [consts.gamma_by_label("+")]
    else:
        gam = [consts.gamma_by_label(lab) for lab in labels]
    tw = np.diag(np.array(gam, dtype=complex))
    pref = cmath.exp((4 * s + m / 2) * math.log(2))
    vals = pref * (g1.values @ tw @ g2.values)
    return GammaMatrix(labels, vals, "quartic-pullback", validated)


def fe_involution_check(p: int, q: int, m: int, s: complex, tol: float = 1e-10) -> bool:
    """Double functional equation: Gamma(s) Gamma(-m/4 - s) = identity."""
    g1 = gamma_quartic(p, q, m, s)
    g2 = gamma_quartic(p, q, m, -m / 4 - s)
    prod = g1.values @ g2.values
    return bool(np.max(np.abs(prod - np.eye(g1.nu))) < tol)


# ---------------------------------------------------------------------------
# Numerical zeta integrals with the standard Gaussian exp(-pi |v|^2)
# ---------------------------------------------------------------------------


def _panel_quad(f, a: float, b: float, nodes: int = 48) -> complex:
    x, wts = np.polynomial.legendre.leggauss(nodes)
    mid, half = (a + b) / 2, (b - a) / 2
    pts = mid + half * x
    return half * sum(wt * f(t) for wt, t in zip(wts, pts))


def _power_integral(expo: complex, decay, splits: int = 60, cutoff: float = 8.0) -> complex:
    """integral_0^inf t^expo * decay(t) dt with endpoint refinement at 0.

    Geometric panels toward the endpoint handle the algebraic singularity;
    requires Re(expo) > -1 and exponentially decaying ``decay``.
    """
    total = 0 + 0j
    edges = [2.0 ** (-k) for k in range(splits, 0, -1)] + list(
        np.linspace(1.0, cutoff, 24)
    )
    lo = 0.0
    f = lambda t: t**expo * decay(t)
    prev = 2.0**-splits
    total += _panel_quad(f, 0.0, prev)  # innermost panel: integrand ~ t^expo
    for edge in edges[1:]:
        total += _panel_quad(f, prev, edge)
        prev = edge
    return total


@dataclass
class ZetaEstimate:
    value: complex
    stderr: float
    samples: int
    seed: int | None
    s: complex
    component: str


def zeta_quadratic_numeric(p: int, q: int, component: str, s: complex, tol: float = 1e-10):
    """Gaussian local zeta of the quadratic form, by quadrature.

    (1, 0): half-line integrals with a one-term singular subtraction, valid
    on -3/2 < Re(s); (2, 0): polar reduction; (1, 1): hyperbolic coordinates
    reduce each component to a 1-d integral against (cosh 2t)^{-s-1}.
    """
    s = complex(s)
    if (p, q) == (1, 0):
        if s.real <= -1.5 or abs(2 * s + 1) < POLE_RADIUS:
            raise InvalidInputError("need Re(s) > -3/2, s != -1/2")
        # int_0^1 t^{2s}(e^{-pi t^2}-1) + 1/(2s+1) + int_1^inf t^{2s} e^{-pi t^2}
        part1 = _power_integral(2 * s, lambda t: math.exp(-math.pi * t * t) - 1.0, cutoff=1.0)
        part2 = _panel_quad(lambda t: t ** (2 * s) * math.exp(-math.pi * t * t), 1.0, 8.0, 64)
        val = part1 + 1.0 / (2 * s + 1) + part2
        return ZetaEstimate(val, 0.0, 0, None, s, component)
    if (p, q) == (2, 0):
        if s.real <= -1:
            raise InvalidInputError("need Re(s) > -1")
        val = 2 * math.pi * _power_integral(2 * s + 1, lambda t: math.exp(-math.pi * t * t))
        return ZetaEstimate(val, 0.0, 0, None, s, "+")
    if (p, q) == (1, 1):
        if s.real <= -1:
            raise InvalidInputError("need Re(s) > -1")
        # x = r cosh(t), y = r sinh(t) on {P > 0, x > 0}; radial integral in
        # closed Gamma form, the remaining 1-d integral by panels
        decay = lambda t: math.cosh(2 * t) ** (-(s + 1))
        tmax = min(500.0, 40.0 / (s.real + 1.0))
        edges = np.linspace(0.0, tmax, max(16, int(tmax / 2.5)))
        i_theta = 2 * sum(_panel_quad(decay, a, b) for a, b in zip(edges, edges[1:]))
        val = 0.5 * cgamma(s + 1) * cmath.exp(-(s + 1) * math.log(math.pi)) * i_theta
        return ZetaEstimate(val, 0.0, 0, None, s, component)
    raise UnsupportedCaseError("direct quadrature provided for p + q <= 2 only")


def fe_quadratic_numeric_check(p: int, q: int, s: complex, tol: float) -> bool:
    """Verify the quadratic functional equation with a Gaussian numerically.

    The Gaussian is its own Fourier transform, so both sides are plain zeta
    values; components are lumped by sign of P for (1, 1).
    """
    s = complex(s)
    n = p + q
    g = gamma_quadratic(p, q, s)
    if (p, q) == (1, 0):
        lhs = 2 * zeta_quadratic_numeric(1, 0, "+", s).value
        rhs = g.values[0, 0] * 2 * zeta_quadratic_numeric(1, 0, "+", -s - n / 2).value
        return abs(lhs - rhs) < tol
    if (p, q) == (2, 0):
        lhs = zeta_quadratic_numeric(2, 0, "+", s).value
        rhs = g.values[0, 0] * zeta_quadratic_numeric(2, 0, "+", -s - 1).value
        return abs(lhs - rhs) < tol
    if (p, q) == (1, 1):
        zp = lambda z: 2 * zeta_quadratic_numeric(1, 1, "++", z).value  # zeta_+ = zeta_-
        lhs = zp(s)
        rhs = g.values[0, 0] * zp(-s - 1) + g.values[0, 1] * zp(-s - 1)
        return abs(lhs - rhs) < tol
    raise UnsupportedCaseError("numeric functional equation provided for p + q <= 2")


def zeta_quadratic_closed(p: int, q: int, s: complex) -> complex:
    """Closed Gaussian values used as oracles for the quadrature."""
    s = complex(s)
    if (p, q) == (1, 0):
        return 0.5 * cmath.exp(-(s + 0.5) * math.log(math.pi)) * cgamma(s + 0.5)
    if (p, q) == (2, 0):
        return cmath.exp(-s * math.log(math.pi)) * cgamma(s + 1)
    raise UnsupportedCaseError("closed form recorded for (1,0) and (2,0) only")


# ---------------------------------------------------------------------------
# Monte Carlo quartic zeta
# ---------------------------------------------------------------------------


def _component_mask(rep: CliffordRep, qvals: np.ndarray, fvals: np.ndarray, component: str):
    """Samples in ``component``, from F and the (n, count) S_i[w] values."""
    if component == "+":
        return fvals > 0
    if component == "-":
        return fvals < 0
    if rep.q == 1 and component in ("-+", "--"):
        coord = qvals[rep.n - 1]
        mask = fvals < 0
        return mask & (coord > 0 if component == "-+" else coord < 0)
    if (rep.p, rep.q) == (1, 1):
        c1, c2 = qvals[0], qvals[1]
        if component == "++":
            return (fvals > 0) & (c1 > 0)
        if component == "+-":
            return (fvals > 0) & (c1 < 0)
        if component == "-+":
            return (fvals < 0) & (c2 > 0)
        if component == "--":
            return (fvals < 0) & (c2 < 0)
    raise InvalidInputError(f"unknown component {component!r}")


def zeta_quartic_mc(
    rep: CliffordRep, component: str, s: complex, samples: int = 10**6, seed: int = 0
) -> ZetaEstimate:
    """Monte Carlo Gaussian zeta integral of |F|^s over one component.

    Importance sampling from the Gaussian itself: the estimate is the mean
    of |F(w)|^s over standard draws restricted to the component.  Chunk c
    always uses the stream keyed (seed, c), so totals do not depend on how
    chunks are scheduled.
    """
    s = complex(s)
    if s.real < 0:
        warnings.warn("Re(s) < 0: integrand unbounded near the zero set", RuntimeWarning)
    m = rep.m
    total = 0.0 + 0.0j
    total_sq = 0.0
    done = 0
    chunk_idx = 0
    scale = 1.0 / math.sqrt(2 * math.pi)
    while done < samples:
        count = min(MC_CHUNK, samples - done)
        gen = stream(seed, chunk_idx)
        w = np.ascontiguousarray((gen.standard_normal((count, m)) * scale).T)
        qvals = rep.forms(w)
        fvals = np.zeros(count)
        for e, v in zip(rep.eps, qvals):
            fvals += e * v * v
        mask = _component_mask(rep, qvals, fvals, component)
        vals = np.zeros(count, dtype=complex)
        nz = mask & (fvals != 0)
        vals[nz] = np.exp(s * np.log(np.abs(fvals[nz])))
        total += vals.sum()
        total_sq += float((vals * vals.conjugate()).real.sum())
        done += count
        chunk_idx += 1
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0)
    stderr = math.sqrt(var / samples)
    return ZetaEstimate(mean, stderr, samples, seed, s, component)


def zeta_quartic_closed_square(m: int, s: complex) -> complex:
    """Oracle for the module with a single generator acting as the identity:
    the quartic is |w|^4 and the Gaussian integral is classical."""
    s = complex(s)
    return cmath.exp(-2 * s * math.log(math.pi)) * cgamma(2 * s + m / 2) / cgamma(m / 2)


def det_sv_identity_check(rep: CliffordRep, points: int = 10, seed: int = 5) -> bool:
    """det S(v)^2 = P(v)^m, and det S(v) = +- P(v)^{m/2} for even m,
    exactly at integer points."""
    gen = stream(seed, 2)
    for v in gen.integers(-5, 6, size=(points, rep.n)):
        sv = sum(int(c) * s for c, s in zip(v, rep.basis))
        pv = sum(e * int(c) ** 2 for e, c in zip(rep.eps, v))
        d = int_det(sv.tolist())
        if d * d != pv**rep.m:
            return False
        if rep.m % 2 == 0 and abs(d) != abs(pv ** (rep.m // 2)):
            return False
    return True
