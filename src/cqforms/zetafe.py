"""Gamma factors and local zeta integrals of the module quartic.

The quadratic form P(v) of signature (p, q) has local zeta functions over
the connected components of {P != 0} satisfying matrix functional equations
with explicit gamma factors.  Pulling back along the self-dual quadratic map
of a nondegenerate Clifford module produces a functional equation for the
quartic; its gamma matrix is a twisted product of two quadratic gamma
matrices, the twist being eighth roots of unity read off the signatures of
S(v) on each component.

The trig matrices of the closed gamma factors are stated once, as Laurent
polynomials in z = e^{i pi s} over Z[zeta8, 1/2] (``gamma_laurent``); the
float gamma matrices are Gamma-function prefactors times that table.  This
module computes the signature constants exactly, and verifies functional
equations numerically with Gaussian test functions (quadrature in the
quadratic range, Monte Carlo for the quartic integrals).  The prefactors
cancel from the pullback and involution identities of the quartic gamma
matrix; ``gamma_identity_check`` compares what is left term by term in the
table's own ring, and ``det_sv_identity_check`` tests det S(v)^2 = P(v)^m
mod P.  The float ``pullback_error`` and ``fe_involution_check`` serve the
command line.  This module only computes: the multiplicity formulas for the twists
and the cases that the closed quartic formulas cover are stated in
``classify``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import modp
from .classify import closed_form_refusal
from .quartic import expand_coeffs, quartic_values
from .repkit import CliffordRep, InvalidInputError
from .rng import MC_CHUNK, integer_points, stream
from .spmat import SectorDecomposition


class PoleError(ValueError):
    """Evaluation requested too close to a pole of the gamma factors."""


class UnsupportedCaseError(ValueError):
    """The closed-form quartic gamma matrix does not cover this case."""


POLE_RADIUS = 1e-8
QUAD_TMAX = 500.0  # largest cut t of the (1, 1) hyperbolic quadrature
QUAD_TAIL = 52 * math.log(2)  # the (1, 1) quadrature needs its neglected tail below 2^-52
DEGENERACY_PROBES = 4  # integer points tried before gamma_constants expands the quartic
MC_DRAW = 1 << 12  # Monte Carlo samples drawn and evaluated per block of a chunk
DET_SV_POINTS = 10  # points v mod P of det_sv_identity_check, each missing with probability <= 2m/P

# ---------------------------------------------------------------------------
# Complex gamma: Lanczos approximation (g = 7, 9 coefficients), with the
# reflection formula for Re z < 1/2.  Good to ~1e-13 relative, comfortably
# inside the 1e-10 tolerances of the command line's float checks.
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
    """Gamma(z) for complex z; refuses z within POLE_RADIUS of a pole."""
    z = complex(z)
    if z.real <= 0.5 and abs(z.imag) < POLE_RADIUS:
        if abs(z.real - round(z.real)) < POLE_RADIUS and round(z.real) <= 0:
            raise PoleError(f"gamma argument {z} within {POLE_RADIUS} of a pole")
    if z.real < 0.5:
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
    p: int
    q: int
    m: int


def gamma_constants(rep: CliffordRep) -> SignatureConstants:
    """Exact signature data of S(v) at the component representatives.

    One nonzero exact value of the quartic at a probe point certifies that
    the module is nondegenerate; the full expansion runs only if every probe
    is 0.  ``classify.expected_twists`` states the multiplicity formulas that
    the suite compares these signatures with.
    """
    probes = integer_points(0, DEGENERACY_PROBES, rep.m)
    if not np.any(quartic_values(rep, probes)) and expand_coeffs(rep).is_zero:
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
    # det S_1 of the symmetric involution S_1: the first component is at e_1
    alpha = (-1) ** sigs[0][1]
    beta = (-1) ** (rep.q + 1)
    return SignatureConstants(labels, sigs, gammas, alpha, beta, rep.p, rep.q, rep.m)


# ---------------------------------------------------------------------------
# Gamma matrices: trig matrices as Laurent polynomials in z = e^{i pi s}
# ---------------------------------------------------------------------------


@dataclass
class GammaMatrix:
    labels: list[str]
    values: np.ndarray  # square complex, one row and column per label
    formula: str
    validated: bool = True

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise OverflowError(f"the {self.formula} gamma matrix has a value that is not finite")


_HALF = Fraction(1, 2)


def _sin(k: int, b: int = 1) -> list:
    """sin(pi (s + k/4)) = (zeta8^k z - zeta8^-k z^-1) / 2i as Laurent terms;
    with b = 0 the constant sin(pi k/4)."""
    return [(_HALF, k - 2, b), (-_HALF, -k - 2, -b)]


def _times(c, *factors) -> list:
    """c times the product of term lists."""
    out = [(Fraction(c), 0, 0)]
    for terms in factors:
        out = [(c1 * c2, a1 + a2, b1 + b2) for c1, a1, b1 in out for c2, a2, b2 in terms]
    return out


def _quadratic_table(p: int, q: int) -> tuple[list, str, list]:
    """Labels, formula name and trig matrix of the signature-(p, q) quadratic
    gamma matrix, p >= q >= 0: definite (q = 0, components lumped for p = 1),
    Lorentzian (q = 1 < p) with its three components, or split with the two
    components {P > 0}, {P < 0} (also (1, 1), in the lumped sense)."""
    n = p + q
    if q == 0:
        return ["+"], "quadratic-def", [[_times(-1, _sin(0))]]
    if q == 1 < p:
        cos_n = _times(-1, _sin(2 * n + 2, 0))
        up, down, half = [(_HALF, 2 * n, 1)], [(_HALF, -2 * n, -1)], [(_HALF, 0, 0)]
        return ["+", "-+", "--"], "quadratic-lorentz", [
            [_times(-1, _sin(2)), cos_n, cos_n], [half, down, up], [half, up, down]
        ]
    return ["+", "-"], "quadratic-general", [
        [_times(-1, _sin(2 * q)), _sin(2 * p, 0)], [_sin(2 * q, 0), _times(-1, _sin(2 * p))]
    ]


@dataclass(frozen=True)
class GammaLaurent:
    """The trig matrices of the closed gamma factors, each entry a list of
    terms (c, a, b) that stand for c zeta8^a z^b, with c in Z[1/2],
    zeta8 = e^{i pi/4} and z = e^{i pi s}.

    ``quadratic`` is ``gamma_quadratic``'s matrix without its prefactor, and
    ``quartic`` is ``gamma_quartic``'s without its prefactor and sin(pi s).
    ``involution`` holds the shifts k of the four sines sin(pi (s + k/4))
    whose product is sin(pi s) sin(pi s~) times the involution's matrix
    product, s~ = -m/4 - s: the reflection formula turns the four pairs of
    Gamma factors into these sines.
    """

    labels: list
    quadratic: list
    quartic: list
    involution: tuple


def gamma_laurent(p: int, q: int, m: int) -> GammaLaurent:
    """The Laurent table of the matrix shape of (p, q): definite (q = 0),
    Lorentzian (q = 1) or split.  Covers what ``gamma_quartic`` covers."""
    if p < q or q < 0 or p + q < 1:
        raise InvalidInputError("need p >= q >= 0 with p + q >= 1")
    if (refusal := closed_form_refusal(p, q, m)) is not None:
        raise UnsupportedCaseError(refusal)
    labels, _, quadratic = _quadratic_table(p, q)
    n = p + q
    if q == 0:
        quartic = [[_sin(-2 * n)]]
    elif q == 1:
        sin_n, diag = _times(-1, _sin(2 * n, 0)), _times(-1, _sin(2 * n))
        quartic = [[_times(-1, _sin(-2 * n)), [], []], [sin_n, diag, []], [sin_n, [], diag]]
    else:
        quartic = [
            [_sin(2 * (q - p)), _times(-2, _sin(2 * p, 0), _sin(2 * q + 2, 0))],
            [_times(-2, _sin(2 * q, 0), _sin(2 * p + 2, 0)), _sin(2 * (p - q))],
        ]
    return GammaLaurent(labels, quadratic, quartic, (4, 2 * n, 4 + m - 2 * n, m))


_R = math.sqrt(0.5)
_ZETA8 = (1, complex(_R, _R), 1j, complex(-_R, _R), -1, complex(-_R, -_R), -1j, complex(_R, -_R))


def _complex_at(scale: complex, matrix: list, s: complex) -> np.ndarray:
    """scale times the entries of a table matrix at z = e^{i pi s}, in Python
    complex floats: a product that overflows is inf or nan, with no warning,
    and ``GammaMatrix`` refuses it.  The powers of zeta8 are exact where they
    are 1, i, -1 or -i, so a constant sine that vanishes is 0."""
    zpow = (cmath.exp(-1j * cmath.pi * s), 1, cmath.exp(1j * cmath.pi * s))
    return np.array(
        [[scale * sum(float(c) * _ZETA8[a % 8] * zpow[b + 1] for c, a, b in e) for e in row] for row in matrix],
        dtype=complex,
    )


def gamma_quadratic(p: int, q: int, s: complex) -> GammaMatrix:
    """Gamma matrix of the signature-(p, q) quadratic functional equation:
    its Gamma and pi prefactor times the trig matrix of ``_quadratic_table``."""
    if p < q or q < 0 or p + q < 1:
        raise InvalidInputError("need p >= q >= 0 with p + q >= 1")
    s = complex(s)
    n = p + q
    pref = cmath.exp(-(2 * s + n / 2 + 1) * math.log(math.pi)) * cgamma(s + 1) * cgamma(s + n / 2)
    labels, formula, matrix = _quadratic_table(p, q)
    return GammaMatrix(labels, _complex_at(pref, matrix, s), formula)


def _quartic_prefactor(n: int, m: int, s: complex) -> complex:
    return (
        cmath.exp((4 * s + m / 2) * math.log(2))
        * cmath.exp(-(4 * s + 2 + m / 2) * math.log(math.pi))
        * cgamma(s + 1)
        * cgamma(s + n / 2)
        * cgamma(s + 1 + (m - 2 * n) / 4)
        * cgamma(s + m / 4)
    )


def gamma_quartic(p: int, q: int, m: int, s: complex) -> GammaMatrix:
    """Closed-form gamma matrix of the quartic functional equation: its
    prefactor times sin(pi s) times the quartic matrix of ``gamma_laurent``.

    Valid when every signature constant is 1 and m is a multiple of 8 (the
    displayed closed forms absorb a shift of the sine arguments by m/4,
    which is only sign-free for 8 | m; all module dimensions >= 8 occurring
    with unit constants in the classification have 8 | m).
    """
    table = gamma_laurent(p, q, m)
    s = complex(s)
    pref = _quartic_prefactor(p + q, m, s) * cmath.sin(cmath.pi * s)
    return GammaMatrix(table.labels, _complex_at(pref, table.quartic, s), "quartic-closed")


def gamma_pullback(consts: SignatureConstants, s: complex) -> GammaMatrix:
    """Gamma matrix of the quartic from the composition formula.

    Twisted product of two quadratic gamma matrices at s and s+(m-2n)/4,
    with the component-wise eighth-root constants and the power of two
    2^{4s + m/2} in front.  For (1, 1) and the definite line the pullback is
    assembled from the lumped quadratic matrices, each lumped label taking
    the constant of the first component label that starts with it, and is
    flagged unvalidated (no closed form covers those cases).  ``consts`` is
    ``gamma_constants(rep)`` of the module.
    """
    s = complex(s)
    p, q, m = consts.p, consts.q, consts.m
    n = p + q
    g1 = gamma_quadratic(p, q, s)
    g2 = gamma_quadratic(p, q, s + (m - 2 * n) / 4)
    validated = (p, q) not in ((1, 0), (1, 1))
    gam = [next(g for c, g in zip(consts.labels, consts.gammas) if c.startswith(lab)) for lab in g1.labels]
    tw = np.diag(np.array(gam, dtype=complex))
    pref = cmath.exp((4 * s + m / 2) * math.log(2))
    vals = pref * (g1.values @ tw @ g2.values)
    return GammaMatrix(g1.labels, vals, "quartic-pullback", validated)


def pullback_error(consts: SignatureConstants, s: complex) -> float:
    """max |closed - pullback| / max |closed| over the entries of the quartic
    gamma matrix at s, from ``gamma_constants(rep)`` of the module."""
    gq = gamma_quartic(consts.p, consts.q, consts.m, s)
    gp = gamma_pullback(consts, s)
    return float(np.max(np.abs(gq.values - gp.values))) / float(np.max(np.abs(gq.values)))


def fe_involution_check(p: int, q: int, m: int, s: complex, tol: float = 1e-10) -> bool:
    """Double functional equation: Gamma(s) Gamma(-m/4 - s) = identity."""
    g1 = gamma_quartic(p, q, m, s)
    g2 = gamma_quartic(p, q, m, -m / 4 - s)
    prod = g1.values @ g2.values
    return bool(np.max(np.abs(prod - np.eye(len(g1.labels)))) < tol)


# ---------------------------------------------------------------------------
# The gamma identities, term by term
# ---------------------------------------------------------------------------


def _twice(terms: list, shift: int = 0, flip: int = 1) -> list:
    """2 times a table entry at z -> zeta8^shift z^flip, as terms (c, a, b)
    with integer c.  Refuses a coefficient outside Z/2."""
    for c, _, _ in terms:
        if 2 % c.denominator:
            raise ValueError(f"gamma table coefficient {c} is not in Z/2")
    return [(2 // c.denominator * c.numerator, a + shift * b, flip * b) for c, a, b in terms]


def _collected(*products) -> list:
    """The sum of the products of term lists, collected with zeta8^4 = -1:
    one term (c, a, b) per (a, b) with 0 <= a < 4 and c != 0, in order."""
    out = {}
    for factors in products:
        terms = [(1, 0, 0)]
        for f in factors:
            terms = [(c1 * c2, a1 + a2, b1 + b2) for c1, a1, b1 in terms for c2, a2, b2 in f]
        for c, a, b in terms:
            out[a % 4, b] = out.get((a % 4, b), 0) + (c if a % 8 < 4 else -c)
    return [(c, a, b) for (a, b), c in sorted(out.items()) if c]


def gamma_identity_check(consts: SignatureConstants) -> str | None:
    """The two identities behind the quartic gamma matrix, compared term by
    term.  Returns None when both hold, else the name of the first that fails.

    With z = e^{i pi s} the Gamma, pi and 2 powers cancel identically, and
    what is left are identities of Laurent polynomials over Z[zeta8, 1/2]:

    * pullback: M1(z) diag(zeta8^(plus - minus)) M2(zeta8^(m - 2n) z)
      = sin(pi s) Mq(z), with M1, M2 the quadratic and Mq the quartic
      matrices of ``gamma_laurent`` and the twists from ``consts``;
    * involution: sin(pi s) sin(pi s~) Mq(z) Mq(zeta8^-m z^-1) = the product
      of the four ``involution`` sines times I, with s~ = -m/4 - s.

    Every table entry and sine is doubled, so all coefficients are integers:
    both sides of the pullback carry a factor 4 and both sides of the
    involution a factor 16.  Each entry is compared as collected terms.
    """
    p, q, m = consts.p, consts.q, consts.m
    table = gamma_laurent(p, q, m)
    size = range(len(table.labels))
    twists = [[(1, plus - minus, 0)] for plus, minus in consts.signatures]
    quadratic = [[_twice(e) for e in row] for row in table.quadratic]
    shifted = [[_twice(e, m - 2 * (p + q)) for e in row] for row in table.quadratic]
    quartic = [[_twice(e) for e in row] for row in table.quartic]
    quartic_tilde = [[_twice(e, -m, -1) for e in row] for row in table.quartic]  # s~ is z~ = zeta8^-m z^-1
    sin_s, sin_tilde = _twice(_sin(0)), _twice(_sin(0), -m, -1)
    for i in size:
        for j in size:
            left = _collected(*[(quadratic[i][k], shifted[k][j], twists[k]) for k in size])
            if left != _collected((quartic[i][j], sin_s)):
                return "pullback"
    right = _collected([_twice(_sin(k)) for k in table.involution])
    for i in size:
        for j in size:
            product = _collected(*[(quartic[i][k], quartic_tilde[k][j]) for k in size])
            if _collected((product, sin_s, sin_tilde)) != (right if i == j else []):
                return "involution"
    return None


# ---------------------------------------------------------------------------
# Numerical zeta integrals with the standard Gaussian exp(-pi |v|^2)
# ---------------------------------------------------------------------------


_LEGGAUSS = {}  # Gauss-Legendre rules by node count, made on first use: no numpy.polynomial at import


def _panel_quad(f, a: float, b: float, nodes: int = 48) -> complex:
    if nodes not in _LEGGAUSS:
        _LEGGAUSS[nodes] = np.polynomial.legendre.leggauss(nodes)
    x, wts = _LEGGAUSS[nodes]
    mid, half = (a + b) / 2, (b - a) / 2
    pts = mid + half * x
    return half * sum(wt * f(t) for wt, t in zip(wts, pts))


def _power_integral(expo: complex, decay, cutoff: float = 8.0) -> complex:
    """integral_0^inf t^expo * decay(t) dt with endpoint refinement at 0.

    Geometric panels down to eps = 2^-60 handle the algebraic singularity;
    the innermost one, [0, eps], is decay(eps) eps^(expo+1) / (expo+1) in
    closed form.  Requires Re(expo) > -1 and a smooth, exponentially
    decaying ``decay``.
    """
    edges = [2.0 ** (-k) for k in range(60, 0, -1)] + list(np.linspace(1.0, cutoff, 24))
    f = lambda t: t**expo * decay(t)
    inner = decay(edges[0]) * edges[0] ** (expo + 1) / (expo + 1)
    return inner + sum(_panel_quad(f, a, b) for a, b in zip(edges, edges[1:]) if a < b)


@dataclass
class ZetaEstimate:
    value: complex
    stderr: float
    samples: int
    seed: int | None
    s: complex
    component: str


def zeta_quadratic_numeric(p: int, q: int, component: str, s: complex):
    """Gaussian local zeta of the quadratic form, by quadrature.

    (1, 0): half-line integrals with a one-term singular subtraction, valid
    on -3/2 < Re(s); (2, 0): polar reduction; (1, 1): hyperbolic coordinates
    reduce each component to a 1-d integral against (cosh 2t)^{-s-1}.
    """
    s = complex(s)
    if (p, q) == (1, 0):
        if s.real <= -1.5 or abs(2 * s + 1) < POLE_RADIUS:
            raise InvalidInputError("need Re(s) > -3/2, s != -1/2")
        # int_0^1 t^{2s}(e^{-pi t^2}-1) + 1/(2s+1) + int_1^inf t^{2s} e^{-pi t^2},
        # with e^{-pi t^2}-1 by expm1, since it cancels at small t
        part1 = _power_integral(2 * s + 2, lambda t: math.expm1(-math.pi * t * t) / (t * t), cutoff=1.0)
        part2 = _panel_quad(lambda t: t ** (2 * s) * math.exp(-math.pi * t * t), 1.0, 8.0, 64)
        val = part1 + 1.0 / (2 * s + 1) + part2
        return ZetaEstimate(val, 0.0, 0, None, s, component)
    if (p, q) in ((2, 0), (1, 1)) and s.real <= -1:
        raise InvalidInputError("need Re(s) > -1")
    if (p, q) == (2, 0):
        val = 2 * math.pi * _power_integral(2 * s + 1, lambda t: math.exp(-math.pi * t * t))
        return ZetaEstimate(val, 0.0, 0, None, s, "+")
    if (p, q) == (1, 1):
        # the integrand decays as 2^(s+1) exp(-2 (s+1) t), so cutting at tmax
        # neglects a tail of relative size exp(-2 (Re s + 1) tmax)
        tmax = min(QUAD_TMAX, 40.0 / (s.real + 1.0))
        if 2 * (s.real + 1.0) * tmax < QUAD_TAIL:
            bound = QUAD_TAIL / (2 * QUAD_TMAX) - 1
            raise InvalidInputError(
                f"need Re(s) > {bound:.4f} for (1, 1): the quadrature stops at t = {QUAD_TMAX:g}, "
                "and the tail exp(-2 (Re s + 1) t) past it is above 2^-52"
            )
        # x = r cosh(t), y = r sinh(t) on {P > 0, x > 0}; radial integral in
        # closed Gamma form, the remaining 1-d integral by panels against
        # cosh(2t)^-(s+1), with log cosh(2t) = 2t - log 2 + log1p(e^-4t) so
        # that no factor overflows
        decay = lambda t: cmath.exp(-(s + 1) * (2 * t - math.log(2) + math.log1p(math.exp(-4 * t))))
        edges = np.linspace(0.0, tmax, max(16, int(tmax / 2.5)))
        i_theta = 2 * sum(_panel_quad(decay, a, b) for a, b in zip(edges, edges[1:]))
        val = 0.5 * cgamma(s + 1) * cmath.exp(-(s + 1) * math.log(math.pi)) * i_theta
        return ZetaEstimate(val, 0.0, 0, None, s, component)
    raise UnsupportedCaseError("direct quadrature provided for p + q <= 2 only")


def fe_quadratic_numeric_check(p: int, q: int, s: complex, tol: float) -> bool:
    """Verify the quadratic functional equation with a Gaussian numerically.

    The Gaussian is its own Fourier transform, so both sides are plain zeta
    values: c zeta(s) against the first row of the gamma matrix times
    c zeta(-s - n/2), with c = 1 for the one component of (2, 0) and c = 2
    for the lumped pairs of (1, 0) and (1, 1), where zeta_+ = zeta_-.
    """
    s = complex(s)
    n = p + q
    g = gamma_quadratic(p, q, s)
    if (p, q) not in ((1, 0), (2, 0), (1, 1)):
        raise UnsupportedCaseError("numeric functional equation provided for p + q <= 2")
    c = 1 if (p, q) == (2, 0) else 2
    lhs = c * zeta_quadratic_numeric(p, q, "+", s).value
    try:
        zeta = c * zeta_quadratic_numeric(p, q, "+", -s - n / 2).value
    except InvalidInputError as exc:
        raise InvalidInputError(f"the reflected point -s - n/2 = {-s - n / 2:g} is out of range: {exc}") from None
    return abs(lhs - sum(gamma * zeta for gamma in g.values[0])) < tol


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


def _component_rule(rep: CliffordRep, component: str):
    """``(sign, test)`` of the samples in ``component``: those with
    ``sign * F > 0`` and, for ``test = (i, c)``, ``c * S_i[w] > 0``.

    A label of ``components`` with representative c e_i fixes the sign of F
    as eps_i; where that sign has more than one component, it also fixes the
    sign of S_i[w] as that of c.  '+' and '-' outside the table mean F > 0
    and F < 0.  A module with p < q takes the labels of its swap, the
    (q, p) module with quartic -F: its representative c e_i is c e_{i + p}
    here (mod n), where eps has the opposite sign, so the rule holds as
    stated; '+' and '-' outside that table mean -F > 0 and -F < 0.
    """
    flip, shift = (-1, rep.p) if rep.p < rep.q else (1, 0)
    labels = components(max(rep.p, rep.q), min(rep.p, rep.q))
    table = {label: np.roll(v, shift) for label, v in labels}  # c e_i becomes c e_{i + shift}
    if component not in table:
        if component not in ("+", "-"):
            raise InvalidInputError(f"unknown component {component!r}")
        return (flip if component == "+" else -flip), None
    # label -> (sign of F, i, c) for the representative c e_i
    signs = {label: (rep.eps[i], i, v[i]) for label, v in table.items() for i in np.flatnonzero(v)}
    sign_f, i, c = signs[component]
    return sign_f, ((i, c) if sum(s == sign_f for s, _, _ in signs.values()) > 1 else None)


def zeta_quartic_mc(
    rep: CliffordRep, component: str, s: complex, samples: int = 10**6, seed: int = 0
) -> ZetaEstimate:
    """Monte Carlo Gaussian zeta integral of |F|^s over one component.

    Importance sampling from the Gaussian itself: the estimate is the mean
    of |F(w)|^s over standard draws restricted to the component.  Chunk c
    always uses the stream keyed (seed, c), so totals do not depend on how
    chunks are scheduled.  Each chunk's normals are drawn into one buffer
    MC_DRAW rows at a time; consecutive draws from one stream give the
    numbers of a single whole-chunk draw.  Each chunk is summed whole and
    the chunk totals in chunk order.
    """
    if samples < 2:
        raise InvalidInputError("need at least two samples for a standard error")
    sign, test = _component_rule(rep, component)  # an unknown label is refused before any draw
    s = complex(s)
    if s.real < 0:
        warnings.warn("Re(s) < 0: integrand unbounded near the zero set", RuntimeWarning)
    scale = 1.0 / math.sqrt(2 * math.pi)
    total = 0.0 + 0.0j
    total_sq = 0.0
    buf = np.empty((min(MC_DRAW, samples), rep.m))
    for chunk_idx, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        gen = stream(seed, chunk_idx)
        vals = np.zeros(count, dtype=complex)
        for lo in range(0, count, MC_DRAW):
            w = gen.standard_normal(out=buf[: min(MC_DRAW, count - lo)])
            w *= scale
            qvals = rep.forms(w.T)
            fvals = np.zeros(len(w))
            for e, v in zip(rep.eps, qvals):
                fvals += e * v * v
            mask = sign * fvals > 0
            if test is not None:
                mask &= test[1] * qvals[test[0]] > 0
            nz = mask & (fvals != 0)
            vals[lo : lo + len(w)][nz] = np.exp(s * np.log(np.abs(fvals[nz])))
        total += vals.sum()
        total_sq += float((vals * vals.conjugate()).real.sum())
    mean = total / samples
    var = max(total_sq / samples - abs(mean) ** 2, 0.0)
    stderr = math.sqrt(var / samples)
    return ZetaEstimate(mean, stderr, samples, seed, s, component)


def zeta_quartic_closed_square(m: int, s: complex) -> complex:
    """Oracle for the module with a single generator acting as the identity:
    the quartic is |w|^4 and the Gaussian integral is classical."""
    s = complex(s)
    return cmath.exp(-2 * s * math.log(math.pi)) * cgamma(2 * s + m / 2) / cgamma(m / 2)


def det_sv_residues(rep: CliffordRep, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """det S(v) and P(v) mod ``modp.P`` at DET_SV_POINTS points v drawn
    uniformly mod P, as two (DET_SV_POINTS,) arrays.

    S(v) = sum_i v_i S_i has nonzero entries only within the joint orbits
    of the permutations ``rep.perm``, so det S(v) is the product of the
    determinants of its diagonal blocks, one per orbit.  The blocks of one
    size are eliminated as one stack."""
    v = modp.residue_points(seed, DET_SV_POINTS, rep.n, index=2)
    sv = np.zeros((DET_SV_POINTS, rep.m, rep.m), dtype=np.int64)
    at = np.arange(DET_SV_POINTS)[:, None, None]
    np.add.at(sv, (at, rep.perm, np.arange(rep.m)), v.T[:, :, None] * rep.sign)
    orbits = SectorDecomposition(rep.perm, rep.sign).orbits
    det = np.ones(DET_SV_POINTS, dtype=np.int64)
    for size in sorted({len(idx) for idx in orbits}):
        idx = np.array([o for o in orbits if len(o) == size])  # (blocks, size)
        blocks = sv[:, idx[:, :, None], idx[:, None, :]].reshape(-1, size, size)
        for d in modp.det(blocks).reshape(DET_SV_POINTS, -1).T:
            det = det * d % modp.P
    pv = (np.array(rep.eps)[:, None] * (v * v % modp.P)).sum(axis=0) % modp.P
    return det, pv


def det_sv_identity_check(rep: CliffordRep, seed: int = 5) -> bool:
    """det S(v)^2 = P(v)^m, tested mod ``modp.P`` at the points of
    ``det_sv_residues``.

    Both sides have degree 2m, so each point misses a false identity with
    probability at most 2m/P, unless P divides every coefficient of the
    difference.  For even m, det S(v) = +-P(v)^{m/2} follows, since F_P is a
    field."""
    det, pv = det_sv_residues(rep, seed)
    return bool(np.all(det * det % modp.P == modp.power(pv, rep.m)))
