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

from .quartic import expand_coeffs, quartic_values
from .repkit import CliffordRep, InvalidInputError, irrep_catalog
from .rng import MC_CHUNK, integer_points, stream
from .spmat import int_det, sp_det


class PoleError(ValueError):
    """Evaluation requested too close to a pole of the gamma factors."""


class UnsupportedCaseError(ValueError):
    """The closed-form quartic gamma matrix does not cover this case."""


POLE_RADIUS = 1e-8
DEGENERACY_PROBES = 4  # integer points tried before gamma_constants expands the quartic
MC_DRAW = 1 << 12  # Monte Carlo samples drawn per hand-off to the helper thread
DET_SV_POINTS = 10  # points v of det_sv_identity_check

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
    p: int
    q: int
    m: int

    def gamma_by_label(self, label: str) -> complex:
        return self.gammas[self.labels.index(label)]


def gamma_constants(rep: CliffordRep) -> SignatureConstants:
    """Exact signature data of S(v) at the component representatives.

    Also evaluates the closed multiplicity formulas for the eighth-root
    constants and asserts agreement with the computed signatures.  One
    nonzero exact value of the quartic at a probe point certifies that the
    module is nondegenerate; the full expansion runs only if every probe is 0.
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
    expected = _closed_form_gammas(rep, labels)
    for lab, got, want in zip(labels, gammas, expected):
        if want is not None and abs(got - want) > 1e-12:
            raise AssertionError(f"gamma mismatch on component {lab}: {got} vs {want}")
    alpha = sp_det(rep.perm[0], rep.sign[0])
    beta = (-1) ** (rep.q + 1)
    return SignatureConstants(labels, sigs, gammas, alpha, beta, rep.p, rep.q, rep.m)


def _closed_form_gammas(rep: CliffordRep, labels):
    """Multiplicity formulas for the signature constants, where stated."""
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


def _closed_form_refusal(p: int, q: int, m: int) -> str | None:
    """Why the closed quartic gamma formulas do not cover (p, q, m), or None."""
    if (p, q) in _EXCLUDED_QUARTIC:
        return f"(p, q) = {(p, q)} excluded; use gamma_pullback"
    if m < 8 or m % 8:
        return "closed forms require m >= 8 with 8 | m"
    return None


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
    if (refusal := _closed_form_refusal(p, q, m)) is not None:
        raise UnsupportedCaseError(refusal)
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


def gamma_pullback(consts: SignatureConstants, s: complex) -> GammaMatrix:
    """Gamma matrix of the quartic from the composition formula.

    Twisted product of two quadratic gamma matrices at s and s+(m-2n)/4,
    with the component-wise eighth-root constants and the power of two
    2^{4s + m/2} in front.  For the Lorentz line and the definite line the
    pullback is assembled from the lumped quadratic matrices and is flagged
    unvalidated (no closed form covers those cases).  ``consts`` is
    ``gamma_constants(rep)`` of the module.
    """
    s = complex(s)
    p, q, m = consts.p, consts.q, consts.m
    n = p + q
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


def _power_integral(expo: complex, decay, cutoff: float = 8.0) -> complex:
    """integral_0^inf t^expo * decay(t) dt with endpoint refinement at 0.

    Geometric panels down to 2^-60 handle the algebraic singularity;
    requires Re(expo) > -1 and exponentially decaying ``decay``.
    """
    total = 0 + 0j
    edges = [2.0 ** (-k) for k in range(60, 0, -1)] + list(
        np.linspace(1.0, cutoff, 24)
    )
    f = lambda t: t**expo * decay(t)
    prev = edges[0]
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
    """Samples in ``component``, from F and the (n, count) S_i[w] values.

    A label of ``components`` with representative c e_i fixes the sign of F
    as eps_i; where that sign has more than one component, it also fixes the
    sign of S_i[w] as that of c.  '+' and '-' outside the table mean F > 0
    and F < 0.
    """
    table = dict(components(rep.p, rep.q)) if rep.p >= rep.q else {}  # tabulated for p >= q
    if component not in table:
        if component not in ("+", "-"):
            raise InvalidInputError(f"unknown component {component!r}")
        return fvals > 0 if component == "+" else fvals < 0
    # label -> (sign of F, i, c) for the representative c e_i
    signs = {label: (rep.eps[i], i, v[i]) for label, v in table.items() for i in np.flatnonzero(v)}
    sign_f, i, c = signs[component]
    mask = sign_f * fvals > 0
    if sum(s == sign_f for s, _, _ in signs.values()) > 1:
        mask &= c * qvals[i] > 0
    return mask


def _normal_blocks(seed: int, samples: int, bufs):
    """Scaled normals of every chunk, MC_DRAW rows at a time.

    Yields ``(chunk size, offset in the chunk, block)``.  Consecutive draws
    from one stream give the numbers of a single whole-chunk draw, so the
    blocks cut each chunk's draw into rows without changing it.  Blocks
    alternate between the two ``bufs``: a block stays valid until the
    next-but-one is drawn.  The caller allocates ``bufs``, so a drawing
    thread allocates no large arrays of its own.
    """
    scale = 1.0 / math.sqrt(2 * math.pi)
    j = 0
    for chunk_idx, start in enumerate(range(0, samples, MC_CHUNK)):
        count = min(MC_CHUNK, samples - start)
        gen = stream(seed, chunk_idx)
        for lo in range(0, count, MC_DRAW):
            w = gen.standard_normal(out=bufs[j % 2][: min(MC_DRAW, count - lo)])
            w *= scale
            j += 1
            yield count, lo, w


def zeta_quartic_mc(
    rep: CliffordRep, component: str, s: complex, samples: int = 10**6, seed: int = 0
) -> ZetaEstimate:
    """Monte Carlo Gaussian zeta integral of |F|^s over one component.

    Importance sampling from the Gaussian itself: the estimate is the mean
    of |F(w)|^s over standard draws restricted to the component.  Chunk c
    always uses the stream keyed (seed, c), so totals do not depend on how
    chunks are scheduled.  One helper thread draws the next block of
    normals while this one evaluates the current block; each chunk is
    summed whole and the chunk totals in chunk order, as a sequential run.
    """
    if samples < 1:
        raise InvalidInputError("need at least one sample")
    s = complex(s)
    if s.real < 0:
        warnings.warn("Re(s) < 0: integrand unbounded near the zero set", RuntimeWarning)
    # imported here, not with the module: it loads logging, which adds set-up
    # time and memory to every command that never runs Monte Carlo
    from concurrent.futures import ThreadPoolExecutor

    total = 0.0 + 0.0j
    total_sq = 0.0
    rows = min(MC_DRAW, samples)
    blocks = _normal_blocks(seed, samples, (np.empty((rows, rep.m)), np.empty((rows, rep.m))))
    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(next, blocks, None)
        while (block := ahead.result()) is not None:
            ahead = helper.submit(next, blocks, None)
            count, lo, w = block
            if lo == 0:
                vals = np.zeros(count, dtype=complex)
            qvals = rep.forms(w.T)
            fvals = np.zeros(len(w))
            for e, v in zip(rep.eps, qvals):
                fvals += e * v * v
            mask = _component_mask(rep, qvals, fvals, component)
            nz = mask & (fvals != 0)
            vals[lo : lo + len(w)][nz] = np.exp(s * np.log(np.abs(fvals[nz])))
            if lo + len(w) == count:
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


def det_sv_identity_check(rep: CliffordRep, seed: int = 5) -> bool:
    """det S(v)^2 = P(v)^m, and det S(v) = +- P(v)^{m/2} for even m,
    exactly at integer points."""
    gen = stream(seed, 2)
    cols = np.broadcast_to(np.arange(rep.m), rep.perm.shape)
    for v in gen.integers(-5, 6, size=(DET_SV_POINTS, rep.n)):
        sv = np.zeros((rep.m, rep.m), dtype=np.int64)
        np.add.at(sv, (rep.perm, cols), v[:, None] * rep.sign)  # S(v) = sum_i v_i S_i
        pv = sum(e * int(c) ** 2 for e, c in zip(rep.eps, v))
        d = int_det(sv.tolist())
        if d * d != pv**rep.m:
            return False
        if rep.m % 2 == 0 and abs(d) != abs(pv ** (rep.m // 2)):
            return False
    return True
