"""Exact arithmetic with the degree-4 invariant of a Clifford module.

The quartic attached to basis matrices S_1, ..., S_{p+q} is

    F(w) = sum_{i<=p} S_i[w]^2 - sum_{i>p} S_i[w]^2,      S[w] = w^T S w.

Everything here is exact: coefficients are Python integers keyed by sorted
index 4-tuples, values and gradients on integer points are computed in int64
only under a bound that rules out overflow and as Python integers beyond it,
and square detection produces a verified rational witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .repkit import CliffordRep, InvalidInputError, irrep_catalog
from .rng import integer_points
from .spmat import perm_sign_of, sp_eye, sp_kron

# degeneracy table: the quartic vanishes identically exactly at these
# (p, q, m) triples (up to p <-> q) and for split-signature rank-2 modules
# whose two generators act by the same matrix up to sign ("pure").
DEGENERATE_TRIPLES = {
    (2, 1, 2),
    (3, 1, 4),
    (5, 1, 8),
    (9, 1, 16),
    (2, 2, 4),
    (3, 3, 8),
    (5, 5, 16),
}

# quartics that are squares of quadratic forms, by (p, q, m); (1, 0, m) for
# every m is handled separately.
SQUARE_TRIPLES = {
    (2, 0, 2),
    (1, 1, 2),
    (3, 0, 4),
    (2, 1, 4),
    (5, 0, 8),
    (4, 1, 8),
    (3, 2, 8),
    (9, 0, 16),
    (8, 1, 16),
    (5, 4, 16),
}


def quad_form_terms(s: list[list]) -> dict[tuple[int, int], object]:
    """w^T S w as {(a, b): coeff}, a <= b (off-diagonal doubled); s[a][b] int or Fraction."""
    terms: dict[tuple[int, int], object] = {}
    m = len(s)
    for a in range(m):
        for b in range(a, m):
            c = s[a][b]
            if c:
                terms[(a, b)] = c if a == b else 2 * c
    return terms


def _column(rep: CliffordRep, w) -> np.ndarray:
    """One point as an (m, 1) object array, keeping Python ints and Fractions."""
    w = list(w)
    if len(w) != rep.m:
        raise InvalidInputError(f"w must have length {rep.m}")
    col = np.empty((rep.m, 1), dtype=object)
    col[:, 0] = w
    return col


@dataclass
class QuarticForm:
    """Sparse exact coefficient table of the module quartic."""

    rep: CliffordRep
    coeffs: dict[tuple[int, int, int, int], int]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, w) -> int:
        """Evaluate from the coefficient table (exact for integer w)."""
        w = list(w)
        if len(w) != self.rep.m:
            raise InvalidInputError(f"w must have length {self.rep.m}")
        return sum(c * w[i] * w[j] * w[k] * w[l] for (i, j, k, l), c in self.coeffs.items())

    def to_csv(self) -> str:
        lines = ["i,j,k,l,coefficient"]
        for key in sorted(self.coeffs):
            lines.append(",".join(map(str, key)) + f",{self.coeffs[key]}")
        return "\n".join(lines) + "\n"


def expand_coeffs(rep: CliffordRep) -> QuarticForm:
    """Exact expansion of sum_i eps_i S_i[w]^2 into monomials, with the
    terms of S_i[w] = sum_a sign[i, a] w_a w_{perm[i, a]} keyed a <= b."""
    coeffs: dict[tuple[int, int, int, int], int] = {}
    for eps, perm, sign in zip(rep.eps, rep.perm.tolist(), rep.sign.tolist()):
        pairs: dict[tuple[int, int], int] = {}
        for a, (b, c) in enumerate(zip(perm, sign)):
            key = (min(a, b), max(a, b))
            pairs[key] = pairs.get(key, 0) + c
        terms = [(key, c) for key, c in pairs.items() if c]
        for t1, ((a, b), c1) in enumerate(terms):
            for (cc, dd), c2 in terms[t1:]:
                key = tuple(sorted((a, b, cc, dd)))
                val = eps * c1 * c2 * (1 if (a, b) == (cc, dd) else 2)
                coeffs[key] = coeffs.get(key, 0) + val
    return QuarticForm(rep, {k: v for k, v in coeffs.items() if v})


def quartic_values(rep: CliffordRep, w, grad: bool = False):
    """F(w) = sum_i eps_i S_i[w]^2 at every column of the coordinate-major
    (m, count) array ``w``, as a (count,) array; with ``grad`` also the
    (m, count) array G = sum_i eps_i S_i[w] (S_i w), which is grad F / 4.

    Integer input is evaluated in int64 only when n (m max|w|^2)^2 < 2^63,
    which bounds every |F| and every |G|; beyond it, and for object input
    (Python ints or Fractions), the values are exact Python numbers.  Float
    input is evaluated in float64, as by ``forms``.
    """
    w = np.asarray(w)
    if w.dtype.kind in "iu":
        big = int(np.abs(w).max(initial=0))
        w = w.astype(np.int64 if rep.n * (rep.m * big * big) ** 2 < 2**63 else object, copy=False)
    eps = np.array(rep.eps)[:, None]
    if not grad:
        vals = rep.forms(w)
        return (eps * vals * vals).sum(axis=0)
    vals, images = rep.forms(w, images=True)
    coef = eps * vals
    return (coef * vals).sum(axis=0), (coef[:, None] * images).sum(axis=0)


def eval_quartic(rep: CliffordRep, w):
    """F(w) at one integral or rational point."""
    return quartic_values(rep, _column(rep, w))[0]


def grad_quartic(rep: CliffordRep, w) -> list:
    """grad F(w) = 4 sum_i eps_i S_i[w] (S_i w) at one integral or rational point."""
    return (4 * quartic_values(rep, _column(rep, w), grad=True)[1][:, 0]).tolist()


def expected_degenerate(p: int, q: int, mults) -> bool:
    cat = irrep_catalog(p, q)
    m = sum(mults) * cat.dim
    key = (p, q, m) if p >= q else (q, p, m)
    if key in DEGENERATE_TRIPLES:
        return True
    if {p, q} == {1, 1}:
        return is_pure(p, q, mults)
    return False


def is_pure(p: int, q: int, mults) -> bool:
    """Restriction to the even subalgebra is isotypic."""
    cat = irrep_catalog(p, q)
    used = {cat.halfspin[i] for i, k in enumerate(mults) if k}
    if cat.even_classes == 1:
        return True
    if cat.count == 1:
        # single class restricting to both even classes
        return False
    return len(used) <= 1


@dataclass
class QuadraticSquareWitness:
    """c and symmetric rational M with c * (w^T M w)^2 equal to the quartic."""

    c: Fraction
    mat: list[list[Fraction]]


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(sorted(ka + kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def square_detect(form: QuarticForm):
    """Try to write the quartic as c * q(w)^2 with q a rational quadratic.

    Greedy graded-lex square root: normalize the leading coefficient to 1,
    peel off terms of q in term order, then verify the square exactly.
    Returns a QuadraticSquareWitness or None.
    """
    if form.is_zero:
        raise InvalidInputError("square detection needs a nonzero quartic")
    target = {k: Fraction(v) for k, v in form.coeffs.items()}
    lead_key = min(target)  # lex-min sorted 4-tuple = graded-lex leading term
    i, j, k, l = lead_key
    if i != j or k != l:
        return None  # leading monomial x_i x_j x_k x_l is not a pair squared
    lead_pair = (i, k)
    c = target[lead_key]
    scaled = {key: v / c for key, v in target.items()}
    # build q term by term: q = x_i x_k + later terms (in pair order)
    q: dict[tuple[int, int], Fraction] = {lead_pair: Fraction(1)}
    guard = form.rep.m * (form.rep.m + 1) // 2 + 1
    for _ in range(guard):
        qq = _poly_mul(q, q)
        diff = {key: scaled.get(key, 0) - qq.get(key, 0) for key in set(scaled) | set(qq)}
        diff = {key: v for key, v in diff.items() if v}
        if not diff:
            break
        dkey = min(diff)
        # next term t of q satisfies 2 * lead(q) * t = leading diff term,
        # so the pair of t is dkey with the lead pair removed as a multiset
        rest = list(dkey)
        for idx in lead_pair:
            if idx not in rest:
                return None
            rest.remove(idx)
        pair = (rest[0], rest[1])
        if pair in q or pair <= lead_pair:
            return None
        q[pair] = diff[dkey] / 2
    else:
        return None
    mat = [[Fraction(0)] * form.rep.m for _ in range(form.rep.m)]
    for (a, b), v in q.items():
        if a == b:
            mat[a][a] = v
        else:
            mat[a][b] = mat[b][a] = v / 2
    return QuadraticSquareWitness(c, mat)


def homaloidal_check(rep: CliffordRep, trials: int, seed: int) -> bool:
    """Probabilistic exact check of F(grad F(w)) = 256 F(w)^3.

    Degree-12 polynomial identity tested at ``trials`` integer points drawn
    from [-9, 9]^m.  F has degree 4, so with G = grad F / 4 it reads
    F(G(w)) = F(w)^3, checked for all points in one exact evaluation: any
    failure is a real counterexample.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    f, g = quartic_values(rep, integer_points(seed, trials, rep.m), grad=True)
    return bool(np.all(quartic_values(rep, g) == f.astype(object) ** 3))


def pfaffian4(a) -> Fraction:
    """Pfaffian of a 4x4 antisymmetric matrix."""
    m = [[Fraction(x) for x in row] for row in a]
    if len(m) != 4 or any(len(r) != 4 for r in m):
        raise InvalidInputError("pfaffian4 expects a 4x4 matrix")
    for i in range(4):
        for j in range(4):
            if m[i][j] != -m[j][i]:
                raise InvalidInputError("matrix is not antisymmetric")
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


# ---------------------------------------------------------------------------
# The split (3, 2) module on R^{8k} and its classical-invariant expression.
# ---------------------------------------------------------------------------

_J = np.array([[0, -1], [1, 0]], dtype=np.int64)
_H = np.array([[-1, 0], [0, 1]], dtype=np.int64)
_K = np.array([[0, 1], [1, 0]], dtype=np.int64)
_I2 = np.eye(2, dtype=np.int64)
_O2 = np.zeros((2, 2), dtype=np.int64)


def _blocks(rows):
    return np.block([[np.asarray(b) for b in row] for row in rows])


CHECK32_POINTS = 30  # random points of check_32_identity, besides w = 0


def split32_basis() -> list[np.ndarray]:
    """The five 8x8 basis matrices of the irreducible (3, 2) module."""
    s1 = _blocks([[_O2, _O2, _O2, _I2], [_O2, _O2, -_I2, _O2], [_O2, -_I2, _O2, _O2], [_I2, _O2, _O2, _O2]])
    s2 = _blocks([[_O2, _O2, _J, _O2], [_O2, _O2, _O2, -_J], [-_J, _O2, _O2, _O2], [_O2, _J, _O2, _O2]])
    s3 = _blocks([[_O2, _O2, _O2, _J], [_O2, _O2, _J, _O2], [_O2, -_J, _O2, _O2], [-_J, _O2, _O2, _O2]])
    s4 = _blocks([[_O2, _O2, _O2, _H], [_O2, _O2, -_H, _O2], [_O2, -_H, _O2, _O2], [_H, _O2, _O2, _O2]])
    s5 = _blocks([[_O2, _O2, _O2, _K], [_O2, _O2, -_K, _O2], [_O2, -_K, _O2, _O2], [_K, _O2, _O2, _O2]])
    return [s1, s2, s3, s4, s5]


def check_32_identity(k: int, seed: int = 2024) -> bool:
    """Verify F = -16 Pf(w J_k w^T) + tr(J_2 w J_k w^T)^2 on M(4, 2k).

    The module is k copies of the irreducible (3, 2) module, the vector
    (u_1, v_1, ..., u_k, v_k) is reshaped to the 4 x 2k matrix with columns
    u_1, v_1, ..., and both sides are evaluated exactly at CHECK32_POINTS
    random integer points and at w = 0 (a degree-4 identity, so 30 points
    give overwhelming evidence).
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    perm, sign = sp_kron(sp_eye(k), perm_sign_of(np.stack(split32_basis())))
    rep = CliffordRep.from_perm_sign(3, 2, (k,), perm, sign)
    jk = np.kron(np.eye(k, dtype=np.int64), _J)
    j2 = np.kron(_I2, _J)
    zero = np.zeros((rep.m, 1), dtype=np.int64)
    pts = np.concatenate([integer_points(seed, CHECK32_POINTS, rep.m), zero], axis=1)
    # coordinate 8c + 4h + r of w is entry (r, 2c + h) of the 4 x 2k matrix W
    wmat = pts.T.reshape(-1, k, 2, 4).transpose(0, 3, 1, 2).reshape(-1, 4, 2 * k).astype(object)
    amat = wmat @ jk @ wmat.transpose(0, 2, 1)  # A = W J_k W^T, antisymmetric 4 x 4
    tr = (j2.T * amat).sum(axis=(1, 2))  # tr(J_2 A)
    pf = [pfaffian4(a) for a in amat.tolist()]
    return all(f == -16 * p + t * t for f, p, t in zip(quartic_values(rep, pts).tolist(), pf, tr))
