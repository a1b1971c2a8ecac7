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

from . import modp
from .repkit import MAX_DIM, CliffordRep, InvalidInputError, require_dim
from .rng import integer_points
from .spmat import kron_word, sp_eye, sp_kron


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


@dataclass
class QuadraticSquareWitness:
    """c and symmetric rational M with c * (w^T M w)^2 equal to the quartic."""

    c: Fraction
    mat: list[list[Fraction]]


def poly_mul(a: dict, b: dict) -> dict:
    """Product of two polynomials given as {sorted index tuple: coefficient}."""
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

    The remainder ``diff`` = quartic / c - q^2 is kept up to date: a term
    t P joining q subtracts 2 t P q + t^2 P^2, and its least monomial comes
    from a heap of every monomial that has been nonzero, stale ones dropped
    when they reach the top.
    """
    # imported here, not with the module, to keep it out of every start-up
    import heapq

    if form.is_zero:
        raise InvalidInputError("square detection needs a nonzero quartic")
    target = {k: Fraction(v) for k, v in form.coeffs.items()}
    lead_key = min(target)  # lex-min sorted 4-tuple = graded-lex leading term
    i, j, k, l = lead_key
    if i != j or k != l:
        return None  # leading monomial x_i x_j x_k x_l is not a pair squared
    lead_pair = (i, k)
    c = target[lead_key]
    diff = {key: v / c for key, v in target.items() if key != lead_key}
    heap = list(diff)
    heapq.heapify(heap)
    # build q term by term: q = x_i x_k + later terms (in pair order)
    q: dict[tuple[int, int], Fraction] = {lead_pair: Fraction(1)}
    guard = form.rep.m * (form.rep.m + 1) // 2 + 1
    for _ in range(guard):
        while heap and heap[0] not in diff:
            heapq.heappop(heap)
        if not heap:
            break
        dkey = heap[0]
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
        t = diff[dkey] / 2
        for other, v in [(pair, t / 2), *q.items()]:
            key = tuple(sorted(pair + other))
            left = diff.get(key, 0) - 2 * t * v
            if left:
                if key not in diff:
                    heapq.heappush(heap, key)
                diff[key] = left
            else:
                diff.pop(key, None)
        q[pair] = t
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

    F has degree 4, so with G = grad F / 4 it reads F(G(w)) = F(w)^3, a
    degree-12 identity.  It is tested mod ``modp.P`` at ``trials`` points
    drawn uniformly mod P, all in one evaluation: each point misses a false
    identity with probability at most 12/P, unless P divides every
    coefficient of the difference, and any failure is a real counterexample.
    The (m, trials) block of points is refused above MAX_DIM^2 residues, the
    entry count of the largest dense module, before it is drawn.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if trials * rep.m > MAX_DIM**2:
        raise InvalidInputError(f"{trials} trials at m = {rep.m} exceed {MAX_DIM**2} residues")
    f, g = modp.quartic_values(rep, modp.residue_points(seed, trials, rep.m), grad=True)
    return bool(np.all(modp.quartic_values(rep, g) == f * f % modp.P * f % modp.P))


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
_I2 = np.eye(2, dtype=np.int64)

CHECK32_POINTS = 30  # random points of check_32_identity, besides w = 0


def split32_basis() -> tuple[np.ndarray, np.ndarray]:
    """The five basis matrices of the irreducible (3, 2) module on R^8 as
    the (5, 8) ``(perm, sign)`` stack of the signed Kronecker words TT1,
    -TZT, -TXT, -TTZ and TTX."""
    perms, signs = zip(*(kron_word(w) for w in ("TT1", "TZT", "TXT", "TTZ", "TTX")))
    return np.stack(perms), np.array([1, -1, -1, -1, 1])[:, None] * np.stack(signs)


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
    require_dim(8 * k)
    perm, sign = sp_kron(sp_eye(k), split32_basis())
    rep = CliffordRep(3, 2, (k,), perm, sign)
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
