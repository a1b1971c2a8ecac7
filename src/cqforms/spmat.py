"""Exact linear algebra over signed permutation matrices and small rationals.

Everything downstream (representation construction, quartic form expansion,
nullspace dimensions) relies on the basis matrices being *signed
permutations*: integer matrices with entries in {-1, 0, 1} and exactly one
nonzero per row and column.  Products, Kronecker products, eigenspace
restrictions and orbit decompositions of such matrices stay exact, which is
what makes the whole pipeline certifiable without floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# 2x2 building blocks for Kronecker-product generator families.
#   Z, X are symmetric involutions, T is skew with T^2 = -1.
BLOCKS = {
    "1": np.array([[1, 0], [0, 1]], dtype=np.int64),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "T": np.array([[0, -1], [1, 0]], dtype=np.int64),
}


def kron_word(word: str) -> np.ndarray:
    """Kronecker product of 2x2 blocks named by the letters of ``word``."""
    out = np.array([[1]], dtype=np.int64)
    for ch in word:
        out = np.kron(out, BLOCKS[ch])
    return out


def is_signed_permutation(mat: np.ndarray) -> bool:
    """Is ``mat``, or every matrix of a stack of shape (..., m, m), a signed
    permutation?"""
    a = np.asarray(mat)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        return False
    absa = np.abs(a)
    return (
        bool(np.all((a == 0) | (a == 1) | (a == -1)))
        and bool(np.all(absa.sum(axis=-2) == 1))
        and bool(np.all(absa.sum(axis=-1) == 1))
    )


def perm_sign_of(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a signed permutation ``S`` as ``S e_a = sign[a] e_perm[a]``.

    A stack of shape (..., m, m) gives ``perm`` and ``sign`` of shape (..., m).
    """
    a = np.asarray(mat, dtype=np.int64)
    if not is_signed_permutation(a):
        raise ValueError("matrix is not a signed permutation")
    perm = np.abs(a).argmax(axis=-2)
    sign = np.take_along_axis(a, perm[..., None, :], axis=-2)[..., 0, :]
    return perm, sign


def sp_det(mat: np.ndarray) -> int:
    """Determinant of a signed permutation matrix (always +1 or -1)."""
    perm, sign = perm_sign_of(mat)
    n = len(perm)
    seen = np.zeros(n, dtype=bool)
    parity = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity * int(np.prod(sign))


def int_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def symmetric_signature(mat: Iterable[Iterable]) -> tuple[int, int]:
    """Signature (n_plus, n_minus) of a rational symmetric matrix.

    Exact symmetric Gaussian reduction with rational pivoting; handles the
    zero-diagonal case with the standard rank-two hyperbolic step.
    """
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    plus = minus = 0
    idx = list(range(n))
    while idx:
        # prefer a nonzero diagonal pivot
        piv = next((i for i in idx if a[i][i] != 0), None)
        if piv is not None:
            d = a[piv][piv]
            if d > 0:
                plus += 1
            else:
                minus += 1
            idx.remove(piv)
            for i in idx:
                if a[i][piv] == 0:
                    continue
                c = a[i][piv] / d
                for j in idx:
                    a[i][j] -= c * a[piv][j]
                a[i][piv] = Fraction(0)
            for j in idx:
                a[piv][j] = Fraction(0)
            continue
        # all remaining diagonal entries are zero
        off = None
        for i in idx:
            for j in idx:
                if i != j and a[i][j] != 0:
                    off = (i, j)
                    break
            if off:
                break
        if off is None:
            break  # remaining block is zero
        i, j = off
        # x_i x_j hyperbolic plane contributes one +1 and one -1
        plus += 1
        minus += 1
        b = a[i][j]
        idx.remove(i)
        idx.remove(j)
        for r in idx:
            ci, cj = a[r][i] / b, a[r][j] / b
            for s in idx:
                a[r][s] -= ci * a[j][s] + cj * a[i][s]
                # note a[i][i] = a[j][j] = 0, cross terms only
            a[r][i] = a[r][j] = Fraction(0)
    return plus, minus


def restrict_to_eigenspace(
    mats: Sequence[np.ndarray], z: np.ndarray, keep: int
) -> list[np.ndarray]:
    """Restrict signed permutation matrices to an eigenspace of ``z``.

    ``z`` must be a symmetric signed permutation involution commuting with
    every matrix in ``mats``.  Its +-1/-1 eigenspaces have an orthogonal basis
    of vectors supported on one fixed point or one 2-cycle of the underlying
    permutation, and every commuting signed permutation maps such basis
    vectors to signed basis vectors again, so the restriction is exact.
    """
    perm, sign = perm_sign_of(z)
    m = len(perm)
    if not np.array_equal(z, z.T):
        raise ValueError("z must be symmetric")
    basis = []  # unnormalized integer eigenvectors, as (indices, coeffs)
    for a in range(m):
        b = int(perm[a])
        if b == a:
            if int(sign[a]) == keep:
                basis.append(((a,), (1,)))
        elif a < b:
            s = int(sign[a])
            # z e_a = s e_b, z e_b = s e_a; eigenvector e_a + keep*s*e_b
            basis.append(((a, b), (1, keep * s)))
    support = {v[0][0]: i for i, v in enumerate(basis)}
    out = []
    for s_mat in mats:
        sperm, ssign = perm_sign_of(s_mat)
        dim = len(basis)
        r = np.zeros((dim, dim), dtype=np.int64)
        for col, (idxs, coefs) in enumerate(basis):
            # image vector S u = sum coefs * sign * e_{perm}
            img = {int(sperm[i]): c * int(ssign[i]) for i, c in zip(idxs, coefs)}
            lead = min(img)
            row = support.get(lead)
            if row is None:
                raise ValueError("matrix does not preserve the eigenspace")
            ridxs, rcoefs = basis[row]
            ref = dict(zip(ridxs, rcoefs))
            ratio = img[lead] // ref[lead]
            if {k: v * ratio for k, v in ref.items()} != img:
                raise ValueError("matrix does not preserve the eigenspace")
            r[row, col] = ratio
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# Orbit decomposition under commuting signed-permutation involutions.
#
# A family of commuting involutions g_1, ..., g_r acting on basis indices by
# signed permutations splits R^N into joint sign-eigenspaces ("sectors").
# Each orbit of the underlying index action carries at most |orbit| characters
# chi in {+1,-1}^r, and the chi-eigenvector on an orbit has entries in
# {-1, 0, +1}.  This is used both to read off common fixed spaces exactly
# (Lie algebra h) and to split big sampled linear systems into small blocks
# (symmetry Lie algebra g, condition-sharp solver).
# ---------------------------------------------------------------------------


class SectorDecomposition:
    """Joint eigenspace data for commuting signed-permutation involutions.

    Parameters
    ----------
    perms, signs:
        Arrays of shape (r, N).  Generator ``j`` maps basis vector ``e_u`` to
        ``signs[j, u] * e_{perms[j, u]}``.
    """

    def __init__(self, perms: np.ndarray, signs: np.ndarray):
        perms = np.asarray(perms, dtype=np.int64)
        signs = np.asarray(signs, dtype=np.int64)
        self.r, self.n = perms.shape
        for j in range(self.r):
            p, s = perms[j], signs[j]
            if not np.array_equal(p[p], np.arange(self.n)):
                raise ValueError(f"generator {j} is not an involution")
            if not np.all(s[p] * s == 1):
                raise ValueError(f"generator {j} does not square to +1")
        self.perms = perms
        self.signs = signs
        self._orbits = self._compute_orbits()

    def _compute_orbits(self):
        """BFS each orbit, recording coset words and stabilizer relations."""
        n, r = self.n, self.r
        seen = np.zeros(n, dtype=bool)
        orbits = []
        for start in range(n):
            if seen[start]:
                continue
            word = {start: (0, 1)}  # index -> (group word bitmask, sign)
            stab = []  # (bitmask, sign) relations fixing the base point
            queue = [start]
            seen[start] = True
            while queue:
                u = queue.pop()
                wu, su = word[u]
                for j in range(r):
                    v = int(self.perms[j, u])
                    sv = su * int(self.signs[j, u])
                    wv = wu ^ (1 << j)
                    if v in word:
                        w0, s0 = word[v]
                        stab.append((wv ^ w0, sv * s0))
                    else:
                        word[v] = (wv, sv)
                        seen[v] = True
                        queue.append(v)
            orbits.append((word, stab))
        return orbits

    def fixed_space(self) -> list[dict[int, int]]:
        """Basis of the common +1 eigenspace, one sign vector per good orbit."""
        out = []
        for word, stab in self._orbits:
            if all(s == 1 for _, s in stab):
                out.append({u: s for u, (w, s) in word.items()})
        return out

    def sectors(self) -> dict[int, list[tuple[np.ndarray, np.ndarray]]]:
        """All joint sign sectors, keyed by character bitmask.

        Character bit ``j`` set means generator ``j`` acts by -1 on the
        sector.  Each orbit compatible with a character contributes one
        basis column, given as (indices, +-1 coefficients); the number of
        characters an orbit admits equals the orbit length, so columns over
        all sectors sum to the total dimension.
        """
        sector_cols: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        total = 0
        for word, stab in self._orbits:
            # Solve chi . mask = b over F2.  pivots[bit] = (mask, b) with
            # `bit` the lowest set bit of mask and masks fully reduced.
            pivots: dict[int, tuple[int, int]] = {}
            for mask, s in stab:
                b = 0 if s == 1 else 1
                m = mask
                for bit, (pm, pb) in pivots.items():
                    if m >> bit & 1:
                        m ^= pm
                        b ^= pb
                if m == 0:
                    if b != 0:
                        raise AssertionError("inconsistent orbit sign relations")
                    continue
                low = (m & -m).bit_length() - 1
                for bit in list(pivots):
                    pm, pb = pivots[bit]
                    if pm >> low & 1:
                        pivots[bit] = (pm ^ m, pb ^ b)
                pivots[low] = (m, b)
            free = [j for j in range(self.r) if j not in pivots]
            items = list(word.items())
            umask = np.array([u for u, _ in items], dtype=np.int64)
            wmask = np.array([w for _, (w, _) in items], dtype=np.int64)
            wsign = np.array([s for _, (_, s) in items], dtype=np.int64)
            for t in range(1 << len(free)):
                chi = 0
                for k, j in enumerate(free):
                    if t >> k & 1:
                        chi |= 1 << j
                for bit, (pm, pb) in pivots.items():
                    val = pb ^ _parity(pm & ~(1 << bit) & chi)
                    if val:
                        chi |= 1 << bit
                coefs = wsign * (1 - 2 * _parity_vec(wmask & chi))
                sector_cols.setdefault(chi, []).append((umask, coefs))
                total += 1
        if total != self.n:
            raise AssertionError("sector dimensions do not sum to the space")
        return sector_cols


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _parity_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    x = x.copy()
    while np.any(x):
        out ^= x & 1
        x >>= 1
    return out


def rational_nullspace(rows: Sequence[Sequence], ncols: int):
    """Exact nullspace basis of a rational matrix via Gaussian elimination.

    Returns a list of Fraction column vectors spanning the kernel.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    pivots = {}
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        d = a[rank][col]
        a[rank] = [x / d for x in a[rank]]
        for i in range(nrows):
            if i != rank and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rank])]
        pivots[col] = rank
        rank += 1
        if rank == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for col, r in pivots.items():
            v[col] = -a[r][f]
        basis.append(v)
    return basis
