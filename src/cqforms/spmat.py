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

# entries per slice of the whole-array sector steps: the characters' +-1
# coefficients here, the stacked sector SVDs in symlie
SECTOR_BLOCK = 1 << 15

# 2x2 building blocks for Kronecker-product generator families, as the
# (perm, sign) arrays of S e_a = sign[a] e_perm[a] (see perm_sign_of).
#   Z, X are symmetric involutions, T is skew with T^2 = -1.
BLOCKS = {
    "1": (np.array([0, 1]), np.array([1, 1])),
    "Z": (np.array([0, 1]), np.array([1, -1])),
    "X": (np.array([1, 0]), np.array([1, 1])),
    "T": (np.array([1, 0]), np.array([1, -1])),
}


def sp_eye(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d x d identity as (perm, sign)."""
    return np.arange(d), np.ones(d, dtype=np.int64)


def sp_kron(a, b) -> tuple[np.ndarray, np.ndarray]:
    """A (x) B of two (perm, sign) pairs, a (..., dA) and a (..., dB) stack
    broadcasting to (..., dA dB): (A (x) B)(e_a (x) e_b) = sA[a] sB[b] e_pA[a] (x) e_pB[b]."""
    (pa, sa), (pb, sb) = (map(np.asarray, x) for x in (a, b))
    perm = pa[..., :, None] * pb.shape[-1] + pb[..., None, :]
    sign = sa[..., :, None] * sb[..., None, :]
    shape = perm.shape[:-2] + (perm.shape[-2] * perm.shape[-1],)
    return perm.reshape(shape), sign.reshape(shape)


def sp_mul(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The product AB of two (perm, sign) pairs, stacks broadcasting:
    AB e_a = sB[a] sA[pB[a]] e_pA[pB[a]]."""
    pa, sa, pb, sb = np.broadcast_arrays(*a, *b)
    return np.take_along_axis(pa, pb, -1), sb * np.take_along_axis(sa, pb, -1)


def kron_word(word: str) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker product of 2x2 blocks named by the letters of ``word``."""
    out = sp_eye(1)
    for ch in word:
        out = sp_kron(out, BLOCKS[ch])
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


def signed_permutation_matrix(perm: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The dense int64 matrices of ``perm_sign_of``'s arrays: (..., m) gives (..., m, m)."""
    perm, sign = np.asarray(perm), np.asarray(sign)
    out = np.zeros(perm.shape + perm.shape[-1:], dtype=np.int64)
    np.put_along_axis(out, perm[..., None, :], sign[..., None, :], axis=-2)
    return out


def sp_det(perm: np.ndarray, sign: np.ndarray) -> int:
    """Determinant of the signed permutation S e_a = sign[a] e_perm[a] (always +1 or -1)."""
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


def restrict_to_eigenspace(mats, z, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Restrict the (perm, sign) stack ``mats`` of shape (k, m) to the
    ``keep`` eigenspace of the symmetric signed-permutation involution ``z``,
    which must commute with every matrix of the stack.

    The eigenspace has the orthogonal basis e_a + keep zsign[a] e_zperm[a]
    over the leads a: zperm[a] > a, or zperm[a] = a with zsign[a] = keep.
    S maps the vector led by a to +-1 times the one led by min(t, zperm[t]),
    t = perm[a], so the restriction is a (k, dim) stack over the leads.
    """
    (perm, sign), (zperm, zsign) = mats, z
    idx = np.arange(len(zperm))
    # a signed permutation is symmetric exactly when it is an involution
    if not (np.array_equal(zperm[zperm], idx) and np.all(zsign[zperm] * zsign == 1)):
        raise ValueError("z must be a symmetric involution")
    if not all(map(np.array_equal, sp_mul(z, mats), sp_mul(mats, z))):
        raise ValueError("matrix does not commute with z")
    lead = (idx < zperm) | ((idx == zperm) & (zsign == keep))
    row = np.cumsum(lead) - 1
    entry = np.where(idx <= zperm, 1, keep * zsign)  # at t, of the basis vector through t
    t = perm[:, lead]
    return row[np.minimum(t, zperm[t])], sign[:, lead] * entry[t]


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
        self._compute_orbits()

    def _compute_orbits(self):
        """Orbits, coset words and stabilizer relations as whole arrays.

        With g_w the product of the generators whose bits are set in w, every
        index u ends with ``g_word[u] e_base[u] = sign[u] e_u`` and ``base[u]``
        the least index of its orbit.  Pass j extends this from the group of
        generators 0..j-1 to generator j: as the generators commute, the orbit
        of u grows by the orbit of ``perms[j, u]``, whose least index is
        already known.
        """
        n, r = self.n, self.r
        base = np.arange(n)
        word = np.zeros(n, dtype=np.int64)
        sign = np.ones(n, dtype=np.int64)
        for j in range(r):
            p = self.perms[j]
            move = base[p] < base
            v = p[move]  # v itself does not move: base[perms[j, v]] > base[v]
            base[move] = base[v]
            word[move] = word[v] ^ (1 << j)
            sign[move] = sign[v] * self.signs[j, v]
        # orbits in order of their least index, each an ascending index array
        order = np.argsort(base, kind="stable")
        step = np.r_[False, np.diff(base[order]) != 0]
        orbit = np.empty(n, dtype=np.int64)
        orbit[order] = np.cumsum(step)
        self.orbits = np.split(order, np.flatnonzero(step))
        self.word, self.sign = word, sign
        # g_j e_u = signs[j, u] e_v gives the relation g_{word[u]^word[v]^(1<<j)}
        # e_base = sign[u] signs[j, u] sign[v] e_base, packed as
        # mask << 1 | (sign < 0) below the orbit number and deduplicated
        v = self.perms
        mask = word ^ word[v] ^ (np.int64(1) << np.arange(r, dtype=np.int64))[:, None]
        key = np.unique((orbit << (r + 1)) | (mask << 1) | (sign * self.signs * sign[v] < 0))
        rel = key & ((1 << (r + 1)) - 1)
        keep = rel != 0  # 0 = 0 relations say nothing
        # orbit o is fixed by the sorted packed relations rel[cut[o]:cut[o + 1]]
        self.rel = rel[keep]
        self.cut = np.searchsorted(key[keep] >> (r + 1), np.arange(len(self.orbits) + 1))

    def fixed_space(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Basis of the common +1 eigenspace, one (indices, signs) vector per
        orbit all of whose stabilizer relations carry the sign +1."""
        signed = np.zeros(len(self.orbits), dtype=bool)
        signed[np.searchsorted(self.cut, np.flatnonzero(self.rel & 1), side="right") - 1] = True
        return [(idxs, self.sign[idxs]) for idxs, odd in zip(self.orbits, signed) if not odd]

    def sectors(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """All joint sign sectors, as one block ``(idxs, chi, coefs)`` per orbit.

        ``idxs`` is the orbit's ascending index array; the orbit admits one
        character per index, ``chi[k]`` (bit ``j`` set means generator ``j``
        acts by -1), and row ``k`` of the int64 matrix ``coefs`` holds the +-1
        entries of its ``chi[k]`` eigenvector on ``idxs``.  Orbits come in
        order of their least index and the characters of an orbit in
        ascending order, so a sector's columns are its orbits in order.

        The orbits of one length are solved together: every one of the 2^r
        characters is tested against each distinct padded relation set, and
        the coefficients are built ``SECTOR_BLOCK`` entries at a time.
        """
        # par[x] is the parity of the bitmask x, for every x < 2^r
        par = np.zeros(1, dtype=np.int64)
        for _ in range(self.r):
            par = np.concatenate([par, par ^ 1])
        lengths = np.array([len(idxs) for idxs in self.orbits])
        order = np.concatenate(self.orbits)
        start = np.cumsum(lengths) - lengths
        counts = np.diff(self.cut)
        blocks = [None] * len(self.orbits)
        for length in np.unique(lengths).tolist():
            group = np.flatnonzero(lengths == length)
            slot = np.arange(counts[group].max())
            held = slot < counts[group, None]
            rels = np.zeros(held.shape, dtype=np.int64)  # padded with 0 = 0
            rels[held] = self.rel[(self.cut[group, None] + slot)[held]]
            sets, which = np.unique(rels, axis=0, return_inverse=True)
            chi = _admitted_characters(sets, length, par)[which.reshape(-1)]
            step = max(1, SECTOR_BLOCK // (length * length))
            for b in range(0, len(group), step):
                part = group[b : b + step]
                at = order[start[part, None, None] + np.arange(length)]
                coefs = self.sign[at] * (1 - 2 * par[self.word[at] & chi[b : b + step, :, None]])
                # each block owns its arrays, so no slice outlives its step
                for o, c, k in zip(part.tolist(), chi[b : b + step], coefs):
                    blocks[o] = (self.orbits[o], c.copy(), k.copy())
        return blocks


def _admitted_characters(sets: np.ndarray, length: int, par: np.ndarray) -> np.ndarray:
    """Row k: the ``length`` characters chi < 2^r with chi . mask = (sign < 0)
    over F2 for every packed relation ``mask << 1 | (sign < 0)`` of
    ``sets[k]``, a row padded with zeros; ``par`` is the parity table.

    Every character is tested against every relation.  The admitted ones
    come in ascending order, which is the order of their free bits counted
    up: eliminating the relations with pivots on lowest set bits leaves a
    free bit as the highest set bit of every difference of two of them.
    """
    every = np.arange(len(par), dtype=np.int64)
    admit = np.ones((len(sets), len(every)), dtype=bool)
    for rel in sets.T:
        admit &= par[every & (rel[:, None] >> 1)] == (rel[:, None] & 1)
    if np.any(admit.sum(axis=1) != length):
        raise AssertionError("orbit characters do not match the orbit length")
    return every[np.nonzero(admit)[1]].reshape(len(sets), length)

