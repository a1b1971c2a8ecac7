"""Arithmetic modulo one word-size prime, for the suite's polynomial identities.

A polynomial identity that is false fails at a point drawn uniformly from
F_P^n with probability at least 1 - d/P, d the degree of the difference
(Schwartz, J. ACM 27(4), 1980).  The one exception is a difference whose
every coefficient is divisible by P: it reduces to the zero polynomial and
passes at every point.

Everything here works on int64 arrays of residues in [0, P).  P < 2^26, so
a product of two residues is below 2^52 and a sum of up to 2^11 such
products still fits int64.
"""

from __future__ import annotations

import numpy as np

from .rng import stream

P = 67108777  # a prime below 2^26


def residue_points(seed: int, count: int, dim: int, index: int = 0) -> np.ndarray:
    """``count`` points uniform in F_P^dim, drawn from ``stream(seed, index)``
    as one (count, dim) block and returned as the columns of a contiguous
    (dim, count) int64 array."""
    return np.ascontiguousarray(stream(seed, index).integers(0, P, size=(count, dim)).T)


def power(x, e: int) -> np.ndarray:
    """x^e mod P for every entry of the int64 array ``x``; e >= 0, and 0^e = 0
    for e > 0, so x^(P - 2) inverts every nonzero residue."""
    x = np.asarray(x, dtype=np.int64)
    return np.array([pow(v, e, P) for v in (x % P).ravel().tolist()], dtype=np.int64).reshape(x.shape)


def det(stack) -> np.ndarray:
    """Determinants mod P of a (B, k, k) stack of integer matrices.

    Fraction-free elimination with row pivoting.  Step j takes the first row
    of the remaining (k - j)-square block with a nonzero entry in its first
    column as the pivot row, and replaces every other row by piv_j * row -
    (its first entry) * pivot row.  That multiplies the determinant by
    piv_j^(k-1-j), so the product of the pivots is divided by
    D = prod_j piv_j^(k-1-j) = prod_{j < k-1} (piv_0 ... piv_j), with one
    inverse per matrix at the end.  A column without a pivot gives piv_j = 0,
    and with it the determinant 0.
    """
    a = np.array(stack, dtype=np.int64) % P
    count, k = a.shape[0], a.shape[-1]
    num = np.ones(count, dtype=np.int64)  # piv_0 ... piv_j
    scale = np.ones(count, dtype=np.int64)  # D
    swaps = np.zeros(count, dtype=np.int64)
    for j in range(k):
        if not a[:, 0, 0].all():
            first = (a[:, :, 0] != 0).argmax(axis=1)
            rows = np.flatnonzero(first)
            a[rows, 0], a[rows, first[rows]] = a[rows, first[rows]], a[rows, 0]
            swaps[rows] += 1
        piv = a[:, 0, 0]
        num = num * piv % P
        if j < k - 1:
            scale = scale * num % P
            a = (a[:, 1:, 1:] * piv[:, None, None] - a[:, 1:, :1] * a[:, :1, 1:]) % P
    return np.where(swaps % 2, -num, num) * power(scale, P - 2) % P


def quartic_values(rep, w, grad: bool = False):
    """F(w) mod P at every column of the (m, count) residue array ``w``, as a
    (count,) array; with ``grad`` also G = grad F / 4 mod P as an (m, count)
    array.  The same sums as ``quartic.quartic_values``.

    ``rep.forms`` computes S_i[w] in int64, since m P^2 < 2^63 for every
    m <= 2^11.  F and G are sums of n products of two numbers below P in
    absolute value, so each is reduced once, after its sum.
    """
    eps = np.array(rep.eps)[:, None]
    out = rep.forms(w, images=grad)
    vals = (out[0] if grad else out) % P
    f = (eps * vals * vals).sum(axis=0) % P
    if not grad:
        return f
    return f, ((eps * vals)[:, None] * out[1]).sum(axis=0) % P


def table_values(coeffs: dict, w) -> np.ndarray:
    """sum c w_i w_j w_k w_l mod P over a {(i, j, k, l): c} coefficient table,
    at every column of the (m, count) residue array ``w``, with the table
    taken as one (K, 4) index array."""
    keys = np.array(list(coeffs), dtype=np.intp).reshape(-1, 4)
    terms = np.array(list(coeffs.values()), dtype=np.int64)[:, None] % P
    for idx in keys.T:
        terms = terms * w[idx] % P
    return terms.sum(axis=0) % P
