"""Symmetry Lie algebras of the module quartic, computed as nullspaces.

Two Lie algebras are attached to a module with basis matrices S_i:

* ``h``: matrices X with X^T S_i + S_i X = 0 for every i (the intersection
  of the orthogonal Lie algebras of all the S_i), computed exactly;
* ``g``: the Lie algebra of the symmetry group of the quartic F, i.e. all X
  with sum_i eps_i S_i[w] (X^T S_i + S_i X)[w] = 0 identically in w,
  computed from sampled linear constraints.

Both computations exploit that conjugation by the S_j permutes basis
unknowns with signs: the unknown space splits into joint sign sectors of a
family of commuting signed-permutation involutions, the kernel splits along
the sectors, and each sector system is small.  The sampled dimensions are
probabilistic in the choice of points, so every run solves two independent
batches and insists they agree.  ``h_kernel``, ``g_kernel_dim`` and
``sharp_solution_dim`` refuse a module whose defining relations fail with an
``InvalidInputError`` that names the failed checks; all three read the
module's one relation report, ``rep.relations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spmat
from .quartic import DEGENERATE_TRIPLES, expected_degenerate, is_pure, quartic_values
from .repkit import CliffordRep, InvalidInputError, irrep_catalog, require_relations
from .rng import integer_points
from .spmat import SectorDecomposition


class UnstableDimensionError(RuntimeError):
    """Two sample batches produced different nullspace dimensions."""


FLOAT_RANK_TOL = 1e-8
_ROW_MARGIN = 64  # sampled rows per batch beyond the largest sector's columns
G_CONTAINS_TRIALS = 24  # sample points of g_contains, from stream (G_CONTAINS_SEED, 3)
G_CONTAINS_SEED = 11


@dataclass
class KernelReport:
    dimension: int
    basis: list[np.ndarray] | None  # None means dimension-only (g)
    method: str
    residual: float
    per_sector: dict[int, int] | None = None  # nullity by character bitmask (g only)


# ---------------------------------------------------------------------------
# h = {X : X^T S_i + S_i X = 0 for all i}
# ---------------------------------------------------------------------------


def _h_generators(rep: CliffordRep):
    """X -> -S_i X^T S_i as signed permutations of matrix-entry indices."""
    a_idx, b_idx = np.divmod(np.arange(rep.m * rep.m), rep.m)
    perms = rep.perm[:, b_idx] * rep.m + rep.perm[:, a_idx]
    signs = -rep.sign[:, a_idx] * rep.sign[:, b_idx]
    return perms, signs


def h_kernel(rep: CliffordRep) -> KernelReport:
    """Common solution space of the n orthogonality constraints.

    The constraints are decomposed into signed orbits of matrix entries; the
    basis consists of {-1, 0, 1} matrices and satisfies the constraints
    identically.
    """
    require_relations(rep)
    m = rep.m
    dec = SectorDecomposition(*_h_generators(rep))
    # exactness guarantee, for all i at once: row r of S_i X is
    # sign[i, inv[i, r]] X[inv[i, r]] and column c of X^T S_i is sign[i, c] X[perm[i, c]]
    inv = np.argsort(rep.perm, axis=1)
    sign_inv = np.take_along_axis(rep.sign, inv, 1)[:, :, None]
    basis = []
    for idxs, signs in dec.fixed_space():
        x = np.zeros(m * m, dtype=np.int64)
        x[idxs] = signs
        x = x.reshape(m, m)
        if np.any(sign_inv * x[inv] + (rep.sign[:, :, None] * x[rep.perm]).transpose(0, 2, 1)):
            raise AssertionError("h basis element violates X^T S_i + S_i X = 0")
        basis.append(x)
    return KernelReport(len(basis), basis, "exact", 0.0)


# ---------------------------------------------------------------------------
# g = Lie algebra of the symmetry group of the quartic (sampled)
# ---------------------------------------------------------------------------


def _g_generators(rep: CliffordRep):
    """X -> S_j X S_j as signed permutations of matrix-entry indices."""
    a_idx, b_idx = np.divmod(np.arange(rep.m * rep.m), rep.m)
    perms = rep.perm[:, a_idx] * rep.m + rep.perm[:, b_idx]
    signs = rep.sign[:, a_idx] * rep.sign[:, b_idx]
    return perms, signs


def _g_constraint_matrix(rep: CliffordRep, w: np.ndarray) -> np.ndarray:
    """One row per sample w: entries G_a(w) w_b on unknown X_ab, with
    G = grad F / 4, as float64 (every entry is an integer far below 2^53, so
    exact) and F-ordered, since the orbit transform and the sector gathers
    read whole columns."""
    # the (n, m, count) images are freed before the (count, m^2) rows exist
    rows = quartic_values(rep, w, grad=True)[1].T.astype(float)[:, :, None] * w.T[:, None, :]
    return rows.reshape(w.shape[1], rep.m * rep.m)


def _sector_columns(blocks):
    """Each sector as ``(chi, pos)``, in order of first appearance: after
    ``_orbit_transform``, column ``pos[t]`` of the system is the sector's
    column from the t-th orbit that admits ``chi``."""
    chi = np.concatenate([c for _, c, _ in blocks])
    pos = np.concatenate([idxs for idxs, _, _ in blocks])
    keys, first, inv = np.unique(chi, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.argsort(by_first)[inv]  # each entry's sector, numbered by first appearance
    cols = np.split(pos[np.argsort(rank, kind="stable")], np.cumsum(np.bincount(rank))[:-1])
    return list(zip(keys[by_first].tolist(), cols))


def _orbit_transform(a: np.ndarray, blocks) -> float:
    """Overwrite the float64 integer system ``a`` in place so that column
    ``idxs[k]`` of each orbit block becomes ``a[:, idxs] @ coefs[k]``, the
    orbit's column for character ``chi[k]``.  Returns max|a| from before.

    Float sums of integers are exact, in any order, while they stay below
    2^53; that bound is checked first.
    """
    amax = float(max(a.max(), -a.min()))
    if amax * max(len(idxs) for idxs, _, _ in blocks) >= 2**53:
        raise OverflowError("sampled system too large for exact float64 sector sums")
    for idxs, _, coefs in blocks:
        a[:, idxs] = a[:, idxs] @ coefs.T
    return amax


def _sector_nullity(a: np.ndarray, blocks, sectors):
    """Total kernel dimension of the sampled float64 system ``a``, sector by
    sector; ``a`` has more rows than any sector has columns.  Consumes ``a``:
    the orbit transform overwrites it in place.

    The sectors of one width c are ranked together: each slice of at most
    ``SECTOR_BLOCK`` entries is one (B, rows, c) stack and one batched SVD,
    which runs the same LAPACK call on the same data as a single-matrix SVD,
    so every singular value is the same."""
    scale = max(1.0, _orbit_transform(a, blocks))
    nullity = np.zeros(len(sectors), dtype=np.int64)
    width = np.array([len(pos) for _, pos in sectors])
    flat = np.concatenate([pos for _, pos in sectors])
    start = np.cumsum(width) - width
    smallest = np.zeros(len(sectors))
    cols = a.T  # a is F-ordered, so each gathered matrix is F-ordered too
    for c in np.unique(width).tolist():
        nums = np.flatnonzero(width == c)
        step = max(1, spmat.SECTOR_BLOCK // (a.shape[0] * c))
        for b in range(0, len(nums), step):
            part = nums[b : b + step]
            stack = cols[flat[start[part, None] + np.arange(c)]].transpose(0, 2, 1)
            sv = np.linalg.svd(stack, compute_uv=False)  # one row of c values per sector
            nullity[part] = (sv <= FLOAT_RANK_TOL * np.maximum(sv[:, :1], 1.0)).sum(axis=1)
            smallest[part] = sv[:, -1]
    residual = float((smallest[nullity > 0] / scale).max(initial=0.0))
    per_sector = dict(zip([chi for chi, _ in sectors], nullity.tolist()))
    return int(nullity.sum()), per_sector, residual


def _sampled_kernel(rep: CliffordRep, perms, signs, rows, seed: int, streams, name: str):
    """Batch-1 ``(total, per_sector, residual)`` of the sampled system
    ``rows(w)`` in the joint sign sectors of ``(perms, signs)``.  Each of the
    two batches, keyed ``stream(seed, k)`` for k in ``streams``, has
    ``_ROW_MARGIN`` more rows than the largest sector has columns: a nonzero
    constraint is a degree-4 polynomial in w and vanishes at a point of
    {-9..9}^m with probability at most 4/19 (Schwartz-Zippel), so the margin
    over the unknowns is what counts, not the row total.  The batches must
    agree on every sector's nullity."""
    blocks = SectorDecomposition(perms, signs).sectors()
    sectors = _sector_columns(blocks)
    count = max(len(pos) for _, pos in sectors) + _ROW_MARGIN
    # each batch's system is released before the next one is built
    results = [
        _sector_nullity(rows(integer_points(seed, count, rep.m, k)), blocks, sectors)
        for k in streams
    ]
    if results[0][:2] != results[1][:2]:
        (total1, by_chi1, _), (total2, by_chi2, _) = results
        moved = ", ".join(
            f"{chi}: {by_chi1[chi]} vs {by_chi2[chi]}"
            for chi in by_chi1
            if by_chi1[chi] != by_chi2[chi]
        )
        raise UnstableDimensionError(
            f"{name} dimension unstable: {total1} vs {total2}"
            f" (nullity by character bitmask {moved})"
        )
    return results[0]


def g_kernel_dim(rep: CliffordRep, *, seed: int = 0) -> KernelReport:
    """Dimension of the symmetry Lie algebra of the quartic.

    Each integer sample w imposes grad F(w) . (X w) = 0 on X; the joint
    kernel over enough samples equals g with overwhelming probability, and
    two disjoint batches must agree on every sector dimension.
    """
    require_relations(rep)
    total, per_sector, residual = _sampled_kernel(
        rep, *_g_generators(rep), lambda w: _g_constraint_matrix(rep, w), seed, (1, 2), "g"
    )
    return KernelReport(total, None, "float-svd", residual, per_sector)


def g_contains(rep: CliffordRep, x: np.ndarray) -> bool:
    """Exact membership test of an integer matrix in g (sampled identity).

    At each of G_CONTAINS_TRIALS sample points w, grad F(w) . (X w) must
    vanish; it is tested as G(w) . (X w) with G = grad F / 4.
    """
    w = integer_points(G_CONTAINS_SEED, G_CONTAINS_TRIALS, rep.m, 3)
    _, grad = quartic_values(rep, w, grad=True)
    x = np.asarray(x)
    # |G . X w| <= m (n m 9^3)(m 9 max|X|); beyond int64 use Python ints
    if x.dtype == object or rep.n * rep.m**3 * 9**4 * int(np.abs(x).max()) >= 2**63:
        x, w = x.astype(object), w.astype(object)
    return not np.any((grad * (x @ w)).sum(axis=0))


# ---------------------------------------------------------------------------
# The only-antisymmetric-combinations condition on symmetric solution tuples
# ---------------------------------------------------------------------------


def _sharp_generators(rep: CliffordRep):
    """(X_1..X_n) -> (c_ij S_j X_i S_j) on symmetric-pair unknowns.

    Unknown i * npairs + t is entry (pa[t], pb[t]), pa <= pb, of X_i.
    """
    m, n = rep.m, rep.n
    pa, pb = np.triu_indices(m)
    npairs = len(pa)
    pair_index = np.empty((m, m), dtype=np.int64)
    pair_index[pa, pb] = pair_index[pb, pa] = np.arange(npairs)
    eps = np.array(rep.eps)
    cij = -np.outer(eps, eps)
    np.fill_diagonal(cij, 1)
    target = pair_index[rep.perm[:, pa], rep.perm[:, pb]]
    pair_sign = rep.sign[:, pa] * rep.sign[:, pb]
    perms = np.arange(n)[None, :, None] * npairs + target[:, None, :]
    signs = cij[:, :, None] * pair_sign[:, None, :]
    return perms.reshape(n, n * npairs), signs.reshape(n, n * npairs), (pa, pb)


def _sharp_constraint_matrix(rep: CliffordRep, w: np.ndarray, pairs) -> np.ndarray:
    """Rows of sum_i S_i[w] X_i[w] = 0 on the (i, pair) unknowns, as float64
    (exact integers) and F-ordered, as in ``_g_constraint_matrix``."""
    pa, pb = pairs
    count = w.shape[1]
    pairvals = w[pa] * w[pb] * np.where(pa == pb, 1, 2)[:, None]
    rows = rep.forms(w).T.astype(float)[:, :, None] * pairvals.T[:, None, :]
    return rows.reshape(count, rep.n * len(pa))


def sharp_check(rep: CliffordRep, seed: int = 0) -> bool:
    """Do symmetric solutions of sum_i S_i[w] X_i[w] = 0 reduce to the span
    of the antisymmetric combinations X_i = sum_j a_ij S_j?

    Computes the solution dimension from two sampled batches (sector by
    sector) and compares with n(n-1)/2, the dimension of the forced span.
    """
    dim, forced = sharp_solution_dim(rep, seed)
    return dim == forced


def sharp_solution_dim(rep: CliffordRep, seed: int = 0) -> tuple[int, int]:
    """(solution dimension, n(n-1)/2 forced by the antisymmetric span)."""
    require_relations(rep)
    perms, signs, pairs = _sharp_generators(rep)
    dim, _, _ = _sampled_kernel(
        rep, perms, signs, lambda w: _sharp_constraint_matrix(rep, w, pairs), seed, (11, 12),
        "sharp",
    )
    return dim, rep.n * (rep.n - 1) // 2


# (p + q, m) of the exceptional and of the degenerate low-dimension modules
_EXCEPTIONAL_NM = {(3, 4), (4, 8), (5, 8), (6, 16), (7, 16), (8, 16), (9, 16), (10, 32), (11, 32)}
_DEGENERATE_NM = {(p + q, m) for p, q, m in DEGENERATE_TRIPLES}


def expected_sharp(p: int, q: int, mults) -> bool:
    """Classification-table prediction for the sharp condition.

    Fails exactly at the tabulated (p+q, m) pairs, and for rank-2 split
    modules that are pure with m >= 2 (a pure module on the line satisfies
    the condition trivially, the solution space being one dimensional).
    """
    m = sum(mults) * irrep_catalog(p, q).dim
    if (p + q, m) in _DEGENERATE_NM | _EXCEPTIONAL_NM:
        return False
    if {p, q} == {1, 1} and is_pure(p, q, mults) and m >= 2:
        return False
    return True


# ---------------------------------------------------------------------------
# Structure-table predictions
# ---------------------------------------------------------------------------


def h_algebra(p: int, q: int, mults) -> tuple[str, int]:
    """Name and real dimension of h from the structure table."""
    cat = irrep_catalog(p, q)
    ks = tuple(mults)
    shape, field, even = cat.shape, cat.field, cat.even_field
    if shape == "(T,T')":
        (k,) = ks
        return {
            ("R", "C"): (f"so({k},C)", k * (k - 1)),
            ("C", "R"): (f"sp({k},R)", k * (2 * k + 1)),
            ("C", "H"): (f"so*({2 * k})", k * (2 * k - 1)),
            ("H", "C"): (f"sp({k},C)", 2 * k * (2 * k + 1)),
        }[(field, even)]
    if shape == "(T,2T')":
        (k,) = ks
        if field == "R":
            return f"gl({k},R)", k * k
        return f"gl({k},H)", 4 * k * k
    if shape == "(2T,T')":
        k1, k2 = ks
        kk = k1 + k2
        if field == "R":
            return f"so({k1},{k2})", kk * (kk - 1) // 2
        if field == "C":
            return f"u({k1},{k2})", kk * kk
        return f"sp({k1},{k2})", kk * (2 * kk + 1)
    if shape == "(2T,2T')":
        k1, k2 = ks
        if even == "R":
            return f"sp({k1},R)+sp({k2},R)", k1 * (2 * k1 + 1) + k2 * (2 * k2 + 1)
        return f"so*({2 * k1})+so*({2 * k2})", k1 * (2 * k1 - 1) + k2 * (2 * k2 - 1)
    k1, k2, k3, k4 = ks
    if field == "R":
        ka, kb = k1 + k2, k3 + k4
        return f"so({k1},{k2})+so({k3},{k4})", ka * (ka - 1) // 2 + kb * (kb - 1) // 2
    ka, kb = k1 + k2, k3 + k4
    return f"sp({k1},{k2})+sp({k3},{k4})", ka * (2 * ka + 1) + kb * (2 * kb + 1)


def pure_over_c(p: int, q: int, mults) -> bool:
    """Is the complexified restriction to the even subalgebra isotypic?"""
    cat = irrep_catalog(p, q)
    if cat.shape == "(T,2T')":
        return False  # the single class already mixes both even classes
    if cat.even_field == "C":
        return False  # complexification splits the even class in two
    used = {cat.halfspin[i] for i, k in enumerate(mults) if k}
    return len(used) <= 1


def exceptional_g_dim(p: int, q: int, mults) -> int | None:
    """Stated symmetry-algebra dimension in the exceptional cases.

    For p+q in {6, 10} the value is only identified after complexification
    and depends on purity over C; the real dimension of the real form equals
    the complex dimension of the stated complexification.
    """
    cat = irrep_catalog(p, q)
    n = p + q
    m = sum(mults) * cat.dim
    table = {
        (3, 4): 6,
        (4, 8): 13,
        (5, 8): 28,
        (7, 16): 31,
        (8, 16): 57,
        (9, 16): 120,
        (11, 32): 66,
    }
    if (n, m) in table:
        return table[(n, m)]
    if (n, m) == (6, 16):
        return 30 if pure_over_c(p, q, mults) else 22
    if (n, m) == (10, 32):
        return 48 if pure_over_c(p, q, mults) else 46
    return None


@dataclass
class SymmetryPrediction:
    h_algebra: str
    h_dim: int
    g_dim: int | None
    exceptional: bool
    degenerate: bool
    g_dim_exceptional: int | None


def predict(p: int, q: int, mults) -> SymmetryPrediction:
    """Structure-table prediction for the h and g dimensions."""
    cat = irrep_catalog(p, q)
    if len(mults) != cat.count or sum(mults) < 1 or min(mults) < 0:
        raise InvalidInputError("invalid multiplicity vector")
    name, h_dim = h_algebra(p, q, mults)
    n = p + q
    m = sum(mults) * cat.dim
    if expected_degenerate(p, q, mults):
        return SymmetryPrediction(name, h_dim, m * m, False, True, None)
    if (n, m) in _EXCEPTIONAL_NM:
        gexc = exceptional_g_dim(p, q, mults)
        return SymmetryPrediction(name, h_dim, gexc, True, False, gexc)
    return SymmetryPrediction(name, h_dim, n * (n - 1) // 2 + h_dim, False, False, None)
