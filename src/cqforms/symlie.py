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
the sectors, and each sector system is small.  A sampled system is copies
of one block of unknowns, each copy with a character mask and row values
(``g`` is one copy, the sharp system n copies of Sym^2), and both take one
path, ``_sampled_kernel``, over one flat sector plan.  The sampled
dimensions are probabilistic in the choice of points, and a second batch
guards them.  ``h_kernel``, ``g_kernel_dim`` and ``sharp_solution_dim``
refuse a module whose defining relations fail with an ``InvalidInputError``
that names the failed checks; all three read the module's one relation
report, ``rep.relations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spmat
from .quartic import quartic_values
from .repkit import CliffordRep, InvalidInputError, require_relations
from .rng import integer_points
from .spmat import SectorDecomposition, sp_kron


class UnstableDimensionError(RuntimeError):
    """A second sample batch moved the nullity of a sector where the first
    batch found a kernel.  The message names each such sector, and its two
    totals are summed over the re-ranked sectors; batch 1's is its full
    total, since every other sector has nullity 0."""


FLOAT_RANK_TOL = 1e-8
_ROW_MARGIN = 64  # sampled rows per batch beyond the largest sector's columns
SYSTEM_LIMIT = 1 << 27  # entries of the largest sampled block, rows x unknowns (1 GiB of float64)
G_CONTAINS_TRIALS = 24  # sample points of g_contains, from stream (G_CONTAINS_SEED, 3)
G_CONTAINS_SEED = 11


@dataclass
class KernelReport:
    dimension: int
    basis: list[tuple[np.ndarray, np.ndarray]] | None  # (idxs, signs) orbit vectors; None for g
    method: str
    residual: float
    per_sector: dict[int, int] | None = None  # nullity by character bitmask (g only)


# ---------------------------------------------------------------------------
# h = {X : X^T S_i + S_i X = 0 for all i}
# ---------------------------------------------------------------------------


def _h_generators(rep: CliffordRep):
    """X -> -S_i X^T S_i as signed permutations of matrix-entry indices: the
    family of ``_g_generators`` read through the transpose of the entry
    index, and negated."""
    perms, signs = _g_generators(rep)
    t = np.arange(rep.m * rep.m).reshape(rep.m, rep.m).T.ravel()
    return perms[:, t], -signs[:, t]


def h_kernel(rep: CliffordRep) -> KernelReport:
    """Common solution space of the n orthogonality constraints.

    The constraints are decomposed into signed orbits of matrix entries; the
    basis is one {-1, 1} orbit vector ``(idxs, signs)`` per fixed orbit, over
    the flat entry index a m + b, and satisfies the constraints identically.
    """
    require_relations(rep)
    m = rep.m
    basis = SectorDecomposition(*_h_generators(rep)).fixed_space()
    # exactness guarantee for every vector at once: all of them written into
    # one X, each entry labelled with its vector's number
    empty = [np.zeros(0, dtype=np.int64)]
    idxs = np.concatenate(empty + [i for i, _ in basis])
    x, label = np.zeros(m * m, dtype=np.int64), np.full(m * m, -1)
    x[idxs] = np.concatenate(empty + [s for _, s in basis])
    label[idxs] = np.repeat(np.arange(len(basis)), [len(i) for i, _ in basis])
    if np.count_nonzero(label >= 0) != len(idxs):
        raise AssertionError("h basis vectors overlap")
    x, label = x.reshape(m, m), label.reshape(m, m)
    # row r of S_i X is sign[inv[r]] X[inv[r]] and column c of X^T S_i is
    # sign[c] X[perm[c]]: entry (r, c) of their sum joins two entries of X,
    # and every vector passes on its own exactly when each sum vanishes and
    # the two entries of each pair carry one label
    for perm, sign in zip(rep.perm, rep.sign):
        inv = np.argsort(perm)
        if np.any(sign[inv, None] * x[inv] + (sign[:, None] * x[perm]).T) or np.any(
            label[inv] != label[perm].T
        ):
            raise AssertionError("h basis element violates X^T S_i + S_i X = 0")
    return KernelReport(len(basis), basis, "exact", 0.0)


# ---------------------------------------------------------------------------
# g = Lie algebra of the symmetry group of the quartic (sampled)
# ---------------------------------------------------------------------------


def _g_generators(rep: CliffordRep):
    """X -> S_j X S_j as signed permutations of matrix-entry indices: the
    Kronecker square of each generator, entry (a, b) at index a m + b."""
    return sp_kron((rep.perm, rep.sign), (rep.perm, rep.sign))


def _g_block(rep: CliffordRep, w: np.ndarray):
    """``(a, vals)`` of g at the points ``w``, one copy of a block: a row per
    sample with entries G_a(w) w_b on unknown X_ab, G = grad F / 4, as
    F-ordered float64 (exact integers far below 2^53; the orbit transform and
    the gathers read whole columns), and unit row values of shape (1, 1)."""
    # the (n, m, count) images are freed before the (count, m^2) rows exist
    rows = quartic_values(rep, w, grad=True)[1].T.astype(float)[:, :, None] * w.T[:, None, :]
    return rows.reshape(w.shape[1], rep.m * rep.m), np.ones((1, 1))


def _orbit_transform(a: np.ndarray, plan, amax: float, held=None) -> None:
    """Overwrite the float64 integer system ``a`` in place: column ``idxs[g, k]``
    of the ``SectorPlan`` becomes ``a[:, idxs[g]] @ coefs[g, k]``, orbit g's
    column for character ``chi[g, k]``, by one batched product per slice of
    at most ``SECTOR_BLOCK // 8`` entries of ``a``; with the boolean ``held``,
    only in the orbits that hold a column.  Float sums of integers are exact,
    in any order, below 2^53, which each orbit length checks first against
    ``amax``, the largest |entry| of the system whose columns ``a`` holds."""
    rows = a.shape[0]
    for _, idxs, _, coefs in plan.groups:
        pick = np.arange(len(idxs)) if held is None else np.flatnonzero(held[idxs].any(axis=1))
        if len(pick) and amax * idxs.shape[1] >= 2**53:
            raise OverflowError("sampled system too large for exact float64 sector sums")
        step = max(1, spmat.SECTOR_BLOCK // 8 // (rows * idxs.shape[1]))
        for b in range(0, len(pick), step):
            at = idxs[pick[b : b + step]]
            a[:, at] = (coefs[pick[b : b + step]] @ a[:, at].transpose(1, 2, 0)).transpose(2, 0, 1)


def _sector_nullity(cols: np.ndarray, vals: np.ndarray, amax: float, sectors):
    """Total kernel dimension of a sampled float64 system, sector by sector.
    The system is copies of a block of N unknowns with the (N, rows) columns
    ``cols``, rows more than any sector has columns: its column u is
    ``vals[u // N] * cols[u % N]``, and its largest |entry| is ``amax``.
    ``sectors`` is ``(chi, width, pos)``: sector t, character ``chi[t]``, has
    the next ``width[t]`` columns of ``pos``.

    The sectors of one width c are ranked together: each slice of at most
    ``SECTOR_BLOCK`` entries is one (B, rows, c) stack and one batched SVD,
    which runs the same LAPACK call on the same data as a single-matrix SVD,
    so every singular value is the same."""
    chi, width, flat = sectors
    size, rows = cols.shape
    scale = max(1.0, amax)
    nullity, smallest = np.zeros(len(chi), dtype=np.int64), np.zeros(len(chi))
    start = np.cumsum(width) - width
    for c in np.unique(width).tolist():
        nums = np.flatnonzero(width == c)
        step = max(1, spmat.SECTOR_BLOCK // (rows * c))
        for b in range(0, len(nums), step):
            part = nums[b : b + step]
            pos = flat[start[part, None] + np.arange(c)]
            stack = cols[pos % size]  # each product of two integers is exact
            stack *= vals[pos // size]
            stack += 0.0  # turns -0.0 into 0.0, as the integer product has it
            sv = np.linalg.svd(stack.transpose(0, 2, 1), compute_uv=False)  # c values per sector
            nullity[part] = (sv <= FLOAT_RANK_TOL * np.maximum(sv[:, :1], 1.0)).sum(axis=1)
            smallest[part] = sv[:, -1]
    residual = float((smallest[nullity > 0] / scale).max(initial=0.0))
    per_sector = dict(zip(chi.tolist(), nullity.tolist()))
    return int(nullity.sum()), per_sector, residual


def _sampled_kernel(rep: CliffordRep, generators, masks, block, seed: int, streams, name: str):
    """Batch-1 ``(total, per_sector, residual)`` of ``len(masks)`` copies of
    ``block(rep, w) = (a, vals)``: copy i, character mask ``masks[i]``, has
    the columns ``vals[i] * a``, and ``generators`` act on those of ``a``.
    Copy i of the plan's column u, character chi, is column ``i * N + u`` of
    sector ``chi ^ masks[i]``; sectors ascend, their columns copy by copy,
    then orbit by orbit.
    Both batches, keyed ``stream(seed, k)`` for k in ``streams``, have
    ``_ROW_MARGIN`` more rows than the largest sector has columns: a nonzero
    constraint is a degree-4 polynomial in w and vanishes at a point of
    {-9..9}^m with probability at most 4/19 (Schwartz-Zippel), so the margin
    over the unknowns is what counts, not the row total.  A block past
    ``SYSTEM_LIMIT`` entries is refused before any batch is drawn.

    Batch 2 re-ranks only the sectors where batch 1 found a kernel, and
    orbit-transforms only the orbits that hold their columns; the batches
    must agree on those sectors.  For any sample, a sector's kernel contains
    the true solutions in that sector, so sampling can only raise a nullity.
    A wrong dimension thus needs a sector where batch 1 overstates the
    kernel; that sector has nullity > 0, so batch 2 re-ranks it, and a wrong
    verdict passes only when both batches overstate it equally.  Where batch
    1 finds no kernel, batch 2 could only add a spurious one of its own,
    which never changed the returned value; with no kernel at all, batch 2
    is not drawn.  Batch 2 never guarded against float under-counting: an
    exact kernel vector gets a computed singular value of about
    c * rows * eps * sigma_max, over 1e4 times below ``FLOAT_RANK_TOL``
    times sigma_max."""
    require_relations(rep)
    plan = SectorDecomposition(*generators).sectors()
    size, masks = len(plan.index), np.asarray(masks, dtype=np.int64)[:, None]
    key = (masks ^ plan.chi).ravel()
    order = np.argsort(key, kind="stable")
    pos = (size * np.arange(len(masks))[:, None] + plan.index).ravel()[order]
    chi, width = np.unique(key[order], return_counts=True)
    del key, order  # the batches hold only the sectors
    count = int(width.max()) + _ROW_MARGIN
    if count * size > SYSTEM_LIMIT:
        limit = f"{count} rows of {size} unknowns exceed {SYSTEM_LIMIT} entries"
        raise InvalidInputError(f"{name} system too large to sample: {limit}")

    def rank(k, sectors, held=None):
        # the batch's system is released before the next one is built
        a, vals = block(rep, integer_points(seed, count, rep.m, k))
        # the whole system's largest |entry|: the largest product in any row
        row_max = np.maximum(a.max(axis=1), -a.min(axis=1))
        amax = float((np.maximum(vals.max(axis=0), -vals.min(axis=0)) * row_max).max())
        _orbit_transform(a, plan, amax, held)
        return _sector_nullity(a.T, vals, amax, sectors)

    first, second = streams
    total, by_chi, residual = rank(first, (chi, width, pos))
    kernel = np.array(list(by_chi.values())) > 0
    if kernel.any():
        # batch 2 transforms only the orbits that hold a kernel sector's column
        kept = pos[np.repeat(kernel, width)]
        held = np.zeros(size, dtype=bool)
        held[kept % size] = True
        total2, by_chi2, _ = rank(second, (chi[kernel], width[kernel], kept), held)
        moved = ", ".join(f"{c}: {by_chi[c]} vs {n}" for c, n in by_chi2.items() if by_chi[c] != n)
        if moved:
            raise UnstableDimensionError(
                f"{name} dimension unstable: {total} vs {total2}"
                f" (nullity by character bitmask {moved})"
            )
    return total, by_chi, residual


def g_kernel_dim(rep: CliffordRep, *, seed: int = 0) -> KernelReport:
    """Dimension of the symmetry Lie algebra of the quartic.

    Each integer sample w imposes grad F(w) . (X w) = 0 on X; the joint
    kernel over enough samples equals g with overwhelming probability, and
    a second batch guards it as ``_sampled_kernel`` says.
    """
    total, per_sector, residual = _sampled_kernel(rep, _g_generators(rep), (0,), _g_block, seed, (1, 2), "g")
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


def _sym2_generators(rep: CliffordRep):
    """X -> S_j X S_j on one symmetric X, as signed permutations of the pair
    unknowns (a, b), a <= b, numbered as by ``np.triu_indices``."""
    m = rep.m
    pa, pb = np.triu_indices(m)
    pair_index = np.empty((m, m), dtype=np.int64)
    pair_index[pa, pb] = pair_index[pb, pa] = np.arange(len(pa))
    return pair_index[rep.perm[:, pa], rep.perm[:, pb]], rep.sign[:, pa] * rep.sign[:, pb]


def _sharp_masks(rep: CliffordRep) -> np.ndarray:
    """Bit j of entry i is set when generator j acts on X_i by -S_j X_i S_j:
    (X_1..X_n) -> (c_ij S_j X_i S_j) with c_ii = 1 and c_ij = -eps_i eps_j."""
    eps = np.array(rep.eps)
    flip = (np.outer(eps, eps) == 1) & ~np.eye(rep.n, dtype=bool)
    return flip @ (1 << np.arange(rep.n))


def _sharp_block(rep: CliffordRep, w: np.ndarray):
    """The sharp system sum_i S_i[w] X_i[w] = 0 at the points ``w`` as n
    copies of the pair block: unknown i * npairs + t, pair t = (a, b) of
    X_i, has the entry S_i[w] times the pair value w_a w_b (doubled off the
    diagonal).  Returns the F-ordered (count, npairs) pairs and the (n,
    count) values S_i[w], both float64 arrays of exact integers."""
    pa, pb = np.triu_indices(rep.m)
    pairs = w[pa] * w[pb] * np.where(pa == pb, 1, 2)[:, None]
    return pairs.T.astype(float), rep.forms(w).astype(float)


def sharp_check(rep: CliffordRep, seed: int = 0) -> bool:
    """Do symmetric solutions of sum_i S_i[w] X_i[w] = 0 reduce to the span
    of the antisymmetric combinations X_i = sum_j a_ij S_j?

    Computes the solution dimension from a sampled batch (sector by sector,
    guarded by a second batch as ``_sampled_kernel`` says) and compares with
    n(n-1)/2, the dimension of the forced span.
    """
    dim, forced = sharp_solution_dim(rep, seed)
    return dim == forced


def sharp_solution_dim(rep: CliffordRep, seed: int = 0) -> tuple[int, int]:
    """(solution dimension, n(n-1)/2 forced by the antisymmetric span)."""
    generators, masks = _sym2_generators(rep), _sharp_masks(rep)
    dim, _, _ = _sampled_kernel(rep, generators, masks, _sharp_block, seed, (11, 12), "sharp")
    return dim, rep.n * (rep.n - 1) // 2
