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
batches and insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quartic import expected_degenerate, is_pure
from .repkit import CliffordRep, InvalidInputError, irrep_catalog
from .rng import stream
from .spmat import SectorDecomposition, rational_nullspace


class UnstableDimensionError(RuntimeError):
    """Two sample batches produced different nullspace dimensions."""


class ExactBudgetError(ValueError):
    """Exact mode refused; retry with mode='float'."""


FLOAT_RANK_TOL = 1e-8


@dataclass
class KernelReport:
    dimension: int
    basis: list[np.ndarray] | None  # None means dimension-only (float mode)
    method: str
    residual: float


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
    m = rep.m
    dec = SectorDecomposition(*_h_generators(rep))
    basis = []
    for vec in dec.fixed_space():
        x = np.zeros((m, m), dtype=np.int64)
        for u, s in vec.items():
            x[u // m, u % m] = s
        basis.append(x)
    for x in basis:  # exactness guarantee
        for s in rep.basis:
            assert not np.any(x.T @ s + s @ x)
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


def _sample_w(rep: CliffordRep, seed: int, batch: int, count: int) -> np.ndarray:
    """``count`` integer sample points as the columns of an (m, count) array."""
    gen = stream(seed, batch)
    return np.ascontiguousarray(gen.integers(-9, 10, size=(count, rep.m)).T)


def _g_constraint_matrix(rep: CliffordRep, w: np.ndarray) -> np.ndarray:
    """One row per sample w: entries grad_a(w) w_b on unknown X_ab."""
    # the (n, m, count) images are freed before the (count, m^2) rows exist
    grad = sum(e * v * img for e, v, img in zip(rep.eps, *rep.forms(w, images=True)))
    rows = grad.T[:, :, None] * w.T[:, None, :]
    return rows.reshape(w.shape[1], rep.m * rep.m)


def _sector_nullity(a_int: np.ndarray, sectors, mode: str):
    """Total kernel dimension of the sampled system, sector by sector."""
    total = 0
    residual = 0.0
    per_sector = []
    basis_cols = []
    af = a_int.astype(float)
    scale = max(1.0, float(np.abs(a_int).max(initial=0)))
    for chi, cols in sectors:
        mat = np.stack(
            [af[:, idxs] @ coefs.astype(float) for idxs, coefs in cols], axis=1
        )
        dim = len(cols)
        if mode == "exact":
            amat = np.stack(
                [a_int[:, idxs] @ coefs for idxs, coefs in cols], axis=1
            )
            null = rational_nullspace(amat.tolist(), dim)
            nullity = len(null)
            basis_cols.append((chi, cols, null))
        else:
            sv = np.linalg.svd(mat, compute_uv=False)
            smax = sv[0] if len(sv) else 0.0
            nullity = int((sv <= FLOAT_RANK_TOL * max(smax, 1.0)).sum()) + max(
                0, dim - len(sv)
            )
            if len(sv) and nullity:
                residual = max(residual, float(sv[-1]) / max(scale, 1.0))
        total += nullity
        per_sector.append(nullity)
    return total, per_sector, residual, basis_cols


def g_kernel_dim(
    rep: CliffordRep, samples: int | None = None, seed: int = 0, mode: str = "float"
) -> KernelReport:
    """Dimension of the symmetry Lie algebra of the quartic.

    Each integer sample w imposes grad F(w) . (X w) = 0 on X; the joint
    kernel over enough samples equals g with overwhelming probability, and
    two disjoint batches must agree on every sector dimension.
    """
    m = rep.m
    if samples is None:
        samples = m * m + 64
    if samples < m * m + 64:
        raise InvalidInputError("need at least m^2 + 64 samples")
    if mode == "exact" and m > 16:
        raise ExactBudgetError("exact g refused for m > 16; use mode='float'")
    perms, signs = _g_generators(rep)
    sectors = list(SectorDecomposition(perms, signs).sectors().items())
    results = []
    for batch in (1, 2):
        w = _sample_w(rep, seed, batch, samples)
        a = _g_constraint_matrix(rep, w)
        results.append(_sector_nullity(a, sectors, mode))
    if results[0][:2] != results[1][:2]:
        raise UnstableDimensionError(
            f"g dimension unstable: {results[0][0]} vs {results[1][0]}"
        )
    total, _, residual, basis_cols = results[0]
    basis = None
    if mode == "exact":
        basis = []
        for chi, cols, null in basis_cols:
            for vec in null:
                x = np.zeros(m * m, dtype=object)
                for coord, (idxs, coefs) in zip(vec, cols):
                    if coord:
                        for u, c in zip(idxs, coefs):
                            x[u] += coord * int(c)
                basis.append(x.reshape(m, m))
        return KernelReport(total, basis, "exact", 0.0)
    return KernelReport(total, None, "float-svd", residual)


def g_contains(rep: CliffordRep, x: np.ndarray, trials: int = 24, seed: int = 11) -> bool:
    """Exact membership test of an integer matrix in g (sampled identity).

    At each sample w, sum_i eps_i S_i[w] 2 (S_i w) . (X w) must vanish.
    """
    gen = stream(seed, 3)
    w = gen.integers(-9, 10, size=(trials, rep.m)).T
    vals, images = rep.forms(w, images=True)
    x = np.asarray(x)
    # |total| <= 2 n (m 9^2)(m 9)(m 9 max|X|); beyond int64 use Python ints
    if x.dtype == object or 2 * rep.n * rep.m**3 * 9**4 * int(np.abs(x).max()) >= 2**63:
        x, w, vals = x.astype(object), w.astype(object), vals.astype(object)
    dots = (images * (x @ w)).sum(axis=1)
    total = (np.array(rep.eps)[:, None] * vals * 2 * dots).sum(axis=0)
    return not np.any(total)


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
    """Rows of sum_i S_i[w] X_i[w] = 0 on the (i, pair) unknowns."""
    pa, pb = pairs
    count = w.shape[1]
    pairvals = w[pa] * w[pb] * np.where(pa == pb, 1, 2)[:, None]
    rows = rep.forms(w).T[:, :, None] * pairvals.T[:, None, :]
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
    n = rep.n
    perms, signs, pairs = _sharp_generators(rep)
    sectors = list(SectorDecomposition(perms, signs).sectors().items())
    max_dim = max(len(cols) for _, cols in sectors)
    count = max_dim + 64
    dims = []
    for batch in (1, 2):
        w = _sample_w(rep, seed, 10 + batch, count)
        a = _sharp_constraint_matrix(rep, w, pairs)
        total, per_sector, _, _ = _sector_nullity(a, sectors, "float")
        dims.append((total, per_sector))
    if dims[0] != dims[1]:
        raise UnstableDimensionError(f"sharp dimension unstable: {dims[0][0]} vs {dims[1][0]}")
    return dims[0][0], n * (n - 1) // 2


def expected_sharp(p: int, q: int, mults) -> bool:
    """Classification-table prediction for the sharp condition.

    Fails exactly at the tabulated (p+q, m) pairs, and for rank-2 split
    modules that are pure with m >= 2 (a pure module on the line satisfies
    the condition trivially, the solution space being one dimensional).
    """
    cat = irrep_catalog(p, q)
    m = sum(mults) * cat.dim
    n = p + q
    bad = {
        (3, 2),
        (3, 4),
        (4, 4),
        (4, 8),
        (5, 8),
        (6, 8),
        (6, 16),
        (7, 16),
        (8, 16),
        (9, 16),
        (10, 16),
        (10, 32),
        (11, 32),
    }
    if (n, m) in bad:
        return False
    if n == 2 and {p, q} == {1, 1} and is_pure(p, q, mults) and m >= 2:
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


_EXCEPTIONAL_NM = {(3, 4), (4, 8), (5, 8), (6, 16), (7, 16), (8, 16), (9, 16), (10, 32), (11, 32)}
_DEGENERATE_NM = {(3, 2), (4, 4), (6, 8), (10, 16)}


def classification_status(n: int, m: int, pure: bool = False) -> str:
    """degenerate / exceptional / generic from the low-dimension tables."""
    if (n, m) in _DEGENERATE_NM or (n == 2 and pure):
        return "degenerate"
    if (n, m) in _EXCEPTIONAL_NM:
        return "exceptional"
    return "generic"


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
    degenerate = expected_degenerate(p, q, mults)
    status = classification_status(n, m, pure=(n == 2 and degenerate))
    if degenerate:
        return SymmetryPrediction(name, h_dim, m * m, False, True, None)
    if status == "exceptional":
        gexc = exceptional_g_dim(p, q, mults)
        return SymmetryPrediction(name, h_dim, gexc, True, False, gexc)
    return SymmetryPrediction(name, h_dim, n * (n - 1) // 2 + h_dim, False, False, None)
