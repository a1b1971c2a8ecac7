import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqforms import spmat
from cqforms import symlie as SY
from cqforms.classify import exceptional_g_dim, expected_sharp, predict, pure_over_c
from cqforms.quartic import quartic_values
from cqforms.repkit import CliffordRep, InvalidInputError, rep_build, verify_relations
from cqforms.rng import integer_points
from cqforms.spmat import SectorDecomposition, perm_sign_of
from cqforms.suite import enumerate_cases


def _dense_rep(p, q, mults, basis):
    """The module with the dense basis matrices ``basis``, through perm_sign_of."""
    return CliffordRep(p, q, mults, *perm_sign_of(np.stack(basis)))


H_CASES = [
    # (p, q, mults, expected h dimension, algebra fragment)
    ((1, 1), (1, 0, 1, 0), 0, "so(1,0)+so(1,0)"),
    ((3, 2), (1,), 3, "sp(1,R)"),
    ((3, 2), (2,), 10, "sp(2,R)"),
    ((2, 0), (2,), 2, "so(2,C)"),
    ((2, 2), (2,), 4, "gl(2,R)"),
    ((4, 0), (1,), 4, "gl(1,H)"),
    ((9, 0), (1, 1), 1, "so(1,1)"),
    ((7, 0), (1,), 3, "sp(1,R)"),
    ((5, 3), (1, 0), 1, "u(1,0)"),
]


@pytest.mark.parametrize("pq,mults,dim,name", H_CASES)
def test_h_kernel_matches_table(pq, mults, dim, name):
    rep = rep_build(*pq, mults)
    report = SY.h_kernel(rep)
    assert report.dimension == dim
    pred = predict(*pq, mults)
    assert pred.h_dim == dim
    assert pred.h_algebra == name
    # one orbit vector per element, with disjoint supports
    support = np.concatenate([np.zeros(0, dtype=np.int64)] + [idxs for idxs, _ in report.basis])
    assert len(report.basis) == dim and len(np.unique(support)) == len(support)
    # exact basis elements satisfy the constraints identically
    for idxs, signs in report.basis:
        x = np.zeros(rep.m * rep.m, dtype=np.int64)
        x[idxs] = signs
        x = x.reshape(rep.m, rep.m)
        for s in rep.basis:
            assert not np.any(x.T @ s + s @ x)


@pytest.mark.parametrize("i,j", [(0, 1), (0, 4), (2, 3)])
def test_h_guard_refuses_a_rotation(monkeypatch, i, j):
    # Y = S_i S_j has Y^T S_k + S_k Y = 0 except at k = i and k = j
    rep = rep_build(3, 2, (2,))
    y = (rep.basis[i] @ rep.basis[j]).ravel()
    fake = [(np.flatnonzero(y), y[y != 0])]
    monkeypatch.setattr(SectorDecomposition, "fixed_space", lambda self: fake)
    with pytest.raises(AssertionError, match="violates"):
        SY.h_kernel(rep)


@pytest.mark.parametrize(
    "fault", ["flipped sign", "non-fixed orbit", "truncated orbit", "split orbit", "overlap"]
)
def test_h_guard_refuses_a_bad_orbit_vector(monkeypatch, fault):
    rep = rep_build(3, 2, (2,))
    dec = SectorDecomposition(*SY._h_generators(rep))
    fixed = dec.fixed_space()
    idxs, signs = fixed[0]
    assert len(idxs) == 8
    if fault == "flipped sign":
        bad = [(idxs, signs * np.where(np.arange(8) == 0, -1, 1))]
    elif fault == "non-fixed orbit":
        held = {int(i[0]) for i, _ in fixed}
        orbit = next(o for o in dec.orbits if int(o[0]) not in held)
        bad = [(orbit, dec.sign[orbit])]
    elif fault == "truncated orbit":
        bad = [(idxs[:-1], signs[:-1])]
    elif fault == "split orbit":  # their sum is an h element, but neither half is
        bad = [(idxs[:4], signs[:4]), (idxs[4:], signs[4:])]
    else:  # each vector passes on its own, but two share their support
        bad = [(idxs, signs), (idxs, signs)]
    monkeypatch.setattr(SectorDecomposition, "fixed_space", lambda self: bad + fixed[1:])
    with pytest.raises(AssertionError, match="overlap" if fault == "overlap" else "violates"):
        SY.h_kernel(rep)


def test_h_kernel_at_m_256_keeps_orbit_vectors():
    # a dense basis would hold 32640 matrices of 256 x 256 entries
    report = SY.h_kernel(rep_build(1, 0, (128, 128)))
    assert report.dimension == len(report.basis) == 32640 == predict(1, 0, (128, 128)).h_dim
    assert all(len(idxs) == len(signs) <= 2 for idxs, signs in report.basis)


def _h_dim_float(rep):
    """Float oracle for dim h: SVD rank of the dense m^2 x m^2 system
    X -> X^T S_i + S_i X, i.e. (I (x) S^T) K + (S (x) I) with K the
    commutation matrix.  Practical for m <= 16 only."""
    m = rep.m
    eye = np.eye(m)
    k = np.zeros((m * m, m * m))
    a_idx, b_idx = np.divmod(np.arange(m * m), m)
    k[np.arange(m * m), b_idx * m + a_idx] = 1.0
    rows = np.vstack(
        [np.kron(eye, s.T.astype(float)) @ k + np.kron(s.astype(float), eye) for s in rep.basis]
    )
    sv = np.linalg.svd(rows, compute_uv=False)
    return m * m - int((sv > SY.FLOAT_RANK_TOL * sv[0]).sum())


def test_h_float_agrees_with_exact():
    for pq, mults in [((3, 2), (2,)), ((5, 1), (1, 0, 0, 0)), ((2, 2), (2,))]:
        rep = rep_build(*pq, mults)
        assert rep.m <= 16
        assert SY.h_kernel(rep).dimension == _h_dim_float(rep)


def test_h_exact_budget_error():
    # exact h has no size cap: m = 64 runs and matches the structure table
    rep = rep_build(10, 1, (2, 0))
    assert rep.m == 64
    report = SY.h_kernel(rep)
    assert report.method == "exact"
    assert report.dimension == predict(10, 1, (2, 0)).h_dim


G_CASES = [
    ((3, 2), (2,), 20),  # so(3,2) + sp(2,R)
    ((3, 2), (1,), 28),  # exceptional: so(4,4)
    ((9, 0), (1, 0), 120),  # exceptional: so(16)
    ((7, 0), (1,), 31),  # exceptional: so(8) + sl(2,R)
    ((2, 0), (1,), 1),  # so(2)
]


@pytest.mark.parametrize("pq,mults,dim", G_CASES)
def test_g_kernel_dims(pq, mults, dim):
    rep = rep_build(*pq, mults)
    report = SY.g_kernel_dim(rep, seed=3)
    assert report.dimension == dim
    assert report.residual < 1e-8


def test_g_contains_rotations():
    rep = rep_build(4, 3, (1,))
    for i, j in [(0, 1), (2, 5), (0, 6)]:
        assert SY.g_contains(rep, rep.basis[i] @ rep.basis[j])
    assert not SY.g_contains(rep, np.eye(rep.m, dtype=np.int64))


SHARP_CASES = [
    ((3, 2), (1,), False),
    ((3, 2), (2,), True),
    ((2, 0), (1,), True),
    ((1, 1), (1, 0, 1, 0), True),
    ((1, 1), (2, 0, 0, 0), False),  # pure with m = 2
    ((1, 1), (1, 0, 0, 0), True),  # pure on the line: solution space is forced
    ((9, 0), (1, 0), False),
    ((9, 0), (1, 1), True),
]


@pytest.mark.parametrize("pq,mults,expected", SHARP_CASES)
def test_sharp_condition(pq, mults, expected):
    rep = rep_build(*pq, mults)
    assert SY.sharp_check(rep, seed=1) == expected
    assert expected_sharp(*pq, mults) == expected


def test_sharp_forced_solutions_in_kernel():
    # (X_i = S_j, X_j = -eps_i eps_j S_i) solves the identity exactly
    rep = rep_build(3, 2, (2,))
    i, j = 1, 4
    for w in integer_points(8, 12, rep.m).T.tolist():
        q = [sum(w[a] * int(s[a, b]) * w[b] for a in range(rep.m) for b in range(rep.m))
             for s in rep.basis]
        total = q[i] * q[j] + q[j] * (-q[i])
        assert total == 0


def test_predictions_against_structure_table():
    pred = predict(5, 1, (1, 1, 0, 0))
    assert pred.h_algebra == "sp(1,1)+sp(0,0)"
    assert pred.h_dim == 2 * 5  # sp(1,1): K=2 -> K(2K+1) = 10
    pred = predict(3, 3, (1, 1))
    assert pred.h_algebra == "sp(1,R)+sp(1,R)"
    assert pred.h_dim == 6
    pred = predict(10, 1, (1, 0))
    assert pred.exceptional and pred.g_dim_exceptional == 66
    # p + q = 10: degenerate at m = 16, exceptional at m = 32, generic at m = 64
    assert predict(9, 1, (1, 0, 0, 0)).degenerate
    pred = predict(9, 1, (2, 0, 0, 0))
    assert pred.exceptional and not pred.degenerate and pred.g_dim == 48
    pred = predict(9, 1, (4, 0, 0, 0))
    assert not pred.exceptional and not pred.degenerate
    assert pred.g_dim == 10 * 9 // 2 + pred.h_dim
    # rank 2: a pure module is degenerate, a mixed one generic
    assert predict(1, 1, (2, 0, 0, 0)).degenerate
    pred = predict(1, 1, (1, 0, 1, 0))
    assert not pred.exceptional and not pred.degenerate


def test_pure_over_c():
    assert pure_over_c(3, 3, (2, 0))
    assert not pure_over_c(3, 3, (1, 1))
    assert not pure_over_c(4, 2, (1,))  # complex even part: always mixed
    assert not pure_over_c(8, 0, (1,))  # both half-spins in one class
    assert pure_over_c(9, 1, (1, 1, 0, 0))
    assert not pure_over_c(9, 1, (1, 0, 1, 0))


def test_exceptional_g_dim_purity_split():
    assert exceptional_g_dim(9, 1, (2, 0, 0, 0)) == 48
    assert exceptional_g_dim(9, 1, (1, 0, 1, 0)) == 46
    assert exceptional_g_dim(3, 3, (2, 0)) == 30
    assert exceptional_g_dim(3, 3, (1, 1)) == 22


# ---------------------------------------------------------------------------
# Sector matrices of the orbit transform against per-column assembly
# ---------------------------------------------------------------------------


def _sharp_generators(rep):
    """Oracle: (X_1..X_n) -> (c_ij S_j X_i S_j) on all n copies of the
    symmetric-pair unknowns, unknown i * npairs + t being entry
    (pa[t], pb[t]), pa <= pb, of X_i; c_ii = 1 and c_ij = -eps_i eps_j."""
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
    return perms.reshape(n, n * npairs), signs.reshape(n, n * npairs)


def _sharp_constraint_matrix(rep, w):
    """Oracle: rows of sum_i S_i[w] X_i[w] = 0 on all n * npairs unknowns,
    as F-ordered float64 (exact integers)."""
    pa, pb = np.triu_indices(rep.m)
    pairvals = w[pa] * w[pb] * np.where(pa == pb, 1, 2)[:, None]
    rows = rep.forms(w).T.astype(float)[:, :, None] * pairvals.T[:, None, :]
    return rows.reshape(w.shape[1], rep.n * len(pa))


def _transform(a, blocks):
    """Orbit-transform the whole system ``a`` in place; returns its max |entry|."""
    amax = float(np.abs(a).max())
    SY._orbit_transform(a, blocks, amax)
    return amax


def _nullity(a, blocks, sectors):
    """``_sector_nullity`` of the whole float64 system ``a``, one copy with
    unit row values (consumed)."""
    amax = _transform(a, blocks)
    return SY._sector_nullity(a.T, np.ones((1, 1)), amax, sectors)


def _recorded_batches(monkeypatch):
    """A list that gains ``(amax, {chi: SVD input}, per_sector)`` for each
    sampled batch ranked from now on: each ranked sector's (rows, c) matrix
    as ``_sector_nullity`` hands it to the SVD, and its nullity."""
    batches, stacks = [], []
    sector_nullity, svd = SY._sector_nullity, np.linalg.svd

    def recording_svd(a, **options):
        stacks.extend(a)
        return svd(a, **options)

    def recording(cols, vals, amax, sectors):
        stacks.clear()
        result = sector_nullity(cols, vals, amax, sectors)
        # the sectors are ranked width by width, each width in sector order
        order = sorted(range(len(sectors)), key=lambda t: len(sectors[t][1]))
        matrices = {sectors[t][0]: mat for t, mat in zip(order, stacks, strict=True)}
        batches.append((amax, matrices, result[1]))
        return result

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(SY, "_sector_nullity", recording)
    return batches


def _columns(blocks):
    """{chi: [(idxs, coefs)]}: each sector's columns, one per orbit, in order."""
    cols = {}
    for idxs, chis, coefs in blocks:
        for chi, row in zip(chis.tolist(), coefs):
            cols.setdefault(chi, []).append((idxs, row))
    return cols


def _per_column(a, cols):
    """Reference sector matrix: one column ``a[:, idxs] @ coefs`` per orbit."""
    return np.stack([a[:, idxs] @ coefs for idxs, coefs in cols], axis=1)


def _batch_rows(blocks):
    """Rows per sampled batch: the largest sector's column count plus 64."""
    return max(len(cols) for cols in _columns(blocks).values()) + 64


def _sharp_oracle(rep, stream_index=11):
    """(sector blocks, float64 system) of the n-copy sharp system, batch 1
    by default (stream 11)."""
    blocks = SectorDecomposition(*_sharp_generators(rep)).sectors()
    w = integer_points(0, _batch_rows(blocks), rep.m, stream_index)
    return blocks, _sharp_constraint_matrix(rep, w)


def _sampled_systems(rep):
    """(sector blocks, batch-1 float64 system) of the g and of the n-copy
    sharp system."""
    g_blocks = SectorDecomposition(*SY._g_generators(rep)).sectors()
    g_rows, _ = SY._g_block(rep, integer_points(0, _batch_rows(g_blocks), rep.m, 1))
    return [(g_blocks, g_rows), _sharp_oracle(rep)]


def _sharp_family(rep):
    """(generators, character masks) of the factored sharp system."""
    return SY._sym2_generators(rep), SY._sharp_masks(rep)


def _sharp_sectors(rep):
    """(Sym^2 blocks, sectors) of the factored sharp system."""
    blocks = SectorDecomposition(*SY._sym2_generators(rep)).sectors()
    return blocks, SY._sector_columns(blocks, SY._sharp_masks(rep))


SMALL_CASES = enumerate_cases(max_pq=6, max_m=16)


def _entry_families(rep):
    """The g and h generator families built entry by entry: X -> S_j X S_j
    and X -> -S_j X^T S_j on the index a m + b of X_ab."""
    a, b = np.divmod(np.arange(rep.m * rep.m), rep.m)
    g = rep.perm[:, a] * rep.m + rep.perm[:, b], rep.sign[:, a] * rep.sign[:, b]
    h = rep.perm[:, b] * rep.m + rep.perm[:, a], -rep.sign[:, a] * rep.sign[:, b]
    return g, h


def test_generator_families_match_the_entry_by_entry_oracle():
    cases = enumerate_cases(max_pq=12, max_m=64, max_total_mult=3)
    assert len(cases) == 329
    for p, q, mults in cases:
        rep = rep_build(p, q, mults)
        for got, want in zip((SY._g_generators(rep), SY._h_generators(rep)), _entry_families(rep)):
            for x, y in zip(got, want):
                assert x.dtype == np.int64 and np.array_equal(x, y), (p, q, mults)


def test_every_batch_has_largest_sector_plus_64_rows(monkeypatch):
    # batch 1 always, and batch 2, with the same rows, when batch 1 finds a
    # kernel
    rows, kernels = [], []
    sector_nullity = SY._sector_nullity

    def recording(cols, vals, amax, sectors):
        assert vals.shape[1] in (1, cols.shape[1])
        rows.append(cols.shape[1])
        result = sector_nullity(cols, vals, amax, sectors)
        kernels.append(result[0] > 0)
        return result

    monkeypatch.setattr(SY, "_sector_nullity", recording)
    single = 0
    for p, q, mults in SMALL_CASES + [(6, 2, (1,))]:
        rep = rep_build(p, q, mults)
        g_blocks = SectorDecomposition(*SY._g_generators(rep)).sectors()
        sharp_blocks = SectorDecomposition(*_sharp_generators(rep)).sectors()
        for run, blocks in ((SY.g_kernel_dim, g_blocks), (SY.sharp_solution_dim, sharp_blocks)):
            rows.clear()
            kernels.clear()
            run(rep)
            assert rows == [_batch_rows(blocks)] * (1 + kernels[0]), (p, q, mults, run)
            single += not kernels[0]
    assert single  # some run draws one batch only


def test_sampled_systems_are_f_ordered_float64(monkeypatch):
    # the orbit transform and the sector gathers read whole columns: the g
    # system and the sharp pair block, as the transform receives them
    seen = []
    orbit_transform = SY._orbit_transform

    def recording(a, blocks, amax):
        seen.append((a.dtype, a.flags.f_contiguous, a.shape))
        return orbit_transform(a, blocks, amax)

    monkeypatch.setattr(SY, "_orbit_transform", recording)
    for pq, mults in [((3, 2), (1,)), ((5, 0), (2, 0)), ((6, 2), (1,)), ((3, 1), (1, 1))]:
        rep = rep_build(*pq, mults)
        seen.clear()
        SY.g_kernel_dim(rep)
        SY.sharp_solution_dim(rep)
        assert len(seen) == 4, pq
        for dtype, f_ordered, shape in seen:
            assert dtype == np.float64, pq
            assert f_ordered and shape[0] > 1 and shape[1] > 1, pq
        assert seen[2][2][1] == rep.m * (rep.m + 1) // 2  # one copy of the pairs


def test_sector_matrices_match_per_column_assembly():
    for p, q, mults in SMALL_CASES:
        rep = rep_build(p, q, mults)
        assert rep.m <= 16
        for blocks, a in _sampled_systems(rep):
            assert a.dtype == np.float64
            a_int = a.astype(np.int64)
            assert np.array_equal(a_int, a)  # the system holds integers
            want = {chi: _per_column(a_int, cols) for chi, cols in _columns(blocks).items()}
            sectors = SY._sector_columns(blocks)
            assert [chi for chi, _ in sectors] == sorted(want)
            _transform(a, blocks)
            for chi, pos in sectors:
                got = a[:, pos]
                assert np.array_equal(got.astype(np.int64), want[chi]), (p, q, mults, chi)
                # the float SVD input: bit-identical to the converted integer
                # matrix, so no -0.0 either
                assert got.tobytes() == want[chi].astype(float).tobytes(), (p, q, mults, chi)


FACTORED_CASES = enumerate_cases(max_pq=8, max_m=32) + [(11, 0, (1,))]


def test_factored_sharp_sectors_match_the_n_copy_system(monkeypatch):
    # one copy of Sym^2 times S_i[w] gives the n-copy system's sectors in
    # the same order and width, and byte-equal transformed sector matrices
    assert len(FACTORED_CASES) == 102
    batches = _recorded_batches(monkeypatch)
    for p, q, mults in FACTORED_CASES:
        rep = rep_build(p, q, mults)
        _, sectors = _sharp_sectors(rep)
        batches.clear()
        SY.sharp_solution_dim(rep)
        # batch 2 ranks batch 1's kernel sectors, and is drawn only if any
        kernel = [chi for chi, n in batches[0][2].items() if n]
        assert len(batches) == 1 + bool(kernel), (p, q, mults)
        for k, (amax, matrices, _), ranked in zip((11, 12), batches, ([*batches[0][2]], kernel)):
            full_blocks, a = _sharp_oracle(rep, k)
            full = SY._sector_columns(full_blocks)
            widths = [(chi, len(pos)) for chi, pos in sectors]
            assert [(chi, len(pos)) for chi, pos in full] == widths, (p, q, mults)
            assert amax == _transform(a, full_blocks), (p, q, mults)  # the whole system's max
            assert sorted(matrices) == ranked, (p, q, mults, k)
            for chi, want in full:
                if chi not in ranked:
                    continue
                matrix = matrices[chi]
                assert matrix.dtype == np.float64 and matrix.shape == (a.shape[0], len(want))
                assert matrix.tobytes() == a[:, want].tobytes(), (p, q, mults, k, chi)


def test_batch_2_transforms_only_the_orbits_of_kernel_sectors(monkeypatch):
    # batch 1 transforms every orbit; batch 2 those that hold a column of a
    # sector where batch 1 found a kernel, no more and no fewer
    transformed = []
    orbit_transform = SY._orbit_transform

    def recording(a, blocks, amax):
        transformed.append([idxs.tolist() for idxs, _, _ in blocks])
        return orbit_transform(a, blocks, amax)

    monkeypatch.setattr(SY, "_orbit_transform", recording)
    fewer = 0
    for p, q, mults in FACTORED_CASES[::4]:
        rep = rep_build(p, q, mults)
        for generators, masks, block, streams in [
            (SY._g_generators(rep), (0,), SY._g_block, (1, 2)),
            (*_sharp_family(rep), SY._sharp_block, (11, 12)),
        ]:
            blocks = SectorDecomposition(*generators).sectors()
            size = sum(len(idxs) for idxs, _, _ in blocks)
            transformed.clear()
            _, by_chi, _ = SY._sampled_kernel(rep, generators, masks, block, 0, streams, "x")
            assert transformed[0] == [idxs.tolist() for idxs, _, _ in blocks], (p, q, mults)
            read = {int(u) % size for chi, pos in SY._sector_columns(blocks, masks) if by_chi[chi] for u in pos}
            want = [idxs.tolist() for idxs, _, _ in blocks if read & set(idxs.tolist())]
            assert transformed[1:] == ([want] if read else []), (p, q, mults)
            fewer += 0 < len(want) < len(blocks)
    assert fewer


def test_orbit_transform_refuses_inexact_float_sums():
    # one orbit of length 2, e_0 <-> e_1: characters 0 and 1, sums of 2 entries
    blocks = SectorDecomposition(np.array([[1, 0]]), np.array([[1, 1]])).sectors()
    sectors = SY._sector_columns(blocks)
    ok = np.full((3, 2), 2.0**52 - 1)
    total, per_sector, _ = _nullity(ok, blocks, sectors)
    assert total == 1 and per_sector == {0: 0, 1: 1}
    assert ok[:, 0].tolist() == [2.0**53 - 2] * 3 and not ok[:, 1].any()
    for big in (2.0**52, -(2.0**52)):
        a = np.ones((3, 2))
        a[1, 0] = big
        with pytest.raises(OverflowError):
            _transform(a, blocks)
    # the bound is the one given, the largest entry of the whole system
    with pytest.raises(OverflowError):
        SY._orbit_transform(np.ones((3, 2)), blocks, 2.0**52)


def test_sharp_guard_uses_the_whole_systems_largest_entry():
    # (11,0)x1 at m = 64 with points scaled by 2^10: the orbit sums of the
    # pair block alone stay exact, those of the whole system would not
    rep = rep_build(11, 0, (1,))
    blocks, sectors = _sharp_sectors(rep)
    w = integer_points(0, max(len(pos) for _, pos in sectors) + 64, rep.m, 11) << 10
    pa, pb = np.triu_indices(rep.m)
    longest = max(len(idxs) for idxs, _, _ in blocks)
    assert 2 * np.abs(w[pa] * w[pb]).max() * longest < 2**53
    scaled = lambda rep, w: SY._sharp_block(rep, w << 10)  # noqa: E731
    with pytest.raises(OverflowError):
        SY._sampled_kernel(rep, *_sharp_family(rep), scaled, 0, (11, 12), "sharp")


def test_g_per_sector_nullities_sum_to_dimension():
    for pq, mults in [((3, 2), (2,)), ((7, 0), (1,)), ((2, 0), (2,))]:
        rep = rep_build(*pq, mults)
        report = SY.g_kernel_dim(rep, seed=1)
        assert report.per_sector, pq
        assert sum(report.per_sector.values()) == report.dimension
        n_sectors = len(SY._sector_columns(SectorDecomposition(*SY._g_generators(rep)).sectors()))
        assert len(report.per_sector) == n_sectors


def test_h_exactness_check_survives_python_O():
    # a wrong basis vector must be refused even with assertions compiled out
    script = (
        "import numpy as np\n"
        "from cqforms import spmat, symlie\n"
        "from cqforms.repkit import rep_build\n"
        "spmat.SectorDecomposition.fixed_space = lambda self: [(np.array([0]), np.array([1]))]\n"
        "try:\n"
        "    symlie.h_kernel(rep_build(3, 2, (1,)))\n"
        "except AssertionError:\n"
        "    print('refused')\n"
    )
    src = str(Path(SY.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


def _bareiss_rank(mat) -> int:
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination:
    each division by the previous pivot is exact, so every entry stays an
    integer (a minor of the input)."""
    a = [[int(x) for x in row] for row in mat]
    rank, prev = 0, 1
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for row in a[rank + 1 :]:
            row[col + 1 :] = [(top[col] * x - row[col] * y) // prev
                              for x, y in zip(row[col + 1 :], top[col + 1 :])]
        prev, rank = top[col], rank + 1
    return rank


def test_bareiss_rank_small():
    assert _bareiss_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert _bareiss_rank([[0, 2, 1], [0, 4, 3], [0, 0, 0]]) == 2
    assert _bareiss_rank([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 3
    assert _bareiss_rank([[0, 0], [0, 0]]) == 0


def _exact_nullities(matrices):
    """Nullity of each integer sector matrix of ``{chi: (rows, c) matrix}``."""
    return {chi: mat.shape[1] - _bareiss_rank(mat.astype(np.int64).tolist())
            for chi, mat in matrices.items()}


ORACLE_CASES = enumerate_cases(max_pq=6, max_m=8)


def test_sector_nullities_match_exact_rational_ranks(monkeypatch):
    # the float rank of every g and sharp sector (batch 1: streams 1 and 11)
    # against the exact rank of the same integer matrix
    assert len(ORACLE_CASES) == 47
    batches = _recorded_batches(monkeypatch)
    for p, q, mults in ORACLE_CASES:
        rep = rep_build(p, q, mults)
        assert rep.m <= 8
        batches.clear()
        g = SY.g_kernel_dim(rep, seed=0)
        g_batch = batches[0][1]
        batches.clear()
        family = _sharp_family(rep)
        _, sharp, _ = SY._sampled_kernel(rep, *family, SY._sharp_block, 0, (11, 12), "sharp")
        sharp_batch = batches[0][1]
        assert g.per_sector == _exact_nullities(g_batch), (p, q, mults)
        assert sharp == _exact_nullities(sharp_batch), (p, q, mults)


def _per_system_g(rep, blocks, w):
    """Oracle: ``(gather, amax)`` of the g system built on its own, as it
    was before g became the one-copy sampled system: rows G_a(w) w_b on
    unknown X_ab, orbit-transformed as a whole."""
    rows = quartic_values(rep, w, grad=True)[1].T.astype(float)[:, :, None] * w.T[:, None, :]
    a = rows.reshape(w.shape[1], rep.m * rep.m)
    amax = float(max(a.max(), -a.min()))
    SY._orbit_transform(a, blocks, amax)
    cols = a.T
    return (lambda pos: cols[pos]), amax


def _per_system_sharp(rep, blocks, w):
    """Oracle: ``(gather, amax)`` of the sharp system built on its own: the
    orbit-transformed pair block times S_i[w], gathered column by column."""
    pa, pb = np.triu_indices(rep.m)
    pairs = w[pa] * w[pb] * np.where(pa == pb, 1, 2)[:, None]
    forms = rep.forms(w)
    amax = float((np.abs(forms).max(axis=0) * np.abs(pairs).max(axis=0)).max())
    block = pairs.T.astype(float)
    SY._orbit_transform(block, blocks, amax)
    vals, cols = forms.astype(float), block.T

    def gather(pos):
        out = cols[pos % len(pa)]
        out *= vals[pos // len(pa)]
        out += 0.0
        return out

    return gather, amax


def _per_system_batches(rep, generators, masks, system, streams):
    """Oracle: ``(total, per_sector, residual)`` of each seed-0 batch of
    ``system``, one SVD per sector: batch 1 on every sector, batch 2 on
    those where batch 1 found a kernel, if any."""
    blocks = SectorDecomposition(*generators).sectors()
    sectors = SY._sector_columns(blocks, masks)
    count = max(len(pos) for _, pos in sectors) + 64
    out = []
    for k in streams:
        if out:
            sectors = [(chi, pos) for chi, pos in sectors if out[0][1][chi]]
            if not sectors:
                break
        gather, amax = system(rep, blocks, integer_points(0, count, rep.m, k))
        per_sector, residual = {}, 0.0
        for chi, pos in sectors:
            sv = np.linalg.svd(gather(pos[None])[0].T, compute_uv=False)
            per_sector[chi] = int((sv <= SY.FLOAT_RANK_TOL * max(sv[0], 1.0)).sum())
            if per_sector[chi]:
                residual = max(residual, float(sv[-1]) / max(1.0, amax))
        out.append((sum(per_sector.values()), per_sector, residual))
    return out


SUITE_LARGE_CASES = enumerate_cases(max_pq=8, max_m=32, max_total_mult=1)


def test_sampled_kernels_match_the_per_system_builders(monkeypatch):
    # both batches of g and sharp (batch 2 on batch 1's kernel sectors):
    # dimensions, per-sector nullities and residuals bit for bit, on the
    # suite-large modules and one at m = 64
    assert len(SUITE_LARGE_CASES) == 40
    batches = []
    sector_nullity = SY._sector_nullity

    def recording(*args):
        batches.append(sector_nullity(*args))
        return batches[-1]

    monkeypatch.setattr(SY, "_sector_nullity", recording)
    for p, q, mults in SUITE_LARGE_CASES + [(6, 2, (2,))]:
        rep = rep_build(p, q, mults)
        batches.clear()
        g = SY.g_kernel_dim(rep)
        want = _per_system_batches(rep, SY._g_generators(rep), (0,), _per_system_g, (1, 2))
        assert batches == want, (p, q, mults)
        assert (g.dimension, g.per_sector, g.residual) == want[0], (p, q, mults)
        batches.clear()
        dim, _ = SY.sharp_solution_dim(rep)
        want = _per_system_batches(rep, *_sharp_family(rep), _per_system_sharp, (11, 12))
        assert batches == want and dim == want[0][0], (p, q, mults)


def _tampered_modules():
    """(3,2)x1 with one column of S_2 negated, and with S_3 replaced by the
    transposition of e_0 and e_1: signed permutations whose relations fail."""
    rep = rep_build(3, 2, (1,))
    negated = list(rep.basis)
    negated[1][:, 0] *= -1
    swapped = list(rep.basis)
    swapped[2] = np.eye(rep.m, dtype=np.int64)[[1, 0, *range(2, rep.m)]]
    return [_dense_rep(rep.p, rep.q, rep.mults, b) for b in (negated, swapped)]


def test_module_failing_its_relations_is_refused():
    for bad in _tampered_modules():
        failed = [name for name, _ in verify_relations(bad).failures]
        assert failed
        for fn in (SY.h_kernel, SY.g_kernel_dim, SY.sharp_solution_dim):
            with pytest.raises(InvalidInputError) as err:
                fn(bad)
            assert str(err.value) == f"module fails {', '.join(failed)} (see verify_relations)"


def _per_sector_svd(a, blocks, sectors):
    """Reference float path: one ``np.linalg.svd`` per sector matrix."""
    scale = max(1.0, _transform(a, blocks))
    total, per_sector, residual = 0, {}, 0.0
    for chi, pos in sectors:
        sv = np.linalg.svd(a[:, pos], compute_uv=False)
        nullity = int((sv <= SY.FLOAT_RANK_TOL * max(sv[0], 1.0)).sum())
        if nullity:
            residual = max(residual, float(sv[-1]) / scale)
        total += nullity
        per_sector[chi] = nullity
    return total, per_sector, residual


def _assert_matches_per_sector_svd(blocks, a, label):
    sectors = SY._sector_columns(blocks)
    total, per_sector, residual = _nullity(a.copy(order="F"), blocks, sectors)
    want_total, want_per_sector, want_residual = _per_sector_svd(a.copy(order="F"), blocks, sectors)
    assert total == want_total, label
    assert list(per_sector.items()) == list(want_per_sector.items()), label
    assert residual == want_residual, label  # the same float, bit for bit


def test_stacked_svd_matches_per_sector_oracle():
    residuals = 0
    for p, q, mults in SMALL_CASES + [(6, 2, (1,))]:
        for blocks, a in _sampled_systems(rep_build(p, q, mults)):
            _assert_matches_per_sector_svd(blocks, a, (p, q, mults))
            residuals += _per_sector_svd(a, blocks, SY._sector_columns(blocks))[2] > 0
    assert residuals > 50  # the residual comparison is not vacuous


def test_stacked_svd_threshold_is_relative_to_the_largest_value():
    # two orbits {0, 1}, {2, 3}; after the transform both sectors are
    # [[1e6, 1e6 + 1], [1e6 - 1, 1e6], [0, 0]]: determinant 1, so the small
    # singular value is about 5e-7, below 1e-8 times the large one
    blocks = SectorDecomposition(np.array([[1, 0, 3, 2]]), np.array([[1, 1, 1, 1]])).sectors()
    a = np.zeros((3, 4), order="F")
    a[:2, 0] = [1e6, 1e6 - 1]
    a[:2, 2] = [1e6 + 1, 1e6]
    _assert_matches_per_sector_svd(blocks, a, "near-singular")
    total, per_sector, residual = _nullity(a, blocks, SY._sector_columns(blocks))
    assert total == 2 and per_sector == {0: 1, 1: 1}
    assert 1e-14 < residual < 1e-12  # about 5e-7 / (1e6 + 1)


def test_stacked_svd_slice_edges(monkeypatch):
    for pq, mults in [((3, 2), (1,)), ((5, 0), (2, 0)), ((6, 2), (1,))]:
        rep = rep_build(*pq, mults)
        families = [SY._g_generators(rep), _sharp_generators(rep)]
        for (blocks, a), family in zip(_sampled_systems(rep), families):
            sectors = SY._sector_columns(blocks)
            widths = np.bincount([len(pos) for _, pos in sectors])
            c = int(widths.argmax())  # the width shared by most sectors
            assert widths[c] >= 3, pq
            # one sector per slice, then slices of widths[c] - 1 sectors of
            # width c: a full slice and a slice of one
            for budget in (1, int(widths[c] - 1) * a.shape[0] * c):
                monkeypatch.setattr(spmat, "SECTOR_BLOCK", budget)
                sliced = SectorDecomposition(*family).sectors()
                _assert_matches_per_sector_svd(blocks, a, (pq, budget))
                monkeypatch.undo()
                assert len(sliced) == len(blocks), (pq, budget)
                for got, want in zip(sliced, blocks):
                    assert all(np.array_equal(x, y) for x, y in zip(got, want)), (pq, budget)


def test_unstable_dimension_names_each_sector(monkeypatch):
    rep = rep_build(3, 2, (1,))
    stable = SY.g_kernel_dim(rep, seed=0)
    widths = {
        chi: len(pos)
        for chi, pos in SY._sector_columns(SectorDecomposition(*SY._g_generators(rep)).sectors())
    }

    def zero_second_batch(seed, count, dim, index=0):
        w = integer_points(seed, count, dim, index)
        return 0 * w if index == 2 else w  # every row 0: full nullity

    monkeypatch.setattr(SY, "integer_points", zero_second_batch)
    with pytest.raises(SY.UnstableDimensionError) as err:
        SY.g_kernel_dim(rep, seed=0)
    message = str(err.value)
    # batch 2 re-ranks only the kernel sectors of batch 1, and both totals
    # are summed over those
    kernel = {chi: n for chi, n in stable.per_sector.items() if n}
    assert stable.dimension == 28 and len(kernel) < len(widths)
    assert f"g dimension unstable: 28 vs {sum(widths[chi] for chi in kernel)} (" in message
    named = message.split("nullity by character bitmask ", 1)[1].rstrip(")").split(", ")
    want = [f"{chi}: {n} vs {widths[chi]}" for chi, n in kernel.items() if n != widths[chi]]
    assert want and named == want


def _recorded_sector_lists(monkeypatch):
    """A list that gains, for each batch ranked from now on, the sectors
    handed to ``_sector_nullity`` and the per-sector nullities it returns."""
    calls = []
    sector_nullity = SY._sector_nullity

    def recording(cols, vals, amax, sectors):
        result = sector_nullity(cols, vals, amax, sectors)
        calls.append((sectors, result[1]))
        return result

    monkeypatch.setattr(SY, "_sector_nullity", recording)
    return calls


def test_second_batch_ranks_exactly_the_first_batchs_kernel_sectors(monkeypatch):
    calls = _recorded_sector_lists(monkeypatch)
    fewer = {SY.g_kernel_dim: 0, SY.sharp_solution_dim: 0}
    for p, q, mults in SUITE_LARGE_CASES:
        rep = rep_build(p, q, mults)
        for run, generators, masks in (
            (SY.g_kernel_dim, SY._g_generators(rep), (0,)),
            (SY.sharp_solution_dim, *_sharp_family(rep)),
        ):
            calls.clear()
            run(rep)
            every = SY._sector_columns(SectorDecomposition(*generators).sectors(), masks)
            (first, by_chi), *rest = calls
            assert [chi for chi, _ in first] == [chi for chi, _ in every], (p, q, mults, run)
            kernel = [(chi, pos) for chi, pos in every if by_chi[chi]]
            assert len(rest) == (1 if kernel else 0), (p, q, mults, run)
            if kernel:
                ranked = rest[0][0]
                assert [chi for chi, _ in ranked] == [chi for chi, _ in kernel], (p, q, mults)
                for (_, got), (_, want) in zip(ranked, kernel):
                    assert np.array_equal(got, want), (p, q, mults, run)
                fewer[run] += len(kernel) < len(every)
    assert all(fewer.values())  # g and sharp each skip sectors in batch 2


def test_no_second_batch_without_a_first_batch_kernel(monkeypatch):
    # (1,0)x(0,1): m = 1, F = w^4, so g = 0 and sharp has no solution
    streams = []
    points = SY.integer_points

    def recording(seed, count, dim, index=0):
        streams.append(index)
        return points(seed, count, dim, index)

    monkeypatch.setattr(SY, "integer_points", recording)
    calls = _recorded_sector_lists(monkeypatch)
    rep = rep_build(1, 0, (0, 1))
    report = SY.g_kernel_dim(rep)
    assert report.dimension == 0 and not any(report.per_sector.values())
    assert streams == [1] and len(calls) == 1
    streams.clear()
    calls.clear()
    assert SY.sharp_solution_dim(rep) == (0, 0)
    assert streams == [11] and len(calls) == 1
