import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cqforms import spmat
from cqforms import symlie as SY
from cqforms.repkit import CliffordRep, InvalidInputError, rep_build, verify_relations
from cqforms.rng import integer_points
from cqforms.spmat import SectorDecomposition
from cqforms.suite import enumerate_cases


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
    pred = SY.predict(*pq, mults)
    assert pred.h_dim == dim
    assert pred.h_algebra == name
    # exact basis elements satisfy the constraints identically
    for x in report.basis:
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
    assert report.dimension == SY.predict(10, 1, (2, 0)).h_dim


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
    assert SY.expected_sharp(*pq, mults) == expected


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
    pred = SY.predict(5, 1, (1, 1, 0, 0))
    assert pred.h_algebra == "sp(1,1)+sp(0,0)"
    assert pred.h_dim == 2 * 5  # sp(1,1): K=2 -> K(2K+1) = 10
    pred = SY.predict(3, 3, (1, 1))
    assert pred.h_algebra == "sp(1,R)+sp(1,R)"
    assert pred.h_dim == 6
    pred = SY.predict(10, 1, (1, 0))
    assert pred.exceptional and pred.g_dim_exceptional == 66
    # p + q = 10: degenerate at m = 16, exceptional at m = 32, generic at m = 64
    assert SY.predict(9, 1, (1, 0, 0, 0)).degenerate
    pred = SY.predict(9, 1, (2, 0, 0, 0))
    assert pred.exceptional and not pred.degenerate and pred.g_dim == 48
    pred = SY.predict(9, 1, (4, 0, 0, 0))
    assert not pred.exceptional and not pred.degenerate
    assert pred.g_dim == 10 * 9 // 2 + pred.h_dim
    # rank 2: a pure module is degenerate, a mixed one generic
    assert SY.predict(1, 1, (2, 0, 0, 0)).degenerate
    pred = SY.predict(1, 1, (1, 0, 1, 0))
    assert not pred.exceptional and not pred.degenerate


def test_pure_over_c():
    assert SY.pure_over_c(3, 3, (2, 0))
    assert not SY.pure_over_c(3, 3, (1, 1))
    assert not SY.pure_over_c(4, 2, (1,))  # complex even part: always mixed
    assert not SY.pure_over_c(8, 0, (1,))  # both half-spins in one class
    assert SY.pure_over_c(9, 1, (1, 1, 0, 0))
    assert not SY.pure_over_c(9, 1, (1, 0, 1, 0))


def test_exceptional_g_dim_purity_split():
    assert SY.exceptional_g_dim(9, 1, (2, 0, 0, 0)) == 48
    assert SY.exceptional_g_dim(9, 1, (1, 0, 1, 0)) == 46
    assert SY.exceptional_g_dim(3, 3, (2, 0)) == 30
    assert SY.exceptional_g_dim(3, 3, (1, 1)) == 22


# ---------------------------------------------------------------------------
# Sector matrices of the orbit transform against per-column assembly
# ---------------------------------------------------------------------------


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


def _sampled_systems(rep):
    """(sector blocks, batch-1 float64 system) of the g and the sharp system."""
    g_blocks = SectorDecomposition(*SY._g_generators(rep)).sectors()
    g_rows = SY._g_constraint_matrix(rep, integer_points(0, _batch_rows(g_blocks), rep.m, 1))
    perms, signs, pairs = SY._sharp_generators(rep)
    sharp_blocks = SectorDecomposition(perms, signs).sectors()
    count = _batch_rows(sharp_blocks)
    sharp_rows = SY._sharp_constraint_matrix(rep, integer_points(0, count, rep.m, 11), pairs)
    return [(g_blocks, g_rows), (sharp_blocks, sharp_rows)]


SMALL_CASES = enumerate_cases(max_pq=6, max_m=16)


def test_every_batch_has_largest_sector_plus_64_rows(monkeypatch):
    rows = []
    sector_nullity = SY._sector_nullity

    def recording(a, blocks, sectors):
        rows.append(a.shape[0])
        return sector_nullity(a, blocks, sectors)

    monkeypatch.setattr(SY, "_sector_nullity", recording)
    for p, q, mults in SMALL_CASES + [(6, 2, (1,))]:
        rep = rep_build(p, q, mults)
        g_blocks = SectorDecomposition(*SY._g_generators(rep)).sectors()
        sharp_blocks = SectorDecomposition(*SY._sharp_generators(rep)[:2]).sectors()
        rows.clear()
        SY.g_kernel_dim(rep)
        assert rows == [_batch_rows(g_blocks)] * 2, (p, q, mults)
        rows.clear()
        SY.sharp_solution_dim(rep)
        assert rows == [_batch_rows(sharp_blocks)] * 2, (p, q, mults)


def test_sampled_systems_are_f_ordered_float64():
    # the orbit transform and the sector gathers read whole columns
    for pq, mults in [((3, 2), (1,)), ((5, 0), (2, 0)), ((6, 2), (1,)), ((3, 1), (1, 1))]:
        rep = rep_build(*pq, mults)
        for _, a in _sampled_systems(rep):
            assert a.dtype == np.float64, pq
            assert a.flags.f_contiguous and a.shape[0] > 1 and a.shape[1] > 1, pq


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
            assert [chi for chi, _ in sectors] == list(want)
            SY._orbit_transform(a, blocks)
            for chi, pos in sectors:
                got = a[:, pos]
                assert np.array_equal(got.astype(np.int64), want[chi]), (p, q, mults, chi)
                # the float SVD input: bit-identical to the converted integer
                # matrix, so no -0.0 either
                assert got.tobytes() == want[chi].astype(float).tobytes(), (p, q, mults, chi)


def test_orbit_transform_refuses_inexact_float_sums():
    # one orbit of length 2, e_0 <-> e_1: characters 0 and 1, sums of 2 entries
    blocks = SectorDecomposition(np.array([[1, 0]]), np.array([[1, 1]])).sectors()
    sectors = SY._sector_columns(blocks)
    ok = np.full((3, 2), 2.0**52 - 1)
    total, per_sector, _ = SY._sector_nullity(ok, blocks, sectors)
    assert total == 1 and per_sector == {0: 0, 1: 1}
    assert ok[:, 0].tolist() == [2.0**53 - 2] * 3 and not ok[:, 1].any()
    for big in (2.0**52, -(2.0**52)):
        a = np.ones((3, 2))
        a[1, 0] = big
        with pytest.raises(OverflowError):
            SY._orbit_transform(a, blocks)


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


def _exact_nullities(blocks, a):
    """Nullity of each orbit-transformed integer sector matrix of ``a``."""
    SY._orbit_transform(a, blocks)
    return {chi: len(pos) - _bareiss_rank(a[:, pos].astype(np.int64).tolist())
            for chi, pos in SY._sector_columns(blocks)}


ORACLE_CASES = enumerate_cases(max_pq=6, max_m=8)


def test_sector_nullities_match_exact_rational_ranks():
    # the float rank of every g and sharp sector (batch 1: streams 1 and 11)
    # against the exact rank of the same integer matrix
    assert len(ORACLE_CASES) == 47
    for p, q, mults in ORACLE_CASES:
        rep = rep_build(p, q, mults)
        assert rep.m <= 8
        (g_blocks, g_rows), (sharp_blocks, sharp_rows) = _sampled_systems(rep)
        g = SY.g_kernel_dim(rep, seed=0)
        assert g.per_sector == _exact_nullities(g_blocks, g_rows), (p, q, mults)
        perms, signs, pairs = SY._sharp_generators(rep)
        _, sharp, _ = SY._sampled_kernel(
            rep, perms, signs, lambda w: SY._sharp_constraint_matrix(rep, w, pairs), 0,
            (11, 12), "sharp",
        )
        assert sharp == _exact_nullities(sharp_blocks, sharp_rows), (p, q, mults)


def _tampered_modules():
    """(3,2)x1 with one column of S_2 negated, and with S_3 replaced by the
    transposition of e_0 and e_1: signed permutations whose relations fail."""
    rep = rep_build(3, 2, (1,))
    negated = list(rep.basis)
    negated[1][:, 0] *= -1
    swapped = list(rep.basis)
    swapped[2] = np.eye(rep.m, dtype=np.int64)[[1, 0, *range(2, rep.m)]]
    return [CliffordRep(rep.p, rep.q, rep.mults, tuple(b), rep.m) for b in (negated, swapped)]


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
    scale = max(1.0, SY._orbit_transform(a, blocks))
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
    total, per_sector, residual = SY._sector_nullity(a.copy(order="F"), blocks, sectors)
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
    total, per_sector, residual = SY._sector_nullity(a, blocks, SY._sector_columns(blocks))
    assert total == 2 and per_sector == {0: 1, 1: 1}
    assert 1e-14 < residual < 1e-12  # about 5e-7 / (1e6 + 1)


def test_stacked_svd_slice_edges(monkeypatch):
    for pq, mults in [((3, 2), (1,)), ((5, 0), (2, 0)), ((6, 2), (1,))]:
        rep = rep_build(*pq, mults)
        families = [SY._g_generators(rep), SY._sharp_generators(rep)[:2]]
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
    assert f"{stable.dimension} vs {sum(widths.values())}" in message
    named = message.split("nullity by character bitmask ", 1)[1].rstrip(")").split(", ")
    want = [f"{chi}: {n} vs {widths[chi]}" for chi, n in stable.per_sector.items() if n != widths[chi]]
    assert want and named == want
