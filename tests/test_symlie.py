import numpy as np
import pytest

from cqforms import symlie as SY
from cqforms.repkit import rep_build


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
    # exact g is still refused above m = 16
    with pytest.raises(SY.ExactBudgetError):
        SY.g_kernel_dim(rep_build(10, 1, (1, 0)), mode="exact")


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


def test_g_requires_enough_samples():
    rep = rep_build(2, 0, (1,))
    with pytest.raises(SY.InvalidInputError):
        SY.g_kernel_dim(rep, samples=4)


def test_g_exact_mode_small():
    rep = rep_build(2, 0, (2,))
    exact = SY.g_kernel_dim(rep, seed=5, mode="exact")
    flt = SY.g_kernel_dim(rep, seed=5, mode="float")
    assert exact.dimension == flt.dimension == 3  # so(2) + so(2,C)
    assert exact.basis is not None and len(exact.basis) == 3


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
    from cqforms.rng import integer_points

    i, j = 1, 4
    for w in integer_points(8, 12, rep.m):
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


def test_classification_status_table():
    assert SY.classification_status(10, 16) == "degenerate"
    assert SY.classification_status(10, 32) == "exceptional"
    assert SY.classification_status(10, 64) == "generic"
    assert SY.classification_status(2, 2, pure=True) == "degenerate"
    assert SY.classification_status(2, 2, pure=False) == "generic"
