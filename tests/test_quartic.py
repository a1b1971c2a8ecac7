from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqforms import quartic as Q
from cqforms.repkit import CliffordRep, rep_build
from cqforms.rng import integer_points
from cqforms.spmat import int_det
from cqforms.suite import enumerate_cases


def _object_column(w):
    col = np.empty((len(w), 1), dtype=object)
    col[:, 0] = w
    return col


def test_forms_examples():
    rep = rep_build(1, 1, (1, 0, 1, 0))
    assert rep.forms(_object_column([1, 1]))[:, 0].tolist() == [2, 0]
    assert rep.forms(_object_column([0, 0]))[:, 0].tolist() == [0, 0]
    rep22 = rep_build(2, 2, (1,))
    e1 = [1, 0, 0, 0]
    assert rep22.forms(_object_column(e1))[:, 0].tolist() == [int(s[0, 0]) for s in rep22.basis]


def test_expand_coeffs_examples():
    assert Q.expand_coeffs(rep_build(1, 1, (1, 0, 1, 0))).coeffs == {(0, 0, 1, 1): 4}
    assert Q.expand_coeffs(rep_build(2, 1, (1, 0))).is_zero
    assert Q.expand_coeffs(rep_build(1, 0, (1, 0))).coeffs == {(0, 0, 0, 0): 1}


def test_coeff_table_matches_direct_eval():
    for p, q, mults in [(3, 2, (1,)), (2, 2, (2,)), (4, 1, (1, 1)), (5, 0, (1, 0))]:
        rep = rep_build(p, q, mults)
        form = Q.expand_coeffs(rep)
        for w in integer_points(97, 50, rep.m).T.tolist():
            assert form.eval(w) == Q.eval_quartic(rep, w)


def test_eval_grad_hand_example():
    rep = rep_build(1, 1, (1, 0, 1, 0))
    assert Q.eval_quartic(rep, [1, 1]) == 4
    assert Q.grad_quartic(rep, [1, 1]) == [8, 8]
    assert Q.grad_quartic(rep, [0, 0]) == [0, 0]
    # w = (1, 2): grad = (32, 16) and the cubic identity in closed numbers
    assert Q.grad_quartic(rep, [1, 2]) == [32, 16]
    assert Q.eval_quartic(rep, [32, 16]) == 2**20 == 256 * Q.eval_quartic(rep, [1, 2]) ** 3


def test_grad_matches_finite_differences():
    rep = rep_build(2, 2, (2,))
    rng = np.random.default_rng(12)
    form = Q.expand_coeffs(rep)
    for _ in range(5):
        w = rng.integers(-5, 6, size=rep.m).astype(float)
        grad = np.array(Q.grad_quartic(rep, [int(x) for x in w]), dtype=float)
        fd = np.zeros_like(grad)
        h = 1e-4
        for a in range(rep.m):
            wp, wm = w.copy(), w.copy()
            wp[a] += h
            wm[a] -= h
            fp = sum(c * np.prod([wp[i] for i in k]) for k, c in form.coeffs.items())
            fm = sum(c * np.prod([wm[i] for i in k]) for k, c in form.coeffs.items())
            fd[a] = (fp - fm) / (2 * h)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad - fd).max() / scale < 1e-6


DEGENERATE_EXPECTED = [
    ((2, 2), (1,), True),
    ((3, 2), (1,), False),
    ((1, 1), (2, 1, 0, 0), True),
    ((1, 1), (1, 0, 1, 0), False),
    ((9, 1), (1, 0, 0, 0), True),
    ((9, 1), (1, 1, 0, 0), False),
    ((5, 5), (0, 1, 0, 0), True),
]


@pytest.mark.parametrize("pq,mults,expected", DEGENERATE_EXPECTED)
def test_degeneracy(pq, mults, expected):
    rep = rep_build(*pq, mults)
    assert Q.expand_coeffs(rep).is_zero == expected
    assert Q.expected_degenerate(*pq, mults) == expected


def test_square_detect_examples():
    w = Q.square_detect(Q.expand_coeffs(rep_build(1, 1, (1, 0, 1, 0))))
    assert w is not None and w.c == 4
    assert w.mat[0][1] == Fraction(1, 2)  # q = xy, monic leading pair
    w = Q.square_detect(Q.expand_coeffs(rep_build(1, 0, (2, 0))))
    assert w is not None and w.c == 1
    assert Q.square_detect(Q.expand_coeffs(rep_build(3, 2, (2,)))) is None


def test_square_detect_negative_square():
    w = Q.square_detect(Q.expand_coeffs(rep_build(1, 1, (1, 0, 0, 1))))
    assert w is not None and w.c < 0


def test_square_witness_verifies():
    rep = rep_build(3, 2, (1,))
    witness = Q.square_detect(Q.expand_coeffs(rep))
    assert witness is not None
    for w in integer_points(5, 10, rep.m).T.tolist():
        qv = sum(
            Fraction(w[a]) * witness.mat[a][b] * w[b]
            for a in range(rep.m)
            for b in range(rep.m)
        )
        assert witness.c * qv * qv == Q.eval_quartic(rep, w)


def test_square_detect_requires_nonzero():
    with pytest.raises(Q.InvalidInputError):
        Q.square_detect(Q.expand_coeffs(rep_build(2, 2, (1,))))


def test_homaloidal_identity():
    for p, q, mults in [(1, 1, (1, 0, 1, 0)), (3, 2, (1,)), (2, 0, (3,)), (4, 4, (1,))]:
        assert Q.homaloidal_check(rep_build(p, q, mults), trials=20, seed=7)
    # degenerate: both sides vanish
    assert Q.homaloidal_check(rep_build(2, 1, (1, 0)), trials=5, seed=7)


@pytest.mark.parametrize("p,q,mults", [(3, 2, (1,)), (6, 2, (1,)), (4, 0, (2,))])
def test_homaloidal_fails_with_a_negated_column(p, q, mults):
    rep = rep_build(p, q, mults)
    basis = list(rep.basis)
    basis[1] = basis[1].copy()
    basis[1][:, 0] *= -1  # S_2 with its first column negated
    bad = CliffordRep(p, q, mults, tuple(basis), rep.m)
    assert not Q.homaloidal_check(bad, trials=20, seed=7)


def test_pfaffian_examples():
    j2 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    assert Q.pfaffian4(j2) == 1
    assert Q.pfaffian4([[0] * 4 for _ in range(4)]) == 0
    with pytest.raises(Q.InvalidInputError):
        Q.pfaffian4([[0, 1], [1, 0]])
    with pytest.raises(Q.InvalidInputError):
        Q.pfaffian4(np.eye(4).tolist())


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_pfaffian_squares_to_determinant(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(4, 4))
    a = a - a.T
    assert Q.pfaffian4(a.tolist()) ** 2 == int_det(a.tolist())


def test_split32_basis_satisfies_relations():
    mats = Q.split32_basis()
    eye = np.eye(8, dtype=np.int64)
    for i, a in enumerate(mats):
        assert np.array_equal(a, a.T) and np.array_equal(a @ a, eye)
        for j in range(i + 1, 5):
            b = mats[j]
            same_block = (i < 3) == (j < 3)
            want = -b @ a if same_block else b @ a
            assert np.array_equal(a @ b, want), (i, j)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_32_identity(k):
    assert Q.check_32_identity(k, seed=2024)


def test_32_identity_zero_point(monkeypatch):
    # w = 0 is always appended: both sides vanish there
    monkeypatch.setattr(Q, "CHECK32_POINTS", 1)
    assert Q.check_32_identity(1, seed=0)


@pytest.mark.parametrize("k", [1, 2])
def test_32_identity_fails_for_swapped_basis(monkeypatch, k):
    basis = Q.split32_basis()
    basis[0], basis[3] = basis[3], basis[0]
    monkeypatch.setattr(Q, "split32_basis", lambda: basis)
    assert not Q.check_32_identity(k, seed=2024)


# ------------------------------------------------ batched values and gradient


def _point_reference(rep, w):
    """(F, grad F) at one point, one point at a time on an object column."""
    vals, images = rep.forms(_object_column(w), images=True)
    qv = vals[:, 0].tolist()
    coef = np.array([4 * e * v for e, v in zip(rep.eps, qv)], dtype=object)
    grad = (coef @ images[:, :, 0].astype(object)).tolist()
    return sum(e * x * x for e, x in zip(rep.eps, qv)), grad


def _assert_matches_reference(rep, w):
    f, g = Q.quartic_values(rep, w, grad=True)
    assert Q.quartic_values(rep, w).tolist() == f.tolist()
    for c, col in enumerate(np.asarray(w).T.tolist()):
        want_f, want_grad = _point_reference(rep, col)
        assert f[c] == want_f, (rep.p, rep.q, rep.mults, c)
        assert [4 * x for x in g[:, c].tolist()] == want_grad, (rep.p, rep.q, rep.mults, c)
    return f, g


def _quartic_value_cases():
    small = enumerate_cases(max_pq=6, max_m=16)
    large = [c for c in enumerate_cases(max_pq=12, max_m=64) if rep_build(*c).m == 64]
    return small + large


@pytest.mark.parametrize("p,q,mults", _quartic_value_cases())
def test_quartic_values_match_point_reference(p, q, mults):
    rep = rep_build(p, q, mults)
    pts = integer_points(3, 4, rep.m)
    f, g = _assert_matches_reference(rep, pts)
    assert f.dtype == np.int64 and g.dtype == np.int64
    # G has entries up to n m 9^3: F(G) = F^3 leaves int64 on some m = 64 modules
    _assert_matches_reference(rep, g)


def _int64_limit(rep):
    """Largest max|w| with n (m max|w|^2)^2 < 2^63."""
    big = 1
    while rep.n * (rep.m * (big + 1) ** 2) ** 2 < 2**63:
        big += 1
    return big


@pytest.mark.parametrize(
    "p,q,mults", [(1, 0, (1, 0)), (3, 2, (1,)), (6, 2, (1,)), (8, 0, (1,)), (6, 6, (1,))]
)
def test_quartic_values_int64_bound(p, q, mults):
    rep = rep_build(p, q, mults)
    signs = np.random.default_rng(p + q).choice([-1, 1], size=(rep.m, 3))
    for big, dtype in ((_int64_limit(rep), np.int64), (_int64_limit(rep) + 1, object)):
        w = np.concatenate([signs * big, integer_points(4, 3, rep.m)], axis=1)
        w[0, 3:] = big
        f, g = _assert_matches_reference(rep, w)
        assert f.dtype == dtype and g.dtype == dtype


def test_quartic_values_fraction_columns():
    for p, q, mults in [(3, 2, (1,)), (4, 0, (2,))]:
        rep = rep_build(p, q, mults)
        w = np.array(
            [[Fraction(k - 3, k + 2 + c) for c in range(3)] for k in range(rep.m)], dtype=object
        )
        f, g = _assert_matches_reference(rep, w)
        assert f.dtype == object and all(isinstance(v, Fraction) for v in f.tolist())
