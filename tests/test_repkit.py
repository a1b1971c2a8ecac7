import itertools
from fractions import Fraction

import numpy as np
import pytest

from cqforms.quartic import quadratic_map
from cqforms.repkit import (
    CliffordRep,
    InvalidInputError,
    UnsupportedError,
    canonicalize,
    irrep_basis,
    irrep_catalog,
    pos_clifford_basis,
    rep_build,
    rep_from_json,
    rep_from_text,
    rep_to_json,
    rep_to_text,
    selfduality_points,
    spin_equivariance_check,
    swap_pq,
    verify_relations,
)
from cqforms.spmat import is_signed_permutation, kron_word


def assert_anticommuting_family(fam):
    d = fam[0].shape[0]
    eye = np.eye(d, dtype=np.int64)
    for i, a in enumerate(fam):
        assert np.array_equal(a, a.T)
        assert np.array_equal(a @ a, eye)
        assert is_signed_permutation(a)
        for b in fam[i + 1 :]:
            assert np.array_equal(a @ b, -b @ a)


MIN_DIMS = {1: 1, 2: 2, 3: 4, 4: 8, 5: 8, 6: 16, 7: 16, 8: 16, 9: 16, 10: 32, 11: 64, 12: 128}


@pytest.mark.parametrize("p", range(1, 13))
def test_generator_families(p):
    fam = pos_clifford_basis(p)
    assert len(fam) == p
    assert fam[0].shape[0] == MIN_DIMS[p]
    assert_anticommuting_family(fam)


def test_family_edge_cases():
    assert pos_clifford_basis(0) == ()
    assert pos_clifford_basis(1) == (np.array([[1]]),)
    twisted = pos_clifford_basis(1, twist=-1)
    assert twisted[0][0, 0] == -1
    z, x = pos_clifford_basis(2)
    assert np.array_equal(z, np.diag([1, -1]))
    assert np.array_equal(x, np.array([[0, 1], [1, 0]]))


CATALOG_CASES = [
    # (p, q, count, dim): spot values from the structure table
    (3, 2, 1, 8),
    (1, 1, 4, 1),
    (9, 1, 4, 16),
    (2, 1, 2, 2),
    (5, 0, 2, 8),
    (3, 3, 2, 8),
    (5, 4, 2, 16),
    (7, 3, 2, 32),
    (6, 4, 1, 32),
    (10, 1, 2, 32),
    (12, 0, 1, 128),
]


@pytest.mark.parametrize("p,q,count,dim", CATALOG_CASES)
def test_irrep_catalog(p, q, count, dim):
    cat = irrep_catalog(p, q)
    assert cat.count == count
    assert cat.dim == dim
    assert cat.dim & (cat.dim - 1) == 0  # power of two


def test_catalog_rejects_trivial():
    with pytest.raises(InvalidInputError):
        irrep_catalog(0, 0)


def test_irrep_classes_distinct():
    for p, q in [(1, 1), (2, 1), (5, 0), (3, 3), (9, 1), (5, 1)]:
        cat = irrep_catalog(p, q)
        fingerprints = set()
        for ci in range(cat.count):
            mats = irrep_basis(p, q, ci)
            fp = []
            for mask in range(1 << len(mats)):
                prod = np.eye(cat.dim, dtype=np.int64)
                for j in range(len(mats)):
                    if mask >> j & 1:
                        prod = prod @ mats[j]
                fp.append(int(np.trace(prod)))
            fingerprints.add(tuple(fp))
        assert len(fingerprints) == cat.count


def test_rep_build_11_block_form():
    rep = rep_build(1, 1, (1, 0, 1, 0))
    assert rep.m == 2
    assert np.array_equal(rep.basis[0], np.diag([1, 1]))
    assert np.array_equal(rep.basis[1], np.diag([1, -1]))


def test_rep_build_input_validation():
    with pytest.raises(InvalidInputError):
        rep_build(2, 2, (1, 1))  # wrong length
    with pytest.raises(InvalidInputError):
        rep_build(2, 2, (0,))  # all zero
    with pytest.raises(InvalidInputError):
        rep_build(1, 2, (1, 0))  # p < q


def test_verify_relations_passes_on_build():
    for p, q, mults in [(2, 2, (1,)), (9, 1, (1, 0, 0, 0)), (3, 2, (2,)), (5, 4, (1, 1))]:
        rep = rep_build(p, q, mults)
        assert verify_relations(rep).ok


def test_verify_relations_detects_tampering():
    rep = rep_build(2, 0, (1,))
    broken = rep.basis[0], -rep.basis[0]
    bad = type(rep)(rep.p, rep.q, rep.mults, broken, rep.m)
    report = verify_relations(bad)
    assert not report.ok
    assert any("commutation" in name for name, _ in report.failures)


def test_selfduality_points_count():
    for n in (1, 2, 5, 11):
        pts = selfduality_points(n)
        assert len(pts) == n * (n + 1) // 2 + 8
        assert all(sum(1 for c in v if c) <= 2 for v in pts)


def test_spin_equivariance():
    for p, q, mults in [(3, 2, (1,)), (2, 2, (2,)), (4, 3, (1,))]:
        assert spin_equivariance_check(rep_build(p, q, mults))


def test_swap_pq_negates_quartic():
    from cqforms.quartic import eval_quartic

    rep = rep_build(3, 2, (1,))
    swapped = swap_pq(rep)
    assert (swapped.p, swapped.q) == (2, 3)
    w = list(range(1, 9))
    assert eval_quartic(swapped, w) == -eval_quartic(rep, w)


def test_canonicalize_block_shapes():
    rep = rep_build(3, 2, (1,))
    can, a_list, b_list = canonicalize(rep)
    d = rep.m // 2
    assert np.array_equal(can.basis[0], np.diag([1] * d + [-1] * d))
    assert np.array_equal(b_list[0], np.eye(d, dtype=np.int64))
    b3 = b_list[1]
    assert np.array_equal(b3.T, -b3)
    assert np.array_equal(b3 @ b3.T, np.eye(d, dtype=np.int64))
    a1, a2 = a_list
    assert np.array_equal(a1 @ a2, -a2 @ a1)
    assert verify_relations(can).ok


def test_canonicalize_small_cases():
    rep = rep_build(2, 0, (1,))
    can, _, b_list = canonicalize(rep)
    assert np.array_equal(can.basis[0], np.diag([1, -1]))
    assert np.array_equal(b_list[0], np.array([[1]]))
    rep = rep_build(2, 1, (1, 1))
    _, a_list, _ = canonicalize(rep)
    assert np.array_equal(a_list[0], np.diag([1, -1]))


def test_canonicalize_idempotent():
    rep = rep_build(5, 4, (1, 0))
    can, a1, b1 = canonicalize(rep)
    can2, a2, b2 = canonicalize(can)
    assert all(np.array_equal(x, y) for x, y in zip(a1, a2))
    assert all(np.array_equal(x, y) for x, y in zip(b1, b2))


def test_canonicalize_needs_p_at_least_2():
    with pytest.raises(UnsupportedError):
        canonicalize(rep_build(1, 1, (1, 0, 1, 0)))


def test_json_roundtrip_bit_exact():
    rep = rep_build(4, 3, (1,))
    again = rep_from_json(rep_to_json(rep))
    assert again == rep


def test_text_roundtrip():
    rep = rep_build(2, 2, (2,))
    again = rep_from_text(rep_to_text(rep), 2, 2, (2,))
    assert again == rep


def test_all_small_reps_verify():
    count = 0
    for n in range(1, 8):
        for q in range(0, n // 2 + 1):
            p = n - q
            cat = irrep_catalog(p, q)
            for mults in itertools.product(range(2), repeat=cat.count):
                if sum(mults) != 1 or cat.dim > 16:
                    continue
                assert verify_relations(rep_build(p, q, mults)).ok
                count += 1
    assert count > 10


def test_unit_multiplicity_reps_verify_up_to_rank_12():
    # every irreducible class by itself, for all signatures with p + q <= 12
    for n in range(1, 13):
        for q in range(0, n // 2 + 1):
            p = n - q
            cat = irrep_catalog(p, q)
            for ci in range(cat.count):
                mults = tuple(1 if i == ci else 0 for i in range(cat.count))
                rep = rep_build(p, q, mults)
                assert rep.m == cat.dim
                assert verify_relations(rep).ok, (p, q, mults)


# ---------------------------------------------------------------------------
# The S_i[w] kernel against a dense Python-number oracle
# ---------------------------------------------------------------------------


def _dense_form(s, w):
    """w^T S w by a dense double loop over Python numbers."""
    m = len(w)
    return sum(w[a] * int(s[a, b]) * w[b] for a in range(m) for b in range(m))


def _dense_image(s, w):
    return [sum(int(s[a, b]) * w[b] for b in range(len(w))) for a in range(len(w))]


def _columns(w):
    return [list(col) for col in w.T.tolist()]


def test_forms_int64_branch():
    rep = rep_build(5, 2, (0, 1))
    w = np.random.default_rng(1).integers(-50, 51, size=(rep.m, 40))
    vals, images = rep.forms(w, images=True)
    assert vals.dtype == np.int64 and images.dtype == np.int64
    for i, s in enumerate(rep.basis):
        for k, col in enumerate(_columns(w)):
            assert vals[i, k] == _dense_form(s, col)
            assert images[i, :, k].tolist() == _dense_image(s, col)


def test_forms_object_branch_where_int64_would_wrap():
    # entries of 2^31 at m = 32: m max|w|^2 = 2^67, so int64 would wrap
    rep = rep_build(1, 0, (32, 0))  # S_1 = identity, S_1[w] = |w|^2
    rep62 = rep_build(6, 2, (1,))
    signs = np.random.default_rng(2).choice([-1, 1], size=(32, 6))
    w = (signs * 2**31).astype(object)
    w[:, 0] = 2**31
    for r in (rep, rep62):
        vals = r.forms(w)
        assert vals.dtype == object
        want = [[_dense_form(s, col) for col in _columns(w)] for s in r.basis]
        assert vals.tolist() == want
    assert rep.forms(w)[0, 0] == 32 * 2**62 >= 2**63


def test_quadratic_map_fraction_input():
    rep = rep_build(3, 2, (1,))
    w = [Fraction(k - 3, k + 2) for k in range(rep.m)]
    got = quadratic_map(rep, w)
    assert got == [_dense_form(s, w) for s in rep.basis]
    assert all(isinstance(v, Fraction) for v in got)


def test_forms_float_branch():
    rep = rep_build(6, 2, (1,))
    w = np.random.default_rng(3).standard_normal((rep.m, 12))
    vals = rep.forms(w)
    assert vals.dtype == np.float64
    for i, s in enumerate(rep.basis):
        for k, col in enumerate(_columns(w)):
            want = float(_dense_form(s, [Fraction(x) for x in col]))
            assert abs(vals[i, k] - want) <= 1e-12 * max(1.0, abs(want))
        _assert_row_sum_rounding(rep, w)


def _assert_row_sum_rounding(rep, w):
    # float sums round exactly as the row sums of the (count, m) layout do
    wc = np.ascontiguousarray(w.T)
    for s, vals in zip(rep.basis, rep.forms(w)):
        assert np.array_equal(vals, (wc * (wc @ s.T.astype(float))).sum(axis=1))


def test_forms_float_rounding_beyond_128_coordinates():
    s = kron_word("XZ1XZX1Z")  # a symmetric signed-permutation involution
    rep = CliffordRep(1, 0, (), (s,), 256)
    _assert_row_sum_rounding(rep, np.random.default_rng(5).standard_normal((256, 64)))


def test_forms_scatter_on_non_symmetric_signed_permutation():
    rng = np.random.default_rng(4)
    m = 12
    s = np.zeros((m, m), dtype=np.int64)
    s[rng.permutation(m), np.arange(m)] = rng.choice([-1, 1], size=m)
    assert not np.array_equal(s, s.T)
    rep = CliffordRep(1, 0, (), (s,), m)
    w = rng.integers(-9, 10, size=(m, 7))
    vals, images = rep.forms(w, images=True)
    assert np.array_equal(images[0], s @ w)
    assert vals[0].tolist() == [_dense_form(s, col) for col in _columns(w)]


@pytest.mark.parametrize(
    "basis, m",
    [
        ((np.eye(2, dtype=np.int64),), 2),  # fewer than p + q matrices
        ((np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)), 2),
        ((np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)), 2),
    ],
)
def test_clifford_rep_rejects_malformed_basis(basis, m):
    with pytest.raises(InvalidInputError):
        CliffordRep(2, 0, (1,), basis, m)


def test_rep_from_text_rejects_malformed_text():
    with pytest.raises(InvalidInputError):
        rep_from_text("2\n1 0\n0 x\n", 1, 0)
    with pytest.raises(InvalidInputError):
        rep_from_text("2\n1 0\n0 1\n", 2, 0)
