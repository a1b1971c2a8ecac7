import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqforms import repkit, spmat
from cqforms.quartic import eval_quartic, expand_coeffs, quad_form_terms
from cqforms.repkit import (
    FORMS_BLOCK,
    MAX_DIM,
    CliffordRep,
    InvalidInputError,
    UnsupportedError,
    canonicalize,
    irrep_basis,
    irrep_catalog,
    pos_clifford_basis,
    rep_build,
    rep_from_json,
    rep_to_json,
    spin_equivariance_check,
    swap_pq,
    verify_relations,
)
from cqforms.spmat import (
    is_signed_permutation,
    kron_word,
    perm_sign_of,
    signed_permutation_matrix,
)
from cqforms.suite import enumerate_cases


def _dense_rep(p, q, mults, basis):
    """The module with the dense basis matrices ``basis``, through perm_sign_of."""
    return CliffordRep(p, q, mults, *perm_sign_of(np.stack(basis)))


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
    fam = signed_permutation_matrix(*pos_clifford_basis(p))
    assert len(fam) == p
    assert fam[0].shape[0] == MIN_DIMS[p]
    assert_anticommuting_family(fam)


def test_family_edge_cases():
    perm, sign = pos_clifford_basis(0)
    assert perm.shape == sign.shape == (0, 1)  # no generators on R^1
    perm, sign = pos_clifford_basis(1)
    assert perm.tolist() == [[0]] and sign.tolist() == [[1]]
    _, twisted = pos_clifford_basis(1, twist=-1)
    assert twisted.tolist() == [[-1]]
    z, x = signed_permutation_matrix(*pos_clifford_basis(2))
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
            mats = signed_permutation_matrix(*irrep_basis(p, q, ci))
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


def test_rep_build_refuses_a_module_above_max_dim():
    assert MAX_DIM == 1 << 10
    assert rep_build(3, 0, (256,)).m == MAX_DIM
    with pytest.raises(InvalidInputError, match="dimension 1028"):
        rep_build(3, 0, (257,))


def test_verify_relations_passes_on_build():
    for p, q, mults in [(2, 2, (1,)), (9, 1, (1, 0, 0, 0)), (3, 2, (2,)), (5, 4, (1, 1))]:
        rep = rep_build(p, q, mults)
        assert verify_relations(rep).ok


def test_verify_relations_detects_tampering():
    rep = rep_build(2, 0, (1,))
    broken = rep.basis[0], -rep.basis[0]
    bad = _dense_rep(rep.p, rep.q, rep.mults, broken)
    report = verify_relations(bad)
    assert not report.ok
    assert any("commutation" in name for name, _ in report.failures)


def test_spin_equivariance():
    for p, q, mults in [(3, 2, (1,)), (2, 2, (2,)), (4, 3, (1,))]:
        assert spin_equivariance_check(rep_build(p, q, mults))


def _spin_equivariance_dense(rep):
    """Reference: the identities as n^3 dense m x m matrix products."""
    n, eps = rep.n, rep.eps
    for i in range(n):
        for j in range(i + 1, n):
            y = rep.basis[i] @ rep.basis[j]
            for k in range(n):
                lhs = y.T @ rep.basis[k] + rep.basis[k] @ y
                want = 0 * lhs
                if k == i:
                    want = 2 * rep.basis[j]
                elif k == j:
                    want = -2 * eps[i] * eps[j] * rep.basis[i]
                if not np.array_equal(lhs, want):
                    return False
    return True


def test_spin_equivariance_matches_dense_products():
    for p, q, mults in enumerate_cases(max_pq=6, max_m=16):
        rep = rep_build(p, q, mults)
        assert spin_equivariance_check(rep) and _spin_equivariance_dense(rep), (p, q, mults)
    # one flipped sign: S_2 stays a signed permutation but breaks the identities
    rep = rep_build(3, 2, (1,))
    basis = [s.copy() for s in rep.basis]
    basis[1][basis[1][:, 0] != 0, 0] *= -1
    bad = _dense_rep(rep.p, rep.q, rep.mults, basis)
    assert not _spin_equivariance_dense(bad)
    assert not spin_equivariance_check(bad)


# ---------------------------------------------------------------------------
# The perm/sign relations and expansion against the dense matrix code
# ---------------------------------------------------------------------------


def _selfduality_points(n):
    """Reference: the fixed sample points the dense self-duality check used."""
    pts = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        pts.append(tuple(e))
    for i in range(n):
        for j in range(i + 1, n):
            e = [0] * n
            e[i], e[j] = 1, 1
            pts.append(tuple(e))
    extras = []
    for vals in [(1, -1), (2, 1), (1, 2), (-1, 2), (2, 2), (2, -1), (-1, -1), (-1, 1)]:
        for i in range(n):
            for j in range(i + 1, n):
                e = [0] * n
                e[i], e[j] = vals
                extras.append(tuple(e))
        if n == 1:
            e = [0] * n
            e[0] = vals[0]
            extras.append(tuple(e))
    pts.extend(extras)
    want = n * (n + 1) // 2 + 8
    while len(pts) < want:
        e = [0] * n
        e[0] = 2
        pts.append(tuple(e))
    return pts[:want]


def _verify_relations_dense(rep):
    """Reference: every relation as dense m x m matrix products."""
    checks = []
    n, m = rep.n, rep.m
    eye = np.eye(m, dtype=np.int64)
    basis = rep.basis

    ok = all(is_signed_permutation(s) for s in basis)
    checks.append(("signed_permutation_entries", ok, "entries in {-1,0,1}, one per row"))
    ok = all(np.array_equal(s, s.T) for s in basis)
    checks.append(("symmetric", ok, "S_i = S_i^T"))
    ok = all(np.array_equal(s @ s, eye) for s in basis)
    checks.append(("involution", ok, "S_i^2 = 1"))

    comm_ok = True
    bad = ""
    for i in range(n):
        for j in range(i + 1, n):
            ab = basis[i] @ basis[j]
            ba = basis[j] @ basis[i]
            same_block = (i < rep.p) == (j < rep.p)
            want = -ba if same_block else ba
            if not np.array_equal(ab, want):
                comm_ok = False
                bad = f"pair ({i},{j})"
    checks.append(
        ("commutation_pattern", comm_ok, bad or "anticommute within blocks, commute across")
    )

    sd_ok = True
    bad = ""
    for v in _selfduality_points(n):
        sv = sum(int(c) * s for c, s in zip(v, basis))
        sve = sum(e * int(c) * s for e, c, s in zip(rep.eps, v, basis))
        pv = sum(e * int(c) * int(c) for e, c in zip(rep.eps, v))
        if not np.array_equal(sv @ sve, pv * eye):
            sd_ok = False
            bad = f"v = {v}"
            break
    checks.append(("self_duality", sd_ok, bad or "S(v) S^eps(v) = P(v) 1 at sample points"))

    cat = irrep_catalog(rep.p, rep.q)
    ok = rep.m == sum(rep.mults) * cat.dim and len(rep.mults) == cat.count
    checks.append(("dimension_bookkeeping", ok, f"m = {rep.m}"))
    return checks


def _expand_coeffs_dense(rep):
    """Reference: the quartic's monomials from the upper triangles of the S_i."""
    coeffs = {}
    for eps, s in zip(rep.eps, rep.basis):
        terms = list(quad_form_terms(s.tolist()).items())
        for t1, ((a, b), c1) in enumerate(terms):
            for (cc, dd), c2 in terms[t1:]:
                key = tuple(sorted((a, b, cc, dd)))
                coeffs[key] = coeffs.get(key, 0) + eps * c1 * c2 * (1 if (a, b) == (cc, dd) else 2)
    return {k: v for k, v in coeffs.items() if v}


SMALL_REPS = [rep_build(p, q, mults) for p, q, mults in enumerate_cases(max_pq=6, max_m=16)]


def test_rep_stores_only_perm_and_sign():
    rep = rep_build(3, 2, (2,))
    assert set(vars(rep)) == {"p", "q", "mults", "m", "perm", "sign"}
    assert rep.perm.shape == rep.sign.shape == (rep.n, rep.m)
    assert rep.basis is not rep.basis  # built on each call, never cached
    assert "basis" not in vars(rep)


@pytest.mark.parametrize("rep", SMALL_REPS, ids=lambda r: f"({r.p},{r.q})x{r.mults}")
def test_perm_sign_code_matches_dense_code(rep):
    assert verify_relations(rep).checks == _verify_relations_dense(rep)
    assert _dense_rep(rep.p, rep.q, rep.mults, rep.basis) == rep
    perm, sign = perm_sign_of(np.stack(rep.basis))
    assert np.array_equal(perm, rep.perm) and np.array_equal(sign, rep.sign)
    form = expand_coeffs(rep)
    assert form.coeffs == _expand_coeffs_dense(rep)
    assert list(form.coeffs) == list(_expand_coeffs_dense(rep))  # same monomial order


@given(
    st.sampled_from(SMALL_REPS),
    st.sampled_from(["flip", "copy", "negated copy", "swap", "swap across", "random"]),
    st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_verify_relations_matches_dense_code_on_tampered_modules(rep, how, seed):
    # every variant stays a family of signed permutations
    rng = np.random.default_rng(seed)
    basis = [s.copy() for s in rep.basis]
    i, j = (int(k) for k in rng.choice(rep.n, size=2, replace=rep.n == 1))
    if how == "flip":
        a = int(rng.integers(rep.m))
        basis[i][:, a] *= -1
    elif how in ("copy", "negated copy"):
        basis[j] = basis[i] if how == "copy" else -basis[i]
    elif how == "swap":
        basis[i], basis[j] = basis[j], basis[i]
    elif how == "swap across":
        if rep.p and rep.q:  # one generator from each side of the p/q split
            i, j = int(rng.integers(rep.p)), rep.p + int(rng.integers(rep.q))
            basis[i], basis[j] = basis[j], basis[i]
    else:
        basis[j] = np.zeros_like(basis[j])
        basis[j][rng.permutation(rep.m), np.arange(rep.m)] = rng.choice([-1, 1], size=rep.m)
    bad = _dense_rep(rep.p, rep.q, rep.mults, basis)
    assert verify_relations(bad).checks == _verify_relations_dense(bad)
    if verify_relations(bad).checks[1][1]:  # symmetric: the upper triangles suffice
        assert expand_coeffs(bad).coeffs == _expand_coeffs_dense(bad)
    w = rng.integers(-9, 10, size=rep.m).tolist()  # symmetric or not, S_i[w] = w^T S_i w
    assert expand_coeffs(bad).eval(w) == eval_quartic(bad, w)


def test_swap_pq_negates_quartic():
    rep = rep_build(3, 2, (1,))
    swapped = swap_pq(rep)
    assert (swapped.p, swapped.q) == (2, 3)
    w = list(range(1, 9))
    assert eval_quartic(swapped, w) == -eval_quartic(rep, w)
    dense = rep.basis
    assert all(np.array_equal(a, b) for a, b in zip(swapped.basis, dense[rep.p :] + dense[: rep.p]))
    assert swap_pq(swapped) == rep


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


def _canonicalize_dense(rep):
    """Reference: both conjugations as dense m x m products, and the blocks
    cut from the dense result."""
    m, d = rep.m, rep.m // 2
    order = np.argsort(-np.diag(rep.basis[0]), kind="stable")
    u = np.zeros((m, m), dtype=np.int64)
    u[np.arange(m), order] = 1
    basis = [u @ s @ u.T for s in rep.basis]
    v = np.zeros((m, m), dtype=np.int64)
    v[:d, :d] = np.eye(d, dtype=np.int64)
    v[d:, d:] = basis[1][:d, d:]
    basis = [v @ s @ v.T for s in basis]
    return basis, [s[:d, :d] for s in basis[rep.p :]], [s[:d, d:] for s in basis[1 : rep.p]]


def _same_matrices(got, want):
    return len(got) == len(want) and all(np.array_equal(x, y) for x, y in zip(got, want))


def test_canonicalize_matches_the_dense_conjugation():
    cases = [case for case in enumerate_cases(max_pq=12, max_m=64, max_total_mult=3) if case[0] >= 2]
    assert len(cases) == 286
    for p, q, mults in cases:
        rep = rep_build(p, q, mults)
        can, a_list, b_list = canonicalize(rep)
        basis, want_a, want_b = _canonicalize_dense(rep)
        assert (can.p, can.q, can.mults, can.m) == (p, q, mults, rep.m)
        assert _same_matrices(can.basis, basis), (p, q, mults)
        assert _same_matrices(a_list, want_a) and _same_matrices(b_list, want_b), (p, q, mults)


def test_canonicalize_at_m_512_is_fast():
    rep = rep_build(6, 2, (16,))
    assert rep.m == 512
    start = time.perf_counter()
    can, a_list, b_list = canonicalize(rep)
    assert time.perf_counter() - start < 1.0
    assert len(a_list) == 2 and len(b_list) == 5 and a_list[0].shape == (256, 256)


def test_canonicalize_needs_p_at_least_2():
    with pytest.raises(UnsupportedError):
        canonicalize(rep_build(1, 1, (1, 0, 1, 0)))


def test_json_roundtrip_bit_exact():
    rep = rep_build(4, 3, (1,))
    again = rep_from_json(rep_to_json(rep))
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


def test_forms_fraction_column():
    rep = rep_build(3, 2, (1,))
    w = [Fraction(k - 3, k + 2) for k in range(rep.m)]
    col = np.empty((rep.m, 1), dtype=object)
    col[:, 0] = w
    got = rep.forms(col)[:, 0].tolist()
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
    s = signed_permutation_matrix(*kron_word("XZ1XZX1Z"))  # a symmetric involution
    rep = _dense_rep(1, 0, (), (s,))
    _assert_row_sum_rounding(rep, np.random.default_rng(5).standard_normal((256, 64)))


def test_forms_scatter_on_non_symmetric_signed_permutation():
    rng = np.random.default_rng(4)
    m = 12
    s = np.zeros((m, m), dtype=np.int64)
    s[rng.permutation(m), np.arange(m)] = rng.choice([-1, 1], size=m)
    assert not np.array_equal(s, s.T)
    rep = _dense_rep(1, 0, (), (s,))
    w = rng.integers(-9, 10, size=(m, 7))
    vals, images = rep.forms(w, images=True)
    assert np.array_equal(images[0], s @ w)
    assert vals[0].tolist() == [_dense_form(s, col) for col in _columns(w)]


def _same_output(a, b):
    """Equal dtype, shape and bytes (or Python values for object arrays)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert a.tolist() == b.tolist()
    else:
        assert a.tobytes() == b.tobytes()


def _inputs(rep, count, seed):
    """(count, m) float64, int64 and object (Python int) arrays, each passed
    as its strided .T."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(-9, 10, size=(count, rep.m))
    return rng.standard_normal((count, rep.m)).T, ints.T, ints.astype(object).T


def _assert_layout_free(rep, w):
    vals, images = rep.forms(w, images=True)
    want_vals, want_images = rep.forms(np.ascontiguousarray(w), images=True)
    _same_output(vals, want_vals)
    _same_output(images, want_images)


def test_forms_strided_input_matches_contiguous():
    rep = rep_build(6, 2, (1,))
    wf, wi, wo = _inputs(rep, 40, 6)
    for w in (wf, wi, wo, wo / Fraction(7)):
        assert not w.flags.c_contiguous
        _assert_layout_free(rep, w)


@pytest.mark.parametrize("args", [(6, 2, (1,)), (3, 1, (1, 1))])
def test_forms_block_edges(args):
    rep = rep_build(*args)
    step = max(1, FORMS_BLOCK // (rep.m * rep.n))
    for count in (1, step - 1, step, step + 1, 3 * step + 5):
        wf, wi, wo = _inputs(rep, count, count)
        for w in (wf, wi, wo):
            _assert_layout_free(rep, w)
        _assert_row_sum_rounding(rep, wf)
        vals, images = rep.forms(wi, images=True)
        for i, s in enumerate(rep.basis):  # exact in int64: S_i w and w . S_i w
            assert np.array_equal(images[i], s @ wi)
            assert np.array_equal(vals[i], (wi * (s @ wi)).sum(axis=0))
        ovals, oimages = rep.forms(wo, images=True)
        assert ovals.tolist() == vals.tolist() and oimages.tolist() == images.tolist()


@pytest.mark.parametrize(
    "basis, m",
    [
        ((np.eye(2, dtype=np.int64),), 2),  # fewer than p + q matrices
        ((np.eye(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64)), 2),
        ((np.eye(2, dtype=np.int64), np.eye(3, dtype=np.int64)), 2),
    ],
)
def test_clifford_rep_rejects_malformed_basis(basis, m):
    # a module file is the one dense input
    text = json.dumps({"p": 2, "q": 0, "mults": [1], "m": m, "basis": [b.tolist() for b in basis]})
    if len(basis) < 2:
        want = "needs p [+] q >= 1 basis matrices, got 1"
    else:
        want = f"every basis matrix must be an {m} x {m} signed permutation"
    with pytest.raises(InvalidInputError, match=want):
        rep_from_json(text)


def test_clifford_rep_refuses_dense_matrices():
    rep = rep_build(3, 2, (1,))
    with pytest.raises(InvalidInputError, match="perm and sign must be"):
        CliffordRep(rep.p, rep.q, rep.mults, rep.basis, rep.m)


def test_from_perm_sign_copies_and_freezes():
    perm, sign = np.array([[1, 0]]), np.array([[1, 1]])
    rep = CliffordRep(1, 0, (1,), perm, sign)
    assert rep == _dense_rep(1, 0, (1,), (np.array([[0, 1], [1, 0]]),))
    perm[0, 0] = 0  # the module owns its arrays
    assert rep.perm.tolist() == [[1, 0]] and not rep.perm.flags.writeable


@pytest.mark.parametrize(
    "p, q, perm, sign",
    [
        (1, 0, [[0, 0]], [[1, 1]]),  # a row that is not a permutation
        (1, 0, [[0, 2]], [[1, 1]]),  # an index out of range
        (1, 0, [[1, 0]], [[1, 0]]),  # a sign that is not +-1
        (2, 0, [[1, 0]], [[1, 1]]),  # fewer than p + q rows
        (1, 0, [[1, 0]], [[1, 1, 1]]),  # shapes differ
        (1, 0, [1, 0], [1, 1]),  # not a stack
        (0, 0, np.zeros((0, 2)), np.zeros((0, 2))),  # p + q = 0
    ],
)
def test_from_perm_sign_rejects_malformed_arrays(p, q, perm, sign):
    with pytest.raises(InvalidInputError):
        CliffordRep(p, q, (1,), perm, sign)


# ---------------------------------------------------------------------------
# Construction against the dense Kronecker-product code it replaced
# ---------------------------------------------------------------------------

_DENSE_BLOCKS = {
    "1": np.array([[1, 0], [0, 1]], dtype=np.int64),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "T": np.array([[0, -1], [1, 0]], dtype=np.int64),
}


def _dense_kron_word(word):
    out = np.array([[1]], dtype=np.int64)
    for ch in word:
        out = np.kron(out, _DENSE_BLOCKS[ch])
    return out


def _dense_restrict_to_eigenspace(mats, z, keep):
    """Reference: one (indices, coefficients) eigenvector per fixed point or
    2-cycle of z, each image matched against the basis one vector at a time."""
    perm, sign = perm_sign_of(z)
    assert np.array_equal(z, z.T)
    basis = []
    for a in range(len(perm)):
        b = int(perm[a])
        if b == a:
            if int(sign[a]) == keep:
                basis.append(((a,), (1,)))
        elif a < b:
            basis.append(((a, b), (1, keep * int(sign[a]))))
    support = {v[0][0]: i for i, v in enumerate(basis)}
    out = []
    for s_mat in mats:
        sperm, ssign = perm_sign_of(s_mat)
        r = np.zeros((len(basis), len(basis)), dtype=np.int64)
        for col, (idxs, coefs) in enumerate(basis):
            img = {int(sperm[i]): c * int(ssign[i]) for i, c in zip(idxs, coefs)}
            lead = min(img)
            ref = dict(zip(*basis[support[lead]]))
            ratio = img[lead] // ref[lead]
            assert {k: v * ratio for k, v in ref.items()} == img
            r[support[lead], col] = ratio
        out.append(r)
    return out


def _dense_pos_clifford_basis(p, twist=1):
    if p == 0:
        return ()
    if p <= 8:
        mats = [_dense_kron_word(w) for w in repkit._FAMILY_WORDS[p]]
    else:
        inner = _dense_pos_clifford_basis(p - 8)
        octet = [_dense_kron_word(w) for w in repkit._FAMILY_WORDS[8]]
        ohat = octet[0]
        for f in octet[1:]:
            ohat = ohat @ f
        eye = np.eye(inner[0].shape[0], dtype=np.int64)
        mats = [np.kron(eye, f) for f in octet] + [np.kron(e, ohat) for e in inner]
    return tuple(twist * m for m in mats)


def _dense_central_structure(p):
    fam = _dense_pos_clifford_basis(p)
    out = fam[0]
    for e in fam[1:]:
        out = out @ e
    return out


def _dense_quaternion_structures(p):
    if p <= 8:
        return tuple(_dense_kron_word(w) for w in repkit._QUATERNION_WORDS[p])
    eye = np.eye(16, dtype=np.int64)
    return tuple(np.kron(j, eye) for j in _dense_quaternion_structures(p - 8))


def _dense_splitting_involutions(p, q):
    kp, kq = repkit._commutant_type(p), repkit._commutant_type(q)
    if (kp, kq) == ("C", "C"):
        return [np.kron(_dense_central_structure(p), _dense_central_structure(q))]
    if (kp, kq) == ("C", "H"):
        return [np.kron(_dense_central_structure(p), _dense_quaternion_structures(q)[0])]
    if (kp, kq) == ("H", "C"):
        return [np.kron(_dense_quaternion_structures(p)[0], _dense_central_structure(q))]
    jp1, jp2 = _dense_quaternion_structures(p)
    jq1, jq2 = _dense_quaternion_structures(q)
    return [np.kron(jp1, jq1), np.kron(jp2, jq2)]


def _dense_irrep_basis(p, q, class_index):
    te, tf, sector = repkit._class_descriptors(p, q)[class_index]
    efam = _dense_pos_clifford_basis(p, te)
    ffam = _dense_pos_clifford_basis(q, tf)
    eyep = np.eye(efam[0].shape[0] if efam else 1, dtype=np.int64)
    eyeq = np.eye(ffam[0].shape[0] if ffam else 1, dtype=np.int64)
    mats = [np.kron(e, eyeq) for e in efam] + [np.kron(eyep, f) for f in ffam]
    if sector is not None:
        splits = _dense_splitting_involutions(p, q)
        keeps = [sector] + [1] * (len(splits) - 1)
        while splits:
            restricted = _dense_restrict_to_eigenspace(mats + splits[1:], splits[0], keeps[0])
            mats, splits, keeps = restricted[: p + q], restricted[p + q :], keeps[1:]
    return tuple(mats)


def _dense_rep_build(p, q, mults):
    """Reference: the block-diagonal dense basis of rep_build."""
    blocks = [_dense_irrep_basis(p, q, ci) for ci, k in enumerate(mults) for _ in range(k)]
    m = sum(b[0].shape[0] for b in blocks)
    basis = []
    for i in range(p + q):
        s = np.zeros((m, m), dtype=np.int64)
        off = 0
        for blk in blocks:
            d = blk[i].shape[0]
            s[off : off + d, off : off + d] = blk[i]
            off += d
        basis.append(s)
    return basis


def _dense_json(p, q, mults, basis):
    return json.dumps(
        {"p": p, "q": q, "mults": list(mults), "m": len(basis[0]), "basis": [s.tolist() for s in basis]}
    )


def test_irreducibles_match_dense_construction():
    count = 0
    for n in range(1, 13):
        for p in range(n + 1):
            for ci in range(irrep_catalog(p, n - p).count):
                perm, sign = perm_sign_of(np.stack(_dense_irrep_basis(p, n - p, ci)))
                got = irrep_basis(p, n - p, ci)
                assert np.array_equal(got[0], perm) and np.array_equal(got[1], sign), (p, n - p, ci)
                assert not got[0].flags.writeable and not got[1].flags.writeable
                count += 1
    assert count == 147


def test_modules_and_swaps_match_dense_construction():
    cases = enumerate_cases(max_pq=12, max_m=64, max_total_mult=3)
    assert len(cases) == 329
    for p, q, mults in cases:
        basis = _dense_rep_build(p, q, mults)
        rep = rep_build(p, q, mults)
        perm, sign = perm_sign_of(np.stack(basis))
        assert np.array_equal(rep.perm, perm) and np.array_equal(rep.sign, sign)
        assert rep_to_json(rep) == _dense_json(p, q, mults, basis)
        assert rep_to_json(swap_pq(rep)) == _dense_json(q, p, mults, basis[p:] + basis[:p])


@pytest.mark.parametrize(
    "z, words",
    [
        # XZ (x) ZX (x) 1 (x) 1 up to sign: signed 2-cycles only
        (("XZXT", "ZXXT"), ("XXZ1", "ZZ1T", "T1XX", "1TZZ")),
        # Z (x) 1 (x) Z (x) Z: fixed points of both signs
        (("Z1ZZ",), ("X1X1", "1T11", "ZX1Z", "T1TZ")),
    ],
)
def test_restrict_to_eigenspace_matches_dense_code(z, words):
    z = np.linalg.multi_dot([_dense_kron_word(w) for w in z + ("1111",)])
    mats = [_dense_kron_word(w) for w in words]
    for keep in (1, -1):
        want = perm_sign_of(np.stack(_dense_restrict_to_eigenspace(mats, z, keep)))
        got = spmat.restrict_to_eigenspace(perm_sign_of(np.stack(mats)), perm_sign_of(z), keep)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), keep


def test_construction_builds_no_dense_matrix(monkeypatch):
    def refuse(*_):
        raise AssertionError("dense matrix in module construction")

    for mod in (repkit, spmat):
        monkeypatch.setattr(mod, "perm_sign_of", refuse)
        monkeypatch.setattr(mod, "signed_permutation_matrix", refuse)
    for cached in (repkit.pos_clifford_basis, repkit._central_structure,
                   repkit._quaternion_structures, repkit.irrep_basis):
        cached.cache_clear()
    for p, q, mults in enumerate_cases(max_pq=12, max_m=64):
        rep = rep_build(p, q, mults)
        assert swap_pq(rep).perm.shape == (p + q, rep.m)
