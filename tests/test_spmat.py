import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqforms import symlie as SY
from cqforms.repkit import rep_build
from cqforms.spmat import (
    SectorDecomposition,
    _admitted_characters,
    int_det,
    is_signed_permutation,
    kron_word,
    perm_sign_of,
    restrict_to_eigenspace,
    signed_permutation_matrix,
    sp_eye,
    sp_inv,
    sp_kron,
    sp_mul,
    symmetric_signature,
)
from cqforms.suite import enumerate_cases


def random_signed_perm(rng, n):
    perm = rng.permutation(n)
    sign = rng.choice([-1, 1], size=n)
    mat = np.zeros((n, n), dtype=np.int64)
    mat[perm, np.arange(n)] = sign
    return mat


def test_kron_word_blocks():
    assert np.array_equal(signed_permutation_matrix(*kron_word("Z")), np.diag([1, -1]))
    assert np.array_equal(signed_permutation_matrix(*kron_word("T")), [[0, -1], [1, 0]])
    assert kron_word("XT")[0].shape == (4,)
    assert is_signed_permutation(signed_permutation_matrix(*kron_word("XZT")))


def test_sp_kron_and_sp_mul_match_dense_products():
    rng = np.random.default_rng(3)
    a = perm_sign_of(np.stack([random_signed_perm(rng, 3) for _ in range(4)]))
    b = perm_sign_of(np.stack([random_signed_perm(rng, 2) for _ in range(4)]))
    c = perm_sign_of(np.stack([random_signed_perm(rng, 3) for _ in range(4)]))
    dense = [signed_permutation_matrix(*x) for x in (a, b, c)]
    # stacks pair off row by row, and a single matrix broadcasts over a stack
    kron = signed_permutation_matrix(*sp_kron(a, b))
    assert np.array_equal(kron, [np.kron(x, y) for x, y in zip(dense[0], dense[1])])
    kron = signed_permutation_matrix(*sp_kron(sp_eye(2), a))
    assert np.array_equal(kron, [np.kron(np.eye(2, dtype=np.int64), x) for x in dense[0]])
    assert np.array_equal(signed_permutation_matrix(*sp_mul(a, c)), dense[0] @ dense[2])
    first = (a[0][0], a[1][0])
    assert np.array_equal(signed_permutation_matrix(*sp_mul(first, c)), dense[0][0] @ dense[2])
    # the inverse is the transpose, of one matrix and of every matrix of a stack
    assert np.array_equal(signed_permutation_matrix(*sp_inv(a)), dense[0].transpose(0, 2, 1))
    assert np.array_equal(signed_permutation_matrix(*sp_inv(first)), dense[0][0].T)


def test_perm_sign_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        mat = random_signed_perm(rng, 7)
        perm, sign = perm_sign_of(mat)
        rebuilt = np.zeros_like(mat)
        rebuilt[perm, np.arange(7)] = sign
        assert np.array_equal(rebuilt, mat)


@given(st.integers(2, 5), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_int_det_against_numpy(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-4, 5, size=(n, n))
    assert int_det(mat.tolist()) == round(float(np.linalg.det(mat)))


@given(st.integers(2, 6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_signature_counts_eigenvalues(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(-3, 4, size=(n, n))
    sym = mat + mat.T
    plus, minus = symmetric_signature(sym.tolist())
    eig = np.linalg.eigvalsh(sym.astype(float))
    assert plus == int((eig > 1e-9).sum())
    assert minus == int((eig < -1e-9).sum())


def test_signature_zero_diagonal_plane():
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0)


def _stack(*words):
    perms, signs = zip(*(kron_word(w) for w in words))
    return np.stack(perms), np.stack(signs)


def test_restrict_to_eigenspace_exact():
    z = kron_word("XZ")  # symmetric involution with 2-cycles
    s = kron_word("X1")  # commutes with z
    zd, sd = signed_permutation_matrix(*z), signed_permutation_matrix(*s)
    assert np.array_equal(zd @ sd, sd @ zd)
    for keep in (1, -1):
        (r,) = signed_permutation_matrix(*restrict_to_eigenspace(_stack("X1"), z, keep))
        assert is_signed_permutation(r)
        assert np.array_equal(r @ r, np.eye(r.shape[0], dtype=np.int64))


def test_restrict_rejects_noncommuting():
    z = kron_word("Z")
    with pytest.raises(ValueError, match="commute"):  # X swaps the eigenspaces of Z
        restrict_to_eigenspace(_stack("X"), z, 1)
    with pytest.raises(ValueError, match="symmetric"):  # T is skew
        restrict_to_eigenspace(_stack("Z"), kron_word("T"), 1)


def test_sector_decomposition_partitions_space():
    rng = np.random.default_rng(5)
    n = 24
    mats = []
    # random commuting involutions: conjugates of sign flips by one perm
    base = random_signed_perm(rng, n)
    for _ in range(3):
        d = np.diag(rng.choice([-1, 1], size=n))
        mats.append(base @ d @ np.linalg.inv(base.astype(float)).astype(np.int64))
    perms, signs = [], []
    for mat in mats:
        p, s = perm_sign_of(mat)
        perms.append(p)
        signs.append(s)
    dec = SectorDecomposition(np.array(perms), np.array(signs))
    blocks = dec.sectors()
    # the orbits partition the index set, and each admits one character per index
    assert np.array_equal(np.sort(np.concatenate([idxs for idxs, _, _ in blocks])), np.arange(n))
    assert all(len(chi) == len(idxs) == len(set(chi.tolist())) for idxs, chi, _ in blocks)
    # coefficient rows are joint eigenvectors
    for idxs, chis, coefs in blocks:
        for chi, row in zip(chis.tolist(), coefs):
            v = np.zeros(n)
            v[idxs] = row
            for j, mat in enumerate(mats):
                want = -v if (chi >> j) & 1 else v
                assert np.allclose(mat @ v, want)


def test_fixed_space_is_common_fixed():
    dec = SectorDecomposition(*_stack("Z1", "1Z"))
    vecs = dec.fixed_space()
    assert len(vecs) == 1  # only e_0 is fixed by both sign patterns
    idxs, signs = vecs[0]
    assert idxs.tolist() == [0] and signs.tolist() == [1]


def _orbits_bfs(dec):
    """Reference copy of the per-index BFS: each orbit as (word, stab), with
    word mapping index -> (group word bitmask, sign) in discovery order and
    stab the (bitmask, sign) relations fixing the start point."""
    n, r = dec.n, dec.r
    seen = np.zeros(n, dtype=bool)
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        word = {start: (0, 1)}
        stab = []
        queue = [start]
        seen[start] = True
        while queue:
            u = queue.pop()
            wu, su = word[u]
            for j in range(r):
                v = int(dec.perms[j, u])
                sv = su * int(dec.signs[j, u])
                wv = wu ^ (1 << j)
                if v in word:
                    w0, s0 = word[v]
                    stab.append((wv ^ w0, sv * s0))
                else:
                    word[v] = (wv, sv)
                    seen[v] = True
                    queue.append(v)
        orbits.append((word, stab))
    return orbits


def _sectors_bit_loop(orbits, r):
    """Reference copy of the per-character, per-bit sector construction on
    BFS orbits: characters built one at a time, parities by a Python bit
    loop.  Returns {chi: [(indices, coefs)]} with one column per orbit."""

    def parity(x):
        return bin(x).count("1") & 1

    def parity_vec(x):
        out = np.zeros_like(x)
        x = x.copy()
        while np.any(x):
            out ^= x & 1
            x >>= 1
        return out

    sector_cols = {}
    for word, stab in orbits:
        pivots = {}
        for mask, s in stab:
            b = 0 if s == 1 else 1
            m = mask
            for bit, (pm, pb) in pivots.items():
                if m >> bit & 1:
                    m ^= pm
                    b ^= pb
            if m == 0:
                assert b == 0
                continue
            low = (m & -m).bit_length() - 1
            for bit in list(pivots):
                pm, pb = pivots[bit]
                if pm >> low & 1:
                    pivots[bit] = (pm ^ m, pb ^ b)
            pivots[low] = (m, b)
        free = [j for j in range(r) if j not in pivots]
        items = list(word.items())
        umask = np.array([u for u, _ in items], dtype=np.int64)
        wmask = np.array([w for _, (w, _) in items], dtype=np.int64)
        wsign = np.array([s for _, (_, s) in items], dtype=np.int64)
        for t in range(1 << len(free)):
            chi = 0
            for k, j in enumerate(free):
                if t >> k & 1:
                    chi |= 1 << j
            for bit, (pm, pb) in pivots.items():
                if pb ^ parity(pm & ~(1 << bit) & chi):
                    chi |= 1 << bit
            coefs = wsign * (1 - 2 * parity_vec(wmask & chi))
            sector_cols.setdefault(chi, []).append((umask, coefs))
    return sector_cols


def _generator_families():
    for p, q, mults in enumerate_cases(max_pq=6, max_m=16) + [(6, 2, (1,))]:
        rep = rep_build(p, q, mults)
        for family in (SY._g_generators, SY._sym2_generators, SY._h_generators):
            perms, signs = family(rep)
            yield f"({p},{q})x{mults} {family.__name__}", perms, signs


def test_sectors_match_bit_loop_reference():
    count = 0
    for label, perms, signs in _generator_families():
        dec = SectorDecomposition(perms, signs)
        orbits = _orbits_bfs(dec)
        # same orbits in the same order, as ascending index arrays
        assert [o.tolist() for o in dec.orbits] == [sorted(w) for w, _ in orbits], label
        # same common fixed space
        want_fixed = [w for w, stab in orbits if all(s == 1 for _, s in stab)]
        got_fixed = dec.fixed_space()
        assert len(got_fixed) == len(want_fixed), label
        for (idxs, sgn), word in zip(got_fixed, want_fixed):
            assert {u: s for u, s in zip(idxs.tolist(), sgn.tolist())} == {
                u: s for u, (_, s) in word.items()
            }, label
        # the per-orbit blocks regrouped by character
        got = {}
        for idxs, chis, coefs in dec.sectors():
            assert idxs.dtype == chis.dtype == coefs.dtype == np.int64, label
            for chi, row in zip(chis.tolist(), coefs):
                got.setdefault(chi, []).append((idxs, row))
        want = _sectors_bit_loop(orbits, dec.r)
        assert list(got) == list(want), label  # same keys in the same order
        for chi in want:
            assert len(got[chi]) == len(want[chi]), (label, chi)
            for (gi, gc), (wi, wc) in zip(got[chi], want[chi]):
                order = np.argsort(wi)
                assert np.array_equal(gi, wi[order]), (label, chi)
                assert np.array_equal(gc, wc[order]), (label, chi)
        count += 1
    assert count > 100


def _characters_by_elimination(rels, r):
    """Reference copy of the per-relation-set F2 elimination: pivots on the
    lowest set bits, fully reduced, then the free bits counted up."""
    pivots = {}
    for rel in rels:
        m, b = rel >> 1, rel & 1
        for bit, (pm, pb) in pivots.items():
            if m >> bit & 1:
                m ^= pm
                b ^= pb
        if m == 0:
            assert b == 0
            continue
        low = (m & -m).bit_length() - 1
        for bit in list(pivots):
            pm, pb = pivots[bit]
            if pm >> low & 1:
                pivots[bit] = (pm ^ m, pb ^ b)
        pivots[low] = (m, b)
    free = [j for j in range(r) if j not in pivots]
    chis = []
    for t in range(1 << len(free)):
        chi = sum(1 << j for k, j in enumerate(free) if t >> k & 1)
        for bit, (pm, pb) in pivots.items():
            chi |= (pb ^ bin(pm & ~(1 << bit) & chi).count("1") & 1) << bit
        chis.append(chi)
    return chis


@st.composite
def _relation_sets(draw):
    """(r, packed relations): masks with signs read off one admitted
    character, so the set is consistent, sorted and without 0 = 0."""
    r = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(1, (1 << r) - 1), max_size=r + 2))
    chi0 = draw(st.integers(0, (1 << r) - 1))
    rels = sorted({mask << 1 | bin(mask & chi0).count("1") & 1 for mask in masks})
    return r, rels


@settings(max_examples=150, deadline=None)
@given(_relation_sets(), st.integers(0, 3))
def test_admitted_characters_match_elimination(case, pad):
    r, rels = case
    want = _characters_by_elimination(rels, r)
    par = np.array([bin(x).count("1") & 1 for x in range(1 << r)], dtype=np.int64)
    # the same set twice, padded with 0 = 0 relations as in a length group
    sets = np.array([rels + [0] * pad, rels + [0] * pad], dtype=np.int64).reshape(2, -1)
    got = _admitted_characters(sets, len(want), par)
    assert got.dtype == np.int64
    assert got.tolist() == [want, want]


def test_inconsistent_relations_are_refused():
    # chi . 01 = 0 and chi . 01 = 1 cannot both hold
    with pytest.raises(AssertionError):
        _admitted_characters(np.array([[0b010, 0b011]]), 2, np.array([0, 1, 1, 0]))
