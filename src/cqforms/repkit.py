"""Representations of tensor products of real Clifford algebras.

The object built here is a family of symmetric signed-permutation integer
matrices S_1, ..., S_{p+q} on R^m satisfying

    S_i^2 = 1,
    S_i S_j = -S_j S_i   if i, j are both <= p or both > p  (i != j),
    S_i S_j =  S_j S_i   if exactly one of i, j is <= p,

equivalently a representation of C_p (x) C_q with all generator images
symmetric.  Such a family is what makes the quadratic map
Q(w) = (S_1[w], ..., S_{p+q}[w]) self-dual for the signature-(p, q) form.

Generator families for a single positive-definite Clifford algebra C_p are
hardcoded as Kronecker words for p <= 8 and extended by the period-8
isomorphism C_{p+8} = C_p (x) C_8.  Irreducible representations of the
tensor product are assembled from these families, splitting off exact
eigenspaces of central signed-permutation involutions where the plain
Kronecker product is reducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .spmat import (
    kron_word,
    perm_sign_of,
    restrict_to_eigenspace,
    signed_permutation_matrix,
    sp_eye,
    sp_inv,
    sp_kron,
    sp_mul,
)


class InvalidInputError(ValueError):
    pass


class UnsupportedError(ValueError):
    pass


# require_dim refuses larger modules in rep_build, rep_from_json and
# check_32_identity: 16 times the largest module of the suite, and a dense
# module file of this size already holds n * 2^20 entries
MAX_DIM = 1 << 10


# ---------------------------------------------------------------------------
# Generator families for C_p (positive definite, e_i^2 = +1).
#
# Each family is a list of Kronecker words over {1, Z, X, T} giving symmetric
# signed-permutation involutions that pairwise anticommute.  The first word
# is always diagonal, which later construction steps rely on.  The dimension
# is the minimal one (2, 2, 4, 8, 8, 16, 16, 16 for p = 1..8).  A family,
# like every stack of signed permutations built here, is a pair of (k, d)
# arrays (perm, sign) with S_i e_a = sign[i, a] e_{perm[i, a]}.
# ---------------------------------------------------------------------------

_FAMILY_WORDS = {
    1: [""],  # 1x1 matrix [1]
    2: ["Z", "X"],
    3: ["Z1", "XZ", "XX"],
    4: ["Z11", "XZ1", "XXZ", "XXX"],
    5: ["Z11", "XZ1", "XXZ", "XXX", "TZT"],
    6: ["Z111", "XZ11", "XXZ1", "XXXZ", "XXXX", "XTZT"],
    7: ["Z111", "XZ11", "XXZ1", "XXXZ", "XXXX", "XTZT", "T1ZT"],
    8: ["Z111", "XZ11", "XXZ1", "XXXZ", "XXXX", "XTZT", "T1ZT", "TZXT"],
}

# Skew signed permutations J with J^2 = -1 commuting with the whole family,
# two of them anticommuting with each other (quaternionic commutant, needed
# for p = 4, 5, 6 mod 8).
_QUATERNION_WORDS = {
    4: ("1ZT", "ZXT"),
    5: ("1ZT", "ZXT"),
    6: ("11ZT", "1ZXT"),
}


def _words(words) -> tuple[np.ndarray, np.ndarray]:
    """The (k, d) stack of the Kronecker words ``words``."""
    perms, signs = zip(*(kron_word(w) for w in words))
    return np.stack(perms), np.stack(signs)


def _frozen(perm: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # cached stacks are shared: guard them against mutation
    perm.setflags(write=False)
    sign.setflags(write=False)
    return perm, sign


@lru_cache(maxsize=None)
def pos_clifford_basis(p: int, twist: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric anticommuting involutions generating C_p on R^{d0(p)}, as
    the (perm, sign) arrays of shape (p, d0(p)); p = 0 gives shape (0, 1).

    ``twist = -1`` negates the family; for p = 1 mod 4 (where C_p has two
    inequivalent irreducibles) the negated family is the other class, for
    all other p it is an equivalent representation.
    """
    if p < 0:
        raise InvalidInputError("p must be nonnegative")
    if twist not in (1, -1):
        raise InvalidInputError("twist must be +1 or -1")
    if p == 0:
        perm, sign = np.zeros((0, 1), dtype=np.int64), np.ones((0, 1), dtype=np.int64)
    elif p <= 8:
        perm, sign = _words(_FAMILY_WORDS[p])
    else:
        inner = pos_clifford_basis(p - 8)
        octet = _words(_FAMILY_WORDS[8])
        ohat = reduce(sp_mul, zip(*octet))
        outer = sp_kron(sp_eye(inner[0].shape[1]), octet)
        perm, sign = (np.concatenate(x) for x in zip(outer, sp_kron(inner, ohat)))
    return _frozen(perm, twist * sign)


def _commutant_type(p: int) -> str:
    """Endomorphism algebra of the irreducible C_p module: R, C or H."""
    if p == 0:
        return "R"
    r = p % 8
    if r in (0, 1, 2):
        return "R"
    if r in (3, 7):
        return "C"
    return "H"


@lru_cache(maxsize=None)
def _central_structure(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (1, d) stack of E_1 ... E_p for p = 3 mod 4: skew, squares to -1,
    central."""
    assert p % 4 == 3
    perm, sign = reduce(sp_mul, zip(*pos_clifford_basis(p)))
    return _frozen(perm[None], sign[None])


@lru_cache(maxsize=None)
def _quaternion_structures(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2, d) stack of two anticommuting skew complex structures
    commuting with the family."""
    assert _commutant_type(p) == "H"
    if p <= 8:
        return _frozen(*_words(_QUATERNION_WORDS[p]))
    return _frozen(*sp_kron(_quaternion_structures(p - 8), sp_eye(16)))


# ---------------------------------------------------------------------------
# Structure catalog for R_{p,q} = C_p (x) C_q, by (p mod 8, q mod 8).
#
# Each row: algebra shape of (R, R+), the power-of-two size parameter of the
# simple factors as a function of n = p + q, and the coefficient fields.
# The number of inequivalent irreducibles is 1 for shapes (T,T') and
# (T,2T'), 2 for (2T,T') and (2T,2T'), and 4 for (4T,2T').
# ---------------------------------------------------------------------------

_SHAPE_COUNT = {"(T,T')": 1, "(T,2T')": 1, "(2T,T')": 2, "(2T,2T')": 2, "(4T,2T')": 4}
_DIM_K = {"R": 1, "C": 2, "H": 4}

# (shape, ell exponent as (a, b) meaning (n + a) // 2 + b, K, K') keyed by
# unordered {p mod 8, q mod 8}.
_STRUCTURE_ROWS = [
    ("(T,T')", (0, 0), "R", "C", [{0, 2}, {4, 6}]),
    ("(T,T')", (-1, 0), "C", "R", [{0, 7}, {2, 3}, {3, 4}, {6, 7}]),
    ("(T,T')", (-1, 0), "C", "H", [{0, 3}, {2, 7}, {3, 6}, {4, 7}]),
    ("(T,T')", (0, -1), "H", "C", [{0, 6}, {2, 4}]),
    ("(T,2T')", (0, 0), "R", "R", [{0, 0}, {2, 2}, {4, 4}, {6, 6}]),
    ("(T,2T')", (0, -1), "H", "H", [{0, 4}, {2, 6}]),
    ("(2T,T')", (-1, 0), "R", "R", [{0, 1}, {1, 2}, {4, 5}, {5, 6}]),
    ("(2T,T')", (0, -1), "C", "C", [{1, 3}, {1, 7}, {3, 5}, {5, 7}]),
    ("(2T,T')", (-3, 0), "H", "H", [{0, 5}, {1, 4}, {1, 6}, {2, 5}]),
    ("(2T,2T')", (0, -1), "C", "R", [{3, 3}, {7, 7}]),
    ("(2T,2T')", (0, -1), "C", "H", [{3, 7}]),
    ("(4T,2T')", (0, -1), "R", "R", [{1, 1}, {5, 5}]),
    ("(4T,2T')", (0, -2), "H", "H", [{1, 5}]),
]

_STRUCTURE = {}
for _shape, _ell, _k, _kp, _pairs in _STRUCTURE_ROWS:
    for _pr in _pairs:
        _STRUCTURE[frozenset(_pr)] = (_shape, _ell, _k, _kp)


@dataclass(frozen=True)
class IrrepCatalog:
    """Inequivalent irreducible representations of C_p (x) C_q.

    ``family_signs`` gives each class, in class order, the pair (te, tf) of
    signs of its e and f families (``pos_clifford_basis``): for p = 1 or
    q = 1, the scalar by which that lone generator acts on the class.
    ``halfspin`` assigns each class the label (0 or 1) of the irreducible of
    the even subalgebra it restricts to; classes sharing a label restrict
    identically.
    """

    p: int
    q: int
    count: int
    dim: int
    shape: str
    field: str
    even_field: str
    halfspin: tuple[int, ...]
    family_signs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)  # the catalog is frozen, so callers share one per (p, q)
def irrep_catalog(p: int, q: int) -> IrrepCatalog:
    """Count and dimension of the irreducibles of C_p (x) C_q."""
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidInputError("need p, q >= 0 with p + q >= 1")
    n = p + q
    shape, (a, b), field, even_field = _STRUCTURE[frozenset({p % 8, q % 8})]
    ell = 1 << ((n + a) // 2 + b)
    dim = ell * _DIM_K[field]
    count = _SHAPE_COUNT[shape]
    classes = _class_descriptors(p, q)
    assert len(classes) == count
    # among four classes the even subalgebra sees only te * tf; among two
    # split by a central involution, only the sector; else all restrict alike
    halfspin = tuple(int(te != tf) if count == 4 else int(sector == -1) for te, tf, sector in classes)
    family_signs = tuple((te, tf) for te, tf, _ in classes)
    return IrrepCatalog(p, q, count, dim, shape, field, even_field, halfspin, family_signs)


def _class_descriptors(p: int, q: int):
    """(e-twist, f-twist, split-sector) tuples enumerating the classes.

    The split sector is None when the plain Kronecker product of factor
    irreducibles is already irreducible (one factor has real commutant), and
    +1/-1 otherwise: the eigenspace of the central splitting involution to
    keep.  Only the (C, C) commutant pair yields two inequivalent classes
    from one product; for (C,H), (H,C), (H,H) the eigenspaces are equivalent
    copies and +1 is kept.
    """
    kp, kq = _commutant_type(p), _commutant_type(q)
    if (kp, kq) == ("C", "C"):
        return [(1, 1, 1), (1, 1, -1)]
    sector = None if "R" in (kp, kq) else 1
    te_list = (1, -1) if p % 4 == 1 else (1,)
    tf_list = (1, -1) if q > 0 and q % 4 == 1 else (1,)
    if len(te_list) == 2 and len(tf_list) == 2:
        # order so that classes 0, 1 share the even-subalgebra restriction
        order = [(1, 1), (-1, -1), (1, -1), (-1, 1)]
    else:
        order = [(te, tf) for te in te_list for tf in tf_list]
    return [(te, tf, sector) for te, tf in order]


def _splitting_involutions(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k, d) stack of central involutions whose eigenspaces carve out one
    irreducible, where neither commutant is R (a split sector in
    ``_class_descriptors``)."""
    kp, kq = _commutant_type(p), _commutant_type(q)
    structures = {"C": _central_structure, "H": _quaternion_structures}
    # the stacks pair off row by row: C (x) J_1 or J_1 (x) C for one
    # quaternionic factor, J_1 (x) J_1' and J_2 (x) J_2' for two
    perm, sign = sp_kron(structures[kp](p), structures[kq](q))
    k = 2 if (kp, kq) == ("H", "H") else 1
    return perm[:k], sign[:k]


@lru_cache(maxsize=None)
def irrep_basis(p: int, q: int, class_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The (perm, sign) arrays of shape (p + q, dim) of the basis matrices of
    the ``class_index``-th irreducible of C_p (x) C_q."""
    cat = irrep_catalog(p, q)
    classes = _class_descriptors(p, q)
    if not 0 <= class_index < len(classes):
        raise InvalidInputError("class index out of range")
    te, tf, sector = classes[class_index]
    efam, ffam = pos_clifford_basis(p, te), pos_clifford_basis(q, tf)
    eyep, eyeq = sp_eye(efam[0].shape[1]), sp_eye(ffam[0].shape[1])
    perm, sign = (np.concatenate(x) for x in zip(sp_kron(efam, eyeq), sp_kron(eyep, ffam)))
    if sector is not None:
        # the splitting involutions ride along below the generators, each
        # restricted by the ones before it and dropped once used
        n = p + q
        perm, sign = (np.concatenate(x) for x in zip((perm, sign), _splitting_involutions(p, q)))
        for keep in [sector] + [1] * (len(perm) - n - 1):
            z = perm[n], sign[n]
            perm, sign = restrict_to_eigenspace((np.delete(perm, n, 0), np.delete(sign, n, 0)), z, keep)
    if perm.shape[1] != cat.dim:
        raise AssertionError(
            f"constructed irreducible of ({p},{q}) has dimension "
            f"{perm.shape[1]}, expected {cat.dim}"
        )
    return _frozen(perm, sign)


# entries per (m, n, cols) block of CliffordRep.forms: 256 KB of float64 stays in cache
FORMS_BLOCK = 1 << 15


@dataclass(frozen=True, init=False, eq=False)
class CliffordRep:
    """A C_p (x) C_q module with symmetric signed-permutation basis matrices.

    The one constructor stores only the ``perm`` and ``sign`` arrays of shape
    (n, m): S_i e_a = sign[i, a] e_{perm[i, a]}.  It refuses a row of
    ``perm`` that is not a permutation of range(m) and a sign other than +-1;
    the arrays are copied and made read-only.  ``basis`` builds the dense
    matrices on each call.  Relations are not checked here; ``relations``
    holds their report.
    """

    p: int
    q: int
    mults: tuple[int, ...]
    m: int
    perm: np.ndarray = field(repr=False)
    sign: np.ndarray = field(repr=False)

    def __init__(self, p: int, q: int, mults: tuple[int, ...], perm, sign):
        perm, sign = np.array(perm, dtype=np.int64), np.array(sign, dtype=np.int64)
        if perm.ndim != 2 or perm.shape != sign.shape:
            raise InvalidInputError("perm and sign must be (p + q, m) arrays of one shape")
        if min(p, q) < 0 or p + q < 1 or len(perm) != p + q:
            raise InvalidInputError(f"(p, q) = ({p}, {q}) needs p + q >= 1 basis matrices, got {len(perm)}")
        m = perm.shape[1]
        if np.any(np.sort(perm, axis=1) != np.arange(m)) or np.any(np.abs(sign) != 1):
            raise InvalidInputError("every basis matrix must be a signed permutation")
        perm.setflags(write=False)
        sign.setflags(write=False)
        # straight into the instance dict: the frozen __setattr__ refuses assignment
        self.__dict__.update(p=p, q=q, mults=mults, m=m, perm=perm, sign=sign)

    @cached_property
    def relations(self) -> RelationReport:
        """The module's one relation report, ``verify_relations(self)`` on
        first read; every later check of the same module reads it."""
        return verify_relations(self)

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return tuple(signed_permutation_matrix(self.perm, self.sign))

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def eps(self) -> tuple[int, ...]:
        return tuple(1 if i < self.p else -1 for i in range(self.n))

    def forms(self, w, images: bool = False):
        """S_i[w] = sum_a sign[i, a] w_a w_{perm[i, a]} for every generator i
        and every column w of the coordinate-major (m, count) array ``w``.

        Returns the (n, count) array of values; with ``images`` also the
        (n, m, count) array of the vectors S_i w, given by
        (S_i w)[perm[i]] = sign[i] w, which holds for any signed permutation,
        and read through the inverse permutation in one gather.
        Float arrays are evaluated in float64.  Integer arrays are evaluated
        in int64 when m max|w|^2 < 2^63 and as Python ints (object dtype)
        otherwise; object arrays (Python ints or Fractions) stay object.

        Columns are taken FORMS_BLOCK entries of (m, n, cols) at a time: one
        contiguous copy of the block, one gather of sign[i, a] w_{perm[i, a]}
        for all generators from the stacked [w; -w], one product with w_a and
        one sum over a in ``_column_sums`` order.  Negation is exact, so the
        float values do not depend on the block size or the input strides.
        """
        w = np.asarray(w)
        if w.dtype.kind == "f":
            w = w.astype(np.float64, copy=False)
        elif w.dtype != object:
            big = int(np.abs(w).max(initial=0))  # |S_i[w]| <= m max|w|^2
            w = w.astype(np.int64 if self.m * big * big < 2**63 else object, copy=False)
        n, m, count = self.n, self.m, w.shape[1]
        vals = np.empty((n, count), dtype=w.dtype)
        gather = (self.perm + m * (self.sign < 0)).T  # (m, n) rows of [w; -w]
        step = max(1, FORMS_BLOCK // (m * n))
        for c in range(0, count, step):
            cols = slice(c, c + step)
            blk = np.ascontiguousarray(w[:, cols])
            prod = np.concatenate([blk, -blk])[gather]
            prod *= blk[:, None]
            vals[:, cols] = _column_sums(prod)
        if not images:
            return vals
        inv, inv_sign = sp_inv((self.perm, self.sign))
        return vals, np.concatenate([w, -w])[inv + m * (inv_sign < 0)]

    def __eq__(self, other):
        return (
            isinstance(other, CliffordRep)
            and (self.p, self.q, self.mults, self.m) == (other.p, other.q, other.mults, other.m)
            and np.array_equal(self.perm, other.perm)
            and np.array_equal(self.sign, other.sign)
        )

    def __hash__(self):
        return hash((self.p, self.q, self.mults, self.m))


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over axis 0, added in numpy's pairwise order for a contiguous axis.

    Float S_i[w] then round exactly as the row sums of a (count, m) array
    do.  On a degenerate module F(w) is pure rounding noise, so this keeps
    Monte Carlo estimates there independent of the sample layout.
    """
    m = len(a)
    if m < 8:
        return a.sum(axis=0)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _column_sums(a[:half]) + _column_sums(a[half:])
    full = m - m % 8
    r = a[:full].reshape((full // 8, 8) + a.shape[1:]).sum(axis=0)
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[full:]:
        out = out + row
    return out


def module_dim(p: int, q: int, mults) -> int:
    """Dimension m of the (p, q) module with these multiplicities, one per
    irreducible class; refuses a vector of the wrong length, a negative
    entry, or all zeros."""
    cat = irrep_catalog(p, q)
    if len(mults) != cat.count:
        raise InvalidInputError(
            f"({p},{q}) has {cat.count} irreducible classes, got {len(mults)} multiplicities"
        )
    if any(k < 0 for k in mults):
        raise InvalidInputError("multiplicities must be nonnegative")
    if sum(mults) == 0:
        raise InvalidInputError("at least one multiplicity must be positive")
    return sum(mults) * cat.dim


def require_dim(m: int) -> None:
    """Refuse a module of dimension m above MAX_DIM, before it is allocated."""
    if m > MAX_DIM:
        raise InvalidInputError(f"module dimension {m} exceeds the limit {MAX_DIM}")


def rep_build(p: int, q: int, mults) -> CliffordRep:
    """Block-diagonal sum of irreducibles with the given multiplicities."""
    if p < q:
        raise InvalidInputError("rep_build requires p >= q; use swap_pq for p < q")
    mults = tuple(int(k) for k in mults)
    require_dim(module_dim(p, q, mults))
    blocks = [irrep_basis(p, q, ci) for ci, k in enumerate(mults) for _ in range(k)]
    offsets = np.cumsum([0] + [perm.shape[1] for perm, _ in blocks[:-1]])
    perm = np.concatenate([perm + off for (perm, _), off in zip(blocks, offsets)], axis=1)
    sign = np.concatenate([sign for _, sign in blocks], axis=1)
    return CliffordRep(p, q, mults, perm, sign)


def swap_pq(rep: CliffordRep) -> CliffordRep:
    """View a (p, q) module as a (q, p) module (generator blocks swapped).

    The quartic form of the swapped module is the negative of the original.
    """
    perm, sign = (np.roll(a, -rep.p, axis=0) for a in (rep.perm, rep.sign))
    return CliffordRep(rep.q, rep.p, rep.mults, perm, sign)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass
class RelationReport:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, passed, detail in self.checks if not passed]


def verify_relations(rep: CliffordRep) -> RelationReport:
    """Check every defining invariant of a CliffordRep, reporting each.

    Every relation is read off the signed permutations, for all generators
    and pairs at once: S_i S_j e_a = sign[j, a] sign[i, perm[j, a]]
    e_{perm[i, perm[j, a]]}, and two signed permutations are equal exactly
    when their permutations and signs are.
    """
    n, perm, sign, eps = rep.n, rep.perm, rep.sign, np.array(rep.eps)
    # S_i^T = S_i^-1 for a signed permutation: symmetric exactly when S_i^2 = 1
    square_perm, square_sign = sp_mul((perm, sign), (perm, sign))
    no_square = np.flatnonzero(np.any((square_perm != np.arange(rep.m)) | (square_sign != 1), axis=1))
    # S_i S_j = -eps_i eps_j S_j S_i: anticommute within blocks, commute across
    i, j = np.triu_indices(n, 1)
    s_i, s_j = (perm[i], sign[i]), (perm[j], sign[j])
    (p_ij, s_ij), (p_ji, s_ji) = sp_mul(s_i, s_j), sp_mul(s_j, s_i)
    bad_pairs = np.flatnonzero(
        np.any((p_ij != p_ji) | (s_ij != -(eps[i] * eps[j])[:, None] * s_ji), axis=1)
    )
    last_pair = f"pair ({i[bad_pairs[-1]]},{j[bad_pairs[-1]]})" if len(bad_pairs) else ""
    # S(v) S^eps(v) - P(v) 1 = sum_i eps_i v_i^2 (S_i^2 - 1)
    #                          + sum_{i<j} v_i v_j (eps_j S_i S_j + eps_i S_j S_i)
    # vanishes exactly when the relations above hold; a failure names the
    # first failing point of the sample order e_1, ..., e_n, then e_i + e_j
    first_point = ""
    if len(no_square) or len(bad_pairs):
        support = {no_square[0]} if len(no_square) else {i[bad_pairs[0]], j[bad_pairs[0]]}
        first_point = f"v = {tuple(int(k in support) for k in range(n))}"
    cat = irrep_catalog(rep.p, rep.q)
    return RelationReport([
        ("signed_permutation_entries", True, "entries in {-1,0,1}, one per row"),
        ("symmetric", not len(no_square), "S_i = S_i^T"),
        ("involution", not len(no_square), "S_i^2 = 1"),
        ("commutation_pattern", not len(bad_pairs),
         last_pair or "anticommute within blocks, commute across"),
        ("self_duality", not first_point,
         first_point or "S(v) S^eps(v) = P(v) 1 at sample points"),
        ("dimension_bookkeeping",
         rep.m == sum(rep.mults) * cat.dim and len(rep.mults) == cat.count, f"m = {rep.m}"),
    ])


def require_relations(rep: CliffordRep, what: str = "module", see: str = "verify_relations"):
    """``rep`` itself if every check of ``rep.relations`` passes; else an
    InvalidInputError naming each failed check."""
    failed = [name for name, _ in rep.relations.failures]
    if failed:
        raise InvalidInputError(f"{what} fails {', '.join(failed)} (see {see})")
    return rep


def spin_equivariance_check(rep: CliffordRep) -> bool:
    """Exact matrix identities for the infinitesimal rotation action.

    For Y = S_i S_j the combination Y^T S_k + S_k Y must be 0 for k distinct
    from i, j, equal to 2 S_j for k = i, and to -2 eps_i eps_j S_i for k = j.

    Checked on the signed permutations for every (i < j, k) at once: column a
    of Y^T S_k + S_k Y is s1 e_p1 + s2 e_p2, which is 0 exactly when p1 = p2
    and s1 = -s2, and 2 s e_p exactly when p1 = p2 = p and s1 = s2 = s.
    """
    perm, sign, eps = rep.perm, rep.sign, np.array(rep.eps)
    i, j = np.triu_indices(rep.n, 1)
    ij = np.arange(len(i))
    y = sp_mul((perm[i], sign[i]), (perm[j], sign[j]))
    y_t = sp_inv(y)
    # index (pair, k, a): Y^T S_k e_a = s1 e_p1 and S_k Y e_a = s2 e_p2
    p1, s1 = sp_mul((y_t[0][:, None], y_t[1][:, None]), (perm, sign))
    p2, s2 = sp_mul((perm, sign), (y[0][:, None], y[1][:, None]))
    # the wanted column is 2 want e_wperm, with want = 0 for k not in {i, j}
    want = np.zeros_like(s1)
    want[ij, i] = sign[j]
    want[ij, j] = -(eps[i] * eps[j])[:, None] * sign[i]
    wperm = p1.copy()
    wperm[ij, i] = perm[j]
    wperm[ij, j] = perm[i]
    return bool(np.all(p1 == p2) and np.all(s1 + s2 == 2 * want) and np.all(p1 == wperm))


# ---------------------------------------------------------------------------
# Canonical form (p >= 2): S_1 = diag(1_d, -1_d), S_2 = antidiag(1_d, 1_d),
# S_i = antidiag(B_i, B_i^T) with B_i orthogonal skew for i >= 3, and
# S_{p+j} = diag(A_j, A_j).
# ---------------------------------------------------------------------------


def canonicalize(rep: CliffordRep):
    """Conjugate by a signed permutation into split block form.

    Returns (canonical rep, [A_1..A_q], [B_2..B_p]).  S_1 is kept diagonal
    by construction, so sorting its eigenvalues (U) and absorbing B_2
    (V = diag(1, B_2)) are both signed-permutation conjugations of the
    (perm, sign) stack; only the returned d x d blocks are dense.
    """
    if rep.p < 2:
        raise UnsupportedError("canonical form needs p >= 2")
    if np.any(rep.perm[0] != np.arange(rep.m)):
        raise UnsupportedError("S_1 must be diagonal (rep_build output is)")
    p, m, d = rep.p, rep.m, rep.m // 2
    # U e_order[a] = e_a puts the +1 entries of S_1 first
    order = np.argsort(-rep.sign[0], kind="stable")
    u = np.argsort(order), np.ones(m, dtype=np.int64)
    perm, sign = sp_mul(sp_mul(u, (rep.perm, rep.sign)), sp_inv(u))
    assert np.array_equal(sign[0], np.repeat([1, -1], d)) and np.all(perm[1:p, d:] < d)
    # V = diag(1, B_2): V e_(d+c) = B_2 e_c, read off column d + c of S_2
    ones = np.ones(d, dtype=np.int64)
    v = np.concatenate([np.arange(d), d + perm[1, d:]]), np.concatenate([ones, sign[1, d:]])
    perm, sign = sp_mul(sp_mul(v, (perm, sign)), sp_inv(v))
    out = CliffordRep(p, rep.q, rep.mults, perm, sign)
    # structural post-conditions from the commutation relations: B_2 = I,
    # B_i skew (B_i^2 = -1 for a signed permutation), A_j in both diagonal blocks
    assert np.array_equal(perm[1, d:], np.arange(d)) and np.all(sign[1, d:] == 1)
    b = perm[2:p, d:], sign[2:p, d:]
    b_square = sp_mul(b, b)
    assert np.all(b_square[0] == np.arange(d)) and np.all(b_square[1] == -1)
    assert np.array_equal(perm[p:, d:], perm[p:, :d] + d) and np.array_equal(sign[p:, d:], sign[p:, :d])
    a_list = list(signed_permutation_matrix(perm[p:, :d], sign[p:, :d]))
    b_list = list(signed_permutation_matrix(perm[1:p, d:], sign[1:p, d:]))
    return out, a_list, b_list


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def rep_to_json(rep: CliffordRep) -> str:
    return json.dumps(
        {
            "p": rep.p,
            "q": rep.q,
            "mults": list(rep.mults),
            "m": rep.m,
            "basis": [s.tolist() for s in rep.basis],
        }
    )


def _json_ints(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as an ``ndim``-dimensional int64 array of JSON integers only:
    a cast would truncate 2.9 to 2 and read true as 1."""
    arr = np.array(value, dtype=object)
    if arr.ndim != ndim or not all(type(v) is int for v in arr.flat):
        kind = ("a JSON integer", "a list of JSON integers", "a matrix of JSON integers")[ndim]
        raise ValueError(f"{name} must be {kind}")
    return arr.astype(np.int64)


_MALFORMED = (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError)


def rep_from_json(text: str | bytes) -> CliffordRep:
    """The module of a JSON module file; its declared m is held to MAX_DIM
    before any basis matrix is converted."""
    try:
        data = json.loads(text)
        p, q, m = (int(_json_ints(data[key], key, 0)) for key in ("p", "q", "m"))
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed module JSON: {exc}") from exc
    require_dim(m)
    try:
        mults = tuple(int(k) for k in _json_ints(data["mults"], "mults", 1))
        basis = [_json_ints(b, "every basis matrix", 2) for b in data["basis"]]
        try:
            if any(b.shape != (m, m) for b in basis):
                raise ValueError
            perm, sign = perm_sign_of(np.reshape(basis, (len(basis), m, m)))
        except ValueError:
            raise InvalidInputError(f"every basis matrix must be an {m} x {m} signed permutation") from None
        return CliffordRep(p, q, mults, perm, sign)
    except _MALFORMED as exc:
        raise InvalidInputError(f"malformed module JSON: {exc}") from exc
