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
from functools import lru_cache

import numpy as np

from .spmat import (
    is_signed_permutation,
    kron_word,
    perm_sign_of,
    restrict_to_eigenspace,
)


class InvalidInputError(ValueError):
    pass


class UnsupportedError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Generator families for C_p (positive definite, e_i^2 = +1).
#
# Each family is a list of Kronecker words over {1, Z, X, T} giving symmetric
# signed-permutation involutions that pairwise anticommute.  The first word
# is always diagonal, which later construction steps rely on.  The dimension
# is the minimal one (2, 2, 4, 8, 8, 16, 16, 16 for p = 1..8).
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


@lru_cache(maxsize=None)
def pos_clifford_basis(p: int, twist: int = 1) -> tuple[np.ndarray, ...]:
    """Symmetric anticommuting involutions generating C_p on R^{d0(p)}.

    ``twist = -1`` negates the family; for p = 1 mod 4 (where C_p has two
    inequivalent irreducibles) the negated family is the other class, for
    all other p it is an equivalent representation.
    """
    if p < 0:
        raise InvalidInputError("p must be nonnegative")
    if twist not in (1, -1):
        raise InvalidInputError("twist must be +1 or -1")
    if p == 0:
        return ()
    if p <= 8:
        mats = [kron_word(w) for w in _FAMILY_WORDS[p]]
    else:
        inner = pos_clifford_basis(p - 8)
        octet = [kron_word(w) for w in _FAMILY_WORDS[8]]
        ohat = octet[0]
        for f in octet[1:]:
            ohat = ohat @ f
        d = inner[0].shape[0] if inner else 1
        mats = [np.kron(np.eye(d, dtype=np.int64), f) for f in octet]
        mats += [np.kron(e, ohat) for e in inner]
    if twist == -1:
        mats = [-m for m in mats]
    out = tuple(np.ascontiguousarray(m) for m in mats)
    for m in out:  # cached instances are shared; guard against mutation
        m.setflags(write=False)
    return out


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
def _central_structure(p: int) -> np.ndarray:
    """E_1 ... E_p for p = 3 mod 4: skew, squares to -1, central."""
    assert p % 4 == 3
    fam = pos_clifford_basis(p)
    out = fam[0]
    for e in fam[1:]:
        out = out @ e
    return out


@lru_cache(maxsize=None)
def _quaternion_structures(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Two anticommuting skew complex structures commuting with the family."""
    assert _commutant_type(p) == "H"
    if p <= 8:
        w1, w2 = _QUATERNION_WORDS[p]
        return kron_word(w1), kron_word(w2)
    j1, j2 = _quaternion_structures(p - 8)
    eye = np.eye(16, dtype=np.int64)
    return np.kron(j1, eye), np.kron(j2, eye)


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

    ``halfspin`` assigns each class the label (0 or 1) of the irreducible of
    the even subalgebra it restricts to; classes sharing a label restrict
    identically.  ``f_signs`` gives, for q = 1, the scalar by which the last
    generator acts in each class.
    """

    p: int
    q: int
    count: int
    dim: int
    shape: str
    field: str
    even_field: str
    halfspin: tuple[int, ...]
    f_signs: tuple[int, ...] | None

    @property
    def even_classes(self) -> int:
        return 2 if self.shape in ("(T,2T')", "(2T,2T')", "(4T,2T')") else 1


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
    if shape == "(4T,2T')":
        halfspin = (0, 0, 1, 1)
    elif shape == "(2T,2T')":
        halfspin = (0, 1)
    else:
        halfspin = tuple(0 for _ in range(count))
    f_signs = None
    if q == 1:
        f_signs = tuple(tf for (_, tf, _) in classes)
    return IrrepCatalog(p, q, count, dim, shape, field, even_field, halfspin, f_signs)


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


def _splitting_involutions(p: int, q: int) -> list[np.ndarray]:
    """Central involutions whose eigenspaces carve out one irreducible."""
    kp, kq = _commutant_type(p), _commutant_type(q)
    if "R" in (kp, kq):
        return []
    if (kp, kq) == ("C", "C"):
        return [np.kron(_central_structure(p), _central_structure(q))]
    if (kp, kq) == ("C", "H"):
        return [np.kron(_central_structure(p), _quaternion_structures(q)[0])]
    if (kp, kq) == ("H", "C"):
        return [np.kron(_quaternion_structures(p)[0], _central_structure(q))]
    jp1, jp2 = _quaternion_structures(p)
    jq1, jq2 = _quaternion_structures(q)
    return [np.kron(jp1, jq1), np.kron(jp2, jq2)]


@lru_cache(maxsize=None)
def irrep_basis(p: int, q: int, class_index: int) -> tuple[np.ndarray, ...]:
    """Basis matrices of the ``class_index``-th irreducible of C_p (x) C_q."""
    cat = irrep_catalog(p, q)
    classes = _class_descriptors(p, q)
    if not 0 <= class_index < len(classes):
        raise InvalidInputError("class index out of range")
    te, tf, sector = classes[class_index]
    efam = pos_clifford_basis(p, te) if p else ()
    ffam = pos_clifford_basis(q, tf) if q else ()
    dp = efam[0].shape[0] if efam else 1
    dq = ffam[0].shape[0] if ffam else 1
    eyep = np.eye(dp, dtype=np.int64)
    eyeq = np.eye(dq, dtype=np.int64)
    mats = [np.kron(e, eyeq) for e in efam] + [np.kron(eyep, f) for f in ffam]
    if sector is not None:
        splits = _splitting_involutions(p, q)
        keeps = [sector] + [1] * (len(splits) - 1)
        nmats = len(mats)
        while splits:
            z, keep = splits[0], keeps[0]
            restricted = restrict_to_eigenspace(mats + splits[1:], z, keep)
            mats, splits, keeps = restricted[:nmats], restricted[nmats:], keeps[1:]
    if mats[0].shape[0] != cat.dim:
        raise AssertionError(
            f"constructed irreducible of ({p},{q}) has dimension "
            f"{mats[0].shape[0]}, expected {cat.dim}"
        )
    return tuple(mats)


@dataclass(frozen=True)
class CliffordRep:
    """A C_p (x) C_q module with symmetric signed-permutation basis matrices.

    The constructor validates the basis (p + q matrices, each an m x m signed
    permutation) and stores it once more as ``perm`` and ``sign`` arrays of
    shape (n, m): S_i e_a = sign[i, a] e_{perm[i, a]}.  Relations between
    the matrices are not checked here; ``verify_relations`` reports them.
    """

    p: int
    q: int
    mults: tuple[int, ...]
    basis: tuple[np.ndarray, ...]
    m: int
    perm: np.ndarray = field(init=False, repr=False, compare=False)
    sign: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.n < 1 or len(self.basis) != self.n:
            raise InvalidInputError(
                f"(p, q) = ({self.p}, {self.q}) needs p + q >= 1 basis matrices,"
                f" got {len(self.basis)}"
            )
        try:
            if any(np.shape(s) != (self.m, self.m) for s in self.basis):
                raise ValueError
            perm, sign = perm_sign_of(np.stack(self.basis))
        except ValueError:
            raise InvalidInputError(
                f"every basis matrix must be an {self.m} x {self.m} signed permutation"
            ) from None
        perm.setflags(write=False)
        sign.setflags(write=False)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "sign", sign)

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
        (n, m, count) array of the vectors S_i w, scattered as
        (S_i w)[perm[i]] = sign[i] w, which holds for any signed permutation.
        Float arrays are evaluated in float64.  Integer arrays are evaluated
        in int64 when m max|w|^2 < 2^63 and as Python ints (object dtype)
        otherwise; object arrays (Python ints or Fractions) stay object.
        """
        w = np.asarray(w)
        if w.dtype.kind == "f":
            w = w.astype(np.float64, copy=False)
        elif w.dtype != object:
            big = int(np.abs(w).max(initial=0))  # |S_i[w]| <= m max|w|^2
            w = w.astype(np.int64 if self.m * big * big < 2**63 else object, copy=False)
        vals = np.empty((self.n, w.shape[1]), dtype=w.dtype)
        sw = np.empty((self.n,) + w.shape, dtype=w.dtype) if images else None
        for i, (perm, sign) in enumerate(zip(self.perm, self.sign)):
            prod = sign[:, None] * w
            if images:
                sw[i][perm] = prod
            prod *= w[perm]
            vals[i] = _column_sums(prod)
        return (vals, sw) if images else vals

    def __eq__(self, other):
        return (
            isinstance(other, CliffordRep)
            and (self.p, self.q, self.mults, self.m) == (other.p, other.q, other.mults, other.m)
            and all(np.array_equal(a, b) for a, b in zip(self.basis, other.basis))
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


def rep_build(p: int, q: int, mults) -> CliffordRep:
    """Block-diagonal sum of irreducibles with the given multiplicities."""
    if p < q:
        raise InvalidInputError("rep_build requires p >= q; use swap_pq for p < q")
    cat = irrep_catalog(p, q)
    mults = tuple(int(k) for k in mults)
    if len(mults) != cat.count:
        raise InvalidInputError(
            f"({p},{q}) has {cat.count} irreducible classes, got {len(mults)} multiplicities"
        )
    if any(k < 0 for k in mults):
        raise InvalidInputError("multiplicities must be nonnegative")
    if sum(mults) == 0:
        raise InvalidInputError("at least one multiplicity must be positive")
    blocks = []
    for ci, k in enumerate(mults):
        blocks.extend([irrep_basis(p, q, ci)] * k)
    m = sum(b[0].shape[0] for b in blocks)
    n = p + q
    basis = []
    for i in range(n):
        s = np.zeros((m, m), dtype=np.int64)
        off = 0
        for blk in blocks:
            d = blk[i].shape[0]
            s[off : off + d, off : off + d] = blk[i]
            off += d
        basis.append(s)
    return CliffordRep(p, q, mults, tuple(basis), m)


def swap_pq(rep: CliffordRep) -> CliffordRep:
    """View a (p, q) module as a (q, p) module (generator blocks swapped).

    The quartic form of the swapped module is the negative of the original.
    """
    basis = rep.basis[rep.p :] + rep.basis[: rep.p]
    return CliffordRep(rep.q, rep.p, rep.mults, basis, rep.m)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def selfduality_points(n: int) -> list[tuple[int, ...]]:
    """Deterministic integer points pinning a quadratic identity in n vars.

    Lattice vectors with at most two nonzero coordinates drawn from
    {-1, 1, 2}; the first n(n+1)/2 + 8 of a fixed enumeration.
    """
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
    while len(pts) < want:  # n = 1 fallback: repeat scaled singletons
        e = [0] * n
        e[0] = 2
        pts.append(tuple(e))
    return pts[:want]


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
    """Check every defining invariant of a CliffordRep, reporting each."""
    checks = []
    n, m = rep.n, rep.m
    eye = np.eye(m, dtype=np.int64)

    ok = all(is_signed_permutation(s) for s in rep.basis)
    checks.append(("signed_permutation_entries", ok, "entries in {-1,0,1}, one per row"))
    ok = all(np.array_equal(s, s.T) for s in rep.basis)
    checks.append(("symmetric", ok, "S_i = S_i^T"))
    ok = all(np.array_equal(s @ s, eye) for s in rep.basis)
    checks.append(("involution", ok, "S_i^2 = 1"))

    comm_ok = True
    bad = ""
    for i in range(n):
        for j in range(i + 1, n):
            ab = rep.basis[i] @ rep.basis[j]
            ba = rep.basis[j] @ rep.basis[i]
            same_block = (i < rep.p) == (j < rep.p)
            want = -ba if same_block else ba
            if not np.array_equal(ab, want):
                comm_ok = False
                bad = f"pair ({i},{j})"
    checks.append(
        ("commutation_pattern", comm_ok, bad or "anticommute within blocks, commute across")
    )

    # S(v) S^eps(v) = P(v) 1 with S^eps(v) = sum eps_i v_i S_i; both sides
    # are quadratic in v, so the fixed point set pins the identity.
    sd_ok = True
    bad = ""
    for v in selfduality_points(n):
        sv = sum(int(c) * s for c, s in zip(v, rep.basis))
        sve = sum(e * int(c) * s for e, c, s in zip(rep.eps, v, rep.basis))
        pv = sum(e * int(c) * int(c) for e, c in zip(rep.eps, v))
        if not np.array_equal(sv @ sve, pv * eye):
            sd_ok = False
            bad = f"v = {v}"
            break
    checks.append(("self_duality", sd_ok, bad or "S(v) S^eps(v) = P(v) 1 at sample points"))

    cat = irrep_catalog(rep.p, rep.q)
    ok = rep.m == sum(rep.mults) * cat.dim and len(rep.mults) == cat.count
    checks.append(("dimension_bookkeeping", ok, f"m = {rep.m}"))
    return RelationReport(checks)


def spin_equivariance_check(rep: CliffordRep) -> bool:
    """Exact matrix identities for the infinitesimal rotation action.

    For Y = S_i S_j the combination Y^T S_k + S_k Y must be 0 for k distinct
    from i, j, equal to 2 S_j for k = i, and to -2 eps_i eps_j S_i for k = j.
    """
    n = rep.n
    eps = rep.eps
    for i in range(n):
        for j in range(i + 1, n):
            y = rep.basis[i] @ rep.basis[j]
            for k in range(n):
                lhs = y.T @ rep.basis[k] + rep.basis[k] @ y
                if k == i:
                    want = 2 * rep.basis[j]
                elif k == j:
                    want = -2 * eps[i] * eps[j] * rep.basis[i]
                else:
                    want = np.zeros_like(lhs)
                if not np.array_equal(lhs, want):
                    return False
    return True


# ---------------------------------------------------------------------------
# Canonical form (p >= 2): S_1 = diag(1_d, -1_d), S_2 = antidiag(1_d, 1_d),
# S_i = antidiag(B_i, B_i^T) with B_i orthogonal skew for i >= 3, and
# S_{p+j} = diag(A_j, A_j).
# ---------------------------------------------------------------------------


def canonicalize(rep: CliffordRep):
    """Conjugate by a signed permutation into split block form.

    Returns (canonical rep, [A_1..A_q], [B_2..B_p]).  Exactness is preserved
    because S_1 is kept diagonal by construction, so sorting eigenvalues and
    absorbing B_2 are both signed permutation conjugations.
    """
    if rep.p < 2:
        raise UnsupportedError("canonical form needs p >= 2")
    s1 = rep.basis[0]
    if np.any(s1 != np.diag(np.diag(s1))):
        raise UnsupportedError("S_1 must be diagonal (rep_build output is)")
    m = rep.m
    d = m // 2
    order = np.argsort(-np.diag(s1), kind="stable")
    u = np.zeros((m, m), dtype=np.int64)
    u[np.arange(m), order] = 1
    basis = [u @ s @ u.T for s in rep.basis]
    assert np.array_equal(np.diag(basis[0]), np.concatenate([np.ones(d), -np.ones(d)]))
    b2 = basis[1][:d, d:]
    v = np.zeros((m, m), dtype=np.int64)
    v[:d, :d] = np.eye(d, dtype=np.int64)
    v[d:, d:] = b2
    basis = [v @ s @ v.T for s in basis]
    a_list = [basis[rep.p + j][:d, :d].copy() for j in range(rep.q)]
    b_list = [basis[i][:d, d:].copy() for i in range(1, rep.p)]
    out = CliffordRep(rep.p, rep.q, rep.mults, tuple(basis), m)
    # structural post-conditions from the commutation relations
    assert np.array_equal(b_list[0], np.eye(d, dtype=np.int64))
    for b in b_list[1:]:
        assert np.array_equal(b.T, -b) and np.array_equal(b @ b.T, np.eye(d, dtype=np.int64))
    for j, a in enumerate(a_list):
        assert np.array_equal(out.basis[rep.p + j][d:, d:], a)
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


def rep_from_json(text: str) -> CliffordRep:
    try:
        data = json.loads(text)
        basis = tuple(np.array(b, dtype=np.int64) for b in data["basis"])
        return CliffordRep(
            int(data["p"]),
            int(data["q"]),
            tuple(int(k) for k in data["mults"]),
            basis,
            int(data["m"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed module JSON: {exc}") from exc


def rep_to_text(rep: CliffordRep) -> str:
    lines = [str(rep.m)]
    for s in rep.basis:
        for row in s:
            lines.append(" ".join(str(int(x)) for x in row))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def rep_from_text(text: str, p: int, q: int, mults=None) -> CliffordRep:
    try:
        chunks = [c for c in text.strip().split("\n\n")]
        header = chunks[0].split("\n")
        m = int(header[0])
        rows = header[1:]
        mats = []
        first = [list(map(int, r.split())) for r in rows]
        mats.append(np.array(first, dtype=np.int64))
        for chunk in chunks[1:]:
            mats.append(
                np.array([list(map(int, r.split())) for r in chunk.split("\n")], dtype=np.int64)
            )
        if mults is None:
            mults = ()
        return CliffordRep(p, q, tuple(mults), tuple(mats), m)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed module text: {exc}") from exc
