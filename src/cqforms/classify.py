"""The paper's tables, stated once: every prediction the package checks.

Which modules are degenerate and which quartics are squares of quadratic
forms, the exceptional (p+q, m) pairs, the algebra h and the dimension of g,
the sharp condition, and whether the quartic is a relative invariant of a
prehomogeneous vector space (with the matching space when it is one); the
eighth-root twists of the quartic gamma matrix, and the cases that the
closed quartic gamma matrices cover.  Every entry is a rule on (p, q,
multiplicities), and nothing here builds a module.  This module is the one
home of these tables: ``quartic``, ``symlie`` and ``zetafe`` only compute,
and the suite compares each computation with the prediction made here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .repkit import InvalidInputError, irrep_catalog, module_dim

# degeneracy table: the quartic vanishes identically exactly at these
# (p, q, m) triples (up to p <-> q) and for split-signature rank-2 modules
# whose two generators act by the same matrix up to sign ("pure").
DEGENERATE_TRIPLES = {
    (2, 1, 2),
    (3, 1, 4),
    (5, 1, 8),
    (9, 1, 16),
    (2, 2, 4),
    (3, 3, 8),
    (5, 5, 16),
}

# quartics that are squares of quadratic forms, by (p, q, m); (1, 0, m) for
# every m is handled separately.
SQUARE_TRIPLES = {
    (2, 0, 2),
    (1, 1, 2),
    (3, 0, 4),
    (2, 1, 4),
    (5, 0, 8),
    (4, 1, 8),
    (3, 2, 8),
    (9, 0, 16),
    (8, 1, 16),
    (5, 4, 16),
}

# the exceptional (p + q, m) pairs and the dim g stated for each; for p + q in
# {6, 10} it is known after complexification, as (pure over C, mixed over C)
EXCEPTIONAL_NM = {(3, 4): 6, (4, 8): 13, (5, 8): 28, (6, 16): (30, 22), (7, 16): 31, (8, 16): 57,
                  (9, 16): 120, (10, 32): (48, 46), (11, 32): 66}
_DEGENERATE_NM = {(p + q, m) for p, q, m in DEGENERATE_TRIPLES}


def _halfspin_mults(p: int, q: int, mults) -> tuple[int, int]:
    cat = irrep_catalog(p, q)
    ke = sum(k for k, h in zip(mults, cat.halfspin) if h == 0)
    ko = sum(k for k, h in zip(mults, cat.halfspin) if h == 1)
    return ke, ko


def is_pure(p: int, q: int, mults) -> bool:
    """Restriction to the even subalgebra is isotypic: at most one halfspin
    label in use, and not the (T,2T') class, which restricts to both."""
    module_dim(p, q, mults)
    return irrep_catalog(p, q).shape != "(T,2T')" and 0 in _halfspin_mults(p, q, mults)


def pure_over_c(p: int, q: int, mults) -> bool:
    """Is the complexified restriction to the even subalgebra isotypic?
    Complexification splits an even class over C in two."""
    return is_pure(p, q, mults) and irrep_catalog(p, q).even_field != "C"


def expected_degenerate(p: int, q: int, mults) -> bool:
    """Degeneracy-table prediction: does the quartic vanish identically?"""
    m = module_dim(p, q, mults)
    key = (p, q, m) if p >= q else (q, p, m)
    if key in DEGENERATE_TRIPLES:
        return True
    if {p, q} == {1, 1}:
        return is_pure(p, q, mults)
    return False


def expected_sharp(p: int, q: int, mults) -> bool:
    """Classification-table prediction for the sharp condition.

    Fails exactly at the tabulated (p+q, m) pairs, and for rank-2 split
    modules that are pure with m >= 2 (a pure module on the line satisfies
    the condition trivially, the solution space being one dimensional).
    """
    m = module_dim(p, q, mults)
    if (p + q, m) in _DEGENERATE_NM or (p + q, m) in EXCEPTIONAL_NM:
        return False
    if {p, q} == {1, 1} and is_pure(p, q, mults) and m >= 2:
        return False
    return True


# the shape of each simple factor of R_{p,q} with two of them
_HALF_SHAPE = {"(2T,2T')": "(T,T')", "(4T,2T')": "(2T,T')"}


def _simple_h(shape: str, field: str, even: str, ks: tuple[int, ...]) -> tuple[str, int]:
    """Name and real dimension of h for a simple algebra of the given shape
    and fields, on the multiplicities ``ks`` of its classes."""
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
        return {"R": (f"gl({k},R)", k * k), "H": (f"gl({k},H)", 4 * k * k)}[field]
    k1, k2 = ks
    kk = k1 + k2
    return {
        "R": (f"so({k1},{k2})", kk * (kk - 1) // 2),
        "C": (f"u({k1},{k2})", kk * kk),
        "H": (f"sp({k1},{k2})", kk * (2 * kk + 1)),
    }[field]


def h_algebra(p: int, q: int, mults) -> tuple[str, int]:
    """Name and real dimension of h from the structure table: the direct sum
    over the simple factors, each on its half of the multiplicities when
    there are two."""
    module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    shape, ks = cat.shape, tuple(mults)
    parts = [ks]
    if shape in _HALF_SHAPE:
        shape, half = _HALF_SHAPE[shape], len(ks) // 2
        parts = [ks[:half], ks[half:]]
    names, dims = zip(*(_simple_h(shape, cat.field, cat.even_field, part) for part in parts))
    return "+".join(names), sum(dims)


def exceptional_g_dim(p: int, q: int, mults) -> int | None:
    """Stated symmetry-algebra dimension in the exceptional cases.

    For p+q in {6, 10} the value is only identified after complexification
    and depends on purity over C; the real dimension of the real form equals
    the complex dimension of the stated complexification.
    """
    g_dim = EXCEPTIONAL_NM.get((p + q, module_dim(p, q, mults)))
    if isinstance(g_dim, tuple):
        return g_dim[0] if pure_over_c(p, q, mults) else g_dim[1]
    return g_dim


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
    m = module_dim(p, q, mults)
    name, h_dim = h_algebra(p, q, mults)
    n = p + q
    if expected_degenerate(p, q, mults):
        return SymmetryPrediction(name, h_dim, m * m, False, True, None)
    if (n, m) in EXCEPTIONAL_NM:
        gexc = exceptional_g_dim(p, q, mults)
        return SymmetryPrediction(name, h_dim, gexc, True, False, gexc)
    return SymmetryPrediction(name, h_dim, n * (n - 1) // 2 + h_dim, False, False, None)


def expected_twists(p: int, q: int, mults, labels) -> list[Fraction]:
    """Multiplicity formulas for the signature constants of the components
    ``labels`` (of ``zetafe.components``), as exponents x of the twists
    e(x) = exp(2 pi i x): Fractions, exact mod 1.  The component with
    representative c e_i has x = c tr(S_i) / 8."""
    module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    # tr S_i in the e and f families: a lone generator acts on each class by
    # its sign, and any other anticommutes with another one of its family
    te, tf = (cat.dim * sum(k * signs[j] for k, signs in zip(mults, cat.family_signs)) if size == 1 else 0
              for j, size in enumerate((p, q)))
    # (c, tr S_i) of the representative c e_i of each label of ``components``
    if (p, q) == (1, 0):
        at = {"+": (1, te), "-": (-1, te)}
    elif (p, q) == (1, 1):
        at = {"++": (1, te), "+-": (-1, te), "-+": (1, tf), "--": (-1, tf)}
    elif q == 1:
        at = {"+": (1, te), "-+": (1, tf), "--": (-1, tf)}
    else:
        at = {"+": (1, te), "-": (1, tf)}
    return [Fraction(c * tr, 8) for c, tr in (at[label] for label in labels)]


def expected_det_square(p: int, q: int, mults) -> bool:
    """Does det S(v)^2 = P(v)^m hold (with det S(v) = +- P(v)^{m/2} for even
    m)?  Yes, except on (1, 1) modules with unequal halfspin multiplicities
    ke != ko, where det S(v) = +-(v1 + v2)^ke (v1 - v2)^ko."""
    module_dim(p, q, mults)
    if {p, q} != {1, 1}:
        return True
    ke, ko = _halfspin_mults(p, q, mults)
    return ke == ko


def closed_form_refusal(p: int, q: int, m: int) -> str | None:
    """Why the closed quartic gamma matrices do not cover (p, q, m), or None."""
    if (p, q) in {(1, 0), (1, 1), (2, 1), (3, 1)}:
        return f"(p, q) = {(p, q)} excluded; use gamma_pullback"
    if m < 8 or m % 8:
        return "closed forms require m >= 8 with 8 | m"
    return None


def gamma_applicable(p: int, q: int, mults) -> bool:
    """Cases covered by the closed quartic gamma formulas with unit twists."""
    refusal = closed_form_refusal(p, q, module_dim(p, q, mults))
    return refusal is None and not expected_degenerate(p, q, mults)


@dataclass
class ClassificationReport:
    p: int
    q: int
    m: int
    mults: tuple[int, ...]
    degenerate: bool
    square_of_quadratic: bool
    exceptional: bool
    generic: bool
    prehomogeneous: bool
    pv_entry: str | None
    pure_over_C: bool
    explain: dict[str, str] | None = None

    def as_dict(self) -> dict:
        """The fields in order, without ``explain`` when it is None."""
        out = asdict(self)
        if self.explain is None:
            del out["explain"]
        return out


def non_pv_condition(p: int, q: int, m: int, mixed_over_c: bool) -> bool:
    """The quartic is a relative invariant of no prehomogeneous space iff:
    n = 5 and m > 8; n = 6, m > 16 and mixed over C; n in {7, 8, 9} and
    m > 16; n = 10 and (m > 32, or m = 32 and mixed over C); n = 11 and
    m > 32; or n >= 12."""
    n = p + q
    if n <= 4:
        return False
    if n == 5:
        return m > 8
    if n == 6:
        return m > 16 and mixed_over_c
    if n in (7, 8, 9):
        return m > 16
    if n == 10:
        return m > 32 or (m == 32 and mixed_over_c)
    if n == 11:
        return m > 32
    return True


# Side conditions of Table 1 rows, on the total multiplicity kt and the
# multiplicities ke, ko of the two halfspin classes.
_ANY, _IRREDUCIBLE, _ISOTYPIC, _ONE_EACH, _ISOTYPIC_PAIR = (
    lambda kt, ke, ko: True,
    lambda kt, ke, ko: kt == 1,
    lambda kt, ke, ko: ke * ko == 0 and kt >= 2,
    lambda kt, ke, ko: ke == ko == 1,
    lambda kt, ke, ko: ke * ko == 0 and kt == 2,
)

# Table 1: the prehomogeneous spaces with the quartic as relative invariant,
# as (condition, entry) rows keyed by (p, q); the first row whose condition
# holds gives the entry.  Its format fields are the total multiplicity {kt}
# (and {kt2} = 2 kt), the multiplicities {m0}.. of the classes, and {h0}..
# those of the classes of the halfspin in use.
TABLE1 = {
    (1, 0): ((_ANY, "(GL₁(ℝ)×SO({m0},{m1}), Λ₁)"),),
    (2, 0): ((_ANY, "(GL₁(ℂ)×SO({kt},ℂ), Λ₁)"),),
    (1, 1): ((_ANY, "(GL₁(ℝ)×SO({m0},{m1}), Λ₁)⊕(GL₁(ℝ)×SO({m2},{m3}), Λ₁)"),),
    (3, 0): ((_ANY, "(GL₁(ℍ)×SO*({kt2}), Λ₁⊗Λ₁)"),),
    (2, 1): ((_ANY, "(GL₂(ℝ)×SO({m0},{m1}), Λ₁⊗Λ₁)"),),
    (4, 0): ((_ANY, "(GL₁(ℍ)×GL₁(ℍ)×GL({kt},ℍ), (Λ₁⊗1⊗Λ₁)⊕(1⊗Λ₁⊗Λ₁*))"),),
    (3, 1): ((_ANY, "(GL₂(ℂ)×SU({m0},{m1}), Λ₁⊗Λ₁)"),),
    (2, 2): ((_ANY, "(GL₂(ℝ)×GL₂(ℝ)×SL({kt},ℝ), (Λ₁⊗1)⊕(1⊗Λ₁⊗Λ₁))"),),
    (5, 0): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(8), Λ₁)"),),
    (4, 1): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(4,4), Λ₁)"),),
    (3, 2): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(4,4), Λ₁)"),),
    (6, 0): ((_IRREDUCIBLE, "(GL₂(ℂ)×SU(4), Λ₁⊗Λ₁)"),),
    (5, 1): (
        (_ISOTYPIC, "(GL₂(ℍ)×Sp({h0},{h1}), Λ₁⊗Λ₁)"),
        (_ONE_EACH, "(GL₁(ℝ)×SL(2,ℍ)×SU(2)×SU(2), (Λ₁⊗Λ₁⊗1)⊕(Λ₁*⊗1⊗Λ₁))"),
    ),
    (4, 2): ((_IRREDUCIBLE, "(GL₂(ℂ)×SU(2,2), Λ₁⊗Λ₁)"),),
    (3, 3): (
        (_ISOTYPIC, "(GL₄(ℝ)×Sp({kt},ℝ), Λ₁⊗Λ₁)"),
        (_ONE_EACH, "(GL₁(ℝ)×SL(4,ℝ)×SL(2,ℝ)×SL(2,ℝ), (Λ₁⊗Λ₁⊗1)⊕(Λ₁*⊗1⊗Λ₁))"),
    ),
    (7, 0): ((_IRREDUCIBLE, "(GL₂(ℝ)×SO(8), Λ₁⊗Λ₁)"),),
    (6, 1): ((_IRREDUCIBLE, "(GL₁(ℍ)×SO*(8), Λ₁⊗Λ₁)"),),
    (5, 2): ((_IRREDUCIBLE, "(GL₁(ℍ)×SO*(8), Λ₁⊗Λ₁)"),),
    (4, 3): ((_IRREDUCIBLE, "(GL₂(ℝ)×SO(4,4), Λ₁⊗Λ₁)"),),
    (8, 0): ((_IRREDUCIBLE, "(GL₁(ℝ)×GL₁(ℝ)×SO(8)×SO(8), (Λ₁⊗1)⊕(1⊗Λ₁))"),),
    (7, 1): ((_IRREDUCIBLE, "(GL₁(ℂ)×SO(8,ℂ), Λ₁)"),),
    (5, 3): ((_IRREDUCIBLE, "(GL₁(ℂ)×SO(8,ℂ), Λ₁)"),),
    (4, 4): ((_IRREDUCIBLE, "(GL₁(ℝ)×GL₁(ℝ)×SO(4,4)×SO(4,4), (Λ₁⊗1)⊕(1⊗Λ₁))"),),
    (9, 0): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(16), Λ₁)"),),
    (8, 1): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(8,8), Λ₁)"),),
    (5, 4): ((_IRREDUCIBLE, "(GL₁(ℝ)×SO(8,8), Λ₁)"),),
    (9, 1): ((_ISOTYPIC_PAIR, "(GL₂(ℝ)×Spin(9,1), Λ₁⊗Λ_♯)"),),
    (7, 3): ((_IRREDUCIBLE, "(GL₁(ℍ)×Spin(7,3), Λ₁⊗Λ_♯)"),),
    (5, 5): ((_ISOTYPIC_PAIR, "(GL₂(ℝ)×Spin(5,5), Λ₁⊗Λ_♯)"),),
    (10, 1): ((_IRREDUCIBLE, "(GL₁(ℝ)×Spin(10,2), Λ_♯)"),),
    (9, 2): ((_IRREDUCIBLE, "(GL₁(ℝ)×Spin(10,2), Λ_♯)"),),
    (6, 5): ((_IRREDUCIBLE, "(GL₁(ℝ)×Spin(6,6), Λ_♯)"),),
}


def table1_lookup(p: int, q: int, mults) -> str | None:
    """Prehomogeneous space with the quartic as relative invariant, if any:
    the entry of the first ``TABLE1`` row of (p, q) whose side condition
    holds, with the actual multiplicities substituted."""
    if p < q:
        raise InvalidInputError("classification uses the p >= q convention")
    mults = tuple(mults)
    if expected_degenerate(p, q, mults):  # also refuses an invalid vector
        return None
    kt = sum(mults)
    ke, ko = _halfspin_mults(p, q, mults)
    used = [k for k, h in zip(mults, irrep_catalog(p, q).halfspin) if h == (ke == 0)]
    fields = {f"m{i}": k for i, k in enumerate(mults)} | {f"h{i}": k for i, k in enumerate(used)}
    for holds, entry in TABLE1.get((p, q), ()):
        if holds(kt, ke, ko):
            return entry.format(kt=kt, kt2=2 * kt, **fields)
    return None


def classify(p: int, q: int, mults, explain: bool = False) -> ClassificationReport:
    """Full verdict for the module with the given multiplicities."""
    if p < q:
        raise InvalidInputError("classification uses the p >= q convention")
    mults = tuple(int(k) for k in mults)
    m = module_dim(p, q, mults)
    pred = predict(p, q, mults)
    degenerate, exceptional = pred.degenerate, pred.exceptional
    poc = pure_over_c(p, q, mults)
    generic = not degenerate and not exceptional
    square = (not degenerate) and (
        (p, q) == (1, 0) or (p, q, m) in SQUARE_TRIPLES
    )
    pv = (not degenerate) and not non_pv_condition(p, q, m, not poc)
    entry = table1_lookup(p, q, mults) if pv else None
    notes = None
    if explain:
        notes = {
            "degenerate": "vanishing table of (p,q,m) triples plus the rank-2 pure rule",
            "exceptional": "low-dimension exception table of (p+q, m) pairs",
            "prehomogeneous": "complement of the non-invariant conditions on (p+q, m, purity)",
            "pv_entry": "static catalog of prehomogeneous spaces with this quartic",
            "square_of_quadratic": "(1,0,m) for all m and ten sporadic (p,q,m) triples",
        }
    return ClassificationReport(
        p, q, m, mults, degenerate, square, exceptional, generic, pv, entry, poc, notes
    )
