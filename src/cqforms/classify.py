"""Classification verdicts for a module: degenerate / exceptional / generic,
square-of-quadratic, and whether the quartic is a relative invariant of a
prehomogeneous vector space (with the matching space when it is one).

All verdicts are table-driven; the quartic and symmetry-algebra modules
recompute the same answers independently, which the test-suite uses as a
cross-check of every entry within computational range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quartic import SQUARE_TRIPLES, expected_degenerate
from .repkit import InvalidInputError, irrep_catalog
from .symlie import _EXCEPTIONAL_NM, pure_over_c


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
        out = {
            "p": self.p,
            "q": self.q,
            "m": self.m,
            "mults": list(self.mults),
            "degenerate": self.degenerate,
            "square_of_quadratic": self.square_of_quadratic,
            "exceptional": self.exceptional,
            "generic": self.generic,
            "prehomogeneous": self.prehomogeneous,
            "pv_entry": self.pv_entry,
            "pure_over_C": self.pure_over_C,
        }
        if self.explain is not None:
            out["explain"] = self.explain
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


def _halfspin_mults(p: int, q: int, mults) -> tuple[int, int]:
    cat = irrep_catalog(p, q)
    ke = sum(k for k, h in zip(mults, cat.halfspin) if h == 0)
    ko = sum(k for k, h in zip(mults, cat.halfspin) if h == 1)
    return ke, ko


def table1_lookup(p: int, q: int, mults) -> str | None:
    """Prehomogeneous space with the quartic as relative invariant, if any.

    Static data keyed by (p, q) with multiplicity side conditions; the
    descriptor substitutes the actual multiplicities where the group depends
    on them.
    """
    cat = irrep_catalog(p, q)
    mults = tuple(mults)
    m = sum(mults) * cat.dim
    kt = sum(mults)
    ke, ko = _halfspin_mults(p, q, mults)
    degenerate = expected_degenerate(p, q, mults)
    if degenerate:
        return None

    def pair01():
        return mults[0], mults[1]

    if (p, q) == (1, 0):
        return f"(GL₁(ℝ)×SO({mults[0]},{mults[1]}), Λ₁)"
    if (p, q) == (2, 0):
        return f"(GL₁(ℂ)×SO({kt},ℂ), Λ₁)"
    if (p, q) == (1, 1):
        return (
            f"(GL₁(ℝ)×SO({mults[0]},{mults[1]}), Λ₁)⊕"
            f"(GL₁(ℝ)×SO({mults[2]},{mults[3]}), Λ₁)"
        )
    if (p, q) == (3, 0):
        return f"(GL₁(ℍ)×SO*({2 * kt}), Λ₁⊗Λ₁)"
    if (p, q) == (2, 1):
        k1, k2 = pair01()
        return f"(GL₂(ℝ)×SO({k1},{k2}), Λ₁⊗Λ₁)"
    if (p, q) == (4, 0):
        return (
            f"(GL₁(ℍ)×GL₁(ℍ)×GL({kt},ℍ), "
            "(Λ₁⊗1⊗Λ₁)⊕(1⊗Λ₁⊗Λ₁*))"
        )
    if (p, q) == (3, 1):
        k1, k2 = pair01()
        return f"(GL₂(ℂ)×SU({k1},{k2}), Λ₁⊗Λ₁)"
    if (p, q) == (2, 2):
        return (
            f"(GL₂(ℝ)×GL₂(ℝ)×SL({kt},ℝ), "
            "(Λ₁⊗1)⊕(1⊗Λ₁⊗Λ₁))"
        )
    if (p, q) == (5, 0) and kt == 1:
        return "(GL₁(ℝ)×SO(8), Λ₁)"
    if (p, q) == (4, 1) and kt == 1:
        return "(GL₁(ℝ)×SO(4,4), Λ₁)"
    if (p, q) == (3, 2) and kt == 1:
        return "(GL₁(ℝ)×SO(4,4), Λ₁)"
    if (p, q) == (6, 0) and kt == 1:
        return "(GL₂(ℂ)×SU(4), Λ₁⊗Λ₁)"
    if (p, q) == (5, 1):
        if ke * ko == 0 and kt >= 2:
            ks = [k for k, h in zip(mults, irrep_catalog(p, q).halfspin) if (h == 0) == (ke > 0)]
            return f"(GL₂(ℍ)×Sp({ks[0]},{ks[1]}), Λ₁⊗Λ₁)"
        if ke == 1 and ko == 1:
            return (
                "(GL₁(ℝ)×SL(2,ℍ)×SU(2)×SU(2), "
                "(Λ₁⊗Λ₁⊗1)⊕(Λ₁*⊗1⊗Λ₁))"
            )
        return None
    if (p, q) == (4, 2) and kt == 1:
        return "(GL₂(ℂ)×SU(2,2), Λ₁⊗Λ₁)"
    if (p, q) == (3, 3):
        k1, k2 = pair01()
        if k1 * k2 == 0 and kt >= 2:
            return f"(GL₄(ℝ)×Sp({kt},ℝ), Λ₁⊗Λ₁)"
        if (k1, k2) == (1, 1):
            return (
                "(GL₁(ℝ)×SL(4,ℝ)×SL(2,ℝ)×SL(2,ℝ), "
                "(Λ₁⊗Λ₁⊗1)⊕(Λ₁*⊗1⊗Λ₁))"
            )
        return None
    if (p, q) == (7, 0) and kt == 1:
        return "(GL₂(ℝ)×SO(8), Λ₁⊗Λ₁)"
    if (p, q) in ((6, 1), (5, 2)) and kt == 1:
        return "(GL₁(ℍ)×SO*(8), Λ₁⊗Λ₁)"
    if (p, q) == (4, 3) and kt == 1:
        return "(GL₂(ℝ)×SO(4,4), Λ₁⊗Λ₁)"
    if (p, q) == (8, 0) and kt == 1:
        return (
            "(GL₁(ℝ)×GL₁(ℝ)×SO(8)×SO(8), "
            "(Λ₁⊗1)⊕(1⊗Λ₁))"
        )
    if (p, q) in ((7, 1), (5, 3)) and kt == 1:
        return "(GL₁(ℂ)×SO(8,ℂ), Λ₁)"
    if (p, q) == (4, 4) and kt == 1:
        return (
            "(GL₁(ℝ)×GL₁(ℝ)×SO(4,4)×SO(4,4), "
            "(Λ₁⊗1)⊕(1⊗Λ₁))"
        )
    if (p, q) == (9, 0) and kt == 1:
        return "(GL₁(ℝ)×SO(16), Λ₁)"
    if (p, q) in ((8, 1), (5, 4)) and kt == 1:
        return "(GL₁(ℝ)×SO(8,8), Λ₁)"
    if (p, q) == (9, 1) and ke * ko == 0 and kt == 2:
        return "(GL₂(ℝ)×Spin(9,1), Λ₁⊗Λ_♯)"
    if (p, q) == (7, 3) and kt == 1:
        return "(GL₁(ℍ)×Spin(7,3), Λ₁⊗Λ_♯)"
    if (p, q) == (5, 5) and ke * ko == 0 and kt == 2:
        return "(GL₂(ℝ)×Spin(5,5), Λ₁⊗Λ_♯)"
    if (p, q) in ((10, 1), (9, 2)) and kt == 1:
        return "(GL₁(ℝ)×Spin(10,2), Λ_♯)"
    if (p, q) == (6, 5) and kt == 1:
        return "(GL₁(ℝ)×Spin(6,6), Λ_♯)"
    return None


def classify(p: int, q: int, mults, explain: bool = False) -> ClassificationReport:
    """Full verdict for the module with the given multiplicities."""
    if p < q:
        raise InvalidInputError("classification uses the p >= q convention")
    cat = irrep_catalog(p, q)
    mults = tuple(int(k) for k in mults)
    if len(mults) != cat.count or sum(mults) < 1 or min(mults) < 0:
        raise InvalidInputError("invalid multiplicity vector")
    m = sum(mults) * cat.dim
    n = p + q
    degenerate = expected_degenerate(p, q, mults)
    poc = pure_over_c(p, q, mults)
    exceptional = not degenerate and (n, m) in _EXCEPTIONAL_NM
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
