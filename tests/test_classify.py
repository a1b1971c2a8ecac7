import ast
import importlib
import itertools
import re
from pathlib import Path

import pytest

import cqforms
from cqforms.classify import (
    classify,
    exceptional_g_dim,
    expected_degenerate,
    expected_det_square,
    expected_sharp,
    expected_twists,
    gamma_applicable,
    h_algebra,
    is_pure,
    predict,
    pure_over_c,
    table1_lookup,
)
from cqforms.repkit import InvalidInputError, irrep_catalog
from cqforms.suite import enumerate_cases
from cqforms.zetafe import components

# the prediction tables, each stated in classify and nowhere else
TABLE_NAMES = [
    "DEGENERATE_TRIPLES",
    "SQUARE_TRIPLES",
    "EXCEPTIONAL_NM",
    "_DEGENERATE_NM",
    "expected_degenerate",
    "is_pure",
    "expected_sharp",
    "h_algebra",
    "pure_over_c",
    "exceptional_g_dim",
    "SymmetryPrediction",
    "predict",
    "expected_twists",
    "closed_form_refusal",
    "gamma_applicable",
    "expected_det_square",
]


def test_generic_non_pv_example():
    r = classify(3, 2, (2,))
    assert r.generic and not r.degenerate and not r.exceptional
    assert not r.prehomogeneous and r.pv_entry is None


def test_exceptional_pv_example():
    r = classify(9, 0, (1, 0))
    assert r.exceptional and r.prehomogeneous
    assert r.pv_entry == "(GL₁(ℝ)×SO(16), Λ₁)"


def test_large_rank_never_pv():
    r = classify(12, 0, (1,))
    assert r.generic and not r.prehomogeneous


def test_degenerate_cases():
    r = classify(2, 2, (1,))
    assert r.degenerate and not r.prehomogeneous and not r.square_of_quadratic
    r = classify(1, 1, (2, 1, 0, 0))
    assert r.degenerate


def test_square_flags():
    assert classify(3, 2, (1,)).square_of_quadratic
    assert not classify(3, 2, (2,)).square_of_quadratic
    assert classify(1, 0, (5, 2)).square_of_quadratic  # every rank-one module
    assert classify(9, 0, (1, 0)).square_of_quadratic
    assert not classify(9, 0, (1, 1)).square_of_quadratic


def test_table1_examples():
    assert table1_lookup(7, 1, (1, 0)) == "(GL₁(ℂ)×SO(8,ℂ), Λ₁)"
    assert table1_lookup(6, 5, (1, 0)) == "(GL₁(ℝ)×Spin(6,6), Λ_♯)"
    assert table1_lookup(12, 0, (1,)) is None


def test_table1_side_conditions():
    # (5, 1): quaternionic row needs total multiplicity >= 2 on one half
    assert table1_lookup(5, 1, (1, 0, 0, 0)) is None  # degenerate
    assert "Sp(2,0)" in table1_lookup(5, 1, (2, 0, 0, 0))
    assert "SL(2,ℍ)" in table1_lookup(5, 1, (1, 0, 1, 0))
    assert table1_lookup(5, 1, (2, 0, 1, 0)) is None  # mixed with m > 16
    # (3, 3) split row
    assert "Sp(2,ℝ)" in table1_lookup(3, 3, (2, 0))
    assert "SL(4,ℝ)" in table1_lookup(3, 3, (1, 1))
    assert table1_lookup(3, 3, (2, 1)) is None


def test_invalid_mults():
    with pytest.raises(InvalidInputError):
        classify(3, 2, (0,))
    with pytest.raises(InvalidInputError):
        classify(2, 3, (1,))


@pytest.mark.parametrize(
    "fn",
    [table1_lookup, expected_sharp, expected_degenerate, is_pure, pure_over_c, h_algebra,
     exceptional_g_dim, predict, classify, gamma_applicable, expected_det_square,
     pytest.param(lambda p, q, mults: expected_twists(p, q, mults, ["+"]), id="expected_twists")],
)
@pytest.mark.parametrize(
    "p,q,mults",
    [(1, 0, (1,)), (3, 0, (-1,)), (3, 2, (1, 1)), (3, 2, (0,)), (5, 1, (1, -1, 0, 0))],
)
def test_table_functions_refuse_invalid_mults(fn, p, q, mults):
    with pytest.raises(InvalidInputError):
        fn(p, q, mults)


def _package_imports(module: str) -> set[tuple[str | None, str]]:
    """(submodule, name) of every relative import in a cqforms module."""
    path = Path(importlib.import_module(module).__file__)
    return {
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def test_every_table_lives_in_classify():
    CL = importlib.import_module("cqforms.classify")
    for name in ("quartic", "symlie"):
        module = importlib.import_module(f"cqforms.{name}")
        assert not {*TABLE_NAMES, "_EXCEPTIONAL_NM"} & set(vars(module)), name
    assert all(hasattr(CL, name) for name in TABLE_NAMES)
    assert {mod for mod, _ in _package_imports("cqforms.classify")} == {"repkit"}
    from_quartic = {name for mod, name in _package_imports("cqforms.symlie") if mod == "quartic"}
    assert from_quartic == {"quartic_values"}
    assert cqforms.predict is CL.predict and cqforms.SymmetryPrediction is CL.SymmetryPrediction
    # zetafe and suite hold no table of their own, only names imported from classify
    moved = {"_closed_form_gammas", "_closed_form_refusal", "_EXCLUDED_QUARTIC"}
    for name in ("zetafe", "suite"):
        module = vars(importlib.import_module(f"cqforms.{name}"))
        assert not moved & set(module), name
        assert all(module[t] is getattr(CL, t) for t in TABLE_NAMES if t in module), name


def test_no_module_reads_a_private_name_of_another():
    src = Path(importlib.import_module("cqforms.classify").__file__).parent
    names = {path.stem for path in src.glob("*.py")}
    private = lambda name: name.startswith("_") and not name.endswith("__")
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        # names bound to a sibling module: from . import x [as y], import cqforms.x as y
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.level and node.module is None) or node.module == "cqforms":
                    modules |= {a.asname or a.name for a in node.names if a.name in names}
                elif node.level or (node.module or "").startswith("cqforms."):
                    found += [f"{path.stem} imports {a.name}" for a in node.names if private(a.name)]
            elif isinstance(node, ast.Import):
                modules |= {a.asname for a in node.names if a.name.startswith("cqforms.") and a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    found.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert len(names) > 8 and not found, found


def test_gamma_applicable_means_unit_twists():
    applicable = 0
    for p, q, mults in enumerate_cases(max_pq=12, max_m=64):
        if gamma_applicable(p, q, mults):
            applicable += 1
            labels = [label for label, _ in components(p, q)]
            assert all(x % 1 == 0 for x in expected_twists(p, q, mults, labels)), (p, q, mults)
    assert applicable == 139


def test_verdicts_mutually_exclusive_and_pv_iff_table():
    for n in range(1, 13):
        for q in range(0, n // 2 + 1):
            p = n - q
            cat = irrep_catalog(p, q)
            for mults in itertools.product(range(3), repeat=cat.count):
                if not 1 <= sum(mults) <= 2:
                    continue
                r = classify(p, q, mults)
                assert [r.degenerate, r.exceptional, r.generic].count(True) == 1
                assert r.prehomogeneous == (table1_lookup(p, q, mults) is not None)
                if r.degenerate:
                    assert not r.prehomogeneous


def test_pq_at_most_4_always_pv():
    for n in range(1, 5):
        for q in range(0, n // 2 + 1):
            p = n - q
            cat = irrep_catalog(p, q)
            for mults in itertools.product(range(3), repeat=cat.count):
                if not 1 <= sum(mults) <= 2:
                    continue
                r = classify(p, q, mults)
                if not r.degenerate:
                    assert r.prehomogeneous, (p, q, mults)


def test_explain_notes():
    r = classify(9, 0, (1, 0), explain=True)
    assert r.explain is not None and "prehomogeneous" in r.explain


# ------------------------------------------------------------ Table 1 oracle


def _table1_branches(p: int, q: int, mults) -> str | None:
    """``table1_lookup`` as one if-branch per (p, q) and side condition, the
    form Table 1 had before it became the rows of ``TABLE1``."""
    mults = tuple(mults)
    if expected_degenerate(p, q, mults):  # also refuses an invalid vector
        return None
    kt = sum(mults)
    halfspin = irrep_catalog(p, q).halfspin
    ke = sum(k for k, h in zip(mults, halfspin) if h == 0)
    ko = sum(k for k, h in zip(mults, halfspin) if h == 1)

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


def test_table1_rows_match_the_branch_oracle():
    """Every (p, q) with 1 <= p + q <= 16, either order, and every
    multiplicity vector with entries <= 4: the same entry or None, and the
    same refusal of an invalid vector."""
    compared = refused = found = 0
    for n in range(1, 17):
        for p in range(n + 1):
            q = n - p
            count = irrep_catalog(p, q).count
            vectors = list(itertools.product(range(5), repeat=count))
            vectors += [(1,) * (count + 1), (-1,) + (1,) * (count - 1)]
            for mults in vectors:
                try:
                    want = _table1_branches(p, q, mults)
                except InvalidInputError as err:
                    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(err))}$"):
                        table1_lookup(p, q, mults)
                    refused += 1
                    continue
                assert table1_lookup(p, q, mults) == want, (p, q, mults)
                compared += 1
                found += want is not None
    assert (compared, refused, found) == (8128, 456, 759)
