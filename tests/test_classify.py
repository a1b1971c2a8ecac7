import ast
import importlib
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest

import cqforms
from cqforms import repkit
from cqforms.classify import (
    DEGENERATE_TRIPLES,
    EXCEPTIONAL_NM,
    SymmetryPrediction,
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
from cqforms.repkit import InvalidInputError, irrep_catalog, module_dim
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
    if p < q:
        raise InvalidInputError("classification uses the p >= q convention")
    mults = tuple(mults)
    if expected_degenerate(p, q, mults):  # also refuses an invalid vector
        return None
    kt = sum(mults)
    halfspin = _former_halfspin(p, q)
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
            ks = [k for k, h in zip(mults, halfspin) if (h == 0) == (ke > 0)]
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
    same refusal of an invalid vector or of p < q."""
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
    assert (compared, refused, found) == (4720, 3864, 759)


def test_table1_refuses_p_below_q():
    # (2, 3) is the (3, 2) module with quartic -F, not a space without one
    with pytest.raises(InvalidInputError, match=r"^classification uses the p >= q convention$"):
        table1_lookup(2, 3, (1,))


# ------------------------------------------------- exceptional table oracle
# Test-local copies of the former code: EXCEPTIONAL_NM as a set of pairs with
# the dimensions of g in a second table, and purity read from the set of
# halfspin labels in use.

_FORMER_EXCEPTIONAL_NM = {(3, 4), (4, 8), (5, 8), (6, 16), (7, 16), (8, 16), (9, 16), (10, 32), (11, 32)}


def _former_is_pure(p, q, mults):
    module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    used = {_former_halfspin(p, q)[i] for i, k in enumerate(mults) if k}
    if cat.shape not in ("(T,2T')", "(2T,2T')", "(4T,2T')"):  # one even class
        return True
    if cat.count == 1:
        return False
    return len(used) <= 1


def _former_pure_over_c(p, q, mults):
    module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    if cat.shape == "(T,2T')":
        return False
    if cat.even_field == "C":
        return False
    used = {_former_halfspin(p, q)[i] for i, k in enumerate(mults) if k}
    return len(used) <= 1


def _former_exceptional_g_dim(p, q, mults):
    n = p + q
    m = module_dim(p, q, mults)
    table = {(3, 4): 6, (4, 8): 13, (5, 8): 28, (7, 16): 31, (8, 16): 57, (9, 16): 120, (11, 32): 66}
    if (n, m) in table:
        return table[(n, m)]
    if (n, m) == (6, 16):
        return 30 if _former_pure_over_c(p, q, mults) else 22
    if (n, m) == (10, 32):
        return 48 if _former_pure_over_c(p, q, mults) else 46
    return None


def _former_expected_sharp(p, q, mults):
    m = module_dim(p, q, mults)
    if (p + q, m) in {(a + b, c) for a, b, c in DEGENERATE_TRIPLES} | _FORMER_EXCEPTIONAL_NM:
        return False
    return not ({p, q} == {1, 1} and _former_is_pure(p, q, mults) and m >= 2)


def _former_predict(p, q, mults):
    m = module_dim(p, q, mults)
    name, h_dim = h_algebra(p, q, mults)
    n = p + q
    if expected_degenerate(p, q, mults):
        return SymmetryPrediction(name, h_dim, m * m, False, True, None)
    if (n, m) in _FORMER_EXCEPTIONAL_NM:
        gexc = _former_exceptional_g_dim(p, q, mults)
        return SymmetryPrediction(name, h_dim, gexc, True, False, gexc)
    return SymmetryPrediction(name, h_dim, n * (n - 1) // 2 + h_dim, False, False, None)


def test_exceptional_table_matches_the_former_two_tables():
    """Every (p, q) with 1 <= p + q <= 16, either order, and every
    multiplicity vector with entries <= 3: the same values, and the same
    refusal of an invalid vector, from the five readers of the table."""
    assert set(EXCEPTIONAL_NM) == _FORMER_EXCEPTIONAL_NM
    pairs = [
        (is_pure, _former_is_pure),
        (pure_over_c, _former_pure_over_c),
        (exceptional_g_dim, _former_exceptional_g_dim),
        (expected_sharp, _former_expected_sharp),
        (predict, _former_predict),
    ]
    compared = refused = found = 0
    for n in range(1, 17):
        for p in range(n + 1):
            q = n - p
            count = irrep_catalog(p, q).count
            vectors = list(itertools.product(range(4), repeat=count))
            vectors += [(1,) * (count + 1), (-1,) + (1,) * (count - 1)]
            for mults in vectors:
                for new, former in pairs:
                    try:
                        want = former(p, q, mults)
                    except InvalidInputError as err:
                        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(err))}$"):
                            new(p, q, mults)
                        refused += 1
                        continue
                    assert new(p, q, mults) == want, (new.__name__, p, q, mults)
                    compared += 1
                    found += new is exceptional_g_dim and want is not None
    assert (compared, refused, found) == (18840, 2280, 141)


# ------------------------------------------------------ class catalog oracle
# Test-local copies of the former code: the halfspin labels as a positional
# table by shape, h with one branch per shape and fields, and the twists
# with the class orders of (1, 0) and (1, 1) written out.


def _former_halfspin(p, q):
    cat = irrep_catalog(p, q)
    if cat.shape == "(4T,2T')":
        return (0, 0, 1, 1)
    if cat.shape == "(2T,2T')":
        return (0, 1)
    return (0,) * cat.count


def _former_h_algebra(p, q, mults):
    module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    ks = tuple(mults)
    shape, field, even = cat.shape, cat.field, cat.even_field
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
        if field == "R":
            return f"gl({k},R)", k * k
        return f"gl({k},H)", 4 * k * k
    if shape == "(2T,T')":
        k1, k2 = ks
        kk = k1 + k2
        if field == "R":
            return f"so({k1},{k2})", kk * (kk - 1) // 2
        if field == "C":
            return f"u({k1},{k2})", kk * kk
        return f"sp({k1},{k2})", kk * (2 * kk + 1)
    if shape == "(2T,2T')":
        k1, k2 = ks
        if even == "R":
            return f"sp({k1},R)+sp({k2},R)", k1 * (2 * k1 + 1) + k2 * (2 * k2 + 1)
        return f"so*({2 * k1})+so*({2 * k2})", k1 * (2 * k1 - 1) + k2 * (2 * k2 - 1)
    k1, k2, k3, k4 = ks
    if field == "R":
        ka, kb = k1 + k2, k3 + k4
        return f"so({k1},{k2})+so({k3},{k4})", ka * (ka - 1) // 2 + kb * (kb - 1) // 2
    ka, kb = k1 + k2, k3 + k4
    return f"sp({k1},{k2})+sp({k3},{k4})", ka * (2 * ka + 1) + kb * (2 * kb + 1)


def _former_expected_twists(p, q, mults, labels):
    m = module_dim(p, q, mults)
    cat = irrep_catalog(p, q)
    sign = {"+": 1, "-": -1}
    if (p, q) == (1, 0):
        kp = mults[0] * cat.dim  # class 0 is the generator acting by +1
        return [Fraction(sign[lab] * (kp - (m - kp)), 8) for lab in labels]
    if (p, q) == (1, 1):
        k11, k22, k33, k44 = mults  # classes ordered (+,+), (-,-), (+,-), (-,+)
        return [Fraction(sign[tau] * ((k11 - k22) + sign[eta] * (k33 - k44)), 8) for eta, tau in labels]
    if q == 1:
        f_signs = [tf for _, tf, _ in repkit._class_descriptors(p, q)]
        diff = sum(k * f for k, f in zip(mults, f_signs))
        at = {"+": 0, "-+": 1, "--": -1}
        return [Fraction(at[lab] * cat.dim * diff, 8) for lab in labels]
    return [Fraction(0) for _ in labels]


def _compare(pairs, grid):
    """(values compared, refusals compared) of new against former over the
    (p, q, mults) grid: equal values, or the same InvalidInputError."""
    compared = refused = 0
    for p, q, mults in grid:
        for new, former in pairs:
            try:
                want = former(p, q, mults)
            except InvalidInputError as err:
                with pytest.raises(InvalidInputError, match=f"^{re.escape(str(err))}$"):
                    new(p, q, mults)
                refused += 1
                continue
            assert new(p, q, mults) == want, (new, p, q, mults)
            compared += 1
    return compared, refused


def _vectors(p, q):
    """Every multiplicity vector with entries <= 4, one too long and one
    negative."""
    count = irrep_catalog(p, q).count
    return list(itertools.product(range(5), repeat=count)) + [(1,) * (count + 1), (-1,) + (1,) * (count - 1)]


def test_halfspin_labels_match_the_former_table():
    pairs = [(p, n - p) for n in range(1, 33) for p in range(n + 1)]
    assert all(irrep_catalog(p, q).halfspin == _former_halfspin(p, q) for p, q in pairs)
    assert len(pairs) == 560


def test_catalog_readers_match_the_former_code():
    """h, purity and purity over C on every (p, q) with 1 <= p + q <= 16 in
    either order; the twists at the labels of ``components`` for p >= q."""
    grid = [(p, n - p, mults) for n in range(1, 17) for p in range(n + 1) for mults in _vectors(p, n - p)]
    pairs = [(h_algebra, _former_h_algebra), (is_pure, _former_is_pure), (pure_over_c, _former_pure_over_c)]
    assert _compare(pairs, grid) == (24384, 1368)

    def twists(expected):
        return lambda p, q, mults: expected(p, q, mults, [label for label, _ in components(p, q)])

    at_least_q = [(p, q, mults) for p, q, mults in grid if p >= q]
    assert _compare([(twists(expected_twists), twists(_former_expected_twists))], at_least_q) == (4720, 240)


def test_family_signs_are_the_class_signs():
    for p, q in [(1, 0), (1, 1), (3, 1), (5, 1), (3, 3), (9, 1)]:
        cat = irrep_catalog(p, q)
        assert cat.family_signs == tuple((te, tf) for te, tf, _ in repkit._class_descriptors(p, q))
        assert len(cat.family_signs) == cat.count
    assert irrep_catalog(1, 1).family_signs == ((1, 1), (-1, -1), (1, -1), (-1, 1))
