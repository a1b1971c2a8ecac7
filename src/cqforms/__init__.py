"""cqforms: Clifford modules, their quartic invariants, symmetry Lie
algebras, and the gamma factors of the associated local zeta functional
equations.

The package constructs representations of C_p (x) C_q by symmetric
signed-permutation integer matrices, manipulates the attached degree-4
invariant exactly, computes symmetry Lie algebra dimensions as nullspaces,
classifies each module against the known tables, and evaluates and
cross-checks the gamma matrices of the local functional equations.
"""

from .classify import ClassificationReport, classify, table1_lookup
from .quartic import (
    QuadraticSquareWitness,
    QuarticForm,
    check_32_identity,
    eval_quartic,
    expand_coeffs,
    grad_quartic,
    homaloidal_check,
    pfaffian4,
    quartic_values,
    square_detect,
)
from .repkit import (
    CliffordRep,
    IrrepCatalog,
    canonicalize,
    irrep_catalog,
    pos_clifford_basis,
    rep_build,
    rep_from_json,
    rep_to_json,
    swap_pq,
    verify_relations,
)
from .symlie import (
    KernelReport,
    SymmetryPrediction,
    g_kernel_dim,
    h_kernel,
    predict,
    sharp_check,
)
from .zetafe import (
    GammaMatrix,
    SignatureConstants,
    ZetaEstimate,
    components,
    fe_involution_check,
    fe_quadratic_numeric_check,
    gamma_constants,
    gamma_pullback,
    gamma_quadratic,
    gamma_quartic,
    zeta_quadratic_numeric,
    zeta_quartic_mc,
)

__version__ = "0.1.0"

__all__ = [
    "CliffordRep",
    "ClassificationReport",
    "GammaMatrix",
    "IrrepCatalog",
    "KernelReport",
    "QuadraticSquareWitness",
    "QuarticForm",
    "SignatureConstants",
    "SymmetryPrediction",
    "ZetaEstimate",
    "canonicalize",
    "check_32_identity",
    "classify",
    "components",
    "eval_quartic",
    "expand_coeffs",
    "fe_involution_check",
    "fe_quadratic_numeric_check",
    "g_kernel_dim",
    "gamma_constants",
    "gamma_pullback",
    "gamma_quadratic",
    "gamma_quartic",
    "grad_quartic",
    "h_kernel",
    "homaloidal_check",
    "irrep_catalog",
    "pfaffian4",
    "pos_clifford_basis",
    "predict",
    "quartic_values",
    "rep_build",
    "rep_from_json",
    "rep_to_json",
    "sharp_check",
    "square_detect",
    "swap_pq",
    "table1_lookup",
    "verify_relations",
    "zeta_quadratic_numeric",
    "zeta_quartic_mc",
]
