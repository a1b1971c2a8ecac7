"""Build Clifford modules and verify their defining relations.

A (p, q) module is a family of symmetric signed-permutation matrices
S_1, ..., S_{p+q} with S_i^2 = 1, anticommuting inside each of the two
generator blocks and commuting across them.  This walk-through builds a few,
checks the relations, and shows the split canonical form.
"""

import numpy as np

from cqforms import canonicalize, irrep_catalog, pos_clifford_basis, rep_build, verify_relations
from cqforms.spmat import signed_permutation_matrix

# ---------------------------------------------------------------------------
# Generator families for a single positive-definite Clifford algebra, each a
# pair of (p, d) arrays (perm, sign) with E_i e_a = sign[i, a] e_{perm[i, a]}
# ---------------------------------------------------------------------------

for p in (2, 3, 5, 9):
    fam = signed_permutation_matrix(*pos_clifford_basis(p))
    print(f"C_{p}: {p} anticommuting symmetric involutions on R^{fam[0].shape[0]}")
print()

# the p = 2 family is the classic pair diag(1,-1), antidiag(1,1)
z, x = signed_permutation_matrix(*pos_clifford_basis(2))
print("E_1 =\n", z, "\nE_2 =\n", x)
print("E_1 E_2 + E_2 E_1 =\n", z @ x + x @ z)
print()

# ---------------------------------------------------------------------------
# Tensor-product modules: how many irreducibles, and how large?
# ---------------------------------------------------------------------------

for p, q in [(3, 2), (1, 1), (9, 1), (5, 4)]:
    cat = irrep_catalog(p, q)
    print(f"C_{p} (x) C_{q}: {cat.count} inequivalent irreducible(s) of dimension {cat.dim}"
          f"  [{cat.shape} over ({cat.field},{cat.even_field})]")
print()

# build the 8-dimensional irreducible (3, 2) module and verify everything
rep = rep_build(3, 2, (1,))
report = verify_relations(rep)
print(f"(3,2) module, m = {rep.m}:")
for name, ok, detail in report.checks:
    print(f"  {name:28s} {'ok' if ok else 'FAIL':4s} {detail}")
print()

# ---------------------------------------------------------------------------
# Canonical split form (p >= 2): S_1 = diag(1, -1), S_2 = antidiag(1, 1),
# the remaining S_i antidiagonal with skew orthogonal blocks, and the
# negative generators block-diagonal with equal blocks.
# ---------------------------------------------------------------------------

can, a_blocks, b_blocks = canonicalize(rep)
d = rep.m // 2
print(f"canonical form with d = {d}:")
print("  S_1 diagonal:", np.array_equal(can.basis[0], np.diag([1] * d + [-1] * d)))
print("  B_2 = identity:", np.array_equal(b_blocks[0], np.eye(d, dtype=np.int64)))
print("  B_3 skew orthogonal:", np.array_equal(b_blocks[1].T, -b_blocks[1]))
print("  A_1 A_2 = -A_2 A_1:", np.array_equal(a_blocks[0] @ a_blocks[1], -a_blocks[1] @ a_blocks[0]))
