"""The quartic invariant: expansion, degeneracy, squares, homaloidal law.

F(w) = sum_{i <= p} S_i[w]^2 - sum_{i > p} S_i[w]^2 is a degree-4 form with
integer coefficients.  Everything below is exact integer arithmetic.
"""

from cqforms import (
    check_32_identity,
    eval_quartic,
    expand_coeffs,
    grad_quartic,
    homaloidal_check,
    rep_build,
    square_detect,
)
from cqforms.quartic import expected_degenerate

# ---------------------------------------------------------------------------
# The smallest interesting example: the split rank-2 module on R^2 has
# F = 4 x^2 y^2, a perfect square.
# ---------------------------------------------------------------------------

rep = rep_build(1, 1, (1, 0, 1, 0))
form = expand_coeffs(rep)
print("coefficients of F for the split rank-2 module:", form.coeffs)
print("F(1, 2) =", eval_quartic(rep, [1, 2]))
print("grad F(1, 2) =", grad_quartic(rep, [1, 2]))

witness = square_detect(form)
print(f"square witness: c = {witness.c}, matrix rows = {[list(map(str, r)) for r in witness.mat]}")
print()

# ---------------------------------------------------------------------------
# Degeneracy: the quartic vanishes identically exactly for a short list of
# (p, q, m).  The irreducible (2, 1) module on R^2 is the smallest case.
# ---------------------------------------------------------------------------

for args in [((2, 1), (1, 0)), ((2, 2), (1,)), ((3, 2), (1,)), ((9, 1), (1, 0, 0, 0))]:
    rep = rep_build(*args[0], args[1])
    computed = expand_coeffs(rep).is_zero
    table = expected_degenerate(rep.p, rep.q, rep.mults)
    print(f"({rep.p},{rep.q}) m={rep.m:3d}: vanishes = {computed} (table agrees: {computed == table})")
print()

# ---------------------------------------------------------------------------
# Every nonvanishing quartic in this family is homaloidal, with the closed
# multiplicative law F(grad F(w)) = 256 F(w)^3.  Check it in big integers.
# ---------------------------------------------------------------------------

rep = rep_build(3, 2, (2,))  # m = 16, a non-prehomogeneous case
print("homaloidal identity at 20 random integer points:", homaloidal_check(rep, 20, seed=7))

w = list(range(1, 17))
lhs = eval_quartic(rep, grad_quartic(rep, w))
rhs = 256 * eval_quartic(rep, w) ** 3
print(f"at w = 1..16: F(grad F) = {lhs}")
print(f"             256 F^3    = {rhs}  (equal: {lhs == rhs})")
print()

# ---------------------------------------------------------------------------
# The split (3, 2) module in matrix coordinates: on M(4, 2k) the quartic is
# -16 Pf(w J_k w^T) + tr(J_2 w J_k w^T)^2.
# ---------------------------------------------------------------------------

for k in (1, 2, 3):
    print(f"rank-(3,2) Pfaffian identity on M(4,{2*k}):", check_32_identity(k))
