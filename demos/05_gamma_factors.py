"""Gamma factors of the local functional equations.

The quartic's gamma matrix factors through the quadratic one: it is the
twisted product  2^{4s + m/2} Gamma(s) diag(gamma_k) Gamma(s + (m-2n)/4)
of two quadratic gamma matrices, the twist being eighth roots of unity from
the signatures of S(v) on each connected component of {P != 0}.  The closed
quartic formulas agree with this product to full precision, and the double
functional equation composes to the identity.
"""

import numpy as np

from cqforms import (
    components,
    fe_involution_check,
    gamma_constants,
    gamma_pullback,
    gamma_quadratic,
    gamma_quartic,
    rep_build,
)

# ---------------------------------------------------------------------------
# Connected components and their signature constants
# ---------------------------------------------------------------------------

rep = rep_build(1, 0, (3, 1))  # definite line, mixed multiplicities
consts = gamma_constants(rep)
print("rank-one module with multiplicities (3, 1):")
for label, sig, g in zip(consts.labels, consts.signatures, consts.gammas):
    print(f"  component {label:2s}: signature {sig}, eighth-root constant {g:.3f}")
print()

rep32 = rep_build(3, 2, (2,))
consts = gamma_constants(rep32)
print(f"(3,2) module, m = 16: constants {[round(abs(g), 3) for g in consts.gammas]},"
      f" alpha = {consts.alpha}, beta = {consts.beta}")
print("components of the rank-5 split form:", [lab for lab, _ in components(3, 2)])
print()

# ---------------------------------------------------------------------------
# Quadratic gamma matrix -> quartic gamma matrix by composition
# ---------------------------------------------------------------------------

s = 0.4
gq2 = gamma_quadratic(3, 2, s)
print(f"quadratic gamma matrix at s = {s} (labels {gq2.labels}):")
print(np.array_str(gq2.values, precision=4))

closed = gamma_quartic(3, 2, 16, s)
pulled = gamma_pullback(consts, s)
print(f"\nclosed quartic gamma at s = {s}:")
print(np.array_str(closed.values, precision=6))
rel = np.max(np.abs(closed.values - pulled.values)) / np.max(np.abs(closed.values))
print(f"twisted product of quadratic factors matches to {rel:.2e} relative")
print()

# ---------------------------------------------------------------------------
# Applying the functional equation twice must be the identity
# ---------------------------------------------------------------------------

for (p, q, m) in [(3, 2, 16), (4, 1, 16), (4, 0, 16), (9, 0, 16)]:
    ok = fe_involution_check(p, q, m, 0.3 + 0.7j, tol=1e-10)
    print(f"Gamma(s) Gamma(-{m//4}-s) = identity for ({p},{q},{m}): {ok}")
