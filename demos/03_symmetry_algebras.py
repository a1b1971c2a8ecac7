"""Symmetry Lie algebras of the quartic, computed and compared to theory.

h is the intersection of the orthogonal Lie algebras of all the S_i; g is
the Lie algebra of the full symmetry group of the quartic.  Generically
g = so(p,q) + h; a finite list of low-dimensional cases is strictly larger.
"""

from cqforms import g_kernel_dim, h_kernel, predict, rep_build, sharp_check
from cqforms.classify import expected_sharp

CASES = [
    ((3, 2), (1,)),   # exceptional: g = so(4,4)
    ((3, 2), (2,)),   # generic:     g = so(3,2) + sp(2,R)
    ((9, 0), (1, 0)),  # exceptional: g = so(16), the triality-flavored case
    ((7, 0), (1,)),   # exceptional: g = so(8) + sl(2,R)
    ((2, 2), (2,)),   # exceptional: four copies of sl(2,R) plus a center
    ((10, 1), (1, 0)),  # exceptional: g = so(10,2), m = 32
]

print(f"{'module':>16s} {'m':>3s} {'h':>4s} {'g':>4s}  prediction")
for (p, q), mults in CASES:
    rep = rep_build(p, q, mults)
    pred = predict(p, q, mults)
    h = h_kernel(rep).dimension
    g = g_kernel_dim(rep, seed=3).dimension
    tag = "exceptional" if pred.exceptional else "generic"
    want = pred.g_dim_exceptional if pred.exceptional else pred.g_dim
    print(
        f"({p},{q}) x {str(mults):>10s} {rep.m:3d} {h:4d} {g:4d}"
        f"  h = {pred.h_algebra} (dim {pred.h_dim}), {tag}, g expected {want}"
    )
print()

# ---------------------------------------------------------------------------
# The mechanism separating generic from exceptional: do symmetric solutions
# of sum_i S_i[w] X_i[w] = 0 reduce to the forced antisymmetric span?
# ---------------------------------------------------------------------------

for (p, q), mults in CASES[:4]:
    rep = rep_build(p, q, mults)
    holds = sharp_check(rep, seed=1)
    print(f"({p},{q}) m={rep.m:3d}: only forced solutions = {holds}"
          f"  (table: {expected_sharp(p, q, mults)})")
