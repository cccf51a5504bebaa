"""Weighted combinations of mode solutions (integrated-correlator style).

The T-2 combination

    C_1 + 14175/(704 pi^4) E(6, 5/2, 3/2) - 1215/(88 pi^4) E(4, 5/2, 3/2)

mixes two eigenvalues (42 and 20) of the weight-(5/2, 3/2) equation; its
bilinear Bessel tables collapse to a single table per mode while the
homogeneous sqrt(y) K_{9/2} and sqrt(y) K_{13/2} parts stay separate.
"""

from eisenmodes import NumericEnv, combine
from eisenmodes.homogeneous import T_MINUS_2_WEIGHTS
from eisenmodes.numerics import eval_expr

env = NumericEnv()

for coeff, params in T_MINUS_2_WEIGHTS:
    print("entry:", coeff, "*", params.describe())

comb = combine(T_MINUS_2_WEIGHTS, 1, 2, free_constants=["C1"])
print("\ncombined table cells:", sorted(comb.table.table))
print("homogeneous parts kept per eigenvalue:")
for c, basis in comb.hom_parts:
    print("  ", basis.describe(), "with coefficient", f"{c.evaluate(env):.10g}")

print("\nnumeric values of the combined bilinear part:")
for y in (0.5, 1.0, 2.0):
    print(f"  y = {y}: {eval_expr(comb.table, y, env):.12e}")
print("\nfree additive constants carried symbolically:", comb.free_constants)
