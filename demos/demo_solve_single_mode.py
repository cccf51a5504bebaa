"""Solve one Fourier sub-mode end to end and inspect every piece.

We take the weight-(3/2, 3/2) equation with eigenvalue 30 = 5*6 and the
sub-mode (n1, n2) = (1, 2): build the source term, solve the banded exact
system for the polynomial-times-Bessel particular solution, match the
homogeneous coefficient at y -> 0, and verify the result numerically.
"""

from fractions import Fraction

from eisenmodes import NumericEnv, Params, residual, solve_mode, source_term
from eisenmodes.bessel import expr_latex

env = NumericEnv()
params = Params(Fraction(3, 2), Fraction(3, 2), 30)
n1, n2 = 1, 2

print(f"solving {params.describe()} at (n1, n2) = ({n1}, {n2})")
src = source_term(params, n1, n2)
print("\nsource prefactor:", src.prefactor)
print("source core (reduced to the K0/K1 basis):")
for cell, poly in sorted(src.core.table.items()):
    print("  K%d K%d :" % cell, poly)

mode = solve_mode(params, n1, n2)
print("\nsolve report:", mode.to_json_obj()["report"])
print("\nparticular solution tables (prefactor folded in):")
for cell, poly in sorted(mode.particular.table.items()):
    print("  K%d K%d :" % cell, poly)

print("\nhomogeneous basis:", mode.hom_basis.describe())
print("alpha (normalized basis):", mode.alpha)
print(mode.alpha_normalization)

print("\nLaTeX form of the particular part:")
print(expr_latex(mode.particular)[:400], "...")

print("\nnumeric operator residuals |LHS - RHS| / |RHS|:")
for y in (0.3, 1.0, 3.0):
    print(f"  y = {y}: {residual(mode, y, env):.3e}")
