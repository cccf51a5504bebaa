"""Exact Fourier-mode solver for products of non-holomorphic Eisenstein series.

The package finds closed-form Fourier modes of solutions f to

    (Delta - lambda) f = c * zeta(2 alpha) zeta(2 beta) E_alpha E_beta

for half-integer alpha, beta > 1 and lambda = r(r+1): per-mode particular
solutions of polynomial-times-Bessel shape obtained from exact banded linear
solves, the uniquely matched homogeneous coefficients, divisor-sum identities
for their totals, and an independent floating-point verifier.
"""

from .bessel import DoubleBessel, HomBasis, Pure, SingleBessel, apply_euler, apply_L, apply_P, k_index_table
from .divisors import ramanujan_convolution, ramanujan_log_convolution, sigma
from .homogeneous import (
    Combination,
    ModeAssembly,
    ModeSolution,
    Obstruction,
    alpha_decay_scan,
    assemble_mode,
    choose_alpha,
    combine,
    solve_mode,
    zero_mode_alpha_sum,
)
from .laurent import YLaurent
from .numerics import NumericEnv, bessel_k, residual
from .scalars import Constant, zeta_even
from .series import AsymptoticSeries, small_y_series
from .solver import (
    NoSolutionInWindow,
    solve_particular_double,
    solve_particular_single,
    solve_zero_mode,
)
from .sources import Classification, Normalization, Params, classify_params, source_term

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSeries",
    "Classification",
    "Combination",
    "Constant",
    "DoubleBessel",
    "HomBasis",
    "ModeAssembly",
    "ModeSolution",
    "NoSolutionInWindow",
    "Normalization",
    "NumericEnv",
    "Obstruction",
    "Params",
    "Pure",
    "SingleBessel",
    "YLaurent",
    "alpha_decay_scan",
    "apply_L",
    "apply_P",
    "apply_euler",
    "assemble_mode",
    "bessel_k",
    "choose_alpha",
    "classify_params",
    "combine",
    "k_index_table",
    "ramanujan_convolution",
    "ramanujan_log_convolution",
    "residual",
    "sigma",
    "small_y_series",
    "solve_mode",
    "solve_particular_double",
    "solve_particular_single",
    "solve_zero_mode",
    "source_term",
    "zeta_even",
    "zero_mode_alpha_sum",
]
