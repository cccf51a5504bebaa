"""Right-hand sides of the mode equations and parameter classification.

The solved equation is (Delta - lam) f = c_eff * zeta(2a) zeta(2b) E_a E_b,
where the effective constant depends on the chosen normalization:

* published  : c_eff = -c_{a,b} with the per-pair table c = 4, 6, 9, 30
  (the worked solutions solve the equation with this minus sign, which is
  what makes their printed prefactors come out as -64 pi^2 etc.),
* correlator : c_eff = -4, the convention of the integrated-correlator
  combinations,
* unit       : c_eff = 1.

The source of mode (n1, n2) is therefore the product of two Fourier
coefficients of Eisenstein series,

    s_{n1,n2}(y) = c_eff zeta(2a) zeta(2b) a_{n1,a}(y) a_{n2,b}(y),

    a_{0,s}(y) = y^s + sqrt(pi) Gamma(s - 1/2) zeta(2s-1)
                 / (Gamma(s) zeta(2s)) * y^{1-s},
    a_{n,s}(y) = 2 pi^s / (Gamma(s) zeta(2s)) |n|^{s-1/2}
                 sigma_{1-2s}(|n|) sqrt(y) K_{s-1/2}(2 pi |n| y),

with every Gamma(half-integer) expanded so only integer powers of pi
survive in the assembled prefactors.  ``_fourier_factor`` is the one encoding
of zeta(2s) a_{n,s}, and ``source_term`` multiplies two of them.

``_fourier_factor`` is memoized for the life of the process, since the modes
of one assembly reuse each (s, n): it is a pure function of a Fraction and an
int, and its (Constant, SingleBessel | Pure) result is immutable by convention
(``source_term`` builds new cells from it and never writes into its table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from .bessel import BesselProduct, DoubleBessel, Pure, SingleBessel, reduce_k_index
from .divisors import sigma
from .laurent import YLaurent
from .scalars import Constant, zeta_value, gamma_half_integer

__all__ = [
    "Normalization",
    "Params",
    "SourceTerm",
    "Classification",
    "classify_params",
    "source_term",
    "PUBLISHED_C_TABLE",
]

PUBLISHED_C_TABLE: Dict[Tuple[Fraction, Fraction], int] = {
    (Fraction(3, 2), Fraction(3, 2)): 4,
    (Fraction(3, 2), Fraction(5, 2)): 6,
    (Fraction(5, 2), Fraction(5, 2)): 9,
    (Fraction(3, 2), Fraction(7, 2)): 30,
}


class Normalization(Enum):
    PUBLISHED = "published"
    CORRELATOR = "correlator"
    UNIT = "unit"


def _is_half_integer(x: Fraction) -> bool:
    return x.denominator == 2


def _triangular_root(lam: int) -> Optional[int]:
    if lam < 2:
        return None
    r = (math.isqrt(4 * lam + 1) - 1) // 2
    return r if r >= 1 and r * (r + 1) == lam else None


@dataclass(frozen=True)
class Classification:
    kind: str  # solvable | lambda_not_triangular | not_half_integer | outside_conjectured_set
    r: Optional[int] = None


def classify_params(alpha, beta, lam: int) -> Classification:
    """Solvability classification from the elementary necessary conditions.

    "solvable" additionally requires the parity/size conditions
    alpha + beta + r even and |alpha - beta| < r; triangular half-integer
    inputs failing those are classified outside_conjectured_set (a solve is
    still attempted for them).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (_is_half_integer(alpha) and _is_half_integer(beta)):
        return Classification("not_half_integer")
    r = _triangular_root(lam)
    if r is None:
        return Classification("lambda_not_triangular")
    parity = alpha + beta + r
    if parity.denominator == 1 and parity % 2 == 0 and abs(alpha - beta) < r:
        return Classification("solvable", r)
    return Classification("outside_conjectured_set", r)


@dataclass(frozen=True)
class Params:
    """Validated solver parameters: half-integer weights and the eigenvalue."""

    alpha: Fraction
    beta: Fraction
    lam: int
    normalization: Normalization = Normalization.PUBLISHED

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not (_is_half_integer(self.alpha) and _is_half_integer(self.beta)):
            raise ValueError("alpha and beta must be half-integers")
        if self.alpha <= 1 or self.beta <= 1:
            raise ValueError("alpha and beta must exceed 1 (absolute convergence)")

    @property
    def r(self) -> Optional[int]:
        return _triangular_root(self.lam)

    @property
    def r_hint(self) -> int:
        """r when lam = r(r+1); otherwise the nearest lower triangular index."""
        r = self.r
        if r is not None:
            return r
        return max(1, (math.isqrt(max(0, 4 * self.lam + 1)) - 1) // 2)

    def c_eff(self) -> Fraction:
        if self.normalization is Normalization.PUBLISHED:
            key = (self.alpha, self.beta)
            swapped = (self.beta, self.alpha)
            if key in PUBLISHED_C_TABLE:
                return Fraction(-PUBLISHED_C_TABLE[key])
            if swapped in PUBLISHED_C_TABLE:
                return Fraction(-PUBLISHED_C_TABLE[swapped])
            raise ValueError(
                f"no published c-constant for (alpha, beta) = ({self.alpha}, {self.beta});"
                " use the correlator or unit normalization"
            )
        if self.normalization is Normalization.CORRELATOR:
            return Fraction(-4)
        return Fraction(1)

    def describe(self) -> str:
        return f"(alpha={self.alpha}, beta={self.beta}, lambda={self.lam}, {self.normalization.value})"


# ---------------------------------------------------------------------------
# Eisenstein Fourier coefficients
# ---------------------------------------------------------------------------


def _pi_half_product(rational: Fraction, half_pi_exponent: int) -> Constant:
    """rational * pi^{half_pi_exponent / 2}; the half exponent must be even."""
    if half_pi_exponent % 2 != 0:
        raise ValueError("a residual sqrt(pi) survived; prefactor assembly is inconsistent")
    return Constant.pi_power(half_pi_exponent // 2, rational)


@lru_cache(maxsize=None)
def _fourier_factor(s: Fraction, n: int) -> Tuple[Constant, BesselProduct]:
    """zeta(2s) a_{n,s}(y) / sqrt(y) as (prefactor, expression).

    n = 0: (1, Pure(zeta(2s) y^{s-1/2} + sqrt(pi) Gamma(s-1/2) zeta(2s-1)
    / Gamma(s) y^{1/2-s})); n != 0: (2 pi^s |n|^{s-1/2} sigma_{1-2s}(|n|)
    / Gamma(s), K_{s-1/2}(2 pi |n| y) in the K0/K1 basis).  The only encoding
    of the Eisenstein coefficients: every source term is built from it.
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("requires s > 1 (absolute convergence)")
    two_s = int(2 * s)
    m = int(s - Fraction(1, 2))  # K index and |n| exponent; integral for half-integer s
    g, g_sqrtpi = gamma_half_integer(two_s)
    if n == 0:
        g_num, g_num_sqrtpi = gamma_half_integer(two_s - 1)
        a_s = _pi_half_product(g_num / g, 1 + g_num_sqrtpi - g_sqrtpi) * zeta_value(two_s - 1)
        poly = YLaurent({(m, 0): zeta_value(two_s), (-m, 0): a_s})
        return Constant.one(), Pure(poly)
    pref = _pi_half_product(2 * abs(n) ** m * sigma(1 - two_s, abs(n)) / g, two_s - g_sqrtpi)
    return pref, SingleBessel(n, dict(enumerate(reduce_k_index(m, n))))


# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    """One s_{n1,n2}: a prefactor times a reduced K0/K1-basis core expression."""

    params: Params
    n1: int
    n2: int
    prefactor: Constant
    core: BesselProduct  # DoubleBessel | SingleBessel | Pure
    case_tag: str  # both_zero | left_zero | right_zero | generic | anti_diagonal

    def full(self):
        """The complete source expression with the prefactor folded in."""
        return self.core.scale(self.prefactor)


def _case_tag(n1: int, n2: int) -> str:
    if n1 == 0:
        return "both_zero" if n2 == 0 else "left_zero"
    if n2 == 0:
        return "right_zero"
    return "anti_diagonal" if n1 + n2 == 0 else "generic"


def source_term(p: Params, n1: int, n2: int) -> SourceTerm:
    """Exact s_{n1,n2} = c_eff zeta(2a) zeta(2b) a_{n1,a}(y) a_{n2,b}(y), with
    the Bessel part reduced to the K0/K1 basis."""
    pref_a, left = _fourier_factor(p.alpha, n1)
    pref_b, right = _fourier_factor(p.beta, n2)
    if isinstance(left, Pure):
        core = right.map_cells(lambda q: (left.poly * q).shift(1))
    elif isinstance(right, Pure):
        core = left.map_cells(lambda q: (q * right.poly).shift(1))
    else:
        core = DoubleBessel(n1, n2, {
            (i, j): (q_i * q_j).shift(1)
            for i, q_i in left.table.items() for j, q_j in right.table.items()
        })
    prefactor = pref_a * pref_b * p.c_eff()
    return SourceTerm(p, n1, n2, prefactor, core, _case_tag(n1, n2))
