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
survive.  ``_fourier_factor`` is the one encoding of zeta(2s) a_{n,s}: a
prefactor and a flat value (``bessel.FlatExpr``, key (cell, y power, log
power, pi exponent, rest) -> int over one denominator), a ``SingleBessel``
whose K_{s-1/2} is reduced to K_0/K_1 by the integer table
``bessel.k_index_table``, or for n = 0 the flat value of a ``Pure``.
``source_flat`` multiplies two of them in ints into the source's flat
value, merged cells folded, which the solver reads as it is.
``source_term`` keeps it as ``SourceTerm.flat``; the full source
expression is built from it the first time it is read (``SourceTerm.expr``,
by ``FlatExpr.expr``), and ``SourceTerm.prefactor`` and ``core`` split
that.  ``_fourier_factor`` is memoized for the life of the process, since
the modes of one assembly reuse each (s, n); its maps are
``MappingProxyType`` views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .bessel import BesselProduct, DoubleBessel, FlatExpr, Pure, SingleBessel, k_index_table
from .divisors import sigma
from .laurent import YLaurent
from .scalars import Constant, SymbolMonomial, zeta_value

__all__ = [
    "Normalization",
    "Params",
    "SourceTerm",
    "Classification",
    "classify_params",
    "source_term",
    "source_flat",
    "case_tag",
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


@lru_cache(maxsize=None)
def _fourier_factor(s: Fraction, n: int) -> Tuple[Constant, FlatExpr]:
    """zeta(2s) a_{n,s}(y) / sqrt(y), s = m + 1/2, as (prefactor, flat value).

    With Gamma(m + 1/2) = (2m)! sqrt(pi) / (4^m m!) and N = |n|:
    n = 0: prefactor 1 and the ``Pure`` zeta(2m+1) y^m + (m-1)! 4^m m! /
    (2m)! zeta(2m) y^{-m}, flattened;
    n != 0: prefactor P pi^m = 2 4^m m! sigma_{2m}(N) / ((2m)! N^m) pi^m
    times K_m(2 pi N y) = sum_k (2 pi N y)^{-k} (a[0][k] K_0 + a[1][k] K_1)
    (``k_index_table``), a ``SingleBessel`` with P a[i][k] / (2N)^k at
    (i, -k, 0, m - k, 1).
    """
    if s.denominator != 2 or s <= 1:
        raise ValueError("requires a half-integer s > 1 (absolute convergence)")
    m = s.numerator // 2  # K index and |n| exponent
    gamma_ratio = 4**m * math.factorial(m)  # sqrt(pi) (2m)! / Gamma(s)
    if n == 0:
        a_s = zeta_value(2 * m) * Fraction(math.factorial(m - 1) * gamma_ratio, math.factorial(2 * m))
        return Constant.one(), Pure(YLaurent({(m, 0): zeta_value(2 * m + 1), (-m, 0): a_s})).flat
    N = abs(n)
    num, den = 2 * gamma_ratio * sigma(2 * m, N), math.factorial(2 * m) * N**m
    table = k_index_table(m)
    top = len(table[0]) - 1
    terms = {(i, -k, 0, m - k, SymbolMonomial()): num * a * (2 * N) ** (top - k)
             for i, row in enumerate(table) for k, a in enumerate(row) if a}
    return (Constant.pi_power(m, Fraction(num, den)),
            FlatExpr(SingleBessel(n), MappingProxyType(terms), den * (2 * N) ** top))


# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    """One s_{n1,n2}: its flat value (``source_flat``), from which the full
    source expression is built the first time it is read."""

    params: Params
    n1: int
    n2: int
    flat: FlatExpr = field(repr=False, compare=False)

    @property
    def case_tag(self) -> str:  # both_zero | left_zero | right_zero | generic | anti_diagonal
        return case_tag(self.n1, self.n2)

    @cached_property
    def expr(self) -> BesselProduct:
        """DoubleBessel | SingleBessel | Pure, prefactor folded in."""
        return self.flat.expr()

    def full(self):
        """The complete source expression with the prefactor folded in."""
        return self.expr

    @property
    def prefactor(self) -> Constant:
        """c_eff times the two factors' prefactors: a rational times a pi power."""
        p = self.params
        return p.c_eff() * _fourier_factor(p.alpha, self.n1)[0] * _fourier_factor(p.beta, self.n2)[0]

    @property
    def core(self) -> BesselProduct:
        """The source over its prefactor, the paper's printed normalization."""
        return self.expr.scale(1 / self.prefactor)


def case_tag(n1: int, n2: int) -> str:
    """The kind of mode (n1, n2), the one name its source, its solver and
    its printed table are chosen by."""
    if n1 == 0:
        return "both_zero" if n2 == 0 else "left_zero"
    if n2 == 0:
        return "right_zero"
    return "anti_diagonal" if n1 + n2 == 0 else "generic"


def source_flat(p: Params, n1: int, n2: int) -> FlatExpr:
    """Exact s_{n1,n2} = c_eff zeta(2a) zeta(2b) a_{n1,a}(y) a_{n2,b}(y) in the
    K0/K1 basis as one flat value: y times the product of the two Fourier
    factors, in ints, over c_eff's denominator times theirs.  A term pair
    lands on the folded cell of its K indices, so a merged ``DoubleBessel``
    has (0, 1) and never (1, 0).
    """
    _, left = _fourier_factor(p.alpha, n1)
    _, right = _fourier_factor(p.beta, n2)
    shape = (DoubleBessel(n1, n2) if n1 and n2 else SingleBessel(n1 or n2) if n1 or n2
             else Pure(YLaurent.zero()))
    fold = shape.fold
    c = p.c_eff()
    flat: Dict = {}
    for (i, ka, ja, ea, ra), ca in left.terms.items():
        for (j, kb, jb, eb, rb), cb in right.terms.items():
            cell = j if i == () else i if j == () else fold((i, j))
            key = (cell, ka + kb + 1, ja + jb, ea + eb, ra * rb)
            flat[key] = flat.get(key, 0) + c.numerator * ca * cb
    return FlatExpr(shape, MappingProxyType(flat), c.denominator * left.den * right.den)


def source_term(p: Params, n1: int, n2: int) -> SourceTerm:
    """The source of mode (n1, n2), kept as its flat value (``source_flat``)."""
    return SourceTerm(p, n1, n2, source_flat(p, n1, n2))
