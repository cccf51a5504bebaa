"""Right-hand sides of the mode equations and parameter classification.

The solved equation is (Delta - lam) f = c_eff * zeta(2a) zeta(2b) E_a E_b,
where the effective constant depends on the chosen normalization:

* published  : c_eff = -c_{a,b} with the per-pair table c = 4, 6, 9, 30
  (the worked solutions solve the equation with this minus sign, which is
  what makes their printed prefactors come out as -64 pi^2 etc.),
* correlator : c_eff = -4, the convention of the integrated-correlator
  combinations,
* unit       : c_eff = 1.

Fourier coefficients of E_s enter through

    a_{0,s}(y) = y^s + sqrt(pi) Gamma(s - 1/2) zeta(2s-1)
                 / (Gamma(s) zeta(2s)) * y^{1-s},
    a_{n,s}(y) = 2 pi^s / (Gamma(s) zeta(2s)) |n|^{s-1/2}
                 sigma_{1-2s}(|n|) sqrt(y) K_{s-1/2}(2 pi |n| y),

with every Gamma(half-integer) expanded so only integer powers of pi
survive in the assembled prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .bessel import DoubleBessel, Pure, SingleBessel, reduce_k_index
from .divisors import sigma
from .laurent import YLaurent
from .scalars import Constant, zeta_value, gamma_half_integer

__all__ = [
    "Normalization",
    "Params",
    "Prefactor",
    "SourceTerm",
    "Classification",
    "classify_params",
    "eisenstein_coeff",
    "eisenstein_zero_coeff",
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
        return max(1, (math.isqrt(4 * self.lam + 1) - 1) // 2)

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

    def with_normalization(self, normalization: Normalization) -> "Params":
        return Params(self.alpha, self.beta, self.lam, normalization)

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


def eisenstein_zero_coeff(s: Fraction) -> List[Tuple[Fraction, Constant]]:
    """a_{0,s} as [(power, coefficient)] = [(s, 1), (1-s, A_s)].

    A_s = sqrt(pi) Gamma(s-1/2) zeta(2s-1) / (Gamma(s) zeta(2s)) with the
    Gamma values expanded exactly; for half-integer s > 1 this leaves an
    integer power of pi times zeta(2s-1) / zeta(2s).
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("requires s > 1 (absolute convergence)")
    g_num, g_num_sqrtpi = gamma_half_integer(int(2 * (s - Fraction(1, 2))))
    g_den, g_den_sqrtpi = gamma_half_integer(int(2 * s))
    const = _pi_half_product(g_num / g_den, 1 + g_num_sqrtpi - g_den_sqrtpi)
    a_s = const * zeta_value(int(2 * s - 1)) / zeta_value(int(2 * s))
    return [(s, Constant.one()), (1 - s, a_s)]


def eisenstein_coeff(s: Fraction, n: int):
    """Fourier coefficient a_{n,s}: the zero-mode power pair for n = 0, or
    (prefactor, bessel_index_times_two) describing
    prefactor * sqrt(y) K_{s-1/2}(2 pi |n| y) for n != 0."""
    s = Fraction(s)
    if s <= 1:
        raise ValueError("requires s > 1 (absolute convergence)")
    if n == 0:
        return eisenstein_zero_coeff(s)
    two_s = int(2 * s)
    g, g_sqrtpi = gamma_half_integer(two_s)
    pref = _pi_half_product(Fraction(2) / g, two_s - g_sqrtpi)
    m = int(s - Fraction(1, 2))  # |n| exponent; integral for half-integer s
    pref = pref * Constant.from_rational(
        Fraction(abs(n)) ** m * sigma(1 - two_s, abs(n))
    ) / zeta_value(two_s)
    return pref, two_s - 1  # K index = s - 1/2, stored doubled


# ---------------------------------------------------------------------------
# Source terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Prefactor:
    """Scalar prefactor split into provenance pieces.

    constant_part: pi powers, zeta values, gammas and the like;
    divisor_part: product of the sigma values; power_part: the integer
    |n1|^{alpha-1/2} |n2|^{beta-1/2} contribution.
    """

    constant_part: Constant
    divisor_part: Fraction = Fraction(1)
    power_part: int = 1

    def combined(self) -> Constant:
        return self.constant_part * Constant.from_rational(self.divisor_part * self.power_part)


@dataclass(frozen=True)
class SourceTerm:
    """One s_{n1,n2}: prefactor times a reduced K0/K1-basis core expression."""

    params: Params
    n1: int
    n2: int
    prefactor: Prefactor
    core: object  # DoubleBessel | SingleBessel | Pure
    case_tag: str  # both_zero | left_zero | right_zero | generic | anti_diagonal

    def full(self):
        """The complete source expression with the prefactor folded in."""
        return self.core.scale(self.prefactor.combined())


def _bessel_weight_pair(p: Params, outer: Fraction) -> List[Tuple[int, Constant]]:
    """Powers/weights of the polynomial factor multiplying K_{other-1/2}.

    For the mode with the `outer` Eisenstein index supplying its zeroth
    coefficient: [(outer+1/2, zeta(2*outer)), (3/2-outer, sqrt(pi)
    Gamma(outer-1/2) zeta(2*outer-1) / Gamma(outer))], all integer powers.
    """
    two_o = int(2 * outer)
    g_num, g_num_s = gamma_half_integer(two_o - 1)
    g_den, g_den_s = gamma_half_integer(two_o)
    a_const = _pi_half_product(g_num / g_den, 1 + g_num_s - g_den_s) * zeta_value(two_o - 1)
    return [
        (int(outer + Fraction(1, 2)), zeta_value(two_o)),
        (int(Fraction(3, 2) - outer), a_const),
    ]


def _single_prefactor(p: Params, inner: Fraction, n: int) -> Prefactor:
    """2 c_eff pi^inner |n|^{inner-1/2} sigma_{1-2*inner}(|n|) / Gamma(inner)."""
    two_i = int(2 * inner)
    g, g_s = gamma_half_integer(two_i)
    const = _pi_half_product(2 * p.c_eff() / g, two_i - g_s)
    m = int(inner - Fraction(1, 2))
    return Prefactor(const, sigma(1 - two_i, abs(n)), abs(n) ** m)


def source_term(p: Params, n1: int, n2: int) -> SourceTerm:
    """Exact s_{n1,n2} with the Bessel part reduced to the K0/K1 basis."""
    alpha, beta = p.alpha, p.beta
    c_eff = p.c_eff()

    if n1 == 0 and n2 == 0:
        za, zb = zeta_value(int(2 * alpha)), zeta_value(int(2 * beta))
        a0 = eisenstein_zero_coeff(alpha)
        b0 = eisenstein_zero_coeff(beta)
        terms = {}
        for pa, ca in a0:
            for pb, cb in b0:
                k = pa + pb
                if k.denominator != 1:
                    raise AssertionError("zero-mode powers must be integers")
                key = (int(k), 0)
                add = ca * cb * za * zb * Fraction(c_eff)
                terms[key] = terms.get(key, Constant.zero()) + add
        poly = YLaurent(terms)
        return SourceTerm(p, 0, 0, Prefactor(Constant.one()), Pure(poly), "both_zero")

    if n1 == 0 or n2 == 0:
        if n1 == 0:
            outer, inner, n, tag = alpha, beta, n2, "left_zero"
        else:
            outer, inner, n, tag = beta, alpha, n1, "right_zero"
        pref = _single_prefactor(p, inner, n)
        k_index = int(inner - Fraction(1, 2))
        c0, c1 = reduce_k_index(k_index, n)
        table = {0: YLaurent.zero(), 1: YLaurent.zero()}
        for power, weight in _bessel_weight_pair(p, outer):
            mono = YLaurent.monomial(power, weight)
            table[0] = table[0] + mono * c0
            table[1] = table[1] + mono * c1
        return SourceTerm(p, n1, n2, pref, SingleBessel(n, table), tag)

    # n1 n2 != 0: the bilinear case (anti-diagonal included)
    two_a, two_b = int(2 * alpha), int(2 * beta)
    ga, ga_s = gamma_half_integer(two_a)
    gb, gb_s = gamma_half_integer(two_b)
    const = _pi_half_product(4 * c_eff / (ga * gb), two_a + two_b - ga_s - gb_s)
    m_a = int(alpha - Fraction(1, 2))
    m_b = int(beta - Fraction(1, 2))
    pref = Prefactor(
        const,
        sigma(1 - two_a, abs(n1)) * sigma(1 - two_b, abs(n2)),
        abs(n1) ** m_a * abs(n2) ** m_b,
    )
    c0a, c1a = reduce_k_index(int(alpha - Fraction(1, 2)), n1)
    c0b, c1b = reduce_k_index(int(beta - Fraction(1, 2)), n2)
    y1 = YLaurent.monomial(1)
    table = {
        (0, 0): y1 * c0a * c0b,
        (0, 1): y1 * c0a * c1b,
        (1, 0): y1 * c1a * c0b,
        (1, 1): y1 * c1a * c1b,
    }
    tag = "anti_diagonal" if n1 + n2 == 0 else "generic"
    return SourceTerm(p, n1, n2, pref, DoubleBessel(n1, n2, table), tag)
