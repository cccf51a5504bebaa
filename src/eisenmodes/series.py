"""Small-y asymptotic series with exact coefficients.

K_0 and K_1 use the standard small-argument expansions

    K_0(z) = -(log(z/2) + gamma) I_0(z) + sum_{m>=1} H_m (z^2/4)^m / (m!)^2,
    K_1(z) = 1/z + (log(z/2) + gamma) I_1(z)
             - (z/4) sum_{m>=0} (H_m + H_{m+1}) (z^2/4)^m / (m! (m+1)!),

with z = 2 pi |n| y, so log(z/2) = log(y) + log(pi) + log|n| lands in the
scalar ring (log|n| normalized to prime logarithms).  Half-integer-index
homogeneous elements use the finite exponential-polynomial closed form.

``k_log_series`` and ``hom_norm_series`` are memoized for the life of the
process: the sub-modes of one assembly share their frequencies, so the same
(index, |n|, order) series is asked for again and again.  That is safe because
both are pure functions of ints and their ``YLaurent`` results are immutable
(every operation returns a new object).  The cache grows by one entry per
distinct argument triple a process touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .bessel import BesselProduct, HomBasis
from .laurent import YLaurent
from .scalars import GAMMA, LN_PI, Constant, log_normalize

__all__ = [
    "AsymptoticSeries",
    "k_log_series",
    "hom_norm_series",
    "hom_norm_scale_description",
    "small_y_series",
]


@dataclass(frozen=True)
class AsymptoticSeries:
    """Truncated expansion: terms with y-exponent < order are exact."""

    terms: YLaurent
    order: int

    def __post_init__(self):
        object.__setattr__(self, "terms", self.terms.truncate(self.order))

    def coeff(self, y_exp: int, log_exp: int = 0) -> Constant:
        if y_exp >= self.order:
            raise ValueError(f"y^{y_exp} is beyond the truncation order {self.order}")
        return self.terms.coeff(y_exp, log_exp)

    def __add__(self, other: "AsymptoticSeries") -> "AsymptoticSeries":
        order = min(self.order, other.order)
        return AsymptoticSeries(self.terms + other.terms, order)

    def scale(self, factor) -> "AsymptoticSeries":
        return AsymptoticSeries(self.terms.scale(factor), self.order)

    def is_zero(self) -> bool:
        return self.terms.is_zero()


@lru_cache(maxsize=None)
def _harmonic(m: int) -> Fraction:
    return Fraction(0) if m == 0 else _harmonic(m - 1) + Fraction(1, m)


def _log_z_half(n: int) -> Constant:
    """log(z/2) - log(y) for z = 2 pi |n| y, i.e. log(pi) + log|n|."""
    return LN_PI + log_normalize(abs(n))


@lru_cache(maxsize=None)
def k_log_series(j: int, n: int, order: int) -> YLaurent:
    """Series of K_j(2 pi |n| y) through y-exponents < order (j in {0, 1})."""
    if j not in (0, 1):
        raise ValueError("index must be 0 or 1")
    if n == 0:
        raise ValueError("n must be nonzero")
    u = Constant.pi_power(2, n * n)  # (z/2)^2 / y^2
    l0 = _log_z_half(n) + GAMMA
    terms = {}

    def add(key, c):
        terms[key] = terms.get(key, Constant.zero()) + c

    if j == 0:
        # -(L + gamma + log y) I_0 + correction
        m = 0
        while 2 * m < order:
            im = (u**m) / (Fraction(math.factorial(m)) ** 2)
            add((2 * m, 1), -im)
            add((2 * m, 0), -im * l0)
            if m >= 1:
                add((2 * m, 0), im * _harmonic(m))
            m += 1
    else:
        inv2pin = Constant.pi_power(-1, Fraction(1, 2 * abs(n)))
        add((-1, 0), inv2pin)
        m = 0
        while 2 * m + 1 < order:
            # I_1 piece: (z/2) u^m / (m! (m+1)!)
            base = Constant.pi_power(1, abs(n)) * (u**m) / Fraction(
                math.factorial(m) * math.factorial(m + 1)
            )
            add((2 * m + 1, 1), base)
            add((2 * m + 1, 0), base * l0)
            # correction: -(z/4)(H_m + H_{m+1}) u^m / (m!(m+1)!)
            corr = Constant.pi_power(1, Fraction(abs(n), 2)) * (u**m) * (
                _harmonic(m) + _harmonic(m + 1)
            ) / Fraction(math.factorial(m) * math.factorial(m + 1))
            add((2 * m + 1, 0), -corr)
            m += 1
    return YLaurent(terms).truncate(order)


def hom_norm_scale_description(r: int, n: int) -> str:
    """How the normalized basis relates to sqrt(y) K_{r+1/2}(2 pi |n| y)."""
    return (
        f"normalized basis = 2*sqrt({abs(n)}) * sqrt(y) * K_{{{r}+1/2}}(2*pi*{abs(n)}*y)"
        " = exp(-2*pi*|n|*y) * sum_{k<=r} (r+k)!/(k!(r-k)!) (4*pi*|n|*y)^{-k}"
    )


@lru_cache(maxsize=None)
def hom_norm_series(r: int, n: int, order: int) -> YLaurent:
    """Series of the normalized decaying basis 2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y).

    The closed form is exp(-2 pi |n| y) * sum_{k=0}^{r} a_k (4 pi |n| y)^{-k}
    with a_k = (r+k)!/(k!(r-k)!); all series coefficients are rational pi
    monomials (no logs).  Term k starts at y^{-k}, so only k > -order reach
    below the truncation order.
    """
    N = abs(n)
    terms = {}
    for k in range(max(0, 1 - order), r + 1):
        a_k = Fraction(math.factorial(r + k), math.factorial(k) * math.factorial(r - k))
        pref = Constant.pi_power(-k, a_k / Fraction(4 * N) ** k)
        # multiply by exp(-2 pi N y) expansion
        j = 0
        while -k + j < order:
            c = pref * Constant.pi_power(j, Fraction((-2 * N) ** j, math.factorial(j)))
            key = (-k + j, 0)
            terms[key] = terms.get(key, Constant.zero()) + c
            j += 1
    return YLaurent(terms).truncate(order)


def small_y_series(expr, order: int) -> AsymptoticSeries:
    """Exact expansion of an expression (or hom basis element) as y -> 0."""
    if isinstance(expr, HomBasis):
        if expr.kind == "K":
            return AsymptoticSeries(hom_norm_series(expr.r, expr.n, order), order)
        return AsymptoticSeries(YLaurent.monomial(-expr.r), order)

    if isinstance(expr, BesselProduct):
        # The K_1 series start at 1/y, so each factor is expanded len(freqs)
        # past reach and only the product is truncated: a factor truncated
        # first would lose the terms another factor's 1/y shifts below reach.
        # Seeding reduce with one would truncate the first factor that way, so
        # only the product of no factors (Pure) is one.
        total = YLaurent.zero()
        for cell, q in expr.table.items():
            reach = order - q.min_degree()
            factors = [k_log_series(i, n, reach + len(expr.freqs)) for i, n in expr.factors(cell)]
            prod = (reduce(lambda a, b: a.mul_truncated(b, reach), factors) if factors
                    else YLaurent.one())
            total = total + q.mul_truncated(prod, order)
        return AsymptoticSeries(total, order)

    raise TypeError(f"no small-y series for {type(expr).__name__}")
