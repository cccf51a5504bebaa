"""Exact divisor functions and the zeta convolution identities.

The two-sided convention is used throughout: sums over n in Z \\ {0} carry
the factor 2 relative to one-sided sums, matching

    sum_{n != 0} sigma_a(|n|) sigma_b(|n|) / |n|^s
        = 2 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b)

and its s-derivative for the log-weighted variant.  Outside the convergence
region the closed forms are analytic continuations.  Where the denominator
zeta(2s-a-b) hits its pole at 1 the reciprocal has a simple zero, so the sum
is 0 and its log-weighted variant is -4 times the numerator product.  Where a
numerator zeta hits the pole, or the denominator hits a trivial zero of zeta,
no closed form is returned (see :class:`RamanujanSum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .numerics import DEFAULT_ENV
from .scalars import Constant, factorize, sym_zeta_prime, zeta_value

__all__ = [
    "sigma",
    "sigma_float_table",
    "RamanujanSum",
    "ramanujan_convolution",
    "ramanujan_log_convolution",
    "convolution_partial_sum",
    "log_convolution_partial_sum",
]


@lru_cache(maxsize=None)
def sigma(z: int, n: int) -> Fraction:
    """Divisor function sigma_z(n) = sum_{d | n} d^z, exact for integer z.

    Negative exponents are allowed: sigma_{-k}(n) = sigma_k(n) / n^k.
    """
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if z < 0:
        return sigma(-z, n) / Fraction(n) ** (-z)
    out = Fraction(1)
    for p, e in factorize(n):
        if z == 0:
            out *= e + 1
        else:
            out *= Fraction(p ** (z * (e + 1)) - 1, p**z - 1)
    return out


def sigma_float_table(z: int, limit: int) -> list:
    """table[n] = float(sigma_z(n)) for 1 <= n <= limit, via a divisor sieve."""
    table = [0.0] * (limit + 1)
    for d in range(1, limit + 1):
        dz = float(d) ** z
        for m in range(d, limit + 1, d):
            table[m] += dz
    return table


@dataclass(frozen=True)
class RamanujanSum:
    """Closed form of a divisor convolution sum, its status and its value.

    status is "convergent" inside the region s, s-a, s-b, s-a-b > 1 and
    "formal" when the closed form is an analytic continuation only.
    Where 2s-a-b = 1 and no numerator argument is 1, 1/zeta(2s-a-b) has a
    simple zero with derivative 2 in s: the plain sum is exactly 0 and the
    log-weighted one is -4 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b).
    closed_form is None at the singular points, which lie outside that region:
    numeric is then inf where a numerator zeta argument is 1, or where the
    denominator zeta(2s-a-b) is a trivial zero and no numerator zeta vanishes;
    it is nan where a numerator zero meets a zero denominator (a 0/0 limit
    that is not evaluated).
    """

    closed_form: Constant | None
    status: str
    numeric: float


def _trivial_zero(k: int) -> bool:
    return k < 0 and k % 2 == 0


def ramanujan_convolution(a: int, b: int, s: int) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b / |n|^s = 2 z(s)z(s-a)z(s-b)z(s-a-b)/z(2s-a-b).

    Even zeta arguments normalize to pi powers; odd arguments >= 3 stay
    symbolic (the denominator then appears with exponent -1).
    """
    return _zeta_closed_form(a, b, s, log=False)


def ramanujan_log_convolution(a: int, b: int, s: int) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b log|n| / |n|^s = -d/ds [2 N(s) / D(s)].

    N is the product of the four numerator zetas and D = zeta(2s-a-b).  The
    product rule gives (2 N/D * 2 zeta'(2s-a-b) - 2 N') / D, where each term
    of N' replaces one numerator zeta by a zeta'(k) symbol (with a numeric
    evaluation hook).  No numerator zeta is divided out, so a trivial zero
    among them is a value like any other.
    """
    return _zeta_closed_form(a, b, s, log=True)


def _zeta_closed_form(a: int, b: int, s: int, log: bool) -> RamanujanSum:
    numer, denom = (s, s - a, s - b, s - a - b), 2 * s - a - b
    status = "convergent" if min(numer) > 1 else "formal"
    if 1 in numer:
        return RamanujanSum(None, status, math.inf)
    if _trivial_zero(denom):
        return RamanujanSum(None, status, math.nan if any(map(_trivial_zero, numer)) else math.inf)
    zetas = [zeta_value(k) for k in numer]
    if denom == 1:  # 1/zeta(2s-a-b) = 2(s - s0) + O((s - s0)^2)
        value = reduce(mul, zetas, Constant.from_rational(-4)) if log else Constant.zero()
        return RamanujanSum(value, status, value.evaluate(DEFAULT_ENV))
    den = zeta_value(denom)
    value = reduce(mul, zetas, Constant.from_rational(2)) / den
    if log:
        d_numer = sum((reduce(mul, zetas[:i] + zetas[i + 1:], Constant.monomial(sym_zeta_prime(k)))
                       for i, k in enumerate(numer)), Constant.zero())
        value = (value * Constant.monomial(sym_zeta_prime(denom), coeff=2) - d_numer * 2) / den
    return RamanujanSum(value, status, value.evaluate(DEFAULT_ENV))


def convolution_partial_sum(a: int, b: int, s: int, limit: int) -> float:
    """Two-sided partial sum of sigma_a sigma_b / |n|^s up to |n| = limit."""
    ta = sigma_float_table(a, limit)
    tb = ta if a == b else sigma_float_table(b, limit)
    return 2.0 * sum(ta[n] * tb[n] / float(n) ** s for n in range(1, limit + 1))


def log_convolution_partial_sum(a: int, b: int, s: int, limit: int) -> float:
    """Two-sided partial sum of sigma_a sigma_b log|n| / |n|^s up to limit."""
    ta = sigma_float_table(a, limit)
    tb = ta if a == b else sigma_float_table(b, limit)
    return 2.0 * sum(
        ta[n] * tb[n] * math.log(n) / float(n) ** s for n in range(2, limit + 1)
    )
