"""Exact divisor functions and the zeta convolution identities.

The two-sided convention is used throughout: sums over n in Z \\ {0} carry
the factor 2 relative to one-sided sums, matching

    sum_{n != 0} sigma_a(|n|) sigma_b(|n|) / |n|^s
        = 2 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b)

and its s-derivative for the log-weighted variant.  Outside the convergence
region the closed forms are analytic continuations.  At a point where a zeta
factor is singular (its argument is 1 or a trivial zero) the value is the
limit read off the leading Laurent term of each factor; where that limit is
infinite, or the log-weighted one needs a second derivative of a factor, no
closed form is returned (see :class:`RamanujanSum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Sequence

from .numerics import DEFAULT_ENV
from .scalars import Constant, factorize, zeta_prime, zeta_value

__all__ = [
    "sigma",
    "sigma_float_table",
    "RamanujanSum",
    "ramanujan_convolution",
    "ramanujan_log_convolution",
    "convolution_partial_sums",
]


@lru_cache(maxsize=None)
def sigma(z: int, n: int) -> int | Fraction:
    """Divisor function sigma_z(n) = sum_{d | n} d^z, exact for integer z.

    For z >= 0 the int prod (p^(z(e+1)) - 1) / (p^z - 1) over the prime
    powers p^e of n; for z < 0 the Fraction sigma_{-z}(n) / n^(-z).
    """
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    if z < 0:
        return Fraction(sigma(-z, n), n ** -z)
    return math.prod((p ** (z * (e + 1)) - 1) // (p**z - 1) if z else e + 1 for p, e in factorize(n))


@lru_cache(maxsize=None)
def sigma_float_table(z: int, limit: int) -> memoryview:
    """table[n] = float(sigma_z(n)) for 1 <= n <= limit, via a divisor sieve.

    Memoized: each (z, limit) is sieved once per process.  The table is a
    view of doubles in an immutable bytes object, so no caller can change
    what the next one reads; writing to it raises TypeError.
    """
    table = memoryview(bytearray(8 * (limit + 1))).cast("d")
    for d in range(1, limit + 1):
        dz = float(d) ** z
        for m in range(d, limit + 1, d):
            table[m] += dz
    return memoryview(table.tobytes()).cast("d")


@dataclass(frozen=True)
class RamanujanSum:
    """Closed form of a divisor convolution sum, its status and its value.

    status is "convergent" inside the region s, s-a, s-b, s-a-b > 1 and
    "formal" when the closed form is an analytic continuation (or its limit).
    closed_form is None where the sum has a pole (numeric inf), and where a
    log-weighted sum would need zeta'' or Euler's gamma of a singular factor
    (numeric nan).
    """

    closed_form: Constant | None
    status: str
    numeric: float


def ramanujan_convolution(a: int, b: int, s: int) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b / |n|^s = 2 z(s)z(s-a)z(s-b)z(s-a-b)/z(2s-a-b).

    Even zeta arguments normalize to pi powers; odd arguments >= 3 stay
    symbolic (the denominator then appears with exponent -1).
    """
    return _zeta_closed_form(a, b, s, log=False)


def ramanujan_log_convolution(a: int, b: int, s: int) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b log|n| / |n|^s = -d/ds of the plain sum."""
    return _zeta_closed_form(a, b, s, log=True)


def _leading_term(k: int, slope: int):
    """(o, c) with zeta(k + slope * eps) = c eps^o + O(eps^(o + 1))."""
    if k == 1:
        return -1, Constant.from_rational(Fraction(1, slope))
    if k < 0 and k % 2 == 0:
        return 1, zeta_prime(k) * slope
    return 0, zeta_value(k)


def _zeta_closed_form(a: int, b: int, s: int, log: bool) -> RamanujanSum:
    """The sum from F(s + eps) = L eps^m + O(eps^(m + 1)), F = 2 N / D.

    N is the product of the four numerator zetas and D = zeta(2s-a-b); m and L
    come from the five factors' leading terms.  The plain sum F(s) is L at
    m = 0 and 0 at m > 0.  The log-weighted -F'(s) is -L at m = 1, 0 at m >= 2
    and, at m = 0 with five regular factors, the product rule (2 F zeta'(2s-a-b)
    - 2 N') / D, where each term of N' replaces one numerator zeta by zeta'(k).
    """
    numer, denom = (s, s - a, s - b, s - a - b), 2 * s - a - b
    status = "convergent" if min(numer) > 1 else "formal"
    orders, cs = zip(*(_leading_term(k, 1) for k in numer))
    d_order, d_c = _leading_term(denom, 2)
    m = sum(orders) - d_order
    if m < 0:
        return RamanujanSum(None, status, math.inf)
    lead = reduce(mul, cs, Constant.from_rational(2)) / d_c
    if m > int(log):
        value = Constant.zero()
    elif m == 1:
        value = -lead
    elif not log:
        value = lead
    elif any(orders) or d_order:
        return RamanujanSum(None, status, math.nan)
    else:
        d_numer = sum(reduce(mul, cs[:i] + cs[i + 1:], zeta_prime(k)) for i, k in enumerate(numer))
        value = (lead * zeta_prime(denom) * 2 - d_numer * 2) / d_c
    return RamanujanSum(value, status, value.evaluate(DEFAULT_ENV))


def convolution_partial_sums(sigma_a: Sequence[float], sigma_b: Sequence[float], s: int,
                             weight, limits) -> dict:
    """Two-sided partial sums of sigma_a sigma_b (A + B log n) / n^s, n <= limit.

    sigma_a and sigma_b are :func:`sigma_float_table` tables reaching
    max(limits); weight is the float pair (A, B).  Returns {limit: sum}; the
    factor 2 of the two sides is applied to each reported sum, which rounds
    exactly as applying it to every term would.
    """
    A, B = weight
    out = {}
    total = 0.0
    start = 1
    for limit in sorted({n for n in limits if n >= 1}):  # the terms up to each limit in turn
        for a, b, n in zip(sigma_a[start:limit + 1], sigma_b[start:limit + 1], range(start, limit + 1)):
            total += a * b * (A + B * math.log(n)) / float(n) ** s
        out[limit] = 2.0 * total
        start = limit + 1
    return out
