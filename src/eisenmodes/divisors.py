"""Exact divisor functions and the zeta convolution identities.

The two-sided convention is used throughout: sums over n in Z \\ {0} carry
the factor 2 relative to one-sided sums, matching

    sum_{n != 0} sigma_a(|n|) sigma_b(|n|) / |n|^s
        = 2 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b)

and its s-derivative for the log-weighted variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .numerics import DEFAULT_ENV, NumericEnv
from .scalars import Constant, factorize, sym_zeta_prime, zeta_value

__all__ = [
    "sigma",
    "sigma_float_table",
    "RamanujanSum",
    "PoleEncountered",
    "ramanujan_convolution",
    "ramanujan_log_convolution",
    "convolution_partial_sum",
    "log_convolution_partial_sum",
]


class PoleEncountered(ValueError):
    """A zeta argument landed on the pole at 1."""


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
    """Closed form of a divisor convolution sum plus its status.

    status is "convergent" inside the region s, s-a, s-b, s-a-b > 1 and
    "formal" when the closed form is an analytic continuation only.  A
    formal case whose continuation hits the zeta pole carries no value;
    asking for it raises :class:`PoleEncountered`.  (Poles cannot occur
    inside the convergence region.)
    """

    closed_form: Constant | None
    status: str
    numeric: float

    @property
    def value(self) -> Constant:
        if self.closed_form is None:
            raise PoleEncountered("closed form hits the zeta pole at 1")
        return self.closed_form

    @property
    def is_formal(self) -> bool:
        return self.status == "formal"


def _in_convergence_region(a: int, b: int, s: int) -> bool:
    return s > 1 and s - a > 1 and s - b > 1 and s - a - b > 1


def _has_pole(a: int, b: int, s: int) -> bool:
    return any(arg == 1 for arg in (s, s - a, s - b, s - a - b, 2 * s - a - b))


def ramanujan_convolution(a: int, b: int, s: int, env: NumericEnv = DEFAULT_ENV) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b / |n|^s = 2 z(s)z(s-a)z(s-b)z(s-a-b)/z(2s-a-b).

    Even zeta arguments normalize to pi powers; odd arguments >= 3 stay
    symbolic (the denominator then appears with exponent -1).
    """
    status = "convergent" if _in_convergence_region(a, b, s) else "formal"
    if _has_pole(a, b, s):
        return RamanujanSum(None, status, math.inf)
    value = (
        Constant.from_rational(2)
        * zeta_value(s)
        * zeta_value(s - a)
        * zeta_value(s - b)
        * zeta_value(s - a - b)
        / zeta_value(2 * s - a - b)
    )
    return RamanujanSum(value, status, value.evaluate(env))


def ramanujan_log_convolution(a: int, b: int, s: int, env: NumericEnv = DEFAULT_ENV) -> RamanujanSum:
    """sum_{n != 0} sigma_a sigma_b log|n| / |n|^s = -2 d/ds [zeta ratio].

    The derivative is expanded through logarithmic derivatives, leaving
    zeta'(k) symbols (with numeric evaluation hooks) next to exact zeta
    factors.
    """
    base = ramanujan_convolution(a, b, s, env)
    if base.closed_form is None:
        return base
    value = Constant.zero()
    for arg, weight in ((s, 1), (s - a, 1), (s - b, 1), (s - a - b, 1), (2 * s - a - b, -2)):
        term = base.value * Constant.monomial(sym_zeta_prime(arg)) / zeta_value(arg)
        value = value + term * Fraction(-weight)
    return RamanujanSum(value, base.status, value.evaluate(env))


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
