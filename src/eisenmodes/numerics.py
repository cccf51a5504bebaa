"""Independent floating-point oracle for the exact solver.

This module is the only place that maps a scalar symbol (pi, gamma, log pi,
log p, zeta(k), zeta'(k)) to a number: ``symbol_value`` takes it from
mpmath, and ``NumericEnv`` rounds the 60-digit value once to a correctly
rounded double.  The modified Bessel functions stay hand-written in double
precision, because mpmath's ``besselk`` costs milliseconds a call and the
operator-residual check evaluates them for every solved mode it validates;
their small-argument series takes gamma from the same table.
``eval_hom_normalized`` evaluates the decaying element a mode carries,
``HomBasis`` kind "K" or "power_neg".  The operator residual evaluates
P(particular) - source only: P annihilates the homogeneous element exactly
for every alpha, and the boundary condition that fixes alpha is exact and
has no numeric check here (``homogeneous.choose_alpha`` states it).

What the residual sees is narrower than its name.  Its terms take the second
derivative through the same factor-derivative rules as the symbolic operator,
and within each (cell, y-power) group they share one product of Bessel
values, which factors out.  Both evaluators take their Bessel values from
``_k01``, each distinct argument 2 pi |n| y once per point.  So the residual
sees errors in the coefficients, blurred by rounding, and nothing of the
Bessel values or of the derivative rules: with ``_k01`` returning
0.7(1+x) K_0 and 1.5(1+x) K_1 in place of K_0 and K_1, the (3/2,3/2,30)
mode (1, 2) still reads 8.8e-15, 2.3e-17 and 1.2e-15 at y = 0.05, 0.5 and 1
(1.2e-14, 1.8e-16 and 2.1e-15 with the true values).  Where every term
underflows it reads 0: in the unit-normalized (3/2,3/2,30) mode (200, -37),
one particular coefficient multiplied by 1 + 1e-6 reads 0 at y = 0.5, 1
and 2.  Where the terms cancel it reads rounding noise: the exact
unit-normalized (7/2,7/2,56) mode (-117, 100) reads 3.6e-5 at y = 0.5.  The
exact check of a solution is the symbolic operator (``bessel.mode_operator``);
the residual stays a numeric oracle for tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict

from .bessel import BesselProduct, HomBasis, differentiate
from .scalars import SYM_GAMMA, Symbol

__all__ = [
    "NumericEnv",
    "DEFAULT_ENV",
    "symbol_value",
    "bessel_k",
    "eval_expr",
    "eval_hom_normalized",
    "residual",
]


# ---------------------------------------------------------------------------
# Scalar symbol values
# ---------------------------------------------------------------------------


def symbol_value(sym: Symbol):
    """The mpmath value of one scalar symbol at the caller's working precision.

    mpmath is imported here, not at module level, so that importing the
    package stays cheap.
    """
    import mpmath as mp

    kind, arg = sym
    if kind == "pi":
        return +mp.pi
    if kind == "gamma":
        return +mp.euler
    if kind == "ln_pi":
        return mp.log(mp.pi)
    if kind == "ln_prime":
        return mp.log(arg)
    if kind in ("zeta", "zeta_prime"):
        # mp.zeta(1, derivative=1) returns +inf instead of raising
        if arg == 1:
            raise ValueError(f"{kind}(1) is at the pole of zeta")
        return mp.zeta(arg, derivative=int(kind == "zeta_prime"))
    raise ValueError(f"unassigned symbol {sym}")


@dataclass
class NumericEnv:
    """Double-precision values of the scalar symbols, cached per symbol.

    Each value is the 60-digit mpmath value rounded once to a double.
    """

    _cache: Dict[Symbol, float] = field(default_factory=dict, repr=False)

    def value(self, sym: Symbol) -> float:
        if sym not in self._cache:
            import mpmath as mp

            with mp.workdps(60):
                self._cache[sym] = float(symbol_value(sym))
        return self._cache[sym]

    __call__ = value


DEFAULT_ENV = NumericEnv()


# ---------------------------------------------------------------------------
# Modified Bessel functions
# ---------------------------------------------------------------------------


def _k01_series(x: float):
    """Power-series K_0, K_1 for small x (used below x = 0.5; no cancellation there)."""
    u = x * x / 4
    lg = math.log(x / 2) + DEFAULT_ENV.value(SYM_GAMMA)
    i0 = term = 1.0
    k0 = 0.0
    h = 0.0
    m = 1
    while True:
        term *= u / (m * m)
        h += 1 / m
        i0 += term
        k0 += term * h
        if term < 1e-19 * i0:
            break
        m += 1
    k0 += -lg * i0

    # K_1 = 1/x + (log(x/2)+gamma) I_1 - (x/4) sum (H_m + H_{m+1}) u^m / (m!(m+1)!)
    i1 = x / 2
    term = x / 2
    corr = 1.0  # (H_0 + H_1) = 1 at m=0
    h_m, h_m1 = 0.0, 1.0
    cterm = 1.0
    m = 1
    while True:
        term *= u / (m * (m + 1))
        cterm *= u / (m * (m + 1))
        h_m += 1 / m
        h_m1 += 1 / (m + 1)
        i1 += term
        corr += cterm * (h_m + h_m1)
        if term < 1e-19 * i1:
            break
        m += 1
    k1 = 1 / x + lg * i1 - (x / 4) * corr
    return k0, k1


def _k01_quadrature(x: float):
    """K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt via trapezoid.

    The integrand extends to an even, super-exponentially decaying function of
    t, so the trapezoid rule converges spectrally; h = 1/16 gives ~1e-15.
    """
    h = 1.0 / 16
    t_max = math.acosh(max(800.0 / x, 2.0))
    n_steps = int(t_max / h) + 2
    k0 = 0.5 * math.exp(-x)
    k1 = 0.5 * math.exp(-x)
    for k in range(1, n_steps + 1):
        t = k * h
        w = math.exp(-x * math.cosh(t))
        if w == 0.0:
            break
        k0 += w
        k1 += w * math.cosh(t)
    return k0 * h, k1 * h


def _k01(x: float):
    if x <= 0:
        raise ValueError("argument must be positive")
    return _k01_series(x) if x < 0.5 else _k01_quadrature(x)


def bessel_k(nu, x: float) -> float:
    """Modified Bessel K_nu(x) for integer or half-integer nu >= 0, x > 0.

    Integer orders use upward recurrence from K_0, K_1; half-integer orders
    use the finite closed form sqrt(pi/2x) e^{-x} * polynomial(1/x).
    """
    if x <= 0:
        raise ValueError("argument must be positive")
    two_nu = round(2 * float(nu))
    if abs(2 * float(nu) - two_nu) > 1e-12 or two_nu < 0:
        raise ValueError(f"order must be a nonnegative integer or half-integer, got {nu}")
    if two_nu % 2 == 0:
        order = two_nu // 2
        k0, k1 = _k01(x)
        if order == 0:
            return k0
        prev, cur = k0, k1
        for j in range(1, order):
            prev, cur = cur, prev + (2 * j / x) * cur
        return cur
    m = (two_nu - 1) // 2
    total = 0.0
    for k in range(m + 1):
        total += (
            math.factorial(m + k)
            / (math.factorial(k) * math.factorial(m - k))
            * (2 * x) ** (-k)
        )
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x) * total


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _cells(expr, y: float, k01: Dict[int, tuple]):
    """Each cell's polynomial and its K factor values at y, in factor order.

    ``k01`` maps |n| to (K_0, K_1) at 2 pi |n| y; the caller holds it for one
    point, so each distinct argument goes through ``_k01`` once.
    """
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    for cell, q in expr.table.items():
        ks = []
        for index, n in expr.factors(cell):
            if n not in k01:
                k01[n] = _k01(2 * math.pi * n * y)
            ks.append(k01[n][index])
        yield q, ks


def eval_expr(expr, y: float, env: NumericEnv = DEFAULT_ENV) -> float:
    """Numeric value of a Bessel expression at y > 0."""
    return math.fsum(math.prod((q.evaluate(env, y), *ks)) for q, ks in _cells(expr, y, {}))


def eval_hom_normalized(basis: HomBasis, y: float) -> float:
    """The scaled decaying element 2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y), or y^{-r}."""
    if basis.kind == "power_neg":
        return y ** (-basis.r)
    z = 2 * math.pi * abs(basis.n) * y
    return 2 * math.sqrt(abs(basis.n)) * (math.sqrt(y) * bessel_k(basis.r + 0.5, z))


def _exact_value(expr, y: float, env: NumericEnv, k01: Dict[int, tuple]) -> Fraction:
    """expr(y) as one exact Fraction of double inputs.

    Bessel values, scalar constants and powers are evaluated in double
    precision (the inputs of the check); all products and sums combining
    them are carried exactly so the deep cross-cell cancellations of the
    operator identity do not amplify arithmetic noise.
    """
    y_f = Fraction(y)
    ln_f = Fraction(math.log(y))
    total = Fraction(0)
    for q, ks in _cells(expr, y, k01):
        poly = sum(Fraction(c.evaluate(env)) * y_f**k * ln_f**j for (k, j), c in q.terms().items())
        total += poly * math.prod(map(Fraction, ks))
    return total


def residual(mode, y: float, env: NumericEnv = DEFAULT_ENV, scale: float | None = None) -> float:
    """Relative residual |P(particular) - source| / scale of a mode at y.

    ``mode`` is a ModeSolution-like object exposing params (with lam), n1, n2,
    particular and source (a SourceTerm).  The scale defaults to
    max(|source(y)|, |source(1)|, 1e-300); the value at 1 guards zeros of the
    source.  The second derivative is applied through the exact
    factor-derivative rules and then evaluated numerically: P(particular) and
    the source are each one exact sum of double-precision inputs, and the
    three expressions share one (K_0, K_1) pair per argument.  The homogeneous
    part alpha * h is not evaluated: P(h) = 0 is an exact identity for every
    alpha, and alpha is fixed exactly by ``homogeneous.choose_alpha`` and
    checked by ``homogeneous.boundary_reference``.  A
    point where y * y is not a finite double raises ``OverflowError``.

    The Bessel values factor out of each (cell, y-power) group of terms, so
    the result sees coefficient errors, blurred by rounding, but not wrong
    Bessel values or derivative rules (the module docstring gives the
    measurement).  It reads 0 where every term underflows, and rounding noise
    where the terms cancel.
    """
    if not math.isfinite(y * y):
        raise OverflowError(f"y * y = {y * y!r} is not a finite double")
    nsum = mode.n1 + mode.n2
    part = mode.particular
    source = mode.source.full()
    k01: Dict[int, tuple] = {}
    y_f = Fraction(y)
    mass = 4 * Fraction(math.pi) ** 2 * nsum * nsum * y_f * y_f
    lhs = (_exact_value(differentiate(differentiate(part)), y, env, k01) * y_f * y_f
           + _exact_value(part, y, env, k01) * (-mode.params.lam - mass))
    rhs = _exact_value(source, y, env, k01)
    if scale is None:
        scale = max(abs(float(rhs)), abs(eval_expr(source, 1.0, env)), 1e-300)
    return abs(float(lhs - rhs)) / scale
