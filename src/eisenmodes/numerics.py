"""Independent floating-point oracle for the exact solver.

``symbol_value`` maps a scalar symbol (pi, gamma, log pi, log p, zeta(k),
zeta'(k)) to the mpmath value that the kind table of ``scalars``
(``_KINDS``) gives it, and ``NumericEnv`` rounds the 60-digit value once to
a correctly rounded double.  The modified Bessel functions stay
hand-written in double precision, because mpmath's ``besselk`` costs milliseconds a call and the
operator-residual check evaluates them for every solved mode it validates.
``_k01`` gives K_0 and K_1 with one fixed loop per regime: below x = 0.5 their
power series, which takes gamma from the same table, and from 0.5 a
trapezoid on 53 fixed nodes after a change of variable that makes the
integrand analytic in a strip of half-width at least 1.  Against 40-digit
mpmath both are within 8.0e-16 relative on 451 evenly spaced points of
[0.5, 700] and within 2.2e-16 on 400 log-uniform points of (1e-300, 0.5).
``eval_hom_normalized`` evaluates the decaying element a mode carries,
``HomBasis`` kind "K" or "power_neg".  The operator residual evaluates
P(particular) - source only: P annihilates the homogeneous element exactly
for every alpha, and the boundary condition that fixes alpha is exact and
has no numeric check here (``homogeneous.choose_alpha`` states it).  Its
inputs are doubles (each coefficient as ``Constant.evaluate`` gives it, the
Bessel values, pi, y and log y), so every product and sum of them is a
dyadic rational: the residual carries them exactly as int mantissas over
binary exponents and rounds once, at the end.

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
from typing import Dict, Tuple

from .bessel import BesselProduct, HomBasis, _derivative, _flatten, _times_pi
from .scalars import _KINDS, SYM_GAMMA, Symbol

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
    if kind not in _KINDS:
        raise ValueError(f"unassigned symbol {sym}")
    # mp.zeta(1, derivative=1) returns +inf instead of raising
    if kind in ("zeta", "zeta_prime") and arg == 1:
        raise ValueError(f"{kind}(1) is at the pole of zeta")
    return _KINDS[kind][2](mp, arg)


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


# the trapezoid's nodes as (u_k^2, h e^{-u_k^2}) at u_k = k h, h = 1/8, the
# weight halved at u = 0; the first node left out, u_53, would weigh e^{-43.9}
_NODES = tuple(((k / 8) ** 2, math.exp(-(k / 8) ** 2) / (16 if k == 0 else 8)) for k in range(53))


def _k01_series(x: float):
    """K_0, K_1 by their power series, used below x = 0.5.

    With u = x^2/4, l = log(x/2) + gamma, t_m = u^m/(m!)^2, c_m = t_m/(m+1)
    and H_m the harmonic numbers: K_0 = sum (H_m - l) t_m and
    K_1 = 1/x + l (x/2) sum c_m - (x/4) sum (H_m + H_{m+1}) c_m.  Below 0.5,
    l < 0, so every term of K_0 is positive; the sums stop once t_m is below
    1e-19 of sum t.
    """
    u = x * x / 4
    lg = math.log(x / 2) + DEFAULT_ENV.value(SYM_GAMMA)
    t = total = c_sum = c_h = 1.0  # t_0 = c_0 = 1, H_0 + H_1 = 1
    k0, h, m = -lg, 0.0, 0
    while t >= 1e-19 * total:
        m += 1
        t *= u / (m * m)
        c = t / (m + 1)
        h += 1 / m
        total += t
        k0 += (h - lg) * t
        c_sum += c
        c_h += (2 * h + 1 / (m + 1)) * c
    return k0, 1 / x + lg * (x / 2) * c_sum - (x / 4) * c_h


def _k01_quadrature(x: float):
    """K_0, K_1 by the trapezoid rule on fixed nodes, used from x = 0.5.

    u = sqrt(2x) sinh(t/2) in K_nu(x) = integral_0^inf e^{-x cosh t}
    cosh(nu t) dt gives K_nu(x) = e^{-x} sqrt(2/x) integral_0^inf e^{-u^2}
    cosh(nu t) / sqrt(1 + u^2/(2x)) du, with cosh t = 1 + u^2/x.  The
    integrand is even and analytic for |Im u| < sqrt(2x) >= 1, so the
    trapezoid on u_k = k/8, k = 0..52 (``_NODES``) errs by about e^{-50}
    for every x (the module docstring gives the measured accuracy).
    """
    k0 = k1 = 0.0
    for u2, w in _NODES:
        v = u2 / x  # cosh t - 1
        f = w / math.sqrt(1 + v / 2)
        k0 += f
        k1 += f * (1 + v)
    scale = math.exp(-x) * math.sqrt(2 / x)
    return scale * k0, scale * k1


def _k01(x: float):
    if not x > 0:
        raise ValueError("argument must be positive")
    return _k01_series(x) if x < 0.5 else _k01_quadrature(x)


def bessel_k(nu, x: float) -> float:
    """Modified Bessel K_nu(x) for integer or half-integer nu >= 0, x > 0.

    Integer orders use upward recurrence from K_0, K_1 (``_k01``: the series
    below x = 0.5, the fixed-node trapezoid from there); half-integer orders
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


def _k_values(expr, cell, y: float, k01: Dict[int, tuple]):
    """The K factor values of `cell` at y, in factor order.

    ``k01`` maps |n| to (K_0, K_1) at 2 pi |n| y; the caller holds it for one
    point, so each distinct argument goes through ``_k01`` once.
    """
    values = []
    for index, n in expr.factors(cell):
        if n not in k01:
            k01[n] = _k01(2 * math.pi * n * y)
        values.append(k01[n][index])
    return values


def eval_expr(expr, y: float, env: NumericEnv = DEFAULT_ENV) -> float:
    """Numeric value of a Bessel expression at y > 0, from the coefficient
    doubles the residual reads (``_coefficients``); an infinite coefficient
    raises ``OverflowError`` and a nan ``ValueError``, as there."""
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    return _value(expr, _coefficients(*_flatten(expr), env), y, {})


def eval_hom_normalized(basis: HomBasis, y: float) -> float:
    """The scaled decaying element 2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y), or y^{-r}."""
    if basis.kind == "power_neg":
        return y ** (-basis.r)
    z = 2 * math.pi * abs(basis.n) * y
    return 2 * math.sqrt(abs(basis.n)) * (math.sqrt(y) * bessel_k(basis.r + 0.5, z))


def _dyadic(x: float) -> Tuple[int, int]:
    """(m, e) with x = m 2^e exactly; like ``Fraction(x)``, an infinite x
    raises ``OverflowError`` and a nan ``ValueError``."""
    m, d = x.as_integer_ratio()
    return m, 1 - d.bit_length()


def _dyadic_sum(pairs) -> Tuple[int, int]:
    """The exact sum of the dyadics (m, e) of `pairs`, as one dyadic."""
    pairs = list(pairs)
    low = min((e for _, e in pairs), default=0)
    return sum(m << (e - low) for m, e in pairs), low


def _quotient(num: Tuple[int, int], den: Tuple[int, int]) -> float:
    """The dyadic num / den, correctly rounded to a double."""
    (n, ne), (d, de) = num, den
    shift = ne - de
    return (n << shift) / d if shift >= 0 else n / (d << -shift)


def _coefficients(terms, den: int, env: NumericEnv) -> Dict:
    """{cell: {(k, j): (m, e)}}: the coefficient doubles of a flat term map
    over den, as dyadics.

    Each double is what ``Constant.evaluate`` gives on the coefficient that
    ``_rebuild`` makes: the fsum over its monomials of q / den (the correctly
    rounded ``float(Fraction(q, den))``) times the symbol powers, multiplied
    in monomial order.
    """
    powers: Dict = {}
    parts: Dict = {}
    for (cell, k, j, e, rest), q in terms.items():
        if q:
            if (e, rest) not in powers:
                powers[e, rest] = [env(sym) ** p for sym, p in _times_pi(rest, e)]
            v = q / den
            for f in powers[e, rest]:
                v *= f
            parts.setdefault(cell, {}).setdefault((k, j), []).append(v)
    return {cell: {kj: _dyadic(math.fsum(vs)) for kj, vs in poly.items()}
            for cell, poly in parts.items()}


def _value(expr, coefficients, y: float, k01: Dict[int, tuple]) -> float:
    """`expr` at y from its coefficient doubles (``_coefficients``): per
    cell the fsum of c y^k log^j y, times the cell's K values
    (``_k_values``), and the fsum of those products."""
    ln_y = math.log(y)
    return math.fsum(
        math.prod((math.fsum(math.ldexp(m, e) * y**k * ln_y**j for (k, j), (m, e) in poly.items()),
                   *_k_values(expr, cell, y, k01)))
        for cell, poly in coefficients.items())


def residual(mode, y: float, env: NumericEnv = DEFAULT_ENV, scale: float | None = None) -> float:
    """Relative residual |P(particular) - source| / scale of a mode at y.

    ``mode`` is a ModeSolution-like object exposing params (with lam), n1, n2,
    particular and source (a SourceTerm).  The scale defaults to
    max(|source(y)|, |source(1)|, 1e-300); the value at 1 guards zeros of the
    source, and is the one ``eval_expr`` gives: ``_value`` reads it off the
    source's coefficient doubles that the residual builds anyway.  Those doubles are
    read from the source's flat value (``SourceTerm.flat``, its int terms over
    one denominator, which the full source was built from), so the source is
    not flattened again; each q / den rounds as the reduced Fraction does.
    The second derivative is taken on the flat particular by the exact factor-derivative
    rules (``bessel._derivative``) and then evaluated numerically.  Every
    input is a double: each coefficient (evaluated as ``Constant.evaluate``
    does), y, log y, pi and the (K_0, K_1) pair of each argument, shared by
    the three expressions.  So P(particular) - source is
    one exact dyadic sum, carried as int mantissas over binary exponents after
    multiplying through by y^K, K = max(0, -(lowest y power)), and it is
    rounded to a double once, on dividing by y^K.  The homogeneous part
    alpha * h is not evaluated: P(h) = 0 is an exact identity for every
    alpha, and alpha is fixed exactly by ``homogeneous.choose_alpha`` and
    checked by ``homogeneous.boundary_reference``.  A point where y * y is not
    a finite double raises ``OverflowError``.

    The Bessel values factor out of each (cell, y-power) group of terms, so
    the result sees coefficient errors, blurred by rounding, but not wrong
    Bessel values or derivative rules (the module docstring gives the
    measurement).  It reads 0 where every term underflows, and rounding noise
    where the terms cancel.
    """
    if not math.isfinite(y * y):
        raise OverflowError(f"y * y = {y * y!r} is not a finite double")
    y_m, y_e = _dyadic(y)
    log_m, log_e = _dyadic(math.log(y))
    part, flat = mode.particular, mode.source.flat
    source = flat.shape
    terms, den = _flatten(part)
    moves: Dict = {}
    second = _coefficients(_derivative(part, _derivative(part, terms, moves), moves), den, env)
    values = _coefficients(terms, den, env)
    source_values = _coefficients(flat.terms, flat.den, env)
    pi_m, pi_e = _dyadic(math.pi)
    nsum = mode.n1 + mode.n2
    k01: Dict[int, tuple] = {}
    left: Dict = {}  # {(y power, log power): [dyadic term]}
    right: Dict = {}
    # y^2 part'', -lam part and -4 pi^2 nsum^2 y^2 part on the left, the source
    # on the right: (shape, coefficients, multiplier as a dyadic, y shift, side)
    for expr, coefficients, (mul_m, mul_e), shift, side in (
        (part, second, (1, 0), 2, left),
        (part, values, (-mode.params.lam, 0), 0, left),
        (part, values, (-4 * nsum * nsum * pi_m * pi_m, 2 * pi_e), 2, left),
        (source, source_values, (1, 0), 0, right),
    ):
        if not mul_m:
            continue
        for cell, poly in coefficients.items():
            m, e = mul_m, mul_e
            for k_m, k_e in map(_dyadic, _k_values(expr, cell, y, k01)):
                m, e = m * k_m, e + k_e
            for (k, j), (c_m, c_e) in poly.items():
                side.setdefault((k + shift, j), []).append((m * c_m, e + c_e))
    depth = max([0, *(-k for k, _ in (*left, *right))])
    lhs, rhs = (
        _dyadic_sum(
            (s_m * y_m ** (k + depth) * log_m**j, s_e + y_e * (k + depth) + log_e * j)
            for (k, j), pairs in side.items()
            for s_m, s_e in [_dyadic_sum(pairs)]
        )
        for side in (left, right)
    )
    y_depth = (y_m**depth, y_e * depth)
    if scale is None:
        scale = max(abs(_quotient(rhs, y_depth)), abs(_value(source, source_values, 1.0, {})), 1e-300)
    return abs(_quotient(_dyadic_sum((lhs, (-rhs[0], rhs[1]))), y_depth)) / scale
