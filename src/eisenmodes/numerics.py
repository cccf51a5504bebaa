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
``_k01`` keeps the values of its last ``K01_CACHE_SIZE`` arguments.
``eval_hom_normalized`` evaluates the decaying element a mode carries,
``HomBasis`` kind "K" or "power_neg".  Expressions have one evaluator,
``_evaluate``.  Its inputs are doubles (each coefficient as
``Constant.evaluate`` gives it, the Bessel values, pi, y and log y), so every
product and sum of them is a dyadic rational: it carries them exactly as int
mantissas over binary exponents, and its callers round once, at the end.
``eval_expr`` is that exact value of an expression, rounded once.  The
operator residual evaluates P(particular) - source only: P annihilates the
homogeneous element exactly for every alpha, and the boundary condition that
fixes alpha is exact and has no numeric check here
(``homogeneous.choose_alpha`` states it).

What the residual sees is narrower than its name.  Its terms take the second
derivative through the same factor-derivative rules as the symbolic operator,
and within each (cell, y-power) group they share one product of Bessel
values, which factors out.  The evaluator takes the Bessel values from
``_k01``, each distinct argument 2 pi |n| y once per point, and ``_k01``
does not compute again an argument it still keeps.  So the residual
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
from functools import lru_cache
from typing import Dict, Tuple

from .bessel import BesselProduct, HomBasis, _times_pi
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

# how many arguments ``_k01`` keeps, the least recently used dropped first.
# The arguments met again are those of the scale point y = 1 of every
# residual, 2 pi |n| for the few |n| of a run.  At 256, perfbench's tables,
# sweep and decay at seed 1 hit 469, 107 and 25 times, as with no bound; at
# 128 the sweep hits 93 times
K01_CACHE_SIZE = 256


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


@lru_cache(maxsize=K01_CACHE_SIZE, typed=True)
def _k01(x: float):
    """(K_0(x), K_1(x)): ``_k01_series`` below 0.5, ``_k01_quadrature`` from
    there.  Memoized per argument and its type (an int and its float are
    two arguments), so a value read back has the bits of one computed."""
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


def eval_expr(expr, y: float, env: NumericEnv = DEFAULT_ENV) -> float:
    """Numeric value of a Bessel expression at y > 0: the exact value of its
    double inputs (``_evaluate``: the coefficient doubles the residual reads,
    y, log y and the K values), rounded once.  An infinite coefficient raises
    ``OverflowError`` and a nan ``ValueError``, as in the residual."""
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    flat = expr.flat
    return _quotient(*_evaluate([(expr, _coefficients(flat.terms, flat.den, env), (1, 0), 0)], y, {}))


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


def _evaluate(parts, y: float, k01: Dict[int, tuple]):
    """(s, y^K): the exact sum of `parts` at y times y^K, K = max(0, -(lowest
    y power)), as two dyadics, unrounded.

    Each part is (expression, its coefficient doubles from ``_coefficients``,
    a dyadic multiplier, a y shift) and adds multiplier y^shift expression(y).
    Every input is a double: each coefficient, y, log y and the K values, so
    every term is a dyadic.  ``k01`` maps |n| to the dyadic (K_0, K_1) at
    2 pi |n| y; the parts share it and the caller holds it for one point, so
    each distinct argument goes through ``_k01`` (memoized) once.  The terms
    are summed per (y power, log power), the K values factored out of each
    cell, and those sums are multiplied through by y^K.
    """
    y_m, y_e = _dyadic(y)
    log_m, log_e = _dyadic(math.log(y))
    groups: Dict = {}  # {(y power, log power): [dyadic term]}
    for expr, coefficients, (mul_m, mul_e), shift in parts:
        if not mul_m:
            continue
        for cell, poly in coefficients.items():
            m, e = mul_m, mul_e
            for index, n in expr.factors(cell):
                if n not in k01:
                    k01[n] = tuple(map(_dyadic, _k01(2 * math.pi * n * y)))
                k_m, k_e = k01[n][index]
                m, e = m * k_m, e + k_e
            for (k, j), (c_m, c_e) in poly.items():
                groups.setdefault((k + shift, j), []).append((m * c_m, e + c_e))
    depth = max([0, *(-k for k, _ in groups)])
    total = _dyadic_sum(
        (s_m * y_m ** (k + depth) * log_m**j, s_e + y_e * (k + depth) + log_e * j)
        for (k, j), pairs in groups.items()
        for s_m, s_e in [_dyadic_sum(pairs)]
    )
    return total, (y_m**depth, y_e * depth)


def residual(mode, y: float, env: NumericEnv = DEFAULT_ENV, scale: float | None = None) -> float:
    """Relative residual |P(particular) - source| / scale of a mode at y.

    ``mode`` is a ModeSolution-like object exposing params (with lam), n1, n2,
    particular and source (a SourceTerm).  The one evaluator (``_evaluate``)
    gives two exact sums at y, from one (K_0, K_1) pair per argument: the left
    side y^2 particular'' - lam particular - 4 pi^2 nsum^2 y^2 particular, and
    the source.  Their difference is taken exactly, over the product of their
    two y^K, and rounded to a double once.  The scale defaults to
    max(|source(y)|, |source(1)|, 1e-300): |source(y)| is the same source sum
    rounded once, and |source(1)|, which guards zeros of the source, is the
    evaluator's at 1, the value ``eval_expr`` gives.  The second derivative is
    taken on the flat particular by the exact factor-derivative rules
    (``bessel._derivative``); the flat particular and its second derivative
    are the particular's own ``flat`` and ``flat.second``, which the exact
    operator check reads too.  The source's coefficient doubles are read from
    its flat value (``SourceTerm.flat``, its int terms over one denominator,
    which the full source was built from), so the source is not flattened
    again; each q / den rounds as the reduced Fraction does.  The homogeneous
    part alpha * h is not evaluated: P(h) = 0 is an exact identity for every
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
    part, flat = mode.particular, mode.source.flat
    view = part.flat
    second = _coefficients(view.second, view.den, env)
    values = _coefficients(view.terms, view.den, env)
    source = [(flat.shape, _coefficients(flat.terms, flat.den, env), (1, 0), 0)]
    pi_m, pi_e = _dyadic(math.pi)
    nsum = mode.n1 + mode.n2
    k01: Dict[int, tuple] = {}
    left = [(part, second, (1, 0), 2), (part, values, (-mode.params.lam, 0), 0),
            (part, values, (-4 * nsum * nsum * pi_m * pi_m, 2 * pi_e), 2)]
    (l_m, l_e), (ld_m, ld_e) = _evaluate(left, y, k01)
    (r_m, r_e), (rd_m, rd_e) = rhs = _evaluate(source, y, k01)
    if scale is None:
        scale = max(abs(_quotient(*rhs)), abs(_quotient(*_evaluate(source, 1.0, {}))), 1e-300)
    difference = _dyadic_sum(((l_m * rd_m, l_e + rd_e), (-r_m * ld_m, r_e + ld_e)))
    return abs(_quotient(difference, (ld_m * rd_m, ld_e + rd_e))) / scale
