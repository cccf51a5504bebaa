import math
import random
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest

from eisenmodes.bessel import DoubleBessel, SingleBessel, differentiate
from eisenmodes.fixtures import fixture_modes, list_families
from eisenmodes.homogeneous import solve_mode
from eisenmodes.laurent import YLaurent
from eisenmodes.numerics import NumericEnv, _k01, bessel_k, eval_expr, residual
from eisenmodes.scalars import SYM_PI, Constant, SymbolMonomial
from eisenmodes.sources import Normalization, Params, classify_params
from test_bessel_ops import fd_second_derivative

ENV = NumericEnv()
F = Fraction


def test_bessel_k_against_high_precision_oracle():
    assert abs(bessel_k(0, 1.0) - 0.42102443824070834) < 1e-14
    for nu in (0, 1, 2, 5):
        for x in (1e-3, 0.3, 0.7, 2.0, 10.0, 50.0):
            with mp.workdps(35):
                ref = float(mp.besselk(nu, x))
            assert abs(bessel_k(nu, x) - ref) / ref < 1e-12, (nu, x)


def test_bessel_k_half_integer_closed_form():
    assert abs(bessel_k(0.5, 1.0) - math.sqrt(math.pi / 2) * math.exp(-1)) < 1e-15
    for nu in (1.5, 5.5, 7.5):
        for x in (0.5, 2.0, 10.0):
            with mp.workdps(35):
                ref = float(mp.besselk(nu, x))
            assert abs(bessel_k(nu, x) - ref) / ref < 1e-13


def test_bessel_k_recurrence_identity():
    for x in (0.5, 2.0, 10.0):
        lhs = bessel_k(2, x)
        rhs = bessel_k(0, x) + 2 * bessel_k(1, x) / x
        assert abs(lhs - rhs) / lhs < 1e-13


def test_bessel_k_domain():
    with pytest.raises(ValueError):
        bessel_k(0, -1.0)
    with pytest.raises(ValueError):
        bessel_k(0.3, 1.0)


def test_wronskian():
    for nu in (0.5, 5.5):
        for x in (0.5, 2.0, 10.0):
            with mp.workdps(35):
                i = [float(mp.besseli(m, x)) for m in (nu - 1, nu, nu + 1)]
            kd = -0.5 * (bessel_k(abs(nu - 1), x) + bessel_k(nu + 1, x))
            idd = 0.5 * (i[0] + i[2])
            w = i[1] * kd - idd * bessel_k(nu, x)
            assert abs(w + 1 / x) * x < 1e-11


def test_symbol_values_are_correctly_rounded():
    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    syms = [("pi", None), ("gamma", None), ("ln_pi", None)]
    syms += [("ln_prime", p) for p in primes]
    syms += [("zeta", k) for k in range(3, 42, 2)]
    syms += [("zeta_prime", m) for m in range(-10, 21) if m != 1]
    refs = {"pi": lambda _: mp.pi, "gamma": lambda _: mp.euler,
            "ln_pi": lambda _: mp.log(mp.pi), "ln_prime": mp.log,
            "zeta": mp.zeta, "zeta_prime": lambda m: mp.zeta(m, derivative=1)}
    env = NumericEnv()
    with mp.workdps(50):
        for kind, arg in syms:
            got = env.value((kind, arg))
            assert abs(mp.mpf(got) - refs[kind](arg)) <= mp.mpf(math.ulp(got)) / 2, (kind, arg)
    with pytest.raises(ValueError):
        env.value(("zeta_prime", 1))


def test_env_defaults_and_overrides():
    assert abs(ENV(("zeta_prime", 0)) + 0.5 * math.log(2 * math.pi)) < 1e-14
    with pytest.raises(ValueError):
        ENV(("unknown", None))


def _random_fixture_expr(rng):
    kind = rng.choice(("double", "single"))
    terms = lambda: YLaurent(
        {
            (rng.randint(-3, 2), 0): Constant.pi_power(
                rng.randint(-2, 2), F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 3))
        }
    )
    if kind == "double":
        return DoubleBessel(rng.choice((1, 2)), rng.choice((1, 2, 3)), {(0, 1): terms(), (1, 1): terms()})
    return SingleBessel(rng.choice((1, 2, 3)), {0: terms(), 1: terms()})


def test_derivative_rules_vs_finite_differences():
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        expr = _random_fixture_expr(rng)
        if expr.is_zero():
            continue
        y = rng.uniform(0.5, 1.5)
        d2 = differentiate(differentiate(expr))
        sym = eval_expr(d2, y, ENV)

        def f(t):
            return eval_expr(expr, t, ENV)

        fd = fd_second_derivative(f, y, h=1e-5)
        if abs(fd) < 1e-12:
            continue
        assert abs(sym - fd) / abs(fd) < 1e-6
        checked += 1


def test_residual_fixture_and_homogeneous():
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 1, 2)
    for y in (0.5, 1.0, 2.0):
        assert residual(m, y, ENV) <= 1e-9


def test_residual_detects_corruption():
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 1, 2)
    table = dict(m.particular.table)
    table[(0, 0)] = table[(0, 0)] + YLaurent.monomial(0, 1)
    m.particular = DoubleBessel(1, 2, table)
    assert residual(m, 1.0, ENV) >= 1e-3


def _reference_value(expr, y, env):
    """expr(y) as one exact Fraction of the double inputs: each rebuilt
    coefficient through ``Constant.evaluate``, y, log y and the K values."""
    y_f, ln_f = F(y), F(math.log(y))
    total = F(0)
    for cell, q in expr.table.items():
        poly = sum(F(c.evaluate(env)) * y_f**k * ln_f**j for (k, j), c in q.terms().items())
        total += poly * math.prod(F(bessel_k(i, 2 * math.pi * n * y)) for i, n in expr.factors(cell))
    return total


def _reference_residual(mode, y, env=ENV, scale=None):
    """The residual through the rebuilt second derivative and Fraction sums."""
    if not math.isfinite(y * y):
        raise OverflowError
    nsum = mode.n1 + mode.n2
    part, source, y_f = mode.particular, mode.source.full(), F(y)
    mass = 4 * F(math.pi) ** 2 * nsum * nsum * y_f * y_f
    lhs = (_reference_value(differentiate(differentiate(part)), y, env) * y_f * y_f
           + _reference_value(part, y, env) * (-mode.params.lam - mass))
    rhs = _reference_value(source, y, env)
    if scale is None:
        scale = max(abs(float(rhs)), abs(eval_expr(source, 1.0, env)), 1e-300)
    return abs(float(lhs - rhs)) / scale


UNIT_FAMILIES = [(a, b, r) for a in (F(3, 2), F(5, 2), F(7, 2), F(9, 2))
                 for b in (F(3, 2), F(5, 2), F(7, 2), F(9, 2)) for r in range(1, 9)
                 if classify_params(a, b, r * (r + 1)).kind == "solvable"]


def test_residual_is_bit_equal_to_the_fraction_reference():
    # solvable UNIT families, weights <= 9/2 and r <= 8, in every mode kind
    # at |n| <= 300; the K arguments 2 pi |n| y fall on both sides of the
    # series/quadrature switch at 0.5, at y = 1e-3 too, and far out where
    # the terms cancel to rounding noise
    rng = random.Random(5)
    kinds = ("generic", "merged", "anti_diagonal", "left_zero", "right_zero")
    checked = 0
    for index in range(30):
        a, b, r = rng.choice(UNIT_FAMILIES)
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        n = rng.choice((1, -1)) * rng.randint(1, 300)
        m = rng.choice((1, -1)) * rng.choice([k for k in range(1, 301) if k != abs(n)])
        n1, n2 = {"generic": (n, m), "merged": (n, n), "anti_diagonal": (n, -n),
                  "left_zero": (0, n), "right_zero": (n, 0)}[kinds[index % 5]]
        mode = solve_mode(p, n1, n2)
        top = 2 * math.pi * max(abs(n1), abs(n2))
        for x in (rng.uniform(0.02, 0.5), rng.uniform(0.5, 2.0), rng.uniform(2.0, 40.0)):
            for y in (x / top, 1e-3):
                for scale in (None, 1.0):
                    assert residual(mode, y, ENV, scale) == _reference_residual(mode, y, ENV, scale), \
                        (a, b, r, n1, n2, y, scale)
                    checked += 1
    assert checked == 360


def test_default_scale_takes_the_source_at_one_as_eval_expr_gives_it():
    # every mode of the printed tables; at y = 3 the K factors have decayed far
    # below their values at 1, so there the scale is |source(1)| for every
    # mode with a Bessel source, and a source(1) off by one ulp shows
    checked = dominated = 0
    for key in list_families():
        a, b, lam = key.split(",")
        p = Params(F(a), F(b), int(lam))
        for pairs in fixture_modes(p.alpha, p.beta, p.lam).values():
            for n1, n2 in pairs:
                mode = solve_mode(p, n1, n2)
                source = mode.source.full()
                at_one = abs(eval_expr(source, 1.0, ENV))
                for y in (0.05, 3.0):
                    at_y = abs(float(_reference_value(source, y, ENV)))
                    scale = max(at_y, at_one, 1e-300)
                    assert residual(mode, y, ENV) == residual(mode, y, ENV, scale), (key, n1, n2, y)
                    dominated += at_one > at_y
                    checked += 1
    assert (checked, dominated) == (340, 160)


def test_residual_raises_as_the_fraction_reference_on_inf_and_nan_coefficients():
    # 10^300 pi^300 overflows to inf; with -10^300 pi^300 zeta(3) in the same
    # coefficient the sum is inf - inf, and times zeta(3)^-5000 (0.0) a nan
    m = solve_mode(Params(F(3, 2), F(3, 2), 30), 1, 2)
    big = {SymbolMonomial({SYM_PI: 300}): F(10**300)}
    zeta3 = ("zeta", 3)
    for monomials, error in (
        (big, OverflowError),
        ({**big, SymbolMonomial({SYM_PI: 300, zeta3: 1}): -F(10**300)}, ValueError),
        ({SymbolMonomial({SYM_PI: 300, zeta3: -5000}): F(10**300)}, ValueError),
    ):
        table = dict(m.particular.table)
        table[(0, 0)] = table[(0, 0)] + YLaurent({(1, 0): Constant(monomials)})
        bad = SimpleNamespace(params=m.params, n1=1, n2=2, source=m.source,
                              particular=DoubleBessel(1, 2, table))
        for fn in (residual, _reference_residual):
            with pytest.raises(error):
                fn(bad, 0.5, ENV)


def test_k01_matches_mpmath_in_both_regimes():
    # the series below x = 0.5 down to 1e-300, and the fixed-node trapezoid from
    # 0.5 to 700, where its old fixed step in t read K_0 off by 4.3e-13 at
    # 177.8, 1.2e-5 at 421.7 and 1.3e-3 at 692.5
    rng = random.Random(16)
    xs = [1e-300, 0.5 - 2**-54, 0.5, 177.8, 421.7, 692.5, 700.0]
    xs += [math.exp(rng.uniform(math.log(1e-300), math.log(0.5))) for _ in range(100)]
    xs += [math.exp(rng.uniform(math.log(0.5), math.log(700.0))) for _ in range(150)]
    with mp.workdps(40):
        for x in xs:
            for nu, got in enumerate(_k01(x)):
                ref = mp.besselk(nu, x)
                assert abs((got - ref) / ref) < 4e-15, (x, nu)
