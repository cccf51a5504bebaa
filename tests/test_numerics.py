import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from eisenmodes.bessel import DoubleBessel, SingleBessel, differentiate
from eisenmodes.homogeneous import solve_mode
from eisenmodes.laurent import YLaurent
from eisenmodes.numerics import NumericEnv, bessel_k, eval_expr, residual
from eisenmodes.scalars import Constant
from eisenmodes.sources import Params
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

