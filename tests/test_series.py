import math
from fractions import Fraction

import pytest

from eisenmodes.bessel import DoubleBessel, HomBasis, Pure, SingleBessel, _flatten
from eisenmodes.laurent import YLaurent
from eisenmodes.numerics import NumericEnv, bessel_k, eval_expr, eval_hom_normalized
from eisenmodes.scalars import GAMMA, LN_PI, Constant, log_normalize
from eisenmodes.series import (
    AsymptoticSeries,
    hom_norm_series,
    k_flat_series,
    k_log_series,
    small_y_series,
)

ENV = NumericEnv()


def test_k_series_numeric_agreement():
    for j in (0, 1):
        for n in (1, 2, 3):
            s = k_log_series(j, n, 6)
            approx = s.evaluate(ENV, 1e-3)
            direct = bessel_k(j, 2 * math.pi * n * 1e-3)
            assert abs(approx - direct) / direct < 1e-12


def test_cached_series_equal_uncached():
    # memoized kernels hand back the very series the plain function builds
    for j in (0, 1):
        for n in set(range(-5, 6)) - {0}:
            for order in range(-2, 7):
                assert k_log_series(j, n, order) == k_log_series.__wrapped__(j, n, order)
                assert k_flat_series(j, n, order) == k_flat_series.__wrapped__(j, n, order)
    for r in range(1, 9):
        for n in (1, 2, 5):
            for order in range(-r, 7):
                assert hom_norm_series(r, n, order) == hom_norm_series.__wrapped__(r, n, order)


def _k_log_series_oracle(j, n, order):
    """K_j(2 pi |n| y) through y^(order - 1) in Constant arithmetic, from the
    expansions of the series module docstring with u = (z/2)^2 / y^2."""
    harmonic = lambda m: sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))
    u = Constant.pi_power(2, n * n)
    l0 = LN_PI + log_normalize(abs(n)) + GAMMA
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
                add((2 * m, 0), im * harmonic(m))
            m += 1
    else:
        add((-1, 0), Constant.pi_power(-1, Fraction(1, 2 * abs(n))))
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
                harmonic(m) + harmonic(m + 1)
            ) / Fraction(math.factorial(m) * math.factorial(m + 1))
            add((2 * m + 1, 0), -corr)
            m += 1
    return YLaurent(terms).truncate(order)


def test_k_log_series_is_the_constant_arithmetic_oracle():
    # each coefficient written from the closed form equals the one the
    # expansions give through powers of u and Constant division
    # (n up to 300, the sweep's frequencies, with three or more prime logs)
    for j in (0, 1):
        for N in (*range(1, 61), 97, 200, 300):
            for order in range(-2, 15):
                expected = _k_log_series_oracle(j, N, order)
                for n in (N, -N):
                    assert k_log_series.__wrapped__(j, n, order) == expected, (j, n, order)


def _flat(poly):
    """A YLaurent as {(y_exp, log_exp, pi exponent, rest): int} over the lcm of its denominators."""
    terms, den = _flatten(Pure(poly))
    return {(k, j, e, rest): q for (_, k, j, e, rest), q in terms.items()}, den


def test_flat_k_series_equals_the_flattened_constant_series():
    # the closed form written in ints is k_log_series term for term, over the
    # same denominator, in increasing y exponent, each monomial split into its
    # pi exponent and a pi-free rest; the sign of n does not matter
    for j in (0, 1):
        for n in (*range(1, 13), 30, 97, 200, 300):
            for order in range(-2, 15):
                terms, den = k_flat_series.__wrapped__(j, n, order)
                keyed = {(k, lg, e, rest): c for k, lg, e, rest, c in terms}
                assert len(keyed) == len(terms)
                assert (keyed, den) == _flat(k_log_series.__wrapped__(j, n, order)), (j, n, order)
                assert all(rest.pi_exponent() == 0 for *_, rest, _ in terms)
                assert [k for k, *_ in terms] == sorted(k for k, *_ in terms)
            assert k_flat_series.__wrapped__(j, -n, 14) == (terms, den)
    for j, n in ((2, 1), (0, 0)):
        with pytest.raises(ValueError):
            k_flat_series(j, n, 3)


def test_hom_leading_coefficients_match_tables():
    # sqrt(y) K_{11/2}(2 pi y): leading 945/(64 pi^5) y^-5; normalized basis doubles it
    assert hom_norm_series(5, 1, -3).coeff(-5) == Constant.pi_power(-5, Fraction(945, 32))
    # r = 7 analogue: 135135/(256 pi^7)
    assert hom_norm_series(7, 1, -5).coeff(-7) == Constant.pi_power(-7, Fraction(135135, 128))


def test_hom_series_numeric():
    y = 1e-3
    for r, n in ((5, 1), (7, 2), (3, 3)):
        s = hom_norm_series(r, n, 4)
        direct = eval_hom_normalized(HomBasis("K", r, n), y)
        assert abs(s.evaluate(ENV, y) - direct) / abs(direct) < 1e-10


def test_homogeneous_elements_are_annihilated_exactly():
    # y^2 h'' - r(r+1) h - 4 pi^2 n^2 y^2 h vanishes below y^N on the series
    # choose_alpha matches; the mass term of the dropped tail starts at y^N
    for r in range(1, 13):
        lam = r * (r + 1)
        for n in (1, -1, 2, 7, 300):
            for order in (1, 4, 8):
                h = hom_norm_series(r, n, order)
                mass = h.shift(2).scale(Constant.pi_power(2, 4 * n * n))
                image = h.diff().diff().shift(2) - h.scale(lam) - mass
                assert image.truncate(order).is_zero(), (r, n, order)
        # the anti-diagonal element y^-r carries no mass term
        power = YLaurent.monomial(-r)
        assert (power.diff().diff().shift(2) - power.scale(lam)).is_zero()


def test_k0_squared_series_has_log_squared():
    e = DoubleBessel(1, 1, {(0, 0): YLaurent.one()})
    s = small_y_series(e, 1)
    assert not s.coeff(0, 2).is_zero()
    s4 = small_y_series(e, 4)
    val = s4.terms.evaluate(ENV, 1e-3)
    direct = eval_expr(e, 1e-3, ENV)
    assert abs(val - direct) / abs(direct) < 1e-6


def test_series_number_consistency_order3():
    # fixture-style expressions at order 3 agree to 1e-5 at y = 1e-3
    exprs = [
        DoubleBessel(1, 2, {(1, 1): YLaurent.monomial(1), (0, 1): YLaurent.monomial(-1)}),
        SingleBessel(2, {0: YLaurent.monomial(2), 1: YLaurent.monomial(0, Constant.pi_power(-1, 3))}),
        Pure(YLaurent.monomial(-1, 5) + YLaurent.monomial(2, 1, log_exp=1)),
    ]
    for e in exprs:
        s = small_y_series(e, 3)
        val = s.terms.evaluate(ENV, 1e-3)
        direct = eval_expr(e, 1e-3, ENV)
        assert abs(val - direct) / abs(direct) < 1e-5


def test_power_basis_series():
    s = small_y_series(HomBasis("power_neg", 4), 0)
    assert s.coeff(-4) == Constant.one()
    # the oracle's value of that element is its one term, y^-4
    for y in (1e-3, 0.7, 3.0):
        assert eval_hom_normalized(HomBasis("power_neg", 4), y) == s.terms.evaluate(ENV, y) == y**-4
    # the growing elements are not basis kinds
    with pytest.raises(ValueError):
        HomBasis("I", 4, 1)


def test_asymptotic_series_truncation_arithmetic():
    a = AsymptoticSeries(YLaurent.monomial(-2) + YLaurent.monomial(5), 3)
    assert a.coeff(-2) == Constant.one()
    with pytest.raises(ValueError):
        a.coeff(5)
    b = AsymptoticSeries(YLaurent.monomial(0), 2)
    assert (a + b).order == 2


def test_series_number_consistency_on_solved_modes():
    # order-3 series of real solved particular parts agree with direct
    # evaluation at y = 1e-3 to 1e-5 relative
    from eisenmodes.fixtures import list_families
    from eisenmodes.homogeneous import solve_mode
    from eisenmodes.sources import Params

    for key in list_families():
        a, b, lam = key.split(",")
        p = Params(Fraction(a), Fraction(b), int(lam))
        mode = solve_mode(p, 1, 2)
        s = small_y_series(mode.particular, 3)
        approx = s.terms.evaluate(ENV, 1e-3)
        direct = eval_expr(mode.particular, 1e-3, ENV)
        assert abs(approx - direct) / abs(direct) < 1e-5, key
