import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from eisenmodes.divisors import (
    convolution_partial_sum,
    log_convolution_partial_sum,
    ramanujan_convolution,
    ramanujan_log_convolution,
    sigma,
)
from eisenmodes.scalars import Constant


def test_sigma_examples():
    assert sigma(2, 4) == 21
    assert sigma(2, 2) == 5
    assert sigma(-4, 2) == Fraction(17, 16)
    assert sigma(0, 12) == 6
    assert sigma(5, 1) == 1
    with pytest.raises(ValueError):
        sigma(2, 0)


def test_sigma_multiplicativity():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 10**4)
        n = rng.randint(1, 10**4)
        if math.gcd(m, n) != 1:
            continue
        for z in (-3, 0, 2, 4):
            assert sigma(z, m * n) == sigma(z, m) * sigma(z, n)


def test_ramanujan_exact_values():
    r = ramanujan_convolution(2, 2, 8)
    assert r.status == "convergent"
    assert r.closed_form == Constant.pi_power(12, Fraction(143, 58769550))
    r10 = ramanujan_convolution(2, 2, 10)
    assert r10.closed_form == Constant.pi_power(16, Fraction(221, 9690214275))
    # the worked alpha totals follow from these
    assert Constant.pi_power(-4, Fraction(8, 55)) * r.closed_form == Constant.pi_power(
        8, Fraction(52, 146923875)
    )
    assert Constant.pi_power(-6, Fraction(32, 175)) * r10.closed_form == Constant.pi_power(
        10, Fraction(7072, 1695787498125)
    )


def test_two_sided_convention():
    # the closed form carries the factor 2 of sums over n != 0
    r = ramanujan_convolution(0, 0, 4)
    one_sided = sum(float(sigma(0, n)) ** 2 / n**4 for n in range(1, 4000))
    assert abs(r.numeric - 2 * one_sided) < 1e-3


def test_partial_sum_oracles():
    r = ramanujan_convolution(0, 0, 4)
    ps = convolution_partial_sum(0, 0, 4, 100000)
    assert abs(r.numeric - ps) / r.numeric < 1e-6
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        a = rng.choice((0, 2))
        b = rng.choice((0, 2))
        # stay past the edge of the region so the N = 1e5 tail is << 1e-6
        s = rng.randint(a + b + 4, a + b + 8)
        if (s % 2) or ((s - a) % 2) or ((s - b) % 2) or ((s - a - b) % 2):
            continue  # keep all zeta arguments even so the value is a pi power
        r = ramanujan_convolution(a, b, s)
        ps = convolution_partial_sum(a, b, s, 100000)
        assert abs(r.numeric - ps) / abs(r.numeric) < 1e-6, (a, b, s)
        checked += 1


def test_log_convolution():
    rl = ramanujan_log_convolution(2, 2, 8)
    psl = log_convolution_partial_sum(2, 2, 8, 100000)
    assert abs(rl.numeric - psl) / abs(rl.numeric) < 1e-6
    # symmetric in a <-> b
    assert (ramanujan_log_convolution(2, 0, 8).closed_form
            == ramanujan_log_convolution(0, 2, 8).closed_form)


def test_formal_flags_and_poles():
    rf = ramanujan_log_convolution(2, 2, 5)  # s - a - b = 1
    assert rf.status == "formal"
    assert rf.closed_form is None
    # analytic continuation without a pole
    r = ramanujan_convolution(2, 2, 4)
    assert r.status == "formal"
    assert r.closed_form == Constant.pi_power(4, Fraction(-1, 36))


# 2s - a - b = 1 with no numerator argument equal to 1, a, b in [-2, 8] and
# s in [-6, 13]: 1/zeta(2s-a-b) has a simple zero there, not a pole
DENOMINATOR_POLES = [
    (a, b, s) for a in range(-2, 9) for b in range(-2, 9) for s in range(-6, 14)
    if 2 * s - a - b == 1 and 1 not in (s, s - a, s - b, s - a - b)
]


def test_denominator_pole_is_a_zero_of_the_sum():
    assert len(DENOMINATOR_POLES) == 34
    for a, b, s in DENOMINATOR_POLES:
        plain, log = ramanujan_convolution(a, b, s), ramanujan_log_convolution(a, b, s)
        assert plain.status == log.status == "formal"
        assert plain.closed_form.is_zero() and plain.numeric == 0.0
        with mp.workdps(40):
            numer = mp.zeta(s) * mp.zeta(s - a) * mp.zeta(s - b) * mp.zeta(s - a - b)

            def ratio(x):
                return (2 * mp.zeta(x) * mp.zeta(x - a) * mp.zeta(x - b) * mp.zeta(x - a - b)
                        / mp.zeta(2 * x - a - b))

            assert abs(ratio(s + mp.mpf("1e-20"))) <= 1e-18 * max(1, abs(numer))
            ref = -mp.diff(ratio, s)
        assert float(ref) == pytest.approx(float(-4 * numer), rel=1e-12, abs=1e-80)
        assert log.numeric == pytest.approx(float(ref), rel=1e-12, abs=1e-80), (a, b, s)
        assert (log.numeric == 0.0) == (numer == 0)
