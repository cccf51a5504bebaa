import math
import random
from array import array
from fractions import Fraction

import mpmath as mp
import pytest

from eisenmodes.divisors import (
    convolution_partial_sums,
    ramanujan_convolution,
    ramanujan_log_convolution,
    sigma,
    sigma_float_table,
)
from eisenmodes.numerics import DEFAULT_ENV
from eisenmodes.scalars import Constant, zeta_odd, zeta_prime

PLAIN, LOG = (1.0, 0.0), (0.0, 1.0)


def partial_sum(a, b, s, weight, limit):
    """Two-sided partial sum of sigma_a sigma_b (A + B log n) / n^s up to limit."""
    ta = sigma_float_table(a, limit)
    tb = ta if a == b else sigma_float_table(b, limit)
    return convolution_partial_sums(ta, tb, s, weight, (limit,))[limit]


def test_sigma_examples():
    assert sigma(2, 4) == 21
    assert sigma(2, 2) == 5
    assert sigma(-4, 2) == Fraction(17, 16)
    assert sigma(0, 12) == 6
    assert sigma(5, 1) == 1
    with pytest.raises(ValueError):
        sigma(2, 0)
    # an int for z >= 0, a Fraction below; each the sum over the divisors
    for n in range(1, 301):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for z in range(-4, 7):
            value = sigma(z, n)
            assert type(value) is (int if z >= 0 else Fraction)
            assert value == sum(Fraction(d) ** z for d in divisors), (z, n)


def test_sigma_multiplicativity():
    rng = random.Random(23)
    for _ in range(60):
        m = rng.randint(1, 10**4)
        n = rng.randint(1, 10**4)
        if math.gcd(m, n) != 1:
            continue
        for z in (-3, 0, 2, 4):
            assert sigma(z, m * n) == sigma(z, m) * sigma(z, n)
            assert type(sigma(z, m * n)) is (int if z >= 0 else Fraction)


def _list_sieve(z, limit):
    """The divisor sieve into a list of floats, as a reference."""
    table = [0.0] * (limit + 1)
    for d in range(1, limit + 1):
        dz = float(d) ** z
        for m in range(d, limit + 1, d):
            table[m] += dz
    return table


def test_sigma_float_table_is_the_list_sieve_memoized_and_read_only():
    limit = 10**4
    for z in range(-3, 10):
        table = sigma_float_table(z, limit)
        assert table.tobytes() == array("d", _list_sieve(z, limit)).tobytes(), z
        assert sigma_float_table(z, limit) is table
    with pytest.raises(TypeError):
        table[1] = 0.0
    with pytest.raises(TypeError):
        table.obj[0] = 1  # the doubles live in immutable bytes
    assert table[1] == 1.0


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
    ps = partial_sum(0, 0, 4, PLAIN, 100000)
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
        ps = partial_sum(a, b, s, PLAIN, 100000)
        assert abs(r.numeric - ps) / abs(r.numeric) < 1e-6, (a, b, s)
        checked += 1


def test_partial_sums_round_as_a_loop_over_every_term():
    # the loop the segment walk replaced: one pass over n, each limit read as
    # it is passed, the same float operations in the same order
    def naive(ta, tb, s, weight, limits):
        A, B = weight
        out, total = {}, 0.0
        for n in range(1, max(limits) + 1):
            total += ta[n] * tb[n] * (A + B * math.log(n)) / float(n) ** s
            if n in limits:
                out[n] = 2.0 * total
        return out

    limits = (1000, 7, 100, 1000, 1, 3001, 100)  # unsorted and repeated
    for a, b, s, weight in ((2, 4, 6, (1.0, 0.0)), (3, 3, 9, (0.25, -1.5)), (0, 2, 5, (0.0, 1.0))):
        ta, tb = sigma_float_table(a, 3001), sigma_float_table(b, 3001)
        got = convolution_partial_sums(ta, tb, s, weight, limits)
        want = naive(ta, tb, s, weight, limits)
        assert list(got) == sorted(set(limits))
        assert {n: v.hex() for n, v in got.items()} == {n: v.hex() for n, v in want.items()}


def test_log_convolution():
    rl = ramanujan_log_convolution(2, 2, 8)
    psl = partial_sum(2, 2, 8, LOG, 100000)
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


def _order(k):
    """Order of the leading term of zeta at k: -1 at the pole, +1 at a trivial zero."""
    return -1 if k == 1 else int(k < 0 and k % 2 == 0)


GRID = [(a, b, s) for a in range(-2, 9) for b in range(-2, 9) for s in range(-6, 14)]


def _ratio_limit(a, b, s, log):
    """mpmath's F(s + eps), or -F'(s + eps), at 30 digits with eps = 1e-15."""
    def ratio(x):
        return (2 * mp.zeta(x) * mp.zeta(x - a) * mp.zeta(x - b) * mp.zeta(x - a - b)
                / mp.zeta(2 * x - a - b))

    with mp.workdps(30):
        x = s + mp.mpf("1e-15")
        return float(-mp.diff(ratio, x) if log else ratio(x))


def test_closed_form_is_the_leading_laurent_term():
    # F = 2 zeta(s) zeta(s-a) zeta(s-b) zeta(s-a-b) / zeta(2s-a-b) vanishes to
    # order m at s; there is no closed form only at a pole (m < 0) and where
    # -F' at m = 0 would need zeta'' or gamma of a singular factor
    none, singular = {"inf": 0, "nan": 0}, {False: [], True: []}
    for a, b, s in GRID:
        numer, denom = (s, s - a, s - b, s - a - b), 2 * s - a - b
        orders = [_order(k) for k in numer] + [_order(denom)]
        m = sum(orders[:4]) - orders[4]
        for log, fn in ((False, ramanujan_convolution), (True, ramanujan_log_convolution)):
            r = fn(a, b, s)
            assert r.status == ("convergent" if min(numer) > 1 else "formal")
            if m < 0:
                assert r.closed_form is None and r.numeric == math.inf, (a, b, s, log)
                none["inf"] += 1
            elif log and m == 0 and any(orders):
                assert r.closed_form is None and math.isnan(r.numeric), (a, b, s, log)
                none["nan"] += 1
            else:
                assert r.numeric == r.closed_form.evaluate(DEFAULT_ENV), (a, b, s, log)
                assert r.closed_form.is_zero() == (m > log), (a, b, s, log)
                if any(orders):
                    singular[log].append((a, b, s))
    assert none == {"inf": 776, "nan": 142}
    rng = random.Random(31)
    for log in (False, True):
        for a, b, s in rng.sample(singular[log], 40):
            r = (ramanujan_log_convolution if log else ramanujan_convolution)(a, b, s)
            ref = _ratio_limit(a, b, s, log)
            if r.numeric == 0.0:
                assert abs(ref) <= 1e-13, (a, b, s, log, ref)
            else:
                assert r.numeric == pytest.approx(ref, rel=1e-10), (a, b, s, log)


def test_limits_at_zero_over_zero_and_pole_times_zero():
    # zeta(-2) zeta(-6) / zeta(-2) at s = 4, a = 6, b = 4: a simple zero
    plain, log = ramanujan_convolution(6, 4, 4), ramanujan_log_convolution(6, 4, 4)
    assert plain.closed_form.is_zero() and plain.numeric == 0.0
    assert log.closed_form == Constant.pi_power(4, Fraction(1, 180)) * zeta_prime(-6)
    assert log.numeric == pytest.approx(-0.0031927231971635, rel=1e-14)
    assert log.numeric == pytest.approx(_ratio_limit(6, 4, 4, True), rel=1e-10)
    # zeta(1) zeta(-2) at s = 6, a = 3, b = 5: finite, but -F' needs zeta''(-2)
    plain, log = ramanujan_convolution(3, 5, 6), ramanujan_log_convolution(3, 5, 6)
    assert plain.closed_form == (Constant.pi_power(2, Fraction(4, 21)) * zeta_odd(3)
                                 * zeta_prime(-2))
    assert plain.numeric == pytest.approx(-0.0688067046873159, rel=1e-14)
    assert plain.numeric == pytest.approx(_ratio_limit(3, 5, 6, False), rel=1e-10)
    assert log.closed_form is None and math.isnan(log.numeric)
