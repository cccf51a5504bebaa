import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eisenmodes.scalars import (
    GAMMA,
    LN_PI,
    PI,
    Constant,
    SymbolMonomial,
    bernoulli,
    factorize,
    ln_prime,
    log_normalize,
    zeta_even,
    zeta_odd,
    zeta_prime,
    zeta_value,
)
from eisenmodes.laurent import YLaurent
from eisenmodes.numerics import NumericEnv

ENV = NumericEnv()


def rand_constant(rng, size=3):
    symbols = [PI, GAMMA, LN_PI, ln_prime(2), ln_prime(3), zeta_odd(3), zeta_odd(5)]
    total = Constant.zero()
    for _ in range(rng.randint(1, size)):
        term = Constant.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        for _ in range(rng.randint(0, 2)):
            term = term * rng.choice(symbols)
        total = total + term
    return total


def test_zeta_even_values():
    assert zeta_even(2) == Constant.pi_power(2, Fraction(1, 6))
    assert zeta_even(4) == Constant.pi_power(4, Fraction(1, 90))
    assert zeta_even(6) == Constant.pi_power(6, Fraction(1, 945))
    assert zeta_even(8) == Constant.pi_power(8, Fraction(1, 9450))
    assert zeta_even(12) == Constant.pi_power(12, Fraction(691, 638512875))
    with pytest.raises(ValueError):
        zeta_even(3)
    with pytest.raises(ValueError):
        zeta_even(0)


def test_zeta_even_numeric_series():
    # brute-force tail check as an independent oracle
    direct = sum(1.0 / k**2 for k in range(1, 200000))
    assert abs(zeta_even(2).evaluate(ENV) - direct) < 1e-5
    assert abs(zeta_even(2).evaluate(ENV) - math.pi**2 / 6) < 1e-10


def test_zeta_value_continuation():
    assert zeta_value(0) == Constant.from_rational(Fraction(-1, 2))
    assert zeta_value(-1) == Constant.from_rational(Fraction(-1, 12))
    assert zeta_value(-2).is_zero()
    with pytest.raises(ValueError):
        zeta_value(1)


def test_log_normalize():
    assert log_normalize(1).is_zero()
    assert log_normalize(12) == ln_prime(2) * 2 + ln_prime(3)
    assert log_normalize(7) == ln_prime(7)
    with pytest.raises(ValueError):
        log_normalize(0)
    # 4 is composite; 2021 = 43 * 47 fails base 2 and 8321 = 53 * 157, a strong
    # probable prime to bases 2, 23 and 41, fails base 3;
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 is the least
    # composite that the 13-base prime test passes
    for p in (1, 4, 2021, 8321, 3317044064679887385961981):
        with pytest.raises(ValueError):
            ln_prime(p)


def test_log_normalize_additivity():
    rng = random.Random(7)
    for _ in range(40):
        a = rng.randint(1, 10**4)
        b = rng.randint(1, 10**4)
        assert log_normalize(a * b) == log_normalize(a) + log_normalize(b)


def assert_normal(c):
    """c is what the public constructor makes of its own terms: Fraction
    coefficients, none zero, and a byte-stable JSON round trip."""
    terms = c.terms()
    assert all(type(q) is Fraction and q for q in terms.values()), c
    assert all(e for m in terms for _, e in m.items()), c
    assert Constant(terms) == c
    text = json.dumps(c.to_json_obj())
    assert json.dumps(Constant.from_json_obj(c.to_json_obj()).to_json_obj()) == text


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(30):
        a, b, c = (rand_constant(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero()
        mono = Constant.pi_power(rng.randint(-3, 3), Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        results = [
            a + b, (a + b) + c, a + (b + c), a - b, (a + b) - b, a - a, -a, 3 - a,
            a * b, b * a, a * (b + c), a * b + a * c, a * mono, mono * a,
            a * 3, 3 * a, a * Fraction(-2, 7), a * 0, a / 5, a / Fraction(3, 4), a / mono,
            a ** 2, mono ** -2,
        ]
        for r in results:
            assert_normal(r)


def test_numeric_faithfulness():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_constant(rng), rand_constant(rng)
        lhs = (a * b).evaluate(ENV)
        rhs = a.evaluate(ENV) * b.evaluate(ENV)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12
        lhs = (a + b).evaluate(ENV)
        rhs = a.evaluate(ENV) + b.evaluate(ENV)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0) < 1e-12


def test_constant_division_and_powers():
    x = Constant.pi_power(3, 7)
    assert x / Constant.pi_power(2) == Constant.pi_power(1, 7)
    assert (zeta_odd(3) ** 2) / zeta_odd(3) == zeta_odd(3)
    with pytest.raises(ValueError):
        (PI + GAMMA).single_term()


@pytest.mark.parametrize("c", [
    Constant.zero(),
    Constant.from_rational(Fraction(-3, 2)),
    Constant.pi_power(-3, Fraction(-2, 7)),
    Constant.pi_power(2, Fraction(3, 5)) * zeta_odd(3) * ln_prime(2),
    PI + GAMMA + 1,
    zeta_odd(3) - Constant.pi_power(-1, 2),
])
def test_power_is_repeated_multiplication(c):
    # one-term Constants take the monomial path, the others square and multiply
    expected = Constant.one()
    for k in range(10):
        assert c ** k == expected, k
        assert_normal(c ** k)
        expected = expected * c


def test_monomial_ordering_deterministic():
    m = SymbolMonomial({("zeta", 5): 1, ("pi", None): -2, ("ln_prime", 3): 1, ("gamma", None): 1})
    assert repr(m) == "pi^-2*gamma*ln_prime(3)*zeta(5)"


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        c = rand_constant(rng)
        assert Constant.from_json_obj(c.to_json_obj()) == c


def test_latex_output():
    c = Constant.pi_power(-4, Fraction(8, 55))
    assert c.latex() == r"\frac{8}{55} \, \frac{1}{\pi^{4}}"
    assert Constant.zero().latex() == "0"


def test_bernoulli_and_factorize():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_ends_at_a_prime_cofactor():
    # a 25-digit prime below the prime test's bound: trial division would need
    # about 10^12 steps, the prime test of the cofactor ends it past 1000
    p = 3000000000000000000000007
    assert factorize(p) == ((p, 1),)
    assert factorize(6 * p) == ((2, 1), (3, 1), (p, 1))
    # a composite cofactor past 1000 is divided on, in ascending order
    assert factorize(1009 * 1013 * 1019 * 10007) == ((1009, 1), (1013, 1), (1019, 1), (10007, 1))
    assert factorize(7 ** 3 * 1009 ** 2 * p) == ((7, 3), (1009, 2), (p, 1))
    rng = random.Random(47)
    for n in [rng.randint(1, 10 ** 9) for _ in range(200)]:
        factors = factorize(n)
        assert math.prod(q ** e for q, e in factors) == n
        assert [q for q, _ in factors] == sorted({q for q, _ in factors})
        for q, _ in factors:
            ln_prime(q)  # refuses a q that is not a prime


def test_factorize_splits_a_composite_cofactor_by_rho():
    # semiprimes whose smaller factor trial division would take up to 5 * 10^9
    # steps to reach; the last mixes factors below and above the divisor 1000
    cases = {
        10000019 * 10000079: ((10000019, 1), (10000079, 1)),
        100000007 * 100000037: ((100000007, 1), (100000037, 1)),
        10000000019 * 10000000033: ((10000000019, 1), (10000000033, 1)),
        2 ** 40 * 3 ** 5 * 10000019: ((2, 40), (3, 5), (10000019, 1)),
        1009 ** 2 * 1013 ** 3: ((1009, 2), (1013, 3)),
    }
    for n, factors in cases.items():
        assert factorize(n) == factors


def test_zeta_prime_symbolic():
    c = zeta_prime(8)
    v = c.evaluate(ENV)
    assert v < 0  # zeta is decreasing at 8
    # zeta' has no value at the pole, as zeta has none at even arguments
    for symbolic, arg in ((zeta_prime, 1), (zeta_odd, 2)):
        with pytest.raises(ValueError):
            symbolic(arg)


# The memoized monomial kernel against its definitions, written here without
# a memo: the product and power merge exponent dicts, drop the zeros and sort
# by symbol; JSON lists a Constant's monomials in the order of that sort key.
_KINDS = ("pi", "gamma", "ln_pi", "ln_prime", "zeta", "zeta_prime")
_SYMBOLS = (("pi", None), ("gamma", None), ("ln_pi", None), ("ln_prime", 2), ("ln_prime", 3),
            ("ln_prime", 7), ("zeta", 3), ("zeta", 5), ("zeta_prime", -2), ("zeta_prime", 3))
_monomials = hst.dictionaries(hst.sampled_from(_SYMBOLS), hst.integers(-3, 3), max_size=5).map(
    SymbolMonomial)


def _plain_key(mono):
    return tuple(((_KINDS.index(kind), -1 if arg is None else arg), e) for (kind, arg), e in mono)


def _by_definition(exponents):
    return tuple(sorted(((s, e) for s, e in exponents.items() if e),
                        key=lambda pair: _plain_key([pair])))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(a=_monomials, b=_monomials, k=hst.integers(-3, 3))
def test_memoized_monomial_product_and_power_are_the_merge_then_sort(a, b, k):
    merged = dict(a)
    for sym, e in b:
        merged[sym] = merged.get(sym, 0) + e
    for _ in range(2):  # the first call may fill the memo, the second reads it
        assert type(a * b) is SymbolMonomial and a * b == _by_definition(merged)
        assert type(a ** k) is SymbolMonomial
        assert a ** k == _by_definition({sym: e * k for sym, e in a})
        assert a.sort_key() == _plain_key(a)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(terms=hst.dictionaries(_monomials, hst.fractions(-5, 5, max_denominator=6), max_size=6))
def test_json_orders_monomials_by_the_unmemoized_key(terms):
    c = Constant(terms)
    expected = sorted((m for m, q in terms.items() if q), key=_plain_key)
    text = lambda kind, arg: kind if arg is None else f"{kind}({arg})"
    for _ in range(2):
        assert [list(entry["monomial"].items()) for entry in c.to_json_obj()] == [
            [(text(*sym), e) for sym, e in m] for m in expected]


_numbers = hst.one_of(hst.integers(-3, 3), hst.fractions(-3, 3, max_denominator=4))
_constants = hst.one_of(_numbers.map(Constant.from_rational),
                        hst.dictionaries(_monomials, _numbers, max_size=3).map(Constant))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(c=_constants, q=_numbers, k=hst.integers(-3, 3))
def test_a_number_compares_with_a_constant_as_its_lift(c, q, k):
    # equality with an int or a Fraction compares the terms with {1: q}
    # without building a Constant, and must agree with comparing the lift
    assert (c == q) == (c == Constant.from_rational(q)) == (q == c)
    assert (c == 0) == c.is_zero()
    assert (c == 1.5) is False and (c != 1.5) is True
    p = YLaurent({(k, 0): c, (k + 1, 1): 1})
    for zero in (0, Fraction(0), Constant.zero()):
        assert p.scale(zero) == YLaurent.zero()
