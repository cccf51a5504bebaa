import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eisenmodes.laurent import LOG_CAP, LogCapExceeded, NotAMonomial, YLaurent
from eisenmodes.numerics import NumericEnv
from eisenmodes.scalars import GAMMA, LN_PI, Constant, ln_prime, zeta_odd

ENV = NumericEnv()


def assert_normal(p):
    """p is what the public constructor makes of its own terms: no zero
    coefficient, normal Constants, degrees that match the support, and a
    byte-stable JSON round trip."""
    terms = p.terms()
    assert YLaurent(terms) == p
    for c in terms.values():
        assert not c.is_zero()
        assert all(type(q) is Fraction and q for q in c.terms().values())
        assert Constant(c.terms()) == c
    support = p.support()
    assert (p.min_degree(), p.max_degree()) == ((support[0], support[-1]) if support else (0, 0))
    text = json.dumps(p.to_json_obj())
    assert json.dumps(YLaurent.from_json_obj(p.to_json_obj()).to_json_obj()) == text


def rand_laurent(rng):
    consts = [Constant.pi_power(-2, 3), zeta_odd(3), Constant.one(), Constant.pi_power(1, -1)]
    terms = {}
    for _ in range(rng.randint(0, 5)):
        c = Constant.from_rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        terms[(rng.randint(-4, 4), rng.randint(0, 1))] = c * rng.choice(consts) + rng.choice(consts)
    return YLaurent(terms)


def test_construction_normalizes():
    p = YLaurent({(2, 0): Constant.from_rational(1), (3, 0): Constant.zero()})
    assert p.support() == (2,)
    assert p.min_degree() == p.max_degree() == 2
    # every operation builds its result without re-normalising; each must
    # still leave exactly what the public constructor would
    rng = random.Random(29)
    for _ in range(60):
        a, b = rand_laurent(rng), rand_laurent(rng)
        order = rng.randint(-4, 6)
        c = a.coeff(*next(iter(a.terms()), (0, 0))) + Constant.one()
        # d/dy[c y log y - c y] = c log y: the two y^0 contributions cancel
        y_log_y = YLaurent.monomial(1, c, log_exp=1) - YLaurent.monomial(1, c)
        results = [
            YLaurent.zero(), a + b, a - b, (a + b) - b, (a + b) + (-b), a + (-a), a - a, -a,
            a * b, a * (b - b), (a + b) * (a - b), (a + b).mul_truncated(a - b, order),
            y_log_y.diff(),
            a.scale(3), a.scale(Fraction(-5, 2)), a.scale(0), a.scale(zeta_odd(3) + Constant.one()),
            a.shift(rng.randint(-3, 3)), a.diff(), (a * b).diff(),
            a.mul_truncated(b, order), a.truncate(order), (a + b).truncate(order),
        ]
        for r in results:
            assert_normal(r)


def test_log_cap_enforced():
    with pytest.raises(LogCapExceeded):
        YLaurent({(0, 3): Constant.one()})


def test_arithmetic_and_degree_tracking():
    a = YLaurent.monomial(-2, 3) + YLaurent.monomial(1, Fraction(1, 2))
    b = YLaurent.monomial(0, 5, log_exp=1)
    s = a + b
    assert s.min_degree() == -2 and s.max_degree() == 1
    prod = a * b
    assert prod.coeff(-2, 1) == Constant.from_rational(15)
    assert (a - a).is_zero()


def test_diff_product_rule_with_logs():
    # d/dy [y^k log^j] = k y^(k-1) log^j + j y^(k-1) log^(j-1)
    p = YLaurent.monomial(3, 1, log_exp=1)
    d = p.diff()
    assert d.coeff(2, 1) == Constant.from_rational(3)
    assert d.coeff(2, 0) == Constant.from_rational(1)
    # numeric cross-check at y = 0.7
    y, h = 0.7, 1e-6
    fd = (p.evaluate(ENV, y + h) - p.evaluate(ENV, y - h)) / (2 * h)
    assert abs(fd - d.evaluate(ENV, y)) < 1e-6


def test_scalars_combine_with_polynomials_by_their_own_operators():
    # a scalar of each kind on either side of + - * /, against the explicit
    # lift to a constant polynomial, the scaling and the explicit product
    p = YLaurent.monomial(-2, 3) + YLaurent.monomial(1, zeta_odd(3), log_exp=1)
    c = Constant.pi_power(-1, Fraction(2, 3))
    m = YLaurent.monomial(2, c)
    m_inverse = YLaurent.monomial(-2, Constant.pi_power(1, Fraction(3, 2)))
    assert m * m_inverse == YLaurent.one()
    for s in (5, Fraction(-7, 2), Constant.pi_power(2, 3) * GAMMA):
        lifted = YLaurent({(0, 0): s})
        assert (p + s, s + p, p - s, s - p) == (p + lifted, lifted + p, p - lifted, lifted - p), s
        assert p * s == s * p == p.scale(s), s
        assert p / s == p.scale(Fraction(1) / s), s
        assert (p / m, s / m) == (p * m_inverse, lifted * m_inverse), s
        for value in (p + s, s + p, p - s, s - p, p * s, s * p, p / s, s / m):
            assert type(value) is YLaurent and value == YLaurent(value.terms()), s
    assert m ** -2 == m_inverse * m_inverse
    assert m ** 0 == YLaurent.one() and m ** 3 == m * m * m
    # a Constant meets a polynomial's operators, not its own
    for value in (c + p, c - p, c * p, c / m):
        assert type(value) is YLaurent
    assert c / m == YLaurent.monomial(-2, 1)
    # a float is a TypeError on either ring, Python's own on a Constant
    with pytest.raises(TypeError, match="unsupported operand type"):
        c + 0.5
    for a, b in ((c, 0.5), (0.5, c), (m, 0.5), (0.5, m)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(TypeError):
                op(a, b)
    # a polynomial divides, and is raised to a power, only as one log-free term
    y, ly = YLaurent.monomial(1), YLaurent.monomial(0, 1, log_exp=1)
    for run, text in ((lambda: (y + 1) ** 2, "power of a non-monomial Laurent polynomial"),
                      (lambda: 1 / ly, "division by log terms"),
                      (lambda: y / (y + 1), "division by a non-monomial Laurent polynomial"),
                      (lambda: Fraction(1, 2) / (y + 1), "division by a non-monomial Laurent polynomial")):
        with pytest.raises(NotAMonomial) as caught:
            run()
        assert str(caught.value) == text
    with pytest.raises(ZeroDivisionError):
        y / (y - y)


def test_mul_truncated():
    a = YLaurent.monomial(0, 1) + YLaurent.monomial(2, 1)
    b = YLaurent.monomial(0, 1) + YLaurent.monomial(2, 1)
    full = a * b
    trunc = a.mul_truncated(b, order=3)
    assert full.coeff(4, 0) == Constant.one()
    assert trunc.coeff(4, 0).is_zero()
    assert trunc.coeff(2, 0) == full.coeff(2, 0)


def test_evaluate_matches_terms():
    rng = random.Random(3)
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(-3, 3), rng.randint(0, 2))] = Constant.from_rational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            )
        p = YLaurent(terms)
        y = 0.8
        import math

        direct = sum(
            float(sum(c.terms().values())) * y**k * math.log(y) ** j
            for (k, j), c in p.terms().items()
        )
        assert abs(p.evaluate(ENV, y) - direct) < 1e-12


def test_json_round_trip():
    p = YLaurent({(-1, 1): zeta_odd(3), (2, 0): Constant.pi_power(-2, 5)})
    assert YLaurent.from_json_obj(p.to_json_obj()) == p


def test_latex_contains_terms():
    p = YLaurent.monomial(-3, Constant.pi_power(-4, Fraction(126))) + YLaurent.monomial(0, 1, log_exp=1)
    text = p.latex()
    assert "y^{-3}" in text and r"\log(y)" in text


_UNITS = (Constant.one(), Constant.pi_power(-2), Constant.pi_power(3), zeta_odd(3), GAMMA,
          LN_PI * ln_prime(2), Constant.pi_power(1) * GAMMA)
_constants = hst.lists(
    hst.tuples(hst.sampled_from(_UNITS), hst.fractions(-3, 3, max_denominator=3)),
    min_size=1, max_size=4,
).map(lambda pairs: sum((unit * q for unit, q in pairs), Constant.zero()))
_laurents = hst.dictionaries(
    hst.tuples(hst.integers(-3, 3), hst.sampled_from((0, 0, 0, 1, 1, LOG_CAP))), _constants,
    min_size=1, max_size=6,
).map(YLaurent)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(a=_laurents, b=_laurents, order=hst.one_of(hst.none(), hst.integers(-8, 8)))
def test_fused_mul_truncated_is_the_constant_double_loop(a, b, order):
    # the reference multiplies and adds Constants pair by pair, then truncates;
    # a pair below the order whose log powers pass the cap raises
    out, over_cap = {}, False
    for (k1, j1), c1 in a.terms().items():
        for (k2, j2), c2 in b.terms().items():
            key = (k1 + k2, j1 + j2)
            over_cap |= key[1] > LOG_CAP and (order is None or key[0] < order)
            out[key] = out.get(key, Constant.zero()) + c1 * c2
    if over_cap:
        with pytest.raises(LogCapExceeded):
            a.mul_truncated(b, order)
        return
    expected = YLaurent({key: c for key, c in out.items() if key[1] <= LOG_CAP})
    if order is not None:
        expected = expected.truncate(order)
    product = a.mul_truncated(b, order)
    assert product == expected
    assert_normal(product)
    if order is None:
        assert a * b == expected
