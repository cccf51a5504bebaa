import json
import random
from fractions import Fraction

import pytest

from eisenmodes.laurent import LogCapExceeded, YLaurent
from eisenmodes.numerics import NumericEnv
from eisenmodes.scalars import Constant, zeta_odd

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
