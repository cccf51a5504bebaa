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
    coefficient, normal Constants, a support that matches the terms, and a
    byte-stable JSON round trip."""
    terms = p.terms()
    assert YLaurent(terms) == p
    for c in terms.values():
        assert not c.is_zero()
        assert all(type(q) is Fraction and q for q in c.terms().values())
        assert Constant(c.terms()) == c
    assert p.support() == tuple(sorted({k for k, _ in terms}))
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
            a * b, a * (b - b), (a + b) * (a - b),
            y_log_y.diff(),
            a.scale(3), a.scale(Fraction(-5, 2)), a.scale(0), a.scale(zeta_odd(3) + Constant.one()),
            a * YLaurent.monomial(rng.randint(-3, 3)), a.diff(), (a * b).diff(),
            (a * b).truncate(order), a.truncate(order), (a + b).truncate(order),
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
    assert min(s.support()) == -2 and max(s.support()) == 1
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


def test_both_rings_share_one_sparse_sum_core():
    c = Constant.pi_power(-1, Fraction(2, 3)) + GAMMA
    p = YLaurent.monomial(-2, c) + YLaurent.monomial(1, zeta_odd(3), log_exp=1)
    # the zero element, and only it, is falsy
    assert not bool(Constant.zero()) and not bool(YLaurent.zero()) and not bool(c - c)
    assert not bool(p - p) and bool(c) and bool(p) and bool(Constant.one())
    # a sum that cancels leaves no key
    assert (c + (-c)).terms() == {} and (p + (-p)).terms() == {}
    assert (c - GAMMA).terms() == Constant.pi_power(-1, Fraction(2, 3)).terms()
    assert (p - YLaurent.monomial(-2, c)).terms() == {(1, 1): zeta_odd(3)}
    # scaling by any zero gives the zero element
    for zero in (0, Fraction(0), Constant.zero()):
        assert p.scale(zero).terms() == {} and p.scale(zero) == YLaurent.zero()
        assert (c * zero).terms() == {} and c * zero == Constant.zero()
    assert c.scale(Fraction(3)) == 3 * c and p.scale(GAMMA) == p * GAMMA
    # equality across types: a Constant equals a number, a polynomial nothing else
    assert Constant.one() == 1 and Constant.zero() == 0
    assert not YLaurent.one() == 1 and YLaurent.one() != 1
    assert not YLaurent.one() == Constant.one() and YLaurent.one() != Constant.one()
    # d/dy of y^0 log y, y^3 and y^-2 log^2 y, written out by hand
    log_y = YLaurent.monomial(0, 1, log_exp=1)
    assert log_y.diff().terms() == {(-1, 0): Constant.one()}
    assert YLaurent.monomial(3, c).diff().terms() == {(2, 0): 3 * c}
    q = YLaurent.monomial(-2, c, log_exp=2)
    assert q.diff().terms() == {(-3, 2): -2 * c, (-3, 1): 2 * c}
    # two derivative terms that cancel leave no key: y log y - y gives log y
    r = YLaurent.monomial(1, 1, log_exp=1) - YLaurent.monomial(1, 1)
    assert r.diff().terms() == {(0, 1): Constant.one()}


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
@given(a=_laurents, b=_laurents)
def test_fused_mul_truncated_is_the_constant_double_loop(a, b):
    # the fused product against the reference that multiplies and adds
    # Constants pair by pair; a pair whose log powers pass the cap raises
    out, over_cap = {}, False
    for (k1, j1), c1 in a.terms().items():
        for (k2, j2), c2 in b.terms().items():
            key = (k1 + k2, j1 + j2)
            over_cap |= key[1] > LOG_CAP
            out[key] = out.get(key, Constant.zero()) + c1 * c2
    if over_cap:
        with pytest.raises(LogCapExceeded):
            a * b
        return
    product = a * b
    assert product == YLaurent(out)
    assert_normal(product)
