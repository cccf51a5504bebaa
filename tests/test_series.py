import math
from fractions import Fraction
from functools import reduce

import pytest

from eisenmodes import series
from eisenmodes.bessel import DoubleBessel, HomBasis, Pure, SingleBessel
from eisenmodes.homogeneous import _boundary_result, _decaying_basis, choose_alpha, solve_mode
from eisenmodes.laurent import LogCapExceeded, YLaurent
from eisenmodes.numerics import NumericEnv, bessel_k, eval_expr, eval_hom_normalized
from eisenmodes.scalars import GAMMA, LN_PI, Constant, log_normalize
from eisenmodes.series import (
    AsymptoticSeries,
    _terms_below,
    hom_norm_series,
    k_atom_series,
    small_y_series,
)
from eisenmodes.sources import Normalization, Params

ENV = NumericEnv()


def _expanded(j, n, order, table=k_atom_series):
    """The atom table of K_j(2 pi |n| y) as a polynomial: each term
    pi^k y^k c u^l / den with u = log y + log pi + log|n| + gamma in Constants."""
    terms, den = table(j, n, order)
    u = YLaurent({(0, 1): 1, (0, 0): LN_PI + log_normalize(abs(n)) + GAMMA})
    out = YLaurent.zero()
    for k, lg, c in terms:
        term = YLaurent.monomial(k, Constant.pi_power(k, Fraction(c, den)))
        out = out + (term * u if lg else term)
    return out


def test_k_series_numeric_agreement():
    for j in (0, 1):
        for n in (1, 2, 3):
            approx = _expanded(j, n, 6).evaluate(ENV, 1e-3)
            direct = bessel_k(j, 2 * math.pi * n * 1e-3)
            assert abs(approx - direct) / direct < 1e-12


def test_cached_series_equal_uncached():
    # memoized kernels hand back the very series the plain function builds
    for j in (0, 1):
        for n in set(range(-5, 6)) - {0}:
            for order in range(-2, 7):
                assert k_atom_series(j, n, order) == k_atom_series.__wrapped__(j, n, order)
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


def test_k_atom_series_is_the_constant_arithmetic_oracle():
    # each pair written from the closed form, with u expanded, equals the
    # series the expansions give through powers of u and Constant division
    # (n up to 300, the sweep's frequencies, with three or more prime logs,
    # and 30030 with six)
    for j in (0, 1):
        for N in (*range(1, 61), 97, 200, 300, 30030):
            for order in range(-2, 15):
                expected = _k_log_series_oracle(j, N, order)
                for n in (N, -N):
                    assert _expanded(j, n, order, k_atom_series.__wrapped__) == expected, (j, n, order)


def test_k_atom_series_form():
    # nonzero terms (k, l, c) in increasing k over the least common
    # denominator, one u term (l = 1) per y power from y^0 on and none below,
    # and the same table for n and -n
    for j in (0, 1):
        for n in (*range(1, 13), 30, 97, 200, 300):
            for order in range(-2, 15):
                terms, den = k_atom_series.__wrapped__(j, n, order)
                ks = [k for k, _, _ in terms]
                assert ks == sorted(ks)
                assert sorted(set(ks)) == [k for k in range(-1, order) if k % 2 == j]
                assert [k for k, lg, _ in terms if lg] == [k for k in sorted(set(ks)) if k >= 0]
                assert all(c for *_, c in terms) and len(set((k, lg) for k, lg, _ in terms)) == len(terms)
                assert math.gcd(den, *(c for *_, c in terms)) == 1
                assert k_atom_series.__wrapped__(j, -n, order) == (terms, den)
    for j, n in ((2, 1), (0, 0)):
        with pytest.raises(ValueError):
            k_atom_series(j, n, 3)


def _product_below(a, b, order):
    """a * b through y^(order - 1), one whole Constant product per pair of
    terms; the pairs that land at y^order or above are not multiplied."""
    out = {}
    for (k1, j1), c1 in a.terms().items():
        for (k2, j2), c2 in b.terms().items():
            if k1 + k2 < order:
                key = (k1 + k2, j1 + j2)
                out[key] = out.get(key, Constant.zero()) + c1 * c2
    return YLaurent(out)


def _long_form_small_y_series(expr, order):
    """``small_y_series`` by the long form: every K factor from
    ``_k_log_series_oracle`` with its log(z/2) + gamma spread over its
    symbols, and the products of whole Constants per monomial pair
    (``_product_below``), each factor through y^(reach + the number of
    other factors) and the product cut at reach."""
    total = YLaurent.zero()
    for cell, q in expr.table.items():
        reach = order - min(q.support())
        factors = [_k_log_series_oracle(i, n, reach + len(expr.freqs) - 1)
                   for i, n in expr.factors(cell)]
        prod = (reduce(lambda a, b: _product_below(a, b, reach), factors) if factors
                else YLaurent.monomial(0))
        total = total + _product_below(q, prod, order)
    return total.truncate(order)


def _long_form_boundary(particular, r, n1, n2):
    """``choose_alpha``'s result from the long-form series of the particular part."""
    series = _long_form_small_y_series(particular, -r + 1)
    element = small_y_series(_decaying_basis(r, n1 + n2), -r + 1).terms
    alpha = -series.coeff(-r, 0) / element.coeff(-r)
    return _boundary_result(alpha, (series + element.scale(alpha)).terms(), r)


UNIT = Normalization.UNIT
# every mode kind (double, merged, anti-diagonal, left zero, right zero, zero
# mode) and |n| with 4, 5 and 6 distinct primes paired with a prime
ORACLE_MODES = [
    (Params(Fraction(3, 2), Fraction(7, 2), 30), n1, n2)
    for n1, n2 in ((5, -4), (4, 4), (3, -3), (0, 4), (5, 0), (0, 0), (210, 13), (2310, -7), (30030, 11))
]
# obstructed UNIT modes, each several y powers below y^(-r+1)
HEAVY_MODES = [
    (Params(Fraction(9, 2), Fraction(9, 2), 2, UNIT), -142, 58),
    (Params(Fraction(21, 2), Fraction(21, 2), 11 * 12, UNIT), 150, -149),
    (Params(Fraction(41, 2), Fraction(41, 2), 21 * 22, UNIT), 150, -149),
    (Params(Fraction(101, 2), Fraction(101, 2), 41 * 42, UNIT), 150, -149),
]


def _mode_id(case):
    params, n1, n2 = case
    return f"{params.alpha},{params.beta},r={params.r}:{n1},{n2}"


@pytest.mark.parametrize("params, n1, n2", ORACLE_MODES + HEAVY_MODES, ids=map(_mode_id, ORACLE_MODES + HEAVY_MODES))
def test_both_routes_equal_the_long_form_oracle(params, n1, n2):
    # small_y_series at every order from -r + 1 to 3, and choose_alpha's
    # alpha and obstruction, equal the long form's
    r = params.r
    particular = solve_mode(params, n1, n2).particular
    orders = range(-r + 1, 4) if (params, n1, n2) in ORACLE_MODES else (-r + 1,)
    for order in orders:
        assert small_y_series(particular, order).terms == _long_form_small_y_series(particular, order)
    expected = _long_form_boundary(particular, r, n1, n2)
    assert choose_alpha(particular.flat, r, n1, n2) == expected
    if (params, n1, n2) in HEAVY_MODES:
        assert expected[0] is None


def _terms(*pairs):
    """sum of c y^k log^j y over the (k, c, j) of `pairs`."""
    return sum((YLaurent.monomial(k, c, log_exp=j) for k, c, j in pairs), YLaurent.zero())


@pytest.mark.parametrize("expr", [
    DoubleBessel(2, 3, {(0, 0): _terms((-5, 1, 0), (-3, 2, 0)), (0, 1): _terms((-4, 3, 0)),
                        (1, 1): _terms((-6, 5, 0), (1, 7, 1))}),
    DoubleBessel(-4, 4, {(0, 0): _terms((-5, 1, 0)), (0, 1): _terms((-4, Fraction(1, 3), 0)),
                         (1, 1): _terms((-6, 5, 0))}),
    DoubleBessel(210, 11, {(0, 0): _terms((-4, Constant.pi_power(-2, 3), 0)), (1, 0): _terms((-5, 1, 0))}),
    SingleBessel(6, {0: _terms((-4, 1, 0), (-3, 2, 1)), 1: _terms((-5, 3, 1))}),
], ids=["distinct", "merged", "multi-prime", "single"])
def test_atom_products_equal_the_long_form_oracle(expr, monkeypatch):
    # cells whose terms below the order meet K_0 K_0, K_0 K_1 and K_1 K_1 at
    # y^0 and above, so that sums on u_1 u_2 (u^2 when |n1| = |n2|) are
    # left nonzero, which solved modes cancel.  small_y_series reads the
    # expression's own kept flat value, neither flattened again nor copied,
    # and multiplies out only the terms y^k with k - (its K_1 factors) <
    # order: without that cut the values are the same, so only this record
    # of the kept terms sees it dropped
    kept = []
    monkeypatch.setattr(series, "_terms_below",
                        lambda flat, order: kept.append((flat, _terms_below(flat, order))) or kept[-1][1])
    r = 3
    n1, n2 = expr.freqs if len(expr.freqs) == 2 else (0, expr.n)
    for order in range(-r, 3):
        assert small_y_series(expr, order).terms == _long_form_small_y_series(expr, order), order
        flat, cells = kept.pop()
        assert flat is expr.flat, order
        below = {}
        for (cell, k, j, e, rest), q in flat.terms.items():
            ones = sum(index for index, _ in expr.factors(cell))
            if k - ones < order:
                below.setdefault(expr.factors(cell), []).append((k, j, e, rest, q))
        assert cells == list(below.items()), order
    expected = _long_form_boundary(expr, r, n1, n2)
    assert choose_alpha(expr.flat, r, n1, n2) == expected
    assert _long_form_small_y_series(expr, -r + 1).max_log() == 2


@pytest.mark.parametrize("n1, n2", [(2, 3), (2, -2)])
def test_a_log_squared_cell_past_the_cap_raises_from_both_routes(n1, n2):
    # y^k log^2 y times a log atom is log^3 y below the order: the long form,
    # small_y_series and choose_alpha all raise; at k = order - 1 a
    # K_0 K_0 cell still meets a log atom at y^0, at k = order not
    r = 3
    for k, raises in ((-r - 2, True), (-r, True), (-r + 1, False)):
        expr = DoubleBessel(n1, n2, {(0, 0): YLaurent.monomial(k, 1, log_exp=2),
                                     (1, 0): YLaurent.monomial(-r, 5)})
        routes = (lambda: _long_form_small_y_series(expr, -r + 1),
                  lambda: small_y_series(expr, -r + 1),
                  lambda: choose_alpha(expr.flat, r, n1, n2))
        for route in routes:
            if raises:
                with pytest.raises(LogCapExceeded):
                    route()
            else:
                route()


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
                mass = (h * YLaurent.monomial(2)).scale(Constant.pi_power(2, 4 * n * n))
                image = h.diff().diff() * YLaurent.monomial(2) - h.scale(lam) - mass
                assert image.truncate(order).is_zero(), (r, n, order)
        # the anti-diagonal element y^-r carries no mass term
        power = YLaurent.monomial(-r)
        assert (power.diff().diff() * YLaurent.monomial(2) - power.scale(lam)).is_zero()


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
