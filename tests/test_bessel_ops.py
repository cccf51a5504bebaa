import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eisenmodes.bessel import (
    BesselProduct,
    DoubleBessel,
    HomBasis,
    Pure,
    SingleBessel,
    _check_log_cap,
    apply_euler,
    apply_L,
    apply_P,
    differentiate,
    expr_from_json_obj,
    expr_latex,
    expr_to_json_obj,
    k_index_table,
)
from eisenmodes.laurent import LOG_CAP, LogCapExceeded, YLaurent
from eisenmodes.numerics import (
    NumericEnv,
    bessel_k,
    eval_expr,
)
from eisenmodes.scalars import (
    GAMMA, LN_PI, PI, SYM_PI, Constant, SymbolMonomial, _symbol_key, ln_prime, zeta_odd, zeta_prime,
)

ENV = NumericEnv()


def fd_second_derivative(f, y: float, h: float = 1e-4) -> float:
    """Central second difference (5-point, O(h^4) stencil).

    The default step balances truncation against rounding noise amplified by
    h^-2; for exponentially small integrands h = 1e-5 is already
    rounding-dominated in double precision.
    """
    return (
        -f(y + 2 * h) + 16 * f(y + h) - 30 * f(y) + 16 * f(y - h) - f(y - 2 * h)
    ) / (12 * h * h)


def rand_double(rng, n1, n2, log_free=True):
    table = {}
    for cell in ((0, 0), (0, 1), (1, 0), (1, 1)):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(-4, 3), 0 if log_free else rng.randint(0, 1))] = (
                Constant.pi_power(rng.randint(-2, 2), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            )
        if terms:
            table[cell] = YLaurent(terms)
    return DoubleBessel(n1, n2, table)


# -- index reduction ---------------------------------------------------------

def _k_from_table(m: int, z, k0, k1):
    """sum_k z^-k (a[0][k] k0 + a[1][k] k1) from ``k_index_table``, in mpmath."""
    a0, a1 = k_index_table(m)
    return mp.fsum(z ** -k * (c0 * k0 + c1 * k1) for k, (c0, c1) in enumerate(zip(a0, a1)))


def test_reduce_identity_pairs():
    assert k_index_table(0) == ((1,), (0,))
    assert k_index_table(1) == ((0,), (1,))


def test_reduce_k2_and_k3():
    # K_2(z) = K_0 + 2 K_1 / z and K_3(z) = 4/z K_0 + (1 + 8/z^2) K_1
    assert k_index_table(2) == ((1, 0), (0, 2))
    assert k_index_table(3) == ((0, 4, 0), (1, 0, 8))


def test_reduce_numeric_identity():
    for m in range(7):
        for z in (0.5, 2.0, 10.0):
            approx = float(_k_from_table(m, mp.mpf(z), bessel_k(0, z), bessel_k(1, z)))
            assert abs(approx - bessel_k(m, z)) / bessel_k(m, z) <= 1e-12


def test_k_index_table_against_mpmath_at_40_digits():
    # independent of the recurrence: mpmath's besselk at 40 digits, m <= 12
    with mp.workdps(40):
        for z in (mp.mpf("0.3"), mp.mpf(1), mp.mpf("4.5"), mp.mpf(9)):
            k0, k1 = mp.besselk(0, z), mp.besselk(1, z)
            for m in range(13):
                want = mp.besselk(m, z)
                assert abs(_k_from_table(m, z, k0, k1) - want) <= mp.mpf(10) ** -36 * want, (m, z)


# -- operators ---------------------------------------------------------------

def test_apply_p_matches_printed_rule_for_k0k0():
    lam, n1, n2 = 30, 1, 2
    out = apply_P(lam, DoubleBessel(n1, n2, {(0, 0): YLaurent.one()}))
    sgn = 1
    assert out.table[(0, 0)] == (
        YLaurent.monomial(2, Constant.pi_power(2, -sgn * 8 * n1 * n2)) + YLaurent.monomial(0, -lam)
    )
    assert out.table[(0, 1)] == YLaurent.monomial(1, Constant.pi_power(1, 2 * n2))
    assert out.table[(1, 0)] == YLaurent.monomial(1, Constant.pi_power(1, 2 * n1))
    assert out.table[(1, 1)] == YLaurent.monomial(2, Constant.pi_power(2, 8 * n1 * n2))


def test_apply_p_zero_and_linearity():
    rng = random.Random(5)
    lam = 20
    zero = DoubleBessel(1, 2, {})
    assert apply_P(lam, zero).is_zero()
    for _ in range(10):
        x = rand_double(rng, 1, 2)
        yv = rand_double(rng, 1, 2)
        a = Constant.pi_power(rng.randint(-1, 1), Fraction(rng.randint(-3, 3), 2) or 1)
        lhs = apply_P(lam, x.scale(a) + yv)
        rhs = apply_P(lam, x).scale(a) + apply_P(lam, yv)
        assert (lhs - rhs).is_zero()


def test_apply_p_finite_difference_oracle():
    # apply_P output at y=1.3 vs direct finite differences on y K1 K1, (1,2), lam=30
    expr = DoubleBessel(1, 2, {(1, 1): YLaurent.monomial(1)})
    out = apply_P(30, expr)
    y = 1.3
    val = eval_expr(out, y, ENV)

    def f(t):
        return eval_expr(expr, t, ENV)

    fd = y * y * fd_second_derivative(f, y) - 30 * f(y) - 4 * math.pi**2 * 9 * y * y * f(y)
    assert abs(val - fd) / abs(fd) <= 1e-7


def _degree_window(expr):
    """The least and greatest y power over the cells of expr."""
    return (min(p.min_degree() for p in expr.table.values()),
            max(p.max_degree() for p in expr.table.values()))


def test_apply_p_degree_contract():
    rng = random.Random(9)
    for _ in range(12):
        x = rand_double(rng, 2, 3)
        if x.is_zero():
            continue
        lo, hi = _degree_window(x)
        out = apply_P(12, x)
        if out.is_zero():
            continue
        olo, ohi = _degree_window(out)
        assert olo >= lo and ohi <= hi + 2


def test_apply_l_matches_printed_rules():
    n, lam, g = 3, 12, 2
    out = apply_L(lam, SingleBessel(n, {0: YLaurent.monomial(g)}))
    assert out.table[0] == YLaurent.monomial(g, (g - 1) * g - lam)
    assert out.table[1] == YLaurent.monomial(g + 1, Constant.pi_power(1, 2 * n * (1 - 2 * g)))
    h = 1
    out = apply_L(lam, SingleBessel(n, {1: YLaurent.monomial(h)}))
    assert out.table[1] == YLaurent.monomial(h, h * h - 3 * h + 2 - lam)
    assert out.table[0] == YLaurent.monomial(h + 1, Constant.pi_power(1, 2 * n * (1 - 2 * h)))
    assert apply_L(lam, SingleBessel(n, {})).is_zero()


def test_apply_l_degree_contract_and_fd():
    expr = SingleBessel(3, {1: YLaurent.monomial(2)})
    out = apply_L(12, expr)
    assert _degree_window(out)[1] <= _degree_window(expr)[1] + 1
    y = 0.9

    def f(t):
        return eval_expr(expr, t, ENV)

    fd = y * y * fd_second_derivative(f, y) - 12 * f(y) - 4 * math.pi**2 * 9 * y * y * f(y)
    assert abs(eval_expr(out, y, ENV) - fd) / abs(fd) <= 1e-7


def test_apply_euler_examples():
    out = apply_euler(30, Pure(YLaurent.monomial(3)))
    assert out.poly == YLaurent.monomial(3, -24)
    # homogeneous degree annihilated: lam = r(r+1), r = 5
    out = apply_euler(30, Pure(YLaurent.monomial(6)))
    assert out.poly.is_zero()
    # log differentiation, checked against finite differences at y = 0.7
    p = Pure(YLaurent.monomial(1, 1, log_exp=1))
    out = apply_euler(2, p)
    y = 0.7

    def f(t):
        return p.poly.evaluate(ENV, t)

    fd = y * y * fd_second_derivative(f, y, h=1e-4) - 2 * f(y)
    assert abs(out.poly.evaluate(ENV, y) - fd) < 1e-8


# The two-pass operator the integer kernel replaced, kept as its oracle.


def _reference_differentiate(expr):
    """Exact d/dy on any expression kind."""
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot differentiate {type(expr).__name__}")
    table = {}

    def add(cell, poly):
        table[cell] = table[cell] + poly if cell in table else poly

    for cell, q in expr.table.items():
        add(cell, q.diff())
        for pos, (index, abs_n) in enumerate(expr.factors(cell)):
            add(expr.replace_index(cell, pos, 1 - index), q.scale(PI * (-2 * abs_n)))
            if index == 1:
                add(cell, -q.shift(-1))
    return expr.with_table(table)


def _reference_mode_operator(lam, expr):
    """-4 pi^2 (sum of freqs)^2 y^2 + y^2 d^2/dy^2 - lam on a Bessel product.

    For double-Bessel modes (n1 + n2)^2 = (|n1| + sgn(n1 n2) |n2|)^2; on
    ``Pure`` the sum of no frequencies is 0, which leaves the Euler operator.
    """
    _check_log_cap(expr)
    mass = sum(expr.freqs)
    d2 = _reference_differentiate(_reference_differentiate(expr))
    out = (d2 - expr.scale(PI * PI * (4 * mass * mass))).map_cells(lambda p: p.shift(2))
    return out - expr.scale(lam)


# same sign, opposite sign, merged |n1| = |n2|, anti-diagonal, large
# frequencies, single-Bessel and Bessel-free
KERNEL_SHAPES = [
    DoubleBessel(2, 5), DoubleBessel(-1, -3), DoubleBessel(3, -7), DoubleBessel(4, 4),
    DoubleBessel(-6, -6), DoubleBessel(-3, 3), DoubleBessel(150, -149),
    SingleBessel(1), SingleBessel(-4), Pure(YLaurent.zero()),
]
KERNEL_MONOMIALS = [
    Constant.one(), PI, PI**-3, PI**6, zeta_odd(3), zeta_odd(3) * PI**2, zeta_odd(5) ** -1,
    ln_prime(2), ln_prime(3) * zeta_odd(3), zeta_prime(2), zeta_prime(-1) * PI**-1, LN_PI, GAMMA,
]
_OPERATOR = {DoubleBessel: apply_P, SingleBessel: apply_L, Pure: apply_euler}
_denominators = hst.one_of(hst.integers(0, 200).map(lambda e: 2**e), hst.integers(1, 2**200))
_constants = hst.lists(
    hst.tuples(hst.sampled_from(KERNEL_MONOMIALS), hst.integers(-2**70, 2**70), _denominators),
    min_size=1, max_size=4,
).map(lambda ts: sum((m * Fraction(a, b) for m, a, b in ts), Constant.zero()))


_polys = hst.dictionaries(
    hst.tuples(hst.integers(-7, 7), hst.integers(0, LOG_CAP)), _constants, max_size=4,
).map(YLaurent)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda e: f"{type(e).__name__}{e.freqs}")
@given(table=hst.dictionaries(hst.integers(0, 3), _polys, min_size=1), lam=hst.integers(0, 72))
def test_operators_match_the_two_pass_reference(shape, table, lam):
    # exact equality with the two-pass code on every expression kind, with
    # many-monomial coefficients over denominators up to 2^200; d/dy takes
    # log powers up to LOG_CAP, the mode operators the terms below it
    cells = {DoubleBessel: [(0, 0), (0, 1), (1, 0), (1, 1)], SingleBessel: [0, 1], Pure: [()]}
    cells = cells[type(shape)]
    expr = shape.with_table({cells[i % len(cells)]: p for i, p in table.items()})
    assert differentiate(expr) == _reference_differentiate(expr)
    expr = expr.map_cells(
        lambda p: YLaurent({kj: c for kj, c in p.terms().items() if kj[1] < LOG_CAP}))
    assert _OPERATOR[type(shape)](lam, expr) == _reference_mode_operator(lam, expr)


_KERNEL_SYMBOLS = sorted({s for c in KERNEL_MONOMIALS for m in c.terms() for s, _ in m.items()},
                         key=_symbol_key)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda e: f"{type(e).__name__}{e.freqs}")
@given(
    table=hst.dictionaries(hst.integers(0, 3), _polys),
    other=hst.dictionaries(hst.integers(0, 3), _polys),
    how=hst.sampled_from(["drawn", "rebuilt", "transposed"]),
    zero_cell=hst.integers(0, 3),
    exponents=hst.permutations(_KERNEL_SYMBOLS).flatmap(
        lambda syms: hst.lists(hst.integers(-3, 3), min_size=len(syms), max_size=len(syms))
        .map(lambda es: list(zip(syms, es)))),
)
def test_canonical_forms_compare_equal_exactly_when_the_difference_is_zero(
        shape, table, other, how, zero_cell, exponents):
    # the solver's rechecks test image == rhs: that is as strong as
    # (image - rhs).is_zero() because every expression is stored in one form
    # (merged cells folded, no zero cell or coefficient, monomials sorted)
    cells = {DoubleBessel: [(0, 0), (0, 1), (1, 0), (1, 1)], SingleBessel: [0, 1], Pure: [()]}
    cells = cells[type(shape)]
    a_table = {cells[i % len(cells)]: p for i, p in table.items()}
    a = shape.with_table(a_table)
    o = shape.with_table({cells[i % len(cells)]: p for i, p in other.items()})
    if how == "drawn":
        b = o
    elif how == "rebuilt":
        b = (a - o) + o
    else:  # (0, 1) <-> (1, 0): the same expression where |n1| = |n2|, else another
        flip = {DoubleBessel: lambda c: c[::-1], SingleBessel: lambda c: 1 - c, Pure: lambda c: c}
        b_table = {flip[type(shape)](c): p for c, p in a_table.items()}
        b_table.setdefault(cells[zero_cell % len(cells)], YLaurent.zero())
        b = shape.with_table(b_table)
    assert (a == b) == (a - b).is_zero() == (b - a).is_zero()
    if how == "rebuilt" or (how == "transposed" and getattr(shape, "merged", False)):
        assert a == b  # the same expression, built another way
    zero = cells[zero_cell % len(cells)]
    if zero not in a_table:
        assert a.with_table({**a_table, zero: YLaurent.zero()}) == a

    # a monomial is its sorted pairs, whatever order and zero exponents it is built from
    nonzero = sorted(((s, e) for s, e in exponents if e), key=lambda se: _symbol_key(se[0]))
    built = [SymbolMonomial(exponents), SymbolMonomial(dict(exponents)),
             SymbolMonomial(reversed(exponents)), SymbolMonomial(nonzero)]
    text = "*".join((k if x is None else f"{k}({x})") + (f"^{e}" if e != 1 else "")
                    for (k, x), e in nonzero) or "1"
    for m in built:
        assert m == built[0] and hash(m) == hash(tuple(nonzero))
        assert m.sort_key() == tuple((_symbol_key(s), e) for s, e in nonzero)
        assert m.pi_exponent() == dict(exponents).get(SYM_PI, 0)
        assert repr(m) == text and m.is_one() == (not nonzero)
    assert Constant({built[0]: 1}) == Constant({built[2]: 1})


def _euler_closed_form(lam, m):
    """The Euler operator written out on the polynomial, as a reference."""
    return Pure(m.diff().diff().shift(2) - m.scale(lam))


@pytest.mark.parametrize("lam", [2, 6, 12, 20, 30, 31])
def test_apply_euler_is_the_mode_operator_with_no_factors(lam):
    coeff = Constant.pi_power(3, Fraction(-5, 7))
    inputs = [YLaurent.monomial(k, coeff, log_exp=j) for k in range(-8, 9) for j in (0, 1)]
    inputs.append(sum(inputs, YLaurent.zero()))
    inputs.append(YLaurent.zero())
    for m in inputs:
        out = apply_euler(lam, Pure(m))
        assert out == _euler_closed_form(lam, m), (lam, m)
    with pytest.raises(LogCapExceeded):
        apply_euler(lam, Pure(YLaurent.monomial(3, coeff, log_exp=2)))


def test_pure_is_the_empty_bessel_product():
    m = YLaurent.monomial(-2, 3) + YLaurent.monomial(1, 1, log_exp=1)
    p = Pure(m)
    assert isinstance(p, BesselProduct)
    assert p.freqs == () and p.factors(()) == ()
    assert p.table == {(): m} and Pure(YLaurent.zero()).table == {}
    assert p.with_table({}) == Pure(YLaurent.zero()) and p.map_cells(lambda q: q) == p
    assert (p + p - p.scale(2)).is_zero() and _degree_window(p) == (-2, 1)
    assert eval_expr(p, 0.7, ENV) == m.evaluate(ENV, 0.7)


def test_log_cap_rejection():
    p = Pure(YLaurent({(0, 2): Constant.one()}))  # log^2 at LOG_CAP
    with pytest.raises(LogCapExceeded):
        apply_euler(2, p)


def test_merged_table_folds_cells():
    e = DoubleBessel(2, -2, {(0, 1): YLaurent.one(), (1, 0): YLaurent.monomial(0, 2)})
    assert sorted(e.table) == [(0, 1)]
    assert e.table[(0, 1)] == YLaurent.monomial(0, 3)
    out = apply_P(30, e)
    assert (1, 0) not in out.table


def test_expr_json_round_trip_and_latex():
    rng = random.Random(21)
    x = rand_double(rng, 1, 3)
    assert expr_from_json_obj(expr_to_json_obj(x)) == x
    s = SingleBessel(2, {0: YLaurent.monomial(-1, Constant.pi_power(-1, 3))})
    assert expr_from_json_obj(expr_to_json_obj(s)) == s
    assert "K_{0}" in expr_latex(s)


def test_hom_basis_validation():
    with pytest.raises(ValueError):
        HomBasis("K", 3, 0)
    with pytest.raises(ValueError):
        HomBasis("weird", 3, 1)
    b = HomBasis("power_neg", 5)
    assert "y^-5" in b.describe()


def test_operator_images_are_pi_graded():
    # The exact solver eliminates over Q because the image of y^k (times a
    # Bessel cell) at y^p is always rational * pi^(p-k).  Check that over every
    # unit-monomial column of the windows derived from the sources, both parity
    # classes included, independently of the solver.
    from eisenmodes.bessel import FlatExpr
    from eisenmodes.scalars import SYM_PI, SymbolMonomial
    from eisenmodes.solver import _source_window
    from eisenmodes.sources import Normalization, Params, source_term

    weights = [Fraction(w, 2) for w in (3, 5, 7, 9)]
    # same sign, opposite, merged, anti-diagonal, then single-Bessel
    pairs = [(2, 5), (3, -7), (4, 4), (-3, 3), (0, 2), (5, 0)]
    checked = set()
    violations = []

    def check(lam, expr, cell, k):
        image = apply_P(lam, expr) if isinstance(expr, DoubleBessel) else apply_L(lam, expr)
        for ocell, poly in image.table.items():
            for (p, j), const in poly.terms().items():
                if j != 0 or const.terms().keys() != {SymbolMonomial({SYM_PI: p - k})}:
                    violations.append((lam, cell, k, ocell, p, const))

    for r in range(1, 9):
        lam = r * (r + 1)
        for a in weights:
            for b in weights:
                if a > b:
                    continue
                params = Params(a, b, lam, Normalization.UNIT)
                for n1, n2 in pairs:
                    core = source_term(params, n1, n2).core
                    cells = (0, 1) if isinstance(core, SingleBessel) else {
                        core.fold((i, j)) for i in (0, 1) for j in (0, 1)}
                    for cell in cells:
                        m, M = _source_window(r, FlatExpr.of(core))
                        for k in range(m, M + 1):
                            if (lam, core.freqs, cell, k) not in checked:
                                checked.add((lam, core.freqs, cell, k))
                                check(lam, core.with_table({cell: YLaurent.monomial(k)}), cell, k)
    assert len(checked) > 1000
    assert not violations, violations[:5]


class _Captured(Exception):
    pass


def solver_columns(lam, expr, ks):
    """{(cell, k): {(target, p): int}}: the columns the solver assembles for
    y^k times each (folded) cell of expr's kind, k in ks, both parity classes.

    Each solve gets the window [min(ks), max(ks)] on every cell and a one-term
    source of one parity class; its system is captured, as it reaches
    ``solver._recurrence``, and transposed.
    """
    from unittest import mock

    from eisenmodes import solver
    from eisenmodes.sources import Normalization, Params

    columns = {}

    def capture(system, rhs_rows, scales, col_order, row_order):
        columns.update(columns_of(system, col_order))
        raise _Captured

    params = Params(Fraction(3, 2), Fraction(3, 2), lam, Normalization.UNIT)
    solve, cell = ((solver.solve_particular_single, 0) if isinstance(expr, SingleBessel)
                   else (solver.solve_particular_double, (0, 0)))
    window = (min(ks), max(ks))
    with mock.patch.object(solver, "_recurrence", capture), \
            mock.patch.object(solver, "_source_window", lambda r, rhs: window):
        for parity in (0, 1):
            with pytest.raises(_Captured):
                solve(params, expr.with_table({cell: YLaurent.monomial(parity)}))
    return columns


def columns_of(system, col_order):
    """A row-major system {row: {u: int}} as its columns {col_order[u]: {row: int}}."""
    columns = {col: {} for col in col_order}
    for row, entries in system.items():
        for u, q in entries.items():
            columns[col_order[u]][row] = q
    return columns


def operator_column(lam, expr, cell, k):
    """The apply_P / apply_L image of y^k times `cell` of expr's kind, as
    {(target, p, log power): Constant}."""
    operator = apply_L if isinstance(expr, SingleBessel) else apply_P
    image = operator(lam, expr.with_table({cell: YLaurent.monomial(k)}))
    return {(target, p, j): const
            for target, poly in image.table.items() for (p, j), const in poly.terms().items()}


def pi_restored(column, k):
    """A pi-free column of y^k with pi^(p - k) restored at each y^p."""
    return {(c, p, 0): Constant.pi_power(p - k, q) for (c, p), q in column.items()}


def test_solver_columns_match_symbolic_operator():
    # The solver assembles its columns from the pi-free stencil; restoring
    # pi^(p-k) at y^p must give the symbolic apply_P / apply_L image of the
    # unit monomial, over the whole grid and for every (folded) cell.
    exprs = [DoubleBessel(n1, n2) for n1, n2 in [(2, 5), (3, -7), (4, 4), (-3, 3), (150, -149)]]
    exprs += [SingleBessel(2), SingleBessel(-5)]
    checked = 0
    mismatches = []
    for lam in (2, 6, 12, 20, 30):
        for expr in exprs:
            for (cell, k), column in solver_columns(lam, expr, range(-8, 6)).items():
                checked += 1
                if pi_restored(column, k) != operator_column(lam, expr, cell, k):
                    mismatches.append((lam, expr.freqs, cell, k))
    assert checked == 1540
    assert not mismatches, mismatches[:5]


_signed_freq = hst.integers(1, 300).flatmap(lambda n: hst.sampled_from([n, -n]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    r=hst.integers(1, 8),
    n1=_signed_freq,
    n2=_signed_freq,
    shape=hst.sampled_from(["double", "merged", "single"]),
)
def test_solver_column_closed_form_is_the_symbolic_operator(r, n1, n2, shape):
    # the solver's columns with pi^(p-k) restored at y^p are the apply_P /
    # apply_L image of y^k times the cell, on every (folded) cell and k in
    # [-12, 12], merged (|n1| = |n2|) and single-Bessel modes included
    lam = r * (r + 1)
    if shape == "single":
        expr, cells = SingleBessel(n1), [0, 1]
    else:
        expr = DoubleBessel(n1, n2 if shape == "double" else (abs(n1) if n2 > 0 else -abs(n1)))
        cells = sorted({expr.fold((i, j)) for i in (0, 1) for j in (0, 1)})
    columns = solver_columns(lam, expr, range(-12, 13))
    assert sorted(columns) == sorted((cell, k) for cell in cells for k in range(-12, 13))
    for (cell, k), column in columns.items():
        assert pi_restored(column, k) == operator_column(lam, expr, cell, k), (cell, k)
