import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from eisenmodes.bessel import DoubleBessel, HomBasis
from eisenmodes.divisors import sigma
from eisenmodes.homogeneous import (
    T_MINUS_2_WEIGHTS,
    _element_leading,
    _log_spaced,
    alpha_decay_scan,
    assemble_mode,
    boundary_reference,
    choose_alpha,
    combine,
    evaluate_high_precision,
    mode_solution_from_json_obj,
    solve_mode,
    zero_mode_alpha_sum,
)
from eisenmodes.laurent import LogCapExceeded, YLaurent
from eisenmodes.numerics import NumericEnv, eval_expr, eval_hom_normalized
from eisenmodes.scalars import (
    GAMMA,
    LN_PI,
    PI,
    SYM_GAMMA,
    SYM_LN_PI,
    Constant,
    SymbolMonomial,
    ln_prime,
    log_normalize,
    zeta_odd,
)
from eisenmodes.solver import NoSolutionInWindow
from eisenmodes.series import hom_norm_series, small_y_series
from eisenmodes.sources import Normalization, Params, classify_params

ENV = NumericEnv()
F = Fraction


def test_anti_diagonal_alpha_closed_form():
    p = Params(F(3, 2), F(3, 2), 30)
    for n2 in (1, 2, 3):
        m = solve_mode(p, -n2, n2)
        expected = Constant.pi_power(
            -4, F(8, 55) * F(sigma(2, n2)) ** 2 / F(n2) ** 8
        )
        assert m.alpha == expected
        assert m.hom_basis.kind == "power_neg"
        assert m.obstruction is None


# UNIT families inside the conjectured set: alpha <= beta in {3/2..11/2},
# r <= 20, alpha + beta + r even and |alpha - beta| < r
SHAPE_WEIGHTS = [F(k, 2) for k in (3, 5, 7, 9, 11)]
SHAPE_FAMILIES = [(a, b, r) for a in SHAPE_WEIGHTS for b in SHAPE_WEIGHTS if a <= b
                  for r in range(1, 21) if (a + b + r) % 2 == 0 and abs(a - b) < r]
LOG_KINDS = ("gamma", "ln_pi", "ln_prime", "zeta_prime")


def _factor_of(c: Constant, symbol) -> Constant:
    """The Constant multiplying the first power of symbol in c."""
    return Constant({SymbolMonomial([(s, e) for s, e in mono if s != symbol]): q
                     for mono, q in c.terms().items() if (symbol, 1) in mono})


def _valuation(p: int, m: int) -> int:
    k = 0
    while m % p == 0:
        m, k = m // p, k + 1
    return k


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(hst.sampled_from(SHAPE_FAMILIES), hst.integers(1, 60), hst.integers(1, 60),
       hst.sampled_from((1, -1)), hst.sampled_from((1, -1)))
def test_the_log_part_of_alpha_is_one_log_of_n1_over_n2(family, m1, m2, s1, s2):
    """alpha = A + B log(|n1|/|n2|), A and B log-free, at both sign kinds.

    No gamma, log pi, zeta' or product of logs appears, and each ln_prime(p)
    has B (v_p(n1) - v_p(n2)).  An obstructed mode has no alpha: the
    secondary alpha, which still cancels its log-free y^-r piece, is
    A + c1 l(n1) + c2 l(n2) with l(n) = log(pi e^gamma |n|) and c1 + c2 != 0.
    So it carries gamma + log pi, and is not of the first shape.
    """
    assume(m1 != m2)  # no anti-diagonal, merged or |n1| = |n2| mode
    (a, b, r), n1, n2 = family, s1 * m1, s2 * m2
    mode = solve_mode(Params(a, b, r * (r + 1), UNIT), n1, n2)
    alpha = mode.alpha if mode.obstruction is None else mode.obstruction.secondary_alpha
    logs = [[s for s, _ in mono if s[0] in LOG_KINDS] for mono in alpha.terms()]
    assert all(len(s) <= 1 for s in logs) and not any(s and s[0][0] == "zeta_prime" for s in logs)
    assert all((s, 1) in mono for mono in alpha.terms() for s in mono if s[0] in LOG_KINDS)
    free = Constant({mono: q for mono, q in alpha.terms().items()
                     if not any(s[0] in LOG_KINDS for s, _ in mono)})
    g = _factor_of(alpha, SYM_GAMMA)
    assert g == _factor_of(alpha, SYM_LN_PI) and (mode.obstruction is None) == g.is_zero()
    # c1 from a prime of unequal valuations, and c2 = g - c1
    p, v1, v2 = next((p, e1, e2) for p in range(2, 60)
                     if (e1 := _valuation(p, m1)) != (e2 := _valuation(p, m2)))
    c1 = (_factor_of(alpha, ("ln_prime", p)) - g * v2) / (v1 - v2)
    ell = [log_normalize(m) + GAMMA + LN_PI for m in (m1, m2)]
    assert alpha == free + c1 * ell[0] + (g - c1) * ell[1]


def test_alpha_zero_when_already_decaying():
    # a particular expression already o(y^{-r}) needs no homogeneous part
    from eisenmodes.bessel import DoubleBessel
    from eisenmodes.laurent import YLaurent

    expr = DoubleBessel(1, 2, {(1, 1): YLaurent.monomial(6)})
    alpha, obs = choose_alpha(expr, 5, 1, 2)
    assert obs is None and alpha.is_zero()


UNIT = Normalization.UNIT
BOUNDARY_FAMILIES = [
    # worked-table families
    Params(F(3, 2), F(3, 2), 30), Params(F(3, 2), F(5, 2), 20), Params(F(5, 2), F(5, 2), 12),
    Params(F(3, 2), F(7, 2), 30),
    # sweep-range families up to r = 8, the last three with the largest coefficients
    Params(F(5, 2), F(7, 2), 42, UNIT), Params(F(9, 2), F(9, 2), 56, UNIT),
    Params(F(7, 2), F(9, 2), 72, UNIT), Params(F(3, 2), F(9, 2), 72, UNIT),
    Params(F(9, 2), F(3, 2), 72, UNIT),
    # obstructed at lambda = 2 (r = 1); the last two are outside the solvable set,
    # and their generic modes, among others, have no solution in the ansatz
    Params(F(5, 2), F(5, 2), 2, UNIT), Params(F(3, 2), F(9, 2), 2, UNIT),
    Params(F(3, 2), F(7, 2), 2, UNIT),
]
BOUNDARY_MONOMIALS = [Constant.one(), PI**2, PI**-3, zeta_odd(3), GAMMA, LN_PI, ln_prime(2),
                      ln_prime(3) * PI]


@hst.composite
def _boundary_cases(draw):
    """(params, n1, n2): a generic mode, n1 = 0, n2 = 0, anti-diagonal or merged."""
    params = draw(hst.sampled_from(BOUNDARY_FAMILIES))
    n = draw(hst.integers(1, 300)) * draw(hst.sampled_from((1, -1)))
    kind = draw(hst.sampled_from(("generic", "n1_zero", "n2_zero", "anti_diagonal", "merged")))
    if kind == "generic":
        m = draw(hst.integers(1, 299))
        return params, n, (m + (m >= abs(n))) * draw(hst.sampled_from((1, -1)))
    return params, *{"n1_zero": (0, n), "n2_zero": (n, 0), "anti_diagonal": (-n, n),
                     "merged": (n, n)}[kind]


_extra_terms = hst.one_of(hst.just({}), hst.dictionaries(
    hst.tuples(hst.integers(0, 3), hst.integers(-3, 3), hst.integers(0, 1)),
    hst.tuples(hst.sampled_from(BOUNDARY_MONOMIALS), hst.integers(-10**6, 10**6),
               hst.integers(1, 10**4)),
    max_size=4,
))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_boundary_cases(), extra=_extra_terms)
@example(case=(Params(F(3, 2), F(3, 2), 30), -40, 41), extra={})
@example(case=(Params(F(7, 2), F(9, 2), 72, UNIT), 257, 283), extra={})
@example(case=(Params(F(3, 2), F(9, 2), 72, UNIT), 283, 257), extra={})
@example(case=(Params(F(9, 2), F(3, 2), 72, UNIT), -251, -299), extra={})
@example(case=(Params(F(3, 2), F(3, 2), 30), -40, 41), extra={(3, 2, 0): (PI, 3, 7)})
@example(case=(Params(F(3, 2), F(3, 2), 30), -40, 41), extra={(3, 3, 1): (GAMMA, 5, 1)})
@example(case=(Params(F(9, 2), F(9, 2), 2, UNIT), -142, 58), extra={})
def test_choose_alpha_matches_the_constant_series_reference(case, extra):
    # choose_alpha gives the alpha, leading terms, secondary alpha and
    # message of boundary_reference (Constant division by the element's full
    # series, the leftover found by sum and truncation), on solved
    # particular parts of every mode kind and on the same parts plus drawn
    # terms around y^{-r} (cell, y^{-r+k} log^j, coefficient); both raise
    # past the log cap.  (-40, 41) of (3/2, 3/2, 30) is wrong when the first
    # K factor is truncated.  At the edge of the integer route's filter, a
    # (1,1)-cell term at y^{-r+2} reaches y^{-r} through K_1 K_1's y^-2 and
    # one at y^{-r+3} reaches no lower than y^{-r+1}; (9/2, 9/2, r = 1) at
    # (-142, 58) is obstructed down to y^-7, reach 5 below y^{-r+1}
    params, n1, n2 = case
    try:
        particular = solve_mode(params, n1, n2).particular
    except NoSolutionInWindow:
        assume(False)
    r = params.r
    cells = sorted(particular.table)
    added = {}
    for (cell, k, j), (mono, num, den) in extra.items():
        key = cells[cell % len(cells)]
        added[key] = added.get(key, YLaurent.zero()) + YLaurent.monomial(
            -r + k, mono * F(num, den), log_exp=j)
    particular = particular + particular.with_table(added)
    try:
        expected = boundary_reference(particular, r, n1, n2)
    except LogCapExceeded:
        with pytest.raises(LogCapExceeded):
            choose_alpha(particular, r, n1, n2)
        return
    assert choose_alpha(particular, r, n1, n2) == expected


def test_closed_form_element_coefficient_is_the_series_one():
    # the y^{-r} coefficient choose_alpha divides by, (2r)!/(r! (4|n|)^r)
    # pi^{-r}, is the one small_y_series reads off the decaying element
    for r in range(1, 13):
        for n in (1, -1, 2, 7, 300):
            num, den, e = _element_leading(r, n)
            series = small_y_series(HomBasis("K", r, n), -r + 1)
            assert Constant.pi_power(e, F(num, den)) == series.coeff(-r), (r, n)
        assert _element_leading(r, 0) == (1, 1, 0)
        assert small_y_series(HomBasis("power_neg", r), -r + 1).coeff(-r) == Constant.one()


def test_series_cancellation_and_behavioral_bound():
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 1, 2)
    r, y = 5, 1e-3
    series = small_y_series(m.particular, 1)
    total = series.terms + hom_norm_series(r, 3, 1).scale(m.alpha)
    assert total.coeff(-r, 0).is_zero() and total.coeff(-r, 1).is_zero()
    # first surviving order bounds the numeric value
    next_k = min((k for (k, j), _ in total.terms().items() if k > -r), default=None)
    mag = sum(
        abs(total.coeff(next_k, j).evaluate(ENV)) * abs(math.log(y)) ** j for j in (0, 1, 2)
    )
    val = eval_expr(m.particular, y, ENV) + m.alpha.evaluate(ENV) * eval_hom_normalized(
        m.hom_basis, y
    )
    assert abs(val * y**r) <= 10 * mag * y ** (next_k + r)


def test_alpha_uniqueness_perturbation():
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 1, 2)
    r, y = 5, 1e-3
    good = eval_expr(m.particular, y, ENV) + m.alpha.evaluate(ENV) * eval_hom_normalized(
        m.hom_basis, y
    )
    bad = good + 1.0 * eval_hom_normalized(m.hom_basis, y)
    assert abs(bad * y**r) > 1e4 * abs(good * y**r)


def test_exchange_symmetry():
    p = Params(F(3, 2), F(3, 2), 30)
    assert solve_mode(p, 1, 2).alpha == solve_mode(p, 2, 1).alpha


def _solved_or_none(params, n1, n2):
    try:
        return solve_mode(params, n1, n2)
    except NoSolutionInWindow:
        return None


def _transposed(cells, expr):
    """`cells` keyed by each double cell (i, j) read as (j, i), folded as
    `expr` folds its cells; single and pure cells stay."""
    if not isinstance(expr, DoubleBessel):
        return cells
    return {expr.fold(cell[::-1]): value for cell, value in cells.items()}


def _obstruction_terms(mode):
    obs = mode.obstruction
    return None if obs is None else (obs.leading, obs.secondary_alpha)


_SWEEP_WEIGHTS = hst.sampled_from([F(3, 2), F(5, 2), F(7, 2), F(9, 2)])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(alpha=_SWEEP_WEIGHTS, beta=_SWEEP_WEIGHTS, r=hst.integers(1, 8),
       n1=hst.integers(-40, 40), n2=hst.integers(-40, 40))
# merged modes, the anti-diagonal ones above all, which the draws seldom meet
@example(alpha=F(3, 2), beta=F(5, 2), r=4, n1=7, n2=-7)
@example(alpha=F(3, 2), beta=F(7, 2), r=6, n1=-5, n2=-5)
@example(alpha=F(5, 2), beta=F(9, 2), r=2, n1=3, n2=3)
@example(alpha=F(9, 2), beta=F(9, 2), r=8, n1=40, n2=-40)
def test_a_mode_and_its_symmetry_images_solve_alike(alpha, beta, r, n1, n2):
    # the mode equation is invariant under (n1, n2) -> (-n1, -n2) and under
    # (alpha, beta, n1, n2) -> (beta, alpha, n2, n1), the latter with the
    # double cells transposed: the three solves agree, or all three fail
    lam = r * (r + 1)
    mode = _solved_or_none(Params(alpha, beta, lam, UNIT), n1, n2)
    negated = _solved_or_none(Params(alpha, beta, lam, UNIT), -n1, -n2)
    swapped = _solved_or_none(Params(beta, alpha, lam, UNIT), n2, n1)
    assert (mode is None) == (negated is None) == (swapped is None)
    if mode is None:
        return
    assert negated.particular.table == mode.particular.table
    assert swapped.particular.table == _transposed(mode.particular.table, swapped.particular)
    for image in (negated, swapped):
        assert image.alpha == mode.alpha
        assert _obstruction_terms(image) == _obstruction_terms(mode)
    if mode.report is None:  # the zero mode
        return
    # the swap turns left_zero into right_zero, so only the negation keeps the case
    assert negated.case == mode.case
    for image in (negated, swapped):
        assert (image.report.num_unknowns, image.report.num_equations) == (
            mode.report.num_unknowns, mode.report.num_equations)


def test_lambda2_obstruction_matches_worked_solution():
    p = Params(F(3, 2), F(3, 2), 2)
    m = solve_mode(p, 1, -1)
    assert m.obstruction is not None
    assert any(k == -1 and j == 1 for k, j, _ in m.obstruction.leading)
    # the log-free y^{-1} piece is still cancelled.  The worked asymptotic
    # expansion carries (6 log(pi n) + 6 log y + 6 gamma + 5)/9; the displayed
    # alpha flips the +5 to -5, which high-precision evaluation of the
    # particular solution rules out (the +5 branch is correct).
    expected = Constant.from_rational(F(-8, 9)) * (
        GAMMA * 6 + LN_PI * 6 + log_normalize(1) * 6 + 5
    )
    assert m.obstruction.secondary_alpha == expected


def test_lambda2_nonzero_mode_obstruction_and_alpha():
    # generic lambda = 2 modes: log(y)/y cannot be removed; the log-free part
    # matches the worked closed form
    p = Params(F(3, 2), F(3, 2), 2)
    m = solve_mode(p, 1, 2)
    assert m.obstruction is not None
    n1, n2 = 1, 2
    logpart = (
        Constant.from_rational(F(n1**3 + 3 * n1**2 * n2, (n1 + n2) ** 3)) * log_normalize(n1)
        + Constant.from_rational(F(3 * n1 * n2**2 + n2**3, (n1 + n2) ** 3)) * log_normalize(n2)
    )
    # the worked closed form carries -40 pi (gamma + log pi + logpart) in the
    # normalized basis; the true log-free coefficient additionally carries a
    # rational +160 pi/9 that the worked small-y display omits (confirmed by
    # high-precision evaluation of the particular solution).
    expected = Constant.pi_power(1, F(160, 9)) + Constant.pi_power(1, -40) * (
        GAMMA + LN_PI + logpart
    )
    assert m.obstruction.secondary_alpha == expected


def test_assemble_mode_partial_sums_and_flags():
    p = Params(F(3, 2), F(3, 2), 30)
    asm = assemble_mode(p, 1, 2, decay=False)
    assert [m.n1 for m in asm.modes] == [-2, -1, 0, 1, 2]
    assert not asm.obstructed
    # partial sums accumulate normalized-basis alphas of the same K_{11/2}(2 pi y) element
    total = Constant.zero()
    for m in asm.modes:
        if m.alpha is not None and not m.alpha_free:
            total = total + m.alpha
    assert asm.alpha_partial_sums[-1] == total

    p2 = Params(F(3, 2), F(3, 2), 2)
    asm2 = assemble_mode(p2, 0, 2, decay=False)
    assert asm2.obstructed
    with pytest.raises(ValueError):
        assemble_mode(p, 1, 0)


def test_zero_mode_alpha_sum_exact():
    p = Params(F(3, 2), F(3, 2), 30)
    res = zero_mode_alpha_sum(p, "RamanujanExact", probe=8)
    assert res.status == "exact"
    assert res.value == Constant.pi_power(8, F(52, 146923875))
    assert res.shape["a"] == 2 and res.shape["b"] == 2 and res.shape["s"] == 8
    assert abs(res.partial_sums[10000] - res.numeric) / abs(res.numeric) < 1e-6


def test_zero_mode_alpha_sum_formal_for_lambda2():
    p = Params(F(3, 2), F(3, 2), 2)
    # divergent as a series; the shape carries a log(n) part
    res = zero_mode_alpha_sum(p, "RamanujanExact", probe=6)
    assert res.status == "divergent"
    formal = zero_mode_alpha_sum(p, "FormalRamanujan", probe=6)
    assert formal.status == "formal"
    assert formal.value is not None
    with pytest.raises(ValueError):  # the partial sums are in every document
        zero_mode_alpha_sum(p, "NumericPartial")


# points z = x + iy with y and Im(-1/z) near 1, where double precision holds
MODULAR_POINTS = ((0.1, 0.995), (0.3, 0.955), (0.45, 0.9), (-0.25, 0.97))


# no-cusp families (weight 2r + 2 in 4, 6, 8, 10, 14) and their exact totals
MODULAR_FAMILIES = (
    (Params(F(3, 2), F(3, 2), 12), Constant.pi_power(6, F(4, 25515))),
    (Params(F(3, 2), F(5, 2), 42), Constant.pi_power(10, F(4, 66976875))),
)


def test_expansion_is_modular():
    # (3/2,3/2,12) is the D^6R^4 equation; the y^-3 coefficient of its zero
    # mode is (4/27) zeta(6) = 4 pi^6/25515 (Green, Miller and Vanhove,
    # arXiv:1404.2192), the alpha-sum total itself: alpha_{0,0} = 0.  The
    # weights 2r + 2 = 8 and 14 have no cusp form, so the modes n != 0 carry
    # no homogeneous term, and f(x + iy) = sum_n f_n(y) e^{2 pi i n x} needs no
    # fitted constant.  f_{-n} = f_n, as the mode (-n1, -n2) has the particular
    # of (n1, n2); the modes beyond |n1| = 12 or n = 5 are below e^-100 at y ~ 1.
    for p, exact in MODULAR_FAMILIES:
        total = zero_mode_alpha_sum(p)
        assert total.status == "exact"
        assert total.value == exact
        parts = {n: [solve_mode(p, n1, n - n1).particular for n1 in range(-12, 13)]
                 for n in range(6)}

        def f(x, y, c):
            modes = (math.fsum(eval_expr(q, y, ENV) for q in qs) * math.cos(2 * math.pi * n * x)
                     * (1 if n == 0 else 2) for n, qs in parts.items())
            return c * y**-p.r + math.fsum(modes)

        def gap(c):
            worst = 0.0
            for x, y in MODULAR_POINTS:
                d = x * x + y * y
                here, there = f(x, y, c), f(-x / d, y / d, c)
                worst = max(worst, abs(here - there) / abs(here))
            return worst

        assert gap(total.numeric) <= 1e-11, (p, gap(total.numeric))
        assert gap(0.0) >= 1e-4, p  # alpha_{0,0} = -total leaves no y^-r term


def test_combine_identity_and_normalization_guard():
    p = Params(F(5, 2), F(3, 2), 20, Normalization.CORRELATOR)
    comb = combine([(Constant.one(), p)], 1, 2)
    direct = solve_mode(p, 1, 2)
    assert (comb.table - direct.particular).is_zero()
    assert comb.hom_parts[0][0] == direct.alpha
    with pytest.raises(ValueError):
        combine([(Constant.one(), dataclasses.replace(p, normalization=Normalization.PUBLISHED))],
                1, 2)


def test_t_minus_2_has_two_bessel_indices():
    comb = combine(T_MINUS_2_WEIGHTS, 1, 2, free_constants=["C1"])
    rs = sorted(b.r for _, b in comb.hom_parts)
    assert rs == [4, 6]  # K_{9/2} and K_{13/2} pieces stay separate
    assert comb.free_constants == ["C1"]


def test_mode_json_round_trip():
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 2, 3)
    doc = json.loads(json.dumps(m.to_json_obj()))
    m2 = mode_solution_from_json_obj(doc)
    assert m2.alpha == m.alpha
    assert (m2.particular - m.particular).is_zero()


def test_log_spaced_grids():
    assert _log_spaced(10, 200, 16) == [
        10, 12, 15, 18, 22, 27, 33, 40, 49, 60, 74, 90, 110, 134, 164, 200,
    ]
    assert _log_spaced(10, 200, 24) == [
        10, 11, 13, 15, 17, 19, 22, 25, 28, 32, 37, 42, 48, 54, 62, 71, 80, 92,
        104, 119, 135, 154, 176, 200,
    ]
    assert _log_spaced(10, 60, 8) == [10, 13, 17, 22, 28, 36, 46, 60]
    assert _log_spaced(10, 40, 6) == [10, 13, 17, 23, 30, 40]


def test_decay_scan_statuses():
    p = Params(F(3, 2), F(3, 2), 30)
    rep = alpha_decay_scan(p, 1, (10, 60), samples=8)
    assert rep.status == "convergent" and rep.exponent > 3
    p2 = Params(F(3, 2), F(3, 2), 2)
    rep2 = alpha_decay_scan(p2, 1, (10, 40), samples=6)
    assert rep2.status == "divergent"
    # the exact least-squares slope of the float logs, rounded once (a 60-digit
    # mpmath fit of the same samples agrees)
    assert rep.exponent == pytest.approx(3.9669066973879565, rel=1e-15, abs=0)
    assert rep2.exponent == pytest.approx(-0.2872071092229791, rel=1e-15, abs=0)


def test_high_precision_evaluation_needed_at_large_n():
    # double evaluation of the exact alpha collapses under cancellation;
    # the high-precision path recovers the true tiny value
    p = Params(F(3, 2), F(3, 2), 30)
    m = solve_mode(p, 60, -59)
    hp = evaluate_high_precision(m.alpha)
    assert abs(hp) < 1e-5  # decays like |n1|^-4 with divisor fluctuations
    # double precision evaluation is pure cancellation noise at this size
    assert abs(m.alpha.evaluate(ENV) - hp) > 1e3 * abs(hp)


def test_t_minus_3_shape_combinations_exist():
    # the 1/N^3-style shape mixes E(3,3/2,3/2) with E(r, .) for r in {5,7,9}
    # across three weight pairs; the published tables stop short of these, but
    # every mode solves exactly and combines with any weights
    entries = [(Constant.one(), Params(F(3, 2), F(3, 2), 12, Normalization.CORRELATOR))]
    for r in (5, 7, 9):
        lam = r * (r + 1)
        for a, b in ((F(3, 2), F(3, 2)), (F(5, 2), F(5, 2)), (F(7, 2), F(3, 2))):
            entries.append((Constant.one(), Params(a, b, lam, Normalization.CORRELATOR)))
    comb = combine(entries, 1, 2)
    assert sorted({b.r for _, b in comb.hom_parts}) == [3, 5, 7, 9]
    # the combined table is a genuine rational-coefficient bilinear expression
    for cell, poly in comb.table.table.items():
        assert not poly.is_zero()
        for (_, j), _c in poly.terms().items():
            assert j == 0


def test_zero_mode_partial_sum_convergence_rate():
    # |partial(N) - exact| should shrink like N^{1+a+b-s} = N^{-3} here
    p = Params(F(3, 2), F(3, 2), 30)
    res = zero_mode_alpha_sum(p, "RamanujanExact", probe=6)
    errs = [abs(res.partial_sums[N] - res.numeric) for N in (100, 1000, 10000)]
    assert errs[0] > errs[1] > errs[2]
    # each decade gains roughly three orders; allow a generous band
    assert errs[0] / errs[1] > 200
    assert errs[1] / errs[2] > 200


def test_mixed_weight_alpha_sum_recognition():
    # (3/2, 5/2): alpha_{-n,n} = (4/(9 pi^2)) sigma_2(n) sigma_4(n) / n^8,
    # so the total is (4/(9 pi^2)) * 2 z(8)z(6)z(4)z(2)/z(10)
    from eisenmodes.divisors import ramanujan_convolution

    p = Params(F(3, 2), F(5, 2), 20)
    res = zero_mode_alpha_sum(p, "RamanujanExact", probe=8)
    assert res.status == "exact"
    assert res.shape["a"] == 2 and res.shape["b"] == 4 and res.shape["s"] == 8
    assert res.shape["A"] == Constant.pi_power(-2, F(4, 9))
    assert res.value == res.shape["A"] * ramanujan_convolution(2, 4, 8).closed_form
    assert res.value == Constant.pi_power(8, F(11, 637875))
    m = solve_mode(p, -2, 2)
    assert m.alpha == res.shape["A"] * F(sigma(2, 2) * sigma(4, 2)) / F(2) ** 8


def test_alpha_sum_exponent_is_r_plus_weights():
    # families beyond the worked tables: a recognised shape has s = r + alpha + beta,
    # and the families whose alphas fit no sigma_a sigma_b / n^s (A + B log n) stay
    # unrecognised
    for a, b, r in [(F(5, 2), F(7, 2), 2), (F(3, 2), F(9, 2), 4),
                    (F(7, 2), F(7, 2), 3), (F(9, 2), F(9, 2), 5)]:
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        res = zero_mode_alpha_sum(p, "RamanujanExact")
        assert res.status != "unrecognized", (a, b, r)
        assert res.shape["s"] == r + a + b, (a, b, r)
    for a, b, r in [(F(3, 2), F(7, 2), 1), (F(3, 2), F(9, 2), 2), (F(5, 2), F(9, 2), 1)]:
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        res = zero_mode_alpha_sum(p, "RamanujanExact")
        assert res.status == "unrecognized" and res.shape is None, (a, b, r)


def test_exotic_weight_pairs_solve_and_classify_boundary():
    # pairs beyond the worked tables: the exact solve always succeeds inside
    # the parity/size conditions, and the o(y^{-r}) matching obstructs
    # exactly when r <= alpha + beta - 2 (log terms reach the y^{-r} slot),
    # the same pattern the worked low-eigenvalue cases follow
    cases = [
        (F(5, 2), F(7, 2), 20, True),
        (F(3, 2), F(9, 2), 20, True),
        (F(7, 2), F(7, 2), 30, True),
        (F(5, 2), F(7, 2), 42, False),
        (F(3, 2), F(9, 2), 42, False),
    ]
    from eisenmodes.numerics import residual

    for a, b, lam, expect_obstructed in cases:
        p = Params(a, b, lam, Normalization.UNIT)
        m = solve_mode(p, 1, 2)
        assert residual(m, 1.0, ENV) < 1e-9
        assert (m.obstruction is not None) == expect_obstructed, (a, b, lam)
        assert (m.obstruction is not None) == (p.r <= a + b - 2)


LARGE_R_KINDS = [(7, 11), (150, -149), (5, -5), (0, 9), (9, 0), (6, 6)]


def test_large_r_grid_solves_and_obstructs_exactly_below_the_weight_sum():
    # a slice of the large-r grid inside the solvable set, and the rule's edge
    # r = alpha + beta - 2 against r = alpha + beta at large weights; the double
    # residual reads nothing from r ~ 15 on, so only the exact path is asserted
    weights = [F(w, 2) for w in (3, 11, 21, 31, 41)]
    families = [(a, b, r) for a in weights for b in weights if a <= b for r in (21, 30, 40)
                if classify_params(a, b, r * (r + 1)).kind == "solvable"]
    edges = [(F(61, 2), F(101, 2), 79), (F(61, 2), F(101, 2), 81),
             (F(101, 2), F(101, 2), 99), (F(101, 2), F(101, 2), 101)]
    obstructed = []
    for a, b, r in families + edges:
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        for n1, n2 in LARGE_R_KINDS:
            m = solve_mode(p, n1, n2)
            assert (m.obstruction is not None) == (r <= a + b - 2), (a, b, r, n1, n2)
            obstructed.append(m.obstruction is not None)
    assert (len(families), sum(obstructed[:-24]), sum(obstructed[-24:])) == (21, 24, 12)


def _count_solves(monkeypatch):
    """The (n1, n2) of every homogeneous.solve_mode call from here on."""
    import eisenmodes.homogeneous as hom

    calls = []
    inner = hom.solve_mode

    def counted(params, n1, n2, *args, **kwargs):
        calls.append((n1, n2))
        return inner(params, n1, n2, *args, **kwargs)

    monkeypatch.setattr(hom, "solve_mode", counted)
    return calls


def test_zero_mode_assembly_solves_each_mode_once(monkeypatch):
    # the alpha sum of an n = 0 assembly reads the anti-diagonal alphas of the
    # assembly itself: 17 solves for the 17 modes (n1, -n1), |n1| <= 8
    calls = _count_solves(monkeypatch)
    asm = assemble_mode(Params(F(3, 2), F(3, 2), 30), 0, 8, decay=True)
    assert sorted(calls) == [(n1, -n1) for n1 in range(-8, 9)]
    assert asm.exact_alpha_sum.status == "exact"
    probed = zero_mode_alpha_sum(Params(F(3, 2), F(3, 2), 30), "RamanujanExact", probe=8)
    assert asm.exact_alpha_sum.to_json_obj() == probed.to_json_obj()


def test_assembly_with_decay_scan_solves_each_mode_once(monkeypatch):
    # the 25 sub-modes |n1| <= 12 in n1 order, then the 44 scan modes
    # |n1| in 10..200 not among them in scan order: 69 solves, none twice
    p = Params(F(3, 2), F(3, 2), 30)
    calls = _count_solves(monkeypatch)
    asm = assemble_mode(p, 1, 12, decay=True)
    scan = [(m1, 1 - m1) for v in _log_spaced(10, 200, 24) for m1 in (v, -v)]
    own = [(n1, 1 - n1) for n1 in range(-12, 13)]
    assert calls == own + [pair for pair in scan if pair not in own]
    assert len(calls) == len(set(calls)) == 69
    assert [(m.n1, m.n2) for m in asm.decay.modes] == scan
    monkeypatch.undo()
    rep = alpha_decay_scan(p, 1)
    assert (asm.decay.exponent, asm.decay.status, asm.decay.samples) == (
        rep.exponent, rep.status, rep.samples)
