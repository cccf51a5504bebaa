import dataclasses
import json
import math
from fractions import Fraction
from typing import Tuple

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eisenmodes.bessel import DoubleBessel, Pure, SingleBessel, k_index_table
from eisenmodes.divisors import sigma
from eisenmodes.homogeneous import solve_mode
from eisenmodes.numerics import NumericEnv, bessel_k, eval_expr
from eisenmodes.laurent import YLaurent
from eisenmodes.scalars import Constant, zeta_odd, zeta_value
from eisenmodes.series import _u_terms, hom_norm_series, k_atom_series
from eisenmodes.sources import (
    PUBLISHED_C_TABLE,
    Classification,
    Normalization,
    Params,
    _fourier_factor,
    classify_params,
    source_term,
)

ENV = NumericEnv()
F = Fraction


def test_classification_examples():
    assert classify_params(F(3, 2), F(5, 2), 20) == Classification("solvable", 4)
    assert classify_params(F(3, 2), F(3, 2), 10).kind == "lambda_not_triangular"
    assert classify_params(2, F(3, 2), 12).kind == "not_half_integer"
    assert classify_params(F(3, 2), F(5, 2), 30).kind == "outside_conjectured_set"
    # the Appendix families classify as solvable (obstructions appear later)
    for a, b, lam in ((F(3, 2), F(3, 2), 2), (F(3, 2), F(5, 2), 6), (F(5, 2), F(5, 2), 12)):
        assert classify_params(a, b, lam).kind == "solvable"


def test_params_validation():
    with pytest.raises(ValueError):
        Params(F(1, 2), F(3, 2), 12)  # not > 1
    with pytest.raises(ValueError):
        Params(2, F(3, 2), 12)  # not a half-integer
    p = Params(F(3, 2), F(5, 2), 20)
    assert p.r == 4
    assert Params(F(3, 2), F(3, 2), 10).r is None


def test_normalization_constants():
    pc = Params(F(3, 2), F(5, 2), 20, Normalization.PUBLISHED)
    assert pc.c_eff() == -6
    correlator = dataclasses.replace(pc, normalization=Normalization.CORRELATOR)
    assert correlator.c_eff() == -4
    # converting published to correlator multiplies by 2/3 for this pair
    assert correlator.c_eff() / pc.c_eff() == F(2, 3)
    # swapped-order lookup works
    assert Params(F(5, 2), F(3, 2), 20).c_eff() == -6
    with pytest.raises(ValueError):
        Params(F(5, 2), F(7, 2), 30).c_eff()
    assert Params(F(5, 2), F(7, 2), 30, Normalization.UNIT).c_eff() == 1


def test_generic_source_prefactor_and_core():
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, 1, 2)
    assert st.case_tag == "generic"
    # -64 pi^2 sigma_2(1) sigma_2(2) / |1*2| = -160 pi^2
    assert st.prefactor == Constant.pi_power(2, -160)
    from eisenmodes.laurent import YLaurent

    assert st.core.table == {(1, 1): YLaurent.monomial(1)}
    assert source_term(p, 2, -2).case_tag == "anti_diagonal"


def _fourier_factor_json(factor, s, n):
    pref, flat = factor(s, n)
    return json.dumps([pref.to_json_obj(), repr(flat.shape),
                       repr(sorted(flat.terms.items(), key=repr)), flat.den])


def test_cached_fourier_factor_equals_uncached():
    for s in (F(3, 2), F(5, 2), F(15, 2)):
        for n in range(-3, 4):
            assert _fourier_factor(s, n) == _fourier_factor.__wrapped__(s, n)


def test_cached_fourier_factor_is_read_only():
    terms = _fourier_factor(F(7, 2), 3)[1].terms
    key = next(iter(terms))
    with pytest.raises(TypeError):
        terms[key] = 0
    with pytest.raises(TypeError):
        del terms[key]
    assert _fourier_factor(F(7, 2), 3) == _fourier_factor.__wrapped__(F(7, 2), 3)


def test_cold_and_warm_solves_agree():
    # a solve on empty kernel caches and one on full caches give the same
    # document, and no solve writes into a cached table
    p = Params(F(3, 2), F(7, 2), 30)
    modes = ((5, -4), (-4, 5), (0, 4), (5, 0), (4, 4), (0, 0))
    for kernel in (k_atom_series, _u_terms, hom_norm_series, _fourier_factor, k_index_table):
        kernel.cache_clear()
    cold, warm = ([json.dumps(solve_mode(p, n1, n2).to_json_obj(), sort_keys=True)
                   for n1, n2 in modes] for _ in range(2))
    assert cold == warm
    for s, n in ((F(3, 2), 5), (F(3, 2), 0), (F(7, 2), -4), (F(7, 2), 0)):
        assert (_fourier_factor_json(_fourier_factor, s, n)
                == _fourier_factor_json(_fourier_factor.__wrapped__, s, n))


def test_zero_mode_source():
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, 0, 0)
    z3 = zeta_odd(3)
    poly = st.full().poly
    assert poly.coeff(3) == Constant.from_rational(-4) * z3 * z3
    assert poly.coeff(1) == Constant.pi_power(2, F(-8, 3)) * z3
    assert poly.coeff(-1) == Constant.pi_power(4, F(-4, 9))
    # the y^{2 - alpha - beta} term is present (case-1 contract)
    assert not poly.coeff(-1).is_zero()


def test_single_source_dispatch():
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, 0, 3)
    assert st.case_tag == "left_zero"
    assert st.core.n == 3
    # two K_{beta-1/2} terms at powers alpha+1/2 and 3/2-alpha
    assert st.core.table[1].support() == (0, 2)
    st = source_term(p, 3, 0)
    assert st.case_tag == "right_zero"


def test_numeric_faithfulness_of_product():
    # direct c zeta(2a) zeta(2b) a_{n1,a} a_{n2,b} at y = 0.8
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, 1, 2)
    y = 0.8
    z3 = 1.2020569031595943
    a1 = 4 * math.pi / z3 * 1 * math.sqrt(y) * bessel_k(1, 2 * math.pi * y)
    a2 = 4 * math.pi / z3 * 2 * 1.25 * math.sqrt(y) * bessel_k(1, 4 * math.pi * y)
    direct = -4 * z3 * z3 * a1 * a2
    ours = eval_expr(st.full(), y, ENV)
    assert abs(ours - direct) / abs(direct) < 1e-10


def test_symmetry_under_weight_swap():
    p1 = Params(F(3, 2), F(7, 2), 30)
    p2 = Params(F(7, 2), F(3, 2), 30)
    s1 = source_term(p1, 2, 3)
    s2 = source_term(p2, 3, 2)
    assert s1.prefactor == s2.prefactor
    for (i, j), q in s1.core.table.items():
        assert s2.core.table[(j, i)] == q


def test_no_residual_sqrt_pi():
    # every prefactor lands on integer pi powers
    for a, b, lam in ((F(3, 2), F(3, 2), 30), (F(3, 2), F(5, 2), 20),
                      (F(5, 2), F(5, 2), 30), (F(3, 2), F(7, 2), 30)):
        p = Params(a, b, lam)
        for n1, n2 in ((0, 0), (0, 2), (2, 0), (1, 2), (1, -1)):
            st = source_term(p, n1, n2)
            for mono in st.prefactor.terms():
                for sym, _ in mono.items():
                    assert sym[0] in ("pi",)


# ---------------------------------------------------------------------------
# Property: every source term is c_eff zeta(2a) zeta(2b) a_{n1,a} a_{n2,b}
# ---------------------------------------------------------------------------

WEIGHTS = [F(3, 2), F(5, 2), F(7, 2), F(9, 2)]


def _mp_sigma(k: int, n: int):
    return mp.fsum(mp.mpf(d) ** k for d in range(1, n + 1) if n % d == 0)


def _mp_fourier_coeff(s: Fraction, n: int, y):
    """a_{n,s}(y) of E_s from its definition, at the current mpmath precision."""
    two_s = int(2 * s)
    s = mp.mpf(two_s) / 2
    if n == 0:
        return y ** s + (mp.sqrt(mp.pi) * mp.gamma(s - 0.5) * mp.zeta(two_s - 1)
                         / (mp.gamma(s) * mp.zeta(two_s)) * y ** (1 - s))
    return (2 * mp.pi ** s / (mp.gamma(s) * mp.zeta(two_s)) * mp.mpf(abs(n)) ** (s - 0.5)
            * _mp_sigma(1 - two_s, abs(n)) * mp.sqrt(y)
            * mp.besselk(s - 0.5, 2 * mp.pi * abs(n) * y))


@hst.composite
def _source_cases(draw):
    alpha = draw(hst.sampled_from(WEIGHTS))
    beta = draw(hst.sampled_from(WEIGHTS))
    norms = [Normalization.UNIT, Normalization.CORRELATOR]
    if (alpha, beta) in PUBLISHED_C_TABLE or (beta, alpha) in PUBLISHED_C_TABLE:
        norms.append(Normalization.PUBLISHED)
    p = Params(alpha, beta, 30, draw(hst.sampled_from(norms)))
    # zero and -n1 are drawn as often as a sign, so every case tag is reached
    negative, positive = hst.integers(-300, -1), hst.integers(1, 300)
    n1 = draw(hst.one_of(negative, positive, hst.just(0)))
    n2 = draw(hst.one_of(negative, positive, hst.just(0), hst.just(-n1)))
    # the largest Bessel argument 2 pi max(|n1|, |n2|) y lies in [0.5, 2]
    t = draw(hst.floats(0.5, 2.0))
    return p, n1, n2, t / (2 * math.pi * max(abs(n1), abs(n2), 1))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_source_cases())
def test_source_term_is_product_of_fourier_coefficients(case):
    p, n1, n2, y = case
    ours = eval_expr(source_term(p, n1, n2).full(), y, ENV)
    with mp.workdps(30):
        ym = mp.mpf(y)
        c_eff = mp.mpf(p.c_eff().numerator) / p.c_eff().denominator
        direct = (c_eff * mp.zeta(int(2 * p.alpha)) * mp.zeta(int(2 * p.beta))
                  * _mp_fourier_coeff(p.alpha, n1, ym) * _mp_fourier_coeff(p.beta, n2, ym))
        assert abs((ours - direct) / direct) < 1e-10, (p.describe(), n1, n2, y)


# ---------------------------------------------------------------------------
# Property: source_term equals the Constant-built reference it replaced
# ---------------------------------------------------------------------------


def gamma_half_integer(two_s: int) -> Tuple[Fraction, int]:
    """Gamma(two_s / 2) as (rational, sqrt_pi_power) with power in {0, 1}.

    Integer arguments give factorials; half-integers use
    Gamma(m + 1/2) = (2m)! / (4^m m!) * sqrt(pi).  Requires two_s >= 1.
    """
    if two_s < 1:
        raise ValueError("argument must be >= 1/2")
    if two_s % 2 == 0:
        return Fraction(math.factorial(two_s // 2 - 1)), 0
    m = (two_s - 1) // 2
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), 1


def test_reference_gamma_half_integer():
    assert gamma_half_integer(2) == (Fraction(1), 0)  # Gamma(1)
    assert gamma_half_integer(3) == (Fraction(1, 2), 1)  # Gamma(3/2) = sqrt(pi)/2
    assert gamma_half_integer(5) == (Fraction(3, 4), 1)  # Gamma(5/2)
    assert gamma_half_integer(7) == (Fraction(15, 8), 1)  # Gamma(7/2)


def _reference_pi_half_product(rational: Fraction, half_pi_exponent: int) -> Constant:
    """rational * pi^{half_pi_exponent / 2}; the half exponent must be even."""
    if half_pi_exponent % 2 != 0:
        raise ValueError("a residual sqrt(pi) survived; prefactor assembly is inconsistent")
    return Constant.pi_power(half_pi_exponent // 2, rational)


def _reference_reduce_k_index(m: int, n: int):
    """Write K_m(2 pi |n| y) = c0(y) K_0 + c1(y) K_1 exactly.

    Uses the upward recurrence K_{j+1}(z) = K_{j-1}(z) + (2j/z) K_j(z) with
    z = 2 pi |n| y; the coefficients are Laurent polynomials with nonpositive
    powers of y and no logs.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if n == 0:
        raise ValueError("n must be nonzero")
    c_prev = (YLaurent.one(), YLaurent.zero())  # K_0
    if m == 0:
        return c_prev
    c_cur = (YLaurent.zero(), YLaurent.one())  # K_1
    inv_z = YLaurent.monomial(-1, Constant.pi_power(-1, Fraction(1, 2 * abs(n))))
    for j in range(1, m):
        factor = inv_z.scale(2 * j)
        c_next = (c_prev[0] + factor * c_cur[0], c_prev[1] + factor * c_cur[1])
        c_prev, c_cur = c_cur, c_next
    return c_cur


def _reference_fourier_factor(s: Fraction, n: int):
    """zeta(2s) a_{n,s}(y) / sqrt(y) as (prefactor, expression).

    n = 0: (1, Pure(zeta(2s) y^{s-1/2} + sqrt(pi) Gamma(s-1/2) zeta(2s-1)
    / Gamma(s) y^{1/2-s})); n != 0: (2 pi^s |n|^{s-1/2} sigma_{1-2s}(|n|)
    / Gamma(s), K_{s-1/2}(2 pi |n| y) in the K0/K1 basis), built with
    Constant and YLaurent arithmetic, apart from the integer path under test.
    """
    s = Fraction(s)
    if s <= 1:
        raise ValueError("requires s > 1 (absolute convergence)")
    two_s = int(2 * s)
    m = int(s - Fraction(1, 2))  # K index and |n| exponent; integral for half-integer s
    g, g_sqrtpi = gamma_half_integer(two_s)
    if n == 0:
        g_num, g_num_sqrtpi = gamma_half_integer(two_s - 1)
        a_s = _reference_pi_half_product(g_num / g, 1 + g_num_sqrtpi - g_sqrtpi) * zeta_value(two_s - 1)
        poly = YLaurent({(m, 0): zeta_value(two_s), (-m, 0): a_s})
        return Constant.one(), Pure(poly)
    pref = _reference_pi_half_product(2 * abs(n) ** m * sigma(1 - two_s, abs(n)) / g, two_s - g_sqrtpi)
    return pref, SingleBessel(n, dict(enumerate(_reference_reduce_k_index(m, n))))


def _reference_source_term(p: Params, n1: int, n2: int):
    """Exact s_{n1,n2} = c_eff zeta(2a) zeta(2b) a_{n1,a}(y) a_{n2,b}(y), with
    the Bessel part reduced to the K0/K1 basis, as (prefactor, core)."""
    pref_a, left = _reference_fourier_factor(p.alpha, n1)
    pref_b, right = _reference_fourier_factor(p.beta, n2)
    if isinstance(left, Pure):
        core = right.map_cells(lambda q: (left.poly * q).shift(1))
    elif isinstance(right, Pure):
        core = left.map_cells(lambda q: (q * right.poly).shift(1))
    else:
        core = DoubleBessel(n1, n2, {
            (i, j): (q_i * q_j).shift(1)
            for i, q_i in left.table.items() for j, q_j in right.table.items()
        })
    prefactor = pref_a * pref_b * p.c_eff()
    return prefactor, core


REFERENCE_WEIGHTS = [F(k, 2) for k in range(3, 16, 2)]  # 3/2 .. 15/2: K_0 .. K_7


@hst.composite
def _reference_cases(draw):
    alpha = draw(hst.sampled_from(REFERENCE_WEIGHTS))
    beta = draw(hst.sampled_from(REFERENCE_WEIGHTS))
    norms = [Normalization.UNIT, Normalization.CORRELATOR]
    if (alpha, beta) in PUBLISHED_C_TABLE or (beta, alpha) in PUBLISHED_C_TABLE:
        norms.append(Normalization.PUBLISHED)
    n1 = draw(hst.one_of(hst.integers(-300, -1), hst.integers(1, 300), hst.just(0)))
    # -n1 (anti-diagonal) and n1 (merged) as often as a free draw or 0
    n2 = draw(hst.one_of(hst.integers(-300, 300), hst.just(0), hst.just(-n1), hst.just(n1)))
    return Params(alpha, beta, 30, draw(hst.sampled_from(norms))), n1, n2


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_reference_cases())
def test_source_term_equals_constant_built_reference(case):
    p, n1, n2 = case
    st = source_term(p, n1, n2)
    prefactor, core = _reference_source_term(p, n1, n2)
    assert st.prefactor == prefactor
    assert st.core == core
    assert st.full() == core.scale(prefactor)
    assert type(st.full()) is type(core)
    if n1 and abs(n1) == abs(n2):
        assert (1, 0) not in st.full().table  # merged cells are folded


def test_source_term_equals_reference_on_a_fixed_grid():
    # a floor under the drawn cases: every weight against the smallest and
    # the largest, both normalizations without a table, every case tag,
    # merged modes of both signs and |n| = 300, and one published merged mode
    seen = set()
    for a in REFERENCE_WEIGHTS:
        for b in (F(3, 2), F(15, 2)):
            for norm in (Normalization.UNIT, Normalization.CORRELATOR):
                for n1, n2 in ((0, 0), (0, 7), (300, 0), (3, 4), (5, -5), (-6, -6), (2, -300)):
                    p = Params(a, b, 30, norm)
                    st = source_term(p, n1, n2)
                    prefactor, core = _reference_source_term(p, n1, n2)
                    assert (st.prefactor, st.core) == (prefactor, core)
                    seen.add(st.case_tag)
    p = Params(F(3, 2), F(7, 2), 30, Normalization.PUBLISHED)
    assert source_term(p, 4, 4).core == _reference_source_term(p, 4, 4)[1]
    assert seen == {"both_zero", "left_zero", "right_zero", "generic", "anti_diagonal"}
