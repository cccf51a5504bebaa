"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 asserts the decay exponents k = 4, 6, 2, 2, 2 of the
published closed forms (the generic tables of the five families, which carry
no errata), and pins the solver to those tables at the largest scanned |n1|.
The prose O-statements (3.7, 7.7, 4.7, 5.7, 5.7) contradict the closed forms
on four families; they are kept and printed as an erratum, not asserted, as
criterion 4 does with the published pi^16 exponent.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import pytest

from eisenmodes.bessel import apply_euler, apply_L, apply_P
from eisenmodes.divisors import sigma
from eisenmodes.fixtures import (
    compare_expressions,
    fixture_modes,
    fixture_particular,
    fixture_zero_mode,
    list_families,
)
from eisenmodes.homogeneous import (
    T_MINUS_2_WEIGHTS,
    _log_spaced,
    alpha_decay_scan,
    combine,
    solve_mode,
    zero_mode_alpha_sum,
)
from eisenmodes.numerics import NumericEnv, bessel_k, residual
from eisenmodes.scalars import Constant, zeta_even
from eisenmodes.solver import NoSolutionInWindow, solve_particular_double
from eisenmodes.sources import Params, classify_params, source_term

ENV = NumericEnv()
F = Fraction

CRITERION_MODES = [(1, 1), (1, 2), (2, 1), (2, 3), (1, -3), (1, -1)]


def _params(key: str) -> Params:
    a, b, lam = key.split(",")
    return Params(F(a), F(b), int(lam))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_table_reproduction_exact():
    """Every published table entry is reproduced exactly (symbolic equality)."""
    t0 = time.time()
    entries = 0
    errata_applied = set()
    for key in list_families():
        p = _params(key)
        for case, pairs in fixture_modes(p.alpha, p.beta, p.lam).items():
            for (n1, n2) in pairs:
                used = []
                printed = fixture_particular(p.alpha, p.beta, p.lam, n1, n2, errata_used=used)
                mode = solve_mode(p, n1, n2)
                diffs = compare_expressions(mode.particular, printed)
                assert not diffs, (key, case, n1, n2, diffs[:4])
                if mode.report is not None:
                    assert mode.report.kernel_dim == 0
                errata_applied.update(f"{key}|{c}|{cell}" for c, cell, _ in used)
                entries += 1
    elapsed = time.time() - t0
    ok = elapsed <= 60
    _report(1, ok, f"{entries} table entries equal across {len(list_families())} families "
                   f"({len(errata_applied)} documented errata) in {elapsed:.1f} s")
    assert ok, f"table suite took {elapsed:.1f} s (> 60 s)"


def test_criterion_2_exact_residual():
    """Operator image minus source is the identically-zero expression."""
    checked = 0
    for key in list_families():
        p = _params(key)
        for (n1, n2) in [(1, 2), (1, -1), (0, 2), (2, 0), (0, 0)]:
            st = source_term(p, n1, n2)
            m = solve_mode(p, n1, n2)
            if n1 == 0 and n2 == 0:
                res = apply_euler(p.lam, m.particular) - st.full()
            elif n1 == 0 or n2 == 0:
                res = apply_L(p.lam, m.particular) - st.full()
            else:
                res = apply_P(p.lam, m.particular) - st.full()
            assert res.is_zero(), (key, n1, n2)
            checked += 1
    # the omitted worked case lambda = 12 (3/2, 3/2) solves exactly too
    p = Params(F(3, 2), F(3, 2), 12)
    for (n1, n2) in [(1, 2), (2, 3), (1, -1), (0, 1), (0, 0)]:
        st = source_term(p, n1, n2)
        m = solve_mode(p, n1, n2)
        if n1 == 0 and n2 == 0:
            res = apply_euler(12, m.particular) - st.full()
        elif n1 == 0 or n2 == 0:
            res = apply_L(12, m.particular) - st.full()
        else:
            res = apply_P(12, m.particular) - st.full()
        assert res.is_zero()
        checked += 1
    _report(2, True, f"exact zero residual on {checked} solved modes "
                     "(including the unpublished lambda=12 weight-3/2 case)")


def test_criterion_3_numeric_residual():
    """|LHS - RHS|/|RHS| <= 1e-9 at y in {0.3, 1, 3} with double Bessel values."""
    worst = 0.0
    worst_at = None
    for key in list_families():
        p = _params(key)
        for (n1, n2) in CRITERION_MODES + [(0, 1), (0, 2), (1, 0), (2, 0), (0, 0)]:
            m = solve_mode(p, n1, n2)
            for y in (0.3, 1.0, 3.0):
                r = residual(m, y, ENV)
                if r > worst:
                    worst, worst_at = r, (key, n1, n2, y)
    ok = worst <= 1e-9
    _report(3, ok, f"worst relative residual {worst:.2e} at {worst_at}")
    assert ok


def test_criterion_4_homogeneous_coefficients():
    """Anti-diagonal alphas and their divisor-sum totals."""
    p30 = Params(F(3, 2), F(3, 2), 30)
    for n2 in range(1, 21):
        m = solve_mode(p30, -n2, n2)
        expected = Constant.pi_power(-4, F(8, 55) * F(sigma(2, n2)) ** 2 / F(n2) ** 8)
        assert m.alpha == expected, n2
    res30 = zero_mode_alpha_sum(p30, "RamanujanExact", probe=10)
    assert res30.status == "exact"
    assert res30.value == Constant.pi_power(8, F(52, 146923875))
    assert res30.value == zeta_even(8) * F(104, 31095)
    rel = abs(res30.partial_sums[10000] - res30.numeric) / abs(res30.numeric)
    assert rel < 1e-6
    p56 = Params(F(3, 2), F(3, 2), 56)
    res56 = zero_mode_alpha_sum(p56, "RamanujanExact", probe=8)
    # The published lambda=56 total is printed as 7072 pi^16/1695787498125; the
    # rational part is confirmed exactly, but the per-mode alphas
    # 32 sigma_2(n)^2/(175 pi^6 n^10) force the power pi^10
    # (= 32/(175 pi^6) * 2 z(10) z(8)^2 z(6)/z(16)), and the partial sums the
    # criterion itself demands agree only with the pi^10 value (3.9e-4, not
    # 3.8e-2).  The pi exponent is recorded as an erratum.
    assert res56.value == Constant.pi_power(10, F(7072, 1695787498125))
    mono56, rat56 = res56.value.single_term()
    assert rat56 == F(7072, 1695787498125)
    rel56 = abs(res56.partial_sums[10000] - res56.numeric) / abs(res56.numeric)
    assert rel56 < 1e-6
    _report(4, True,
            "alpha_{-n,n} = 8 sigma_2(n)^2/(55 pi^4 n^8) exactly for n <= 20; "
            "totals 52 pi^8/146923875 and 7072 pi^10/1695787498125 "
            "(published exponent pi^16 is an erratum, ruled out by the partial sums); "
            f"partial-sum rel errs {rel:.1e}, {rel56:.1e}")


# (family, exponent k of the published closed form, prose O-statement threshold)
DECAY_CASES = [
    ("3/2,3/2,30", 4, 3.7),
    ("3/2,3/2,56", 6, 7.7),
    ("3/2,5/2,20", 2, 4.7),
    ("5/2,5/2,30", 2, 5.7),
    ("3/2,7/2,30", 2, 5.7),
]
DECAY_SCAN = (10, 200)
DECAY_SAMPLES = 16
DECAY_MARGIN = 0.3  # the margin of the original thresholds (3.7 = 4 - 0.3)
# The printed terms cancel over at most 45 digits at |n1| <= 200, and the
# neglected small-y corrections are O(y log^j y); 120 digits at y = 1e-60 leave
# over 70 correct digits of alpha.
PIN_DPS = 120
PIN_Y = mp.mpf(10) ** -60


def _mp_constant(c: Constant):
    """A Constant at the working mpmath precision (pi and log-prime symbols)."""
    values = {"pi": lambda _: mp.pi, "ln_prime": mp.log}
    total = mp.mpf(0)
    for mono, coeff in c.terms().items():
        v = mp.mpf(coeff.numerator) / coeff.denominator
        for (kind, arg), e in mono.items():
            v *= values[kind](arg) ** e
        total += v
    return total


def _table_alpha_limit(p: Params, n1: int, n2: int):
    """alpha = -lim y^r p(y) / lim y^r u(y), straight from the printed table.

    p is the printed particular solution and u the normalized decaying element
    2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y).  Both are evaluated with mpmath
    besselk at PIN_Y and PIN_DPS digits (the y^r factors cancel in the ratio),
    a route that shares no code with small_y_series or choose_alpha.
    """
    printed = fixture_particular(p.alpha, p.beta, p.lam, n1, n2)
    n = abs(n1 + n2)
    y = PIN_Y
    k1, k2 = ([mp.besselk(i, 2 * mp.pi * abs(m) * y) for i in (0, 1)] for m in (n1, n2))
    log_y = mp.log(y)
    p_y = mp.fsum(
        _mp_constant(c) * y**k * log_y**j * k1[i] * k2[i2]
        for (i, i2), poly in printed.table.items()
        for (k, j), c in poly.terms().items()
    )
    u_y = 2 * mp.sqrt(n * y) * mp.besselk(p.r + mp.mpf(1) / 2, 2 * mp.pi * n * y)
    return -p_y / u_y


def test_criterion_5_decay_exponents():
    """Fitted decay of alpha_{n1, 1-n1} against the published closed forms.

    For each family the fitted exponent must lie within DECAY_MARGIN of the
    exponent k of the generic table (4, 6, 2, 2, 2) and the mode sum must be
    classified convergent.  k is tied to the paper, not to the solver: at the
    two largest scan points, with both signs, the scan's own solved particular
    part equals the printed table exactly and the solver's alpha equals the small-y
    limit of the printed table (to 1e-12 relative).

    The thresholds from the prose O-statements are an erratum: the closed
    forms decay like |n1|^-k, so 7.7, 4.7, 5.7 and 5.7 are unattainable by the
    published tables themselves.  They are printed next to the fit, not
    asserted.
    """
    pins = _log_spaced(*DECAY_SCAN, DECAY_SAMPLES)[-2:]
    results = []
    worst_pin = 0.0
    for key, k, prose in DECAY_CASES:
        p = _params(key)
        rep = alpha_decay_scan(p, 1, DECAY_SCAN, samples=DECAY_SAMPLES)
        results.append((key, k, prose, rep))
        scanned = {m.n1: m for m in rep.modes}
        for m1 in (sign * n1 for n1 in pins for sign in (1, -1)):
            mode = scanned[m1]
            printed = fixture_particular(p.alpha, p.beta, p.lam, m1, 1 - m1)
            diffs = compare_expressions(mode.particular, printed)
            assert not diffs, (key, m1, diffs[:4])
            assert mode.alpha is not None, (key, m1)
            with mp.workdps(PIN_DPS):
                solver_alpha = _mp_constant(mode.alpha)
                table_alpha = _table_alpha_limit(p, m1, 1 - m1)
                rel = float(abs(table_alpha - solver_alpha) / abs(solver_alpha))
            assert rel <= 1e-12, (key, m1, rel)
            worst_pin = max(worst_pin, rel)
    lines = ", ".join(
        f"{key}: fitted {rep.exponent:.2f} vs k={k} {rep.status} (prose erratum {prose})"
        for key, k, prose, rep in results
    )
    failures = [
        (key, k, rep.exponent, rep.status)
        for key, k, _, rep in results
        if rep.status != "convergent" or abs(rep.exponent - k) > DECAY_MARGIN
    ]
    _report(5, not failures, f"{lines}; table pins at |n1| in {pins}, both signs: "
                             f"worst alpha rel err {worst_pin:.1e}")
    assert not failures, f"decay exponents off the closed-form values: {failures}"


def test_criterion_6_nonexistence_and_obstruction():
    """lambda = 10/11 inconsistent everywhere; lambda = 2 obstructed/divergent."""
    details = []
    for lam in (10, 11):
        p = Params(F(3, 2), F(3, 2), lam)
        assert classify_params(p.alpha, p.beta, lam).kind == "lambda_not_triangular"
        with pytest.raises(NoSolutionInWindow) as info:
            solve_particular_double(p, source_term(p, 1, 2).core.flat)
        assert info.value.retries == 0
        assert info.value.inconsistent_rows
        details.append(f"lambda={lam} inconsistent on the derived window")
    p2 = Params(F(3, 2), F(3, 2), 2)
    m = solve_mode(p2, 1, -1)
    assert m.obstruction is not None
    assert any(k == -1 and j == 1 for k, j, _ in m.obstruction.leading)
    details.append("lambda=2 anti-diagonal obstructed by y^-1 log(y)")
    rep = alpha_decay_scan(p2, 1, (10, 80), samples=10)
    assert rep.status == "divergent"
    details.append(f"lambda=2 mode-sum divergent (fitted slope {-rep.exponent:.2f})")
    _report(6, True, "; ".join(details))


def test_criterion_7_t_minus_2_combination():
    """The 1/N^2 combination reproduces the published w tables numerically."""
    from eisenmodes.fixtures import fixture_combination

    worst = 0.0
    for (n1, n2) in [(1, 1), (1, 2), (2, 1)]:
        comb = combine(T_MINUS_2_WEIGHTS, n1, n2)
        fixture = fixture_combination(n1, n2)  # merges K0K1/K1K0 at |n1| = |n2|
        for y in (0.5, 1.0):
            for cell in ((0, 0), (1, 1), (0, 1)):
                ours = comb.table.table.get(cell)
                ref = fixture.table.get(cell)
                if ours is None and ref is None:
                    continue
                ov = ours.evaluate(ENV, y) if ours else 0.0
                rv = ref.evaluate(ENV, y) if ref else 0.0
                rel = abs(ov - rv) / max(abs(rv), 1e-300)
                worst = max(worst, rel)
    ok = worst <= 1e-8
    _report(7, ok, f"w tables at (1,1), (1,2), (2,1), y in {{0.5, 1}}: worst rel err {worst:.2e}; "
                   "no sign-quadrant errata required")
    assert ok


def test_criterion_8_zero_modes_verbatim():
    """Printed zero-mode particular solutions, log terms included."""
    count = 0
    for key in list_families():
        p = _params(key)
        printed = fixture_zero_mode(p.alpha, p.beta, p.lam)
        m = solve_mode(p, 0, 0)
        assert (m.particular.poly - printed.poly).is_zero(), key
        count += 1
    # the resonant families really carry log(y)
    for key in ("3/2,3/2,2", "3/2,5/2,6", "5/2,5/2,12", "3/2,7/2,12"):
        assert fixture_zero_mode(*_key_parts(key)).poly.max_log() > 0
    _report(8, True, f"all {count} zero-mode polynomials verbatim (4 with log(y) terms)")


def _key_parts(key):
    a, b, lam = key.split(",")
    return F(a), F(b), int(lam)


def test_criterion_9_property_suites():
    """Ring axioms, reduction identities, Wronskian, linearity, windows."""
    import random

    from test_scalars import rand_constant

    rng = random.Random(101)
    for _ in range(10):
        a, b, c = (rand_constant(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    from eisenmodes.bessel import k_index_table

    for m_idx in range(7):
        for z in (0.5, 2.0, 10.0):
            a0, a1 = k_index_table(m_idx)
            approx = math.fsum(z ** -k * (c0 * bessel_k(0, z) + c1 * bessel_k(1, z))
                               for k, (c0, c1) in enumerate(zip(a0, a1)))
            assert abs(approx - bessel_k(m_idx, z)) / bessel_k(m_idx, z) <= 1e-13

    for nu in (0.5, 5.5):
        for x in (0.5, 2.0, 10.0):
            with mp.workdps(35):
                i = [float(mp.besseli(m, x)) for m in (nu - 1, nu, nu + 1)]
            kd = -0.5 * (bessel_k(abs(nu - 1), x) + bessel_k(nu + 1, x))
            idd = 0.5 * (i[0] + i[2])
            assert abs(i[1] * kd - idd * bessel_k(nu, x) + 1 / x) * x <= 1e-11

    # linearity of the operator on random tables
    from test_bessel_ops import rand_double

    for _ in range(6):
        x = rand_double(rng, 1, 2)
        yv = rand_double(rng, 1, 2)
        w = Constant.pi_power(rng.randint(-1, 1), F(rng.randint(1, 5), 2))
        assert (apply_P(20, x.scale(w) + yv) - (apply_P(20, x).scale(w) + apply_P(20, yv))).is_zero()

    # window conformance for the four published weight pairs (solvable r only),
    # against the windows the solver derived from each source
    conforming = 0
    for (a, b), rs in (
        ((F(3, 2), F(3, 2)), (3, 5, 7)),
        ((F(3, 2), F(5, 2)), (4, 6)),
        ((F(5, 2), F(5, 2)), (3, 5, 7)),
        ((F(3, 2), F(7, 2)), (3, 5, 7)),
    ):
        for r in rs:
            p = Params(a, b, r * (r + 1))
            flat, rep = solve_particular_double(p, source_term(p, 1, 2).core.flat)
            sol = flat.expr()
            assert rep.kernel_dim == 0 and rep.retries == 0
            for cell, poly in sol.table.items():
                m, M = rep.windows[cell]
                assert m <= min(poly.support()) and max(poly.support()) <= M, (a, b, r, cell)
            conforming += 1
    _report(9, True, f"ring axioms, reduction (1e-13), Wronskian (1e-11), linearity, "
                     f"band assertion, window conformance on {conforming} (weights, r) pairs")
