from fractions import Fraction

import pytest

from eisenmodes import fixtures
from eisenmodes.bessel import DoubleBessel, apply_P
from eisenmodes.fixtures import (
    FixtureError,
    _base_names,
    _mode_names,
    _section_table,
    compare_expressions,
    eval_table_expr,
    family_key,
    fixture_combination,
    fixture_modes,
    fixture_particular,
    fixture_zero_mode,
    list_families,
    load_tables,
)
from eisenmodes.laurent import YLaurent
from eisenmodes.homogeneous import T_MINUS_2_WEIGHTS
from eisenmodes.scalars import Constant, sym_ln_prime, zeta_odd
from eisenmodes.sources import source_term

F = Fraction


def test_expression_evaluator_basics():
    names = _mode_names(n1=1, n2=2)
    assert eval_table_expr("2 + 3*4", names) == 14
    assert eval_table_expr("1/2", names) == F(1, 2)
    v = eval_table_expr("126/pi**4", names)
    assert v == Constant.pi_power(-4, 126)
    p = eval_table_expr("y**2/(3*y)", names)
    assert p == YLaurent.monomial(1, F(1, 3))
    assert eval_table_expr("sigma(2, 4)", names) == 21
    assert eval_table_expr("sgn(n2)*abs(n2)", names) == 2
    assert eval_table_expr("z3*y", names) == YLaurent.monomial(1, zeta_odd(3))
    # each value exactly and with its type: numbers stay numbers, a number over
    # a number is a Fraction, and y or ly makes a YLaurent
    pi = Constant.pi_power(1)
    table = {
        "2**-1": F(1, 2),
        "pi**-2": Constant.pi_power(-2),
        "1/y": YLaurent.monomial(-1),
        "y**-2": YLaurent.monomial(-2),
        "(y+1)**2": YLaurent({(0, 0): 1, (1, 0): 2, (2, 0): 1}),
        "-y": YLaurent.monomial(1, -1),
        "+ly": YLaurent.monomial(0, 1, log_exp=1),
        "n1/n2": F(1, 2),
        "logn(12)": Constant.monomial(sym_ln_prime(2), coeff=2) + Constant.monomial(sym_ln_prime(3)),
        "ly*y/(2*y)": YLaurent.monomial(0, F(1, 2), log_exp=1),
        "7/(2*pi*y**3)": YLaurent.monomial(-3, Constant.pi_power(-1, F(7, 2))),
        "z3/z2": zeta_odd(3) * Constant.pi_power(-2, 6),
        "(pi+1)*y": YLaurent.monomial(1, pi + Constant.one()),
        "(y+1)**0": YLaurent.one(),
    }
    for text, expected in table.items():
        value = eval_table_expr(text, names)
        assert (type(value), value) == (type(expected), expected), text


def test_expression_evaluator_rejects_unsafe():
    names = _base_names()
    with pytest.raises(FixtureError):
        eval_table_expr("__import__('os')", names)
    with pytest.raises(FixtureError):
        eval_table_expr("unknown_name", names)
    with pytest.raises(FixtureError):
        eval_table_expr("y ** y", names)
    # outside the grammar, divisions by anything but a log-free y-monomial,
    # divisions by zero, arguments outside a call's domain or of the wrong
    # type, and broken syntax
    for text in ("1.5", "1 % 2", "~1", "a.b()", "max(1, 2)", "[1]",
                 "y/(y+1)", "1/ly", "(y+1)**-1",
                 "1/0", "0**-1", "1/(pi+1)", "y/(pi+1)", "sigma(1, 0)", "logn(0)", "1 +",
                 "sgn(pi)", "abs(y)"):
        with pytest.raises(FixtureError):
            eval_table_expr(text, names)


def test_families_present():
    fams = list_families()
    assert len(fams) == 10
    assert "3/2,3/2,30" in fams and "3/2,7/2,12" in fams


def test_zero_mode_fixture_values():
    z = fixture_zero_mode(F(3, 2), F(3, 2), 30)
    assert z.poly.coeff(-1) == Constant.pi_power(4, F(10, 630))
    z2 = fixture_zero_mode(F(3, 2), F(3, 2), 2)
    assert z2.poly.coeff(-1, 1) == Constant.pi_power(4, F(48, 9 * 36))


def test_errata_lookup_and_flagging(monkeypatch):
    errata = load_tables()["errata"]
    assert f"{family_key(F(3, 2), F(3, 2), 56)}|left|1" in errata
    assert f"{family_key(F(3, 2), F(3, 2), 30)}|left|1" not in errata
    used = []
    fixture_particular(F(3, 2), F(3, 2), 56, 0, 2, errata_used=used)
    assert used and used[0][0] == "left"
    corrected = fixture_particular(F(3, 2), F(3, 2), 56, 0, 2)
    verbatim_tables = {**load_tables(), "errata": {}}
    monkeypatch.setattr(fixtures, "load_tables", lambda: verbatim_tables)
    verbatim = fixture_particular(F(3, 2), F(3, 2), 56, 0, 2)
    assert compare_expressions(verbatim, corrected)  # they genuinely differ


def test_fixture_modes_listing():
    modes = fixture_modes(F(3, 2), F(3, 2), 30)
    assert (1, -3) in modes["generic"]
    assert (0, 0) in modes["zero_mode"]


def test_unknown_family_raises():
    with pytest.raises(FixtureError):
        fixture_particular(F(9, 2), F(9, 2), 30, 1, 2)


T2_PAIRS = [(1, 2), (2, 1), (2, 3), (2, -3), (-2, 3), (3, -1), (1, -4)]


def _printed_t_minus_2(n1, n2):
    """The T-2 table exactly as printed, no errata."""
    section = load_tables()["combination_T-2"]
    return DoubleBessel(n1, n2, _section_table(section, _mode_names(n1=n1, n2=n2)))


@pytest.mark.parametrize("n1, n2", T2_PAIRS)
def test_t_minus_2_table_satisfies_operator_identity(n1, n2):
    """P_42(T2 - c2 t20) = c1 s42 exactly, from printed tables and apply_P only.

    T2 = c1 g42 + c2 g20 with g the (5/2,3/2,lam) correlator modes, so P_42
    removes g42 and leaves its source.  t20 is the printed (3/2,5/2,20) table
    at (n2, n1), transposed, times 2/3 (published c = 6, correlator c = 4).
    The printed T2 satisfies the identity at same signs and only its negative
    does at opposite signs: the opposite_sign erratum of combination_T-2.
    """
    (c1, p42), (c2, _) = T_MINUS_2_WEIGHTS
    t = fixture_particular(F(3, 2), F(5, 2), 20, n2, n1)
    t20 = DoubleBessel(n1, n2, {(j, i): q for (i, j), q in t.table.items()}).scale(F(2, 3))
    rhs = source_term(p42, n1, n2).full().scale(c1)

    def holds(t2):
        return (apply_P(42, t2 - t20.scale(c2)) - rhs).is_zero()

    printed = _printed_t_minus_2(n1, n2)
    sign = 1 if n1 * n2 > 0 else -1
    assert holds(printed.scale(sign))
    assert not holds(printed.scale(-sign))


@pytest.mark.parametrize("n1, n2", T2_PAIRS)
def test_t_minus_2_erratum_negates_opposite_signs_only(n1, n2):
    used = []
    corrected = fixture_combination(n1, n2, errata_used=used)
    sign = 1 if n1 * n2 > 0 else -1
    assert corrected == _printed_t_minus_2(n1, n2).scale(sign)
    expected = [] if sign > 0 else [("opposite_sign", "prefactor")]
    assert [(case, key) for case, key, _ in used] == expected
