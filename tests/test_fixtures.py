import ast
import operator
import random
import re
from fractions import Fraction

import pytest

from eisenmodes import fixtures
from eisenmodes.bessel import DoubleBessel, apply_P
from eisenmodes.divisors import sigma
from eisenmodes.fixtures import (
    FixtureError,
    _section_names,
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
from eisenmodes.homogeneous import T_MINUS_2_WEIGHTS, solve_mode
from eisenmodes.scalars import Constant, zeta_odd
from eisenmodes.sources import Params, source_term

F = Fraction


def test_expression_evaluator_basics():
    names = _section_names("generic", 1, 2)
    assert eval_table_expr("2 + 3*4", names) == 14
    assert eval_table_expr("1/2", names) == F(1, 2)
    v = eval_table_expr("126/pi**4", names)
    assert v == Constant.pi_power(-4, 126)
    p = eval_table_expr("y**2/(3*y)", names)
    assert p == YLaurent.monomial(1, F(1, 3))
    assert eval_table_expr("sigma(2, 4)", names) == 21
    assert eval_table_expr("z3*y", names) == YLaurent.monomial(1, zeta_odd(3))
    # each value exactly and with its type: numbers stay numbers, a number over
    # a number is a Fraction, and y or ly makes a YLaurent
    pi = Constant.pi_power(1)
    table = {
        "6/3": F(2),
        "n2/n1*3": F(6),
        "1/pi**2": Constant.pi_power(-2),
        "1/y": YLaurent.monomial(-1),
        "1/y**2": YLaurent.monomial(-2),
        "1/(2*y)**2": YLaurent.monomial(-2, F(1, 4)),
        "ly**2": YLaurent.monomial(0, 1, log_exp=2),
        "-y": YLaurent.monomial(1, -1),
        "+ly": YLaurent.monomial(0, 1, log_exp=1),
        "n1/n2": F(1, 2),
        "ly*y/(2*y)": YLaurent.monomial(0, F(1, 2), log_exp=1),
        "7/(2*pi*y**3)": YLaurent.monomial(-3, Constant.pi_power(-1, F(7, 2))),
        "z3/z2": zeta_odd(3) * Constant.pi_power(-2, 6),
        "(pi+1)*y": YLaurent.monomial(1, pi + Constant.one()),
    }
    for text, expected in table.items():
        value = eval_table_expr(text, names)
        assert (type(value), value) == (type(expected), expected), text


# outside the grammar (bool literals, keyword arguments and exponents other
# than integer literals included), divisions and powers of anything but a
# one-term polynomial, log-free for /, divisions by zero, arguments outside
# a call's domain or of the wrong type (non-integer sigma arguments
# included), and broken syntax
REJECTED_TEXTS = (
    "__import__('os')", "unknown_name", "y ** y",
    "1.5", "1 % 2", "~1", "a.b()", "max(1, 2)", "[1]",
    "True + 1", "sigma(True, 4)", "y**True", "abs(-1, foo=bar)",
    "sigma(2, 4, k=y)", "y**n1", "2**n2", "y**(1+1)",
    "y/(y+1)", "1/ly", "(y+1)**2", "(y+1)**0",
    "1/0", "1/(pi+1)", "y/(pi+1)", "sigma(1, 0)", "1 +",
    "abs(y)", "sigma(1/2, 3)", "sigma(1, 7/2)",
)


def test_expression_evaluator_rejects_unsafe():
    names = _section_names("zero_mode", 0, 0)
    for text in REJECTED_TEXTS:
        with pytest.raises(FixtureError):
            eval_table_expr(text, names)


def test_sign_log_and_negative_exponent_words_are_not_grammar():
    # no printed text uses them: a reciprocal is written with / and a sign as sg
    names = _section_names("generic", 1, 2)
    for text, why in (("sgn(n2)", "call 'sgn' not allowed"), ("logn(12)", "call 'logn' not allowed"),
                      *((power, "exponent must be a nonnegative integer literal")
                        for power in ("y**-2", "2**-1", "y**+2"))):
        with pytest.raises(FixtureError, match=f"^{re.escape(why)}$"):
            eval_table_expr(text, names)
        _assert_as_reference(text, names)


# -- the tree walker the compiled texts replaced, kept as the reference --------

_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv}


def _ref_lift(value):
    if isinstance(value, YLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        value = Constant.from_rational(value)
    if isinstance(value, Constant):
        return YLaurent({(0, 0): value})
    raise FixtureError(f"cannot interpret {type(value).__name__} as a polynomial")


def _ref_reciprocal(p):
    items = p.terms()
    if not items:
        raise ZeroDivisionError
    if len(items) != 1:
        raise FixtureError("division by a non-monomial Laurent polynomial")
    ((k, j), c), = items.items()
    if j:
        raise FixtureError("division by log terms")
    return YLaurent.monomial(-k, 1 / c)


def _ref_integer(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int):
        return value
    raise FixtureError(f"argument {value} is not an integer")


def _ref_binop(op, a, b):
    """a op b, left to right, by the evaluation rule of the fixtures module."""
    if isinstance(op, ast.Pow):
        if not isinstance(a, YLaurent):
            return a ** b
        if len(a.terms()) != 1:
            raise FixtureError("power of a non-monomial Laurent polynomial")
        out = YLaurent.one()
        for _ in range(b):
            out = out * a
        return out
    if isinstance(a, YLaurent) or isinstance(b, YLaurent):
        a, b = _ref_lift(a), _ref_lift(b)
        if isinstance(op, ast.Div):
            return a * _ref_reciprocal(b)
    elif isinstance(op, ast.Div) and isinstance(a, int):
        a = Fraction(a)
    return _ARITHMETIC[type(op)](a, b)


def _ref_is_literal(node):
    """A nonnegative integer literal: the only exponent of the grammar."""
    return isinstance(node, ast.Constant) and type(node.value) is int


def _reference_eval(text, names):
    """The tree walker: parses on every call, evaluates each node as it is met."""
    def run(node):
        if isinstance(node, ast.Expression):
            return run(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:
                return node.value
            raise FixtureError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            raise FixtureError(f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp):
            v = run(node.operand)
            if isinstance(node.op, ast.USub):
                return -v
            if isinstance(node.op, ast.UAdd):
                return v
            raise FixtureError("unary operator not allowed")
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise FixtureError("operator not allowed")
            if isinstance(node.op, ast.Pow) and not _ref_is_literal(node.right):
                raise FixtureError("exponent must be a nonnegative integer literal")
            return _ref_binop(node.op, run(node.left), run(node.right))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise FixtureError("only simple calls allowed")
            fname = node.func.id
            if node.keywords:
                raise FixtureError(f"call {fname!r} takes no keyword arguments")
            args = [run(a) for a in node.args]
            if fname == "abs" and len(args) == 1:
                return abs(args[0])
            if fname == "sigma" and len(args) == 2:
                return sigma(_ref_integer(args[0]), abs(_ref_integer(args[1])))
            raise FixtureError(f"call {fname!r} not allowed")
        raise FixtureError(f"syntax {type(node).__name__} not allowed")

    try:
        return run(ast.parse(text, mode="eval"))
    except FixtureError:
        raise
    except (SyntaxError, TypeError, ValueError, ZeroDivisionError) as exc:
        why = "division by zero" if isinstance(exc, ZeroDivisionError) else exc
        raise FixtureError(f"cannot evaluate {text!r}: {why}") from exc


def _outcome(evaluate, text, names, message):
    """(type, value) of the result, or FixtureError and its message if asked for."""
    try:
        value = evaluate(text, names)
    except FixtureError as exc:
        return FixtureError, str(exc) if message else None
    return type(value), value


def _assert_as_reference(text, names, message=True):
    assert (_outcome(eval_table_expr, text, names, message)
            == _outcome(_reference_eval, text, names, message)), text


# products that mix numbers, Constants and polynomials and divide by each,
# numbers also after a polynomial and over each other within one product.
# The last two divide by zero: a polynomial, and a Constant.
MIXED_TEXTS = (
    "6/3", "n2/n1", "6/3*pi", "pi*6/3", "y*6/3", "6/(3*y)", "2/pi*3/y*n2",
    "ly*y/(2*y)*pi/n2", "-n1*(y+1)/2*z3/pi**2*sg1", "sigma(2, n2)/sigma(2, n1)",
    "abs(n1-n2)*sigma(1, 12)/3", "(pi+1)*2/4", "y**2/(n1*y)**3", "z3/z2*y/3 - 1/(2*y)",
    "126/pi**4*n1*n2/(y**3*(n1+n2)**10)", "n1*ly/(n1+n2)", "y*n1/n2/3",
    "sigma(2, n1)/abs(n2)/y*pi", "y/(n1-n1)", "pi/(n1-n1)*y",
)


def test_small_texts_evaluate_as_the_reference():
    for text in REJECTED_TEXTS:
        _assert_as_reference(text, _section_names("zero_mode", 0, 0))
    for n1, n2 in ((1, 2), (-3, 3), (4, -2), (6, 3)):
        for text in MIXED_TEXTS:
            _assert_as_reference(text, _section_names("generic", n1, n2), message=False)
    # a zero divisor of any kind names one fault
    names = _section_names("generic", 1, 2)
    for text in (*MIXED_TEXTS[-2:], "1/(0*pi)", "1/(0*pi)**2", "y/(y-y)", "1/(y-y)", "1/0**2"):
        _assert_as_reference(text, names)
        with pytest.raises(FixtureError, match=r": division by zero$"):
            eval_table_expr(text, names)


def test_texts_compile_once_per_set_of_bound_words():
    # where the tables bind ints, also a Fraction, a Constant and a polynomial,
    # so that each text that reads n1 or n2 meets values of several kinds;
    # each text binds the same words every time, so it is compiled once and
    # then only run, whatever the kinds of its values
    others = (F(3, 2), Constant.pi_power(-1, 2), YLaurent.monomial(2, F(-1, 3)))
    fixtures._program.cache_clear()
    signatures = set()
    for n1, n2 in ((1, 2), (-3, 3)):
        for value in (n1, *others):
            for bound in ({"n1": value}, {"n2": value, "sg1": value}):
                names = {**_section_names("generic", n1, n2), **bound}
                for text in MIXED_TEXTS:
                    _assert_as_reference(text, names, message=False)
                    _assert_as_reference(text, names, message=False)
                    read = {node.id for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Name)}
                    signatures.add((text, tuple(sorted((n, type(names[n])) for n in read & set(names)))))
    assert len(signatures) > 2 * len(MIXED_TEXTS)
    assert fixtures._program.cache_info().misses == len(MIXED_TEXTS) == 20


def test_table_text_reaches_no_helper():
    # text names become the parameters v0, v1, ... of the compiled function;
    # the helpers it calls and the builtins are out of any text's reach
    names = _section_names("generic", 1, 2)
    for text in ("_P(0, 1)", "_product('', 1)", "_power(2, 3)", "_sum('+', 1, 2)",
                 "_sigma(2, 4)", "_abs(-1)", "_product", "_power", "__builtins__",
                 "v0", "n1 + v0", "_HELPERS", "__import__", "eval('1')", "lambda: 1"):
        with pytest.raises(FixtureError):
            eval_table_expr(text, names)
        _assert_as_reference(text, names)
    # a name that spells a helper or a parameter is just a name
    names.update(_product=5, v0=3, v1=7)
    for text in ("_product * 2", "v1 - v0", "v0 * n2 - n1 * v1"):
        _assert_as_reference(text, names)
    assert eval_table_expr("v1 - v0", names) == 4


def _embedded_texts():
    """(text, case, compared modes) for every text the package embeds: cells,
    prefactors, zero modes, errata and the T-2 combination table."""
    tables = load_tables()
    modes = {}
    for key, fam in tables["families"].items():
        alpha, beta, lam = key.split(",")
        modes[key] = fixture_modes(F(alpha), F(beta), int(lam))
        for case, section in fam.items():
            texts = [section] if case == "zero_mode" else [section["prefactor"], *section["cells"].values()]
            for text in texts:
                yield text, case, modes[key][case]
    t2 = tables["combination_T-2"]
    for text in (t2["prefactor"], *t2["cells"].values()):
        yield text, "generic", T2_PAIRS
    for key, entry in tables["errata"].items():
        family, case, _ = key.split("|")
        if family == "combination_T-2":
            yield entry["expr"], "generic", T2_PAIRS
        else:
            yield entry["expr"], case, modes[family][case]


def test_every_embedded_text_evaluates_as_the_reference():
    rng = random.Random(37)
    texts = list(_embedded_texts())
    assert len({text for text, _, _ in texts}) >= 100
    for text, case, modes in texts:
        drawn = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(6)]
        for n1, n2 in [*modes, *drawn]:
            _assert_as_reference(text, _section_names(case, n1, n2))


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


def test_compare_expressions_lists_the_differing_cells_only():
    # the comparison that subtracted every cell is kept as the reference
    def every_cell(computed, printed):
        zero = YLaurent.zero()
        return [f"cell {cell} y^{k} log^{j}: difference {c!r}"
                for cell in sorted(set(computed.table) | set(printed.table))
                for (k, j), c in (computed.table.get(cell, zero)
                                  - printed.table.get(cell, zero)).items_sorted()]

    mode = solve_mode(Params(F(3, 2), F(3, 2), 30), 1, 2)
    printed = fixture_particular(F(3, 2), F(3, 2), 30, 1, 2)
    assert compare_expressions(mode.particular, printed) == every_cell(mode.particular, printed) == []
    cells = sorted(printed.table)
    (k, j), c = printed.table[cells[0]].items_sorted()[0]
    perturbed = dict(printed.table)
    perturbed[cells[0]] = printed.table[cells[0]] + YLaurent.monomial(k, c * F(1, 7), log_exp=j)
    del perturbed[cells[-1]]
    bad = DoubleBessel(1, 2, perturbed)
    diffs = compare_expressions(mode.particular, bad)
    assert diffs == every_cell(mode.particular, bad)
    assert diffs[0] == f"cell {cells[0]} y^{k} log^{j}: difference {-c * F(1, 7)!r}"
    assert len(diffs) == 1 + len(printed.table[cells[-1]].terms())


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
    names = _section_names("generic", n1, n2)
    return DoubleBessel(n1, n2, _section_table(section, names, lambda key, printed: printed))


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
