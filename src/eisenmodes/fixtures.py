"""Embedded worked-solution tables and their comparison machinery.

The published tables are transcribed verbatim (symbolic in n1, n2 with sign
markers) into ``data/worked_tables.json`` as restricted expression strings and
evaluated at concrete integers at comparison time, so any typo in a source
table stays a data-level erratum rather than code.

Grammar: integer literals (never True or False), + - * / ** and parentheses;
names

    n1 n2 n y ly pi z2..z8 sg sg1 sg2

(ly is log(y); z-even are exact pi powers, z-odd symbolic) and the calls
abs(.), sgn(.), sigma(k, .), logn(.) = log|.| over prime logarithms, with
positional arguments only; the arguments of sigma and logn must be integers.
An exponent is an integer literal, optionally signed.

Evaluation rule: ints, Fractions and Constants combine as they are, through
their own operators, and a number divided by a number is a Fraction.  Only a
polynomial operand (a YLaurent: y, ly or anything built from them) lifts the
other one to a YLaurent.  A polynomial enters / and ** only as a one-term
monomial c y^k log^j, log-free for / and for negative powers, and
(c y^k log^j)^b is c^b y^(kb) log^(jb) (``_monomial_power``).

Each text is parsed, checked against the grammar and compiled once per
process (``_program``); every later evaluation only runs it, and the helpers
it calls raise only on values.  A product, a left-leaning run of * and /, is
evaluated rational-first: its numbers, then its Constants, then its
polynomials, each kind in text order.  The ring is exact and a text divides
only by units, so every value and its type are the ones the left-to-right
reading gives.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .bessel import DoubleBessel, Pure, SingleBessel
from .divisors import sigma
from .laurent import YLaurent
from .scalars import Constant, log_normalize, zeta_value

__all__ = [
    "FixtureError",
    "eval_table_expr",
    "load_tables",
    "family_key",
    "fixture_particular",
    "fixture_combination",
    "fixture_zero_mode",
    "fixture_modes",
    "compare_expressions",
    "list_families",
]


class FixtureError(ValueError):
    pass


def _monomial_power(p: YLaurent, b: int) -> YLaurent:
    """p**b for a one-term p = c y^k log^j, log-free if b < 0: c^b y^(kb) log^(jb).

    The only polynomial operand of ** and, as p**-1, of /; a negative power is
    a division, and its errors say so.
    """
    items = p.terms()
    if len(items) != 1:
        what = "division by" if b < 0 else "power of"
        raise FixtureError(f"{what} a non-monomial Laurent polynomial")
    ((k, j), c), = items.items()
    if j and b < 0:
        raise FixtureError("division by log terms")
    return YLaurent.monomial(k * b, c ** b, log_exp=j * b)


def _integer(value) -> int:
    """A sigma or logn argument: an int, or a Fraction equal to one."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int):
        return value
    raise FixtureError(f"argument {value} is not an integer")


# -- the helpers a compiled text calls; each applies the evaluation rule ------

def _sum(signs: str, first, *rest):
    """first signs[0] rest[0] signs[1] rest[1] ..., left to right."""
    acc = first
    for sign, b in zip(signs, rest):
        if isinstance(acc, YLaurent) or isinstance(b, YLaurent):
            acc, b = _as_ylaurent(acc), _as_ylaurent(b)
        acc = acc + b if sign == "+" else acc - b
    return acc


_KIND_RANK = {Constant: 1, YLaurent: 2}  # any other value is a number, rank 0


def _rank(item) -> int:
    return _KIND_RANK.get(type(item[1]), 0)


def _product(ops: str, *factors):
    """factors[0] ops[0] factors[1] ..., each op "*" or "/", rational-first.

    From 1, the numbers come first, then the Constants, then the polynomials,
    each kind in text order (a stable sort); the first polynomial lifts the
    product so far.  The ring is exact and a text divides only by units
    (nonzero numbers, one-term Constants, log-free y-monomials), so the value
    and its type are those of the left-to-right product.
    """
    acc = 1
    for op, b in sorted(zip("*" + ops, factors), key=_rank):
        if isinstance(b, YLaurent):
            acc = _as_ylaurent(acc) * (b if op == "*" else _monomial_power(b, -1))
        elif op == "*":
            acc = acc * b
        else:
            acc = (Fraction(acc) if isinstance(acc, int) else acc) / b
    return acc


def _power(a, b: int):
    """a**b; b is an integer literal (``_program``)."""
    if isinstance(a, YLaurent):
        return _monomial_power(a, b)
    return Fraction(a) ** b if b < 0 and isinstance(a, int) else a ** b


def _sgn(v) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


def _sigma(k, n) -> Fraction:
    return sigma(_integer(k), abs(_integer(n)))


def _logn(m) -> Constant:
    return log_normalize(abs(_integer(m)))


# The whole namespace of a compiled text: no builtins, only these helpers.
_HELPERS = {"__builtins__": {}, "_sum": _sum, "_product": _product, "_power": _power,
            "_abs": abs, "_sgn": _sgn, "_sigma": _sigma, "_logn": _logn}

# call name -> (helper, number of arguments)
_CALLS = {"abs": ("_abs", 1), "sgn": ("_sgn", 1), "sigma": ("_sigma", 2), "logn": ("_logn", 1)}

_SUMS = {ast.Add: "+", ast.Sub: "-"}
_PRODUCTS = {ast.Mult: "*", ast.Div: "/"}


def _chain(node, ops: Dict) -> Tuple[list, str]:
    """The operands, in text order, and operators of node's left-leaning run of ops."""
    operands, signs = [], []
    while isinstance(node, ast.BinOp) and type(node.op) in ops:
        operands.append(node.right)
        signs.append(ops[type(node.op)])
        node = node.left
    operands.append(node)
    return operands[::-1], "".join(reversed(signs))


@lru_cache(maxsize=None)
def _program(text: str):
    """The text parsed, validated and compiled once: (function, the names it reads).

    The function takes the values of those names, in that order.  Its body is
    one Python expression over _HELPERS alone: text names become its
    parameters v0, v1, ..., so no text reaches a helper or a builtin.  A text
    outside the grammar raises the FixtureError the grammar check names.
    """
    params: Dict[str, str] = {}

    def emit(node) -> str:
        if isinstance(node, ast.Constant):
            if type(node.value) is int:
                return repr(node.value)
            raise FixtureError(f"literal {node.value!r} not allowed")
        if isinstance(node, ast.Name):
            return params.setdefault(node.id, f"v{len(params)}")
        if isinstance(node, ast.UnaryOp):
            operand = emit(node.operand)
            if isinstance(node.op, ast.USub):
                return f"(-{operand})"
            if isinstance(node.op, ast.UAdd):
                return operand
            raise FixtureError("unary operator not allowed")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                exponent = node.right  # an integer literal, optionally signed
                if isinstance(exponent, ast.UnaryOp) and type(exponent.op) in (ast.UAdd, ast.USub):
                    exponent = exponent.operand
                if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int):
                    raise FixtureError("exponent must be an integer literal")
                return f"_power({emit(node.left)}, {emit(node.right)})"
            for helper, ops in (("_sum", _SUMS), ("_product", _PRODUCTS)):
                if type(node.op) in ops:
                    operands, signs = _chain(node, ops)
                    return f"{helper}({signs!r}, {', '.join(emit(x) for x in operands)})"
            raise FixtureError("operator not allowed")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise FixtureError("only simple calls allowed")
            if node.keywords:
                raise FixtureError(f"call {node.func.id!r} takes no keyword arguments")
            args = [emit(a) for a in node.args]
            helper, arity = _CALLS.get(node.func.id, (None, None))
            if len(args) != arity:
                raise FixtureError(f"call {node.func.id!r} not allowed")
            return f"{helper}({', '.join(args)})"
        raise FixtureError(f"syntax {type(node).__name__} not allowed")

    body = emit(ast.parse(text, mode="eval").body)
    return eval(f"lambda {', '.join(params.values())}: {body}", _HELPERS), tuple(params)


def eval_table_expr(text: str, names: Dict) -> object:
    """Evaluate a restricted arithmetic expression over the scalar ring.

    The text is compiled once per process (``_program``).  Every rejection is
    a ``FixtureError``: text that does not parse, a name missing from names,
    a division by zero and an argument outside a call's domain included.
    """
    try:
        function, used = _program(text)
        values = []
        for name in used:
            if name not in names:
                raise FixtureError(f"unknown name {name!r}")
            values.append(names[name])
        return function(*values)
    except FixtureError:
        raise
    except (SyntaxError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FixtureError(f"cannot evaluate {text!r}: {exc}") from exc


_BASE_NAMES: Dict = {
    "pi": Constant.pi_power(1),
    "y": YLaurent.monomial(1),
    "ly": YLaurent.monomial(0, 1, log_exp=1),
    **{f"z{k}": zeta_value(k) for k in range(2, 9)},
}


def _base_names() -> Dict:
    return dict(_BASE_NAMES)


def _mode_names(n1: Optional[int] = None, n2: Optional[int] = None,
                n: Optional[int] = None) -> Dict:
    names = _base_names()
    if n1 is not None:
        names.update(n1=n1, sg1=1 if n1 > 0 else -1)
    if n2 is not None:
        names.update(n2=n2, sg2=1 if n2 > 0 else -1)
    if n is not None:
        names.update(n=n, sg=1 if n > 0 else -1)
    return names


def _as_constant(value) -> Constant:
    if isinstance(value, Constant):
        return value
    if isinstance(value, (int, Fraction)):
        return Constant.from_rational(value)
    raise FixtureError("expected a scalar value")


def _as_ylaurent(value) -> YLaurent:
    """A polynomial, or a scalar lifted to a constant one."""
    return value if isinstance(value, YLaurent) else YLaurent({(0, 0): _as_constant(value)})


_TABLES = None


def load_tables() -> dict:
    global _TABLES
    if _TABLES is None:
        with resources.files("eisenmodes.data").joinpath("worked_tables.json").open() as fh:
            _TABLES = json.load(fh)
    return _TABLES


def family_key(alpha, beta, lam: int) -> str:
    return f"{alpha},{beta},{lam}"


def list_families() -> List[str]:
    return sorted(load_tables()["families"])


def _family(alpha, beta, lam) -> dict:
    key = family_key(alpha, beta, lam)
    fams = load_tables()["families"]
    if key not in fams:
        raise FixtureError(f"no fixture family {key}")
    return fams[key]


def fixture_zero_mode(alpha, beta, lam: int) -> Pure:
    fam = _family(alpha, beta, lam)
    if "zero_mode" not in fam:
        raise FixtureError("family has no zero-mode fixture")
    poly = _as_ylaurent(eval_table_expr(fam["zero_mode"], _base_names()))
    return Pure(poly)


def _corrected_text(family: str, case: str, used: list):
    """The text hook of _section_table: an erratum's text replaces the printed one."""
    errata = load_tables().get("errata", {})

    def text(key, printed):
        entry = errata.get(f"{family}|{case}|{key}")
        if entry is None:
            return printed
        used.append((case, key, entry["reason"]))
        return entry["expr"]

    return text


def _cell_key(text: str):
    """Printed cell names: "0" is a single-Bessel cell, "01" the double-Bessel (0, 1)."""
    return int(text) if len(text) == 1 else (int(text[0]), int(text[1]))


def _section_table(section: dict, names: Dict, text=lambda key, printed: printed) -> Dict:
    """A printed table's cells, each times its prefactor, keyed by cell.

    text(key, printed) may replace the printed text of a cell or of the
    "prefactor" (errata).
    """
    pref = _as_constant(eval_table_expr(text("prefactor", section["prefactor"]), names))
    return {
        _cell_key(c): _as_ylaurent(eval_table_expr(text(c, printed), names)).scale(pref)
        for c, printed in section["cells"].items()
    }


def fixture_particular(alpha, beta, lam: int, n1: int, n2: int,
                       errata_used: Optional[list] = None):
    """The printed particular solution evaluated at concrete (n1, n2).

    The handful of documented table typos are replaced by their corrected
    entries; the list of applied errata is appended to errata_used when given.
    """
    fam = _family(alpha, beta, lam)
    used = errata_used if errata_used is not None else []
    if n1 == 0 and n2 == 0:
        return fixture_zero_mode(alpha, beta, lam)
    if n1 == 0 or n2 == 0:
        case = "left" if n1 == 0 else "right"
        n = n2 if n1 == 0 else n1
        names = _mode_names(n=n)
    else:
        case = "anti_diagonal" if n1 + n2 == 0 else "generic"
        names = _mode_names(n1=n1, n2=n2)
        if n1 + n2 == 0:
            # the printed anti-diagonal tables are written in terms of n2
            names = _mode_names(n1=n1, n2=n2, n=n2)

    text = _corrected_text(family_key(alpha, beta, lam), case, used)
    table = _section_table(fam[case], names, text)
    return SingleBessel(n, table) if n1 == 0 or n2 == 0 else DoubleBessel(n1, n2, table)


def fixture_combination(n1: int, n2: int, errata_used: Optional[list] = None) -> DoubleBessel:
    """The printed T-2 combination table evaluated at concrete (n1, n2).

    The table is printed for the generic modes only: it divides by n1 + n2
    and takes divisor sums of n1 and n2, so it needs n1 n2 != 0 and
    n1 + n2 != 0.  Its errata (case "same_sign" or "opposite_sign", by the
    sign of n1 n2) are applied, and appended to errata_used when given, as in
    fixture_particular.
    """
    if n1 * n2 == 0 or n1 + n2 == 0:
        raise FixtureError(
            f"the T-2 combination table needs n1*n2 != 0 and n1+n2 != 0, got ({n1}, {n2})")
    used = errata_used if errata_used is not None else []
    case = "same_sign" if n1 * n2 > 0 else "opposite_sign"
    text = _corrected_text("combination_T-2", case, used)
    section = load_tables()["combination_T-2"]
    return DoubleBessel(n1, n2, _section_table(section, _mode_names(n1=n1, n2=n2), text))


def fixture_modes(alpha, beta, lam: int) -> Dict[str, List[Tuple[int, int]]]:
    """Which (n1, n2) pairs each table of a family is compared at."""
    fam = _family(alpha, beta, lam)
    out: Dict[str, List[Tuple[int, int]]] = {}
    if "zero_mode" in fam:
        out["zero_mode"] = [(0, 0)]
    if "left" in fam:
        out["left"] = [(0, n) for n in (1, 2, 3)]
    if "right" in fam:
        out["right"] = [(n, 0) for n in (1, 2, 3)]
    if "generic" in fam:
        out["generic"] = [(1, 1), (1, 2), (2, 1), (2, 3), (1, -3), (3, -1)]
    if "anti_diagonal" in fam:
        out["anti_diagonal"] = [(-1, 1), (-2, 2), (-3, 3), (1, -1)]
    return out


def compare_expressions(computed, printed) -> List[str]:
    """Cell-by-cell exact comparison; returns human-readable differences.

    Expressions of different kinds or frequencies differ as a whole."""
    diffs: List[str] = []
    if isinstance(computed, Pure) and isinstance(printed, Pure):
        delta = computed.poly - printed.poly
        for (k, j), c in delta.items_sorted():
            diffs.append(f"y^{k} log^{j}: difference {c!r}")
        return diffs
    if type(computed) is not type(printed) or computed.freqs != printed.freqs:
        return [f"kind mismatch: {type(computed).__name__}{computed.freqs} vs "
                f"{type(printed).__name__}{printed.freqs}"]
    keys = set(computed.table) | set(printed.table)
    zero = YLaurent.zero()
    for cell in sorted(keys):
        delta = computed.table.get(cell, zero) - printed.table.get(cell, zero)
        for (k, j), c in delta.items_sorted():
            diffs.append(f"cell {cell} y^{k} log^{j}: difference {c!r}")
    return diffs
