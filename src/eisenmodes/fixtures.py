"""Embedded worked-solution tables and their comparison machinery.

The published tables are transcribed verbatim (symbolic in n1, n2 with sign
markers) into ``data/worked_tables.json`` as restricted expression strings and
evaluated at concrete integers at comparison time, so any typo in a source
table stays a data-level erratum rather than code.

Grammar: integers, + - * / ** and parentheses; names

    n1 n2 n y ly pi z2..z8 sg sg1 sg2

(ly is log(y); z-even are exact pi powers, z-odd symbolic) and the calls
abs(.), sgn(.), sigma(k, .), logn(.) = log|.| over prime logarithms.

Evaluation rule: ints, Fractions and Constants combine as they are, through
their own operators, and a number divided by a number is a Fraction.  Only a
polynomial operand (a YLaurent: y, ly or anything built from them) lifts the
other one to a YLaurent.  A polynomial divides only by a log-free y-monomial
(``_reciprocal``), which also takes negative powers; a positive power is a
repeated product.
"""

from __future__ import annotations

import ast
import json
import operator
from fractions import Fraction
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


_ALLOWED_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow}


_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv}


def _reciprocal(p: YLaurent) -> YLaurent:
    """1/p for a log-free y-monomial p, the only polynomial a table divides by."""
    items = p.terms()
    if len(items) != 1:
        raise FixtureError("division by a non-monomial Laurent polynomial")
    ((k, j), c), = items.items()
    if j:
        raise FixtureError("division by log terms")
    return YLaurent.monomial(-k, 1 / c)


def _apply_binop(op, a, b):
    """a op b by the evaluation rule of the module docstring."""
    if isinstance(op, ast.Pow):
        if not isinstance(b, int):
            raise FixtureError("exponent must be an integer literal")
        if not isinstance(a, YLaurent):
            return Fraction(a) ** b if b < 0 and isinstance(a, int) else a ** b
        base, out = _reciprocal(a) if b < 0 else a, YLaurent.one()
        for _ in range(abs(b)):
            out = out * base
        return out
    if isinstance(a, YLaurent) or isinstance(b, YLaurent):
        a, b = _as_ylaurent(a), _as_ylaurent(b)
        if isinstance(op, ast.Div):
            return a * _reciprocal(b)
    elif isinstance(op, ast.Div) and isinstance(a, int):
        a = Fraction(a)
    return _ARITHMETIC[type(op)](a, b)


def eval_table_expr(text: str, names: Dict) -> object:
    """Evaluate a restricted arithmetic expression over the scalar ring.

    Every rejection is a ``FixtureError``: text that does not parse, a
    division by zero and an argument outside a call's domain included.
    """
    def run(node):
        if isinstance(node, ast.Expression):
            return run(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
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
            return _apply_binop(node.op, run(node.left), run(node.right))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name):
                raise FixtureError("only simple calls allowed")
            fname = node.func.id
            args = [run(a) for a in node.args]
            if fname == "abs" and len(args) == 1:
                return abs(args[0])
            if fname == "sgn" and len(args) == 1:
                return 1 if args[0] > 0 else (-1 if args[0] < 0 else 0)
            if fname == "sigma" and len(args) == 2:
                return sigma(int(args[0]), abs(int(args[1])))
            if fname == "logn" and len(args) == 1:
                return log_normalize(abs(int(args[0])))
            raise FixtureError(f"call {fname!r} not allowed")
        raise FixtureError(f"syntax {type(node).__name__} not allowed")

    try:
        return run(ast.parse(text, mode="eval"))
    except FixtureError:
        raise
    except (SyntaxError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FixtureError(f"cannot evaluate {text!r}: {exc}") from exc


def _base_names() -> Dict:
    names: Dict = {
        "pi": Constant.pi_power(1),
        "y": YLaurent.monomial(1),
        "ly": YLaurent.monomial(0, 1, log_exp=1),
    }
    for k in range(2, 9):
        names[f"z{k}"] = zeta_value(k)
    return names


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


def _as_ylaurent(value) -> YLaurent:
    if isinstance(value, YLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        value = Constant.from_rational(value)
    if isinstance(value, Constant):
        return YLaurent({(0, 0): value})
    raise FixtureError(f"cannot interpret {type(value).__name__} as a polynomial")


def _as_constant(value) -> Constant:
    if isinstance(value, Constant):
        return value
    if isinstance(value, (int, Fraction)):
        return Constant.from_rational(value)
    raise FixtureError("expected a scalar value")


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
