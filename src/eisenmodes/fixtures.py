"""Embedded worked-solution tables and their comparison machinery.

The published tables are transcribed verbatim (symbolic in n1, n2 with sign
markers) into ``data/worked_tables.json`` as restricted expression strings and
evaluated at concrete integers at comparison time, so any typo in a source
table stays a data-level erratum rather than code.

Grammar: integer literals (never True or False), + - * / ** and parentheses;
names (ASCII words)

    n1 n2 n y ly pi z2..z8 sg sg1 sg2

(ly is log(y); z-even are exact pi powers, z-odd symbolic) and the calls
abs(.) and sigma(k, .), with positional arguments only; the arguments of
sigma must be integers.  An exponent is a nonnegative integer literal, so
a reciprocal is written with / (as 1/y).

Evaluation rule: every value combines with every other through its own
operators (``Constant`` and ``YLaurent`` take each other and the numbers),
except that an int over an int is a Fraction.  So a number over a number
is a Fraction, a scalar meeting a polynomial (y, ly or anything built from
them) is lifted or scales it, and a polynomial enters / and ** only as a
one-term monomial c y^k log^j, log-free for / (``YLaurent.__pow__``).

Each text is compiled once per set of bound words: which of its names the
caller binds (``_program``).  Its own syntax tree is checked against the
grammar and compiled to native Python arithmetic (``_rewrite``) with two
rewrites: names become the parameters of the compiled function, and /
calls ``_div``, which makes an int over an int a Fraction.
The text then runs in the order of its left-to-right reading, and of two
faults in its values the one that reading meets first is named.  Grammar
faults and unbound names are named when the text compiles.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .bessel import DoubleBessel, Pure, SingleBessel
from .divisors import sigma
from .laurent import NotAMonomial, YLaurent
from .scalars import Constant, zeta_value
from .sources import case_tag

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


def _integer(value) -> int:
    """A sigma argument: an int, or a Fraction equal to one."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int):
        return value
    raise FixtureError(f"argument {value} is not an integer")


# -- the helpers a compiled text calls ----------------------------------------

def _div(a, b):
    """a / b, a Fraction for two ints."""
    return Fraction(a, b) if type(a) is type(b) is int else a / b


def _sigma(k, n) -> int | Fraction:
    return sigma(_integer(k), abs(_integer(n)))


# The whole namespace of a compiled text: no builtins, only these helpers.
_HELPERS = {"__builtins__": {}, "_div": _div, "_abs": abs, "_sigma": _sigma}

# -- compiling a text ---------------------------------------------------------

# call name -> its number of arguments; a call runs the helper "_" + name
_CALLS = {"abs": 1, "sigma": 2}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_LOAD = ast.Load()


def _node(cls, *fields) -> ast.AST:
    """A new node, at the one location compile() asks of every node."""
    return cls(*fields, lineno=1, col_offset=0)


def _call(helper: str, *args) -> ast.Call:
    return _node(ast.Call, _node(ast.Name, helper, _LOAD), list(args), [])


def _rewrite(node, params: Dict[str, str]) -> ast.expr:
    """node rewritten in place to native arithmetic, / through ``_div``.

    params maps each bound name to its parameter.  A node outside the
    grammar, or a name that is not bound, raises the FixtureError that names
    it, in the order the left-to-right reading meets it.
    """
    cls = type(node)
    if cls is ast.Name:
        if node.id not in params:
            raise FixtureError(f"unknown name {node.id!r}")
        node.id = params[node.id]
        return node
    if cls is ast.Constant:
        if type(node.value) is int:
            return node
        raise FixtureError(f"literal {node.value!r} not allowed")
    if cls is ast.BinOp and type(node.op) in (ast.Add, ast.Sub, ast.Mult, ast.Div):
        node.left, node.right = _rewrite(node.left, params), _rewrite(node.right, params)
        return _call("_div", node.left, node.right) if type(node.op) is ast.Div else node
    if cls is ast.BinOp and type(node.op) is ast.Pow:
        if type(node.right) is not ast.Constant or type(node.right.value) is not int:
            raise FixtureError("exponent must be a nonnegative integer literal")
        node.left = _rewrite(node.left, params)
        return node
    if cls is ast.BinOp:
        raise FixtureError("operator not allowed")
    if cls is ast.UnaryOp:
        node.operand = _rewrite(node.operand, params)
        if type(node.op) not in (ast.UAdd, ast.USub):
            raise FixtureError("unary operator not allowed")
        return node if isinstance(node.op, ast.USub) else node.operand
    if cls is not ast.Call:
        raise FixtureError(f"syntax {cls.__name__} not allowed")
    if not isinstance(node.func, ast.Name):
        raise FixtureError("only simple calls allowed")
    if node.keywords:
        raise FixtureError(f"call {node.func.id!r} takes no keyword arguments")
    node.args = [_rewrite(a, params) for a in node.args]
    if len(node.args) != _CALLS.get(node.func.id):
        raise FixtureError(f"call {node.func.id!r} not allowed")
    node.func.id = "_" + node.func.id
    return node


@lru_cache(maxsize=None)
def _words(text: str) -> Tuple[str, ...]:
    """The distinct words of the text, in text order: every name it reads
    (names are ASCII words), and its call names."""
    return tuple(dict.fromkeys(_WORD.findall(text)))


@lru_cache(maxsize=None)
def _program(text: str, bound: Tuple[bool, ...]):
    """The text parsed, checked and compiled once per set of bound words:
    bound says of each of its words (``_words``) whether the caller binds it.
    The function takes the values of the words in that order, None for a
    word left unbound.

    The text's own tree is rewritten (``_rewrite``) and compiled as one
    lambda over _HELPERS alone: text names become its parameters v0, v1,
    ..., so no text reaches a helper or a builtin.  A name that is not bound
    raises where the reading meets it.
    """
    params = {word: f"v{i}" for i, (word, b) in enumerate(zip(_words(text), bound)) if b}
    body = _rewrite(ast.parse(text, mode="eval").body, params)
    args = ast.arguments(posonlyargs=[], args=[_node(ast.arg, f"v{i}") for i in range(len(bound))],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    code = compile(ast.Expression(_node(ast.Lambda, args, body)), "<table text>", "eval")
    return eval(code, _HELPERS)  # runs the compiled tree's code, not generated source


def eval_table_expr(text: str, names: Dict) -> object:
    """Evaluate a restricted arithmetic expression over the scalar ring.

    The text is compiled once per process and set of bound words
    (``_program``).  Every rejection is a ``FixtureError``: text that does
    not parse, a name missing from names, a division by zero and an argument
    outside a call's domain included.  A ``NotAMonomial`` keeps its text.  A
    zero divisor of any kind (a number, a Constant or a polynomial) is named
    as "division by zero".
    """
    try:
        words = _words(text)
        function = _program(text, tuple(w in names for w in words))
        return function(*[names.get(w) for w in words])
    except FixtureError:
        raise
    except NotAMonomial as exc:
        raise FixtureError(str(exc)) from exc
    except (SyntaxError, TypeError, ValueError, ZeroDivisionError) as exc:
        why = "division by zero" if isinstance(exc, ZeroDivisionError) else exc
        raise FixtureError(f"cannot evaluate {text!r}: {why}") from exc


_BASE_NAMES: Dict = {
    "pi": Constant.pi_power(1),
    "y": YLaurent.monomial(1),
    "ly": YLaurent.monomial(0, 1, log_exp=1),
    **{f"z{k}": zeta_value(k) for k in range(2, 9)},
}


# a mode's case (``sources.case_tag``) -> the section of its printed table
_SECTIONS = {"both_zero": "zero_mode", "left_zero": "left", "right_zero": "right",
             "generic": "generic", "anti_diagonal": "anti_diagonal"}

# a printed section -> the frequency words it reads, as (word, its sign's
# word, 0 for n1 or 1 for n2); the T-2 table reads those of "generic"
_SECTION_WORDS = {
    "zero_mode": (),
    "left": (("n", "sg", 1),),
    "right": (("n", "sg", 0),),
    "generic": (("n1", "sg1", 0), ("n2", "sg2", 1)),
    # the printed anti-diagonal tables are written in terms of n2
    "anti_diagonal": (("n1", "sg1", 0), ("n2", "sg2", 1), ("n", "sg", 1)),
}


def _section_names(section: str, n1: int, n2: int) -> Dict:
    """The names a printed section binds at the mode (n1, n2)."""
    names = dict(_BASE_NAMES)
    for word, sign, i in _SECTION_WORDS[section]:
        names[word] = n = (n1, n2)[i]
        names[sign] = 1 if n > 0 else -1
    return names


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
    poly = YLaurent.lift(eval_table_expr(fam["zero_mode"], _section_names("zero_mode", 0, 0)))
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


def _section_table(section: dict, names: Dict, text) -> Dict:
    """A printed table's cells, each times its prefactor, keyed by cell.

    text(key, printed) gives the text read for a cell or for the
    "prefactor": the printed one, or an erratum's (``_corrected_text``).
    """
    pref = eval_table_expr(text("prefactor", section["prefactor"]), names)
    if isinstance(pref, YLaurent):
        raise FixtureError("expected a scalar value")
    return {
        _cell_key(c): YLaurent.lift(eval_table_expr(text(c, printed), names)).scale(pref)
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
    section = _SECTIONS[case_tag(n1, n2)]
    if section == "zero_mode":
        return fixture_zero_mode(alpha, beta, lam)
    text = _corrected_text(family_key(alpha, beta, lam), section, used)
    table = _section_table(fam[section], _section_names(section, n1, n2), text)
    if section in ("left", "right"):
        return SingleBessel(n1 + n2, table)  # the one nonzero frequency
    return DoubleBessel(n1, n2, table)


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
    return DoubleBessel(n1, n2, _section_table(section, _section_names("generic", n1, n2), text))


_COMPARED_MODES = {  # case -> the (n1, n2) pairs its printed table is compared at
    "zero_mode": [(0, 0)],
    "left": [(0, 1), (0, 2), (0, 3)],
    "right": [(1, 0), (2, 0), (3, 0)],
    "generic": [(1, 1), (1, 2), (2, 1), (2, 3), (1, -3), (3, -1)],
    "anti_diagonal": [(-1, 1), (-2, 2), (-3, 3), (1, -1)],
}


def fixture_modes(alpha, beta, lam: int) -> Dict[str, List[Tuple[int, int]]]:
    """Which (n1, n2) pairs each table of a family is compared at."""
    fam = _family(alpha, beta, lam)
    return {case: list(pairs) for case, pairs in _COMPARED_MODES.items() if case in fam}


def compare_expressions(computed, printed) -> List[str]:
    """Cell-by-cell exact comparison; returns human-readable differences.

    Expressions of different kinds or frequencies differ as a whole."""
    if isinstance(computed, Pure) and isinstance(printed, Pure):
        return [f"y^{k} log^{j}: difference {c!r}"
                for (k, j), c in (computed.poly - printed.poly).items_sorted()]
    if type(computed) is not type(printed) or computed.freqs != printed.freqs:
        return [f"kind mismatch: {type(computed).__name__}{computed.freqs} vs "
                f"{type(printed).__name__}{printed.freqs}"]
    # YLaurent stores no zero coefficient, so equal cells differ in nothing
    zero = YLaurent.zero()
    pairs = ((cell, computed.table.get(cell, zero), printed.table.get(cell, zero))
             for cell in sorted(set(computed.table) | set(printed.table)))
    return [f"cell {cell} y^{k} log^{j}: difference {c!r}"
            for cell, a, b in pairs if a != b for (k, j), c in (a - b).items_sorted()]
