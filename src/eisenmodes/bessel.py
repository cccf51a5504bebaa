"""Bessel-product ansatz expressions and the exact differential operators.

The three expression kinds mirror the shapes appearing in the mode equations:

* ``DoubleBessel``: sum of q^{i,j}(y) K_i(2 pi |n1| y) K_j(2 pi |n2| y),
* ``SingleBessel``: sum of p^j(y) K_j(2 pi |n| y),
* ``Pure``: a plain Laurent-with-log polynomial in y, the product of no K
  factors (the zero mode).

All three are ``BesselProduct``s with one K factor per frequency, so the
derivative, the mode operator and every evaluator are written once for all of
them; on ``Pure`` the mode operator is the Euler operator y^2 d^2/dy^2 - lam.

Operators are built from the factor-wise derivative rules

    d/dy K_0(c y) = -c K_1(c y),
    d/dy K_1(c y) = -c K_0(c y) - K_1(c y) / y,     c = 2 pi |n|,

rather than transcribed recurrence tables, so degree bookkeeping and sign
conventions follow mechanically (and are cross-checked against finite
differences in the test suite).  ``differentiate`` and the mode operators run
as one integer kernel on the flat value of an expression (``FlatExpr``): the
map (cell, y power, log power, pi exponent, pi-free rest) -> int over one
denominator, the lcm of the coefficients' denominators.  The rules act on
that map with ints only: the pi of c = 2 pi |n| adds 1 to the pi exponent and
-2|n| goes into the int, and merged cells fold as they are written.  The
result is rebuilt as one expression of the input's kind (``_rebuild``, the
one place where pi exponent and rest become a monomial again), each
coefficient divided by that denominator once.  The same kernel
(``_operator_terms``) is the solver's exact recheck on its flat solution.  It
keeps pi, zeta, log and log(y) symbolic.  The solver's pi = 1 stencil is a
separate piece of code: ``cell_stencil`` gives, once per cell, the closed
form of the operator on y^k times the cell for every k (index sum sigma, and
per target cell and degree offset an entry c1 * d + c0 in d = k - sigma, the
diagonal being d(d - 1) - lam), which the solver evaluates at each unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Mapping, Tuple

from .laurent import LOG_CAP, LogCapExceeded, YLaurent
from .scalars import SYM_PI, Constant, SymbolMonomial, _json_int

__all__ = [
    "BesselProduct",
    "DoubleBessel",
    "SingleBessel",
    "Pure",
    "HomBasis",
    "FlatExpr",
    "k_index_table",
    "apply_P",
    "apply_L",
    "apply_euler",
    "mode_operator",
    "differentiate",
    "cell_stencil",
]

Cell = Tuple[int, int]


def _clean_table(table):
    return {key: poly for key, poly in table.items() if not poly.is_zero()}


class BesselProduct:
    """Sum over cells of q_cell(y) times a product of K_index(2 pi |n| y) factors.

    A subclass fixes the signed frequencies ``freqs`` (one per factor) and
    says how a cell names its factors: ``factors(cell)`` gives the
    (K index, |n|) pairs in factor order, ``replace_index`` swaps the index of
    one factor, ``fold`` maps a cell to the one it is stored under, and
    ``with_table`` builds an expression of the same kind and frequencies.  The
    mode operator's mass term is 4 pi^2 (sum of freqs)^2.
    """

    table: Dict

    def fold(self, cell):
        return cell

    def cells(self):
        return sorted(self.table)

    def is_zero(self) -> bool:
        return not self.table

    def map_cells(self, fn):
        return self.with_table({c: fn(p) for c, p in self.table.items()})

    def __add__(self, other):
        if self.freqs != other.freqs:
            raise ValueError("frequency mismatch")
        table = dict(self.table)
        for c, p in other.table.items():
            table[c] = table[c] + p if c in table else p
        return self.with_table(table)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor):
        return self.map_cells(lambda p: p.scale(factor))


@dataclass(frozen=True)
class DoubleBessel(BesselProduct):
    """Bilinear Bessel expression with fixed nonzero integer frequencies.

    When |n1| == |n2| the two Bessel arguments coincide and K0K1 = K1K0;
    tables are then kept in merged form with cells (0,0), (0,1), (1,1) only.
    """

    n1: int
    n2: int
    table: Dict[Cell, YLaurent] = field(default_factory=dict)

    def __post_init__(self):
        if self.n1 == 0 or self.n2 == 0:
            raise ValueError("DoubleBessel requires n1, n2 != 0")
        table: Dict[Cell, YLaurent] = {}
        for cell, poly in self.table.items():
            key = self.fold(cell)
            table[key] = table[key] + poly if key in table else poly
        object.__setattr__(self, "table", _clean_table(table))

    @property
    def merged(self) -> bool:
        return abs(self.n1) == abs(self.n2)

    def fold(self, cell: Cell) -> Cell:
        return (min(cell), max(cell)) if self.merged else cell

    @property
    def freqs(self) -> Tuple[int, int]:
        return self.n1, self.n2

    def factors(self, cell: Cell):
        return (cell[0], abs(self.n1)), (cell[1], abs(self.n2))

    def replace_index(self, cell: Cell, pos: int, index: int) -> Cell:
        return (index, cell[1]) if pos == 0 else (cell[0], index)

    def with_table(self, table) -> "DoubleBessel":
        return DoubleBessel(self.n1, self.n2, table)


@dataclass(frozen=True)
class SingleBessel(BesselProduct):
    """Single-argument Bessel expression p^0(y) K_0 + p^1(y) K_1."""

    n: int
    table: Dict[int, YLaurent] = field(default_factory=dict)

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("SingleBessel requires n != 0")
        object.__setattr__(self, "table", _clean_table(self.table))

    @property
    def freqs(self) -> Tuple[int]:
        return (self.n,)

    def factors(self, cell: int):
        return ((cell, abs(self.n)),)

    def replace_index(self, cell: int, pos: int, index: int) -> int:
        return index

    def with_table(self, table) -> "SingleBessel":
        return SingleBessel(self.n, table)


@dataclass(frozen=True)
class Pure(BesselProduct):
    """Bessel-free expression: a Laurent-with-log polynomial, the empty product."""

    poly: YLaurent

    freqs = ()

    @property
    def table(self) -> Dict[Tuple[()], YLaurent]:
        return {} if self.poly.is_zero() else {(): self.poly}

    def factors(self, cell):
        return ()

    def with_table(self, table) -> "Pure":
        return Pure(table.get((), YLaurent.zero()))


@dataclass(frozen=True)
class HomBasis:
    """The decaying homogeneous solution of a mode, the one alpha multiplies.

    kind "K"        : sqrt(y) K_{r+1/2}(2 pi |n| y), n = n1 + n2 != 0
    kind "power_neg": y^{-r}                       (anti-diagonal / zero mode)

    The growing solutions sqrt(y) I_{r+1/2} and y^{r+1} break the o(e^y) /
    o(y^{r+1}) growth contract, so no mode carries them.
    """

    kind: str
    r: int
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("K", "power_neg"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.kind == "K" and self.n == 0:
            raise ValueError("Bessel basis requires n != 0")

    def describe(self) -> str:
        if self.kind == "K":
            return f"sqrt(y)*K_{{{self.r}+1/2}}(2*pi*{abs(self.n)}*y)"
        return f"y^-{self.r}"


# ---------------------------------------------------------------------------
# Index reduction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def k_index_table(m: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The ints a[i][k], k = 0 .. max(m - 1, 0), with K_m(z) = sum_k z^-k
    (a[0][k] K_0(z) + a[1][k] K_1(z)), from the memoized upward recurrence
    K_{j+1}(z) = K_{j-1}(z) + (2j/z) K_j(z)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m < 2:
        return (1 - m,), (m,)
    # a_m[i][k] = a_{m-2}[i][k] + 2(m - 1) a_{m-1}[i][k - 1]
    return tuple(tuple(a + 2 * (m - 1) * b for a, b in zip(p + (0,) * (m - len(p)), (0,) + c))
                 for p, c in zip(k_index_table(m - 2), k_index_table(m - 1)))


# ---------------------------------------------------------------------------
# Differentiation and the mode operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _times_pi(mono: SymbolMonomial, e: int) -> SymbolMonomial:
    """mono * pi^e; the operators, ``_rebuild``, ``series.small_y_series``
    and the checks meet a handful of monomials per process."""
    return mono * SymbolMonomial({SYM_PI: e})


@lru_cache(maxsize=None)
def _split_pi(mono: SymbolMonomial) -> Tuple[int, SymbolMonomial]:
    """(pi exponent, the rest as a ``SymbolMonomial``; a slice is a plain
    tuple, whose ``*`` repeats it), the inverse of ``_times_pi``."""
    e = mono.pi_exponent()
    return e, SymbolMonomial(mono[1:]) if e else mono


@dataclass(frozen=True)
class FlatExpr:
    """An expression as one flat value: {(cell, k, j, e, rest): q} over den.

    Each int q is the rational coefficient of pi^e rest y^k log^j y at
    `cell`, times den; rest is the pi-free part of the monomial.  `shape` is
    an expression of the same kind and frequencies; only its kind, ``fold``,
    ``factors`` and ``freqs`` are read.  ``source_term``, the solver and
    ``homogeneous.choose_alpha`` hand this value on; ``expr`` builds the
    expression from it.
    """

    shape: BesselProduct
    terms: Mapping
    den: int

    @classmethod
    def of(cls, value) -> "FlatExpr":
        """`value` itself when it is flat, else the expression flattened."""
        if isinstance(value, FlatExpr):
            return value
        terms, den = _flatten(value)
        return cls(value, MappingProxyType(terms), den)

    def expr(self) -> BesselProduct:
        """The expression, each coefficient divided by den once."""
        return _rebuild(self.shape, self.terms, self.den)


def _flatten(expr):
    """The terms of `expr` as {(cell, k, j, e, rest): int} and their common
    denominator den: each int is the rational coefficient of pi^e rest *
    y^k log^j y at `cell`, times den, the lcm of all the denominators."""
    rows = [
        (cell, k, j, *_split_pi(mono), c)
        for cell, poly in expr.table.items()
        for (k, j), const in poly.terms().items()
        for mono, c in const.terms().items()
    ]
    den = math.lcm(*{c.denominator for *_, c in rows})
    terms = {(cell, k, j, e, rest): c.numerator * (den // c.denominator)
             for cell, k, j, e, rest, c in rows}
    return terms, den


def _factor_moves(expr, cell):
    """What d/dy does to the K factors of `cell`: the number of K_1 factors,
    each giving -K_1/y, and per factor the folded cell with that factor's
    index flipped, with its int coefficient -2|n| (the pi of c = 2 pi |n|
    goes into the pi exponent)."""
    factors = expr.factors(cell)
    return sum(index for index, _ in factors), tuple(
        (expr.fold(expr.replace_index(cell, pos, 1 - index)), -2 * abs_n)
        for pos, (index, abs_n) in enumerate(factors)
    )


def _derivative(expr, terms, moves: Dict):
    """d/dy on a flat term map, in ints: y^k log^j y -> k y^(k-1) log^j y +
    j y^(k-1) log^(j-1) y, K_0' = -c K_1 and K_1' = -c K_0 - K_1/y.

    `moves` holds the ``_factor_moves`` of the cells met so far; it is filled
    here, and a caller that differentiates twice hands the same dict to both
    passes."""
    out: Dict = {}
    for (cell, k, j, e, rest), q in terms.items():
        move = moves.get(cell)
        if move is None:
            move = moves[cell] = _factor_moves(expr, cell)
        ones, targets = move
        if k != ones:
            key = (cell, k - 1, j, e, rest)
            out[key] = out.get(key, 0) + (k - ones) * q
        if j:
            key = (cell, k - 1, j - 1, e, rest)
            out[key] = out.get(key, 0) + j * q
        for target, c in targets:
            key = (target, k, j, e + 1, rest)
            out[key] = out.get(key, 0) + c * q
    return out


def _rebuild(expr, terms, den: int, shift: int = 0):
    """The expression of `expr`'s kind with the flat terms over den, every
    y power raised by `shift`; zero terms are dropped."""
    tables: Dict = {}
    for (cell, k, j, e, rest), q in terms.items():
        if q:
            poly = tables.setdefault(cell, {}).setdefault((k + shift, j), {})
            poly[_times_pi(rest, e)] = Fraction(q, den)
    return expr.with_table({
        cell: YLaurent._trusted({kj: Constant._trusted(c) for kj, c in polys.items()})
        for cell, polys in tables.items()
    })


def differentiate(expr):
    """Exact d/dy on any expression kind."""
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot differentiate {type(expr).__name__}")
    terms, den = _flatten(expr)
    return _rebuild(expr, _derivative(expr, terms, {}), den)


def _check_log_cap(expr):
    for p in expr.table.values():
        if p.max_log() >= LOG_CAP:
            raise LogCapExceeded(
                f"operator input carries log(y)^{p.max_log()} at cap {LOG_CAP}"
            )


def _operator_terms(lam: int, expr, terms) -> Dict:
    """-4 pi^2 (sum of freqs)^2 y^2 + y^2 d^2/dy^2 - lam on a flat term map,
    in ints, the image's y^p term collected under key y power p - 2.

    For double-Bessel modes (n1 + n2)^2 = (|n1| + sgn(n1 n2) |n2|)^2; on
    ``Pure`` the sum of no frequencies is 0, which leaves the Euler operator.
    `expr` supplies kind and frequencies only.  This is the kernel of
    ``mode_operator`` (``apply_P``, ``apply_L``, ``apply_euler``) and of the
    solver's recheck.
    """
    moves: Dict = {}
    out = _derivative(expr, _derivative(expr, terms, moves), moves)
    mass = 4 * sum(expr.freqs) ** 2
    for (cell, k, j, e, rest), q in terms.items():
        if mass:
            key = (cell, k, j, e + 2, rest)
            out[key] = out.get(key, 0) - mass * q
        key = (cell, k - 2, j, e, rest)
        out[key] = out.get(key, 0) - lam * q
    return out


def mode_operator(lam: int, expr: BesselProduct) -> BesselProduct:
    """The mode operator of `expr`'s kind (``_operator_terms``): ``apply_P``
    on a DoubleBessel, ``apply_L`` on a SingleBessel, ``apply_euler`` on a
    Pure; the terms are raised by y^2 once, on rebuilding."""
    _check_log_cap(expr)
    terms, den = _flatten(expr)
    return _rebuild(expr, _operator_terms(lam, expr, terms), den, shift=2)


def cell_stencil(expr: BesselProduct, cell) -> Tuple[int, Tuple]:
    """The pi-free mode operator on y^k times the K factors of the folded
    `cell`, for every k at once: (sigma, entries).

    sigma is the sum of the cell's K indices.  With d = k - sigma the image
    has d(d - 1) - lam at (cell, k), and c1 * d + c0 at (target, k + offset)
    for each (target, offset, c1, c0) of `entries`; the exact image carries
    q * pi^(p-k) at y^p where this one carries q.  Each factor m has index
    i_m and c_m = 2|n_m|; with s the sum of the signed frequencies,
    K_0' = -c K_1 and K_1' = -c K_0 - K_1/y give the closed form

        d(d - 1) - lam                        at (cell, k),
        -c_m (2d - (1 - 2 i_m))               at (cell, factor m flipped, k + 1),
        sum of c_m^2 - 4 s^2                  at (cell, k + 2),
        2 c_1 c_2                             at (cell, both flipped, k + 2),

    the last for two factors only: the k + 1 entries are linear in d and the
    k + 2 entries constants.  Targets are folded, entries landing on one
    (target, offset) add up, and entries that vanish for every k are
    dropped.  `expr` supplies only kind and frequencies.
    """
    factors = expr.factors(cell)
    mass = sum(expr.freqs)
    sigma = squares = 0
    linear: Dict = {}
    for pos, (index, abs_n) in enumerate(factors):
        sigma += index
        squares += abs_n * abs_n
        key = (expr.fold(expr.replace_index(cell, pos, 1 - index)), 1)
        c1, c0 = linear.get(key, (0, 0))
        linear[key] = (c1 - 4 * abs_n, c0 + 2 * abs_n * (1 - 2 * index))
    linear[cell, 2] = (0, 4 * squares - 4 * mass * mass)
    if len(factors) == 2:
        (i1, abs_n1), (i2, abs_n2) = factors
        key = (expr.fold((1 - i1, 1 - i2)), 2)
        c1, c0 = linear.get(key, (0, 0))
        linear[key] = (c1, c0 + 8 * abs_n1 * abs_n2)
    return sigma, tuple((target, offset, c1, c0)
                        for (target, offset), (c1, c0) in linear.items() if c1 or c0)


def apply_P(lam: int, expr: DoubleBessel) -> DoubleBessel:
    """P_lam = -4 pi^2 y^2 (|n1| + sgn(n1 n2) |n2|)^2 + y^2 d^2/dy^2 - lam."""
    return mode_operator(lam, expr)


def apply_L(lam: int, expr: SingleBessel) -> SingleBessel:
    """L_lam = -4 pi^2 n^2 y^2 + y^2 d^2/dy^2 - lam on single-Bessel expressions."""
    return mode_operator(lam, expr)


def apply_euler(lam: int, expr: Pure) -> Pure:
    """y^2 d^2/dy^2 - lam on Bessel-free expressions, logs included."""
    return mode_operator(lam, expr)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def expr_latex(expr) -> str:
    """LaTeX form grouped by Bessel factors, descending y powers."""
    if isinstance(expr, Pure):
        return expr.poly.latex()
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot emit {type(expr).__name__}")
    bits = []
    for cell in expr.cells():
        ks = "".join(rf" K_{{{i}}}(2\pi {n} y)" for i, n in expr.factors(cell))
        bits.append(rf"\left[{expr.table[cell].latex()}\right]{ks}")
    return " + ".join(bits) if bits else "0"


def expr_to_json_obj(expr) -> dict:
    if isinstance(expr, Pure):
        return {"kind": "pure", "poly": expr.poly.to_json_obj()}
    if isinstance(expr, SingleBessel):
        return {
            "kind": "single",
            "n": expr.n,
            "table": {str(j): p.to_json_obj() for j, p in sorted(expr.table.items())},
        }
    if isinstance(expr, DoubleBessel):
        return {
            "kind": "double",
            "n1": expr.n1,
            "n2": expr.n2,
            "table": {f"{i}{j}": p.to_json_obj() for (i, j), p in sorted(expr.table.items())},
        }
    raise TypeError(f"cannot serialize {type(expr).__name__}")


# the cell each table key of ``expr_to_json_obj`` names, by expression kind
_CELL_KEYS = {"single": {"0": 0, "1": 1},
              "double": {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}}


def expr_from_json_obj(obj: dict):
    """Read ``expr_to_json_obj``'s object.  A table that is not an object is
    a TypeError; a table key that names no cell of the expression's kind
    ("0" and "1" single, two of those characters double) is a ValueError."""
    kind = obj["kind"]
    if kind == "pure":
        return Pure(YLaurent.from_json_obj(obj["poly"]))
    if kind not in _CELL_KEYS:
        raise ValueError(f"unknown expression kind {kind!r}")
    if not isinstance(obj["table"], dict):
        raise TypeError(f"the table of a {kind} expression must be an object")
    table = {}
    for key, p in obj["table"].items():
        if key not in _CELL_KEYS[kind]:
            raise ValueError(f"unknown cell {key!r} of a {kind} expression")
        table[_CELL_KEYS[kind][key]] = YLaurent.from_json_obj(p)
    if kind == "single":
        return SingleBessel(_json_int(obj["n"]), table)
    return DoubleBessel(_json_int(obj["n1"]), _json_int(obj["n2"]), table)
