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
as one integer kernel: the expression is flattened once into a map
(cell, y power, log power, symbol monomial) -> int, every coefficient scaled
by the lcm of their denominators; the rules act on that map with ints only,
the pi of c going into the monomial and -2|n| into the int, and merged cells
fold as they are written.  The result is rebuilt as one expression of the
input's kind, each coefficient divided by that denominator once.  The kernel
keeps pi, zeta, log and log(y) symbolic; ``unit_column``, the solver's pi = 1
stencil, is a separate piece of code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .laurent import LOG_CAP, LogCapExceeded, YLaurent
from .scalars import SYM_PI, Constant, SymbolMonomial, _json_int

__all__ = [
    "BesselProduct",
    "DoubleBessel",
    "SingleBessel",
    "Pure",
    "HomBasis",
    "reduce_k_index",
    "apply_P",
    "apply_L",
    "apply_euler",
    "differentiate",
    "unit_column",
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

    def degree_window(self) -> Tuple[int, int]:
        lo = min(p.min_degree() for p in self.table.values())
        hi = max(p.max_degree() for p in self.table.values())
        return lo, hi


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


def reduce_k_index(m: int, n: int) -> Tuple[YLaurent, YLaurent]:
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


# ---------------------------------------------------------------------------
# Differentiation and the mode operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _times_pi(mono: SymbolMonomial, e: int) -> SymbolMonomial:
    """mono * pi^e; the operators meet a handful of monomials per process."""
    return mono * SymbolMonomial({SYM_PI: e})


def _flatten(expr):
    """The terms of `expr` as {(cell, k, j, monomial): int} and their common
    denominator den: each int is the rational coefficient of monomial *
    y^k log^j y at `cell`, times den, the lcm of all the denominators."""
    rows = [
        (cell, k, j, mono, c)
        for cell, poly in expr.table.items()
        for (k, j), const in poly.terms().items()
        for mono, c in const.terms().items()
    ]
    den = math.lcm(*{c.denominator for *_, c in rows})
    terms = {(cell, k, j, mono): c.numerator * (den // c.denominator) for cell, k, j, mono, c in rows}
    return terms, den


def _factor_moves(expr, cell):
    """What d/dy does to the K factors of `cell`: the number of K_1 factors,
    each giving -K_1/y, and per factor the folded cell with that factor's
    index flipped, with its int coefficient -2|n| (the pi of c = 2 pi |n|
    goes into the monomial)."""
    factors = expr.factors(cell)
    return sum(index for index, _ in factors), tuple(
        (expr.fold(expr.replace_index(cell, pos, 1 - index)), -2 * abs_n)
        for pos, (index, abs_n) in enumerate(factors)
    )


def _derivative(expr, terms):
    """d/dy on a flat term map, in ints: y^k log^j y -> k y^(k-1) log^j y +
    j y^(k-1) log^(j-1) y, K_0' = -c K_1 and K_1' = -c K_0 - K_1/y."""
    out: Dict = {}
    moves: Dict = {}
    for (cell, k, j, mono), q in terms.items():
        move = moves.get(cell)
        if move is None:
            move = moves[cell] = _factor_moves(expr, cell)
        ones, targets = move
        if k != ones:
            key = (cell, k - 1, j, mono)
            out[key] = out.get(key, 0) + (k - ones) * q
        if j:
            key = (cell, k - 1, j - 1, mono)
            out[key] = out.get(key, 0) + j * q
        if targets:
            mono_pi = _times_pi(mono, 1)
            for target, c in targets:
                key = (target, k, j, mono_pi)
                out[key] = out.get(key, 0) + c * q
    return out


def _rebuild(expr, terms, den: int, shift: int = 0):
    """The expression of `expr`'s kind with the flat terms over den, every
    y power raised by `shift`; zero terms are dropped."""
    tables: Dict = {}
    for (cell, k, j, mono), q in terms.items():
        if q:
            tables.setdefault(cell, {}).setdefault((k + shift, j), {})[mono] = Fraction(q, den)
    return expr.with_table({
        cell: YLaurent._trusted({kj: Constant._trusted(c) for kj, c in polys.items()})
        for cell, polys in tables.items()
    })


def differentiate(expr):
    """Exact d/dy on any expression kind."""
    if not isinstance(expr, BesselProduct):
        raise TypeError(f"cannot differentiate {type(expr).__name__}")
    terms, den = _flatten(expr)
    return _rebuild(expr, _derivative(expr, terms), den)


def _check_log_cap(expr):
    for p in expr.table.values():
        if p.max_log() >= LOG_CAP and p.has_logs():
            raise LogCapExceeded(
                f"operator input carries log(y)^{p.max_log()} at cap {LOG_CAP}"
            )


def _mode_operator(lam: int, expr: BesselProduct) -> BesselProduct:
    """-4 pi^2 (sum of freqs)^2 y^2 + y^2 d^2/dy^2 - lam on a Bessel product.

    For double-Bessel modes (n1 + n2)^2 = (|n1| + sgn(n1 n2) |n2|)^2; on
    ``Pure`` the sum of no frequencies is 0, which leaves the Euler operator.
    The terms are collected at y^(p-2) and raised by y^2 once, on rebuilding.
    """
    _check_log_cap(expr)
    terms, den = _flatten(expr)
    out = _derivative(expr, _derivative(expr, terms))
    mass = sum(expr.freqs)
    for (cell, k, j, mono), q in terms.items():
        if mass:
            key = (cell, k, j, _times_pi(mono, 2))
            out[key] = out.get(key, 0) - 4 * mass * mass * q
        key = (cell, k - 2, j, mono)
        out[key] = out.get(key, 0) - lam * q
    return _rebuild(expr, out, den, shift=2)


def unit_column(lam: int, expr: BesselProduct, cell, k: int) -> Dict:
    """The mode operator on y^k times the K factors of `cell`, with pi = 1.

    Returns {(cell, p): int}; the exact image carries q * pi^(p-k) at y^p.
    Each factor m has index i_m and c_m = 2|n_m|; with sigma the sum of the
    indices and s the sum of the signed frequencies, K_0' = -c K_1 and
    K_1' = -c K_0 - K_1/y give the closed form

        (k - sigma)(k - sigma - 1) - lam               at (cell, k),
        -c_m (2(k - sigma) - (1 - 2 i_m))              at (cell, factor m flipped, k + 1),
        sum of c_m^2 - 4 s^2                           at (cell, k + 2),
        2 c_1 c_2                                      at (cell, both flipped, k + 2),

    the last for two factors only.  Targets are folded, entries landing on
    one cell add up, and zeros are dropped.  `expr` supplies only kind and
    frequencies.
    """
    cell = expr.fold(cell)
    factors = expr.factors(cell)
    mass = sum(expr.freqs)
    d = k - sum(index for index, _ in factors)
    column = {(cell, k): d * (d - 1) - lam}
    column[cell, k + 2] = sum(4 * abs_n * abs_n for _, abs_n in factors) - 4 * mass * mass
    for pos, (index, abs_n) in enumerate(factors):
        key = (expr.fold(expr.replace_index(cell, pos, 1 - index)), k + 1)
        column[key] = column.get(key, 0) - 2 * abs_n * (2 * d - 1 + 2 * index)
    if len(factors) == 2:
        (i1, abs_n1), (i2, abs_n2) = factors
        key = (expr.fold((1 - i1, 1 - i2)), k + 2)
        column[key] = column.get(key, 0) + 8 * abs_n1 * abs_n2
    return {key: q for key, q in column.items() if q}


def apply_P(lam: int, expr: DoubleBessel) -> DoubleBessel:
    """P_lam = -4 pi^2 y^2 (|n1| + sgn(n1 n2) |n2|)^2 + y^2 d^2/dy^2 - lam."""
    return _mode_operator(lam, expr)


def apply_L(lam: int, expr: SingleBessel) -> SingleBessel:
    """L_lam = -4 pi^2 n^2 y^2 + y^2 d^2/dy^2 - lam on single-Bessel expressions."""
    return _mode_operator(lam, expr)


def apply_euler(lam: int, expr: Pure) -> Pure:
    """y^2 d^2/dy^2 - lam on Bessel-free expressions, logs included."""
    return _mode_operator(lam, expr)


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


def expr_from_json_obj(obj: dict):
    kind = obj["kind"]
    if kind == "pure":
        return Pure(YLaurent.from_json_obj(obj["poly"]))
    if kind in ("single", "double") and not isinstance(obj["table"], dict):
        raise TypeError(f"the table of a {kind} expression must be an object")
    if kind == "single":
        return SingleBessel(
            _json_int(obj["n"]),
            {int(j): YLaurent.from_json_obj(p) for j, p in obj["table"].items()},
        )
    if kind == "double":
        return DoubleBessel(
            _json_int(obj["n1"]),
            _json_int(obj["n2"]),
            {(int(c[0]), int(c[1])): YLaurent.from_json_obj(p) for c, p in obj["table"].items()},
        )
    raise ValueError(f"unknown expression kind {kind!r}")
