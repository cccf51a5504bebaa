"""Exact undetermined-coefficient solves for the mode equations.

Matching P(g) (or L(g)) against the reduced source couples ansatz
coefficients only across nearby y-degrees, so each solve is a small banded
overdetermined linear system.  Its entries are rational multiples of powers
of pi, graded by the degree shift: the image of y^k at y^p carries exactly
pi^(p-k).  Rescaling unknowns and equations by powers of pi turns the system
into one over Q with the same zero pattern, whose columns are the pi-free
integer stencil ``bessel.unit_column``; each right-hand side splits into
directions (non-pi symbol monomial, pi-grade), each with rational entries.
Systems are solved exactly over Q in Python ints from the stencil to the
solved values: fraction-free forward elimination (each direction scaled to
integers, rows kept as integer multiples of their rational counterparts), then
back-substitution over one running denominator per direction, with one
Fraction made per solved value at the end.  The pivot of each column, taken
in ascending y-degree then cell order, is the unused row with the fewest
entries, ties broken by ascending y-degree then cell.  Row scaling keeps zero
patterns, and the pivot rows that Gauss-Jordan would go on reducing are never
candidates again, so these are the pivots elimination over Fractions would
choose.  Free variables of an underdetermined system are set to zero and
counted as kernel dimension.

Every cell of a mode gets one window from the source's y-powers [lo, hi] and
r = ``params.r_hint``: [min(-r+1, lo), hi] for a double-Bessel source,
[min(-r+1, lo), r+2] for an anti-diagonal one, [min(-r, lo-1), hi-1] for a
single-Bessel one.  The operator keeps the parity of p + i + j at y^p K_i K_j
(p + i at y^p K_i) and every source lies in one such class, so only the
unknowns of the source's class are solved for; the others could only be zero.
The window is derived, never configured.  An inconsistent system is retried
with every window widened by one on both sides, WIDEN_CAP times at most; no
solvable family needs a retry, so a failure reports the derived window
widened WIDEN_CAP times.

Every returned solution is re-verified by applying the symbolic operator of
its kind (``operator_image``) and subtracting the right-hand side; the
difference must be the identically zero expression.  The operator shares no
code with the stencil: it keeps pi and every other symbol in the coefficients
and takes no pi grading or rescaling from the solve, so a fault in the stencil,
the rescaling or the elimination shows as a non-zero difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .bessel import (
    DoubleBessel, Pure, SingleBessel, _times_pi, apply_euler, apply_L, apply_P, unit_column,
)
from .laurent import YLaurent
from .scalars import SYM_PI, Constant, SymbolMonomial
from .sources import Params

__all__ = [
    "DegreeWindow",
    "NoSolutionInWindow",
    "SolveReport",
    "solve_particular_double",
    "solve_particular_single",
    "operator_image",
    "solve_zero_mode",
    "widen_and_retry",
]

WIDEN_CAP = 12


@dataclass(frozen=True)
class DegreeWindow:
    m: int
    M: int

    def widen(self, t: int) -> "DegreeWindow":
        return DegreeWindow(self.m - t, self.M + t)

    def powers(self):
        return range(self.m, self.M + 1)


class NoSolutionInWindow(Exception):
    """The banded system is inconsistent for every window tried."""

    def __init__(self, message, windows=None, inconsistent_rows=None, retries=0):
        super().__init__(message)
        self.windows = windows
        self.inconsistent_rows = inconsistent_rows or []
        self.retries = retries


@dataclass
class SolveReport:
    case: str
    windows: Dict
    retries: int
    kernel_dim: int
    num_unknowns: int
    num_equations: int
    support: Dict

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "window_used": {str(c): [w.m, w.M] for c, w in self.windows.items()},
            "retries": self.retries,
            "kernel_dim": self.kernel_dim,
            "num_unknowns": self.num_unknowns,
            "num_equations": self.num_equations,
            "support": {str(c): list(s) for c, s in self.support.items()},
            "residual_check": "exact-zero",  # the recheck raises on any other outcome
        }


def operator_image(lam: int, expr):
    """The image of expr under the mode operator of its kind: ``apply_P`` for
    a DoubleBessel, ``apply_L`` for a SingleBessel, ``apply_euler`` for a Pure."""
    if isinstance(expr, DoubleBessel):
        return apply_P(lam, expr)
    if isinstance(expr, SingleBessel):
        return apply_L(lam, expr)
    return apply_euler(lam, expr)


# ---------------------------------------------------------------------------
# Degree windows and the parity class
# ---------------------------------------------------------------------------


def _cell_parity(expr, cell) -> int:
    """Parity of the sum of the K indices of `cell`."""
    return sum(index for index, _ in expr.factors(cell)) % 2


def _parity_class(rhs) -> int:
    """The common parity of p + parity(cell) over the terms y^p of the source.

    The mode operator keeps that parity, so a source spanning both classes
    breaks an invariant of the operator, not an input condition.
    """
    classes = {
        (p + _cell_parity(rhs, cell)) % 2
        for cell, poly in rhs.table.items() for p in poly.support()
    }
    if len(classes) != 1:
        raise AssertionError(f"source spans parity classes {sorted(classes)}")
    return classes.pop()


def _source_window(r: int, rhs) -> DegreeWindow:
    """The ansatz window every cell gets, from the source's y-powers [lo, hi]."""
    lo, hi = rhs.degree_window()
    if isinstance(rhs, SingleBessel):
        return DegreeWindow(min(-r, lo - 1), hi - 1)
    if sum(rhs.freqs) == 0:  # anti-diagonal: no mass term, the particular reaches y^(r+2)
        return DegreeWindow(min(-r + 1, lo), r + 2)
    return DegreeWindow(min(-r + 1, lo), hi)


def _ansatz_unknowns(rhs, windows: Dict):
    """The unknowns (cell, k) of the windows in the source's parity class,
    in ascending y-degree then cell order."""
    parity = _parity_class(rhs)
    return sorted(
        ((cell, k) for cell, window in windows.items() for k in window.powers()
         if (k + _cell_parity(rhs, cell)) % 2 == parity),
        key=lambda u: (u[1], u[0]),
    )


# ---------------------------------------------------------------------------
# Banded elimination over Q, fraction-free
# ---------------------------------------------------------------------------


def _eliminate(columns, rhs_rows, col_order, row_order):
    """Exact multi-RHS elimination over the rationals, run on integers.

    columns: dict col -> dict row -> int (the assembled sparse matrix)
    rhs_rows: dict row -> list[Fraction] per right-hand-side direction
    Returns (solution dict col -> list[Fraction], kernel_cols, inconsistent_rows).

    Each direction is scaled to integers by the lcm of its denominators.  The
    pivot of each column is the shortest unused row, ties broken by row_order.
    Only the other unused rows with an entry there are updated, as
    a*row - b*pivot_row with a, b = pivot/g, factor/g (g = gcd(pivot, factor)),
    then divided with their right-hand side by the gcd of their entries; a
    pivot row is never written again.  An unused row gets the update that
    Gauss-Jordan over Q would give it, up to a nonzero factor, and only pivot
    rows are reduced further there, so the pivots, kernel columns and
    inconsistent rows are the same.  A pivot row's other entries lie in later
    columns: back-substitution in reverse col_order, kernel columns at 0,
    gives x = (rhs/scale - sum(row[c] * x_c)) / pivot.  It runs in ints per
    direction, every x_c = num_c / den over one running denominator that
    starts at the direction's scale: t = rhs * (den/scale) - sum(row[c] *
    num_c), and where m = |pivot| / gcd(t, pivot) is not 1, every numerator,
    den and t are multiplied by m, so that num = t / pivot is exact.  Each
    solved value becomes one Fraction(num, den) at the end.
    """
    scales = [math.lcm(*(v.denominator for v in d)) for d in zip(*rhs_rows.values())]
    n_dirs = len(scales)
    rows: Dict = {row: {} for row in rhs_rows}
    for col, entries in columns.items():
        for row, val in entries.items():
            rows.setdefault(row, {})[col] = val
    rhs = {row: [0] * n_dirs for row in rows}
    for row, vals in rhs_rows.items():
        rhs[row] = [v.numerator * (s // v.denominator) for v, s in zip(vals, scales)]

    pivot_of_col: Dict = {}
    unused = list(row_order)
    for col in col_order:
        candidates = [r for r in unused if col in rows[r]]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: len(rows[r]))
        unused.remove(pivot_row)
        pivot_of_col[col] = pivot_row
        prow, prhs = rows[pivot_row], rhs[pivot_row]
        pivot = prow[col]
        candidates.remove(pivot_row)
        for r in candidates:
            row_r = rows[r]
            factor = row_r[col]
            g = math.gcd(pivot, factor)
            a, b = pivot // g, factor // g
            if a != 1:
                for c in row_r:
                    row_r[c] *= a
            for c, v in prow.items():
                nv = row_r.get(c, 0) - b * v
                if nv:
                    row_r[c] = nv
                else:
                    del row_r[c]
            rhs_r = [a * x - b * y for x, y in zip(rhs[r], prhs)]
            content = math.gcd(*row_r.values(), *rhs_r)
            if content > 1:
                for c in row_r:
                    row_r[c] //= content
                rhs_r = [x // content for x in rhs_r]
            rhs[r] = rhs_r

    # Leftover rows have entries only in kernel columns, which are set to 0,
    # so a nonzero rhs there is an inconsistency.
    inconsistent = [r for r in unused if any(rhs[r])]
    kernel_cols = [c for c in col_order if c not in pivot_of_col]
    solved = {c: [] for c in col_order}
    for d, scale in enumerate(scales):
        den, num = scale, dict.fromkeys(kernel_cols, 0)
        for col, row in reversed(pivot_of_col.items()):
            prow = rows[row]
            pivot = prow[col]
            t = rhs[row][d] * (den // scale) - sum(v * num[c] for c, v in prow.items() if c != col)
            m = abs(pivot) // math.gcd(t, pivot)
            if m != 1:
                for c in num:
                    num[c] *= m
                den *= m
                t *= m
            num[col] = t // pivot
        for c in col_order:
            solved[c].append(Fraction(num[c], den))
    return solved, kernel_cols, inconsistent


def _assemble_and_solve(params: Params, rhs_expr, windows: Dict, case: str):
    """Assemble the banded system for one window set and solve it exactly.

    The operator is pi-graded: the image of y^k (times a Bessel cell) at
    y^p is a rational q times pi^(p-k).  Scaling unknown (cell, k) by pi^k
    and row (cell, p) by pi^-p therefore leaves a rational matrix with the
    zero pattern of the original, whose column (cell, k) is the operator
    with pi = 1 (``unit_column``).  Forward elimination over Q picks the
    pivots, kernel and inconsistent rows that Gauss-Jordan over Fractions
    would find on the pi-graded system: scaling keeps zero patterns, and the
    rows Gauss-Jordan reduces further are pivot rows, never candidates again.
    Back-substitution solves the pivot columns with the kernel at zero.  Each
    right-hand-side term c * pi^e * m (m free of pi) at y^p becomes the entry
    c of direction (m, e - p); a solved value d of that direction at unknown
    (cell, k) stands for d * pi^(k + e - p) * m.  The solution's tables are
    built once from these terms, grouped by cell, and rechecked with the
    symbolic operator.
    """
    lam = params.lam
    unknowns = _ansatz_unknowns(rhs_expr, windows)
    columns = {(cell, k): unit_column(lam, rhs_expr, cell, k) for cell, k in unknowns}
    eq_keys = {row for col in columns.values() for row in col}

    entries: Dict = {}
    for cell, poly in rhs_expr.table.items():
        for (p, j), const in poly.terms().items():
            if j != 0:
                raise ValueError("log-bearing right-hand sides are not supported")
            eq_keys.add((cell, p))
            for mono, coeff in const.terms().items():
                rest = SymbolMonomial([(s, e) for s, e in mono.items() if s != SYM_PI])
                entries[(rest, mono.pi_exponent() - p, (cell, p))] = coeff
    directions = sorted({(m, g) for m, g, _ in entries}, key=lambda d: (d[0].sort_key(), d[1]))
    dir_index = {d: i for i, d in enumerate(directions)}
    rhs_rows: Dict = {key: [Fraction(0)] * len(directions) for key in eq_keys}
    for (m, g, row), coeff in entries.items():
        rhs_rows[row][dir_index[(m, g)]] = coeff

    row_order = sorted(eq_keys, key=lambda e: (e[1], e[0]))
    col_order = unknowns
    solution, kernel_cols, inconsistent = _eliminate(columns, rhs_rows, col_order, row_order)
    if inconsistent:
        raise NoSolutionInWindow(
            f"inconsistent rows at {inconsistent[:6]} (case {case}, lambda={lam})",
            windows=windows,
            inconsistent_rows=inconsistent,
        )

    terms: Dict = {}
    for (cell, k), vals in solution.items():
        coeff = {_times_pi(rest, k + g): val for (rest, g), val in zip(directions, vals) if val}
        if coeff:
            terms.setdefault(cell, {})[k, 0] = Constant._trusted(coeff)
    sol = rhs_expr.with_table({cell: YLaurent._trusted(t) for cell, t in terms.items()})
    if not (operator_image(lam, sol) - rhs_expr).is_zero():
        raise AssertionError("solver produced a non-exact solution (residual != 0)")

    report = SolveReport(
        case=case,
        windows=dict(windows),
        retries=0,
        kernel_dim=len(kernel_cols),
        num_unknowns=len(col_order),
        num_equations=len(row_order),
        support={c: sol.table[c].support() for c in sol.table},
    )
    return sol, report


def widen_and_retry(builder):
    """Run builder(t) for t = 0, 1, ..., WIDEN_CAP until it stops raising
    NoSolutionInWindow; each retry widens every window by one on both sides."""
    last: Optional[NoSolutionInWindow] = None
    for t in range(WIDEN_CAP + 1):
        try:
            result, report = builder(t)
            report.retries = t
            return result, report
        except NoSolutionInWindow as exc:
            exc.retries = t
            last = exc
    raise NoSolutionInWindow(
        f"no solution after {WIDEN_CAP} widenings: {last}",
        windows=last.windows,
        inconsistent_rows=last.inconsistent_rows,
        retries=WIDEN_CAP,
    ) from last


def _solve_widening(params: Params, rhs, cells, case: str):
    """Solve with the source's window for every cell, widened by one on both
    sides per retry."""
    base = _source_window(params.r_hint, rhs)

    def builder(t):
        return _assemble_and_solve(params, rhs, {c: base.widen(t) for c in cells}, case)

    return widen_and_retry(builder)


def solve_particular_double(
    params: Params, rhs: DoubleBessel, case: Optional[str] = None
) -> Tuple[DoubleBessel, SolveReport]:
    """Solve P_lam(g) = rhs exactly for the bilinear ansatz g."""
    case = case or ("anti_diagonal" if rhs.n1 + rhs.n2 == 0 else "generic")
    cells = sorted({rhs.fold((i, j)) for i in (0, 1) for j in (0, 1)})
    return _solve_widening(params, rhs, cells, case)


def solve_particular_single(
    params: Params, rhs: SingleBessel, case: str = "single"
) -> Tuple[SingleBessel, SolveReport]:
    """Solve L_lam(g) = rhs exactly for the single-Bessel ansatz g."""
    return _solve_widening(params, rhs, (0, 1), case)


# ---------------------------------------------------------------------------
# Zero mode (Euler operator): closed-form particular solutions
# ---------------------------------------------------------------------------


def solve_zero_mode(params: Params, source: Pure) -> Pure:
    """Particular solution of (y^2 d^2 - lam) g = source for a power-log source.

    Non-resonant powers y^k map to y^k / (k(k-1) - lam).  At resonance
    (k(k-1) = lam, i.e. k = -r or r+1) the regularized particular

        y^k (log y - 1/(2k-1)) / (2k-1)

    is used; it is the epsilon -> 0 limit of y^{k+eps}/((k+eps)(k+eps-1)-lam)
    minus its homogeneous pole, and matches the worked solutions verbatim.
    The resonant powers are thus exactly the y^k log y terms of the result.
    The homogeneous degrees themselves are never added to the particular part;
    the free element y^{-r} is attached by ``homogeneous.solve_mode``.
    """
    lam = params.lam
    out = YLaurent.zero()
    for (k, j), coeff in source.poly.terms().items():
        if j != 0:
            raise ValueError("zero-mode sources are log-free")
        denom = k * (k - 1) - lam
        if denom != 0:
            out = out + YLaurent.monomial(k, coeff * Fraction(1, denom))
        else:
            w = 2 * k - 1
            out = out + YLaurent.monomial(k, coeff * Fraction(1, w), log_exp=1)
            out = out + YLaurent.monomial(k, coeff * Fraction(-1, w * w))
    particular = Pure(out)
    if not (operator_image(lam, particular) - source).is_zero():
        raise AssertionError("zero-mode particular failed its defining equation")
    return particular
