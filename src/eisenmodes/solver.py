"""Exact undetermined-coefficient solves for the mode equations.

Matching P(g) (or L(g)) against the full source couples ansatz
coefficients only across nearby y-degrees, so each solve is a small banded
overdetermined linear system.  Its entries are rational multiples of powers
of pi, graded by the degree shift: the image of y^k at y^p carries exactly
pi^(p-k).  Rescaling unknowns and equations by powers of pi turns the system
into one over Q with the same zero pattern, whose columns are the pi-free
integer closed form ``bessel.unit_column``.  A solve builds that closed form
once per cell (``bessel.cell_stencil``: the cell's index sum sigma and its
off-diagonal entries c1 * d + c0, d = k - sigma, targets folded and merged)
and every window evaluates it over its unknowns straight into a row-major
system {row: {column index: int}}, zero entries dropped: a resonant unknown
has no diagonal entry.  ``_recurrence`` and ``_eliminate`` both read that
system; neither transposes it.  The right-hand side is the
source's flat value (``bessel.FlatExpr``, {(cell, y power, log power, pi
exponent, pi-free rest): int} over one denominator), read as it is: each
term splits into a direction (rest, pi exponent minus y power), each
direction an int column over one scale.  Systems are solved exactly over Q
in Python ints from the stencil to the solved values, which stay
(numerators, denominator) per direction; the solution is one flat value over
the lcm of those denominators, and no Fraction is made until the particular
expression is built from it once, after the recheck.

The stencil is banded: row (cell, k) meets only the unknowns of degrees k,
k - 1 and k - 2, and at degree k only its own unknown, with the diagonal
d(d - 1) - lam (d = k minus the cell's index sum).  So one ascending pass in
(degree, cell) order fixes each unknown from its own row (``_recurrence``).
Where the diagonal is zero (a resonance, d = -r or r + 1) the unknown becomes
a free parameter and its row a constraint, as are the rows above the window
and any source row no unknown reaches; a small fraction-free solve of the
constraints then fixes the parameters.  Where it does, the system has full
column rank and is consistent, so its solution is unique and no kernel or
inconsistent row exists.  Where the constraints are rank-deficient or
inconsistent, forward elimination solves the system instead (``_eliminate``):
fraction-free (each direction scaled to integers, rows kept as integer
multiples of their rational counterparts), then back-substitution over one
running denominator per direction.  Its pivot of each column, taken in
ascending y-degree then cell order, is the unused row with the fewest
entries, ties broken by ascending y-degree then cell.  Row scaling keeps zero
patterns, and the pivot rows that Gauss-Jordan would go on reducing are never
candidates again, so these are the pivots elimination over Fractions would
choose; they fix which rows an inconsistent system reports.  Free variables
of an underdetermined system are set to zero and counted as kernel
dimension.

Every cell of a mode gets one window from the source's y-powers [lo, hi] and
r = ``params.r_hint``: [min(-r+1, lo), hi] for a double-Bessel source,
[min(-r+1, lo), r+2] for an anti-diagonal one, [min(-r, lo-1), hi-1] for a
single-Bessel one.  The operator keeps the parity of p + i + j at y^p K_i K_j
(p + i at y^p K_i) and every source lies in one such class, so only the
unknowns of the source's class are solved for; the others could only be zero.
The window is derived, never configured.  An inconsistent system is retried
with every window widened by one on both sides, WIDEN_CAP times at most; no
solvable family needs a retry, so a failure reports the derived window
widened WIDEN_CAP times; widened windows skip the recurrence.

Every returned solution is re-verified (``_recheck``) by applying the
integer kernel of the symbolic operator of its kind (``bessel._operator_terms``,
the one ``apply_P``, ``apply_L`` and ``operator_image`` run) to the flat
solution: the image must equal the flat source, compared exactly by
cross-multiplying the two denominators.  The kernel shares no code with the
stencil: it keeps pi and every other symbol in its keys and takes no pi
grading or rescaling from the solve, so a fault in the stencil, the
rescaling, the recurrence or the elimination shows as an image unequal to the
right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Optional, Tuple

from .bessel import (
    DoubleBessel, FlatExpr, Pure, SingleBessel, _operator_terms, apply_euler, apply_L, apply_P,
    cell_stencil,
)
from .laurent import YLaurent
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
    # the flat solution the recheck checked; ``homogeneous.solve_mode`` hands
    # it to ``choose_alpha`` and clears it, so that a held mode keeps no flat map
    checked: Optional[FlatExpr] = field(default=None, repr=False, compare=False)

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


def _parity_class(rhs: FlatExpr) -> int:
    """The common parity of p + parity(cell) over the terms y^p of the flat source.

    The mode operator keeps that parity, so a source spanning both classes
    breaks an invariant of the operator, not an input condition.
    """
    keys = [key for key, q in rhs.terms.items() if q]
    parity = {cell: _cell_parity(rhs.shape, cell) for cell in {key[0] for key in keys}}
    classes = {(key[1] + parity[key[0]]) % 2 for key in keys}
    if len(classes) != 1:
        raise AssertionError(f"source spans parity classes {sorted(classes)}")
    return classes.pop()


def _source_window(r: int, rhs: FlatExpr) -> DegreeWindow:
    """The ansatz window every cell gets, from the flat source's y-powers [lo, hi]."""
    powers = [key[1] for key, q in rhs.terms.items() if q]
    lo, hi = min(powers), max(powers)
    if isinstance(rhs.shape, SingleBessel):
        return DegreeWindow(min(-r, lo - 1), hi - 1)
    if sum(rhs.shape.freqs) == 0:  # anti-diagonal: no mass term, the particular reaches y^(r+2)
        return DegreeWindow(min(-r + 1, lo), r + 2)
    return DegreeWindow(min(-r + 1, lo), hi)


def _ansatz_unknowns(rhs: FlatExpr, windows: Dict):
    """The unknowns (cell, k) of the windows in the flat source's parity
    class, in ascending y-degree then cell order."""
    parity = _parity_class(rhs)
    unknowns = []
    for cell, window in windows.items():
        first = window.m + (window.m + _cell_parity(rhs.shape, cell) + parity) % 2
        unknowns.extend((cell, k) for k in range(first, window.M + 1, 2))
    return sorted(unknowns, key=itemgetter(1, 0))


# ---------------------------------------------------------------------------
# Banded elimination over Q, fraction-free
# ---------------------------------------------------------------------------


def _eliminate(system, rhs_rows, scales, col_order, row_order):
    """Exact multi-RHS elimination over the rationals, run on integers.

    system: dict row -> dict u -> int, the assembled sparse matrix row-major,
    u the index of a column in col_order, no zero entry kept
    rhs_rows: dict row -> list[int], one int per right-hand-side direction d,
    standing for int / scales[d]
    row_order: every row of system and rhs_rows, in tie-break order
    Returns (solution, kernel_cols, inconsistent_rows), the solution one
    (numerators in col_order, denominator) per direction.

    The pivot of each column is the shortest unused row, ties broken by row_order.
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
    den and t are multiplied by m, so that num = t / pivot is exact.
    """
    n_dirs, n = len(scales), len(col_order)
    rows = {row: dict(system.get(row, ())) for row in row_order}  # rewritten below
    rhs = {row: rhs_rows.get(row, [0] * n_dirs) for row in row_order}

    pivot_of_col: Dict = {}
    unused = list(row_order)
    for u in range(n):
        candidates = [r for r in unused if u in rows[r]]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: len(rows[r]))
        unused.remove(pivot_row)
        pivot_of_col[u] = pivot_row
        prow, prhs = rows[pivot_row], rhs[pivot_row]
        pivot = prow[u]
        candidates.remove(pivot_row)
        for r in candidates:
            row_r = rows[r]
            factor = row_r[u]
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
    kernel = [u for u in range(n) if u not in pivot_of_col]
    solution = []
    for d, scale in enumerate(scales):
        den, num = scale, dict.fromkeys(kernel, 0)
        for u, row in reversed(pivot_of_col.items()):
            prow = rows[row]
            pivot = prow[u]
            t = rhs[row][d] * (den // scale) - sum(v * num[c] for c, v in prow.items() if c != u)
            m = abs(pivot) // math.gcd(t, pivot)
            if m != 1:
                for c in num:
                    num[c] *= m
                den *= m
                t *= m
            num[u] = t // pivot
        solution.append(([num[u] for u in range(n)], den))
    return solution, [col_order[u] for u in kernel], inconsistent


def _recurrence(system, rhs_rows, scales, col_order, row_order):
    """Solve a mode system in one ascending pass over its unknowns, exactly.

    Same arguments and result as ``_eliminate``, or None where this pass
    cannot settle the system; the row-major system is read as it is, never
    copied or transposed.  Unknown u, in col_order, is fixed by its own row
    (the row named like col_order[u]) when that row has a nonzero diagonal
    and its other entries lie in earlier columns only (in a mode system, at
    degrees k - 1 and k - 2): x_u = (rhs_u - sum(A[u, c] * x_c)) / A[u, u].
    Where the diagonal is zero (a resonance) x_u becomes a free parameter t_j
    and row u a constraint, like every row that fixes no unknown.  Every x is
    carried as an affine function of the parameters: one integer component
    per right-hand-side direction and one per parameter, each over one
    running denominator, multiplied up where a pivot does not divide.  The
    constraints then form a small integer system in the parameters whose
    solutions and kernel are those of the whole system, solved by
    fraction-free Gauss-Jordan.  Where it has full
    column rank and is consistent in every direction, so is the whole
    system: its solution is unique and equals ``_eliminate``'s, with no
    kernel and no inconsistent row.  Otherwise (a rank-deficient or
    inconsistent system, or a row that reaches a later column) the result is
    None.
    """
    zero = [0] * len(scales)

    # a step is (u, pivot, its row's entries, its rhs); the entries keep the
    # diagonal, read while x_u is still 0
    steps, params, solved_rows = [], [], set()
    for u, col in enumerate(col_order):
        row = system.get(col)
        pivot = row.get(u) if row else None
        if not pivot:
            params.append((u, len(steps)))
        elif max(row) > u:
            return None
        else:
            steps.append((u, pivot, row.items(), rhs_rows.get(col, zero)))
            solved_rows.add(col)

    def ascend(num, d, start=0):
        """Numerators of one component over f times its scale, and f."""
        f = 1
        for u, pivot, row, b in steps[start:]:
            t = b[d] * f if d is not None else 0
            for c, v in row:
                t -= v * num[c]
            m = abs(pivot) // math.gcd(t, pivot)
            if m != 1:
                num = [x * m for x in num]
                f *= m
                t *= m
            num[u] = t // pivot
        return num, f

    n = len(col_order)
    directions = [ascend([0] * n, d) for d in range(len(scales))]
    weights = []
    for u, start in params:
        num = [0] * n
        num[u] = 1
        weights.append(ascend(num, None, start)[0])

    g, h = [], []
    for row in row_order:
        if row in solved_rows:
            continue
        entries = system[row].items() if row in system else ()
        g.append([sum(v * w[c] for c, v in entries) for w in weights])
        b = rhs_rows.get(row, zero)
        h.append([b[d] * f - sum(v * num[c] for c, v in entries)
                  for d, (num, f) in enumerate(directions)])
    values = _fix_parameters(g, h, len(weights), len(directions))
    if values is None:
        return None

    # parameter j is t_j = s_j * f_j / (f * scale), with f_j the running
    # denominator of its weights w_j; with s_j = a_j / lcm, x = (lcm * num +
    # sum(a_j * w_j)) / (lcm * f * scale) in each direction
    solution = []
    for (num, f), scale, (s, lcm) in zip(directions, scales, values):
        if lcm != 1:
            num = [x * lcm for x in num]
        for a, w in zip(s, weights):
            if a:
                num = [x + a * y for x, y in zip(num, w)]
        solution.append((num, lcm * f * scale))
    return solution, [], []


def _fix_parameters(g, h, n_params, n_dirs):
    """The unique s with g s = h, one column of h per direction, as
    (numerators, denominator) in lowest terms per direction; None unless g
    has full column rank and every direction is consistent.  Fraction-free
    Gauss-Jordan on the rows [g | h]."""
    rows = [gr + hr for gr, hr in zip(g, h)]
    for j in range(n_params):
        i = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if i is None:
            return None
        rows[i], rows[j] = rows[j], rows[i]
        pivot = rows[j]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                a, b = pivot[j], row[j]
                rows[i] = [a * x - b * y for x, y in zip(row, pivot)]
    if any(any(row[n_params:]) for row in rows[n_params:]):
        return None
    pivots = [rows[j][j] for j in range(n_params)]
    values = []
    for d in range(n_dirs):
        den = math.lcm(*pivots)
        nums = [rows[j][n_params + d] * (den // p) for j, p in enumerate(pivots)]
        content = math.gcd(den, *nums)
        values.append(([x // content for x in nums], den // content))
    return values


def _solve_system(system, rhs_rows, scales, col_order, row_order):
    """The recurrence's solution where it settles the system, else
    ``_eliminate``'s (kernel columns and inconsistent rows included)."""
    return (_recurrence(system, rhs_rows, scales, col_order, row_order)
            or _eliminate(system, rhs_rows, scales, col_order, row_order))


def _assemble_and_solve(params: Params, rhs: FlatExpr, windows: Dict, case: str, stencil: Dict):
    """Assemble the banded system for one window set and solve it exactly.

    The operator is pi-graded: the image of y^k (times a Bessel cell) at
    y^p is a rational q times pi^(p-k).  Scaling unknown (cell, k) by pi^k
    and row (cell, p) by pi^-p therefore leaves a rational matrix with the
    zero pattern of the original, whose column (cell, k) is the operator
    with pi = 1 (``unit_column``).  `stencil` holds ``cell_stencil`` of
    every cell, built once per solve for all its windows; each unknown's
    entries are evaluated from it into the row-major system {row: {u: int}},
    u the unknown's index in (degree, cell) order, and entries that are zero
    at that degree (the diagonal of a resonant unknown) are not stored, so
    the rows are those of the nonzero column entries and the source rows.
    ``_solve_system`` solves it: the ascending recurrence, its resonant
    unknowns parameters fixed by the constraint rows, settles exactly the
    consistent systems of full column rank, whose unique solution is the one
    any elimination finds.  On the others (a failing window), and on every
    widened window, forward elimination over Q picks the pivots, kernel and
    inconsistent rows that Gauss-Jordan over Fractions would find on the
    pi-graded system: scaling keeps zero patterns, and the rows Gauss-Jordan
    reduces further are pivot rows, never candidates again.
    Back-substitution solves the pivot columns with the kernel at zero.  Each
    flat source term q pi^e rest at y^p (over the source's den) becomes the
    int q of direction (rest, e - p) at row (cell, p), each direction reduced
    by one gcd with den; a solved value of that direction at unknown
    (cell, k) stands for that value times pi^(k + e - p) rest.  The flat
    solution, over the lcm of the directions' denominators, must pass
    ``_recheck`` before its expression is built.
    """
    lam = params.lam
    shape = rhs.shape
    unknowns = _ansatz_unknowns(rhs, windows)
    system: Dict = {}
    for u, (cell, k) in enumerate(unknowns):
        sigma, entries = stencil[cell]
        d = k - sigma
        q = d * (d - 1) - lam
        if q:
            system.setdefault((cell, k), {})[u] = q
        for target, offset, c1, c0 in entries:
            q = c1 * d + c0
            if q:
                system.setdefault((target, k + offset), {})[u] = q
    eq_keys = set(system)

    by_direction: Dict = {}
    for (cell, p, j, e, rest), q in rhs.terms.items():
        if not q:
            continue
        if j != 0:
            raise ValueError("log-bearing right-hand sides are not supported")
        eq_keys.add((cell, p))
        by_direction.setdefault((rest, e - p), {})[cell, p] = q
    directions = sorted(by_direction, key=lambda d: (d[0].sort_key(), d[1]))
    rhs_rows: Dict = {}  # the source rows; every other row's rhs is zero
    scales = []
    for d, direction in enumerate(directions):
        entries = by_direction[direction]
        g = math.gcd(rhs.den, *entries.values())
        scales.append(rhs.den // g)
        for row, q in entries.items():
            rhs_rows.setdefault(row, [0] * len(directions))[d] = q // g

    row_order = sorted(eq_keys, key=itemgetter(1, 0))
    col_order = unknowns
    derived = set(windows.values()) == {_source_window(params.r_hint, rhs)}
    solve = _solve_system if derived else _eliminate
    solution, kernel_cols, inconsistent = solve(system, rhs_rows, scales, col_order, row_order)
    if inconsistent:
        raise NoSolutionInWindow(
            f"inconsistent rows at {inconsistent[:6]} (case {case}, lambda={lam})",
            windows=windows,
            inconsistent_rows=inconsistent,
        )

    den = math.lcm(*(d for _, d in solution))
    lifts = [(rest, g, nums, den // d) for (rest, g), (nums, d) in zip(directions, solution)]
    terms: Dict = {}
    support: Dict = {}
    for u, (cell, k) in enumerate(col_order):
        for rest, g, nums, lift in lifts:
            if nums[u]:
                terms[cell, k, 0, k + g, rest] = nums[u] * lift
                support.setdefault(cell, {})[k] = None
    checked = FlatExpr(shape, MappingProxyType(terms), den)
    _recheck(lam, checked, rhs)

    report = SolveReport(
        case=case,
        windows=dict(windows),
        retries=0,
        kernel_dim=len(kernel_cols),
        num_unknowns=len(col_order),
        num_equations=len(row_order),
        support={cell: tuple(ks) for cell, ks in support.items()},
        checked=checked,
    )
    return checked.expr(), report


def _recheck(lam: int, sol: FlatExpr, rhs: FlatExpr) -> None:
    """Raise AssertionError unless the mode operator maps the flat solution
    to the flat source exactly.

    The image comes from ``bessel._operator_terms``, the integer kernel of
    ``apply_P``/``apply_L``: it keeps pi and every other symbol in the keys
    and shares no code with the stencil (``cell_stencil``).  Its term at key
    y^(p - 2) over sol.den is compared with the source's at y^p over rhs.den
    by cross-multiplying, and the matched terms must be all the nonzero
    source terms.  The raise is explicit, so that python -O keeps it.
    """
    src = rhs.terms
    matched = 0
    for (cell, k, j, e, rest), q in _operator_terms(lam, sol.shape, sol.terms).items():
        if q:
            if q * rhs.den != src.get((cell, k + 2, j, e, rest), 0) * sol.den:
                raise AssertionError("solver produced a non-exact solution (residual != 0)")
            matched += 1
    if matched != sum(1 for q in src.values() if q):
        raise AssertionError("solver produced a non-exact solution (residual != 0)")


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
    sides per retry; every window evaluates one stencil, built here."""
    base = _source_window(params.r_hint, rhs)
    stencil = {c: cell_stencil(rhs.shape, c) for c in cells}

    def builder(t):
        return _assemble_and_solve(params, rhs, {c: base.widen(t) for c in cells}, case, stencil)

    return widen_and_retry(builder)


def solve_particular_double(
    params: Params, rhs, case: Optional[str] = None
) -> Tuple[DoubleBessel, SolveReport]:
    """Solve P_lam(g) = rhs exactly for the bilinear ansatz g; rhs is a
    ``DoubleBessel`` or its ``FlatExpr``."""
    rhs = FlatExpr.of(rhs)
    shape = rhs.shape
    case = case or ("anti_diagonal" if shape.n1 + shape.n2 == 0 else "generic")
    cells = sorted({shape.fold((i, j)) for i in (0, 1) for j in (0, 1)})
    return _solve_widening(params, rhs, cells, case)


def solve_particular_single(
    params: Params, rhs, case: str = "single"
) -> Tuple[SingleBessel, SolveReport]:
    """Solve L_lam(g) = rhs exactly for the single-Bessel ansatz g; rhs is a
    ``SingleBessel`` or its ``FlatExpr``."""
    return _solve_widening(params, FlatExpr.of(rhs), (0, 1), case)


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
    if operator_image(lam, particular) != source:
        raise AssertionError("zero-mode particular failed its defining equation")
    return particular
