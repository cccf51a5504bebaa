"""Exact undetermined-coefficient solves for the mode equations.

Matching P(g) (or L(g)) against the full source couples ansatz
coefficients only across nearby y-degrees, so each solve is a small banded
overdetermined linear system.  Its entries are rational multiples of powers
of pi, graded by the degree shift: the image of y^k at y^p carries exactly
pi^(p-k).  Rescaling unknowns and equations by powers of pi turns the system
into one over Q with the same zero pattern, whose columns are the pi-free
integer closed form of the operator.  A solve builds that closed form once
per cell (``bessel.cell_stencil``: the cell's index sum sigma and its
off-diagonal entries c1 * d + c0, d = k - sigma, targets folded and merged)
and evaluates it over its unknowns straight into a row-major system
{row: {column index: int}}, zero entries dropped: a resonant unknown has no
diagonal entry.  ``_recurrence`` reads that system as it is, never
transposed.  The right-hand side is the
source's flat value (``bessel.FlatExpr``, {(cell, y power, log power, pi
exponent, pi-free rest): int} over one denominator), read as it is: each
term splits into a direction (rest, pi exponent minus y power), each
direction an int column over one scale.  Systems are solved exactly over Q
in Python ints from the stencil to the solved values, which stay
(numerators, denominator) per direction; the solution is one flat value over
the lcm of those denominators, which the solver returns, once rechecked,
with no Fraction made (``homogeneous.solve_mode`` builds the particular
expression from it).  The zero mode's Euler equation is solved in closed
form on its flat source, in ints, and returned the same way.

The stencil is banded: row (cell, k) meets only the unknowns of degrees k,
k - 1 and k - 2, and at degree k only its own unknown, with the diagonal
d(d - 1) - lam (d = k minus the cell's index sum).  So one ascending pass in
(degree, cell) order fixes each unknown from its own row (``_recurrence``).
Where the diagonal is zero (a resonance, d = -r or r + 1) the unknown becomes
a free parameter and its row a constraint, as are the rows above the window
and any source row no unknown reaches; a small fraction-free solve of the
constraints then fixes the parameters.  Where it does, the system has full
column rank and is consistent, so its solution is unique.  Where it does
not, the solve raises ``NoSolutionInWindow``: with the constraint rows left
unpivoted with a nonzero right-hand side, in row order, for an inconsistent
system, and with a message of its own for consistent constraints of
deficient rank.  A row with a nonzero diagonal that reaches a later column
breaks the band and raises AssertionError.

Every cell of a mode gets one window, the pair (m, M), from the source's
y-powers [lo, hi] and r = ``params.r_hint``: (min(-r+1, lo), hi) for a
double-Bessel source, (min(-r+1, lo), r+2) for an anti-diagonal one,
(min(-r, lo-1), hi-1) for a single-Bessel one.  The operator keeps the parity
of p + sigma at y^p times a cell, sigma the cell's index sum (i + j at
y^p K_i K_j, i at y^p K_i) that its stencil carries, and every source lies in
one such class, so only the unknowns of the source's class are solved for;
the others could only be zero.  The window is derived, never configured or
widened: a mode that fails on it reports it with the inconsistent rows.

One function solves both Bessel kinds: ``solve_particular_single`` is
``solve_particular_double``, and ``_assemble_and_solve`` reads the kind from
the source's shape (its cells, its window).  Both names stay bound, each
called by ``homogeneous.solve_mode`` for its own kind.

Every returned solution, the zero mode's included, is re-verified
(``_recheck``) by applying the integer kernel of the symbolic operator of
its kind (``bessel._operator_terms``, the one ``bessel.mode_operator``
runs) to the flat solution: the image must
equal the flat source, compared exactly by cross-multiplying the two
denominators.  The kernel shares no code with the stencil: it keeps pi and
every other symbol in its keys and takes no pi grading or rescaling from the
solve, so a fault in the stencil, the rescaling or the recurrence shows as an
image unequal to the right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Dict, Tuple

from .bessel import FlatExpr, SingleBessel, _operator_terms, cell_stencil
# bound here only because perfbench wraps solver.apply_P and solver.apply_L by
# name to time them; no solver code calls them
from .bessel import apply_L, apply_P  # noqa: F401
from .sources import Params

__all__ = [
    "NoSolutionInWindow",
    "SolveReport",
    "solve_particular_double",
    "solve_particular_single",
    "solve_zero_mode",
    "widen_and_retry",
]


class NoSolutionInWindow(Exception):
    """The banded system of the derived windows has no unique solution.

    inconsistent_rows are the constraint rows left inconsistent, empty for
    consistent constraints of deficient rank; retries is always 0, the
    derived windows being the only ones tried."""

    retries = 0

    def __init__(self, message, windows=None, inconsistent_rows=None):
        super().__init__(message)
        self.windows = windows
        self.inconsistent_rows = inconsistent_rows or []


@dataclass
class SolveReport:
    # both always 0, as NoSolutionInWindow.retries: a solve tries its derived
    # windows only, and a kernel fails it; success documents and perfbench
    # still read them
    retries = 0
    kernel_dim = 0

    windows: Dict
    num_unknowns: int
    num_equations: int

    def to_json_obj(self) -> dict:
        """What the solve decided; ``ModeSolution.to_json_obj`` adds the
        mode's case and the particular's support."""
        return {
            "window_used": {str(c): list(w) for c, w in self.windows.items()},
            "retries": self.retries,
            "kernel_dim": self.kernel_dim,
            "num_unknowns": self.num_unknowns,
            "num_equations": self.num_equations,
            "residual_check": "exact-zero",  # the recheck raises on any other outcome
        }


# ---------------------------------------------------------------------------
# The derived window and the parity class
# ---------------------------------------------------------------------------


def _parity_class(rhs: FlatExpr, sigma: Dict) -> int:
    """The common parity of p + sigma[cell] over the terms y^p of the flat
    source, sigma[cell] the sum of the cell's K indices.

    The mode operator keeps that parity, so a source spanning both classes
    breaks an invariant of the operator, not an input condition.
    """
    classes = {(key[1] + sigma[key[0]]) % 2 for key, q in rhs.terms.items() if q}
    if len(classes) != 1:
        raise AssertionError(f"source spans parity classes {sorted(classes)}")
    return classes.pop()


def _source_window(r: int, rhs: FlatExpr) -> Tuple[int, int]:
    """The ansatz window (m, M) every cell gets, from the flat source's y-powers [lo, hi]."""
    powers = [key[1] for key, q in rhs.terms.items() if q]
    lo, hi = min(powers), max(powers)
    if isinstance(rhs.shape, SingleBessel):
        return min(-r, lo - 1), hi - 1
    if sum(rhs.shape.freqs) == 0:  # anti-diagonal: no mass term, the particular reaches y^(r+2)
        return min(-r + 1, lo), r + 2
    return min(-r + 1, lo), hi


def _ansatz_unknowns(rhs: FlatExpr, window: Tuple[int, int], sigma: Dict):
    """The unknowns (cell, k), m <= k <= M, of every cell of sigma in the
    flat source's parity class, in ascending y-degree then cell order."""
    parity = _parity_class(rhs, sigma)
    m, M = window
    unknowns = [(c, k) for c, s in sigma.items() for k in range(m + (m + s + parity) % 2, M + 1, 2)]
    return sorted(unknowns, key=itemgetter(1, 0))


# ---------------------------------------------------------------------------
# The ascending recurrence over Q, fraction-free
# ---------------------------------------------------------------------------


def _recurrence(system, rhs_rows, scales, col_order, row_order):
    """Solve a mode system in one ascending pass over its unknowns, exactly.

    system: dict row -> dict u -> int, the assembled sparse matrix row-major,
    u the index of a column in col_order, no zero entry kept
    rhs_rows: dict row -> list[int], one int per right-hand-side direction d,
    standing for int / scales[d]
    row_order: every row of system and rhs_rows, in ascending (degree, cell)
    Returns the solution, one (numerators in col_order, denominator) per
    direction; the system is read as it is, never copied or transposed.

    Unknown u, in col_order, is fixed by its own row (the row named like
    col_order[u]) when that row has a nonzero diagonal: x_u = (rhs_u -
    sum(A[u, c] * x_c)) / A[u, u].  Its other entries lie in earlier columns
    (in a mode system, at degrees k - 1 and k - 2); one in a later column
    breaks the band and raises AssertionError.  Where the diagonal is zero (a
    resonance) x_u becomes a free parameter t_j and row u a constraint, like
    every row that fixes no unknown.  Every x is carried as an affine
    function of the parameters: one integer component per right-hand-side
    direction and one per parameter, each over one running denominator,
    multiplied up where a pivot does not divide.  The constraints then form
    a small integer system in the parameters whose solutions and kernel are
    those of the whole system (``_fix_parameters``): the whole system has a
    unique solution exactly where it does, and NoSolutionInWindow is raised
    where it does not.
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
            raise AssertionError(f"row {col} reaches a later column: the system is not banded")
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

    g, h, names = [], [], []
    for row in row_order:
        if row in solved_rows:
            continue
        entries = system[row].items() if row in system else ()
        g.append([sum(v * w[c] for c, v in entries) for w in weights])
        b = rhs_rows.get(row, zero)
        h.append([b[d] * f - sum(v * num[c] for c, v in entries)
                  for d, (num, f) in enumerate(directions)])
        names.append(row)
    values = _fix_parameters(g, h, names, len(weights), len(directions))

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
    return solution


def _fix_parameters(g, h, names, n_params, n_dirs):
    """The unique s with g s = h, one column of h per direction, as
    (numerators, denominator) in lowest terms per direction.

    Fraction-free Gauss-Jordan on the rows [g | h], row i named names[i]:
    the pivot of column j is the first unpivoted row with an entry there.
    An unpivoted row with a nonzero right-hand side in some direction is
    inconsistent; NoSolutionInWindow names every such row, in the order of
    `names`.  Consistent rows where g has deficient column rank raise it
    with a message of their own and no row: the solution is not unique.
    """
    rows = [gr + hr for gr, hr in zip(g, h)]
    free, pivots = list(range(len(rows))), []
    for j in range(n_params):
        i = next((i for i in free if rows[i][j]), None)
        if i is None:
            continue
        free.remove(i)
        pivots.append(i)
        pivot = rows[i]
        for k, row in enumerate(rows):
            if k != i and row[j]:
                a, b = pivot[j], row[j]
                rows[k] = [a * x - b * y for x, y in zip(row, pivot)]
    inconsistent = [names[i] for i in free if any(rows[i][n_params:])]
    if inconsistent:
        raise NoSolutionInWindow(f"inconsistent rows at {inconsistent[:6]}",
                                 inconsistent_rows=inconsistent)
    if len(pivots) < n_params:
        raise NoSolutionInWindow(f"consistent constraints of rank {len(pivots)} in "
                                 f"{n_params} resonant parameters: no unique solution")
    diagonal = [rows[i][j] for j, i in enumerate(pivots)]
    values = []
    for d in range(n_dirs):
        den = math.lcm(*diagonal)
        nums = [rows[i][n_params + d] * (den // p) for i, p in zip(pivots, diagonal)]
        content = math.gcd(den, *nums)
        values.append(([x // content for x in nums], den // content))
    return values


def _assemble_and_solve(params: Params, rhs: FlatExpr):
    """Assemble the banded system of the derived window and solve it exactly.

    The cells are those of the source's kind: 0 and 1 for a single-Bessel
    source, the folded four for a double one.  Each cell's ``cell_stencil``
    is built once; every cell gets the one window (m, M) that
    ``_source_window`` derives from the source, and ``_ansatz_unknowns``
    lists its unknowns in the source's parity class, reading each cell's
    index sum sigma from its stencil.  The operator is pi-graded: the image
    of y^k (times a Bessel cell) at y^p is a rational q times pi^(p-k).
    Scaling unknown (cell, k) by pi^k and row (cell, p) by pi^-p therefore
    leaves a rational matrix with the zero pattern of the original, whose
    column (cell, k) is the operator with pi = 1.  The stencils are evaluated
    over the unknowns into the row-major system {row: {u: int}}, u the
    unknown's index in (degree, cell) order, and entries that are zero at
    that degree (the diagonal of a resonant unknown) are not stored, so the
    rows are those of the nonzero column entries and the source rows.
    ``_recurrence`` solves it; where it raises NoSolutionInWindow, the error
    is raised again with the window of each cell.  Each flat source term q
    pi^e rest at y^p (over the source's den) becomes the int q of direction
    (rest, e - p) at row (cell, p), each direction reduced by one gcd with
    den; a solved value of that direction at unknown (cell, k) stands for
    that value times pi^(k + e - p) rest.  The flat solution, over the lcm of
    the directions' denominators, must pass ``_recheck`` before its
    expression is built.
    """
    lam = params.lam
    shape = rhs.shape
    cells = ((0, 1) if isinstance(shape, SingleBessel)
             else sorted({shape.fold((i, j)) for i in (0, 1) for j in (0, 1)}))
    stencil = {c: cell_stencil(shape, c) for c in cells}
    window = _source_window(params.r_hint, rhs)
    windows = dict.fromkeys(cells, window)
    col_order = _ansatz_unknowns(rhs, window, {c: sigma for c, (sigma, _) in stencil.items()})
    system: Dict = {}
    for u, (cell, k) in enumerate(col_order):
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
    try:
        solution = _recurrence(system, rhs_rows, scales, col_order, row_order)
    except NoSolutionInWindow as exc:
        raise NoSolutionInWindow(f"{exc} (lambda={lam})", windows, exc.inconsistent_rows) from None

    den = math.lcm(*(d for _, d in solution))
    lifts = [(rest, g, nums, den // d) for (rest, g), (nums, d) in zip(directions, solution)]
    terms: Dict = {}
    for u, (cell, k) in enumerate(col_order):
        for rest, g, nums, lift in lifts:
            if nums[u]:
                terms[cell, k, 0, k + g, rest] = nums[u] * lift
    checked = FlatExpr(shape, MappingProxyType(terms), den)
    _recheck(lam, checked, rhs)
    return checked, SolveReport(windows, len(col_order), len(row_order))


def _recheck(lam: int, sol: FlatExpr, rhs: FlatExpr) -> None:
    """Raise AssertionError unless the mode operator maps the flat solution
    to the flat source exactly.

    The image comes from ``bessel._operator_terms``, the integer kernel of
    ``bessel.mode_operator``: it keeps pi and every other symbol in the keys
    and shares no code with the stencil (``cell_stencil``).  Its term at key
    y^(p - 2) over sol.den is compared with the source's at y^p over rhs.den
    by cross-multiplying, and the matched terms must be all the nonzero
    source terms.  The raise is explicit, so that python -O keeps it.
    """
    src = rhs.terms
    matched = 0
    for (cell, k, j, e, rest), q in _operator_terms(lam, sol).items():
        if q:
            if q * rhs.den != src.get((cell, k + 2, j, e, rest), 0) * sol.den:
                raise AssertionError("solver produced a non-exact solution (residual != 0)")
            matched += 1
    if matched != sum(1 for q in src.values() if q):
        raise AssertionError("solver produced a non-exact solution (residual != 0)")


def widen_and_retry(builder):
    """Run builder(0) once and return its (checked flat solution, report).

    A solve tries its derived windows only, so nothing is retried; the
    runner stays bound because perfbench wraps it by name to count
    ``solver.window_attempts``."""
    return builder(0)


def solve_particular_double(params: Params, rhs: FlatExpr) -> Tuple[FlatExpr, SolveReport]:
    """Solve the mode equation of the kind of `rhs` exactly: P_lam(g) = rhs
    for the bilinear ansatz g when rhs is the flat value of a
    ``DoubleBessel``, L_lam(g) = rhs for the single-Bessel ansatz when it is
    a ``SingleBessel``'s; g is returned flat, as ``_recheck`` checked it.
    ``solve_particular_single`` is this function."""
    return widen_and_retry(lambda _: _assemble_and_solve(params, rhs))


# one solve for both kinds; homogeneous.solve_mode calls each name for its own
# kind, so that perfbench, which wraps both names there, times each
solve_particular_single = solve_particular_double


# ---------------------------------------------------------------------------
# Zero mode (Euler operator): closed-form particular solutions
# ---------------------------------------------------------------------------


def solve_zero_mode(params: Params, rhs: FlatExpr) -> FlatExpr:
    """Particular solution of (y^2 d^2 - lam) g = rhs for the flat value of
    a power-log ``Pure`` source, returned flat as ``_recheck`` checked it.

    Non-resonant powers y^k map to y^k / (k(k-1) - lam).  At resonance
    (k(k-1) = lam, i.e. k = -r or r+1) the regularized particular

        y^k (log y - 1/(2k-1)) / (2k-1)

    is used; it is the epsilon -> 0 limit of y^{k+eps}/((k+eps)(k+eps-1)-lam)
    minus its homogeneous pole, and matches the worked solutions verbatim.
    The resonant powers are thus exactly the y^k log y terms of the result.
    The homogeneous degrees themselves are never added to the particular part;
    the free element y^{-r} is attached by ``homogeneous.solve_mode``.  The
    solution is in ints over rhs.den times the lcm of the divisors
    |k(k-1) - lam| and (2k-1)^2, and passes the recheck every particular does.
    """
    lam = params.lam
    if any(key[2] for key, q in rhs.terms.items() if q):
        raise ValueError("zero-mode sources are log-free")
    scale = math.lcm(*{abs(k * (k - 1) - lam) or (2 * k - 1) ** 2 for _, k, *_ in rhs.terms})
    terms: Dict = {}
    for (cell, k, _, e, rest), q in rhs.terms.items():
        d = k * (k - 1) - lam
        if d:
            terms[cell, k, 0, e, rest] = q * (scale // d)
        else:
            w = 2 * k - 1
            terms[cell, k, 1, e, rest] = q * (scale // w)
            terms[cell, k, 0, e, rest] = -q * (scale // (w * w))
    checked = FlatExpr(rhs.shape, MappingProxyType(terms), rhs.den * scale)
    _recheck(lam, checked, rhs)
    return checked
