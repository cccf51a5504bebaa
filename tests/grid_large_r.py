"""The full large-r grid: every mode solves, and is obstructed exactly below the weight sum.

Run from the repository root:

    PYTHONPATH=src python tests/grid_large_r.py

The file name keeps it out of the tier-1 collection (pytest collects
test_*.py); tests/test_homogeneous.py runs a slice of it.  The grid is the
150 solvable UNIT families alpha <= beta in {3/2, 11/2, 21/2, 31/2, 41/2}
with r in 21..40 (r + alpha + beta up to 81), and the edge families
r = alpha + beta - 2 and r = alpha + beta for alpha <= beta in {3/2, 11/2,
21/2, ..., 101/2}.  In each family the six kinds of LARGE_R_KINDS must
solve, and a mode is obstructed exactly when r <= alpha + beta - 2;
zero_mode_alpha_sum must return a document with no NaN or Infinity.  The
script prints its counts and wall time, and exits 1 on the first family
that breaks a rule.
"""

import json
import sys
import time
from fractions import Fraction

from eisenmodes.homogeneous import solve_mode, zero_mode_alpha_sum
from eisenmodes.sources import Normalization, Params, classify_params

# as in tests/test_homogeneous.py: generic, a K_3 K_4 source at |n| = 150, the
# anti-diagonal, left and right zero, and a merged double source
LARGE_R_KINDS = [(7, 11), (150, -149), (5, -5), (0, 9), (9, 0), (6, 6)]
GRID_WEIGHTS = [Fraction(w, 2) for w in (3, 11, 21, 31, 41)]
EDGE_WEIGHTS = [Fraction(w, 2) for w in (3, *range(11, 102, 10))]


def families():
    """(alpha, beta, r) of the grid, then of the edges."""
    grid = [(a, b, r) for a in GRID_WEIGHTS for b in GRID_WEIGHTS if a <= b
            for r in range(21, 41) if classify_params(a, b, r * (r + 1)).kind == "solvable"]
    edges = [(a, b, int(a + b) + d) for a in EDGE_WEIGHTS for b in EDGE_WEIGHTS if a <= b
             for d in (-2, 0)]
    return grid, edges


def check(alpha, beta, r) -> int:
    """The number of obstructed modes of one family; raises on a broken rule."""
    p = Params(alpha, beta, r * (r + 1), Normalization.UNIT)
    obstructed = 0
    for n1, n2 in LARGE_R_KINDS:
        mode = solve_mode(p, n1, n2)
        if (mode.obstruction is not None) != (r <= alpha + beta - 2):
            raise RuntimeError(f"({alpha}, {beta}, r={r}) at ({n1}, {n2}): obstruction "
                               f"{mode.obstruction is not None}, against r <= alpha + beta - 2")
        obstructed += mode.obstruction is not None
    json.dumps(zero_mode_alpha_sum(p).to_json_obj(), allow_nan=False)
    return obstructed


def main() -> int:
    start = time.perf_counter()
    grid, edges = families()
    if len(grid) != 150:
        raise RuntimeError(f"expected 150 solvable grid families, found {len(grid)}")
    try:
        counts = {name: sum(check(*f) for f in fams) for name, fams in (("grid", grid), ("edges", edges))}
    except (RuntimeError, ValueError) as exc:
        print(f"FAIL: {exc}")
        return 1
    print(f"{len(grid)} grid families ({counts['grid']} obstructed modes), {len(edges)} edge "
          f"families ({counts['edges']} obstructed), {len(LARGE_R_KINDS)} kinds each, "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
