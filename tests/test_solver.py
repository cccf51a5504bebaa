import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from eisenmodes.bessel import (
    DoubleBessel, FlatExpr, Pure, _flatten, apply_euler, apply_L, apply_P, expr_to_json_obj,
)
from eisenmodes.homogeneous import solve_mode
from eisenmodes.laurent import YLaurent
from eisenmodes.scalars import Constant, SymbolMonomial, zeta_odd
from eisenmodes.solver import (
    _ansatz_unknowns,
    _recurrence,
    _source_window,
    NoSolutionInWindow,
    solve_particular_double,
    solve_particular_single,
    solve_zero_mode,
)
from eisenmodes.sources import Normalization, Params, classify_params, source_term
from test_bessel_ops import columns_of, operator_column, pi_restored

F = Fraction


# The windows once published for the four tabulated weight pairs, cell ->
# (m, M) as a function of r; transposed pairs share them.  Anti-diagonal modes
# kept the lower edges and raised every upper edge to r + 2.
PUBLISHED_WINDOWS = {
    (F(3, 2), F(3, 2)): lambda r: {
        (0, 0): (-r + 2, 1), (0, 1): (-r + 1, 0), (1, 0): (-r + 1, 0), (1, 1): (-r + 2, 1)},
    (F(3, 2), F(5, 2)): lambda r: {
        (0, 0): (-r + 2, 0), (0, 1): (-r + 1, 1), (1, 0): (-r + 1, 1), (1, 1): (-r + 2, 0)},
    (F(5, 2), F(5, 2)): lambda r: {
        (0, 0): (-r + 2, 1), (0, 1): (-r + 1, 0), (1, 0): (-r + 1, 0),
        (1, 1): (min(-r + 1, -1), 1)},
    (F(3, 2), F(7, 2)): lambda r: {
        (0, 0): (-r + 2, 1), (0, 1): (-r + 1, 0), (1, 0): (-r + 1, 0), (1, 1): (-r + 2, 1)},
}


def _published_unknowns(a, b, r, core):
    """The published windows' unknowns in the parity class of the source's terms."""
    if (a, b) in PUBLISHED_WINDOWS:
        table = PUBLISHED_WINDOWS[a, b](r)
    else:
        table = {(i, j): w for (j, i), w in PUBLISHED_WINDOWS[b, a](r).items()}
    if core.n1 + core.n2 == 0:
        table = {c: (m, r + 2) for c, (m, _) in table.items()}
    (parity,) = {(p + sum(c)) % 2 for c, poly in core.table.items() for p in poly.support()}
    return {(core.fold(c), k) for c, (m, M) in table.items()
            for k in range(m, max(m, M) + 1) if (k + sum(c)) % 2 == parity}


def test_derived_windows_continue_the_published_table():
    # same-sign, opposite-sign, merged and anti-diagonal modes of every
    # solvable r <= 8, both weight orders
    gained = {}
    for a, b in list(PUBLISHED_WINDOWS) + [(b, a) for a, b in PUBLISHED_WINDOWS if a != b]:
        for r in range(1, 9):
            if classify_params(a, b, r * (r + 1)).kind != "solvable":
                continue
            p = Params(a, b, r * (r + 1))
            for n1, n2 in ((1, 2), (2, -3), (1, 1), (-2, 2)):
                core = source_term(p, n1, n2).core
                _, rep = solve_particular_double(p, core)
                # every cell of the report holds the one derived pair
                (window,) = {tuple(w) for w in rep.to_json_obj()["window_used"].values()}
                assert rep.windows == dict.fromkeys(rep.windows, window)
                sigma = {cell: sum(cell) for cell in rep.windows}
                derived = set(_ansatz_unknowns(FlatExpr.of(core), window, sigma))
                old = _published_unknowns(a, b, r, core)
                assert old <= derived, (a, b, r, n1, n2)
                if derived != old:
                    gained[a, b, r, n1, n2] = sorted(derived - old)
    # only (5/2, 5/2, r = 1) gains an unknown, y^-1 in cell (0, 0)
    assert gained == {(F(5, 2), F(5, 2), 1, n1, n2): [((0, 0), -1)]
                      for n1, n2 in ((1, 2), (2, -3), (1, 1), (-2, 2))}


SOLVABLE_FAMILIES = [
    (F(a, 2), F(b, 2), r) for a in (3, 5, 7, 9) for b in (3, 5, 7, 9) for r in range(1, 9)
    if classify_params(F(a, 2), F(b, 2), r * (r + 1)).kind == "solvable"
]


def test_derived_windows_solve_every_solvable_family_without_retries():
    # one mode per Bessel case tag: left_zero, right_zero, generic, anti_diagonal
    for a, b, r in SOLVABLE_FAMILIES:
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        for n1, n2 in ((0, 3), (4, 0), (2, -5), (-3, 3)):
            core = source_term(p, n1, n2).core
            solve = solve_particular_single if 0 in (n1, n2) else solve_particular_double
            _, rep = solve(p, core)
            assert rep.retries == 0 and rep.kernel_dim == 0, (a, b, r, n1, n2)


def _json(expr):
    return json.dumps(expr_to_json_obj(expr), sort_keys=True)


def test_row_major_system_is_the_closed_form_columns_transposed(monkeypatch):
    # on the derived windows of every solvable family and mode kind, the
    # system assembled from the per-cell stencil is the symbolic operator's
    # columns, pi^(p - k) restored at y^p, transposed; no zero entry is kept,
    # and a resonant unknown (d(d - 1) = lam, d = k - sigma) has no diagonal
    # entry, so its row is no new equation
    import eisenmodes.solver as solver_mod

    systems = []
    real_recurrence = solver_mod._recurrence

    def recorded(*args):
        systems.append(args)
        return real_recurrence(*args)

    def assembled(p, n1, n2):
        core = source_term(p, n1, n2).core
        solve = solve_particular_single if 0 in (n1, n2) else solve_particular_double
        systems.clear()
        solve(p, core)
        (system, _, _, col_order, _), = systems
        for (cell, k), column in columns_of(system, col_order).items():
            assert pi_restored(column, k) == operator_column(p.lam, core, cell, k), \
                (p, n1, n2, cell, k)
        assert all(q for entries in system.values() for q in entries.values()), (p, n1, n2)
        resonant = []
        for u, (cell, k) in enumerate(col_order):
            d = k - sum(index for index, _ in core.factors(cell))
            if d * (d - 1) == p.lam:
                assert u not in system.get((cell, k), {}), (p, n1, n2, cell, k)
                resonant.append((cell, k))
        return resonant

    monkeypatch.setattr(solver_mod, "_recurrence", recorded)
    kinds = {"generic": (2, -5), "merged": (4, 4), "anti_diagonal": (-3, 3),
             "left_zero": (0, 3), "right_zero": (4, 0)}
    with_resonance = set()
    for a, b, r in SOLVABLE_FAMILIES:
        p = Params(a, b, r * (r + 1), Normalization.UNIT)
        for kind, (n1, n2) in kinds.items():
            if assembled(p, n1, n2):
                with_resonance.add(kind)
    assert with_resonance == set(kinds)
    p = Params(F(3, 2), F(3, 2), 30)
    assert assembled(p, 1, 2) == [((0, 1), -4), ((1, 0), -4), ((1, 1), -3)]


def test_source_spanning_both_parity_classes_breaks_an_invariant():
    # y^0 K0K0 and y^1 K0K0 lie in different classes; no source term can
    # carry both, because the mode operator keeps p + i + j mod 2
    p = Params(F(3, 2), F(3, 2), 30)
    rhs = DoubleBessel(1, 2, {(0, 0): YLaurent.monomial(0) + YLaurent.monomial(1)})
    with pytest.raises(AssertionError, match="parity classes"):
        solve_particular_double(p, rhs)


def test_generic_solve_matches_published_eta_coefficients():
    p = Params(F(3, 2), F(3, 2), 30)
    sol, rep = solve_particular_double(p, source_term(p, 1, 2).core)
    assert rep.kernel_dim == 0 and rep.retries == 0
    # eta^{0,0} at (1,2): 126/pi^4 * n1 n2 (n1^4 - 6n1^3n2 + ...)/(n1+n2)^10 at y^-3
    assert sol.table[(0, 0)].coeff(-3) == Constant.pi_power(
        -4, F(126 * 2 * (1 - 12 + 40 - 48 + 16), 3**10)
    )
    poly = 5 - 92 * 2 + 190 * 4 - 92 * 8 + 5 * 16
    assert sol.table[(0, 0)].coeff(1) == Constant.from_rational(F(2 * 2 * poly, 15 * 3**6))


def test_exact_residual_property():
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, 2, 3)
    sol, _ = solve_particular_double(p, st.core)
    assert (apply_P(30, sol) - st.core).is_zero()
    st = source_term(p, 0, 2)
    single, _ = solve_particular_single(p, st.core)
    assert (apply_L(30, single) - st.core).is_zero()


def test_gmv_case_solves_exactly():
    # lambda = 12 has no published table; the defining equation still pins it
    p = Params(F(3, 2), F(3, 2), 12)
    st = source_term(p, 1, 2)
    sol, rep = solve_particular_double(p, st.core)
    assert rep.kernel_dim == 0
    assert (apply_P(12, sol) - st.core).is_zero()


def test_non_triangular_lambda_has_no_solution():
    # the failure reports the derived windows and the inconsistent
    # constraint rows
    p = Params(F(3, 2), F(3, 2), 10)
    core = source_term(p, 1, 2).core
    with pytest.raises(NoSolutionInWindow) as info:
        solve_particular_double(p, core)
    assert info.value.retries == 0
    derived = _source_window(p.r_hint, FlatExpr.of(core))
    assert info.value.windows == {c: derived for c in ((0, 0), (0, 1), (1, 0), (1, 1))}
    assert info.value.inconsistent_rows  # diagnosis is recorded


def test_single_solve_matches_published_nu():
    p = Params(F(3, 2), F(3, 2), 30)
    sol, rep = solve_particular_single(p, source_term(p, 0, 2).core)
    assert rep.kernel_dim == 0
    z3 = zeta_odd(3)
    # nu_1 y^0 coefficient at n=2: -15 z3/(2 n^2 pi^2)
    expected = Constant.pi_power(-2, F(-15, 2 * 4)) * z3
    assert sol.table[1].coeff(0) == expected


def test_merged_mode_solves_with_three_cells():
    p = Params(F(3, 2), F(3, 2), 30)
    sol, rep = solve_particular_double(p, source_term(p, 1, 1).core)
    assert sorted(sol.table) == [(0, 0), (0, 1), (1, 1)]
    assert sol.table[(0, 0)].coeff(-1) == Constant.pi_power(-2, F(3, 10))


def test_anti_diagonal_direct_solve():
    p = Params(F(3, 2), F(3, 2), 30)
    st = source_term(p, -1, 1)
    sol, _ = solve_particular_double(p, st.core)
    # mu_{0,0} top power y^7: 16384 pi^6 n^6 / 51975 at n = 1
    assert sol.table[(0, 0)].coeff(7) == Constant.pi_power(6, F(16384, 51975))
    assert (apply_P(30, sol) - st.core).is_zero()


def test_zero_mode_verbatim_and_resonance():
    p = Params(F(3, 2), F(3, 2), 30)
    zm = solve_zero_mode(p, source_term(p, 0, 0).full())
    z3 = zeta_odd(3)
    assert zm.poly.coeff(3) == z3 * z3 * F(105, 630)
    assert zm.poly.coeff(-1) == Constant.pi_power(4, F(10, 630))
    assert all(j == 0 for _, j in zm.poly.terms())  # no resonant power
    assert solve_mode(p, 0, 0).hom_basis.kind == "power_neg"

    # resonant case: source y^{r+1} produces y^{r+1} log(y)/(2r+1)
    r = 5
    res = solve_zero_mode(p, Pure(YLaurent.monomial(r + 1)))
    assert [k for k, j in res.poly.terms() if j == 1] == [r + 1]
    assert res.poly.coeff(r + 1, 1) == Constant.from_rational(F(1, 2 * r + 1))
    assert (apply_euler(30, res) - Pure(YLaurent.monomial(r + 1))).is_zero()


def test_band_profile_assertion_is_active(monkeypatch):
    # the system comes from the pi-free per-cell stencil and the exact
    # recheck applies the symbolic operator's integer kernel; they share no
    # code, and a fault in either must make the recheck raise its explicit
    # AssertionError (so it survives python -O), never return
    import eisenmodes.solver as solver_mod

    p = Params(F(5, 2), F(5, 2), 30)
    rhs = source_term(p, 1, 2).core
    solve_particular_double(p, rhs)

    real_stencil = solver_mod.cell_stencil

    def scaled_stencil(expr, cell):
        # c0 of the y^(k+1) K_1 K_1 entry of cell (0, 1) doubled: this system
        # stays consistent, so the fault reaches the recheck
        sigma, entries = real_stencil(expr, cell)
        if cell == (0, 1):
            entries = tuple((t, o, c1, 2 * c0 if (t, o) == ((1, 1), 1) else c0)
                            for t, o, c1, c0 in entries)
        return sigma, entries

    real_kernel = solver_mod._operator_terms

    def perturbed_kernel(lam, expr, terms):
        image = real_kernel(lam, expr, terms)
        key = ((0, 0), -2, 0, 0, SymbolMonomial())  # y^0 K_0 K_0, collected at y^(0 - 2)
        image[key] = image.get(key, 0) + 1
        return image

    def empty_kernel(lam, expr, terms):
        return {}  # an image with no term: only the count of matched source terms sees it

    for attr, patch in [("cell_stencil", scaled_stencil), ("_operator_terms", perturbed_kernel),
                        ("_operator_terms", empty_kernel)]:
        with monkeypatch.context() as m:
            m.setattr(solver_mod, attr, patch)
            with pytest.raises(AssertionError, match="non-exact solution"):
                solve_particular_double(p, rhs)


def test_recheck_catches_a_coefficient_moved_by_2_to_the_minus_200(monkeypatch):
    # The exact recheck compares the flat solution with the flat source by
    # cross-multiplying their denominators; a solved coefficient moved by
    # 2^-200 in the flat solution map, at any unknown the recurrence settles,
    # must still make it raise its explicit AssertionError (pytest.raises, so
    # python -O runs this test too), in a double-Bessel, a single-Bessel and
    # a zero-mode solve.
    import eisenmodes.solver as solver_mod

    tiny = 2**200
    real_recurrence = solver_mod._recurrence
    p = Params(F(3, 2), F(3, 2), 30)
    for n1, n2 in ((1, 2), (0, 3)):
        rhs = source_term(p, n1, n2).core
        solve = solve_particular_double if n1 else solve_particular_single
        unknowns = []

        def recorded(system, rhs_rows, scales, col_order, row_order):
            unknowns.extend(col_order)
            return real_recurrence(system, rhs_rows, scales, col_order, row_order)

        with monkeypatch.context() as m:
            m.setattr(solver_mod, "_recurrence", recorded)
            solve(p, rhs)
        if not unknowns:
            raise AssertionError(f"no unknowns recorded at {(n1, n2)}")
        for u in range(len(unknowns)):

            def moved(*args, u=u):
                solution = real_recurrence(*args)
                nums, den = solution[0]
                nums = [x * tiny for x in nums]
                nums[u] += den  # the value at unknown u moved by 1 / 2^200
                return [(nums, den * tiny)] + solution[1:]

            checked = []
            real_recheck = solver_mod._recheck

            def recheck(lam, sol, rhs):
                checked.append((dict(sol.terms), sol.den))
                return real_recheck(lam, sol, rhs)

            with monkeypatch.context() as m:
                m.setattr(solver_mod, "_recurrence", moved)
                m.setattr(solver_mod, "_recheck", recheck)
                with pytest.raises(AssertionError, match="non-exact solution"):
                    solve(p, rhs)
            (terms, den), = checked
            col = unknowns[u]
            assert any(key[:2] == col and Fraction(q, den).denominator % tiny == 0
                       for key, q in terms.items()), col

    source = source_term(p, 0, 0).full()
    particular = solve_zero_mode(p, source)
    for (k, j), const in particular.poly.terms().items():
        for mono in const.terms():
            shift = YLaurent.monomial(k, Constant({mono: F(1, tiny)}), log_exp=j)
            with monkeypatch.context() as m:
                m.setattr(solver_mod, "Pure", lambda poly, shift=shift: Pure(poly + shift))
                with pytest.raises(AssertionError, match="failed its defining equation"):
                    solve_zero_mode(p, source)


def _lowest(terms, den):
    """A flat map over den in lowest terms, zeros dropped."""
    g = math.gcd(den, *terms.values())
    return {key: q // g for key, q in terms.items() if q}, den // g


@pytest.mark.parametrize("params", [Params(F(3, 2), F(3, 2), 30),
                                    Params(F(5, 2), F(7, 2), 6, Normalization.UNIT)])
@pytest.mark.parametrize("n1, n2, tag", [(0, 0, "both_zero"), (0, 3, "left_zero"),
                                         (4, 0, "right_zero"), (2, -5, "generic"),
                                         (4, 4, "generic"), (-3, 3, "anti_diagonal")])
def test_flat_values_round_trip_through_their_one_rebuild(monkeypatch, params, n1, n2, tag):
    # the source's flat value is its expression flattened, merged cells
    # folded; the flat solution the recheck checked is the returned
    # particular flattened, so the one rebuild after the check loses nothing
    import eisenmodes.solver as solver_mod

    src = source_term(params, n1, n2)
    assert src.case_tag == tag
    flat = src.flat
    assert _lowest(*_flatten(src.full())) == _lowest(flat.terms, flat.den)
    if n1 == n2 != 0:  # merged
        assert {key[0] for key in flat.terms} <= {(0, 0), (0, 1), (1, 1)}
    if tag == "both_zero":
        return  # solved in closed form, rechecked by apply_euler
    checked = []
    real_recheck = solver_mod._recheck

    def recheck(lam, sol, rhs):
        checked.append((dict(sol.terms), sol.den))
        return real_recheck(lam, sol, rhs)

    monkeypatch.setattr(solver_mod, "_recheck", recheck)
    mode = solve_mode(params, n1, n2)
    (terms, den), = checked
    assert _lowest(*_flatten(mode.particular)) == _lowest(terms, den)
    assert mode.report.checked is None  # handed to choose_alpha, not kept


def test_determinism_bit_identical():
    p = Params(F(3, 2), F(7, 2), 30)
    a, _ = solve_particular_double(p, source_term(p, 1, 2).core)
    b, _ = solve_particular_double(p, source_term(p, 1, 2).core)
    assert json.dumps(expr_to_json_obj(a), sort_keys=True) == json.dumps(
        expr_to_json_obj(b), sort_keys=True
    )


def test_parity_violating_params_have_no_ansatz_solution():
    # triangular lambda with alpha + beta + r odd: the classification flags
    # it and the banded system of its derived window is inconsistent
    from eisenmodes.sources import classify_params

    p = Params(F(3, 2), F(3, 2), 20)
    assert classify_params(p.alpha, p.beta, 20).kind == "outside_conjectured_set"
    with pytest.raises(NoSolutionInWindow):
        solve_particular_double(p, source_term(p, 1, 2).core)


def _int_rows(rhs_rows):
    """Fraction right-hand sides as the solver reads them: int rows and one
    scale per direction, the lcm of its denominators."""
    scales = [math.lcm(*(v.denominator for v in d)) for d in zip(*rhs_rows.values())]
    return {row: [v.numerator * (s // v.denominator) for v, s in zip(vals, scales)]
            for row, vals in rhs_rows.items()}, scales


def _as_fractions(solution, col_order):
    """A solution, its (numerators, denominator) per direction read as
    Fractions per unknown: the form of ``_fraction_gauss_jordan``'s values."""
    assert all(type(x) is int for nums, den in solution for x in (*nums, den))
    return {col: [Fraction(nums[u], den) for nums, den in solution]
            for u, col in enumerate(col_order)}


def _eliminated(result, col_order):
    """``_eliminate``'s (solution, kernel columns, inconsistent rows) in the
    form of ``_fraction_gauss_jordan``."""
    solution, kernel_cols, inconsistent = result
    return _as_fractions(solution, col_order), kernel_cols, inconsistent


def _rows_of(columns, col_order):
    """Columns {col: {row: int}} as the solver's row-major system {row: {u:
    int}}, u the index of col in col_order."""
    system = {}
    for u, col in enumerate(col_order):
        for row, q in columns[col].items():
            system.setdefault(row, {})[u] = q
    return system


def _reference(system, rhs_rows, scales, col_order, row_order):
    """``_fraction_gauss_jordan`` on a system in the solver's int form."""
    columns = {col: {} for col in col_order}
    for row, entries in system.items():
        for u, q in entries.items():
            columns[col_order[u]][row] = q
    rows = {row: [Fraction(q, s) for q, s in zip(vals, scales)] for row, vals in rhs_rows.items()}
    return _fraction_gauss_jordan(columns, rows, col_order, row_order)


def _fraction_gauss_jordan(columns, rhs_rows, col_order, row_order):
    """Reference elimination over Fractions with a normalised pivot row; the
    same pivot rule as the solver's fraction-free one."""
    n_dirs = len(next(iter(rhs_rows.values()))) if rhs_rows else 0
    rows = {}
    for col, entries in columns.items():
        for row, val in entries.items():
            rows.setdefault(row, {})[col] = Fraction(val)
    for row in rhs_rows:
        rows.setdefault(row, {})
    rhs = {row: list(rhs_rows.get(row, [Fraction(0)] * n_dirs)) for row in rows}
    pivot_of_col, used_rows = {}, set()
    row_rank = {r: i for i, r in enumerate(row_order)}
    for col in col_order:
        candidates = [r for r in row_order if r not in used_rows and rows[r].get(col)]
        if not candidates:
            continue
        pivot_row = min(candidates, key=lambda r: (len(rows[r]), row_rank[r]))
        used_rows.add(pivot_row)
        pivot_of_col[col] = pivot_row
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = {c: v * inv for c, v in rows[pivot_row].items() if v}
        rhs[pivot_row] = [v * inv for v in rhs[pivot_row]]
        prow, prhs = rows[pivot_row], rhs[pivot_row]
        for r in list(rows):
            factor = rows[r].get(col) if r != pivot_row else None
            if not factor:
                continue
            for c, v in prow.items():
                nv = rows[r].get(c, 0) - factor * v
                if nv:
                    rows[r][c] = nv
                else:
                    rows[r].pop(c, None)
            rhs[r] = [a - factor * b for a, b in zip(rhs[r], prhs)]
    inconsistent = [r for r in row_order if r not in used_rows and any(rhs[r])]
    kernel_cols = [c for c in col_order if c not in pivot_of_col]
    solution = {
        col: rhs[pivot_of_col[col]] if col in pivot_of_col else [Fraction(0)] * n_dirs
        for col in col_order
    }
    return solution, kernel_cols, inconsistent


def _eliminate(system, rhs_rows, scales, col_order, row_order):
    """Exact multi-RHS elimination over the rationals, run on integers: the
    oracle the recurrence is checked against, its pivots those of
    ``_fraction_gauss_jordan``.

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

    pivot_of_col = {}
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


def _random_banded_system(rng, kind):
    """Integer banded columns and fractional multi-direction right-hand sides.

    kind "full": consistent, full column rank; "deficient": consistent with
    columns that repeat multiples of earlier ones; "inconsistent": random
    right-hand sides on an overdetermined system.
    """
    n_cols = rng.randint(3, 14)
    n_rows = n_cols + rng.randint(0, 5)
    band = rng.randint(1, 4)
    columns = {}
    for j in range(n_cols):
        lo = min(j, n_rows - 1)
        columns[j] = {
            i: rng.choice([v for v in range(-12, 13) if v] + [0] * 3)
            for i in range(lo, min(n_rows, lo + band + 1))
        }
        columns[j][lo] = columns[j][lo] or rng.choice([-3, -1, 1, 2, 7])
        if kind == "deficient" and j and rng.random() < 0.4:
            src = rng.randrange(j)
            mult = rng.choice([-2, -1, 1, 3])
            columns[j] = {i: mult * v for i, v in columns[src].items()}
        columns[j] = {i: v for i, v in columns[j].items() if v}
    n_dirs = rng.randint(1, 4)

    def frac():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 36))

    if kind == "inconsistent":
        rhs = {i: [frac() for _ in range(n_dirs)] for i in range(n_rows)}
    else:
        xs = [{j: frac() for j in range(n_cols)} for _ in range(n_dirs)]
        rhs = {i: [Fraction(0)] * n_dirs for i in range(n_rows)}
        for d, x in enumerate(xs):
            for j, col in columns.items():
                for i, v in col.items():
                    rhs[i][d] += v * x[j]
    col_order = list(range(n_cols))
    row_order = list(range(n_rows))
    rng.shuffle(row_order)
    return columns, rhs, col_order, row_order


def test_fraction_free_elimination_matches_fraction_reference():
    # same pivots, same kernel columns, same inconsistent rows and the same
    # solved values as elimination over Fractions
    rng = random.Random(20240)
    seen = {"full": 0, "deficient": 0, "inconsistent": 0}
    for trial in range(300):
        kind = ("full", "deficient", "inconsistent")[trial % 3]
        columns, rhs, col_order, row_order = _random_banded_system(rng, kind)
        system = _rows_of(columns, col_order)
        got = _eliminated(_eliminate(system, *_int_rows(rhs), col_order, row_order), col_order)
        want = _fraction_gauss_jordan(columns, rhs, col_order, row_order)
        assert got == want, (kind, trial)
        _, kernel_cols, inconsistent = got
        if kind == "full" and not kernel_cols and not inconsistent:
            seen["full"] += 1
        if kind == "deficient" and kernel_cols and not inconsistent:
            seen["deficient"] += 1
        if kind == "inconsistent" and inconsistent:
            seen["inconsistent"] += 1
    assert min(seen.values()) >= 50, seen


def _eliminated_at(monkeypatch, solve, p, core, t):
    """solve(p, core) on the derived windows widened by t on both sides, its
    system solved by ``_eliminate``: (particular, kernel columns), or
    NoSolutionInWindow where the system is inconsistent."""
    import eisenmodes.solver as solver_mod

    derived, kernels = solver_mod._source_window, []

    def widened(r, rhs):
        m, M = derived(r, rhs)
        return m - t, M + t

    def eliminating(*args):
        solution, kernel_cols, inconsistent = _eliminate(*args)
        if inconsistent:
            raise NoSolutionInWindow("inconsistent", inconsistent_rows=inconsistent)
        kernels.append(kernel_cols)
        return solution

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_source_window", widened)
        m.setattr(solver_mod, "_recurrence", eliminating)
        particular, _ = solve(p, core)
    return particular, kernels[0]


def _widening_oracle(monkeypatch, solve, p, core):
    """The 13-window loop: the derived windows widened by t = 0, 1, ..., 12,
    each system solved by ``_eliminate``; the first consistent one gives
    (particular, kernel columns), and None means all 13 are inconsistent."""
    for t in range(13):
        try:
            return _eliminated_at(monkeypatch, solve, p, core, t)
        except NoSolutionInWindow:
            pass
    return None


GRID_WEIGHTS = [F(w, 2) for w in (3, 5, 7, 9)]
GRID = [(a, b, r * (r + 1)) for a in GRID_WEIGHTS for b in GRID_WEIGHTS if a <= b
        for r in range(1, 9)]
NON_TRIANGULAR = [(F(3, 2), F(3, 2), 10), (F(3, 2), F(5, 2), 31), (F(5, 2), F(9, 2), 57),
                  (F(7, 2), F(7, 2), 79)]


def _mode_kinds(rng):
    """One mode of each kind at |n| <= 5: merged, anti-diagonal, n1 = 0,
    n2 = 0, same-sign and opposite-sign."""
    n, m = rng.sample(range(1, 6), 2)
    s = rng.choice((1, -1))
    return [(s * n, s * n), (s * n, -s * n), (0, s * m), (s * n, 0), (s * n, s * m), (s * n, -s * m)]


def test_recurrence_on_the_derived_window_agrees_with_the_widening_oracle(monkeypatch):
    # the 80 families alpha <= beta in {3/2, ..., 9/2} with r <= 8 (UNIT) and
    # four non-triangular lambdas, one mode of each kind: the recurrence
    # solves the derived window exactly when the 13-window oracle solves
    # some window, with byte-equal particulars and no kernel, and widening a
    # solved mode's windows by 6 changes nothing; a failure reports the
    # derived windows, retries 0 and its inconsistent constraint rows.  So a
    # window override or a larger widening would select nothing new
    rng = random.Random(33)
    verdicts = {"solved": 0, "failed": 0}
    for a, b, lam in GRID + NON_TRIANGULAR:
        p = Params(a, b, lam, Normalization.UNIT)
        for n1, n2 in _mode_kinds(rng):
            core = source_term(p, n1, n2).core
            solve = solve_particular_single if 0 in (n1, n2) else solve_particular_double
            oracle = _widening_oracle(monkeypatch, solve, p, core)
            try:
                particular, rep = solve(p, core)
            except NoSolutionInWindow as exc:
                assert oracle is None, (a, b, lam, n1, n2)
                assert exc.retries == 0 and exc.inconsistent_rows, (a, b, lam, n1, n2)
                assert set(exc.windows.values()) == {_source_window(p.r_hint, FlatExpr.of(core))}
                verdicts["failed"] += 1
                continue
            assert oracle is not None, (a, b, lam, n1, n2)
            assert rep.retries == 0 and rep.kernel_dim == 0 and oracle[1] == []
            assert _json(oracle[0]) == _json(particular), (a, b, lam, n1, n2)
            wide, kernel_cols = _eliminated_at(monkeypatch, solve, p, core, 6)
            assert _json(wide) == _json(particular) and kernel_cols == [], (a, b, lam, n1, n2)
            verdicts["solved"] += 1
    # 229 grid modes and all 24 non-triangular ones fail
    assert verdicts == {"solved": 251, "failed": 253}
    # nor does widening by 30 rescue a failing mode
    for a, b, lam, n1, n2 in [(F(3, 2), F(3, 2), 31, -3, 4), (F(3, 2), F(3, 2), 20, 1, 2),
                              (F(3, 2), F(7, 2), 2, 1, 2), (F(3, 2), F(9, 2), 6, 1, 2),
                              (F(5, 2), F(9, 2), 2, 1, 2)]:
        p = Params(a, b, lam, Normalization.UNIT)
        with pytest.raises(NoSolutionInWindow):
            _eliminated_at(monkeypatch, solve_particular_double, p, source_term(p, n1, n2).core, 30)


def test_elimination_matches_fraction_reference_on_real_systems(monkeypatch):
    # every system of generic, large-frequency, single-Bessel, merged and
    # anti-diagonal solves: the recurrence settles each with the solution
    # of elimination over Fractions, no kernel and no inconsistent row, and
    # so does the fraction-free oracle
    import eisenmodes.solver as solver_mod

    systems = []
    real_recurrence = solver_mod._recurrence

    def recorded(*args):
        systems.append(args)
        return real_recurrence(*args)

    monkeypatch.setattr(solver_mod, "_recurrence", recorded)
    p = Params(F(3, 2), F(3, 2), 30)
    for n1, n2 in ((1, 2), (-37, 38), (0, 3), (4, 4), (-5, 5)):
        solve = solve_particular_single if 0 in (n1, n2) else solve_particular_double
        solve(p, source_term(p, n1, n2).core)
    assert len(systems) == 5
    for args in systems:
        want = _reference(*args)
        col_order = args[3]
        assert want[1:] == ([], [])
        assert _as_fractions(real_recurrence(*args), col_order) == want[0]
        assert _eliminated(_eliminate(*args), col_order) == want


def test_elimination_matches_fraction_reference_on_the_largest_coefficients(monkeypatch):
    # sweep-shaped solves at r = 8 with a 9/2 weight and |n1|, |n2| in
    # 250..300 (UNIT): the solved values carry the largest numerators and
    # denominators of any workload, where the one running denominator per
    # component of the recurrence grows most; the recurrence settles each
    import eisenmodes.solver as solver_mod

    systems = []
    real_recurrence = solver_mod._recurrence

    def recorded(*args):
        systems.append(args)
        return real_recurrence(*args)

    monkeypatch.setattr(solver_mod, "_recurrence", recorded)
    for alpha, beta, n1, n2 in ((F(7, 2), F(9, 2), 257, 283), (F(3, 2), F(9, 2), 283, 257),
                                (F(9, 2), F(3, 2), -251, -299)):
        p = Params(alpha, beta, 72, Normalization.UNIT)
        solve_particular_double(p, source_term(p, n1, n2).core)
    assert len(systems) == 3
    for args in systems:
        got = _as_fractions(real_recurrence(*args), args[3])
        want = _reference(*args)
        assert want[1:] == ([], [])
        assert got == want[0]
        bits = max(max(v.numerator.bit_length(), v.denominator.bit_length())
                   for vals in got.values() for v in vals)
        assert bits > 150


@hst.composite
def _mode_shaped_systems(draw):
    """Banded systems shaped like mode systems: 1-2 cells per degree, column
    (cell, k) with entries at degree k (its diagonal) and at every cell of
    degrees k + 1 and k + 2, two degrees of rows above the unknowns, zero
    diagonals at resonant unknowns.  Right-hand sides: consistent (A x),
    inconsistent (A x moved at one row, often a resonant one) or consistent
    on a rank-deficient matrix: two resonant unknowns of one degree, the
    second column zeroed or a multiple of the first.  Neither of those has a
    diagonal entry and their entries lie at later degrees, so the copy keeps
    the system banded."""
    top = draw(hst.integers(2, 6))
    cells = [draw(hst.sampled_from([(0,), (1,), (0, 1)])) for _ in range(top + 2)]
    kind = draw(hst.sampled_from(["consistent", "inconsistent", "deficient"]))
    if kind == "deficient":
        k = draw(hst.integers(0, top - 1))
        cells[k] = (0, 1)
        pair = [(0, k), (1, k)]
    rows = [(c, k) for k in range(top + 2) for c in cells[k]]
    unknowns = [(c, k) for c, k in rows if k < top]
    resonant = draw(hst.sets(hst.sampled_from(unknowns), max_size=3))
    if kind == "deficient":
        resonant |= set(pair)
    columns = {}
    for c, k in unknowns:
        targets = [(c2, k + shift) for shift in (1, 2) for c2 in cells[k + shift]]
        values = draw(hst.lists(hst.integers(-9, 9), min_size=len(targets) + 1,
                                max_size=len(targets) + 1))
        diagonal = 0 if (c, k) in resonant else values.pop() or 1
        columns[c, k] = {(c, k): diagonal, **dict(zip(targets, values))}
    if kind == "deficient":
        mult = draw(hst.sampled_from([0, -2, 1, 3]))
        columns[pair[1]] = {row: mult * q for row, q in columns[pair[0]].items()}
    columns = {col: {row: q for row, q in column.items() if q} for col, column in columns.items()}
    n_dirs = draw(hst.integers(1, 2))
    value = hst.fractions(-20, 20, max_denominator=12)
    rhs = {row: [F(0)] * n_dirs for row in rows}
    for d in range(n_dirs):
        xs = draw(hst.lists(value, min_size=len(unknowns), max_size=len(unknowns)))
        for column, x in zip(columns.values(), xs):
            for row, q in column.items():
                rhs[row][d] += q * x
    if kind == "inconsistent":
        row = draw(hst.sampled_from(sorted(resonant) if resonant and draw(hst.booleans()) else rows))
        rhs[row][0] += draw(value.filter(bool))
    return columns, rhs, unknowns, rows


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_mode_shaped_systems())
def test_recurrence_matches_fraction_reference_on_mode_shaped_systems(system):
    # where elimination over Fractions finds a unique solution the
    # recurrence returns it, where it finds inconsistent rows the recurrence
    # names inconsistent constraint rows, and where it finds a kernel of a
    # consistent system the recurrence fails with a message of its own
    columns, rhs, col_order, row_order = system
    args = (_rows_of(columns, col_order), *_int_rows(rhs), col_order, row_order)
    values, kernel_cols, inconsistent = _fraction_gauss_jordan(*system)
    try:
        got = _recurrence(*args)
    except NoSolutionInWindow as exc:
        assert bool(exc.inconsistent_rows) == bool(inconsistent)
        assert set(exc.inconsistent_rows) <= set(row_order)
        if not inconsistent:
            assert kernel_cols and "no unique solution" in str(exc)
        return
    assert not kernel_cols and not inconsistent
    assert _as_fractions(got, col_order) == values


def test_rank_deficient_constraints_fail_with_a_message_of_their_own():
    # two resonant unknowns (no diagonal entry) and two proportional,
    # consistent constraint rows: the system has a kernel, and no kernel
    # parameter is set to zero; the failure names no inconsistent row
    col_order = [((0, 0), 0), ((0, 0), 1)]
    row_order = [((0, 0), 2), ((0, 0), 3)]
    system = {((0, 0), 2): {0: 1, 1: 1}, ((0, 0), 3): {0: 2, 1: 2}}
    rhs_rows = {((0, 0), 2): [1], ((0, 0), 3): [2]}
    with pytest.raises(NoSolutionInWindow, match="no unique solution") as info:
        _recurrence(system, rhs_rows, [3], col_order, row_order)
    assert info.value.inconsistent_rows == []
    rhs_rows[((0, 0), 3)] = [3]
    with pytest.raises(NoSolutionInWindow, match="inconsistent rows") as info:
        _recurrence(system, rhs_rows, [3], col_order, row_order)
    assert info.value.inconsistent_rows == [((0, 0), 3)]


def test_a_row_reaching_a_later_column_breaks_the_band():
    # unknown 0's own row has an entry in column 1: the ascending pass could
    # not fix x_0 from it, and the raise is explicit, so python -O keeps it
    col_order = [((0, 0), 0), ((0, 0), 1)]
    system = {((0, 0), 0): {0: 3, 1: 1}, ((0, 0), 1): {1: 2}}
    with pytest.raises(AssertionError, match="later column"):
        _recurrence(system, {((0, 0), 0): [1]}, [1], col_order, list(col_order))
