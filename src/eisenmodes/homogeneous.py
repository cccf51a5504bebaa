"""Boundary matching, full mode solutions, divisor sums and combinations.

A mode solution is particular + alpha * (decaying homogeneous element); alpha
is fixed uniquely by requiring o(y^{-r}) behavior as y -> 0.  For Bessel-type
homogeneous elements alpha is stored against the *normalized* element

    2 sqrt|n| sqrt(y) K_{r+1/2}(2 pi |n| y)
      = exp(-2 pi |n| y) sum_{k<=r} (r+k)!/(k!(r-k)!) (4 pi |n| y)^{-k},

whose small-y coefficients stay inside the exact scalar ring; the
conventional coefficient of sqrt(y) K_{r+1/2} itself is alpha * 2 sqrt|n|.
Modes whose particular part carries a log(y) (or a worse power) at y^{-r}
cannot be repaired by any alpha and are reported as obstructed, with the
offending leading terms attached.

``solve_mode`` hands one flat value (``bessel.FlatExpr``) from stage to
stage: the source's (``SourceTerm.flat``) to the solver of the mode's case,
and the flat particular that solver rechecked to ``choose_alpha``; the
particular expression is built from it once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .bessel import FlatExpr, HomBasis, _times_pi, expr_from_json_obj, expr_to_json_obj
from .divisors import (
    convolution_partial_sums,
    ramanujan_convolution,
    ramanujan_log_convolution,
    sigma,
    sigma_float_table,
)
from .laurent import YLaurent
from .numerics import DEFAULT_ENV, symbol_value
from .scalars import Constant, _json_fraction, _json_int, log_normalize, sym_ln_prime
from .series import flat_small_y_series, hom_norm_scale_description, small_y_series
from .solver import (
    SolveReport,
    solve_particular_double,
    solve_particular_single,
    solve_zero_mode,
)
from .sources import Normalization, Params, SourceTerm, source_term

__all__ = [
    "Obstruction",
    "ModeSolution",
    "Combination",
    "ModeAssembly",
    "ZeroModeSumResult",
    "choose_alpha",
    "boundary_reference",
    "solve_mode",
    "assemble_mode",
    "alpha_decay_scan",
    "evaluate_high_precision",
    "zero_mode_alpha_sum",
    "combine",
    "T_MINUS_2_WEIGHTS",
]


@dataclass(frozen=True)
class Obstruction:
    """Singular small-y terms that no homogeneous coefficient can cancel.

    Two obstructions are equal when their documents are: the same message
    and leading terms."""

    leading: Tuple[Tuple[int, int, Constant], ...]  # (y_exp, log_exp, coeff)
    # still cancels the log-free y^{-r} piece
    secondary_alpha: Optional[Constant] = field(compare=False)
    message: str

    def to_json_obj(self) -> dict:
        return {
            "message": self.message,
            "leading": [{"y": k, "log": j, "coeff": c.to_json_obj()} for k, j, c in self.leading],
        }


_MODE_SCHEMA = "eisenmodes/mode-solution/1"


@dataclass
class ModeSolution:
    """One solved (n1, n2) mode.  The homogeneous basis, whether alpha is free
    and the note on alpha's normalization follow from (params, n1, n2)."""

    params: Params
    n1: int
    n2: int
    source: SourceTerm
    particular: object  # BesselExpr / Pure solved against the full source
    alpha: Optional[Constant]
    obstruction: Optional[Obstruction]
    report: Optional[SolveReport]

    @property
    def case(self) -> str:
        return self.source.case_tag

    @property
    def alpha_free(self) -> bool:
        """The zero mode: alpha is a free constant."""
        return self.n1 == 0 and self.n2 == 0

    @property
    def hom_basis(self) -> Optional[HomBasis]:
        r = self.params.r
        return None if r is None else _decaying_basis(r, self.n1 + self.n2)

    @property
    def alpha_normalization(self) -> str:
        r, nsum = self.params.r, self.n1 + self.n2
        if self.alpha_free:
            return "alpha_0,0 is a free constant"
        if r is None:
            return ""
        return hom_norm_scale_description(r, nsum) if nsum != 0 else f"alpha multiplies y^-{r}"

    @property
    def boundary_alpha(self) -> Optional[Constant]:
        """alpha, or for an obstructed mode the secondary alpha that still
        cancels the log-free y^{-r} piece."""
        if self.alpha is not None:
            return self.alpha
        return self.obstruction.secondary_alpha if self.obstruction else None

    def to_json_obj(self) -> dict:
        return {
            "schema": _MODE_SCHEMA,
            "params": {
                "alpha": str(self.params.alpha),
                "beta": str(self.params.beta),
                "lambda": self.params.lam,
                "normalization": self.params.normalization.value,
            },
            "n1": self.n1,
            "n2": self.n2,
            "case": self.case,
            "particular": expr_to_json_obj(self.particular),
            "source_full": expr_to_json_obj(self.source.full()),
            "hom_basis": None
            if self.hom_basis is None
            else {
                "kind": self.hom_basis.kind,
                "r": self.hom_basis.r,
                "n": self.hom_basis.n,
                "description": self.hom_basis.describe(),
            },
            "alpha": None if self.alpha is None else self.alpha.to_json_obj(),
            "alpha_free": self.alpha_free,
            "alpha_normalization": self.alpha_normalization,
            "obstruction": None if self.obstruction is None else self.obstruction.to_json_obj(),
            # the solve's report, completed by the mode's case and the particular's support
            "report": None if self.report is None else {
                "case": self.case, **self.report.to_json_obj(),
                "support": {str(c): list(p.support()) for c, p in self.particular.table.items()}},
        }


def mode_solution_from_json_obj(obj: dict) -> ModeSolution:
    """Read ``ModeSolution.to_json_obj``'s document.  An object of another
    schema, or of none, is a ValueError that names it; a value of the wrong
    JSON type is a TypeError.  The obstruction keeps its message as written
    and reads its leading terms in ``_boundary_result``'s order.  Any other
    form is read as its values say; ``verify`` writes the mode back and
    refuses a document that is not as ``to_json_obj`` writes it."""
    if isinstance(obj, dict) and obj.get("schema") != _MODE_SCHEMA:
        found = f"schema {obj['schema']!r}" if "schema" in obj else "no schema"
        raise ValueError(f"expected an {_MODE_SCHEMA} document, found {found}")
    p = Params(
        _json_fraction(obj["params"]["alpha"]),
        _json_fraction(obj["params"]["beta"]),
        _json_int(obj["params"]["lambda"]),
        Normalization(obj["params"]["normalization"]),
    )
    alpha = None if obj["alpha"] is None else Constant.from_json_obj(obj["alpha"])
    obstruction = None
    if obj["obstruction"] is not None:
        leading = YLaurent.from_json_obj(obj["obstruction"]["leading"]).terms()
        obstruction = Obstruction(_in_boundary_order(leading), None, obj["obstruction"]["message"])
    n1, n2 = _json_int(obj["n1"]), _json_int(obj["n2"])
    return ModeSolution(p, n1, n2, source_term(p, n1, n2),
                        expr_from_json_obj(obj["particular"]), alpha, obstruction, None)


# ---------------------------------------------------------------------------
# Boundary matching
# ---------------------------------------------------------------------------


def _decaying_basis(r: int, nsum: int) -> HomBasis:
    """The decaying homogeneous element of mode n1 + n2 = nsum: y^{-r} when nsum = 0."""
    return HomBasis("K", r, nsum) if nsum != 0 else HomBasis("power_neg", r)


def _element_leading(r: int, nsum: int) -> Tuple[int, int, int]:
    """The decaying element's y^{-r} coefficient as (num, den, e), num/den pi^e.

    Its other terms start at y^{-k}, k < r, so this is the k = r term of the
    closed form alone: (2r)!/(r! (4|nsum|)^r) pi^{-r}, and 1 for y^{-r}.
    """
    if nsum == 0:
        return 1, 1, 0
    return math.factorial(2 * r), math.factorial(r) * (4 * abs(nsum)) ** r, -r


def _in_boundary_order(left: Dict[Tuple[int, int], Constant]):
    """The (k, j, c) terms of left in increasing y, higher log first."""
    return tuple(sorted(((k, j, c) for (k, j), c in left.items()), key=lambda t: (t[0], -t[1])))


def _boundary_result(alpha: Constant, left: Dict[Tuple[int, int], Constant], r: int):
    """(alpha, None) when no term is left below y^{-r+1}, else (None,
    Obstruction) with the left terms in increasing y, higher log first."""
    if not left:
        return alpha, None
    bad = _in_boundary_order(left)
    obs = Obstruction(
        bad,
        alpha,
        f"cannot reach o(y^-{r}): offending terms at "
        + ", ".join(f"y^{k} log^{j}" for k, j, _ in bad),
    )
    return None, obs


def choose_alpha(flat: FlatExpr, r: int, n1: int, n2: int):
    """Unique alpha cancelling the y^{-r} (log-free) coefficient of a
    particular part, given as its flat value (``bessel.FlatExpr``).

    alpha is minus the particular part's y^{-r} coefficient over the decaying
    element's own.  Whatever the small-y series of particular + alpha * basis
    keeps below y^{-r+1} (y^{-k} with k > r, or log(y)-bearing y^{-r} terms)
    no alpha can cancel.  Returns (alpha, None) when nothing is left, or
    (None, Obstruction) listing what is left, with alpha attached as its
    secondary_alpha; ``ModeSolution.hom_basis`` gives the decaying element.

    The particular part's series is formed in ints (``flat_small_y_series``)
    from its flat terms that reach below y^{-r+1}, the K factors multiplied
    per log atom u = log y + l_N of ``series.k_atom_series`` and each l_N
    expanded once per kept sum; ``solve_mode`` passes the flat solution the
    solver's recheck checked.  The element's series there is
    its y^{-r} term alone, (2r)!/(r! (4|n1 + n2|)^r) pi^{-r} in closed form
    (1 for y^{-r} when n1 + n2 = 0): alpha's ints are scaled by its inverse
    and its pi exponent raised by r, and every Constant is built once.  This
    is the one reader that makes ring coefficients from a flat value without
    ``FlatExpr.expr``: alpha is no term of the series, and reading the left
    terms through ``expr`` measured 27% slower per call (36 solved modes of
    the printed families, CPython 3.11 on a 2-core Xeon).
    ``boundary_reference``, which ``verify`` and the tests compare with,
    shares the particular part's expansion with this route and none of the
    element's series, the alpha division or the test for what is left.
    """
    series = flat_small_y_series(flat, -r + 1)
    den = series.den
    num, div, e_el = _element_leading(r, n1 + n2)
    alpha, polys = {}, {}
    for (_, k, j, e, rest), q in series.terms.items():
        if not q:
            continue
        if k == -r and j == 0:
            alpha[_times_pi(rest, e - e_el)] = Fraction(-q * div, den * num)
        else:
            polys.setdefault((k, j), {})[_times_pi(rest, e)] = Fraction(q, den)
    left = {kj: Constant._trusted(coeffs) for kj, coeffs in polys.items()}
    return _boundary_result(Constant._trusted(alpha), left, r)


def boundary_reference(particular, r: int, n1: int, n2: int):
    """``choose_alpha`` in Constants.  It shares the particular part's
    expansion (``small_y_series``, the integer series built by
    ``FlatExpr.expr``; the tests check it against a long-form oracle, and
    the alpha it gives against mpmath's besselk) and nothing after it: the
    element's series here is ``hom_norm_series`` in full, not its
    closed-form leading term, alpha is a Constant division, and what is left
    is found by summing both series and truncating.

    alpha is minus the y^{-r} coefficient of ``small_y_series`` of the
    particular part over that of the decaying element's series; the terms of
    particular + alpha * element left below y^{-r+1} are the obstruction.
    ``verify`` checks a document's boundary data with it.
    """
    series = small_y_series(particular, -r + 1)
    element = small_y_series(_decaying_basis(r, n1 + n2), -r + 1)
    alpha = -series.coeff(-r, 0) / element.coeff(-r)
    return _boundary_result(alpha, (series + element.scale(alpha)).terms.terms(), r)


# ---------------------------------------------------------------------------
# Full mode solve
# ---------------------------------------------------------------------------


def solve_mode(params: Params, n1: int, n2: int) -> ModeSolution:
    """Solve one (n1, n2) sub-mode: particular part plus boundary matching.

    The mode's case (``sources.case_tag``) picks the solver, which takes the
    source's flat value and returns the flat particular its recheck checked;
    ``choose_alpha`` reads that value (the zero mode's alpha is free), and
    the particular expression is built from it once."""
    src = source_term(params, n1, n2)
    r = params.r
    report = alpha = obstruction = None
    if src.case_tag == "both_zero":
        checked = solve_zero_mode(params, src.flat)
    else:
        single = src.case_tag in ("left_zero", "right_zero")
        solve = solve_particular_single if single else solve_particular_double
        checked, report = solve(params, src.flat)
        if r is not None:
            alpha, obstruction = choose_alpha(checked, r, n1, n2)
    return ModeSolution(params, n1, n2, src, checked.expr(), alpha, obstruction, report)


# ---------------------------------------------------------------------------
# Mode assembly and convergence diagnostics
# ---------------------------------------------------------------------------


# |n1| range and sample count of the decay scan, in alpha_decay_scan and assemble_mode
DECAY_SCAN_RANGE = (10, 200)
DECAY_SAMPLES = 24


@dataclass
class DecayReport:
    """The fitted decay of alpha_{n1, n-n1}; `modes` holds the scanned modes,
    in scan order, and is not written to JSON."""

    exponent: Optional[float]
    status: str  # convergent | divergent | inconclusive
    scan_range: Tuple[int, int]
    samples: int
    modes: List[ModeSolution] = field(repr=False)

    def to_json_obj(self) -> dict:
        return {
            "exponent": self.exponent,
            "status": self.status,
            "scan_range": list(self.scan_range),
            "samples": self.samples,
        }


@dataclass
class ModeAssembly:
    params: Params
    n: int
    modes: List[ModeSolution]
    alpha_partial_sums: List[Constant]
    obstructed: bool
    decay: Optional[DecayReport]
    exact_alpha_sum: Optional["ZeroModeSumResult"] = None

    def to_json_obj(self) -> dict:
        return {
            "schema": "eisenmodes/mode-assembly/1",
            "n": self.n,
            "modes": [m.to_json_obj() for m in self.modes],
            "alpha_partial_sums": [c.to_json_obj() for c in self.alpha_partial_sums],
            "obstructed": self.obstructed,
            "decay": None if self.decay is None else self.decay.to_json_obj(),
            "exact_alpha_sum": None
            if self.exact_alpha_sum is None
            else self.exact_alpha_sum.to_json_obj(),
        }


def assemble_mode(params: Params, n: int, cutoff: int, decay: bool = True) -> ModeAssembly:
    """All (n1, n - n1) sub-modes with |n1| <= cutoff, plus convergence data.

    Each distinct mode is solved once: first the sub-modes in n1 order, then
    the decay scan's modes (|n1| in DECAY_SCAN_RANGE) not among them, in scan
    order.  The decay exponent is fitted over the scan's modes, and at n = 0,
    with or without the scan, the exact alpha sum reads alpha_{-k,k} from the
    sub-modes.
    """
    if cutoff < abs(n) + 1:
        raise ValueError("cutoff must be at least |n| + 1")
    solved = {n1: solve_mode(params, n1, n - n1) for n1 in range(-cutoff, cutoff + 1)}
    modes = list(solved.values())

    partial = Constant.zero()
    partials = []
    obstructed = False
    for m in modes:
        if m.obstruction is not None:
            obstructed = True
        a = m.boundary_alpha
        if a is not None and not m.alpha_free:
            partial = partial + a
        partials.append(partial)

    decay_report = exact_sum = None
    if decay:
        scan = _scan_n1(n, DECAY_SCAN_RANGE, DECAY_SAMPLES)
        for n1 in scan:
            if n1 not in solved:
                solved[n1] = solve_mode(params, n1, n - n1)
        decay_report = _fit_decay([solved[n1] for n1 in scan], DECAY_SCAN_RANGE)
    if n == 0 and params.r is not None:
        alphas = [solved[-k].boundary_alpha for k in range(1, min(8, cutoff) + 1)]
        exact_sum = _alpha_sum(params, "RamanujanExact", alphas)
    return ModeAssembly(params, n, modes, partials, obstructed, decay_report, exact_sum)


def _log_spaced(lo: int, hi: int, count: int) -> List[int]:
    """The distinct integers nearest to `count` log-evenly spaced points of [lo, hi]."""
    a = math.log(lo)
    step = (math.log(hi) - a) / max(count - 1, 1)
    grid = {round(math.exp(a + i * step)) for i in range(count - 1)} | {hi}
    return sorted(v for v in grid if lo <= v <= hi)


def _scan_n1(n: int, scan_range: Tuple[int, int], samples: int) -> List[int]:
    """The n1 the decay scan samples: +v then -v for each log-spaced |n1| = v,
    skipping n2 = 0, and none at n = 0 (no decaying element to fit)."""
    if n == 0:
        return []
    return [m1 for v in _log_spaced(*scan_range, samples) for m1 in (v, -v) if m1 != n]


def alpha_decay_scan(params: Params, n: int, scan_range=DECAY_SCAN_RANGE,
                     samples: int = DECAY_SAMPLES) -> DecayReport:
    """Fit the decay exponent of alpha_{n1, n-n1} over |n1| in scan_range.

    Solves each sampled mode (see _scan_n1) once, in scan order, and fits
    them with _fit_decay; assemble_mode fits the same modes without solving
    its own sub-modes again.
    """
    modes = [solve_mode(params, n1, n - n1) for n1 in _scan_n1(n, scan_range, samples)]
    return _fit_decay(modes, scan_range)


def _fit_decay(modes: List[ModeSolution], scan_range: Tuple[int, int]) -> DecayReport:
    """The decay exponent of alpha over solved modes; solves nothing.

    Near the anti-diagonal the closed forms cancel over tens of digits, so
    each alpha is evaluated in high precision.  The exponent is minus the
    least-squares slope of log|alpha| against log|n1| over the upper half of
    the samples, computed exactly from the float logs and rounded once; the
    sum is classified divergent when that slope exceeds -1 + 0.1.
    """
    values = []
    for m in modes:
        a = m.boundary_alpha
        if a is None:
            continue
        val = abs(evaluate_high_precision(a))
        if val > 0:
            values.append((abs(m.n1), val))
    if len(values) < 8:
        return DecayReport(None, "inconclusive", scan_range, len(values), modes)
    values.sort()
    top = values[len(values) // 2:]
    xs = [Fraction(math.log(v[0])) for v in top]
    ys = [Fraction(math.log(v[1])) for v in top]
    k, sx, sy = len(top), sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    slope = float((k * sxy - sx * sy) / (k * sxx - sx * sx))
    if slope >= -1 + 0.1:
        status = "divergent"
    elif slope <= -1.1:
        status = "convergent"
    else:
        status = "inconclusive"
    return DecayReport(-slope, status, scan_range, len(values), modes)


def evaluate_high_precision(c: Constant) -> float:
    """Evaluate a Constant with mpmath at 60 digits, returning a float.

    Double precision is not enough here: near-anti-diagonal alphas are tiny
    differences of huge terms (the closed forms cancel over ~20 digits
    before the O(|n1|^-k) tail emerges).
    """
    import mpmath as mp

    with mp.workdps(60):
        total = mp.mpf(0)
        for mono, coeff in c.terms().items():
            v = mp.mpf(coeff.numerator) / coeff.denominator
            for sym, e in mono.items():
                v *= symbol_value(sym) ** e
            total += v
        return float(total)


# ---------------------------------------------------------------------------
# Zero-mode alpha sums (Ramanujan route)
# ---------------------------------------------------------------------------


@dataclass
class ZeroModeSumResult:
    method: str
    status: str  # exact | formal | divergent | unrecognized
    shape: Optional[dict]
    value: Optional[Constant]
    numeric: Optional[float]
    partial_sums: Dict[int, float]

    def to_json_obj(self) -> dict:
        return {
            "method": self.method,
            "status": self.status,
            "shape": None if self.shape is None else {
                "a": self.shape["a"], "b": self.shape["b"], "s": self.shape["s"],
                "coefficient": self.shape["A"].to_json_obj(),
                "log_coefficient": self.shape["B"].to_json_obj(),
            },
            "value": None if self.value is None else self.value.to_json_obj(),
            "numeric": self.numeric,
            "partial_sums": self.partial_sums,
        }


def _recognize_alpha_shape(params: Params, alphas: List[Optional[Constant]]):
    """Recognize alpha_{-n,n} = sigma_a sigma_b / n^s * (A + B log n) exactly.

    alphas[n-1] is alpha_{-n,n}; a = 2 alpha - 1, b = 2 beta - 1 and s = r +
    alpha + beta; A is the n = 1 value of d_n = alpha_{-n,n} n^s / (sigma_a(n)
    sigma_b(n)) and B = (d_2 - A) / log 2, verified on every alpha.  Returns
    {a, b, s, A, B} or None with fewer than two alphas, a None among them or a
    failed decomposition.
    """
    if len(alphas) < 2 or any(v is None for v in alphas):
        return None
    a, b = int(2 * params.alpha - 1), int(2 * params.beta - 1)
    s = int(params.r + params.alpha + params.beta)
    d = [v * Fraction(n) ** s / (sigma(a, n) * sigma(b, n)) for n, v in enumerate(alphas, 1)]
    A = d[0]
    B = (d[1] - A) / Constant.monomial(sym_ln_prime(2))
    if any(dn != A + B * log_normalize(n) for n, dn in enumerate(d, 1)):
        return None
    return {"a": a, "b": b, "s": s, "A": A, "B": B}


# |n| bounds at which zero_mode_alpha_sum reports the partial sums of the shape
PARTIAL_LIMITS = (100, 1000, 10000)


def zero_mode_alpha_sum(
    params: Params, method: str = "RamanujanExact", probe: int = 12
) -> ZeroModeSumResult:
    """Total of alpha_{-n,n} over n != 0 via the divisor convolution identities.

    method: RamanujanExact (requires convergence) or FormalRamanujan (analytic
    continuation, clearly labeled).  The total is A times the plain
    convolution plus, when B != 0, B times the log-weighted one; partial_sums
    holds the shape's partial sums at those PARTIAL_LIMITS where the sum is
    a finite double, and is empty where a term leaves double range.  The
    shape is recognised from the anti-diagonal modes n = 1..probe.

    An exact value is the y^{-r} coefficient of the zero mode itself: with
    alpha_{0,0} = 0 the particular parts of all modes plus value * y^{-r}
    form an SL(2,Z)-invariant expansion (tests/test_homogeneous.py,
    test_expansion_is_modular).
    """
    if method not in ("RamanujanExact", "FormalRamanujan"):
        raise ValueError(f"unknown alpha-sum method {method!r}")
    alphas = []
    if probe >= 2:
        for n in range(1, probe + 1):
            alphas.append(solve_mode(params, -n, n).boundary_alpha)
            if alphas[-1] is None:  # lambda is not triangular
                break
    return _alpha_sum(params, method, alphas)


def _alpha_sum(params: Params, method: str, alphas) -> ZeroModeSumResult:
    """zero_mode_alpha_sum from the alphas of the modes (-n, n), n = 1, 2, ..."""
    shape = _recognize_alpha_shape(params, alphas)
    if shape is None:
        return ZeroModeSumResult(method, "unrecognized", None, None, None, {})
    a, b, s, A, B = shape["a"], shape["b"], shape["s"], shape["A"], shape["B"]
    sums = [(A, ramanujan_convolution(a, b, s))]
    if not B.is_zero():
        sums.append((B, ramanujan_log_convolution(a, b, s)))
    status = "exact" if sums[0][1].status == "convergent" else "formal"

    try:
        ta = sigma_float_table(a, PARTIAL_LIMITS[-1])
        tb = sigma_float_table(b, PARTIAL_LIMITS[-1])
        weight = (A.evaluate(DEFAULT_ENV), B.evaluate(DEFAULT_ENV))
        partial_sums = convolution_partial_sums(ta, tb, s, weight, PARTIAL_LIMITS)
    except OverflowError:  # d^a, d^b or n^s past a double
        partial_sums = {}
    # a diagnostic, never the cost of the exact answer: only the finite sums are kept
    partial_sums = {n: v for n, v in partial_sums.items() if math.isfinite(v)}
    if status != "exact" and method != "FormalRamanujan":
        return ZeroModeSumResult(method, "divergent", shape, None, None, partial_sums)
    if any(conv.closed_form is None for _, conv in sums):
        return ZeroModeSumResult(method, status, shape, None, None, partial_sums)
    value = reduce(add, (coeff * conv.closed_form for coeff, conv in sums))
    numeric = reduce(add, (coeff.evaluate(DEFAULT_ENV) * conv.numeric for coeff, conv in sums))
    return ZeroModeSumResult(method, status, shape, value, numeric, partial_sums)


# ---------------------------------------------------------------------------
# Linear combinations (integrated-correlator style)
# ---------------------------------------------------------------------------

# 1/N^2 contribution: C_1 + 14175/(704 pi^4) E(6, 5/2, 3/2) - 1215/(88 pi^4) E(4, 5/2, 3/2)
T_MINUS_2_WEIGHTS: List[Tuple[Constant, Params]] = [
    (
        Constant.pi_power(-4, Fraction(14175, 704)),
        Params(Fraction(5, 2), Fraction(3, 2), 42, Normalization.CORRELATOR),
    ),
    (
        Constant.pi_power(-4, Fraction(-1215, 88)),
        Params(Fraction(5, 2), Fraction(3, 2), 20, Normalization.CORRELATOR),
    ),
]


@dataclass
class Combination:
    entries: List[Tuple[Constant, Params]]
    n1: int
    n2: int
    table: object  # combined BesselExpr
    hom_parts: List[Tuple[Constant, HomBasis]]
    free_constants: List[str]
    modes: List[ModeSolution]

    def to_json_obj(self) -> dict:
        return {
            "schema": "eisenmodes/combination/1",
            "n1": self.n1,
            "n2": self.n2,
            "entries": [
                {"coeff": c.to_json_obj(), "params": p.describe()} for c, p in self.entries
            ],
            "table": expr_to_json_obj(self.table),
            "hom_parts": [
                {"coeff": c.to_json_obj(), "basis": b.describe()} for c, b in self.hom_parts
            ],
            "free_constants": self.free_constants,
        }


def combine(
    entries: Sequence[Tuple[Constant, Params]],
    n1: int,
    n2: int,
    free_constants: Sequence[str] = (),
) -> Combination:
    """Weighted sum of mode solutions sharing (n1, n2).

    All entries must use the correlator normalization; homogeneous parts with
    distinct Bessel indices r + 1/2 are kept separate per entry.
    """
    if any(p.normalization is not Normalization.CORRELATOR for _, p in entries):
        raise ValueError("combinations require the correlator normalization")
    modes = [solve_mode(p, n1, n2) for _, p in entries]
    table = None
    hom_parts = []
    for (coeff, p), mode in zip(entries, modes):
        if mode.obstruction is not None:
            raise ValueError(f"entry {p.describe()} is obstructed at ({n1}, {n2})")
        piece = mode.particular.scale(coeff)
        table = piece if table is None else table + piece
        if mode.alpha is not None and mode.hom_basis is not None:
            hom_parts.append((coeff * mode.alpha, mode.hom_basis))
    return Combination(list(entries), n1, n2, table, hom_parts, list(free_constants), modes)
