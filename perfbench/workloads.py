"""The three benchmark workloads and the session that times and checks them.

Every workload is a closed loop in one process: the next call starts only
after the previous one has returned and been checked.  A run does a fixed
amount of work, so that the warm state of the package's caches and every
count are the same in each run, whatever the speed of the host.  All inputs
come from the seed.  Each ``solve_mode`` call is one operation; the checks of
``checks.py`` decide whether it succeeded.  An obstructed mode is a valid
answer.  Unit-level results (an alpha sum, a decay fit) are operations too.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from fractions import Fraction

from eisenmodes import fixtures, homogeneous, numerics, solver
from eisenmodes.sources import Normalization, Params, classify_params

import checks
from spans import Tracer
from speed import SpeedClock

ALPHA_SUM_TOLERANCE = 1e-3  # closed form against the partial sum up to n = 10^4
DECAY_PARAMS = Params(Fraction(3, 2), Fraction(3, 2), 30)
DECAY_N, DECAY_CUTOFF = 1, 40
SWEEP_WEIGHTS = [Fraction(k, 2) for k in (3, 5, 7, 9)]
SWEEP_MAX_R, SWEEP_MAX_N, SWEEP_BANDS = 8, 300, 4
SWEEP_DRAWS = 100  # so that the 90th percentile latency has 10 samples beyond it
# One kind per draw, cycling; 7 is prime to the 37 sweep families, so each
# family meets every kind over the passes.
SWEEP_KINDS = ("generic", "generic", "generic", "generic", "left_zero", "right_zero", "anti_diagonal")


def _residual_y(rng: random.Random, n1: int, n2: int) -> float:
    """A y with 2 pi max(|n1|, |n2|) y in [0.5, 2], so no K factor underflows."""
    top = max(abs(n1), abs(n2))
    if top == 0:
        return rng.uniform(0.3, 3.0)
    return rng.uniform(0.5, 2.0) / (2 * math.pi * top)


class Session:
    """Timing wrappers, captured solutions and operation counts of one run."""

    def __init__(self, tracer: Tracer, corrupt_alpha: bool = False):
        self.tracer = tracer
        self.clock = SpeedClock()
        self.corrupt_alpha = corrupt_alpha
        self.latencies = []  # seconds per solve_mode call
        self.ref_latencies = []  # the same at reference speed
        self.pending = []  # solutions returned by solve_mode, not yet checked
        self.attempted = self.failed = self.ok = self.obstructed = 0
        self.failures = []
        self.residual_max = 0.0
        self.residual_checks = self.noise_floor_checks = 0
        self.bits_max = 0
        self.digest = checks.Digest()  # of every checked solution, in call order

    # -- wrappers ---------------------------------------------------------
    def install(self, patches) -> None:
        t = self.tracer
        clock = self.clock
        inner = homogeneous.solve_mode

        def solve_mode(*args, **kwargs):
            self.attempted += 1
            self.tick()
            ref, raw = clock.seconds, clock.raw_seconds
            with t.span("homogeneous.solve_mode"):
                mode = inner(*args, **kwargs)
            self.tick()
            self.latencies.append(clock.raw_seconds - raw)
            self.ref_latencies.append(clock.seconds - ref)
            if self.corrupt_alpha and mode.alpha is not None:
                mode = dataclasses.replace(mode, alpha=mode.alpha + 1)
            self.pending.append(mode)
            return mode

        patches.set(homogeneous, "solve_mode", solve_mode)
        if not t.enabled:
            return

        def particular_done(result):
            _, report = result
            t.counts["solver.solve_particular_calls"] += 1
            t.counts["solver.unknowns"] += report.num_unknowns
            t.counts["solver.equations"] += report.num_equations
            t.counts["solver.kernel_dim"] += report.kernel_dim

        def counter(name):
            def count(_result):
                t.counts[name] += 1
            return count

        inner_widen = solver.widen_and_retry

        def widen_and_retry(builder, *args, **kwargs):
            def attempt(step):
                t.counts["solver.window_attempts"] += 1
                return builder(step)
            return inner_widen(attempt, *args, **kwargs)

        wraps = [
            (homogeneous, "source_term", "sources.source_term", None),
            (homogeneous, "solve_particular_double", "solver.solve_particular", particular_done),
            (homogeneous, "solve_particular_single", "solver.solve_particular", particular_done),
            (homogeneous, "solve_zero_mode", "solver.solve_zero_mode", None),
            (homogeneous, "choose_alpha", "homogeneous.choose_alpha", None),
            (homogeneous, "small_y_series", "series.small_y_series", None),
            (homogeneous, "evaluate_high_precision", "homogeneous.evaluate_high_precision", None),
            (homogeneous, "assemble_mode", "homogeneous.assemble_mode", None),
            (homogeneous, "zero_mode_alpha_sum", "homogeneous.zero_mode_alpha_sum", None),
            (homogeneous, "ramanujan_convolution", "divisors.convolution", None),
            (homogeneous, "ramanujan_log_convolution", "divisors.convolution", None),
            (homogeneous, "sigma_float_table", "divisors.convolution", None),
            (solver, "apply_P", "bessel.apply_P", counter("bessel.apply_P_calls")),
            (solver, "apply_L", "bessel.apply_L", counter("bessel.apply_L_calls")),
            (numerics, "residual", "numerics.residual", counter("numerics.residual_calls")),
            (fixtures, "fixture_particular", "fixtures.fixture_particular", None),
            (fixtures, "compare_expressions", "fixtures.compare_expressions", None),
        ]
        for module, attr, name, on_result in wraps:
            patches.set(module, attr, t.wrap(getattr(module, attr), name, on_result))
        patches.set(solver, "widen_and_retry", widen_and_retry)

    # -- bookkeeping ------------------------------------------------------
    def tick(self) -> None:
        """Probe the speed (speed.py), in a span of its own so that the probe
        adds to no layer's self time."""
        with self.tracer.span("speed.probe"):
            self.clock.tick()

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def check_unit(self, ok: bool, message: str) -> None:
        """One unit-level operation: an alpha sum or a decay fit."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def check_pending(self, residual_ys=lambda mode: (), mismatch=()) -> None:
        """Check every solution returned since the last call.

        residual_ys(mode) gives the y points of its numeric residual;
        mismatch lists table differences found for the single pending mode.
        """
        modes, self.pending = self.pending, []
        for mode in modes:
            try:
                if mismatch:
                    raise checks.CheckFailed(f"table mismatch at ({mode.n1}, {mode.n2}): {mismatch[0]}")
                checks.exact_recheck(mode)
                checks.boundary_recheck(mode)
                for y in residual_ys(mode):
                    rel, floor_only = checks.residual_check(mode, y)
                    self.residual_max = max(self.residual_max, rel)
                    self.residual_checks += 1
                    self.noise_floor_checks += floor_only
            except checks.CheckFailed as exc:
                self.fail(str(exc))
                continue
            if self.tracer.enabled:
                self.bits_max = max(self.bits_max, checks.coeff_bits(mode))
            self.digest.add(mode.to_json_obj())
            if mode.obstruction is None:
                self.ok += 1
            else:
                self.obstructed += 1

    @property
    def solved(self) -> int:
        """Solutions that passed their checks, obstructed ones included."""
        return self.ok + self.obstructed


class Workload:
    """A fixed amount of work drawn from the seed; see ``body``."""

    def __init__(self, session: Session, seed: int):
        self.s = session
        self.rng = random.Random(seed)

    def run(self) -> float:
        """Run the workload once and check it; returns the wall time, checks included."""
        self.s.tick()
        start = time.perf_counter()
        try:
            self.body()
        except Exception as exc:
            self.s.fail(f"workload raised {type(exc).__name__}: {exc}")
        self.s.check_pending()
        wall = time.perf_counter() - start
        self.s.tick()
        return wall


class Tables(Workload):
    """Every embedded family against its printed table, with residuals and alpha sums."""

    def __init__(self, session, seed):
        super().__init__(session, seed)
        families = fixtures.list_families()
        self.rng.shuffle(families)
        self.plan = []
        for key in families:
            a, b, lam = key.split(",")
            params = Params(Fraction(a), Fraction(b), int(lam))
            cases = fixtures.fixture_modes(params.alpha, params.beta, params.lam)
            pairs = [pair for case in cases.values() for pair in case]
            self.plan.append((params, [(n1, n2, [_residual_y(self.rng, n1, n2) for _ in range(2)])
                                       for n1, n2 in pairs]))

    def body(self):
        s = self.s
        for params, modes in self.plan:
            for n1, n2, ys in modes:
                printed = fixtures.fixture_particular(params.alpha, params.beta, params.lam, n1, n2)
                mode = homogeneous.solve_mode(params, n1, n2)
                diffs = fixtures.compare_expressions(mode.particular, printed)
                s.check_pending(lambda m, ys=ys: ys, diffs)
            if params.r is None:
                continue
            total = homogeneous.zero_mode_alpha_sum(params)
            s.check_pending()
            ok = total.status != "unrecognized"
            if total.status == "exact":
                top = max(total.partial_sums)
                ok = abs(total.partial_sums[top] - total.numeric) <= ALPHA_SUM_TOLERANCE * abs(total.numeric)
            s.check_unit(ok, f"alpha sum of {params.describe()}: {total.status}")
            s.digest.add(total.to_json_obj())


class Decay(Workload):
    """One mode assembly with its decay scan: large frequencies, one family."""

    def __init__(self, session, seed):
        super().__init__(session, seed)
        self.exponent = None
        pairs = [(n1, DECAY_N - n1) for n1 in range(-DECAY_CUTOFF, DECAY_CUTOFF + 1)]
        self.residual_at = {p: [_residual_y(self.rng, *p)] for p in self.rng.sample(pairs, 3)}

    def body(self):
        asm = homogeneous.assemble_mode(DECAY_PARAMS, DECAY_N, DECAY_CUTOFF, decay=True)
        self.s.check_pending(lambda m: self.residual_at.get((m.n1, m.n2), ()))
        self.exponent = asm.decay.exponent
        self.s.check_unit(asm.decay.status == "convergent", f"decay status {asm.decay.status}")
        self.s.digest.add({
            "decay": asm.decay.to_json_obj(),
            "alpha_partial_sums": [c.to_json_obj() for c in asm.alpha_partial_sums],
            "obstructed": asm.obstructed,
        })


class Sweep(Workload):
    """Single solves over many weight pairs, eigenvalues and frequencies."""

    def __init__(self, session, seed):
        super().__init__(session, seed)
        self.families = [(a, b, r) for a in SWEEP_WEIGHTS for b in SWEEP_WEIGHTS if a <= b
                         for r in range(1, SWEEP_MAX_R + 1)
                         if classify_params(a, b, r * (r + 1)).kind == "solvable"]

    def _draw(self, index):
        """Family, case kind, weight order, signs and magnitude bands follow the
        draw index; the magnitudes within their bands come from the seed.
        Every seed thus runs the same mix of system shapes and sizes, which
        keeps the spread between seeds small."""
        a, b, r = self.families[index % len(self.families)]
        if index // len(self.families) % 2:
            a, b = b, a
        kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
        s1, s2 = ((1, 1), (1, -1), (-1, 1), (-1, -1))[index % 4]
        n = s1 * self._magnitude(index // 4)
        if kind == "generic":
            m = -n
            while m == -n:
                m = s2 * self._magnitude(index // 16)
            pair = (n, m)
        else:
            pair = {"left_zero": (0, n), "right_zero": (n, 0), "anti_diagonal": (-n, n)}[kind]
        return Params(a, b, r * (r + 1), Normalization.UNIT), pair

    def _magnitude(self, band_index: int) -> int:
        """Uniform in one of SWEEP_BANDS equal bands of 1..SWEEP_MAX_N."""
        width = SWEEP_MAX_N // SWEEP_BANDS
        low = band_index % SWEEP_BANDS * width
        return self.rng.randint(low + 1, low + width)

    def body(self):
        for index in range(SWEEP_DRAWS):
            params, (n1, n2) = self._draw(index)
            y = _residual_y(self.rng, n1, n2)
            try:
                homogeneous.solve_mode(params, n1, n2)
            except Exception as exc:
                self.s.fail(f"solve_mode{(n1, n2)} of {params.describe()} raised {type(exc).__name__}: {exc}")
            self.s.check_pending(lambda m: [y])


WORKLOADS = {"tables": Tables, "decay": Decay, "sweep": Sweep}
