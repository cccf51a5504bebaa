"""Benchmark of the eisenmodes solver: one workload, one seed, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

The package is imported from ./src as it stands; nothing is installed.  With
--trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, and the spans
are written to .bench_out/trace-<workload>-<seed>.jsonl.  The line before it
holds the output digest and the failure counts.  A run does the workload's
fixed work once (see workloads.py); --seconds is accepted for the common
benchmark interface and does not change it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh interpreters per run; setup_s is their median
SPAN_CALLS = 2000  # wrapped no-op calls per batch when timing one span


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["tables", "decay", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--corrupt-alpha", action="store_true",
                   help="add 1 to every returned alpha (self-check only)")
    return p.parse_args(argv)


def setup_times():
    """Medians over fresh interpreters of the import time and of the set-up time
    (import plus table load), both at reference speed, and the raw set-up time."""
    probe = HERE / "setup_probe.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    docs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(probe)], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        docs.append(json.loads(out.strip().splitlines()[-1]))
    return (statistics.median(d["import_s"] * d["factor"] for d in docs),
            statistics.median(d["setup_s"] * d["factor"] for d in docs),
            statistics.median(d["setup_s"] for d in docs))


def warm_up():
    """Run lazy imports (mpmath) and first-call paths outside the timed region."""
    from fractions import Fraction

    from eisenmodes import homogeneous, numerics
    from eisenmodes.scalars import Constant
    from eisenmodes.sources import Normalization, Params

    mode = homogeneous.solve_mode(Params(Fraction(5, 2), Fraction(3, 2), 6, Normalization.UNIT), 1, 1)
    numerics.residual(mode, 0.3)
    homogeneous.evaluate_high_precision(Constant.pi_power(1))


def run_once(name, seed, traced, corrupt_alpha):
    """Run one workload; returns (session, workload, wall seconds, tracer)."""
    import spans
    import workloads

    tracer = spans.Tracer(f"{name}-{seed}", traced)
    session = workloads.Session(tracer, corrupt_alpha)
    patches = spans.Patches()
    try:
        session.install(patches)
        workload = workloads.WORKLOADS[name](session, seed)
        with tracer.span("harness"):
            wall = workload.run()
    finally:
        patches.restore()
    return session, workload, wall, tracer


def raw_times(session, wall, setup_raw_s):
    """Wall-clock figures, not rescaled to reference speed."""
    lat_ms = [v * 1000.0 for v in session.latencies]
    return {
        "setup_s": setup_raw_s,
        "modes_per_s": session.solved / wall,
        "mode_ms_p50": statistics.median(lat_ms) if lat_ms else None,
        "mode_ms_p90": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else None,
    }


def span_cost_s() -> float:
    """Seconds one traced call of a wrapped function adds, at reference speed:
    the median over 5 batches of a wrapped no-op against the bare one."""
    import spans
    import speed

    noop = lambda: None
    tracer = spans.Tracer("calibration", True)
    wrapped = tracer.wrap(noop, "noop", lambda _result: None)
    costs = []
    for _ in range(5):
        factor = speed.PROBE_REF_S / speed.probe()
        times = []
        for fn in (noop, wrapped):
            start = time.perf_counter()
            for _ in range(SPAN_CALLS):
                fn()
            times.append(time.perf_counter() - start)
        costs.append((times[1] - times[0]) / SPAN_CALLS * factor)
    return statistics.median(costs)


def layer_metrics(tracer, session, import_s):
    """Per-layer figures of a traced run.  Times are self times scaled to
    reference speed by the run's mean speed factor; counts are exact."""
    c = tracer.counts
    attempts = c["solver.window_attempts"]
    clock = session.clock
    scale = clock.seconds / clock.raw_seconds
    ms = lambda name: tracer.self_ms(name) * scale
    layers_s = sum(v for k, v in tracer.self_s.items() if k != "speed.probe") * scale
    return {
        "solver.solve_particular_self_ms": (ms("solver.solve_particular"), "ms"),
        "solver.solve_particular_calls": (c["solver.solve_particular_calls"], "count"),
        "solver.window_attempts": (attempts, "count"),
        "solver.useful_ratio": (c["solver.solve_particular_calls"] / attempts if attempts else 1.0, "ratio"),
        "solver.unknowns": (c["solver.unknowns"], "count"),
        "solver.equations": (c["solver.equations"], "count"),
        "solver.kernel_dim": (c["solver.kernel_dim"], "count"),
        "solver.solve_zero_mode_ms": (ms("solver.solve_zero_mode"), "ms"),
        "bessel.apply_P_ms": (ms("bessel.apply_P"), "ms"),
        "bessel.apply_P_calls": (c["bessel.apply_P_calls"], "count"),
        "bessel.apply_L_ms": (ms("bessel.apply_L"), "ms"),
        "bessel.apply_L_calls": (c["bessel.apply_L_calls"], "count"),
        "homogeneous.solve_mode_self_ms": (ms("homogeneous.solve_mode"), "ms"),
        "homogeneous.choose_alpha_ms": (ms("homogeneous.choose_alpha"), "ms"),
        "homogeneous.evaluate_high_precision_ms": (ms("homogeneous.evaluate_high_precision"), "ms"),
        "homogeneous.assemble_mode_self_ms": (ms("homogeneous.assemble_mode"), "ms"),
        "homogeneous.zero_mode_alpha_sum_self_ms": (ms("homogeneous.zero_mode_alpha_sum"), "ms"),
        "series.small_y_series_ms": (ms("series.small_y_series"), "ms"),
        "sources.source_term_ms": (ms("sources.source_term"), "ms"),
        "numerics.residual_ms": (ms("numerics.residual"), "ms"),
        "numerics.residual_calls": (c["numerics.residual_calls"], "count"),
        "numerics.residual_max": (session.residual_max, "ratio"),
        "fixtures.fixture_particular_ms": (ms("fixtures.fixture_particular"), "ms"),
        "fixtures.compare_expressions_ms": (ms("fixtures.compare_expressions"), "ms"),
        "divisors.convolution_ms": (ms("divisors.convolution"), "ms"),
        "scalars.coeff_bits_max": (session.bits_max, "bits"),
        "cli.import_s": (import_s, "s"),
        "harness.self_ms": (ms("harness"), "ms"),
        "trace.self_sum_s": (layers_s, "s"),
        "trace.wall_s": (clock.seconds, "s"),
        "trace.overhead_s": (len(tracer.spans) * span_cost_s(), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eisenmodes" / "__init__.py").is_file():
        print("perfbench: src/eisenmodes not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import_s, setup_s, setup_raw_s = setup_times()
    warm_up()
    run = lambda traced: run_once(args.workload, args.seed, traced, args.corrupt_alpha)
    traced_minus_plain_s = None
    if args.trace:
        # Traced first, so that it finds the package's caches as an untraced run
        # does.  The untraced run after it gives the signed wall difference of the
        # summary line; that run finds warm caches and the traced spans in the
        # heap, so the difference is no measure of the wrappers' cost.
        session, workload, wall, tracer = run(True)
        plain, _, _, _ = run(False)
        traced_minus_plain_s = session.clock.seconds - plain.clock.seconds
        tracer.write_jsonl(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(tracer, session, import_s)
        wanted = spec["per_layer"]
    else:
        session, workload, wall, _ = run(False)
        lat_ms = [v * 1000.0 for v in session.ref_latencies]
        metrics = {
            "modes_per_s": (session.solved / session.clock.seconds, "1/s"),
            "mode_ms_p50": (statistics.median(lat_ms), "ms"),
            "mode_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - session.failed / max(session.attempted, 1), "ratio"),
        }
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        print(f"perfbench: metric names differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}",
              file=sys.stderr)
        return 3
    units = {m["name"]: m["unit"] for m in wanted}
    if any(units[n] != metrics[n][1] for n in names):
        print("perfbench: metric units differ from BENCHMARK.json", file=sys.stderr)
        return 3

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "digest": session.digest.hexdigest(),
        "wall_s": wall,
        "raw": raw_times(session, wall, setup_raw_s),
        "solves": len(session.latencies),
        "ok": session.ok,
        "obstructed": session.obstructed,
        "attempted": session.attempted,
        "failed": session.failed,
        "failed_frac": session.failed / max(session.attempted, 1),
        "failures": session.failures,
        "residual_checks": session.residual_checks,
        "noise_floor_checks": session.noise_floor_checks,
        "residual_max": session.residual_max,
        "decay_exponent": getattr(workload, "exponent", None),
        "traced_minus_plain_s": traced_minus_plain_s,
    }, sort_keys=True))
    print(json.dumps({
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
