"""The benchmark's hooks into the package still fit it.

perfbench/ wraps module attributes of the package (spans.py, workloads.py) and
checks every answer with checks.py, which builds ``bessel.Pure(poly)``, reads
``.poly`` and calls ``bessel.apply_euler``.  A refactor that renames one of
those attributes would otherwise fail only inside ``perfbench/run.py
--trace 1``; here it fails in the test suite.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from eisenmodes import homogeneous
from eisenmodes.sources import Params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_PATCHES = 19  # solve_mode, 17 timing wrappers and widen_and_retry

# (n1, n2) and a residual point with 2 pi max(|n1|, |n2|) y in [0.5, 2]
MODES = [((0, 0), 0.8), ((0, 1), 0.15), ((1, 2), 0.08)]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("checks", "spans", "speed", "workloads")
    stale = [name for name in names if name in sys.modules]
    assert not stale, f"modules named like perfbench's already loaded: {stale}"
    yield {name: importlib.import_module(name) for name in names}
    for name in names:
        sys.modules.pop(name, None)


def test_traced_session_installs_restores_and_checks_every_mode_kind(bench):
    spans, workloads, checks = bench["spans"], bench["workloads"], bench["checks"]
    tracer = spans.Tracer("hooks", True)
    session = workloads.Session(tracer)
    patches = spans.Patches()
    saved = {}
    try:
        session.install(patches)
        saved = {(module, attr): original for module, attr, original in patches._saved}
        assert len(saved) == TRACED_PATCHES
        params = Params(Fraction(3, 2), Fraction(3, 2), 30)
        modes = [(homogeneous.solve_mode(params, n1, n2), y) for (n1, n2), y in MODES]
    finally:
        patches.restore()
    for (module, attr), original in saved.items():
        assert getattr(module, attr) is original, attr

    assert [type(m.particular).__name__ for m, _ in modes] == ["Pure", "SingleBessel",
                                                              "DoubleBessel"]
    assert len(session.pending) == len(MODES)
    for mode, y in modes:
        checks.exact_recheck(mode)
        checks.boundary_recheck(mode)
        assert checks.coeff_bits(mode) > 0
        rel, _ = checks.residual_check(mode, y)
        assert rel <= checks.RESIDUAL_BOUND
    counts = tracer.counts
    assert counts["solver.solve_particular_calls"] == 2
    # the solver's recheck runs the operator's integer kernel on its flat
    # solution, not solver.apply_P or apply_L, so neither wrapper is reached
    assert counts["bessel.apply_P_calls"] == counts["bessel.apply_L_calls"] == 0
    assert counts["solver.window_attempts"] >= 2
    assert {"sources.source_term", "solver.solve_zero_mode", "homogeneous.choose_alpha"} <= {
        name for name, *_ in tracer.spans}
