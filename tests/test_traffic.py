"""Every function in src/ is reached by the package's traffic, or is named here.

The traffic is what a user runs and what the benchmark checks: a fixed list
of commands through ``cli.main`` (COMMANDS), and perfbench's answer checks
(``exact_recheck``, ``boundary_recheck``, ``residual_check`` and
``coeff_bits``) on a few solved modes (CHECKED_MODES).  They run in one
fresh interpreter under ``sys.setprofile``, so that no cache warmed by
another test hides a call, and every code object entered is recorded.

Every ``def`` in src/, nested ones included, keyed by module and qualified
name, must be reached or be in ALLOWLIST, and no allowlisted entry may be
reached.  Each entry names why it stays, and each reason is checked:

* ``api``: the name is in its module's ``__all__``;
* ``test oracle``: a file in tests/ other than this one names it;
* ``demo``: a file in demos/ names it;
* ``protocol``: a dunder, or the ``_equals_other`` hook ``__eq__`` calls.

The allowlist only shrinks, unless a change says why it grows.

Run as a script (``python tests/test_traffic.py``), this file runs the
traffic in the working directory, where it writes its documents, and prints
the exit codes and the reached functions as one JSON object.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eisenmodes"

ALLOWLIST = {
    "fixtures.list_families": ("api",),
    "homogeneous.alpha_decay_scan": ("api",),
    "scalars.ln_prime": ("api",),
    "laurent.YLaurent.one": ("test oracle",),
    "laurent.YLaurent.diff": ("test oracle",),
    "laurent.YLaurent.evaluate": ("test oracle",),
    "laurent.YLaurent.__repr__": ("protocol",),
    "scalars._SparseSum._equals_other": ("protocol",),
    "scalars.Constant._equals_other": ("protocol",),
    "scalars.Constant.__rsub__": ("protocol",),
    # the paper's printed normalization of a source term
    "sources.SourceTerm.prefactor": ("demo", "test oracle"),
    "sources.SourceTerm.core": ("demo", "test oracle"),
}

PUBLISHED = ("--alpha", "3/2", "--beta", "3/2", "--lambda", "30")
UNIT = ("--normalization", "unit")
FAMILIES = ("3/2,3/2,2", "3/2,3/2,30", "3/2,3/2,56", "3/2,5/2,6", "3/2,5/2,20",
            "3/2,7/2,12", "3/2,7/2,30", "5/2,5/2,2", "5/2,5/2,12", "5/2,5/2,30")

# (the file a solve writes, or None; its exit code; its arguments)
SOLVES = (
    ("double.json", 0, (*PUBLISHED, "--n1", "1", "--n2", "2")),
    ("left.json", 0, (*PUBLISHED, "--n1", "0", "--n2", "5")),
    ("right.json", 0, (*PUBLISHED, "--n1", "4", "--n2", "0")),
    ("anti.json", 0, (*PUBLISHED, "--n1", "-5", "--n2", "5")),
    ("merged.json", 0, ("--alpha", "7/2", "--beta", "7/2", "--r", "7", "--n1", "5", "--n2", "5",
                        *UNIT)),
    ("zero.json", 0, (*PUBLISHED, "--n1", "0", "--n2", "0")),
    ("obstructed.json", 5, ("--alpha", "9/2", "--beta", "9/2", "--r", "1",
                            "--n1", "-142", "--n2", "58", *UNIT)),
    (None, 0, (*PUBLISHED, "--n1", "1", "--n2", "2", "--format", "latex")),
    (None, 0, (*PUBLISHED, "--n", "1", "--cutoff", "40")),
    (None, 0, (*PUBLISHED, "--n", "0", "--cutoff", "6")),
    (None, 2, ("--alpha", "3/2", "--beta", "3/2", "--lambda", "31", "--n1", "1", "--n2", "2")),
    (None, 3, ("--alpha", "4/3", "--beta", "3/2", "--lambda", "30", "--n1", "1", "--n2", "2")),
    # 10000000019 * 10000000033: its divisor sums split the cofactor by rho
    (None, 0, (*PUBLISHED, "--n1", "100000000520000000627", "--n2", "1")),
)

# (exit code, argv) of each command, run in this order
COMMANDS = (
    *((code, ("solve", *args) + (("--output", out) if out else ()))
      for out, code, args in SOLVES),
    *((0, ("verify", "--input", out)) for out, _, _ in SOLVES if out),
    # the (1, 2) solution with a coefficient changed, then with a term at y^-300
    (1, ("verify", "--input", "changed.json")),
    (1, ("verify", "--input", "deep.json")),
    *((0, ("table", "--alpha", a, "--beta", b, "--lambda", lam))
      for a, b, lam in (family.split(",") for family in FAMILIES)),
    (0, ("sums", "--a", "3", "--b", "5", "--s", "10")),
    (0, ("sums", "--a", "3", "--b", "5", "--s", "10", "--log")),
    (0, ("sums", "--a", "3", "--b", "5", "--s", "10", "--limit", "100")),
    (64, ("sums", "--a", "-302", "--b", "-302", "--s", "-299")),
    (0, ("combine", "--n1", "2", "--n2", "3")),
    (0, ("combine", "--n1", "2", "--n2", "-3")),
    (6, ("combine", "--n1", "2", "--n2", "-2")),
    (0, ("alpha-sum", *PUBLISHED)),
    (0, ("alpha-sum", *PUBLISHED, "--method", "FormalRamanujan")),
    (0, ("alpha-sum", "--alpha", "3/2", "--beta", "3/2", "--r", "75", *UNIT)),
    (64, ("solve", "--alpha", "3/2")),
)

# (alpha, beta, lambda, normalization, (n1, n2), y) of the modes perfbench's
# checks run on; the last point takes the noise-floor clause and K's series
# regime
CHECKED_MODES = (
    ("3/2", "3/2", 30, "published", (0, 0), 0.8),
    ("3/2", "3/2", 30, "published", (0, 1), 0.15),
    ("3/2", "3/2", 30, "published", (1, 2), 0.08),
    ("7/2", "9/2", 72, "unit", (150, -149), 0.3 / (2 * math.pi * 150)),
)


def _edit_documents() -> None:
    """Write the two edited (1, 2) solutions that COMMANDS verifies."""
    for name, edit in (("changed.json", lambda cell: cell[0]["coeff"][0].update(coeff="1/7")),
                       ("deep.json", lambda cell: cell.insert(0, {
                           "y": -300, "log": 0, "coeff": [{"monomial": {}, "coeff": "1/1"}]}))):
        doc = json.loads(Path("double.json").read_text())
        table = doc["particular"]["table"]
        edit(table[min(table)])
        Path(name).write_text(json.dumps(doc))


def _traffic() -> dict:
    """Run the traffic in the working directory: the exit code of each
    command, and the "module.qualified_name" of each function of the
    package it entered."""
    # perfbench's modules load in this interpreter only, never in a test
    # session (tests/test_perfbench_hooks.py requires that)
    sys.path[:0] = [str(ROOT / "perfbench")]
    import checks
    from eisenmodes import cli
    from eisenmodes.homogeneous import solve_mode
    from eisenmodes.sources import Normalization, Params

    entered, exits = set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for _, argv in COMMANDS:
                if argv[-1] == "changed.json":
                    _edit_documents()
                exits.append(cli.main(list(argv)))
        for alpha, beta, lam, norm, (n1, n2), y in CHECKED_MODES:
            mode = solve_mode(Params(Fraction(alpha), Fraction(beta), lam, Normalization(norm)), n1, n2)
            checks.exact_recheck(mode)
            checks.boundary_recheck(mode)
            checks.coeff_bits(mode)
            checks.residual_check(mode, y)
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    reached = {f"{Path(code.co_filename).stem}.{code.co_qualname}" for code in entered
               if code.co_filename.startswith(package)}
    return {"exits": exits, "reached": sorted(reached)}


def _defs() -> set:
    """The "module.qualified_name" of every def in src/."""
    out = set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                key = f"{module}.{qualname}"
                assert key not in out, f"two defs named {key}"
                out.add(key)
                walk(child, module, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def _all_of(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets))


def _named_in(folder: str, key: str) -> bool:
    """A file in folder (this one aside) names the function: a method as an
    attribute (``.name``), any other function as a word."""
    name = key.rsplit(".", 1)[1]
    method = key.count(".") > 1
    pattern = re.compile((r"\." if method else r"\b") + re.escape(name) + r"\b")
    return any(pattern.search(path.read_text()) for path in sorted((ROOT / folder).glob("*.py"))
               if path.resolve() != Path(__file__).resolve())


def _reason_holds(key: str, reason: str) -> bool:
    module, name = key.split(".", 1)
    last = name.rsplit(".", 1)[-1]
    if reason == "api":
        return "." not in name and name in _all_of(module)
    if reason == "test oracle":
        return _named_in("tests", key)
    if reason == "demo":
        return _named_in("demos", key)
    if reason == "protocol":
        return (last.startswith("__") and last.endswith("__")) or last == "_equals_other"
    return False


def test_the_traffic_reaches_every_function_but_the_allowlist(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    traffic = json.loads(out.stdout)
    assert traffic["exits"] == [code for code, _ in COMMANDS]
    reached, defs = set(traffic["reached"]), _defs()
    assert len(defs) > 250
    unreached = sorted(defs - reached - set(ALLOWLIST))
    assert not unreached, f"no traffic reaches {unreached}: call it, delete it or allowlist it"
    stale = sorted(set(ALLOWLIST) & reached)
    assert not stale, f"the traffic reaches the allowlisted {stale}: drop their entries"
    missing = sorted(set(ALLOWLIST) - defs)
    assert not missing, f"the allowlist names no def: {missing}"
    wrong = [(key, reason) for key, reasons in ALLOWLIST.items() for reason in reasons
             if not _reason_holds(key, reason)]
    assert not wrong, f"allowlist reasons that do not hold: {wrong}"


if __name__ == "__main__":
    print(json.dumps(_traffic()))
