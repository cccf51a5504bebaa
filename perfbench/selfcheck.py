"""Self-check of the benchmark harness; run from the repository root:

    python3 perfbench/selfcheck.py

1. A clean decay run (the shortest workload) passes with no failure, in
   both modes, and prints exactly the metric names of BENCHMARK.json.
2. The same run with every alpha perturbed by 1 reports failures.
3. A directory holding only BENCHMARK.json and perfbench/ (no package)
   makes run.py exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SHORT = ["--workload", "decay", "--seed", "7", "--seconds", "20"]


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"run.py exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"self-check failed: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        doc = result(run([*SHORT, "--trace", str(trace)]))
        expect(doc["correct"] and doc["failed"] == 0, doc)
        expect(list(doc["metrics"]) == [m["name"] for m in spec[key]], sorted(doc["metrics"]))
        print(f"ok: clean run, trace {trace}: {len(doc['metrics'])} metrics as in BENCHMARK.json")

    doc = result(run([*SHORT, "--trace", "0", "--corrupt-alpha"]))
    expect(not doc["correct"] and doc["failed"] > 0, doc)
    print(f"ok: alpha + 1 gives {doc['failed']} failed of {doc['attempted']}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run([*SHORT, "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print(f"ok: without the package run.py exits {proc.returncode} and prints nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
