"""In-memory spans and counters recorded around the package's public functions.

The benchmark does not edit the package.  It replaces module attributes
through which the layers call each other (for example ``solver.apply_P``,
used by column assembly and by the solver's own exact recheck) with timing
wrappers, and restores them when it is done.  Spans are nested, since the
package is single-threaded, so a stack gives each span its parent and its
self time: its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, run id) and counters of one run.

    When disabled, ``span`` only runs the wrapped code, so the same wrappers
    serve the untraced run.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span index, seconds covered by children]

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.spans.append([name, start, None, parent])
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            _, child_s = self._stack.pop()
            self.spans[index][2] = end
            self.self_s[name] += (end - start) - child_s
            if self._stack:
                self._stack[-1][1] += end - start

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` inside a span; ``on_result(result)`` sees each return value."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def self_ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1000.0

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


class Patches:
    """Module attribute replacements, undone by ``restore``."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
