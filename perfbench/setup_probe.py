"""Time a cold `import eisenmodes` and the fixture-table load in this interpreter.

The speed factor (see speed.py) comes from probes run right after the load:
the median of the last 15 of 25, since the first runs of new code are slower.
"""

import json
import statistics
import time

start = time.perf_counter()
import eisenmodes  # noqa: E402
from eisenmodes import fixtures  # noqa: E402

imported = time.perf_counter()
fixtures.load_tables()
done = time.perf_counter()

import speed  # noqa: E402

probes = [speed.probe() for _ in range(25)]
factor = speed.PROBE_REF_S / statistics.median(probes[10:])
print(json.dumps({"import_s": imported - start, "setup_s": done - start, "factor": factor}))
