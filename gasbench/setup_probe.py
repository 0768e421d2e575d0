"""One set-up, in a fresh process: import gaskit, load a workload's parameters.

    python3 gasbench/setup_probe.py WORKLOAD

Prints one JSON line, {"import_s": ..., "params_s": ...}, as soon as the
parameters are loaded.  run.py times the process from its start to that
line; that is one sample of the benchmark's set-up time.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports gaskit)

t1 = perf_counter()
workloads.make(sys.argv[1]).load_params()
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "params_s": t2 - t1}), flush=True)
