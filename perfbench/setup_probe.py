"""Set-up cost as a user pays it: a fresh interpreter imports ``qnd.cli``
and writes a workload's input files.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIRECTORY
Prints one JSON object with ``import_s``, ``inputs_s`` and ``probe_s``,
the median of the host speed probes run before and after.
"""

import json
import statistics
import sys
import time
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]

import hostspeed  # noqa: E402

_probes = [hostspeed.probe() for _ in range(5)]
_t0 = time.perf_counter()

import qnd.cli  # noqa: E402,F401

_t1 = time.perf_counter()

import workloads  # noqa: E402

workloads.write_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]),
                       sys.argv[3])
_t2 = time.perf_counter()
_probes += [hostspeed.probe() for _ in range(5)]
print(json.dumps({"import_s": _t1 - _t0, "inputs_s": _t2 - _t1,
                  "probe_s": statistics.median(_probes)}))
