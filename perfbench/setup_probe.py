"""Time one workload's set-up in a fresh interpreter: imports and inputs, up to the first operation.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints one JSON object: setup_s, numpy_ms and icoswitch_ms (the package and
its CLI, with numpy already loaded).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402, F401

T_NUMPY = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
import icoswitch.cli  # noqa: E402, F401

T_ICOSWITCH = time.perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
T_END = time.perf_counter()
print(
    json.dumps(
        {
            "setup_s": T_END - T0,
            "numpy_ms": (T_NUMPY - T0) * 1e3,
            "icoswitch_ms": (T_ICOSWITCH - T_NUMPY) * 1e3,
        }
    )
)
