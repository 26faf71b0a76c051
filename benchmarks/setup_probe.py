"""Time one set-up of a workload in a fresh interpreter.

Usage: setup_probe.py WORKLOAD SEED PROFILE WORKDIR. The timed region starts
before the package import, which is the larger part of set-up. Prints one JSON
object: the set-up's wall seconds and the mean of speed probes run right
after it (see speed.py).
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402  (imports only the standard library)

name, seed, profile, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
workload = WORKLOADS[name](profile)
t0 = time.perf_counter()
workload.setup(seed, workdir)
seconds = time.perf_counter() - t0

from speed import SpeedMeter  # noqa: E402  (imports numpy, so only after set-up)

meter = SpeedMeter()
for _ in range(5):
    meter.sample()
print(json.dumps({"seconds": seconds, "probe_s": statistics.mean(meter.durations())}))
