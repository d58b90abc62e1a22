"""Set-up probe: import brightlink, numpy and scipy, build one workload's
parameters, then print "ready". bench/run.py times fresh runs of this file.

Usage: python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

import numpy  # noqa: F401
import scipy  # noqa: F401

import brightlink  # noqa: F401
import workloads

# Building parameters writes nothing, so the work directory is never created.
workloads.make(sys.argv[1], int(sys.argv[2]), Path(__file__).parent / "out" / "probe")
print("ready", flush=True)
