"""Host-speed probe: a fixed kernel, timed between the benchmark's pieces of work.

On a shared host the same code runs slower while neighbours load the machine,
for stretches of seconds to minutes. The benchmark runs this probe between
timed pieces and multiplies every time of the run by ``scale()``, which is
(REFERENCE_S / the run's median probe time) ** SENSITIVITY. Times are then
reported as on a host where the probe takes REFERENCE_S. The kernel is the
bilinear gather of a warp, written in numpy alone, so the scale tracks the
host and not the program.

SENSITIVITY is measured, not derived. On a shared 2-core host the probe gains
or loses more than the links do under the same load, so only part of its
ratio is applied. Over three 10-run sets of all four workloads, 0.75 gave the
smallest mean and worst spread between runs (worst 0.185 of the median,
against 0.245 with 0.5 and 0.213 with 1.0).
"""

from __future__ import annotations

import math
import mmap
import statistics
from time import perf_counter

import numpy as np

# About the median probe time in a run on a 2-core x86-64 host; it only sets
# the scale.
REFERENCE_S = 0.005
SENSITIVITY = 0.75
HEIGHT, WIDTH = 240, 320
# A sample is the fastest of RUNS back-to-back kernel runs, so one interrupted
# run does not count, taken at most once per INTERVAL_S.
RUNS = 3
INTERVAL_S = 0.5


class HostProbe:
    """Callable between pieces of work; samples the kernel at most every INTERVAL_S."""

    reference_s = REFERENCE_S

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(7))
        self.image = rng.random((HEIGHT * WIDTH, 3))
        # Every other output row keeps a kernel run near REFERENCE_S.
        ys, xs = np.mgrid[0:HEIGHT:2, 0:WIDTH].astype(np.float64)
        angle = math.radians(2.0)
        sx = (math.cos(angle) * xs - math.sin(angle) * ys + 4.5).ravel()
        sy = (math.sin(angle) * xs + math.cos(angle) * ys - 3.5).ravel()
        x0 = np.clip(np.floor(sx).astype(np.int64), 0, WIDTH - 2)
        y0 = np.clip(np.floor(sy).astype(np.int64), 0, HEIGHT - 2)
        fx = np.clip(sx - x0, 0.0, 1.0)[:, None]
        fy = np.clip(sy - y0, 0.0, 1.0)[:, None]
        corner = y0 * WIDTH + x0
        self.taps = [((1 - fx) * (1 - fy), corner), (fx * (1 - fy), corner + 1),
                     ((1 - fx) * fy, corner + WIDTH), (fx * fy, corner + WIDTH + 1)]
        self.samples: list[float] = []
        self.last = -math.inf

    def __call__(self) -> None:
        if perf_counter() - self.last < INTERVAL_S:
            return
        runs = []
        for _ in range(RUNS):
            start = perf_counter()
            self._kernel()
            runs.append(perf_counter() - start)
        self.samples.append(min(runs))
        self.last = perf_counter()

    def _kernel(self) -> float:
        # One pass into freshly mapped pages and one more into the same pages:
        # the links both fill new arrays and reuse warm ones. The kernel maps
        # the pages itself, so the allocator state the program leaves behind
        # cannot change what a run costs.
        n = self.taps[0][1].size
        with mmap.mmap(-1, 2 * n * 3 * 8) as region:
            scratch = np.frombuffer(region, dtype=np.float64).reshape(2, n, 3)
            out, gathered = scratch
            for _ in range(2):
                for weight, index in self.taps:
                    np.take(self.image, index, axis=0, out=gathered)
                    gathered *= weight
                    out += gathered
            first = float(out[0, 0])
            del scratch, out, gathered
        return first

    def scale(self) -> float:
        """Factor that turns this run's times into reference-host times."""
        return (self.reference_s / statistics.median(self.samples)) ** SENSITIVITY
