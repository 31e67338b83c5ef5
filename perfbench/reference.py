"""The reference computation that pass times are measured against.

The machine the benchmark runs on may be shared: its speed drifts by tens
of percent over a minute, as neighbours load the same cores, caches and
memory.  A pass's wall time alone measures that drift as much as the
program.  So the runner times this fixed computation between passes, in
its own process, and reports each pass in units of the reference time
measured around it.  The drift then largely cancels, and a change to the program
moves the ratio as much as it moves the wall time.

The computation mixes the three kinds of work the workloads do, in about
equal parts of time: a thin SVD of a 200x200 matrix (BLAS, in cache), a
soft-threshold over a 4800x100 array (elementwise, 3.8 MB, larger than
L2, into a preallocated buffer, so the reference adds under 10 MB to the
peak memory of a process that runs it) and a loop of small least-squares
fits (interpreter and per-call overhead).  It uses numpy only, never the
package under test.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """A fixed, seeded computation; one round takes about 0.45 s on a 2-vCPU
    machine.  With *parts* > 1 each call runs one of *parts* equal slices of
    the round, so that a long pass can time the round in slices spread over
    it; *parts* must divide every count of ROUND."""

    ROUND = (20, 120, 70)  # thin SVDs, shrinks, rounds of the 50 small fits

    def __init__(self, parts: int = 1):
        if any(n % parts for n in self.ROUND):
            raise ValueError(f"{parts} does not divide the reference round {self.ROUND}")
        rng = np.random.default_rng(12345)
        self.square = rng.normal(size=(200, 200))
        self.tall = rng.normal(size=(4800, 100))
        self.shrunk = np.empty_like(self.tall)
        self.fits = [(rng.normal(size=(300, 5)), rng.normal(size=300)) for _ in range(50)]
        self.repeats = tuple(n // parts for n in self.ROUND)
        self.run()  # warm-up: page in the arrays and load the BLAS kernels

    def run(self) -> float:
        """Checksum of one slice of the computation."""
        svd_n, shrink_n, fit_n = self.repeats
        total = 0.0
        for _ in range(svd_n):
            total += np.linalg.svd(self.square, compute_uv=True, full_matrices=False)[1][0]
        shrunk = self.shrunk
        for _ in range(shrink_n):
            np.abs(self.tall, out=shrunk)
            np.subtract(shrunk, 0.1, out=shrunk)
            np.maximum(shrunk, 0.0, out=shrunk)
            np.copysign(shrunk, self.tall, out=shrunk)
            total += float(shrunk[0, 0])
        for _ in range(fit_n):
            for a, y in self.fits:
                x = np.linalg.lstsq(a, y, rcond=None)[0]
                total += float(np.abs(y - a @ x).sum())
        return total

    def seconds(self) -> float:
        """Wall time of one slice, in seconds."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
