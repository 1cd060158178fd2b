"""A fixed reference kernel that tracks the speed of the machine.

On shared machines the speed of the same code drifts by 15-50% between
runs a minute apart, and within a run.  The drift comes from the machine,
not from the code: a fixed numpy kernel slows down with it.  The runner
times a burst of this kernel right after each round, for a fixed share of
the round's time, and divides the round's median op time by the burst's
median.  The end-to-end timings are the medians of these per-round ratios:
each round is compared with the machine as it was at that moment, so the
ratios stay steady where raw times do not.  Set-up times, which are
reported in seconds, are scaled by ``NOMINAL_S`` over the kernel's median
in bursts around each set-up process.  The kernel uses no part of the
package, so no change to the package can move it.  Its mix resembles the
workloads' operations: Gaussian draws, a matrix-vector product, a complex
exponential, and a Python loop of small row products.
"""

from __future__ import annotations

import time

import numpy as np

SHARE = 0.05  # reference time spent per second of round time
ROWS, DIM = 256, 64
# set-up times are reported as seconds on a machine where the kernel's
# median time is this; the value is the kernel's median on an idle 2-core VM
NOMINAL_S = 400e-6
SETUP_BURST_S = 0.05  # kernel time before and after each set-up process


class Reference:
    """The kernel's timings, and per arm the ratios of op time to kernel time."""

    def __init__(self, arms):
        self._rng = np.random.default_rng(20231017)
        self._x = self._rng.standard_normal(DIM) / np.sqrt(DIM)
        self._rows = self._rng.standard_normal((DIM, ROWS)) + 0j
        self.times: list[float] = []
        self.ratios: dict[str, list[float]] = {arm: [] for arm in arms}

    def once(self) -> None:
        t0 = time.perf_counter()
        g = self._rng.standard_normal((ROWS, DIM))
        z = np.exp(1j * (g @ self._x))
        acc = 0j
        for row in self._rows:
            acc += (row[None, :] @ z)[0]
        self.times.append(time.perf_counter() - t0)
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")

    def burst(self, seconds: float) -> list[float]:
        """Run the kernel for ``seconds``, at least once; returns its times."""
        start = len(self.times)
        deadline = time.perf_counter() + seconds
        self.once()
        while time.perf_counter() < deadline:
            self.once()
        return self.times[start:]

    def follow(self, round_seconds: float, round_us: dict[str, list[float]]) -> None:
        """Run the kernel for ``SHARE`` of a round's time and append each
        arm's median op time in the round (``round_us``, in microseconds)
        over the burst's median time."""
        burst_s = float(np.median(self.burst(SHARE * round_seconds)))
        for arm, us in round_us.items():
            if us:
                self.ratios[arm].append(float(np.median(us)) * 1e-6 / burst_s)
