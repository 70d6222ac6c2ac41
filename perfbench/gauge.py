"""A fixed numpy kernel, timed between operations, that follows the machine's speed.

The reference machine is a share of a busy host, and its speed drifts
by up to 40% over minutes: the same work takes longer while neighbours
are busy.  A run therefore times, after every operation, blocks of this
kernel for a fifth of that operation's time.  The kernel is simplex
pivots on two dense tableaux the size of the workloads' LPs, in the
style of ``bellbox.lp`` but sharing no code with it, so a change to
bellbox cannot change it.  ``Gauge.slowdown`` is the kernel's mean block
time in the run over ``REF_BLOCK_S``, its block time on the reference
machine; run.py divides the run's operation times by it.  The kernel
runs between operations, never inside one, and its time is not counted
as operation time.
"""

from __future__ import annotations

import time

import numpy as np

# seconds per block on the reference machine (2 cores, Python 3.11.7,
# numpy 2.4.6): a round figure near the median of 2000 blocks, 3.7 ms
REF_BLOCK_S = 4.0e-3
SHARE = 0.2  # gauge time per second of operation time


class _Tableau:
    """A dense tableau with its own work space, so pivots allocate no
    large array and their time does not depend on the allocator's state."""

    def __init__(self, rng: np.random.Generator, rows: int, cols: int):
        self.start = np.hstack([rng.random((rows + 1, cols)), np.eye(rows + 1, rows + 2)])
        self.T = np.empty_like(self.start)
        self.outer = np.empty_like(self.start)

    def pivots(self, count: int) -> float:
        T = self.T
        np.copyto(T, self.start)
        rows, cols = T.shape[0] - 1, T.shape[1] - 1
        for k in range(count):
            i, j = k % rows, k % cols
            np.multiply.outer(T[:, j], T[i] * (1e-3 / (abs(T[i, j]) + 2.0)), out=self.outer)
            T -= self.outer
            np.where(T[-1, :-1] < -1.0)
        return float(T[0, 0])


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        # a (2,4,2) membership tableau and a small one from the verdicts
        # deck, each with its artificial columns and right-hand side
        self.big = _Tableau(rng, 256, 321)
        self.small = _Tableau(rng, 22, 44)
        for _ in range(5):
            self._block()
        self.spent = 0.0
        self.blocks = 0

    def _block(self):
        self.big.pivots(4)
        self.small.pivots(150)

    def follow(self, busy_s: float):
        """Run blocks for ``SHARE`` of ``busy_s``, at least one.

        One untimed block goes first, so that the timed ones find the
        tableaux in cache whatever the operation before them touched.
        """
        self._block()
        start = time.perf_counter()
        while True:
            self._block()
            self.blocks += 1
            spent = time.perf_counter() - start
            if spent >= SHARE * busy_s:
                break
        self.spent += spent

    def slowdown(self) -> float:
        """Mean block time in this run over the reference block time."""
        return self.spent / self.blocks / REF_BLOCK_S
