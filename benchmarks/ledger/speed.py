"""Machine-speed probe: the ledger's timings are scaled to a nominal speed.

On a shared virtual machine the speed the benchmark gets changes under
it.  On the 2-vCPU Intel Xeon VM the ledger was built on, each vCPU
switches every few seconds between speed states, and in the slow ones
pure Python takes 45-65 % longer; the same code run for 15 s read
10-20 % apart from run to run.  So while a workload runs, :meth:`Speed.tick`
times a small fixed pure-Python kernel every :data:`PERIOD_S`, in CPU
time of the calling thread (time the thread sat descheduled, for
instance behind the store's own chunk-server processes, does not
count).  A duration measured between two instants is multiplied by
:meth:`Speed.factor` of that interval, ``NOMINAL_S`` over the kernel's
median cost there, and a rate is divided by it: each timing then reads
as it would on a machine that runs the kernel in :data:`NOMINAL_S`.
The kernel shares no code with the program, so a change to the program
moves the scaled timings as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter as _now
from time import thread_time

#: Iterations of the probe kernel.
LOOPS = 3000
#: The kernel's CPU cost, in seconds, on the nominal machine: its fast
#: state on the VM above (Python 3.11).
NOMINAL_S = 180e-6
#: Least wall time between two probes.
PERIOD_S = 0.025


def kernel_cost() -> float:
    """CPU seconds this thread spends on one run of the probe kernel."""
    start = thread_time()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return thread_time() - start


class Speed:
    """Probe samples of one run, in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cost: list[float] = []

    def tick(self) -> None:
        """Probe if :data:`PERIOD_S` passed since the last probe."""
        now = _now()
        if not self.at or now - self.at[-1] >= PERIOD_S:
            self.at.append(now)
            self.cost.append(kernel_cost())

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured speed in ``[start, end]``: multiply a
        duration measured there by it.  An interval without a probe uses
        the last probe before it; a run without any, 1."""
        if not self.cost:
            return 1.0
        lo, hi = bisect_left(self.at, start), bisect_right(self.at, end)
        costs = self.cost[lo:hi] or [self.cost[max(lo - 1, 0)]]
        return NOMINAL_S / statistics.median(costs)
