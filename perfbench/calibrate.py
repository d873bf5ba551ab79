"""Host-speed sampler: wall time converted to time at the nominal host speed.

The machine this benchmark was tuned on shares its cores with other
tenants. Its speed swings by up to 2x, in episodes of a fraction of a second
to a few seconds, so a stage of a few seconds can take 15-30% longer in one
run than in the next. Process CPU time swings the same way, so it is no
remedy.

While a stage runs, an interval timer interrupts it every ``PERIOD_S`` of
wall time, and the signal handler times a fixed kernel on the same thread
and core as the program. The kernel shares no code with
vesseltopo, so a change to the program does not move it. A stage reports:

* ``net_s``: its wall time less the time spent in the handler;
* ``nominal_s``: ``net_s`` divided by the stage's slowness, the mean kernel
  time measured during it over ``NOMINAL_S``; 1.3 means 30% slow.

``NOMINAL_S`` is the kernel's time when no other tenant shares the core, so
rates over nominal time read as the program's speed on an unshared core.
Measured against fixed taskgen, metrics and train calls run over and over,
the quartile spread of per-call times fell from 15-40% on wall time to
4-11% on nominal time, depending on how busy the host was. The handler
takes about 0.5% of a stage.

Python runs signal handlers between bytecodes, so during a long call into
numpy the sample waits for the call to return; the sample still measures
the host's speed at that moment.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
NOMINAL_S = 6.0e-5

# The kernel mixes the two kinds of work the workloads do in Python: integer
# arithmetic in the interpreter, and scalar indexing into small numpy arrays
# (the flood-fill and thinning loops). Against taskgen, metrics and train
# calls repeated on a busy host, the mix tracked all three better than
# either half alone.
_MASK = np.random.default_rng(20261017).random((12, 12)) < 0.5
_LABELS = np.zeros((12, 12), dtype=np.int32)


def _kernel() -> int:
    total = 0
    for i in range(500):
        total += i * i
    for y in range(1, 11):
        for x in range(1, 11):
            if _MASK[y, x] and _LABELS[y - 1, x] == 0:
                total += 1
    return total


class HostSampler:
    """Times calls and samples the host's speed while they run.

    One sampler per process: it installs its ``SIGALRM`` handler for the
    life of the process and arms ``ITIMER_REAL`` only while a call is timed.
    """

    def __init__(self):
        self._samples: list[float] = []
        self.slowness: list[float] = []  # one per timed call
        self.wall_s = 0.0  # wall time of every timed call, handler included
        _kernel()  # first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - t0)

    def time(self, fn, *args):
        """Call ``fn(*args)``; return ``(result, net_s, nominal_s)``."""
        self._samples = samples = []
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        self.wall_s += wall
        net = wall - sum(samples)
        if not samples:  # shorter than one period: sample the host just after
            self._handler(None, None)
        slowness = statistics.fmean(samples) / NOMINAL_S
        self.slowness.append(slowness)
        return result, net, net / slowness
