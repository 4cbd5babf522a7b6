"""A gauge of the machine's speed, read every few milliseconds during a run.

The benchmark's host is shared, and the speed it gives one process
flips from one moment to the next: the same closed-form work runs 25 %
faster or slower from one second to the next, and its averages drift by
as much over minutes, far more than the change a benchmark run should
detect.  The slowdowns are in the processor itself (CPU time and wall
time move together), so they slow any CPU-bound code alike.

``Gauge`` therefore times a small fixed kernel from a timer signal every
``PERIOD_S`` seconds while the workload runs, and the harness reports
each unit of work at reference speed: its wall time, less the gauge's
own time, times ``NOMINAL_MS`` over the mean kernel time read during the
unit.  Readings are taken often because the speed changes within a
single three-second search; a reading now and then between units does
not follow it.

This module imports nothing outside the standard library, so a fresh
interpreter can gauge its own ``import paulimem`` with it, and a change
to the program cannot move the kernel.
It does in plain Python what paulimem's hot paths do with small arrays:
it builds a pure two-qubit state, sends it through a Pauli channel as
4x4 complex matrix products and takes the output's purity.  It is timed
in the main thread's CPU time and never lets go of the interpreter lock
(numpy calls would), so while pool threads of the program wait for the
lock, a reading neither counts that wait nor pays for handing the lock
over: the gauge reads the machine, not the program's threading.
"""

from __future__ import annotations

import cmath
import math
import signal
from array import array
from time import perf_counter, thread_time

#: Mean CPU milliseconds of one kernel on the machine of the baseline in
#: ``README.md`` (2 vCPUs, Python 3.11).
NOMINAL_MS = 0.45
#: Seconds between two readings.
PERIOD_S = 0.02
#: A unit is scaled by the readings from this many seconds before it
#: starts to this many after it ends, so a unit shorter than a period
#: still has several.
WINDOW_S = 0.05

_SIGMA = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
#: Five two-qubit Pauli operators and their weights in the kernel's channel.
_PAULIS = tuple(
    tuple(tuple(a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)) for i in range(4))
    for a, b in ((_SIGMA[0], _SIGMA[0]), (_SIGMA[1], _SIGMA[1]), (_SIGMA[2], _SIGMA[2]),
                 (_SIGMA[3], _SIGMA[3]), (_SIGMA[1], _SIGMA[3]))
)
_WEIGHTS = (0.4, 0.2, 0.15, 0.15, 0.1)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def kernel() -> float:
    """One pass of the reference work; returns the output's Renyi-2 entropy in bits."""
    v = [cmath.exp(0.7j * k) * math.cos(0.3 * (k + 1)) for k in range(4)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    v = [x / norm for x in v]
    rho = [[v[i] * v[j].conjugate() for j in range(4)] for i in range(4)]
    out = [[0j] * 4 for _ in range(4)]
    for w, pauli in zip(_WEIGHTS, _PAULIS):
        term = _matmul(_matmul(pauli, rho), pauli)
        for row, term_row in zip(out, term):
            for j in range(4):
                row[j] += w * term_row[j]
    purity = sum(abs(x) ** 2 for row in out for x in row)
    return -math.log2(purity)


class Gauge:
    """Reads the kernel's time every ``PERIOD_S`` seconds inside a ``with`` block.

    The readings come from a SIGALRM handler, which runs in the main
    thread between two steps of whatever it is doing.  ``clock()`` is
    ``perf_counter()`` less the time spent in the handler, so that the
    workload's latencies leave the gauge's own time out.
    """

    def __init__(self):
        self.at = array("d")
        self.cpu_ms = array("d")
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _read(self, signum, frame) -> None:
        t0, c0 = perf_counter(), thread_time()
        kernel()
        c1, t1 = thread_time(), perf_counter()
        self.at.append(t0)
        self.cpu_ms.append(1e3 * (c1 - c0))
        self.spent += t1 - t0

    def __enter__(self) -> "Gauge":
        kernel()  # first-call costs stay out of the readings
        self._read(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read(None, None)

    def factor(self) -> float:
        """``NOMINAL_MS`` over the mean of all readings so far."""
        return NOMINAL_MS * len(self.cpu_ms) / sum(self.cpu_ms)
