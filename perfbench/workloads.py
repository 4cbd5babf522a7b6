"""Seeded inputs, the calls into paulimem and the correctness gate per workload.

Every workload is a closed loop with one caller: each unit of work starts
when the previous one has returned, and a run stops only after a whole
``cycle`` of units, so that every run has the same input mix; a traced
run stops after a whole ``trace_cycle``, which has the same mix.
``cases(pm, rng)`` yields the inputs, ``execute(pm, case, clock)`` makes
the calls and returns ``(output, latencies)`` with one latency in seconds
of ``clock`` per capacity point, and ``failures(pm, case, output)``
counts the points of that unit that fail a check.  Checks run
after the timed loop.  Library functions are looked up on the module at
call time so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

#: Roundoff allowance on ``0 <= chi <= 2``.
RANGE_TOL = 1e-12
#: ``|chi - (2 - s_min)|`` must not exceed this (the library's saturation bound).
GAP_TOL = 1e-8
#: Closed-form capacity must match ``capacity_symmetric`` this closely.
CLOSED_FORM_TOL = 1e-9
#: A searched ``s_min`` may exceed the best candidate input's entropy by this much.
CANDIDATE_TOL = 1e-6
#: Significant digits of the CLI's CSV numbers.
CSV_DIGITS = 9

# Candidate optimal inputs, in this order: product states along the Z, X
# and Y axes (sigma_1, sigma_2 and sigma_3 in paulimem's convention) and
# the Bell state (|00> + |11>)/sqrt2.
CANDIDATES = (
    np.array([1, 0, 0, 0], dtype=complex),
    np.array([1, 1, 1, 1], dtype=complex) / 2,
    np.array([1, 1j, 1j, -1], dtype=complex) / 2,
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
)
Z_AXIS, X_AXIS, Y_AXIS, BELL = range(4)


class Outcome(NamedTuple):
    """The part of a ``CapacityResult`` the gate checks.

    Only this is kept per point, so memory does not grow with the number
    of points a run completes.
    """

    chi_bits: float
    s_min_bits: float
    saturation_gap: float
    converged: bool

    @classmethod
    def of(cls, result) -> "Outcome":
        return cls(
            float(result.chi_bits), float(result.s_min_bits),
            float(result.saturation_gap), bool(result.converged),
        )


def candidate_entropies(pm, spec) -> list[float]:
    return [pm.output_entropy(spec, v) for v in CANDIDATES]


def in_range(chi: float) -> bool:
    return -RANGE_TOL <= chi <= 2.0 + RANGE_TOL


def _weights(rng) -> tuple[float, ...]:
    """Dirichlet weights; one draw in three is sparse (concentration 0.3)."""
    alpha = 0.3 if rng.uniform() < 1 / 3 else 1.0
    q = rng.dirichlet(np.full(4, alpha))
    return tuple(float(x) for x in q / q.sum())


def _draw_channel(pm, rng, winner: int, mu_lo: float, mu_hi: float):
    """Random channel whose best candidate input is ``winner``."""
    while True:
        spec = pm.ChannelSpec(_weights(rng), float(rng.uniform(mu_lo, mu_hi)))
        entropies = candidate_entropies(pm, spec)
        if int(np.argmin(entropies)) == winner:
            return spec, min(entropies)


class ClosedFormGrid:
    """Symmetric-family points ``(p, mu)``, a share of them at the threshold."""

    threads = 1
    cycle = trace_cycle = 1

    def cases(self, pm, rng):
        while True:
            p = float(rng.uniform(0.0, 0.5))
            kind = rng.integers(4)
            edge = abs(4.0 * p - 1.0)
            if kind == 0:
                mu = edge
            elif kind == 1:
                side = 1.0 if rng.uniform() < 0.5 else -1.0
                mu = min(1.0, max(0.0, edge + side * 10.0 ** rng.uniform(-12, -6)))
            else:
                mu = float(rng.uniform())
            yield p, mu

    def execute(self, pm, case, clock=perf_counter):
        p, mu = case
        t0 = clock()
        result = pm.two_qubit_capacity(pm.preset_symmetric(p, mu))
        latency = clock() - t0
        return Outcome.of(result), [latency]

    def failures(self, pm, case, result) -> int:
        p, mu = case
        ok = (
            in_range(result.chi_bits)
            and result.saturation_gap <= GAP_TOL
            and abs(result.chi_bits - pm.capacity_symmetric(p, mu)) <= CLOSED_FORM_TOL
        )
        return 0 if ok else 1


def check_search_result(result: Outcome, best_candidate: float) -> bool:
    return (
        result.converged
        and in_range(result.chi_bits)
        and result.saturation_gap <= GAP_TOL
        and result.s_min_bits <= best_candidate + CANDIDATE_TOL
    )


class CustomSearch:
    """Custom channels through the default multi-start search.

    The cost of a search depends on which candidate input is optimal:
    Z- and Bell-optimal channels take about 20k and 25k objective
    evaluations, X- and Y-optimal ones 23k to 60k.  Drawn freely (weights
    from ``_weights``, mu uniform on [0, 1]) the best candidate is Bell
    for 38 % of the channels and Z, X and Y for about 21 % each.  Each
    run draws channels in whole cycles of three rounds of Z, Bell, X,
    Bell, Y, the nearest five-point mix; fifteen points a run keep the
    median and the 90th percentile steady from seed to seed.
    """

    threads = 1
    ROUND = (Z_AXIS, BELL, X_AXIS, BELL, Y_AXIS)
    WINNERS = ROUND * 3
    cycle = len(WINNERS)
    #: A traced run times each point twice, and its metrics are rates and
    #: shares with no bound, so one round is enough there.
    trace_cycle = len(ROUND)

    def cases(self, pm, rng):
        k = 0
        while True:
            spec, best = _draw_channel(pm, rng, self.WINNERS[k % self.cycle], 0.0, 1.0)
            yield spec, int(rng.integers(2**31)), best
            k += 1

    def execute(self, pm, case, clock=perf_counter):
        spec, seed, _ = case
        t0 = clock()
        result = pm.two_qubit_capacity(spec, pm.SearchConfig(seed=seed))
        latency = clock() - t0
        return Outcome.of(result), [latency]

    def failures(self, pm, case, result) -> int:
        return 0 if check_search_result(result, case[2]) else 1


def _rounding(x: float) -> float:
    """Largest error of ``x`` printed with CSV_DIGITS significant digits."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - (CSV_DIGITS - 1))


class CliSweepThreads:
    """``paulimem sweep-mu`` of the symmetric family with a thread pool, in-process.

    Each unit is one 101-point sweep, as for a capacity-versus-mu curve,
    with ``--threads nproc``: p uniform on [0, 1/2], ``--mu-min`` uniform
    on [0, 1/2] and ``--mu-max`` uniform on [1/2, 1].  The points take the
    closed form, so the sweep's time is parsing, the pool and CSV output
    around the same per-point work as ``closed-form-grid``.  A point's
    latency is the sweep's wall time divided by its points.  The check
    runs the first sweep of the run again, outside the timed loop, and
    the two CSV files must have the same SHA-256.
    """

    STEPS = 101
    cycle = trace_cycle = 1
    HEADER = b"family,param,mu,s_min_bits,capacity_bits,regime,method\n"

    def __init__(self, out_dir: Path, threads: int):
        self.out_dir = out_dir
        self.threads = threads

    def cases(self, pm, rng):
        k = 0
        while True:
            p = float(rng.uniform(0.0, 0.5))
            lo, hi = float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0))
            argv = (
                "sweep-mu", "--family", "symmetric", "--param", repr(p),
                "--mu-min", repr(lo), "--mu-max", repr(hi), "--steps", str(self.STEPS),
                "--seed", str(int(rng.integers(2**31))), "--threads", str(self.threads),
            )
            yield argv, (p, lo, hi), k == 0
            k += 1

    def sweep(self, pm, argv, clock=perf_counter) -> tuple[int, bytes, float]:
        """Exit code, CSV bytes and wall time of one ``cli.main`` call."""
        out = self.out_dir / "sweep.csv"
        t0 = clock()
        try:
            code = pm.cli.main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        wall = clock() - t0
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, data, wall

    def execute(self, pm, case, clock=perf_counter):
        code, data, wall = self.sweep(pm, case[0], clock)
        return (code, data), [wall / self.STEPS] * self.STEPS

    def failures(self, pm, case, output) -> int:
        """Failed points of one sweep; a CSV that differs on repeat fails them all."""
        argv, grid, repeat = case
        code, data = output
        if repeat:
            again, again_data, _ = self.sweep(pm, argv)
            digests = (hashlib.sha256(x).digest() for x in (data, again_data))
            if again != code or len(set(digests)) != 1:
                return self.STEPS
        return self.sweep_failures(pm, grid, code, data)

    def sweep_failures(self, pm, grid, code: int, data: bytes) -> int:
        """Failed points of one sweep's CSV; a nonzero exit code fails them all.

        Each row must hold the grid's mu, ``s_min + capacity = 2`` and the
        capacity of ``capacity_symmetric``, each to the rounding of
        9-significant-digit numbers.
        """
        lines = data.split(b"\n")
        if code != 0 or lines[0] + b"\n" != self.HEADER:
            return self.STEPS
        if lines[-1] != b"" or len(lines) != self.STEPS + 2:
            return self.STEPS
        p, lo, hi = grid
        failed = 0
        for line, mu in zip(lines[1:-1], np.linspace(lo, hi, self.STEPS)):
            fields = line.decode().split(",")
            try:
                param, row_mu, s_min, capacity = (float(x) for x in fields[1:5])
            except (IndexError, ValueError):
                failed += 1
                continue
            exact = pm.capacity_symmetric(p, float(mu))
            ok = (
                fields[0] == "Symmetric"
                and abs(param - p) <= _rounding(p)
                and abs(row_mu - mu) <= _rounding(mu)
                and in_range(capacity)
                and abs(capacity - exact) <= _rounding(exact) + CLOSED_FORM_TOL
                and abs(s_min + capacity - 2.0)
                <= _rounding(s_min) + _rounding(capacity) + RANGE_TOL
            )
            failed += 0 if ok else 1
        return failed
