"""Benchmark of paulimem: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form-grid --seed 1 --seconds 15 --trace 0

The program under test is ``src/paulimem`` of the same checkout.  The
workloads are defined in ``workloads.py``; the metrics are listed in
``BENCHMARK.json`` and explained in ``perfbench/README.md``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, timings at reference speed (see ``reference.py``);
``--trace 1`` runs each input untraced and then traced and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: One BLAS thread per caller thread keeps the total at ``nproc`` or below.
#: It must be set before numpy loads BLAS.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy.stats  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_RUNS = 7
#: ``-X importtime`` runs for the per-module import metrics; medians are reported.
IMPORTTIME_RUNS = 3

#: Run in a fresh interpreter with the benchmark's directory as argument:
#: prints the seconds ``import paulimem`` took, less the gauge's own time,
#: the gauge's factor to reference speed, and where paulimem came from.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import reference\n"
    "with reference.Gauge() as gauge:\n"
    "    t = gauge.clock()\n"
    "    import paulimem\n"
    "    t = gauge.clock() - t\n"
    "print(repr(t))\n"
    "print(repr(gauge.factor()))\n"
    "print(paulimem.__file__)\n"
)

#: Workload name -> constructor, given the output directory and ``nproc``.
WORKLOADS = {
    "closed-form-grid": lambda out_dir, nproc: workloads.ClosedFormGrid(),
    "custom-search": lambda out_dir, nproc: workloads.CustomSearch(),
    "cli-sweep-threads": workloads.CliSweepThreads,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def require_checkout_module(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported paulimem from {path}, not from {SRC}")


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to ``import paulimem`` in each of SETUP_RUNS fresh interpreters.

    Returns the wall times and the same times at reference speed.
    """
    wall, scaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE)], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, factor, path = done.stdout.splitlines()[:3]
        require_checkout_module(path)
        wall.append(float(seconds))
        scaled.append(float(seconds) * float(factor))
    return wall, scaled


def measure_import_ms(layers) -> dict[str, float]:
    """Cumulative import time of each layer module, from ``-X importtime``."""
    samples: dict[str, list[float]] = {layer: [] for layer in layers}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import paulimem, paulimem.cli"],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120,
        )
        for line in done.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3:
                continue
            module = fields[2].strip()
            layer = module.removeprefix("paulimem.")
            if module.startswith("paulimem.") and layer in samples:
                samples[layer].append(int(fields[1]) / 1e3)
    return {f"{layer}.import_ms": statistics.median(v) for layer, v in samples.items()}


def finished(start: float, seconds: float, units: int, cycle: int) -> bool:
    """Whether the run stops now, at the whole cycle nearest to ``seconds``.

    It stops once ``units`` is a whole number of cycles and one more
    cycle, of the mean length so far, would end further from
    ``seconds`` than stopping now.
    """
    if units == 0 or units % cycle:
        return False
    elapsed = perf_counter() - start
    return elapsed + elapsed * cycle / units / 2 >= seconds


def drive(workload, pm, cases, seconds: float):
    """Closed loop: run whole cycles of units for about ``seconds``, gauged.

    Returns the units, the ``perf_counter()`` span of each and the gauge
    that read the machine's speed meanwhile (see ``reference.Gauge``).
    """
    units, spans = [], []
    with reference.Gauge() as gauge:
        start = perf_counter()
        while not finished(start, seconds, len(units), workload.cycle):
            case = next(cases)
            t0 = perf_counter()
            output, latencies = workload.execute(pm, case, gauge.clock)
            spans.append((t0, perf_counter()))
            units.append((case, output, latencies))
    return units, spans, gauge


def reference_scales(gauge, spans) -> np.ndarray:
    """Factor to reference speed of each ``(start, end)`` span of ``perf_counter()`` times.

    It is ``reference.NOMINAL_MS`` over the mean reading from
    ``start - WINDOW_S`` to ``end + WINDOW_S``, or over the nearest
    reading when there is none in that span; the gauge takes one at
    either end of its ``with`` block.
    """
    at = np.frombuffer(gauge.at)
    cpu_ms = np.frombuffer(gauge.cpu_ms)
    start, end = np.asarray(spans, dtype=float).reshape(-1, 2).T
    lo = np.searchsorted(at, start - reference.WINDOW_S, side="left")
    hi = np.searchsorted(at, end + reference.WINDOW_S, side="right")
    sums = np.concatenate(([0.0], np.cumsum(cpu_ms)))
    mid = 0.5 * (start + end)
    right = np.clip(np.searchsorted(at, mid), 1, at.size - 1)
    nearest = np.where(mid - at[right - 1] <= at[right] - mid, right - 1, right)
    empty = hi == lo
    lo[empty], hi[empty] = nearest[empty], nearest[empty] + 1
    return reference.NOMINAL_MS * (hi - lo) / (sums[hi] - sums[lo])


def drive_pairs(workload, pm, cases, tracer, seconds: float) -> tuple[list, list]:
    """Closed loop as in ``drive``, each case run untraced and then traced.

    Running the two right after each other makes their ratio the tracer's
    own cost, free of the machine's drift over the run.  The run stops on
    a whole ``workload.trace_cycle``.
    """
    unit = tracer.wrap("bench.unit", workload.execute)
    untraced, traced = [], []
    start = perf_counter()
    while not finished(start, seconds, len(traced), workload.trace_cycle):
        case = next(cases)
        untraced.append((case, *workload.execute(pm, case)))
        tracer.install()
        try:
            traced.append((case, *unit(pm, case)))
        finally:
            tracer.uninstall()
    return untraced, traced


def count_failures(workload, pm, units) -> tuple[int, int]:
    attempted = sum(len(lat) for _, _, lat in units)
    failed = sum(workload.failures(pm, case, output) for case, output, _ in units)
    return attempted, failed


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    It weights every order statistic by a Beta((n+1)q, (n+1)(1-q))
    probability, so on a run of ten points the 90th percentile rests on
    the top three or four values instead of the top one or two, and the
    median moves smoothly when the points fall in two clusters.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = np.diff(scipy.stats.beta.cdf(np.arange(n + 1) / n, a, b))
    return float(weights @ x)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(latencies_s, attempted: int, failed: int, setup_times) -> dict:
    latencies_ms = np.asarray(latencies_s) * 1e3
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "points_per_s": metric(1e3 * latencies_ms.size / latencies_ms.sum(), "1/s"),
        "point_ms_p50": metric(harrell_davis(latencies_ms, 0.5), "ms"),
        "point_ms_p90": metric(harrell_davis(latencies_ms, 0.9), "ms"),
        "passed_ratio": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_kib / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }


def per_layer(tracer, spans, points: int, threads: int, overhead: float, import_ms) -> dict:
    fn = spans["fn"]
    dur = spans["end"] - spans["start"]
    own = tracing.self_times(spans)
    outer = tracing.outermost(spans)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return fn == ids.get(name, -1)

    def calls(name):
        return int(mask(name).sum())

    def inclusive(name):
        return float(dur[mask(name) & outer].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    busy = inclusive("bench.unit") * threads
    out = {}

    def layer(name, *kinds):
        n = calls(name)
        for kind in kinds:
            if kind == "calls":
                out[f"{name}.calls"] = metric(ratio(n, points), "count/point")
            elif kind == "share":
                out[f"{name}.share"] = metric(ratio(inclusive(name), busy), "ratio")
            elif kind == "self_ms":
                out[f"{name}.self_ms"] = metric(ratio(1e3 * own[mask(name)].sum(), n), "ms")
            else:
                scale = {"s_per_call": 1.0, "ms_per_call": 1e3, "us_per_call": 1e6}[kind]
                out[f"{name}.{kind}"] = metric(ratio(scale * inclusive(name), n), kind.split("_")[0])

    layer("capacity.holevo_chi", "calls", "ms_per_call", "share")
    layer("capacity.covariant_ensemble", "us_per_call")
    layer("capacity.two_qubit_capacity", "self_ms")
    layer("symmetric.optimal_input", "calls", "us_per_call")
    layer("channel.apply", "calls", "us_per_call", "share")
    layer("spectral.von_neumann_entropy_bits", "calls", "us_per_call")
    layer("search.minimize_output_entropy", "calls", "s_per_call", "share")
    searches, evals = calls("search.minimize_output_entropy"), calls("search.parametrize_pure_state")
    converged = tracer.results.get("search.minimize_output_entropy", [])
    out["search.evals_per_search"] = metric(ratio(evals, searches), "count")
    out["search.us_per_eval"] = metric(
        ratio(1e6 * inclusive("search.minimize_output_entropy"), evals), "us"
    )
    out["search.converged_ratio"] = metric(ratio(sum(converged), len(converged)), "ratio")
    layer("cli.main", "self_ms")
    out["cli.pool.busy_share"] = metric(
        ratio(inclusive("capacity.two_qubit_capacity"), inclusive("cli.main") * threads)
        if calls("cli.main") else 0.0,
        "ratio",
    )
    out.update({name: metric(ms, "ms") for name, ms in import_ms.items()})
    out["tracing.overhead_ratio"] = metric(overhead, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paulimem" / "__init__.py").is_file():
        print(f"error: no paulimem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import paulimem as pm
    import paulimem.cli  # noqa: F401  (makes pm.cli available)

    require_checkout_module(pm.__file__)
    nproc = len(os.sched_getaffinity(0))
    machine = {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }
    print("machine:", json.dumps(machine))

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](OUT_DIR, nproc)
    cases = workload.cases(pm, np.random.default_rng(args.seed))

    if args.trace == 0:
        setup_wall, setup_scaled = measure_setup()
        units, spans, gauge = drive(workload, pm, cases, args.seconds)
        attempted, failed = count_failures(workload, pm, units)
        scales = reference_scales(gauge, spans)
        wall = [x for _, _, lat in units for x in lat]
        scaled = [x * f for (_, _, lat), f in zip(units, scales) for x in lat]
        metrics = end_to_end(scaled, attempted, failed, setup_scaled)
        unscaled = end_to_end(wall, attempted, failed, setup_wall)
        print(
            f"samples: points={attempted} units={len(units)} gauge_readings={len(gauge.at)}"
            f" setup_runs={len(setup_wall)}"
        )
        print(
            "wall clock, not scaled to reference speed: "
            + ", ".join(f"{k} = {unscaled[k]['value']:.6g} {unscaled[k]['unit']}"
                        for k in ("points_per_s", "point_ms_p50", "point_ms_p90", "setup_s"))
            + f"; gauge kernel mean {np.mean(gauge.cpu_ms):.4g} ms"
            f" (nominal {reference.NOMINAL_MS} ms), {gauge.spent:.3g} s in the gauge"
        )
    else:
        import_ms = measure_import_ms(tracing.LAYERS)
        tracer = tracing.Tracer({"search.minimize_output_entropy": lambda r: bool(r.converged)})
        untraced, traced = drive_pairs(workload, pm, cases, tracer, args.seconds)
        spans = tracer.spans()
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz", spans)
        busy_untraced = sum(sum(lat) for _, _, lat in untraced)
        busy_traced = sum(sum(lat) for _, _, lat in traced)
        a1, f1 = count_failures(workload, pm, untraced)
        a2, f2 = count_failures(workload, pm, traced)
        attempted, failed = a1 + a2, f1 + f2
        metrics = per_layer(
            tracer, spans, a2, workload.threads, busy_traced / busy_untraced - 1.0, import_ms
        )
        print(f"samples: points={a2} traced, {a1} untraced; spans={spans['fn'].size}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
