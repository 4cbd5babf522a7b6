"""Tests of the benchmark itself: its correctness gate, its tracer and its output.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import paulimem as pm  # noqa: E402
import paulimem.cli  # noqa: E402,F401
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _metric_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_closed_form_gate_counts_perturbed_chi():
    wl = workloads.ClosedFormGrid()
    case = (0.3, 0.5)
    result, latencies = wl.execute(pm, case)
    assert len(latencies) == 1
    assert wl.failures(pm, case, result) == 0
    for chi in (result.chi_bits + 1e-6, 2.5, -0.1):
        assert wl.failures(pm, case, result._replace(chi_bits=chi)) == 1
    assert wl.failures(pm, case, result._replace(saturation_gap=1e-6)) == 1


def test_closed_form_cases_hit_the_threshold():
    cases = workloads.ClosedFormGrid().cases(pm, np.random.default_rng(0))
    points = [next(cases) for _ in range(200)]
    on_edge = [mu == abs(4 * p - 1) for p, mu in points]
    assert 0 < sum(on_edge) < len(points)


def test_search_gate_counts_unconverged_and_worse_results():
    spec = pm.ChannelSpec((0.4, 0.3, 0.2, 0.1), 0.6)
    best = min(workloads.candidate_entropies(pm, spec))
    result = workloads.Outcome.of(
        pm.two_qubit_capacity(spec, pm.SearchConfig(restarts=16, seed=1))
    )
    assert workloads.check_search_result(result, best)
    assert not workloads.check_search_result(result._replace(converged=False), best)
    assert not workloads.check_search_result(result._replace(s_min_bits=best + 1e-5), best)


def test_custom_search_cases_follow_the_winner_cycle():
    wl = workloads.CustomSearch()
    cases = wl.cases(pm, np.random.default_rng(3))
    winners = []
    for _ in range(2 * wl.cycle):
        spec, _, best = next(cases)
        entropies = workloads.candidate_entropies(pm, spec)
        assert min(entropies) == best
        winners.append(int(np.argmin(entropies)))
    z, x, y, bell = workloads.Z_AXIS, workloads.X_AXIS, workloads.Y_AXIS, workloads.BELL
    assert winners == [z, bell, x, bell, y] * (2 * wl.cycle // 5)


def test_cli_cases_are_symmetric_sweeps_and_the_first_repeats():
    wl = workloads.CliSweepThreads(Path("unused"), threads=2)
    cases = wl.cases(pm, np.random.default_rng(4))
    repeats = []
    for _ in range(3):
        argv, (p, lo, hi), repeat = next(cases)
        opts = dict(zip(argv[1::2], argv[2::2]))
        assert opts["--family"] == "symmetric" and opts["--threads"] == "2"
        assert float(opts["--param"]) == p and 0.0 <= p <= 0.5
        assert float(opts["--mu-min"]) == lo <= 0.5 <= hi == float(opts["--mu-max"])
        assert int(opts["--steps"]) == wl.STEPS
        repeats.append(repeat)
    assert repeats == [True, False, False]


def test_cli_gate_counts_altered_bytes_wrong_rows_and_failed_exit(tmp_path):
    wl = workloads.CliSweepThreads(tmp_path, threads=2)
    case = next(wl.cases(pm, np.random.default_rng(5)))
    assert case[2]  # the first sweep of a run is repeated by the check
    (code, data), latencies = wl.execute(pm, case)
    assert len(latencies) == wl.STEPS
    assert wl.failures(pm, case, (code, data)) == 0

    altered = bytearray(data)
    altered[-3] ^= 1
    assert wl.failures(pm, case, (code, bytes(altered))) == wl.STEPS
    assert wl.sweep_failures(pm, case[1], 3, data) == wl.STEPS
    assert wl.sweep_failures(pm, case[1], code, data) == 0

    rows = data.split(b"\n")
    fields = rows[7].split(b",")
    fields[4] = repr(float(fields[4]) + 1e-6).encode()
    rows[7] = b",".join(fields)
    assert wl.sweep_failures(pm, case[1], code, b"\n".join(rows)) == 1


def test_self_time_subtracts_children_and_merges_parallel_ones():
    # Span 0 (0..10) has a same-thread child 1 (1..3) and two overlapping
    # children in other threads, 2 (4..8) and 3 (5..9).
    spans = {
        "fn": np.array([0, 1, 2, 2]),
        "thread": np.array([0, 0, 1, 2]),
        "parent": np.array([-1, 0, 0, 0]),
        "start": np.array([0.0, 1.0, 4.0, 5.0]),
        "end": np.array([10.0, 3.0, 8.0, 9.0]),
    }
    np.testing.assert_allclose(tracing.self_times(spans), [3.0, 2.0, 4.0, 4.0])
    assert tracing.outermost(spans).all()


def test_tracer_wraps_every_namespace_and_restores_it():
    originals = (pm.capacity.apply, pm.channel.apply, pm.apply, pm.cli.two_qubit_capacity)
    spec = pm.preset_symmetric(0.3, 0.5)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert pm.capacity.apply is pm.channel.apply is pm.apply
        assert pm.apply is not originals[1]
        pm.two_qubit_capacity(spec)
    finally:
        tr.uninstall()
    assert (pm.capacity.apply, pm.channel.apply, pm.apply, pm.cli.two_qubit_capacity) == originals
    spans = tr.spans()
    names = [tr.names[i] for i in spans["fn"]]
    assert names.count("channel.apply") == 17
    assert names.count("capacity.holevo_chi") == 1
    root = names.index("capacity.two_qubit_capacity")
    assert spans["parent"][root] == -1
    assert (spans["parent"][np.arange(len(names)) != root] >= 0).all()


def test_gauge_scales_each_span_by_the_readings_around_it():
    gauge = reference.Gauge()
    gauge.at.extend([0.0, 1.0, 1.02, 2.0])
    gauge.cpu_ms.extend([1.0, 2.0, 4.0, 8.0])
    spans = [(0.98, 1.01), (0.3, 0.35), (0.6, 0.7), (0.0, 3.0)]
    nominal = reference.NOMINAL_MS
    np.testing.assert_allclose(
        run.reference_scales(gauge, spans),
        [nominal / 3.0, nominal / 1.0, nominal / 2.0, nominal / 3.75],
    )
    assert gauge.factor() == nominal / 3.75


def test_gauge_reads_during_the_block_and_leaves_its_time_out_of_the_clock():
    with reference.Gauge() as gauge:
        t0, c0 = perf_counter(), gauge.clock()
        while perf_counter() - t0 < 10 * reference.PERIOD_S:
            pass
        elapsed, clocked = perf_counter() - t0, gauge.clock() - c0
    assert len(gauge.at) >= 5
    assert np.all(np.diff(gauge.at) > 0)
    assert clocked < elapsed


def test_reference_kernel_loads_neither_numpy_nor_paulimem():
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import reference; reference.kernel();"
         " print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'paulimem'}))",
         str(HERE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["closed-form-grid", "custom-search", "cli-sweep-threads"])
def test_printed_metrics_match_benchmark_json(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _metric_units("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == list(expected)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == expected[name]


def test_exits_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
