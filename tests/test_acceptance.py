"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np

from paulimem.capacity import candidate_entropy_gap, crossing_mu, two_qubit_capacity
from paulimem.channel import ChannelSpec, apply, preset_depolarizing, preset_symmetric
from paulimem.checks import covariance_residual, ensemble_average_output
from paulimem.cli import main as cli_main
from paulimem.search import SearchConfig, minimize_output_entropy
from paulimem.spectral import density_spectra, von_neumann_entropy_bits
from paulimem.symmetric import (
    AnsatzState,
    SymmetricParams,
    ansatz_output_entropy,
    ansatz_state_vector,
    capacity_symmetric,
    output_eigenvalues,
    threshold,
)
from util import random_pure_state, random_spec


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_eigenvalue_formula_oracle():
    # 20x20x12x8 grid over (p, mu, theta, phi): closed-form spectrum vs
    # dense diagonalization of the applied channel, 1e-9 per eigenvalue,
    # under 10 seconds single-threaded.
    started = time.perf_counter()
    worst = 0.0
    for p in np.linspace(0.0, 0.5, 20):
        for mu in np.linspace(0.0, 1.0, 20):
            params = SymmetricParams(p, mu)
            spec = preset_symmetric(p, mu)
            for theta in np.linspace(0.0, math.pi / 2, 12):
                for phi in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
                    state = AnsatzState(theta, phi)
                    v = ansatz_state_vector(state)
                    dense = density_spectra(apply(spec, np.outer(v, v.conj())))
                    formula = output_eigenvalues(params, state)
                    worst = max(worst, float(np.abs(dense - formula).max()))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-9 and elapsed < 10.0,
        f"max eigenvalue deviation {worst:.3e} (tol 1e-9) over 38400 points "
        f"in {elapsed:.1f}s (target < 10s)",
    )


def test_criterion_2_threshold_reproduction():
    worst = 0.0
    for p in (0.30, 0.35, 0.40, 0.45):
        numeric = crossing_mu(lambda mu, p=p: preset_symmetric(p, mu), tol=1e-6)
        worst = max(worst, abs(numeric - abs(4.0 * p - 1.0)))
    report(2, worst <= 1e-4, f"max |bisection - |4p-1|| = {worst:.3e} (tol 1e-4)")


def test_criterion_3_optimal_state_regimes():
    rng = np.random.default_rng(2024)
    cfg_kwargs = dict(restarts=8, max_iterations=300)
    worst_entangled = 0.0
    worst_product = 0.0
    accepted = 0
    while accepted < 25:
        p, mu = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
        if mu <= abs(4.0 * p - 1.0) + 0.02:
            continue
        found = minimize_output_entropy(
            preset_symmetric(p, mu), SearchConfig(seed=accepted, **cfg_kwargs)
        ).entropy_bits
        bell_value = ansatz_output_entropy(SymmetricParams(p, mu), math.pi / 4)
        worst_entangled = max(worst_entangled, abs(found - bell_value))
        accepted += 1
    accepted = 0
    while accepted < 25:
        p, mu = rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)
        if mu >= abs(4.0 * p - 1.0) - 0.02:
            continue
        found = minimize_output_entropy(
            preset_symmetric(p, mu), SearchConfig(seed=1000 + accepted, **cfg_kwargs)
        ).entropy_bits
        product_value = ansatz_output_entropy(SymmetricParams(p, mu), 0.0)
        worst_product = max(worst_product, abs(found - product_value))
        accepted += 1
    report(
        3,
        worst_entangled <= 1e-6 and worst_product <= 1e-6,
        f"search vs Bell value {worst_entangled:.3e}, vs |00> value "
        f"{worst_product:.3e} over 50 random points (tol 1e-6)",
    )


def test_criterion_4_saturation_on_random_channels():
    rng = np.random.default_rng(404)
    worst = 0.0
    for k in range(100):
        spec = random_spec(rng)
        result = two_qubit_capacity(
            spec, SearchConfig(restarts=6, max_iterations=150, seed=k)
        )
        worst = max(worst, result.saturation_gap)
    report(4, worst <= 1e-8, f"max |chi - (2 - S_min)| = {worst:.3e} over 100 random channels (tol 1e-8)")


def test_criterion_5_kink_detection():
    p = 0.35
    mu_t = threshold(p)

    def slope(at: float, h: float) -> float:
        return (capacity_symmetric(p, at + h / 2) - capacity_symmetric(p, at - h / 2)) / h

    left, left_half = slope(mu_t - 1e-4, 1e-5), slope(mu_t - 1e-4, 5e-6)
    right, right_half = slope(mu_t + 1e-4, 1e-5), slope(mu_t + 1e-4, 5e-6)
    stable = abs(left - left_half) <= 1e-3 and abs(right - right_half) <= 1e-3
    split = abs(right - left)
    report(
        5,
        split >= 0.1 and stable,
        f"one-sided slopes {left:.4f} / {right:.4f} differ by {split:.4f} bits "
        f"per unit mu (>= 0.1), stable to 1e-3 under halving the step",
    )


def test_criterion_6_limit_checks():
    rng = np.random.default_rng(606)
    worst_mu1 = 0.0
    for k in range(20):
        q = rng.dirichlet(np.ones(4))
        spec = ChannelSpec(tuple(q / q.sum()), 1.0)
        result = two_qubit_capacity(
            spec, SearchConfig(restarts=6, max_iterations=150, seed=k)
        )
        worst_mu1 = max(worst_mu1, abs(result.chi_bits - 2.0))
    worst_identity = 0.0
    for mu in (0.0, 0.3, 0.7, 1.0):
        spec = ChannelSpec((1.0, 0.0, 0.0, 0.0), mu)
        result = two_qubit_capacity(
            spec, SearchConfig(restarts=6, max_iterations=150, seed=0)
        )
        worst_identity = max(worst_identity, abs(result.chi_bits - 2.0))
    worst_mixed = 0.0
    for _ in range(20):
        out_entropy = von_neumann_entropy_bits(apply(random_spec(rng), np.eye(4) / 4))
        worst_mixed = max(worst_mixed, abs(out_entropy - 2.0))
    ok = worst_mu1 <= 1e-9 and worst_identity <= 1e-9 and worst_mixed <= 1e-9
    report(
        6,
        ok,
        f"perfect-memory capacity defect {worst_mu1:.3e}, identity-channel "
        f"defect {worst_identity:.3e}, maximally-mixed entropy defect "
        f"{worst_mixed:.3e} (tol 1e-9)",
    )


def test_criterion_7_covariance_and_averaging():
    rng = np.random.default_rng(707)
    worst_cov = 0.0
    worst_avg = 0.0
    eye4 = np.eye(4) / 4.0
    for _ in range(100):
        spec = random_spec(rng)
        v = random_pure_state(rng)
        rho = np.outer(v, v.conj())
        i, j = rng.integers(0, 4, size=2)
        worst_cov = max(worst_cov, covariance_residual(spec, rho, int(i), int(j)))
        worst_avg = max(
            worst_avg, float(np.abs(ensemble_average_output(spec, rho) - eye4).max())
        )
    ok = worst_cov < 1e-10 and worst_avg < 1e-10
    report(
        7,
        ok,
        f"covariance residual {worst_cov:.3e}, averaging residual "
        f"{worst_avg:.3e} over 100 random pairs (tol 1e-10)",
    )


def test_criterion_8_determinism(tmp_path):
    verify_args = ["verify", "--grid-density", "low", "--seed", "9"]
    v1, v2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    code1 = cli_main(verify_args + ["--out", str(v1)])
    code2 = cli_main(verify_args + ["--out", str(v2)])
    verify_ok = code1 == 0 and code2 == 0 and v1.read_bytes() == v2.read_bytes()

    sweep_args = [
        "sweep-mu", "--family", "depolarizing", "--param", "0.7",
        "--steps", "5", "--restarts", "6", "--seed", "9",
    ]
    s1, s2, s4 = (tmp_path / f"s{k}.csv" for k in (1, 2, 4))
    cli_main(sweep_args + ["--threads", "1", "--out", str(s1)])
    cli_main(sweep_args + ["--threads", "1", "--out", str(s2)])
    cli_main(sweep_args + ["--threads", "4", "--out", str(s4)])
    sweep_ok = s1.read_bytes() == s2.read_bytes() == s4.read_bytes()
    report(
        8,
        verify_ok and sweep_ok,
        "verify and sweep outputs byte-identical across repeated runs and "
        "thread counts 1 vs 4",
    )


def test_criterion_9_depolarizing_crossing():
    mus = np.linspace(0.0, 1.0, 401)
    gaps = np.array(
        [candidate_entropy_gap(preset_depolarizing(0.7, float(mu))) for mu in mus]
    )
    signs = np.sign(gaps[np.abs(gaps) > 1e-12])
    changes = int(np.sum(signs[1:] != signs[:-1]))
    crossing = crossing_mu(lambda mu: preset_depolarizing(0.7, mu), tol=1e-6)
    report(
        9,
        changes == 1 and crossing is not None,
        f"Bell-vs-product entropy gap changes sign exactly once on [0,1]; "
        f"crossing at mu = {crossing:.6f}",
    )
