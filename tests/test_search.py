"""Global minimal-output-entropy search against the closed-form oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paulimem
from paulimem import search
from paulimem.capacity import candidate_entropy_gap, crossing_mu, two_qubit_capacity
from paulimem.channel import ChannelSpec, apply, preset_depolarizing, preset_symmetric
from paulimem.search import (
    _entropy_objective,
    _nelder_mead,
    _pure_states,
    _superoperator,
    _WARM_STARTS,
    _start_points,
    MOEMethod,
    SearchConfig,
    minimize_output_entropy,
    output_entropy,
    parametrize_pure_state,
    schmidt_coefficients,
)
from paulimem.spectral import _eigvalsh, von_neumann_entropy_bits
from paulimem.symmetric import Regime, SymmetricParams, optimal_input
from util import CANDIDATES, random_density_matrix, superoperator_oracle

S_MIN_030_050 = 1.536721674438358
S_MIN_045_020 = 0.916501945827340

# Twice the single-use minimal output entropy of the x=0.7 depolarizing
# channel (Bloch shrink 0.6, spectrum 0.8/0.2 per use); product inputs
# attain it at mu=0.
DEPOL_07_MEMORYLESS = 1.443856189774725

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)

LEAN = SearchConfig(restarts=12, max_iterations=800, seed=42)


def test_parametrize_origin_is_00():
    v = parametrize_pure_state([0.0] * 6)
    assert np.array_equal(v, np.array([1, 0, 0, 0], dtype=complex))


def test_parametrize_bell_angles():
    v = parametrize_pure_state([math.pi / 4, math.pi / 2, math.pi / 2, 0, 0, 0])
    assert np.abs(v - BELL).max() < 1e-15


def test_parametrize_unit_norm():
    rng = np.random.default_rng(61)
    for _ in range(100):
        v = parametrize_pure_state(rng.uniform(-4, 4, size=6))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_output_entropy_identity_channel():
    rng = np.random.default_rng(62)
    spec = ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.3)
    v = parametrize_pure_state(rng.uniform(0, 2, size=6))
    assert output_entropy(spec, v) < 1e-12


def test_output_entropy_matches_closed_form():
    assert abs(
        output_entropy(preset_symmetric(0.3, 0.5), BELL) - S_MIN_030_050
    ) < 1e-12
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    assert abs(
        output_entropy(preset_symmetric(0.45, 0.2), e0) - S_MIN_045_020
    ) < 1e-12


def test_output_entropy_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        output_entropy(preset_symmetric(0.3, 0.5), np.array([1.0, 1.0, 0.0, 0.0]))


def test_minimize_identity_channel():
    result = minimize_output_entropy(ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.5), LEAN)
    assert result.entropy_bits < 1e-10
    assert result.method is MOEMethod.GLOBAL_SEARCH


def test_minimize_entangled_regime():
    result = minimize_output_entropy(preset_symmetric(0.3, 0.5), LEAN)
    assert abs(result.entropy_bits - S_MIN_030_050) < 1e-6
    assert result.converged


def test_minimize_product_regime():
    result = minimize_output_entropy(preset_symmetric(0.45, 0.2), LEAN)
    assert abs(result.entropy_bits - S_MIN_045_020) < 1e-6
    assert result.converged
    # The minimizer itself is a product state (up to channel symmetries).
    coeffs = schmidt_coefficients(result.state)
    assert coeffs[1] < 1e-5


def test_minimize_deterministic():
    spec = preset_depolarizing(0.7, 0.45)
    cfg = SearchConfig(restarts=10, max_iterations=600, seed=123)
    a = minimize_output_entropy(spec, cfg)
    b = minimize_output_entropy(spec, cfg)
    assert a.entropy_bits == b.entropy_bits
    assert np.array_equal(a.state, b.state)
    assert a.converged == b.converged
    c = minimize_output_entropy(spec, SearchConfig(restarts=10, max_iterations=600, seed=7))
    assert abs(c.entropy_bits - a.entropy_bits) < 1e-8


def test_minimize_single_restart_cannot_confirm():
    result = minimize_output_entropy(
        preset_symmetric(0.3, 0.5), SearchConfig(restarts=1, seed=0)
    )
    assert not result.converged


def test_minimize_agrees_with_closed_form_on_grid():
    # The warm starts include the true optimum at every grid point, so a
    # modest per-restart budget keeps this quick.
    cfg = SearchConfig(restarts=6, max_iterations=150, seed=99)
    worst = 0.0
    for p in np.linspace(0.0, 0.5, 15):
        for mu in np.linspace(0.0, 1.0, 15):
            analytic = optimal_input(SymmetricParams(p, mu)).s_min_bits
            found = minimize_output_entropy(preset_symmetric(p, mu), cfg).entropy_bits
            worst = max(worst, abs(found - analytic))
    assert worst <= 1e-6


def mixed_state_dominance_check(spec: ChannelSpec, trials: int, seed: int) -> bool:
    """Whether no sampled mixed input beats the best of its own eigenvectors.

    Concavity of the entropy guarantees
    ``S(E(rho)) >= min_v S(E(|v><v|)) - 1e-9`` over the eigenvectors ``v``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        rho = random_density_matrix(rng)
        mixed_entropy = von_neumann_entropy_bits(apply(spec, rho))
        _, vecs = np.linalg.eigh(rho)
        best_pure = min(output_entropy(spec, vecs[:, k]) for k in range(4))
        if mixed_entropy < best_pure - 1e-9:
            return False
    return True


def test_mixed_states_never_beat_their_eigenvectors():
    assert mixed_state_dominance_check(ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.2), 50, 5)
    assert mixed_state_dominance_check(preset_symmetric(0.3, 0.5), 200, 5)
    assert mixed_state_dominance_check(preset_depolarizing(0.7, 0.5), 200, 5)


def test_depolarizing_memoryless_limit():
    # Additivity holds for the memoryless depolarizing channel, so the
    # two-use minimum is twice the single-use one, attained on products.
    result = minimize_output_entropy(preset_depolarizing(0.7, 0.0), LEAN)
    assert abs(result.entropy_bits - DEPOL_07_MEMORYLESS) < 1e-6


def test_depolarizing_perfect_memory_limit():
    # Every Bell state is a common eigenvector of all repeated Pauli
    # pairs, so perfect memory transmits it untouched.
    result = minimize_output_entropy(preset_depolarizing(0.7, 1.0), LEAN)
    assert result.entropy_bits < 1e-9
    assert abs(output_entropy(preset_depolarizing(0.7, 1.0), BELL)) < 1e-12


def test_schmidt_coefficients():
    product = np.array([1, 0, 0, 0], dtype=complex)
    assert np.abs(schmidt_coefficients(product) - np.array([1.0, 0.0])).max() < 1e-12
    assert np.abs(schmidt_coefficients(BELL) - np.sqrt(0.5)).max() < 1e-12


def test_candidate_gap_sign():
    assert candidate_entropy_gap(preset_symmetric(0.35, 0.2)) < 0  # product wins
    assert candidate_entropy_gap(preset_symmetric(0.35, 0.6)) > 0  # Bell wins


def test_crossing_at_symmetric_threshold():
    found = crossing_mu(lambda mu: preset_symmetric(0.35, mu), tol=1e-6)
    assert abs(found - 0.4) < 1e-6


def test_crossing_ends_when_no_float_lies_inside_the_bracket():
    # tol is far below the float spacing near 0.4, so the bracket stops shrinking first.
    found = crossing_mu(lambda mu: preset_symmetric(0.35, mu), tol=1e-300)
    assert abs(found - 0.4) < 1e-15


def test_crossing_none_without_sign_change():
    # x=1 is the identity channel: both candidates give zero entropy.
    assert crossing_mu(lambda mu: preset_depolarizing(1.0, mu)) is None


@pytest.mark.parametrize(
    "kind, q", [("X", (0.5, 0.05, 0.4, 0.05)), ("Y", (0.5, 0.05, 0.05, 0.4))]
)
def test_crossing_finds_the_switch_of_x_and_y_optimal_channels(kind, q):
    found = crossing_mu(lambda mu: ChannelSpec(q, mu), tol=1e-6)
    assert found is not None
    below = two_qubit_capacity(ChannelSpec(q, found - 1e-4))
    above = two_qubit_capacity(ChannelSpec(q, found + 1e-4))
    assert below.regime is Regime.PRODUCT and above.regime is Regime.ENTANGLED
    assert np.abs(below.state - CANDIDATES[kind]).max() <= 1e-15


def test_candidate_gap_is_best_axis_minus_bell_through_the_dense_channel():
    # output_entropy goes through apply and an eigendecomposition, not the candidate labels.
    rng = np.random.default_rng(65)
    for alpha in (1.0, 0.3):
        for _ in range(60):
            q = rng.dirichlet(np.full(4, alpha))
            spec = ChannelSpec(tuple(q / q.sum()), float(rng.uniform()))
            dense = {kind: output_entropy(spec, v) for kind, v in CANDIDATES.items()}
            expected = min(dense["Z"], dense["X"], dense["Y"]) - dense["Bell"]
            assert abs(candidate_entropy_gap(spec) - expected) <= 1e-12


# Channels whose best candidate input is each of the four kinds; the
# warm starts hold the Z and Bell candidates but no X or Y product state.
CANDIDATE_CHANNELS = {
    "Z": ChannelSpec((0.5, 0.3, 0.1, 0.1), 0.2),
    "X": ChannelSpec((0.5, 0.1, 0.3, 0.1), 0.2),
    "Y": ChannelSpec((0.5, 0.1, 0.1, 0.3), 0.2),
    "Bell": ChannelSpec((0.4, 0.3, 0.2, 0.1), 0.8),
}


def test_batched_states_match_parametrize_bitwise():
    angles = np.random.default_rng(63).uniform(-4, 8, size=(50, 6))
    angles[::7, :3] = [0.0, math.pi / 2, math.pi / 4]
    states = _pure_states(angles)
    for row, a in zip(states, angles):
        assert np.array_equal(row, parametrize_pure_state(a))


def test_objective_matches_apply_and_ignores_its_batch():
    # The objective folds the channel into one 16x16 matrix, which apply does
    # not take; both score their spectra with the one Shannon kernel.
    angles = np.random.default_rng(64).uniform(-4, 8, size=(40, 6))
    for spec in CANDIDATE_CHANNELS.values():
        objective = _entropy_objective(spec)
        values = objective(angles)
        reference = [output_entropy(spec, parametrize_pure_state(a)) for a in angles]
        assert np.abs(values - reference).max() <= 1e-13
        # A row scores the same bits alone and in batches on both sides of 16.
        for size in (1, 2, 15, 16, 17, 40):
            for start in range(0, len(angles), size):
                part = objective(angles[start : start + size])
                assert np.array_equal(part, values[start : start + size]), size


def search_matrix_channels() -> list[ChannelSpec]:
    """3 000 seeded channels: Dirichlet weights of concentration 1, 0.3 and
    0.15 (sparse), each with ``mu`` of 0, 1 and uniform draws."""
    rng = np.random.default_rng(66)
    specs = []
    for k in range(3000):
        q = rng.dirichlet(np.full(4, (1.0, 0.3, 0.15)[k % 3]))
        mu = (0.0, 1.0, float(rng.uniform()))[k // 3 % 3]
        specs.append(ChannelSpec(tuple(q / q.sum()), mu))
    return specs


def test_search_matrix_is_the_kernel_output_with_the_oracle_bits():
    for spec in search_matrix_channels():
        sup = _superoperator(spec)
        assert sup.flags.c_contiguous
        assert sup.tobytes() == superoperator_oracle(spec).tobytes()


def test_objective_has_the_same_bits_from_the_oracle_matrix(monkeypatch):
    angles = np.random.default_rng(67).uniform(-4, 8, size=(1000, 6))
    for spec in search_matrix_channels()[::15]:
        values = _entropy_objective(spec)(angles)
        with monkeypatch.context() as patch:
            patch.setattr(search, "_superoperator", superoperator_oracle)
            oracle_values = _entropy_objective(spec)(angles)
        assert values.tobytes() == oracle_values.tobytes()


def test_objective_has_the_bits_of_numpys_eigvalsh(monkeypatch):
    # The objective calls spectral's eigenvalue entry point; with numpy's own
    # wrapper in its place, every (B, 4, 4) stack and every value keep their bits.
    rng = np.random.default_rng(68)
    for spec in search_matrix_channels()[::100]:
        objective = _entropy_objective(spec)
        for batch in (1, 7, 64):
            angles = rng.uniform(-4, 8, size=(batch, 6))
            angles[::3, :3] = [0.0, math.pi / 2, math.pi / 4]  # |00>: exact and signed zeros
            stacks = []
            with monkeypatch.context() as patch:
                patch.setattr(search, "_eigvalsh", lambda a: stacks.append(a) or _eigvalsh(a))
                values = objective(angles)
            [stack] = stacks
            assert stack.shape == (batch, 4, 4)
            assert _eigvalsh(stack).tobytes() == np.linalg.eigvalsh(stack).tobytes()
            with monkeypatch.context() as patch:
                patch.setattr(search, "_eigvalsh", np.linalg.eigvalsh)
                assert objective(angles).tobytes() == values.tobytes()


def test_each_restart_descends_alone_as_in_the_batch():
    spec = ChannelSpec((0.45, 0.25, 0.2, 0.1), 0.35)
    objective = _entropy_objective(spec)
    starts = _start_points(SearchConfig(restarts=14, seed=5))
    xs, fs, steps, evaluations = _nelder_mead(objective, starts, 2000, tight=False)
    alone_steps = alone_evaluations = 0
    for start, x, f in zip(starts, xs, fs):
        x1, f1, s1, e1 = _nelder_mead(objective, start[None], 2000, tight=False)
        assert np.array_equal(x1[0], x) and f1[0] == f
        alone_steps = max(alone_steps, s1)
        alone_evaluations += e1
    # The batch runs as long as its slowest simplex and scores the same points.
    assert (steps, evaluations) == (alone_steps, alone_evaluations)


@pytest.mark.parametrize("kind", sorted(CANDIDATE_CHANNELS))
def test_default_search_finds_every_candidate_kind(kind):
    spec = CANDIDATE_CHANNELS[kind]
    entropies = {k: output_entropy(spec, v) for k, v in CANDIDATES.items()}
    assert min(entropies, key=entropies.get) == kind
    result = minimize_output_entropy(spec)
    assert result.converged is True
    assert abs(result.entropy_bits - entropies[kind]) <= 1e-9


def test_restarts_follow_scipy_nelder_mead():
    minimize = pytest.importorskip("scipy.optimize").minimize

    spec = ChannelSpec((0.35, 0.15, 0.4, 0.1), 0.3)
    cfg = SearchConfig(restarts=12, seed=11)
    starts = _start_points(cfg)
    options = {"maxiter": cfg.max_iterations, "xatol": 1e-6, "fatol": 1e-10}

    # Same objective: every restart takes scipy's steps and ends on its point.
    objective = _entropy_objective(spec)
    xs, fs, _, _ = _nelder_mead(objective, starts, cfg.max_iterations, tight=False)
    for x0, x, f in zip(starts, xs, fs):
        ref = minimize(lambda a: objective(a[None])[0], x0, method="Nelder-Mead", options=options)
        assert np.array_equal(ref.x, x) and ref.fun == f

    # Independent objective through the channel's apply: the best agrees.
    reference = min(
        minimize(
            lambda a: output_entropy(spec, parametrize_pure_state(a)),
            x0,
            method="Nelder-Mead",
            options=options,
        ).fun
        for x0 in starts
    )
    assert abs(minimize_output_entropy(spec, cfg).entropy_bits - reference) <= 1e-9


def test_search_effort_is_reported_and_deterministic():
    spec = preset_depolarizing(0.7, 0.45)
    cfg = SearchConfig(restarts=10, max_iterations=600, seed=123)
    a = minimize_output_entropy(spec, cfg)
    b = minimize_output_entropy(spec, cfg)
    assert (a.evaluations, a.iterations) == (b.evaluations, b.iterations)
    assert isinstance(a.evaluations, int) and isinstance(a.iterations, int)
    # Each of the 11 descents (10 restarts and the polish) scores its
    # 7-vertex initial simplex and at least one point per step.
    assert a.evaluations >= 11 * 7 + a.iterations
    assert 0 < a.iterations <= 2 * (cfg.max_iterations - 1)


def test_max_iterations_caps_every_descent():
    result = minimize_output_entropy(
        preset_symmetric(0.3, 0.5), SearchConfig(restarts=3, max_iterations=1)
    )
    assert result.iterations == 0
    assert result.evaluations == 4 * 7


def test_start_points_are_seeded_warm_starts_then_box_draws():
    cfg = SearchConfig(restarts=40, seed=9)
    starts = _start_points(cfg)
    assert starts.shape == (40, 6)
    assert np.array_equal(starts, _start_points(cfg))
    assert np.array_equal(starts[:8], np.array(_WARM_STARTS))
    magnitudes, phases = starts[8:, :3], starts[8:, 3:]
    assert np.all((magnitudes >= 0.0) & (magnitudes <= math.pi / 2))
    assert np.all((phases >= 0.0) & (phases < 2.0 * math.pi))
    other = _start_points(SearchConfig(restarts=40, seed=10))
    assert np.array_equal(other[:8], starts[:8])
    assert not np.any(np.all(other[8:] == starts[8:], axis=1))


def test_runs_without_scipy():
    # Every import of scipy fails, so any use of it would end the run.
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import io, contextlib\n"
        "from paulimem import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.main(['capacity', '--q', '0.4,0.3,0.2,0.1', '--mu', '0.6', '--numeric'])\n"
        "assert code == 0 and 'converged: true' in out.getvalue(), (code, out.getvalue())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['sweep-mu', '--family', 'symmetric', '--param', '0.3',\n"
        "                     '--steps', '5', '--threads', '2'])\n"
        "assert code == 0, code\n"
    )
    src = str(Path(paulimem.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
