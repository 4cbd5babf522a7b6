"""Covariant ensembles and the saturation of the capacity bound."""

import ast
import dataclasses
import inspect
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulimem import capacity, channel, checks, spectral, symmetric
from paulimem.capacity import (
    _CANDIDATES,
    CapacityResult,
    Ensemble,
    Regime,
    _closed_form_rows,
    candidate_entropies,
    candidate_entropy_gap,
    covariant_ensemble,
    crossing_mu,
    holevo_chi,
    two_qubit_capacity,
)
from paulimem.channel import (
    ChannelSpec,
    _joint_weights,
    _kraus_terms,
    _weigh_terms,
    apply,
    preset_depolarizing,
    preset_symmetric,
)
from paulimem.cli import main
from paulimem.search import MOEMethod, SearchConfig, output_entropy, parametrize_pure_state
from paulimem.spectral import density_spectra, shannon_entropy_bits, von_neumann_entropy_bits
from paulimem.symmetric import SymmetricParams, capacity_symmetric, optimal_input
from util import (
    CANDIDATES,
    candidate_optimum_oracle,
    candidate_spectra_oracle,
    closed_form_digest,
    kraus_sum_oracle,
    mixed_channels,
    random_pure_state,
    random_spec,
    shannon_row_oracle,
)

S_MIN_045_020 = 0.916501945827340

BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
E00 = np.array([1, 0, 0, 0], dtype=complex)

LEAN = SearchConfig(restarts=6, max_iterations=150, seed=11)


def basis_ensemble() -> Ensemble:
    states = tuple(np.diag(row).astype(complex) for row in np.eye(4))
    return Ensemble(states, np.full(4, 0.25))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble((np.eye(4) / 4,), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Ensemble((np.eye(4) / 4, np.eye(4) / 4), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        Ensemble((np.eye(4) / 4, np.eye(4) / 4), np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="^1 states but 0 priors$"):
        Ensemble(np.eye(4)[None] / 4, [])


def test_ensemble_requires_one_dimensional_priors():
    message = re.escape("priors must be a 1-D array, got shape (2, 1)")
    with pytest.raises(ValueError, match=message):
        Ensemble(np.stack([np.eye(4) / 4] * 2), [[0.5], [0.5]])


@pytest.mark.parametrize("shape", [(1, 2, 2), (0, 4, 4), (4, 4), (2, 4, 4, 1), (2, 4, 3)])
def test_ensemble_requires_a_nonempty_stack_of_4x4_states(shape):
    message = re.escape(f"nonempty (n, 4, 4) stack, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        Ensemble(np.zeros(shape, dtype=complex), [1.0])


NAN = float("nan")
NAN_MATRIX = np.full((4, 4), NAN)
NOT_PSD = (np.eye(4) / 4, np.diag([1.5, -0.5, 0.0, 0.0]))


def _uncalled_factory(mu):
    raise AssertionError("crossing_mu built a channel before it checked tol")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ChannelSpec((NAN, 0.5, 0.25, 0.25), 0.5), "^q must be finite, got nan$"),
        (lambda: ChannelSpec((0.25, 0.25, 0.25, 0.25), NAN), None),
        (lambda: SearchConfig(entropy_tolerance=NAN), None),
        (lambda: SearchConfig(entropy_tolerance=np.inf), None),
        # bool is a number, but no tolerance.
        (
            lambda: SearchConfig(entropy_tolerance=True),
            "^entropy_tolerance must be finite and positive, got True$",
        ),
        (lambda: SearchConfig(seed=-1), None),
        (lambda: SearchConfig(restarts=2.5), None),
        (lambda: SearchConfig(max_iterations=2.5), None),
        (lambda: SearchConfig(restarts=12, seed=1.5), None),
        # bool is an Integral, but no count.
        (lambda: SearchConfig(restarts=True), "^restarts must be a positive integer, got True$"),
        (
            lambda: SearchConfig(max_iterations=True),
            "^max_iterations must be a positive integer, got True$",
        ),
        (lambda: SearchConfig(seed=False), "^seed must be a nonnegative integer, got False$"),
        (
            lambda: Ensemble((np.eye(4) / 4, np.eye(4) / 4), np.array([NAN, 1.0])),
            "^priors must be finite, got nan$",
        ),
        (lambda: shannon_entropy_bits([NAN, 1.0]), None),
        (lambda: density_spectra(NAN_MATRIX), None),
        (lambda: apply(preset_symmetric(0.3, 0.5), NAN_MATRIX), None),
        (lambda: output_entropy(preset_symmetric(0.3, 0.5), np.array([NAN, 0, 0, 0])), None),
        # holevo_chi names a bad member by its own index, not by its place after the average.
        (lambda: holevo_chi(preset_symmetric(0.3, 0.5), Ensemble(NOT_PSD, [1, 0])), "^member 1: "),
        (
            lambda: holevo_chi(preset_symmetric(0.3, 0.5), Ensemble(NOT_PSD, [0.5, 0.5])),
            "^member 1: ",
        ),
        (lambda: crossing_mu(_uncalled_factory, tol=0.0), "^tol must be finite and positive"),
        (lambda: crossing_mu(_uncalled_factory, tol=-1.0), "^tol must be finite and positive"),
        (lambda: crossing_mu(_uncalled_factory, tol=NAN), "^tol must be finite and positive"),
        (lambda: crossing_mu(_uncalled_factory, tol=math.inf), "^tol must be finite and positive"),
        # A bool tol would read as 1.0 and return the first midpoint, 0.5.
        (
            lambda: crossing_mu(_uncalled_factory, tol=True),
            "^tol must be finite and positive, got True$",
        ),
        (
            lambda: parametrize_pure_state([math.inf, 0, 0, 0, 0, 0]),
            "^angles must be finite, got inf$",
        ),
        (lambda: parametrize_pure_state([0.0] * 5), "^expected 6 angles, got 5$"),
    ],
    ids=[
        "spec-q", "spec-mu", "config-tolerance-nan", "config-tolerance-inf",
        "config-tolerance-bool", "config-seed", "config-restarts-float",
        "config-iterations-float", "config-seed-float", "config-restarts-bool",
        "config-iterations-bool", "config-seed-bool", "ensemble", "shannon", "eigenvalues",
        "apply", "output-entropy", "holevo-unused-member", "holevo-mixed-member",
        "crossing-tol-zero", "crossing-tol-negative", "crossing-tol-nan", "crossing-tol-inf",
        "crossing-tol-bool", "angles-inf", "angles-count",
    ],
)
def test_invalid_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message) as info:
        call()
    # LinAlgError is a ValueError too: the input check, not the solver, must reject it.
    assert info.type is ValueError


@pytest.mark.parametrize(
    "call",
    [
        lambda: apply(preset_symmetric(0.3, 0.5), 0.3 * np.eye(4)),
        lambda: von_neumann_entropy_bits(np.diag([0.5, 0.3, 0.3, 0.1])),
        lambda: shannon_entropy_bits([0.3] * 4),
        lambda: shannon_entropy_bits([[0.25] * 4, [0.3] * 4]),
        lambda: shannon_entropy_bits([0.6, 0.6, -0.2, 0.0]),
        lambda: shannon_entropy_bits([NAN, 0.5, 0.5, 0.0]),
        lambda: Ensemble((np.eye(4) / 4,) * 2, np.array([0.7, 0.7])),
        lambda: Ensemble((np.eye(4) / 4,) * 2, np.array([1.5, -0.5])),
        lambda: Ensemble(np.eye(2)[None], [1.0]),
        lambda: output_entropy(preset_symmetric(0.3, 0.5), np.array([2.0, 0, 0, 0])),
        lambda: ChannelSpec((0.5, 0.5, 0.5, 0.5), 0.5),
        lambda: holevo_chi(preset_symmetric(0.3, 0.5), Ensemble(NOT_PSD, [1, 0])),
        lambda: holevo_chi(preset_symmetric(0.3, 0.5), Ensemble(NOT_PSD, [0.5, 0.5])),
        lambda: parametrize_pure_state([math.inf, 0, 0, 0, 0, 0]),
        lambda: parametrize_pure_state(np.zeros((2, 4))),
    ],
    ids=[
        "apply-trace", "spectrum-trace", "shannon-sum", "shannon-stack-sum",
        "shannon-negative", "shannon-nan", "ensemble-sum", "ensemble-negative",
        "ensemble-shape", "state-norm", "spec-sum", "holevo-unused-member",
        "holevo-mixed-member", "angles-inf", "angles-count",
    ],
)
def test_validator_messages_print_plain_numbers(call):
    with pytest.raises(ValueError) as info:
        call()
    assert "np." not in str(info.value)


def test_covariant_ensemble_of_basis_state_collapses():
    ens = covariant_ensemble(E00)
    assert len(ens.states) == 16
    assert np.abs(ens.priors - 1 / 16).max() < 1e-15
    distinct = []
    for rho in ens.states:
        if not any(np.abs(rho - seen).max() < 1e-12 for seen in distinct):
            distinct.append(rho)
    assert len(distinct) == 4
    for rho in distinct:
        # each distinct member is a computational-basis projector
        assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-12
        assert sorted(np.round(np.diag(rho).real, 12)) == [0.0, 0.0, 0.0, 1.0]


def test_covariant_ensemble_of_bell_state_stays_bell():
    bells = [
        np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
        np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
        np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
        np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    ]
    ens = covariant_ensemble(BELL)
    for rho in ens.states:
        overlaps = [abs(b.conj() @ rho @ b) for b in bells]
        assert abs(max(overlaps) - 1.0) < 1e-12


def test_covariant_ensemble_average_is_maximally_mixed():
    rng = np.random.default_rng(71)
    for _ in range(10):
        ens = covariant_ensemble(random_pure_state(rng))
        assert np.abs(ens.average_input() - np.eye(4) / 4).max() < 1e-12


def test_holevo_identity_channel_with_basis_states():
    spec = ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.5)
    assert abs(holevo_chi(spec, basis_ensemble()) - 2.0) < 1e-12


def test_holevo_single_state_is_zero():
    rng = np.random.default_rng(72)
    spec = random_spec(rng)
    v = random_pure_state(rng)
    ens = Ensemble((np.outer(v, v.conj()),), np.array([1.0]))
    assert abs(holevo_chi(spec, ens)) < 1e-12


def test_holevo_covariant_bell_ensemble_saturates():
    spec = preset_symmetric(0.3, 0.5)
    chi = holevo_chi(spec, covariant_ensemble(BELL))
    s_min = von_neumann_entropy_bits(apply(spec, np.outer(BELL, BELL.conj())))
    assert abs(chi - (2.0 - s_min)) < 1e-12


def test_holevo_invariant_under_member_duplication():
    spec = preset_symmetric(0.4, 0.3)
    rho1 = np.outer(BELL, BELL.conj())
    rho2 = np.outer(E00, E00.conj())
    base = Ensemble((rho1, rho2), np.array([0.5, 0.5]))
    split = Ensemble((rho1, rho2, rho2), np.array([0.5, 0.2, 0.3]))
    assert abs(holevo_chi(spec, base) - holevo_chi(spec, split)) < 1e-12


def test_holevo_has_the_bits_of_one_output_at_a_time():
    rng = np.random.default_rng(74)
    for k in range(30):
        spec = random_spec(rng)
        if k % 2:
            ens = covariant_ensemble(random_pure_state(rng))
        else:
            states = [np.outer(v, v.conj()) for v in (random_pure_state(rng) for _ in range(5))]
            ens = Ensemble(tuple(states), rng.dirichlet(np.ones(5)))
        outputs = [apply(spec, rho) for rho in (ens.average_input(), *ens.states)]
        members = sum(p * von_neumann_entropy_bits(out) for p, out in zip(ens.priors, outputs[1:]))
        assert holevo_chi(spec, ens) == von_neumann_entropy_bits(outputs[0]) - members
        # The average adds the weighted members in order, as a loop over them does.
        loop = np.zeros((4, 4), dtype=complex)
        for prob, rho in zip(ens.priors, ens.states):
            loop += prob * rho
        assert np.array_equal(ens.average_input(), loop)
        # States given as a tuple or as one stacked array hold the same bits.
        as_tuple = Ensemble(tuple(ens.states), ens.priors)
        stacked = Ensemble(np.stack(ens.states), ens.priors)
        assert np.array_equal(as_tuple.average_input(), stacked.average_input())
        assert holevo_chi(spec, as_tuple) == holevo_chi(spec, stacked)


def test_holevo_has_the_bits_of_the_row_formula():
    # The stacked Shannon pass gives chi the bits of the per-row formula on
    # each output spectrum, summed p_k * S_k in member order.
    rng = np.random.default_rng(76)
    for k, spec in enumerate(mixed_channels(rng, 120)):
        state = two_qubit_capacity(spec).state if k % 2 else random_pure_state(rng)
        ens = covariant_ensemble(state)
        outputs = apply(spec, np.concatenate((ens.average_input()[None], ens.states)))
        entropies = [shannon_row_oracle(s) for s in density_spectra(outputs)]
        members = sum(p * s for p, s in zip(ens.priors, entropies[1:]))
        assert holevo_chi(spec, ens) == entropies[0] - members


def test_capacity_perfect_memory_bell():
    result = two_qubit_capacity(preset_symmetric(0.25, 1.0))
    assert abs(result.chi_bits - 2.0) < 1e-10
    assert result.saturation_gap <= 1e-10
    assert result.method is MOEMethod.ANALYTIC_CLOSED_FORM


def test_capacity_symmetric_product_regime():
    result = two_qubit_capacity(preset_symmetric(0.45, 0.2))
    assert abs(result.chi_bits - (2.0 - S_MIN_045_020)) < 1e-9
    assert result.regime is Regime.PRODUCT
    assert result.converged


def symmetric_points(rng, count):
    """Symmetric-family ``(p, mu)``: a quarter on ``|4p-1|``, a quarter 1e-12 to 1e-6 off it."""
    for _ in range(count):
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


def test_four_candidates_match_the_papers_formula_on_the_symmetric_family():
    # The paper's eigenvalue formula shares no code with the candidate spectra.
    for p, mu in symmetric_points(np.random.default_rng(76), 2000):
        result = two_qubit_capacity(preset_symmetric(p, mu))
        paper = optimal_input(SymmetricParams(p, mu))
        assert abs(result.s_min_bits - paper.s_min_bits) <= 1e-14, (p, mu)
        assert abs(result.chi_bits - capacity_symmetric(p, mu)) <= 1e-11, (p, mu)
        # The two Boundary bands, a tie in entropy and one in mu, differ within 1e-9 of it.
        if abs(mu - abs(4.0 * p - 1.0)) > 1e-8:
            assert result.regime is paper.regime, (p, mu)


def test_capacity_depolarizing_numeric():
    spec = preset_depolarizing(0.7, 0.9)
    result = two_qubit_capacity(spec, LEAN, force_numeric=True)
    assert result.method is MOEMethod.GLOBAL_SEARCH
    assert result.saturation_gap <= 1e-8
    assert result.regime is Regime.ENTANGLED
    assert abs(result.chi_bits - (2.0 - result.s_min_bits)) < 1e-8
    # Without force_numeric the four-candidate closed form answers.
    exact = two_qubit_capacity(spec, LEAN)
    assert exact.method is MOEMethod.ANALYTIC_CLOSED_FORM and exact.converged
    assert exact.regime is Regime.ENTANGLED
    assert abs(exact.chi_bits - result.chi_bits) < 1e-6


def test_capacity_forced_numeric_matches_analytic():
    spec = preset_symmetric(0.3, 0.5)
    analytic = two_qubit_capacity(spec)
    numeric = two_qubit_capacity(spec, LEAN, force_numeric=True)
    assert numeric.method is MOEMethod.GLOBAL_SEARCH
    assert abs(numeric.chi_bits - analytic.chi_bits) < 1e-6


def test_saturation_on_random_channels():
    rng = np.random.default_rng(73)
    for k in range(25):
        spec = random_spec(rng)
        result = two_qubit_capacity(
            spec, SearchConfig(restarts=6, max_iterations=150, seed=k)
        )
        assert result.saturation_gap <= 1e-8


def test_all_ensemble_outputs_share_one_entropy():
    rng = np.random.default_rng(74)
    for _ in range(10):
        spec = random_spec(rng)
        ens = covariant_ensemble(random_pure_state(rng))
        entropies = [von_neumann_entropy_bits(apply(spec, rho)) for rho in ens.states]
        assert max(entropies) - min(entropies) < 1e-10



@pytest.mark.parametrize(
    "q, mu, kind, regime",
    [
        ((0.5, 0.3, 0.1, 0.1), 0.2, "Z", Regime.PRODUCT),
        ((0.5, 0.1, 0.3, 0.1), 0.2, "X", Regime.PRODUCT),
        ((0.5, 0.1, 0.1, 0.3), 0.2, "Y", Regime.PRODUCT),
        ((0.4, 0.3, 0.2, 0.1), 0.8, "Bell", Regime.ENTANGLED),
        # Every input passes the identity channel unchanged: a tie, reported as Bell.
        ((1.0, 0.0, 0.0, 0.0), 0.4, "Bell", Regime.BOUNDARY),
    ],
)
def test_closed_form_reports_the_winning_candidate(q, mu, kind, regime):
    spec = ChannelSpec(q, mu)
    result = two_qubit_capacity(spec)
    assert result.method is MOEMethod.ANALYTIC_CLOSED_FORM and result.converged
    assert result.regime is regime
    assert np.abs(result.state - CANDIDATES[kind]).max() <= 1e-15
    assert abs(result.s_min_bits - output_entropy(spec, CANDIDATES[kind])) <= 1e-12
    assert result.saturation_gap <= 1e-12


def test_candidate_minimum_check_passes_and_catches_a_closed_form_above_the_search():
    rng = np.random.default_rng(75)
    assert checks.candidate_minimum(rng, checks.DENSITIES["low"], 75) <= 1e-6

    # 1e-6 above the true minimum stays inside the agreement bound, but the
    # search then lands below the closed form, which no minimum allows.
    def above(spec):
        return SimpleNamespace(s_min_bits=two_qubit_capacity(spec).s_min_bits + 1e-6)

    with mock.patch.object(checks, "two_qubit_capacity", above):
        assert checks.candidate_minimum(rng, {"searches": 1}, 75) == math.inf


def _simplex_point(weights):
    total = sum(weights)
    return tuple(w / total for w in weights)


# Four weights in [0, 1], each one zero a quarter of the time, not all zero.
SIMPLEX = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(0.0), st.just(1.0)),
    min_size=4,
    max_size=4,
).filter(lambda w: sum(w) > 0.0).map(_simplex_point)


@settings(max_examples=200, deadline=None, database=None)
@given(SIMPLEX, st.floats(0.0, 1.0))
# In the symmetric family's Boundary band near zero weights the Bell
# entropy sits 2.1e-11 above the Z one.
@example((0.0, 0.0, 0.5, 0.5), 0.999999999999)
def test_default_capacity_is_the_four_candidate_minimum(q, mu):
    spec = ChannelSpec(q, mu)
    result = two_qubit_capacity(spec)
    assert -1e-12 <= result.chi_bits <= 2.0 + 1e-12
    assert result.saturation_gap <= 1e-8
    # output_entropy goes through the dense channel, which shares no code with the closed form.
    dense = min(output_entropy(spec, v) for v in CANDIDATES.values())
    assert abs(result.s_min_bits - dense) <= 1e-12


def _stack_channels(rng, n: int, beside=lambda rng: rng.uniform(-1e-9, 1e-9)) -> list[ChannelSpec]:
    """``n`` channels in turn: Dirichlet(1) and Dirichlet(0.3) weights, and
    symmetric points on ``mu = |4p - 1|`` and ``beside(rng)`` (by default
    within 1e-9) off it."""
    specs = []
    for k in range(n):
        if k % 4 < 2:
            q = rng.dirichlet(np.full(4, 1.0 if k % 4 == 0 else 0.3))
            specs.append(ChannelSpec(tuple(q / q.sum()), float(rng.uniform())))
        else:
            p = float(rng.uniform(0.0, 0.5))
            offset = 0.0 if k % 4 == 2 else float(beside(rng))
            specs.append(preset_symmetric(p, min(1.0, max(0.0, abs(4.0 * p - 1.0) + offset))))
    return specs


def _rows(specs) -> list:
    """``_closed_form_rows`` of the sequence ``specs``, streamed as the sweeps stream them."""
    return list(_closed_form_rows(np.array([s.q for s in specs]), np.array([s.mu for s in specs])))


def _row_bits(row) -> tuple:
    """The bits a single point reports of one ``(chi, s_min, winner, regime)`` row."""
    chi, s_min, winner, regime = row
    ensemble = capacity._CANDIDATE_INPUTS[winner, 1:]
    gap = abs(chi - (2.0 - s_min))
    return (
        chi.hex(), s_min.hex(), gap.hex(), regime, _CANDIDATES[winner][0].tobytes(),
        ensemble.tobytes(),
    )


def _bits(result) -> tuple:
    return (
        result.chi_bits.hex(), result.s_min_bits.hex(), result.saturation_gap.hex(),
        result.regime, result.state.tobytes(), result.ensemble.states.tobytes(),
    )


# Ids name the sizes by the block, so they hold whatever _BLOCK is.
@pytest.mark.parametrize(
    "n", [1, 2, capacity._BLOCK + 1, 3 * capacity._BLOCK + 5], ids=["1", "2", "block+1", "3block+5"]
)
def test_each_stacked_channel_has_the_bits_of_its_single_point(n):
    rng = np.random.default_rng(100 + n)
    specs = _stack_channels(rng, n)
    regimes = {regime for _, _, _, regime in _rows(specs)}
    # Exact zeros, -0.0 weights and mu of 0 and 1, in a stream of their own.
    zeros = _zero_weight_channels(rng, n)
    for stream in (specs, zeros + [_signed_zero_copy(s) for s in zeros]):
        rows = _rows(stream)
        assert len(rows) == len(stream)
        for spec, row in zip(stream, rows):
            result = two_qubit_capacity(spec)
            assert _row_bits(row) == _bits(result)
            # The public Holevo quantity goes through the same stacked kernel.
            assert holevo_chi(spec, result.ensemble).hex() == result.chi_bits.hex()
    assert n < 4 or regimes == {Regime.PRODUCT, Regime.ENTANGLED, Regime.BOUNDARY}


def test_closed_form_results_own_their_arrays():
    spec = preset_symmetric(0.3, 0.5)
    config = SearchConfig(seed=3, restarts=4)
    for force_numeric in (False, True):
        result = two_qubit_capacity(spec, config, force_numeric)
        before = _bits(result)
        # A derived ensemble is the caller's own copy to write.
        result.ensemble.states[:] = 0.0
        result.ensemble.priors[:] = 0.0
        # The state is read-only: the write raises, and chi_bits keeps describing
        # the state that derives the ensemble.
        with pytest.raises(ValueError, match="read-only"):
            result.state[:] = 0.0
        assert _bits(result) == before
        assert holevo_chi(spec, result.ensemble).hex() == result.chi_bits.hex()
    # Closed-form results share their candidate's read-only constant.
    first, second = (two_qubit_capacity(spec) for _ in range(2))
    assert first.state is second.state is _CANDIDATES[capacity._BELL][0]


@pytest.mark.parametrize(
    "q, mu, winner",
    [
        ((0.5, 0.3, 0.2, 0.0), 0.3, 0),
        ((0.5, 0.2, 0.3, 0.0), 0.3, 1),
        ((0.5, 0.0, 0.2, 0.3), 0.3, 2),
        ((0.0, 0.5, 0.25, 0.25), 0.9, 3),
        ((0.4, 0.3, 0.2, 0.1), 0.6, None),
    ],
    ids=["Z", "X", "Y", "Bell", "numeric"],
)
def test_a_result_derives_its_ensemble_from_its_state(q, mu, winner):
    spec = ChannelSpec(q, mu)
    result = two_qubit_capacity(spec, force_numeric=winner is None)
    ensemble, expected = result.ensemble, covariant_ensemble(result.state)
    assert ensemble.states.tobytes() == expected.states.tobytes()
    assert ensemble.priors.tobytes() == expected.priors.tobytes()
    if winner is not None:
        # The same bytes as the constant table the closed form's certificate reads.
        assert ensemble.states.tobytes() == capacity._CANDIDATE_INPUTS[winner, 1:].tobytes()
        assert ensemble.priors.tobytes() == capacity._UNIFORM_PRIORS.tobytes()
    assert holevo_chi(spec, ensemble).hex() == result.chi_bits.hex()
    # Each access builds a fresh ensemble; none is stored.
    assert result.ensemble is not ensemble


def test_a_result_stores_no_array_but_its_state():
    names = [field.name for field in dataclasses.fields(CapacityResult)]
    assert names == [
        "chi_bits", "s_min_bits", "saturation_gap", "state", "regime", "method", "converged",
    ]


def test_candidate_inputs_are_a_read_only_constant_of_the_covariant_ensembles():
    inputs = capacity._CANDIDATE_INPUTS
    assert inputs.shape == (len(_CANDIDATES), 17, 4, 4)
    with pytest.raises(ValueError):
        inputs[0, 0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        capacity._UNIFORM_PRIORS[0] = 0.0
    for c, (state, _) in enumerate(_CANDIDATES):
        expected = capacity._holevo_inputs(covariant_ensemble(state))
        assert inputs[c].tobytes() == expected.tobytes()


def test_candidate_terms_are_a_read_only_constant_that_sweeps_leave_unchanged():
    inputs, labelled = capacity._CANDIDATE_INPUTS, capacity._LABEL_INPUTS
    rows, terms = capacity._LABEL_ROWS, capacity._CANDIDATE_TERMS
    for table in (labelled, rows, terms):
        with pytest.raises(ValueError):
            table.flat[0] = 0
    # The average first, then one input per output label.
    assert (rows.shape, labelled.shape) == ((len(_CANDIDATES), 17), (len(_CANDIDATES), 5, 4, 4))
    # Pair-major and C-ordered, so a block's take copies whole candidates into _weigh_terms' view.
    assert terms.shape == (len(_CANDIDATES), 16, 5, 4, 4) and terms.flags.c_contiguous
    for c, (_, labels) in enumerate(_CANDIDATES):
        assert rows[c].tolist() == [0, *(labels + 1).tolist()]
        assert terms[c].tobytes() == _kraus_terms(labelled[c]).tobytes()
        assert inputs[c, 0].tobytes() == labelled[c, 0].tobytes()
        for k in range(16):
            # Each member is its label's projector up to signed zeros.
            member, label = inputs[c, k + 1], labelled[c, rows[c, k + 1]]
            assert (member + 0.0).tobytes() == (label + 0.0).tobytes()
    before = terms.tobytes()
    # X-optimal below its threshold, Bell-optimal above it.
    sweep = [ChannelSpec((0.5, 0.05, 0.4, 0.05), mu) for mu in np.linspace(0.0, 1.0, 101)]
    regimes = {regime for _, _, _, regime in _rows(sweep)}
    assert {Regime.PRODUCT, Regime.ENTANGLED} <= regimes
    # The block scaled a gathered copy of the terms in place, never the constant.
    assert terms.tobytes() == before


def _zero_weight_channels(rng, n: int) -> list[ChannelSpec]:
    """``n`` Dirichlet(1) channels with 1 to 3 weights set to exactly zero and
    ``mu`` of 0 or 1 in turn, and the four single-Pauli channels at both ends."""
    specs = [ChannelSpec(tuple(q), mu) for q in np.eye(4) for mu in (0.0, 1.0)]
    for k in range(n):
        q = rng.dirichlet(np.ones(4))
        q[rng.choice(4, size=1 + k % 3, replace=False)] = 0.0
        specs.append(ChannelSpec(tuple(q / q.sum()), float(k % 2)))
    return specs


def test_members_that_share_a_label_have_byte_equal_outputs():
    # The closed form gives one output per label to every member with that label,
    # which keeps the bits only while their outputs are byte-equal.  Checked on the
    # one-stage kernel test's channels and on channels with exact zero weights.
    specs = _stack_channels(
        np.random.default_rng(49), 3200,
        beside=lambda rng: rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -6),
    )
    specs += _zero_weight_channels(np.random.default_rng(50), 800)
    members, labelled = capacity._CANDIDATE_INPUTS, capacity._LABEL_INPUTS
    for start in range(0, len(specs), capacity._BLOCK):
        block = specs[start : start + capacity._BLOCK]
        weights = _joint_weights([s.q for s in block], [s.mu for s in block])
        n = len(block)
        outputs, labels = (
            _weigh_terms(weights, np.repeat(_kraus_terms(table.reshape(1, -1, 4, 4)), n, axis=0))
            .reshape(n, *table.shape)
            for table in (members, labelled)
        )
        # Each member's label output, compared bit for bit, signed zeros included.
        gathered = labels[:, np.arange(len(_CANDIDATES))[:, None], capacity._LABEL_ROWS]
        differs = (outputs.view(np.uint64) != gathered.view(np.uint64)).any(axis=(-2, -1))
        assert not differs.any(), [block[k] for k in np.nonzero(differs)[0]]


def _signed_zero_copy(spec: ChannelSpec) -> ChannelSpec:
    """``spec`` with each exactly-zero weight written as -0.0."""
    return ChannelSpec(tuple(-0.0 if w == 0.0 else w for w in spec.q), spec.mu)


@pytest.mark.parametrize("n", [1, 2, capacity._BLOCK + 1], ids=["1", "2", "block+1"])
def test_candidate_entropies_have_the_bits_of_the_offset_bincount(n):
    # The label-pair table adds each label's 4 weights in pair order from +0.0,
    # as the offset bincount did: the spectra keep its bits, signed zeros included.
    rng = np.random.default_rng(60 + n)
    zeros = _zero_weight_channels(rng, 3 * n)
    specs = mixed_channels(rng, 3 * n) + zeros + [_signed_zero_copy(s) for s in zeros]
    labels = np.array([labels for _, labels in _CANDIDATES])
    negative_zeros = 0
    for start in range(0, len(specs), n):
        block = specs[start : start + n]
        weights = _joint_weights([s.q for s in block], [s.mu for s in block])
        spectra = candidate_spectra_oracle(weights, labels).reshape(-1, 4)
        spy = mock.patch.object(capacity, "_checked_entropies", wraps=spectral._checked_entropies)
        with spy as shannon:
            entropies = capacity._candidate_entropies(weights)
        assert shannon.call_args.args[0].tobytes() == spectra.tobytes()
        if n == 1:  # one channel's (16,) weights take the same pass
            assert capacity._candidate_entropies(weights[0]).tobytes() == entropies.tobytes()
        assert entropies.tobytes() == shannon_entropy_bits(spectra).reshape(-1, 4).tobytes()
        negative_zeros += int(np.signbit(weights[weights == 0.0]).sum())
    assert negative_zeros


def test_label_pairs_are_a_read_only_table_of_four_pairs_per_label():
    table = capacity._LABEL_PAIRS
    assert table.shape == (len(_CANDIDATES), 4, 4)
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0
    for pairs, (_, labels) in zip(table, _CANDIDATES):
        # Each label owns exactly 4 Pauli pairs, listed in increasing order.
        assert pairs.tolist() == [np.flatnonzero(labels == label).tolist() for label in range(4)]


@pytest.mark.parametrize(
    "q, mu, winner",
    [
        ((0.5, 0.3, 0.2, 0.0), 0.3, 0),
        ((0.5, 0.2, 0.3, 0.0), 0.3, 1),
        ((0.5, 0.0, 0.2, 0.3), 0.3, 2),
        ((0.0, 0.5, 0.25, 0.25), 0.9, 3),
    ],
    ids=["Z", "X", "Y", "Bell"],
)
def test_negative_zero_weights_give_the_bytes_of_positive_zeros(q, mu, winner):
    spec = ChannelSpec(q, mu)
    signed = _signed_zero_copy(spec)
    assert any(math.copysign(1.0, w) < 0.0 for w in signed.q)
    result, other = two_qubit_capacity(spec), two_qubit_capacity(signed)
    assert result.state.tobytes() == _CANDIDATES[winner][0].tobytes()
    assert _bits(other) == _bits(result)
    assert other.ensemble.priors.tobytes() == result.ensemble.priors.tobytes()
    assert candidate_entropy_gap(signed).hex() == candidate_entropy_gap(spec).hex()


def test_closed_form_keeps_the_bits_of_the_one_stage_kernel():
    # Symmetric points from 1e-12 to 1e-6 off the threshold.
    specs = _stack_channels(
        np.random.default_rng(49), 3200,
        beside=lambda rng: rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-12, -6),
    )
    rows = _rows(specs)
    winners = []
    for spec, row in zip(specs, rows):
        winner, s_min, regime, margin = candidate_optimum_oracle(candidate_entropies(spec))
        assert (row[1].hex(), *row[2:]) == (s_min.hex(), winner, regime)
        assert candidate_entropy_gap(spec).hex() == margin.hex()
        assert _row_bits(row) == _bits(two_qubit_capacity(spec))
        winners.append(winner)
    assert set(winners) == set(range(len(_CANDIDATES)))
    # The Holevo pass of the one-stage kernel, one block at a time.
    for start in range(0, len(specs), capacity._BLOCK):
        block = slice(start, start + capacity._BLOCK)
        weights = _joint_weights([s.q for s in specs[block]], [s.mu for s in specs[block]])
        outputs = kraus_sum_oracle(weights, capacity._CANDIDATE_INPUTS[winners[block]])
        entropies = von_neumann_entropy_bits(outputs.reshape(-1, 4, 4)).reshape(len(weights), 17)
        held = np.add.accumulate(capacity._UNIFORM_PRIORS * entropies[:, 1:], axis=1)[:, -1]
        for chi, row in zip((entropies[:, 0] - held).tolist(), rows[block]):
            assert row[0].hex() == chi.hex()


#: Rounding bounds of the convexity test, in bits: the least second difference of
#: ``2 - s_min_bits`` and of ``chi_bits`` over a grid, and the most a point of
#: ``2 - s_min_bits`` may lie above the chord or ``C(1)`` away from 2.
CONVEX_S_TOL = 4e-15
CONVEX_CHI_TOL = 4e-12


def _convexity_sweeps(rng, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(q, mu grid)`` of ``n`` channels in turn from Dirichlet 1, 0.3, 0.15 and 5
    weights, one in five with 1 or 2 weights set to exactly zero: a uniform
    201-point grid over [0, 1] for each, and a uniform 41-point grid across
    each interior ``crossing_mu``."""
    sweeps = []
    for k in range(n):
        q = rng.dirichlet(np.full(4, (1.0, 0.3, 0.15, 5.0)[k % 4]))
        if k % 5 == 4:
            q[rng.choice(4, size=1 + k % 2, replace=False)] = 0.0
        q = q / q.sum()
        sweeps.append((q, np.linspace(0.0, 1.0, 201)))
        mu_t = crossing_mu(lambda mu, q=tuple(q): ChannelSpec(q, mu))
        step = min(1e-3, (mu_t or 0.0) / 25, (1.0 - (mu_t or 1.0)) / 25)
        if step > 1e-9:
            sweeps.append((q, mu_t + step * np.arange(-20, 21)))
    return sweeps


def test_the_closed_form_capacity_is_convex_in_mu_and_under_its_chord():
    # Each candidate spectrum is affine in mu and Shannon entropy is concave, so
    # C(mu) = 2 - S_min, 2 minus a least of concave functions, is convex; and
    # C(1) = 2, since at mu = 1 the Bell state goes to itself, so C lies under
    # the chord from C(0) to 2.  The paper's kink is a convex kink.
    sweeps = _convexity_sweeps(np.random.default_rng(71), 160)
    q = np.concatenate([np.repeat(q[None], len(mus), axis=0) for q, mus in sweeps])
    rows = iter(_closed_form_rows(q, np.concatenate([mus for _, mus in sweeps])))
    straddled = 0
    for _, mus in sweeps:
        chi, s_min = np.array([next(rows)[:2] for _ in mus]).T
        capacity_bits = 2.0 - s_min
        assert np.diff(capacity_bits, 2).min() >= -CONVEX_S_TOL
        assert np.diff(chi, 2).min() >= -CONVEX_CHI_TOL
        if mus[0] == 0.0 and mus[-1] == 1.0:
            assert abs(capacity_bits[-1] - 2.0) <= CONVEX_S_TOL
            chord = (1.0 - mus) * capacity_bits[0] + mus * 2.0
            assert (capacity_bits - chord).max() <= CONVEX_S_TOL
        else:
            straddled += 1
    assert straddled >= 20


def test_the_closed_form_digest_is_a_deterministic_fingerprint():
    digest = closed_form_digest(5, 120)
    assert len(digest) == 64 and digest == closed_form_digest(5, 120)
    assert digest != closed_form_digest(6, 120)


def _band_rows() -> list[list[float]]:
    """Synthetic candidate entropy rows around the Boundary band's edges and ties."""
    tol = capacity.BOUNDARY_TOL
    edges = [math.nextafter(tol, 0.0), tol, math.nextafter(tol, 1.0)]
    return [
        # A margin of exactly +-tol and the next float on each side.
        *([e, 1.0, 1.0, 0.0] for e in edges),
        *([0.0, 1.0, 1.0, e] for e in edges),
        # Two or three axes tied: the first of them is the best axis.
        [0.5, 0.5, 0.7, 1.0], [0.7, 0.5, 0.5, 1.0], [0.5, 0.7, 0.5, 1.0],
        [0.5, 0.5, 0.5, 1.0], [0.5, 0.5, 0.5, 0.25], [0.5 + tol, 0.5, 0.5, 0.5],
        # All four equal, as for the identity channel q = (1, 0, 0, 0).
        [0.0, 0.0, 0.0, 0.0], [1.5, 1.5, 1.5, 1.5],
        # Each winner in turn.
        [0.1, 0.3, 0.4, 0.9], [0.3, 0.1, 0.4, 0.9], [0.3, 0.4, 0.1, 0.9], [0.3, 0.4, 0.5, 0.1],
    ]


def test_the_array_winner_rule_has_the_bits_of_the_per_row_rule():
    rows = _band_rows()
    winners, s_mins, bands, margins = capacity._optimum(np.array(rows))
    assert winners.shape == s_mins.shape == bands.shape == margins.shape == (len(rows),)
    for row, *got in zip(rows, winners.tolist(), s_mins.tolist(), bands.tolist(), margins.tolist()):
        winner, s_min, regime, margin = candidate_optimum_oracle(row)
        assert (got[0], got[1].hex(), capacity._REGIMES[got[2]], got[3].hex()) == (
            winner, s_min.hex(), regime, margin.hex()
        ), row
    regimes = [capacity._REGIMES[band] for band in bands.tolist()]
    # The band holds both of its edges and nothing beyond them.
    assert regimes[:6] == [Regime.BOUNDARY, Regime.BOUNDARY, Regime.ENTANGLED] + [
        Regime.BOUNDARY, Regime.BOUNDARY, Regime.PRODUCT
    ]
    assert winners[6:].tolist() == [0, 1, 0, 0, 3, 3, 3, 3, 0, 1, 2, 3]
    assert regimes[10:14] == [Regime.ENTANGLED] + [Regime.BOUNDARY] * 3
    # One block holds every winner; each row has the bits it has alone.
    assert set(winners.tolist()) == set(range(len(_CANDIDATES)))
    for k, row in enumerate(rows):
        alone = capacity._optimum(np.array([row]))
        assert [a.tobytes() for a in alone] == [a[k : k + 1].tobytes() for a in (
            winners, s_mins, bands, margins
        )]


def test_a_closed_form_block_makes_one_eigvalsh_call():
    specs = [
        ChannelSpec((0.5, 0.4, 0.05, 0.05), 0.3),
        ChannelSpec((0.5, 0.05, 0.4, 0.05), 0.3),
        ChannelSpec((0.5, 0.05, 0.05, 0.4), 0.3),
        preset_symmetric(0.3, 0.9),
    ] * (capacity._BLOCK // 4)
    with mock.patch.object(spectral, "_eigvalsh", wraps=spectral._eigvalsh) as eigvalsh:
        rows = _rows(specs)
    # The candidate inputs were checked at import; only the outputs are diagonalized,
    # the average's and one per output label of each channel's winner.
    assert eigvalsh.call_count == 1
    assert eigvalsh.call_args.args[0].shape == (capacity._BLOCK * 5, 4, 4)
    assert {winner for _, _, winner, _ in rows} == set(range(len(_CANDIDATES)))


def test_a_closed_form_point_makes_one_eigvalsh_call():
    # A single point is a block of one: one checked Shannon pass over its
    # four candidate spectra and one eigvalsh over its winner's five outputs.
    eigvalsh = mock.patch.object(spectral, "_eigvalsh", wraps=spectral._eigvalsh)
    shannon = mock.patch.object(capacity, "_checked_entropies", wraps=spectral._checked_entropies)
    states = mock.patch.object(
        capacity, "von_neumann_entropy_bits", wraps=spectral.von_neumann_entropy_bits
    )
    with eigvalsh as eig, shannon as entropy, states as spectra:
        two_qubit_capacity(ChannelSpec((0.4, 0.3, 0.2, 0.1), 0.6))
    assert [call.args[0].shape for call in eig.call_args_list] == [(5, 4, 4)]
    assert [call.args[0].shape for call in spectra.call_args_list] == [(5, 4, 4)]
    assert [call.args[0].shape for call in entropy.call_args_list] == [(4, 4)]


def test_the_closed_form_kernel_checks_a_points_outputs_and_weights():
    # A point is a block of one, so the kernel's checks and messages reach it.
    message = "^member 0: not positive semidefinite: smallest eigenvalue nan$"
    with mock.patch.object(spectral, "_eigvalsh", lambda stack: np.full(stack.shape[:-1], NAN)):
        with pytest.raises(ValueError, match=message):
            capacity._closed_form_block(_joint_weights((0.4, 0.3, 0.2, 0.1), 0.6)[None])
        with pytest.raises(ValueError, match=message):
            two_qubit_capacity(ChannelSpec((0.4, 0.3, 0.2, 0.1), 0.6))
    with pytest.raises(ValueError, match=r"^row 0: probabilities sum to 0\.9\d*, not 1$"):
        capacity._closed_form_block(np.full((1, 16), 0.9 / 16))


def test_a_point_and_a_sweep_take_the_one_closed_form_kernel(capsys):
    kernel = mock.patch.object(capacity, "_closed_form_block", wraps=capacity._closed_form_block)
    with kernel as block:
        two_qubit_capacity(ChannelSpec((0.4, 0.3, 0.2, 0.1), 0.6))
    assert [call.args[0].shape for call in block.call_args_list] == [(1, 16)]
    argv = ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "101"]
    with kernel as block:
        assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 102
    assert [call.args[0].shape for call in block.call_args_list] == [(64, 16), (37, 16)]


#: The public API, as README lists it.
PUBLIC_NAMES = [
    "AnsatzState", "CapacityResult", "ChannelSpec", "Ensemble", "MOEMethod", "MOEResult",
    "Regime", "SearchConfig", "SymmetricParams", "apply", "capacity_symmetric",
    "covariant_ensemble", "crossing_mu", "holevo_chi", "kraus_operators",
    "minimize_output_entropy", "optimal_input", "output_eigenvalues", "output_entropy",
    "parametrize_pure_state", "pauli_matrix", "pauli_pair", "preset_depolarizing",
    "preset_symmetric", "schmidt_coefficients", "shannon_entropy_bits", "threshold",
    "two_qubit_capacity", "von_neumann_entropy_bits",
]

#: Names the package no longer exports; each lives on in its module or in ``checks``.
REMOVED_NAMES = [
    "ansatz_state_vector", "candidate_entropy_gap", "covariance_residual",
    "ensemble_average_output", "hermitian_eigenvalues", "joint_distribution",
    "pauli_expansion_coefficients",
]


def test_public_api_is_the_documented_names():
    import paulimem

    assert len(PUBLIC_NAMES) == 29
    assert sorted(paulimem.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(paulimem, name) is not None
    for name in REMOVED_NAMES:
        assert not hasattr(paulimem, name), name


def _imports(module) -> dict[str, set[str]]:
    """The names ``module``'s source imports from each sibling module; a
    ``from . import m`` takes ``"*"`` from ``m``."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    found.setdefault(alias.name, set()).add("*")
                else:
                    found.setdefault(node.module, set()).add(alias.name)
    return found


def _top_level_names(module) -> set[str]:
    """The names ``module``'s source binds at top level, imports aside."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _constructions(node, name: str) -> list[ast.Call]:
    """The calls of ``name`` anywhere under the ``ast`` node ``node``."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name
    ]


def test_two_qubit_capacity_builds_every_capacity_result():
    # Both routes share one constructor call, and with it one saturation-gap expression.
    tree = ast.parse(inspect.getsource(capacity))
    [function] = [node for node in tree.body if getattr(node, "name", None) == "two_qubit_capacity"]
    assert len(_constructions(tree, "CapacityResult")) == 1
    assert len(_constructions(function, "CapacityResult")) == 1
    assert "_closed_form" not in _top_level_names(capacity)
    # One winner rule, on arrays, serves points, sweeps and the gap: no per-row rule is left.
    assert not {"_candidate_optimum", "_best_axis"} & _top_level_names(capacity)
    # One margin: the rule and the gap both read _margins, the one running minimum.
    assert inspect.getsource(capacity).count("minimum.accumulate") == 1
    for name in ("_optimum", "candidate_entropy_gap"):
        assert "_margins(" in inspect.getsource(getattr(capacity, name))


def test_capacity_owns_the_candidates_and_the_regime_rule():
    # The oracle borrows only the regime vocabulary; the closed form takes nothing from it.
    assert "symmetric" not in _imports(capacity)
    assert _imports(symmetric)["capacity"] == {"BOUNDARY_TOL", "Regime"}
    assert _imports(capacity)["channel"] == {
        "ChannelSpec", "_joint_weights", "_kraus_terms", "_weigh_terms", "apply",
    }
    # The channel keeps the spec, the weights and the kernel, and no candidate.
    defined = _top_level_names(channel)
    assert not {name for name in defined if re.search("candidate|label|bell", name, re.I)}
    assert not {"_PAIR_I", "_PAIR_J", "_LABEL_PAIRS"} & defined
    assert "shannon_entropy_bits" not in _imports(channel)["spectral"]
    assert {
        "_CANDIDATES", "_BELL", "_LABEL_PAIRS", "candidate_entropies", "BOUNDARY_TOL", "Regime",
    } <= _top_level_names(capacity)
