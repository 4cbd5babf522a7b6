"""Memory-channel construction, application, and covariance structure."""

import re

import numpy as np
import pytest

from paulimem.capacity import _CANDIDATES, candidate_entropies
from paulimem.channel import (
    ChannelSpec,
    _depolarizing_q,
    _joint_weights,
    _kraus_terms,
    _symmetric_q,
    _weigh_terms,
    apply,
    kraus_operators,
    preset_depolarizing,
    preset_symmetric,
)
from paulimem.checks import covariance_residual, ensemble_average_output
from paulimem.pauli import pauli_matrix, pauli_pair
from paulimem.spectral import (
    WEIGHT_SUM_TOL,
    density_spectra,
    require_depolarizing_weight,
    require_memory_factor,
    require_symmetric_weight,
)
from util import (
    kraus_sum_oracle,
    mixed_channels,
    random_density_matrix,
    random_spec,
    shannon_row_oracle,
)

PROJ_00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
BELL = np.zeros(4, dtype=complex)
BELL[0] = BELL[3] = 1 / np.sqrt(2)
PROJ_BELL = np.outer(BELL, BELL.conj())


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec((0.5, 0.5, 0.1, -0.1), 0.3)
    with pytest.raises(ValueError):
        ChannelSpec((0.4, 0.4, 0.1, 0.2), 0.3)
    with pytest.raises(ValueError):
        ChannelSpec((0.25, 0.25, 0.25, 0.25), 1.5)
    with pytest.raises(ValueError):
        ChannelSpec((0.25, 0.25, 0.25, 0.25), -0.1)


def test_joint_degenerate_weights():
    p = _joint_weights([(1.0, 0.0, 0.0, 0.0)], [0.7]).reshape(4, 4)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(p - expected).max() < 1e-15


def test_joint_direct_substitution():
    p = _joint_weights([(0.5, 0.5, 0.0, 0.0)], [0.5]).reshape(4, 4)
    assert abs(p[0, 0] - 0.375) < 1e-15
    assert abs(p[1, 1] - 0.375) < 1e-15
    assert abs(p[0, 1] - 0.125) < 1e-15
    assert abs(p[1, 0] - 0.125) < 1e-15
    assert np.abs(p[2:]).max() == 0.0


def test_joint_perfect_memory_is_diagonal():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spec = ChannelSpec(random_spec(rng).q, 1.0)
        p = _joint_weights([spec.q], [spec.mu]).reshape(4, 4)
        assert np.abs(p - np.diag(spec.q)).max() < 1e-15


def test_joint_marginals():
    rng = np.random.default_rng(32)
    for _ in range(50):
        spec = random_spec(rng)
        p = _joint_weights([spec.q], [spec.mu]).reshape(4, 4)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.abs(p.sum(axis=1) - np.asarray(spec.q)).max() < 1e-12
        assert np.abs(p.sum(axis=0) - np.asarray(spec.q)).max() < 1e-12


def test_apply_unital():
    rng = np.random.default_rng(33)
    for _ in range(10):
        spec = random_spec(rng)
        out = apply(spec, np.eye(4) / 4)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_apply_identity_channel():
    rng = np.random.default_rng(34)
    spec = ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.6)
    rho = random_density_matrix(rng)
    assert np.abs(apply(spec, rho) - rho).max() < 1e-12


def test_apply_product_input_spectrum():
    # |00> through the symmetric p=0.3, mu=0.5 channel: diagonal output
    # with spectrum 0.48, 0.28, 0.12, 0.12 (dense diagonalization oracle;
    # matches the closed form at theta=0).
    out = apply(preset_symmetric(0.3, 0.5), PROJ_00)
    assert np.abs(out - np.diag(np.diag(out))).max() < 1e-15
    spectrum = density_spectra(out)
    assert np.abs(spectrum - np.array([0.48, 0.28, 0.12, 0.12])).max() < 1e-12


def test_apply_bell_input_spectrum():
    out = apply(preset_symmetric(0.3, 0.5), PROJ_BELL)
    spectrum = density_spectra(out)
    assert np.abs(spectrum - np.array([0.63, 0.13, 0.12, 0.12])).max() < 1e-12


def test_apply_preserves_density_invariants():
    rng = np.random.default_rng(35)
    for _ in range(30):
        spec = random_spec(rng)
        rho = random_density_matrix(rng)
        out = apply(spec, rho)
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert density_spectra(out).min() > -1e-9


def test_apply_linear():
    rng = np.random.default_rng(36)
    spec = random_spec(rng)
    rho1 = random_density_matrix(rng)
    rho2 = random_density_matrix(rng)
    mix = 0.3 * rho1 + 0.7 * rho2
    out = apply(spec, mix)
    parts = 0.3 * apply(spec, rho1) + 0.7 * apply(spec, rho2)
    assert np.abs(out - parts).max() < 1e-12


def test_apply_rejects_invalid_state():
    spec = preset_symmetric(0.3, 0.5)
    with pytest.raises(ValueError):
        apply(spec, np.eye(4))  # trace 4
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        apply(spec, bad)  # not Hermitian
    for shape in [(3, 4), (2, 2, 4, 4), (0, 4, 4)]:
        with pytest.raises(ValueError, match="expected a 4x4 density matrix"):
            apply(spec, np.zeros(shape))
    # The covariance helpers take one matrix, not a stack.
    stack = np.stack([np.eye(4) / 4] * 16)
    with pytest.raises(ValueError):
        covariance_residual(spec, stack, 1, 2)
    with pytest.raises(ValueError):
        ensemble_average_output(spec, stack)


def test_apply_stack_is_its_members():
    rng = np.random.default_rng(45)
    for _ in range(10):
        spec = random_spec(rng)
        stack = np.stack([random_density_matrix(rng) for _ in range(17)])
        out = apply(spec, stack)
        assert out.shape == (17, 4, 4)
        for rho, member in zip(stack, out):
            # A member has the same bits alone as in the stack.
            assert np.array_equal(member, apply(spec, rho))
            dense = sum(k @ rho @ k.conj().T for k in kraus_operators(spec))
            assert np.abs(member - dense).max() < 1e-12


def test_two_stage_kernel_has_the_bits_of_the_one_stage_sum():
    # Each caller's stack, in turn: a block's inputs, the one input of `apply`
    # and the 16 matrix units that `search._superoperator` weighs.
    rng = np.random.default_rng(47)
    units = np.eye(16, dtype=complex).reshape(1, 16, 4, 4)
    for draw in range(3000):
        n, m = int(rng.integers(1, 5)), (int(rng.integers(1, 6)), 1, 16)[draw % 3]
        stack = rng.normal(size=(n, m, 4, 4)) + 1j * rng.normal(size=(n, m, 4, 4))
        if draw % 3 == 2:
            stack = np.repeat(units, n, axis=0)
            # On every other draw, signed zeros among the units' zero entries and zero weights.
            stack.imag[(rng.random(stack.shape) < 0.5) & (draw % 2 == 1)] = -0.0
            weights = rng.dirichlet(np.full(16, (1.0, 0.3)[draw % 2]), size=n)
            weights[(rng.random(weights.shape) < 0.5) & (draw % 2 == 1)] = 0.0
        elif draw % 2:
            # Exact zeros of both signs, in the inputs and the weights.
            stack[rng.random(stack.shape) < 0.5] = 0.0
            stack.real[rng.random(stack.shape) < 0.25] = -0.0
            stack.imag[rng.random(stack.shape) < 0.25] = -0.0
            weights = rng.dirichlet(np.full(16, 0.3), size=n)
            weights[rng.random(weights.shape) < 0.5] = 0.0
        else:
            weights = rng.dirichlet(np.ones(16), size=n)
        expected = kraus_sum_oracle(weights, stack)
        terms = _kraus_terms(stack)
        assert terms.shape == (n, 16, m, 4, 4) and terms.flags.c_contiguous  # pair-major
        assert _weigh_terms(weights, terms).tobytes() == expected.tobytes()


def _sparse_density_matrix(rng) -> np.ndarray:
    """A pure state with some amplitudes exactly zero, as a density matrix."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v[rng.permutation(4)[: int(rng.integers(0, 4))]] = 0.0
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_apply_has_the_bits_of_the_one_stage_sum():
    rng = np.random.default_rng(48)
    for draw in range(3000):
        m = int(rng.integers(1, 6))
        if draw % 2:
            q = rng.dirichlet(np.full(4, 0.3))
            q[rng.random(4) < 0.4] = 0.0
            q = q / q.sum() if q.sum() > 0.0 else np.array([1.0, 0.0, 0.0, 0.0])
            spec = ChannelSpec(tuple(q), float(rng.choice([0.0, 1.0, rng.uniform()])))
            stack = np.stack([_sparse_density_matrix(rng) for _ in range(m)])
        else:
            spec = random_spec(rng)
            stack = np.stack([random_density_matrix(rng) for _ in range(m)])
        expected = kraus_sum_oracle(_joint_weights([spec.q], [spec.mu]), stack[None])[0]
        assert apply(spec, stack).tobytes() == expected.tobytes()
        assert apply(spec, stack[0]).tobytes() == expected[0].tobytes()


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 0): 2.0}, "trace is"),
        ({(0, 1): 0.5}, "not Hermitian"),
        ({(0, 0): 1.25, (1, 1): -0.25}, "not positive semidefinite"),
        ({(2, 2): np.nan}, "not Hermitian"),
    ],
    ids=["trace", "hermitian", "negative", "nan"],
)
def test_apply_rejects_a_stack_with_one_bad_member(entries, message):
    rng = np.random.default_rng(46)
    stack = np.stack([random_density_matrix(rng) for _ in range(5)])
    stack[3] = PROJ_00
    for index, value in entries.items():
        stack[3][index] = value
    with pytest.raises(ValueError, match=message):
        apply(preset_symmetric(0.3, 0.5), stack)


def test_kraus_identity_channel():
    ops = kraus_operators(ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.9))
    nonzero = [k for k in ops if np.abs(k).max() > 0]
    assert len(nonzero) == 1
    assert np.abs(nonzero[0] - np.eye(4)).max() < 1e-15


def test_kraus_perfect_memory_two_terms():
    ops = kraus_operators(ChannelSpec((0.5, 0.5, 0.0, 0.0), 1.0))
    nonzero = [(k_idx, k) for k_idx, k in enumerate(ops) if np.abs(k).max() > 0]
    assert [idx for idx, _ in nonzero] == [0, 5]  # flat indices of (0,0), (1,1)
    root = np.sqrt(0.5)
    assert np.abs(nonzero[0][1] - root * np.eye(4)).max() < 1e-15
    assert np.abs(nonzero[1][1] - root * pauli_pair(1, 1)).max() < 1e-15


def test_kraus_completeness_and_consistency():
    rng = np.random.default_rng(37)
    for _ in range(100):
        spec = random_spec(rng)
        ops = kraus_operators(spec)
        total = sum(k.conj().T @ k for k in ops)
        assert np.abs(total - np.eye(4)).max() < 1e-12
    spec = random_spec(rng)
    rho = random_density_matrix(rng)
    direct = sum(k @ rho @ k.conj().T for k in kraus_operators(spec))
    assert np.abs(direct - apply(spec, rho)).max() < 1e-12


def test_covariance_identity_rotation():
    rng = np.random.default_rng(38)
    assert covariance_residual(random_spec(rng), random_density_matrix(rng), 0, 0) == 0.0


def test_covariance_all_rotations():
    rng = np.random.default_rng(39)
    specs = [
        preset_symmetric(0.3, 0.5),
        preset_depolarizing(0.7, 0.2),
        random_spec(rng),
        random_spec(rng),
    ]
    for spec in specs:
        rho = random_density_matrix(rng)
        for i in range(4):
            for j in range(4):
                assert covariance_residual(spec, rho, i, j) <= 1e-10


def test_average_output_maximally_mixed():
    rng = np.random.default_rng(40)
    eye = np.eye(4) / 4
    assert np.abs(
        ensemble_average_output(ChannelSpec((1.0, 0.0, 0.0, 0.0), 0.4), PROJ_00) - eye
    ).max() < 1e-12
    assert np.abs(
        ensemble_average_output(random_spec(rng), np.eye(4) / 4) - eye
    ).max() < 1e-12
    assert np.abs(
        ensemble_average_output(preset_symmetric(0.45, 0.2), PROJ_BELL) - eye
    ).max() < 1e-12
    for _ in range(10):
        out = ensemble_average_output(random_spec(rng), random_density_matrix(rng))
        assert np.abs(out - eye).max() < 1e-12


def _symmetrize(rho):
    """Average ``rho`` with its image under ``s_1 (x) s_1``."""
    s11 = pauli_pair(1, 1)
    return 0.5 * (rho + s11 @ rho @ s11)


def test_symmetrize_absorbed_by_matching_channels():
    # Channels with q0=q1 and q2=q3 cannot tell a symmetrized input apart.
    rng = np.random.default_rng(43)
    for p, mu in [(0.3, 0.5), (0.45, 0.2), (0.1, 0.9)]:
        spec = preset_symmetric(p, mu)
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert np.abs(apply(spec, _symmetrize(rho)) - apply(spec, rho)).max() < 1e-12


def test_symmetrize_not_absorbed_for_generic_weights():
    # The absorption identity is specific to q0=q1, q2=q3.
    spec = ChannelSpec((0.7, 0.1, 0.1, 0.1), 0.3)
    plus = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    assert np.abs(apply(spec, _symmetrize(rho)) - apply(spec, rho)).max() > 1e-3


def test_memoryless_channel_factorizes():
    # mu=0 acts as two independent single-use channels on product inputs.
    def single_use(q, rho1):
        out = np.zeros((2, 2), dtype=complex)
        for i in range(4):
            s = pauli_matrix(i)
            out += q[i] * s @ rho1 @ s
        return out

    rng = np.random.default_rng(44)
    for _ in range(20):
        spec = ChannelSpec(random_spec(rng).q, 0.0)
        g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = g1 @ g1.conj().T
        rho_a /= rho_a.trace().real
        rho_b = g2 @ g2.conj().T
        rho_b /= rho_b.trace().real
        lhs = apply(spec, np.kron(rho_a, rho_b))
        rhs = np.kron(single_use(spec.q, rho_a), single_use(spec.q, rho_b))
        assert np.abs(lhs - rhs).max() < 1e-12


def _builds(build, *args):
    try:
        build(*args)
    except ValueError:
        return False
    return True


EDGES = [0.0, -0.0, 0.3, 0.5, 1.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf]
EDGES += [float(np.nextafter(x, d)) for x in (0.0, 0.5, 1.0) for d in (-1.0, 2.0)]


#: Each family builder -> the rule a sweep-p checks each of its --param values with.
RULES = {preset_symmetric: require_symmetric_weight, preset_depolarizing: require_depolarizing_weight}


@pytest.mark.parametrize(
    ("build", "weights"),
    [(preset_symmetric, _symmetric_q), (preset_depolarizing, _depolarizing_q)],
)
def test_accepted_grid_rows_are_the_points_a_family_builds(build, weights):
    # A sweep builds its first point and then checks only its varying axis with
    # that axis's rule, so a weight and memory factor pass the two rules exactly
    # when the family builds the point, and every such point gives a channel that
    # ChannelSpec accepts, from one float or from a grid.
    params = [p for p in EDGES if _builds(RULES[build], p)]
    mus = [mu for mu in EDGES if _builds(require_memory_factor, mu)]
    assert 0 < len(params) < len(EDGES) and 0 < len(mus) < len(EDGES)
    for p in EDGES:
        for mu in EDGES:
            assert _builds(build, p, mu) == (p in params and mu in mus), (p, mu)
    grid = np.stack(weights(np.array(params)), axis=-1).tolist()
    for p, row in zip(params, grid):
        for mu in mus:
            ChannelSpec(weights(p), mu)
            ChannelSpec(tuple(row), mu)


def test_channelspec_accepts_an_in_order_sum_within_weight_sum_tol():
    rng = np.random.default_rng(53)
    offsets = rng.choice([-2e-12, -1e-12, 0.0, 1e-12, 2e-12], 300)
    q = rng.dirichlet(np.ones(4), 300)
    q[:, 0] += offsets
    accepted = 0
    for row, offset in zip(q.tolist(), offsets.tolist()):
        total = ((row[0] + row[1]) + row[2]) + row[3]
        if abs(total - 1.0) <= WEIGHT_SUM_TOL:
            assert abs(offset) < 2e-12
            assert ChannelSpec(tuple(row), 0.4).q == tuple(row)
            accepted += 1
        else:
            assert offset != 0.0
            message = f"q must sum to 1, got sum {total!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ChannelSpec(tuple(row), 0.4)
    assert 0 < accepted < len(q)
    bad = [(-1e-300, "q must be nonnegative, got min -1e-300")]
    bad += [(w, f"q must be finite, got {w!r}") for w in (np.nan, np.inf, -np.inf)]
    for weight, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChannelSpec((0.5, weight, 0.25, 0.25), 0.4)
    for mu in (0.0, 1.0):
        assert ChannelSpec((0.5, 0.0, 0.25, 0.25), mu).mu == mu
    for mu in (-1e-300, 1.0 + 2e-16, np.nan):
        with pytest.raises(ValueError, match=f"^{re.escape(f'mu must lie in [0, 1], got {mu}')}$"):
            ChannelSpec((0.5, 0.0, 0.25, 0.25), mu)


def test_preset_symmetric_values():
    assert preset_symmetric(0.5, 0.3).q == (0.5, 0.5, 0.0, 0.0)
    assert preset_symmetric(0.25, 0.3).q == (0.25, 0.25, 0.25, 0.25)
    q = preset_symmetric(0.3, 0.1).q
    assert abs(q[2] - 0.2) < 1e-15 and abs(q[3] - 0.2) < 1e-15
    with pytest.raises(ValueError):
        preset_symmetric(0.6, 0.3)
    with pytest.raises(ValueError):
        preset_symmetric(-0.01, 0.3)


def test_preset_depolarizing_values():
    assert preset_depolarizing(1.0, 0.7).q == (1.0, 0.0, 0.0, 0.0)
    q = preset_depolarizing(0.7, 0.2).q
    assert abs(q[0] - 0.7) < 1e-15
    assert np.abs(np.array(q[1:]) - 0.1).max() < 1e-15
    with pytest.raises(ValueError):
        preset_depolarizing(1.2, 0.3)


def test_candidate_entropies_have_the_bits_of_one_candidate_at_a_time():
    # One label-table sum and one Shannon pass give each candidate the bits
    # of its own bincount and the per-row formula.
    for spec in mixed_channels(np.random.default_rng(47), 300):
        weights = _joint_weights([spec.q], [spec.mu])[0]
        alone = [
            shannon_row_oracle(np.bincount(labels, weights, minlength=4))
            for _, labels in _CANDIDATES
        ]
        entropies = candidate_entropies(spec)
        assert entropies == alone and all(type(e) is float for e in entropies)
