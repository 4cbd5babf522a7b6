"""Closed forms for the q0=q1, q2=q3 family against the channel oracle."""

import math

import numpy as np
import pytest

from paulimem.channel import ChannelSpec, apply, preset_symmetric
from paulimem.pauli import pauli_pair
from paulimem.spectral import density_spectra, shannon_entropy_bits
from paulimem.symmetric import (
    AnsatzState,
    Regime,
    SymmetricParams,
    ansatz_output_entropy,
    ansatz_state_vector,
    capacity_symmetric,
    optimal_input,
    output_eigenvalues,
    pauli_expansion_coefficients,
    threshold,
)

# Frozen from an independent high-precision evaluation of the output
# spectra (0.63, 0.13, 0.12, 0.12) and (0.828, 0.072, 0.072, 0.028).
S_MIN_030_050 = 1.536721674438358
S_MIN_045_020 = 0.916501945827340


def expansion_to_matrix(coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            if coeffs[i, j] != 0.0:
                out += coeffs[i, j] * pauli_pair(i, j)
    return out


def test_params_derived_constants():
    params = SymmetricParams(0.3, 0.5)
    assert abs(params.eta - 0.2) < 1e-15
    assert abs(params.big_c - 0.52) < 1e-15
    with pytest.raises(ValueError):
        SymmetricParams(0.6, 0.5)
    with pytest.raises(ValueError):
        SymmetricParams(0.3, 1.1)


@pytest.mark.parametrize(
    "call",
    [preset_symmetric, capacity_symmetric, SymmetricParams],
    ids=["preset", "capacity", "params"],
)
def test_symmetric_weight_and_mu_have_one_check_and_one_message(call):
    bad_p = r"^symmetric-family weight p must lie in \[0, 1/2\], got 0\.6$"
    bad_mu = r"^mu must lie in \[0, 1\], got 1\.5$"
    with pytest.raises(ValueError, match=bad_p):
        call(0.6, 0.5)
    with pytest.raises(ValueError, match=bad_mu):
        call(0.3, 1.5)
    with pytest.raises(ValueError, match=bad_mu):
        ChannelSpec((0.25, 0.25, 0.25, 0.25), 1.5)


def test_ansatz_state_validation():
    with pytest.raises(ValueError):
        AnsatzState(-0.1, 0.0)
    with pytest.raises(ValueError):
        AnsatzState(0.3, 7.0)


def test_expansion_product_input():
    # theta=0 leaves only the four diagonal-Pauli terms (1, eta, eta, C)/4.
    params = SymmetricParams(0.3, 0.5)
    c = pauli_expansion_coefficients(params, AnsatzState(0.0, 0.0))
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.25
    expected[0, 1] = expected[1, 0] = 0.25 * 0.2
    expected[1, 1] = 0.25 * 0.52
    assert np.abs(c - expected).max() < 1e-15


def test_expansion_bell_input():
    params = SymmetricParams(0.3, 0.5)
    c = pauli_expansion_coefficients(params, AnsatzState(math.pi / 4, 0.0))
    assert abs(c[0, 0] - 0.25) < 1e-15
    assert abs(c[0, 1]) < 1e-15 and abs(c[1, 0]) < 1e-15
    assert abs(c[1, 1] - 0.25 * 0.52) < 1e-15
    assert abs(c[2, 2] - 0.25 * 0.5) < 1e-15
    assert abs(c[3, 3] + 0.25 * 0.5) < 1e-15
    assert abs(c[2, 3]) < 1e-15 and abs(c[3, 2]) < 1e-15


def test_expansion_reconstructs_channel_output():
    rng = np.random.default_rng(51)
    for _ in range(100):
        p = rng.uniform(0.0, 0.5)
        mu = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        params = SymmetricParams(p, mu)
        state = AnsatzState(theta, phi)
        v = ansatz_state_vector(state)
        direct = apply(preset_symmetric(p, mu), np.outer(v, v.conj()))
        rebuilt = expansion_to_matrix(pauli_expansion_coefficients(params, state))
        assert np.abs(direct - rebuilt).max() < 1e-12


def test_output_eigenvalues_examples():
    bell = AnsatzState(math.pi / 4, 0.0)
    product = AnsatzState(0.0, 0.0)
    out = output_eigenvalues(SymmetricParams(0.3, 0.5), bell)
    assert np.abs(out - np.array([0.63, 0.13, 0.12, 0.12])).max() < 1e-15
    out = output_eigenvalues(SymmetricParams(0.45, 0.2), product)
    assert np.abs(out - np.array([0.828, 0.072, 0.072, 0.028])).max() < 1e-15
    out = output_eigenvalues(SymmetricParams(0.25, 1.0), bell)
    assert np.abs(out - np.array([1.0, 0.0, 0.0, 0.0])).max() < 1e-15


def test_output_eigenvalues_match_dense_diagonalization():
    grid_p = np.linspace(0.0, 0.5, 6)
    grid_mu = np.linspace(0.0, 1.0, 6)
    grid_theta = np.linspace(0.0, math.pi / 2, 5)
    grid_phi = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)
    for p in grid_p:
        for mu in grid_mu:
            params = SymmetricParams(p, mu)
            spec = preset_symmetric(p, mu)
            for theta in grid_theta:
                for phi in grid_phi:
                    state = AnsatzState(theta, phi)
                    v = ansatz_state_vector(state)
                    dense = density_spectra(apply(spec, np.outer(v, v.conj())))
                    assert np.abs(dense - output_eigenvalues(params, state)).max() < 1e-9


def test_optimal_input_entangled_regime():
    report = optimal_input(SymmetricParams(0.3, 0.5))
    assert report.regime is Regime.ENTANGLED
    assert report.state.theta == math.pi / 4 and report.state.phi == 0.0
    assert abs(report.s_min_bits - S_MIN_030_050) < 1e-12
    assert abs(report.capacity_bits - (2.0 - S_MIN_030_050)) < 1e-12


def test_optimal_input_product_regime():
    report = optimal_input(SymmetricParams(0.45, 0.2))
    assert report.regime is Regime.PRODUCT
    assert report.state.theta == 0.0
    assert abs(report.s_min_bits - S_MIN_045_020) < 1e-12
    assert abs(report.capacity_bits - (2.0 - S_MIN_045_020)) < 1e-12


def test_optimal_input_perfect_memory():
    report = optimal_input(SymmetricParams(0.25, 1.0))
    assert report.regime is Regime.ENTANGLED
    assert report.s_min_bits == 0.0
    assert report.capacity_bits == 2.0


def test_optimal_input_boundary_degeneracy():
    params = SymmetricParams(0.35, 0.4)  # mu equals |4p-1| exactly
    report = optimal_input(params)
    assert report.regime is Regime.BOUNDARY
    both = [ansatz_output_entropy(params, 0.0), ansatz_output_entropy(params, math.pi / 4)]
    assert abs(both[0] - both[1]) < 1e-12
    assert abs(report.s_min_bits - both[1]) < 1e-15


def test_capacity_consistent_with_report():
    rng = np.random.default_rng(52)
    for _ in range(50):
        p = rng.uniform(0.0, 0.5)
        mu = rng.uniform(0.0, 1.0)
        report = optimal_input(SymmetricParams(p, mu))
        assert abs(report.capacity_bits - (2.0 - report.s_min_bits)) < 1e-12
        assert 0.0 <= report.capacity_bits <= 2.0
        assert capacity_symmetric(p, mu) == report.capacity_bits


def test_threshold_values():
    assert abs(threshold(0.35) - 0.4) < 1e-15
    assert threshold(0.25) == 0.0
    assert abs(threshold(0.15) - 0.4) < 1e-15
    with pytest.raises(ValueError):
        threshold(0.51)
    with pytest.raises(ValueError):
        threshold(-0.01)


def test_threshold_separates_regimes_below_quarter():
    # For p < 1/4 the magnitude |4p-1| is the real switch point: the
    # product state wins below it, the Bell state above it.
    params_lo = SymmetricParams(0.15, 0.3)  # mu < 0.4
    params_hi = SymmetricParams(0.15, 0.5)  # mu > 0.4
    assert ansatz_output_entropy(params_lo, 0.0) < ansatz_output_entropy(
        params_lo, math.pi / 4
    )
    assert ansatz_output_entropy(params_hi, math.pi / 4) < ansatz_output_entropy(
        params_hi, 0.0
    )


def test_capacity_examples():
    assert capacity_symmetric(0.25, 1.0) == 2.0
    assert abs(capacity_symmetric(0.3, 0.5) - (2.0 - S_MIN_030_050)) < 1e-12
    assert abs(capacity_symmetric(0.5, 0.0) - 2.0) < 1e-12


def test_capacity_perfect_memory_for_all_p():
    for p in np.linspace(0.0, 0.5, 11):
        assert abs(capacity_symmetric(p, 1.0) - 2.0) < 1e-12


def test_capacity_continuous_at_threshold():
    p = 0.35
    mu_t = threshold(p)
    eps = 1e-9
    assert abs(capacity_symmetric(p, mu_t - eps) - capacity_symmetric(p, mu_t + eps)) < 1e-7


def test_capacity_kink_at_threshold():
    # One-sided difference quotients differ by far more than their own
    # discretization error.
    p = 0.35
    mu_t = threshold(p)

    def slope(at, h):
        return (capacity_symmetric(p, at + h / 2) - capacity_symmetric(p, at - h / 2)) / h

    left_h = slope(mu_t - 1e-4, 1e-5)
    left_h2 = slope(mu_t - 1e-4, 5e-6)
    right_h = slope(mu_t + 1e-4, 1e-5)
    right_h2 = slope(mu_t + 1e-4, 5e-6)
    disc_err = max(abs(left_h - left_h2), abs(right_h - right_h2), 1e-12)
    assert abs(right_h - left_h) > 10.0 * disc_err


def test_phi_zero_is_optimal():
    rng = np.random.default_rng(53)
    phis = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
    for _ in range(40):
        params = SymmetricParams(rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, math.pi / 2)
        base = ansatz_output_entropy(params, theta, 0.0)
        for phi in phis:
            assert base <= ansatz_output_entropy(params, theta, phi) + 1e-12


def test_entropy_decreases_with_spread():
    # With the (1-C)/4 pair fixed, wider splitting of the other two
    # eigenvalues strictly lowers the entropy, so argmin = argmax Delta.
    params = SymmetricParams(0.3, 0.5)
    thetas = np.linspace(0.0, math.pi / 4, 30)
    spreads = []
    entropies = []
    for theta in thetas:
        lam = output_eigenvalues(params, AnsatzState(theta, 0.0))
        spreads.append(lam[0] - lam[-1])
        entropies.append(shannon_entropy_bits(lam))
    order = np.argsort(spreads)
    sorted_entropy = np.asarray(entropies)[order]
    assert np.all(np.diff(sorted_entropy) < 1e-12)


def test_branch_equivalence_under_first_qubit_flip():
    # The |01>/|10> branch is the image of the |00>/|11> branch under
    # sigma_2 (x) sigma_0 (up to phase), so both give identical output
    # entropies by covariance.
    from paulimem.search import output_entropy

    rng = np.random.default_rng(54)
    flip = pauli_pair(2, 0)
    for _ in range(40):
        p = rng.uniform(0.0, 0.5)
        mu = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        spec = preset_symmetric(p, mu)
        v_other = np.array(
            [0.0, math.cos(theta), np.exp(1j * phi) * math.sin(theta), 0.0]
        )
        mapped = flip @ ansatz_state_vector(
            AnsatzState(math.pi / 2 - theta, (2.0 * math.pi - phi) % (2.0 * math.pi))
        )
        assert abs(abs(np.vdot(mapped, v_other)) - 1.0) < 1e-12
        assert abs(
            output_entropy(spec, v_other)
            - output_entropy(spec, ansatz_state_vector(AnsatzState(theta, phi)))
        ) < 1e-10
