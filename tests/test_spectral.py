"""State spectra and entropies, checked against a characteristic-polynomial oracle."""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paulimem
from paulimem import capacity, spectral
from paulimem.channel import ChannelSpec, apply, preset_symmetric
from paulimem.pauli import pauli_pair
from paulimem.spectral import DUST_TOL, HERMITIAN_TOL, PROB_SUM_TOL, TRACE_TOL, density_spectra
from paulimem.spectral import shannon_entropy_bits, von_neumann_entropy_bits
from util import random_density_matrix, shannon_row_oracle

# Output entropy of the Bell state through the symmetric channel with
# p = 0.3, mu = 0.5 (spectrum 0.63, 0.13, 0.12, 0.12), frozen from an
# independent high-precision evaluation.
BELL_ENTROPY_03_05 = 1.536721674438358


def charpoly_roots(m: np.ndarray) -> np.ndarray:
    """Oracle: eigenvalues via Newton's identities and quartic root-finding."""
    m2 = m @ m
    m3 = m2 @ m
    m4 = m3 @ m
    p1, p2, p3, p4 = (float(np.trace(x).real) for x in (m, m2, m3, m4))
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    return np.sort(roots.real)[::-1]


def test_eigenvalues_maximally_mixed():
    assert np.abs(density_spectra(np.eye(4) / 4) - 0.25).max() < 1e-12


def test_eigenvalues_diagonal_exact():
    d = np.array([0.63, 0.13, 0.12, 0.12])
    out = density_spectra(np.diag(d).astype(complex))
    assert np.abs(out - d).max() < 1e-12
    # descending order also for shuffled diagonals
    out = density_spectra(np.diag(d[::-1]).astype(complex))
    assert np.abs(out - d).max() < 1e-12


def test_eigenvalues_against_charpoly_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        rho = random_density_matrix(rng)
        assert np.abs(density_spectra(rho) - charpoly_roots(rho)).max() < 1e-9


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(22)
    for _ in range(50):
        rho = random_density_matrix(rng)
        assert abs(density_spectra(rho).sum() - np.trace(rho).real) < 1e-10


def test_eigenvalues_reject_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        density_spectra(rho)


def test_eigenvalues_reject_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        density_spectra(np.eye(3))


def test_shannon_pure():
    assert shannon_entropy_bits([1.0, 0.0, 0.0, 0.0]) == 0.0


def test_shannon_uniform():
    assert abs(shannon_entropy_bits([0.25] * 4) - 2.0) < 1e-15


def test_shannon_frozen_value():
    s = shannon_entropy_bits([0.63, 0.13, 0.12, 0.12])
    assert abs(s - BELL_ENTROPY_03_05) < 1e-12


def test_shannon_clamps_negative_dust():
    s = shannon_entropy_bits([1.0 + 5e-10, -5e-10, 0.0, 0.0])
    assert s == 0.0


def test_shannon_rejects_bad_input():
    with pytest.raises(ValueError):
        shannon_entropy_bits([0.7, 0.4, -0.1, 0.0])
    with pytest.raises(ValueError):
        shannon_entropy_bits([0.3, 0.3, 0.3, 0.3])


def test_shannon_vector_gives_a_float_and_a_stack_an_array():
    assert type(shannon_entropy_bits([0.5, 0.5, 0.0, 0.0])) is float
    entropies = shannon_entropy_bits([[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.25] * 4])
    assert isinstance(entropies, np.ndarray) and entropies.shape == (3,)
    assert entropies.tolist() == [1.0, 0.0, 2.0]


def test_shannon_two_dimensional_input_means_rows():
    # A 2-D input is a stack of distributions, one per row, not one flattened distribution.
    assert shannon_entropy_bits([[0.5, 0.5], [0.25, 0.75]]).tolist() == [
        shannon_row_oracle([0.5, 0.5]), shannon_row_oracle([0.25, 0.75])
    ]
    with pytest.raises(ValueError, match=r"^row 0: probabilities sum to 0\.5, not 1$"):
        shannon_entropy_bits([[0.25, 0.25], [0.25, 0.25]])


def probability_rows(rng, n: int, k: int) -> np.ndarray:
    """Rows with zeros, dust in [-DUST_TOL, 0) and 1.0 among their entries."""
    rows = rng.dirichlet(np.full(k, 0.5), size=n)
    rows[rng.uniform(size=(n, k)) < 0.3] = 0.0
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    rows[: n // 8] = np.eye(k)[rng.integers(k, size=n // 8)]
    dust = (rows == 0.0) & (rng.uniform(size=(n, k)) < 0.3)
    rows[dust] = -rng.uniform(0.0, 1e-9 / k, size=dust.sum())
    return rows


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
def test_shannon_stack_rows_have_the_bits_of_the_row_formula(k):
    rows = probability_rows(np.random.default_rng(30 + k), 400, k)
    entropies = shannon_entropy_bits(rows)
    assert entropies.shape == (len(rows),)
    assert entropies.tolist() == [shannon_row_oracle(row) for row in rows]
    assert [shannon_entropy_bits(row) for row in rows] == entropies.tolist()


ENTRY = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.just(1.0),
    st.floats(-1e-9, 0.0, exclude_max=True),
    st.floats(1e-300, 1.0),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(ENTRY, min_size=4, max_size=4), min_size=1, max_size=6))
@example([[-0.0, 1.0, -0.0, 0.0], [0.5, -0.0, 0.5, -1e-10], [-0.0, -0.0, -0.0, -0.0]])
def test_shannon_stack_property_over_zeros_dust_and_ones(raw):
    # Scale each row's positive part so the row sums to one: a row without
    # positive entries becomes a point mass next to its dust, and a point
    # mass beside dust exceeds 1.0, which the clamp takes back to 1.0.
    raw = np.array(raw)
    positive = np.where(raw > 0.0, raw, 0.0)
    dust = raw - positive
    empty = positive.sum(axis=1) == 0.0
    positive[empty, 0], dust[empty, 0] = 1.0, 0.0
    rows = dust + positive * ((1.0 - dust.sum(axis=1)) / positive.sum(axis=1))[:, None]
    # The scaling turns -0.0 into +0.0; put the drawn -0.0 entries back.
    rows[np.signbit(raw) & (raw == 0.0) & (rows == 0.0)] = -0.0
    entropies = shannon_entropy_bits(rows)
    for row, entropy in zip(rows, entropies.tolist()):
        oracle = shannon_row_oracle(row)
        assert entropy == oracle and math.copysign(1.0, entropy) == math.copysign(1.0, oracle)
        assert 0.0 <= entropy <= 2.0 + 1e-12
    # A row whose one positive entry is 1.0 or more, beside zeros or dust,
    # has entropy +0.0, never -0.0.
    point_mass = ((rows > 0.0).sum(axis=1) == 1) & (rows.max(axis=1) >= 1.0)
    for entropy in entropies[point_mass].tolist():
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


@pytest.mark.parametrize(
    "p, message",
    [
        ([math.nan, 0.5, 0.5, 0.0], "^probabilities must be finite$"),
        ([math.inf, 0.0, 0.0, 0.0], "^probabilities must be finite$"),
        ([-math.inf, 1.0, 0.0, 0.0], "^probabilities must be finite$"),
        ([[0.25] * 4, [0.5, 0.5, 0, 0], [0.5, math.nan, 0, 0.5], [math.inf] * 4],
         "^row 2: probabilities must be finite$"),
        ([[0.25] * 4, [0.6, 0.6, -0.2, 0.0]], r"^row 1: negative probability -2\.000e-01"),
        ([[0.25] * 4, [0.25] * 4, [0.3] * 4], r"^row 2: probabilities sum to 1\.2, not 1$"),
    ],
    ids=["nan", "inf", "minus-inf", "stack-nan", "stack-negative", "stack-sum"],
)
def test_shannon_names_what_is_wrong_and_the_first_bad_row(p, message):
    with pytest.raises(ValueError, match=message):
        shannon_entropy_bits(p)


@pytest.mark.parametrize("shape", [(), (0,), (0, 4), (3, 0), (2, 2, 4)])
def test_shannon_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="probability vector or"):
        shannon_entropy_bits(np.full(shape, 0.25))


def test_von_neumann_pure_projector():
    rng = np.random.default_rng(23)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert von_neumann_entropy_bits(np.outer(v, v.conj())) < 1e-12


def test_von_neumann_maximally_mixed():
    assert abs(von_neumann_entropy_bits(np.eye(4) / 4) - 2.0) < 1e-12


def test_von_neumann_bell_through_channel():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    out = apply(preset_symmetric(0.3, 0.5), np.outer(bell, bell.conj()))
    assert abs(von_neumann_entropy_bits(out) - BELL_ENTROPY_03_05) < 1e-5


def test_von_neumann_invariant_under_pauli_rotations():
    rng = np.random.default_rng(24)
    for _ in range(20):
        rho = random_density_matrix(rng)
        i, j = rng.integers(0, 4, size=2)
        u = pauli_pair(i, j)
        assert abs(
            von_neumann_entropy_bits(u @ rho @ u) - von_neumann_entropy_bits(rho)
        ) < 1e-9


def test_von_neumann_concavity_spot_check():
    rng = np.random.default_rng(25)
    for _ in range(20):
        rho1 = random_density_matrix(rng)
        rho2 = random_density_matrix(rng)
        mixed = von_neumann_entropy_bits(0.5 * rho1 + 0.5 * rho2)
        parts = 0.5 * von_neumann_entropy_bits(rho1) + 0.5 * von_neumann_entropy_bits(rho2)
        assert mixed >= parts - 1e-9


def density_stack(rng, n: int) -> np.ndarray:
    return np.stack([random_density_matrix(rng) for _ in range(n)])


def projectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, None] * v[:, None, :].conj()


def test_stack_matches_members_bit_for_bit():
    rng = np.random.default_rng(26)
    # Full-rank mixed states, and channel outputs of pure states, which
    # have zero and near-zero eigenvalues.
    stacks = [density_stack(rng, n) for n in (1, 2, 17)]
    stacks += [apply(preset_symmetric(p, mu), projectors(rng, 17))
               for p, mu in ((0.3, 0.5), (0.0, 0.7), (0.25, 0.0), (0.1, 1.0))]
    for stack in stacks:
        eigenvalues = density_spectra(stack)
        entropies = von_neumann_entropy_bits(stack)
        assert eigenvalues.shape == (len(stack), 4) and entropies.shape == (len(stack),)
        assert np.array_equal(eigenvalues, [density_spectra(m) for m in stack])
        assert np.array_equal(entropies, [von_neumann_entropy_bits(m) for m in stack])


def test_single_matrix_entropy_is_a_python_float():
    assert type(von_neumann_entropy_bits(np.eye(4) / 4)) is float
    assert type(von_neumann_entropy_bits(random_density_matrix(np.random.default_rng(27)))) is float


def with_member(stack: np.ndarray, k: int, m) -> np.ndarray:
    stack = stack.copy()
    stack[k] = m
    return stack


NOT_HERMITIAN = np.diag([0.25] * 4).astype(complex) + np.eye(4, k=1) * 1e-6


@pytest.mark.parametrize(
    "bad, message",
    [
        (NOT_HERMITIAN, "not Hermitian"),
        (np.diag([0.6, 0.3, 0.2, -0.1]), "smallest eigenvalue -1.000e-01"),
        (np.diag([0.5, 0.3, 0.2, 0.1]), r"trace is (np\.float64\()?1\.1"),
        (np.diag([0.25, 0.25, np.nan, 0.25]), "not Hermitian"),
    ],
    ids=["hermitian", "negative", "trace", "nan"],
)
def test_one_bad_member_rejects_the_stack(bad, message):
    stack = with_member(density_stack(np.random.default_rng(28), 5), 3, bad)
    with pytest.raises(ValueError, match=message):
        von_neumann_entropy_bits(stack)
    with pytest.raises(ValueError, match=message):
        density_spectra(stack)


@pytest.mark.parametrize(
    "member, message",
    [
        (np.diag([0.5, 0.3, 0.2 + 2e-10, 0.0]), "trace is"),
        (np.diag([0.5, 0.3, 0.2 + 2e-9, -2e-9]), "not positive semidefinite"),
        (np.diag([0.5, 0.3, 0.2, 0.0]) + np.eye(4, k=1) * 2e-10, "not Hermitian"),
        (np.diag([0.25, 0.25, np.nan, 0.25]), "not Hermitian"),
        (np.diag([0.5, 0.3, 0.2 + 5e-11, 0.0]), None),
        (np.diag([0.5, 0.3, 0.2 + 5e-10, -5e-10]), None),
    ],
    ids=["trace", "negative", "hermitian", "nan", "trace-within-tol", "negative-within-tol"],
)
def test_apply_and_entropy_share_one_state_check(member, message):
    stack = with_member(density_stack(np.random.default_rng(31), 5), 3, member)
    calls = (von_neumann_entropy_bits, lambda s: apply(preset_symmetric(0.3, 0.5), s))
    if message is None:
        for call in calls:
            call(stack)
        return
    errors = []
    for call in calls:
        with pytest.raises(ValueError, match=f"^member 3: .*{message}") as info:
            call(stack)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_stack_reports_its_first_bad_member():
    stack = density_stack(np.random.default_rng(29), 5)
    stack = with_member(stack, 1, np.diag([0.6, 0.3, 0.2, -0.1]))
    stack = with_member(stack, 3, np.diag([0.7, 0.3, 0.2, -0.2]))
    with pytest.raises(ValueError, match="smallest eigenvalue -1.000e-01"):
        von_neumann_entropy_bits(stack)
    stack = density_stack(np.random.default_rng(29), 5)
    stack = with_member(stack, 1, np.diag([0.5, 0.3, 0.2, 0.1]))
    stack = with_member(stack, 3, np.diag([0.5, 0.3, 0.2, 0.2]))
    with pytest.raises(ValueError, match=r"trace is (np\.float64\()?1\.1"):
        von_neumann_entropy_bits(stack)


@pytest.mark.parametrize("shape", [(3, 4), (2, 2, 4, 4), (0, 4, 4)])
@pytest.mark.parametrize("function", [density_spectra, von_neumann_entropy_bits])
def test_stack_rejects_other_shapes(function, shape):
    with pytest.raises(ValueError, match="4x4"):
        function(np.zeros(shape, dtype=complex))


def test_the_exact_adjoint_fast_path_falls_back_to_every_check():
    stack = density_stack(np.random.default_rng(32), 3)
    # Member 0 differs from its adjoint, within HERMITIAN_TOL: the defect is
    # worked out, accepted, and the spectra are eigvalsh's own.
    skewed = with_member(stack, 0, stack[0] + np.eye(4, k=1) * 0.5 * HERMITIAN_TOL)
    assert not np.array_equal(skewed[0], skewed[0].conj().T)
    expected = np.linalg.eigvalsh(skewed)[..., ::-1]
    assert density_spectra(skewed).tobytes() == expected.tobytes()
    # An infinite entry equals its adjoint's, yet inf - inf is NaN: still not Hermitian.
    infinite = with_member(stack, 1, np.diag([np.inf, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"^member 1: .*not Hermitian.*nan"):
        with np.errstate(invalid="ignore"):
            density_spectra(infinite)
    # Member 1 fails the PSD check and member 2 the trace check: PSD is checked first.
    bad = with_member(stack, 1, np.diag([0.6, 0.3, 0.2, -0.1]))
    bad = with_member(bad, 2, np.diag([0.5, 0.3, 0.2, 0.1]))
    with pytest.raises(ValueError, match=r"^member 1: not positive semidefinite: .*-1\.000e-01$"):
        density_spectra(bad)


def _calls_by_module(name: str) -> dict[str, int]:
    """How many calls each src module makes of a function named or reached as ``name``."""
    counts = {}
    for path in sorted(Path(paulimem.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    counts[path.stem] = counts.get(path.stem, 0) + 1
    return counts


def test_spectral_holds_the_one_call_of_the_eigenvalue_gufunc():
    # numpy's wrapper is called nowhere; its gufunc once, in spectral's entry point,
    # which the state check and the search objective call.
    assert _calls_by_module("eigvalsh") == {}
    assert _calls_by_module("_eigvalsh_lo") == {"spectral": 1}
    assert set(_calls_by_module("_eigvalsh")) == {"spectral", "search"}
    for path in Path(paulimem.__file__).parent.glob("*.py"):
        mentions = "_umath_linalg" in path.read_text()
        assert mentions == (path.stem == "spectral"), path.stem


def test_spectral_holds_the_one_shannon_kernel():
    # Every entropy in bits, the search objective's too, is a row of _row_entropies,
    # and the value checks of a probability vector are written once, in spectral's
    # checked core, which shannon_entropy_bits and the closed form's candidate pass call.
    assert _calls_by_module("log2") == {"spectral": 1}
    assert set(_calls_by_module("_row_entropies")) == {"spectral", "search"}
    assert _calls_by_module("_checked_entropies") == {"spectral": 1, "capacity": 1}
    assert _calls_by_module("_require") == {"spectral": 6}


def _same_bits_as_numpy(stack: np.ndarray) -> None:
    assert spectral._eigvalsh(stack).tobytes() == np.linalg.eigvalsh(stack).tobytes()


def _winner_channels(rng, n: int) -> list[ChannelSpec]:
    """``n`` channels in turn Z-, X-, Y- and Bell-optimal, with seeded weights."""
    specs = []
    for k in range(n):
        big, small, mu = rng.uniform(0.35, 0.45), rng.uniform(0.02, 0.08), rng.uniform(0.2, 0.4)
        q = [0.5, small, small, small]
        if k % 4 < 3:
            q[k % 4 + 1] = big
            specs.append(ChannelSpec(tuple(np.array(q) / sum(q)), float(mu)))
        else:  # |4p - 1| <= 0.2 < mu: the Bell state wins
            specs.append(preset_symmetric(float(rng.uniform(0.2, 0.3)), float(mu + 0.55)))
    return specs


@pytest.mark.parametrize("n", [1, capacity._BLOCK])
def test_the_entry_point_has_numpys_bits_on_every_winners_outputs(n):
    specs = _winner_channels(np.random.default_rng(40 + n), 4 * n)
    for start in range(0, 4 * n, n):
        block = specs[start : start + n]
        weights = capacity._joint_weights([s.q for s in block], [s.mu for s in block])
        with mock.patch.object(spectral, "_eigvalsh", wraps=spectral._eigvalsh) as eigvalsh:
            winners = capacity._closed_form_block(weights)[2]
        [(stack,)] = [call.args for call in eigvalsh.call_args_list]
        assert stack.shape == (5 * len(block), 4, 4)
        _same_bits_as_numpy(stack)
        if n == 1:
            assert winners.tolist() == [start]
    if n > 1:
        assert set(winners.tolist()) == {0, 1, 2, 3}


def test_the_entry_point_has_numpys_bits_on_exact_and_signed_zeros():
    # Diagonal and projector states with exact +0.0 and -0.0 entries, real and imaginary.
    s = 1 / math.sqrt(2)
    kets = np.array([[1, 0, 0, 0], [s, 0, 0, s], [0.5, 0.5j, 0.5j, -0.5], [0, 0, 0, 1]])
    projectors = kets[:, :, None] * kets[:, None, :].conj()
    diagonals = np.array([np.diag(d) for d in (
        [1.0, 0.0, 0.0, 0.0], [0.5, -0.0, 0.5, 0.0], [0.25] * 4, [-0.0, -0.0, 1.0, -0.0],
    )], dtype=complex)
    signed = projectors.copy()
    signed[signed == 0] = complex(-0.0, -0.0)
    signed.imag[signed.imag == 0] = -0.0
    for stack in (projectors, diagonals, signed, np.concatenate((projectors, signed))):
        _same_bits_as_numpy(stack)
        for member in stack:
            _same_bits_as_numpy(member)
    assert np.array_equal(density_spectra(signed), density_spectra(projectors))


def _edges(tol: float) -> list[tuple[float, float]]:
    """Above and below one: the float ``t`` furthest from one with ``|t - 1| <= tol``,
    and the next float beyond it."""
    edges = []
    for away in (math.inf, -math.inf):
        t = 1.0 + math.copysign(tol, away)
        while abs(t - 1.0) > tol:
            t = math.nextafter(t, 1.0)
        while abs(math.nextafter(t, away) - 1.0) <= tol:
            t = math.nextafter(t, away)
        edges.append((t, math.nextafter(t, away)))
    return edges


BELOW_DUST = math.nextafter(-DUST_TOL, -math.inf)


def _state_with_least(least: float) -> np.ndarray:
    return np.diag([0.5, 0.25, 0.25 - least, least]).astype(complex)


def _state_with_trace(trace: float) -> np.ndarray:
    return np.diag([trace - 0.5, 0.5, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize(
    "edge, beyond, message",
    [
        (_state_with_least(-DUST_TOL), _state_with_least(BELOW_DUST), "not positive semidefinite"),
        *[(_state_with_trace(t), _state_with_trace(b), "trace is") for t, b in _edges(TRACE_TOL)],
    ],
    ids=["least", "trace-above", "trace-below"],
)
def test_the_whole_stack_state_test_holds_its_edges(edge, beyond, message):
    stack = density_stack(np.random.default_rng(33), 4)
    stack[0] = np.eye(4) / 4
    # On the edge: accepted by the whole-stack test, without a per-member check.
    with mock.patch.object(spectral, "_require", wraps=spectral._require) as require:
        spectra = density_spectra(with_member(stack, 2, edge))
    assert require.call_count == 0
    assert spectra[2].tolist() == sorted(np.diag(edge).real.tolist(), reverse=True)
    # One float beyond it: rejected, naming that member and not the one on the edge.
    with pytest.raises(ValueError, match=f"^member 3: {message}"):
        density_spectra(with_member(with_member(stack, 2, edge), 3, beyond))
    with pytest.raises(ValueError, match=f"^{message}"):
        density_spectra(beyond)


@pytest.mark.parametrize(
    "entries, value, message",
    [
        (slice(None), math.nan, "not positive semidefinite: smallest eigenvalue nan"),
        (3, math.nan, "trace is nan, not 1"),
        (0, -math.inf, "not positive semidefinite: smallest eigenvalue -inf"),
        (3, math.inf, "trace is inf, not 1"),
    ],
    ids=["nan", "nan-largest", "minus-inf", "inf"],
)
def test_a_failed_lapack_call_fails_the_whole_stack_state_test(entries, value, message):
    # A LAPACK failure leaves a member's eigenvalues NaN; the state check rejects
    # non-finite eigenvalues with ValueError and names the member.
    stack = density_stack(np.random.default_rng(34), 4)
    spectra = np.linalg.eigvalsh(stack)
    spectra[2, entries] = value
    with mock.patch.object(spectral, "_eigvalsh", return_value=spectra):
        with pytest.raises(ValueError, match=f"^member 2: {message}$"):
            density_spectra(stack)


def _row_with_least(least: float) -> list[float]:
    return [0.5, 0.25, 0.25 - least, least]


def _row_with_sum(total: float) -> list[float]:
    return [total - 0.5, 0.5, 0.0, 0.0]


@pytest.mark.parametrize(
    "edge, beyond, message",
    [
        (_row_with_least(-DUST_TOL), _row_with_least(BELOW_DUST), "negative probability"),
        *[(_row_with_sum(t), _row_with_sum(b), "probabilities sum")
          for t, b in _edges(PROB_SUM_TOL)],
    ],
    ids=["least", "sum-above", "sum-below"],
)
def test_the_whole_stack_probability_test_holds_its_edges(edge, beyond, message):
    rows = np.array([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], edge, [0.5, 0.5, 0.0, 0.0]])
    with mock.patch.object(spectral, "_require", wraps=spectral._require) as require:
        entropies = shannon_entropy_bits(rows)
    assert require.call_count == 0
    assert entropies[2] == shannon_entropy_bits(edge)
    rows[3] = beyond
    with pytest.raises(ValueError, match=f"^row 3: {message}"):
        shannon_entropy_bits(rows)
    with pytest.raises(ValueError, match=f"^{message}"):
        shannon_entropy_bits(beyond)


@pytest.mark.parametrize("row", [1, 2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_past_the_first_row_is_named(row, value):
    rows = np.array([[0.25] * 4, [0.5, 0.5, 0, 0], [1.0, 0, 0, 0], [0, 0, 0.5, 0.5]])
    rows[row, 1] = value
    with pytest.raises(ValueError, match=f"^row {row}: probabilities must be finite$"):
        shannon_entropy_bits(rows)
