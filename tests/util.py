"""Shared random generators (all explicitly seeded), candidate inputs, the
per-row Shannon oracle, the offset-bincount candidate-spectra oracle, the
per-row candidate-optimum oracle, the one-stage Kraus-sum oracle and the
einsum superoperator oracle for the test suite."""

import numpy as np

from paulimem.capacity import BOUNDARY_TOL, Regime
from paulimem.channel import _PERM, _PHASE, ChannelSpec, kraus_operators, preset_symmetric
from paulimem.checks import random_pure_state, random_spec  # noqa: F401

_S = 1 / np.sqrt(2)

#: The candidate optimal inputs: the Z, X and Y product eigenstates and the Bell state.
CANDIDATES = {
    "Z": np.array([1, 0, 0, 0], dtype=complex),
    "X": np.full(4, 0.5, dtype=complex),
    "Y": np.kron([_S, 1j * _S], [_S, 1j * _S]),
    "Bell": np.array([_S, 0, 0, _S], dtype=complex),
}


def random_density_matrix(rng) -> np.ndarray:
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def mixed_channels(rng, n: int) -> list[ChannelSpec]:
    """``n`` channels in turn from three sources: a symmetric-family point,
    every other one exactly on the threshold ``mu = |4p - 1|``, and
    channels with Dirichlet(1) and Dirichlet(0.3) weights."""
    specs = []
    for k in range(n):
        if k % 3 == 0:
            p = float(rng.uniform(0.0, 0.5))
            mu = abs(4.0 * p - 1.0) if k % 2 == 0 else float(rng.uniform())
            specs.append(preset_symmetric(p, mu))
        else:
            q = rng.dirichlet(np.full(4, 1.0 if k % 3 == 1 else 0.3))
            specs.append(ChannelSpec(tuple(q / q.sum()), float(rng.uniform())))
    return specs


def shannon_row_oracle(p) -> float:
    """Shannon entropy in bits of one probability vector, one row at a time.

    The per-row formula the stacked kernel replaced: clamp, drop the zero
    entries and sum the nonzero terms in order.  The stacked kernel must
    give each row exactly these bits.
    """
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # +0.0 turns -0.0 into 0.0


def candidate_spectra_oracle(weights, labels) -> np.ndarray:
    """Output spectra of the candidates behind ``labels``, ``(c, 16)`` output
    labels in 0..3, through each channel of an ``(n, 16)`` weight stack:
    shape ``(n, c, 4)``.

    The offset ``bincount`` the label-pair table replaced: label ``l`` of
    candidate ``j`` of channel ``i`` is bin ``4 * (c * i + j) + l``, and one
    ``bincount`` adds each bin's weights in pair order, starting from +0.0.
    The closed form's spectra must have exactly these bits, signed zeros
    included.
    """
    weights = np.asarray(weights, dtype=float)
    labels = np.asarray(labels)
    n, c = len(weights), len(labels)
    bins = (labels + 4 * np.arange(c)[:, None]) + 4 * c * np.arange(n)[:, None, None]
    pairs = np.broadcast_to(weights[:, None, :], bins.shape)
    return np.bincount(bins.ravel(), pairs.ravel(), minlength=4 * c * n).reshape(n, c, 4)


def candidate_optimum_oracle(entropies) -> tuple[int, float, Regime, float]:
    """Winner, ``s_min``, regime and margin of one channel, given its four
    candidate entropies (Z, X, Y axes, then the Bell state), one row at a time.

    The per-row rule the array rule replaced: the first axis with the least
    entropy and its margin over the Bell state.  The axis wins below
    -BOUNDARY_TOL, the Bell state above BOUNDARY_TOL and on a tie within it.
    The closed form must give each channel exactly these bits.
    """
    entropies = [float(e) for e in entropies]
    axis = min(range(3), key=entropies.__getitem__)
    margin = entropies[axis] - entropies[3]
    if abs(margin) <= BOUNDARY_TOL:
        winner, regime = 3, Regime.BOUNDARY
    elif margin > 0.0:
        winner, regime = 3, Regime.ENTANGLED
    else:
        winner, regime = axis, Regime.PRODUCT
    return winner, min(entropies), regime, margin


def kraus_sum_oracle(weights, rho) -> np.ndarray:
    """Outputs of the ``m`` inputs ``rho[c]`` through channel ``c`` in one stage,
    for an ``(n, 16)`` weight stack and an ``(n, m, 4, 4)`` input stack.

    The one-stage formula the two-stage kernel replaced: gather each term,
    scale it by ``sqrt(p_k) ph_k(a)`` and then by ``sqrt(p_k) conj(ph_k(d))``
    and sum over ``k = 0..15`` in order.  The two-stage kernel must give
    every entry exactly these bits, signed zeros included.
    """
    weighted = np.sqrt(weights)[:, :, None] * _PHASE
    terms = np.asarray(rho, dtype=complex)[..., _PERM[:, :, None], _PERM[:, None, :]]
    terms *= weighted[:, None, :, :, None]
    terms *= weighted.conj()[:, None, :, None, :]
    return terms.sum(axis=-3)


def superoperator_oracle(spec: ChannelSpec) -> np.ndarray:
    """The channel as a 16x16 matrix on flattened inputs, from its Kraus operators,
    ``sup[(b, c), (a, d)] = sum_k K_k[a, b] conj(K_k[d, c])``.

    The einsum the search used before it took its matrix from the channel
    kernel.  The search's matrix must have exactly these bits.
    """
    stack = kraus_operators(spec)
    return np.einsum("kab,kdc->bcad", stack, stack.conj()).reshape(16, 16)
