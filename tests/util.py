"""Shared random generators (all explicitly seeded), candidate inputs, the
per-row Shannon oracle, the offset-bincount candidate-spectra oracle, the
per-row candidate-optimum oracle, the one-stage Kraus-sum oracle, the
einsum superoperator oracle and the closed-form bit digest for the test suite.

``PYTHONPATH=src python tests/util.py [seed] [count]`` prints the digest
(seed 0 and 10 000 channels by default).
"""

import hashlib
import sys

import numpy as np

from paulimem.capacity import (
    BOUNDARY_TOL,
    Regime,
    _closed_form_rows,
    candidate_entropy_gap,
    crossing_mu,
    two_qubit_capacity,
)
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


def digest_channels(rng, count: int) -> list[ChannelSpec]:
    """``count`` channels in turn from eight sources: Dirichlet 1, 0.3, 0.15 and 5
    weights with ``mu`` uniform, 0 or 1; Dirichlet(1) weights with 1 to 3 set to
    exactly zero, then the same channel with those zeros written as -0.0; and
    symmetric-family points on ``mu = |4p - 1|`` and 1e-15 to 1e-6 beside it."""
    specs = []
    for k in range(count):
        kind, mu = k % 8, (float(rng.uniform()), 0.0, 1.0)[k // 8 % 3]
        if kind < 4:
            q = rng.dirichlet(np.full(4, (1.0, 0.3, 0.15, 5.0)[kind]))
        elif kind == 4:
            q = rng.dirichlet(np.ones(4))
            q[rng.choice(4, size=1 + k % 3, replace=False)] = 0.0
        elif kind == 5:
            q = np.array([-0.0 if w == 0.0 else w for w in specs[-1].q])
            mu = specs[-1].mu
        else:
            p = float(rng.uniform(0.0, 0.5))
            beside = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-15, -6) if kind == 7 else 0.0
            specs.append(preset_symmetric(p, min(max(abs(4.0 * p - 1.0) + beside, 0.0), 1.0)))
            continue
        specs.append(ChannelSpec(tuple(q / q.sum()) if kind < 5 else tuple(q), mu))
    return specs


def closed_form_digest(seed: int, count: int) -> str:
    """SHA-256 of the closed form's every output on ``digest_channels(seed, count)``:
    the ``_closed_form_rows`` rows, each ``two_qubit_capacity`` result (chi, s_min,
    gap, regime and state bytes), each ``candidate_entropy_gap`` and the
    ``crossing_mu`` of every 50th channel's weights.  Floats enter by ``repr``,
    which round-trips every bit, signed zeros included; equal digests mean equal bits."""
    specs = digest_channels(np.random.default_rng(seed), count)
    digest = hashlib.sha256()
    q, mu = np.array([s.q for s in specs]), np.array([s.mu for s in specs])
    for row in _closed_form_rows(q, mu):
        digest.update(repr(row).encode())
    for spec in specs:
        r = two_qubit_capacity(spec)
        digest.update(repr((r.chi_bits, r.s_min_bits, r.saturation_gap, r.regime)).encode())
        digest.update(r.state.tobytes())
        digest.update(repr(candidate_entropy_gap(spec)).encode())
    for spec in specs[::50]:
        digest.update(repr(crossing_mu(lambda m, q=spec.q: ChannelSpec(q, m))).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    args = [int(arg) for arg in sys.argv[1:3]]
    print(closed_form_digest(*args, *(0, 10_000)[len(args):]))
