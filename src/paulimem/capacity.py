"""Capacity as executable saturation: the covariant ensemble attains it.

For any input state the 16 Pauli-pair rotations of that state, taken
with uniform priors, average to I/4 at the output and share one output
entropy.  The Holevo quantity of that ensemble therefore equals
``2 - S(E(rho))``; built on a minimal-output-entropy state it attains
the two-qubit capacity, so a result stores the state, read-only, and
derives the ensemble anew, checked, on each access (about 16 us).  Every
channel takes that state from one closed form: the best of the four
candidate inputs below, whose read-only states closed-form results share
and whose Holevo inputs and Kraus terms are built and checked at import.
One kernel computes arrays over a block of channels: a sweep streams
blocks of _BLOCK, and a lone point is a block of one.  It indexes each
candidate's members by the label of their output state: it weighs and
diagonalizes the average's output and one per label.  ``holevo_chi``
checks a caller's ensemble and stays dense over every member's output.
One array rule on the margin, the best axis candidate's entropy minus
the Bell state's, sets every winner and regime and, bisected over ``mu``,
the regime switch ``crossing_mu``.

The four candidate inputs of ``candidate_entropies`` hold the minimal
output entropy of every Pauli memory channel (Daems, PRA 76, 012310
(2007)).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelSpec,
    _joint_weights,
    _kraus_terms,
    _weigh_terms,
    apply,  # noqa: F401  perfbench's tracer test reads capacity.apply
)
from .pauli import _PAIR_STACK, _frozen
from .search import MOEMethod, SearchConfig, minimize_output_entropy
from .spectral import _checked_entropies, density_spectra, require_unit_norm, require_weights
from .spectral import von_neumann_entropy_bits

#: Width of the Boundary band: of the best axis-Bell entropy tie in
#: ``two_qubit_capacity``, of ``|mu - |4p - 1||`` in ``symmetric.optimal_input``.
BOUNDARY_TOL = 1e-12


class Regime(enum.Enum):
    """Which input family attains the two-qubit capacity."""

    PRODUCT = "Product"
    ENTANGLED = "Entangled"
    BOUNDARY = "Boundary"


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Input states, an ``(n, 4, 4)`` array, with prior probabilities."""

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        priors = np.asarray(self.priors, dtype=float)
        if states.ndim != 3 or states.shape[1:] != (4, 4) or not len(states):
            raise ValueError(
                f"states must be a nonempty (n, 4, 4) stack, got shape {states.shape}"
            )
        if priors.ndim != 1:
            raise ValueError(f"priors must be a 1-D array, got shape {priors.shape}")
        if len(states) != priors.size:
            raise ValueError(f"{len(states)} states but {priors.size} priors")
        require_weights(priors, "priors")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)

    def average_input(self) -> np.ndarray:
        """Prior-weighted average of the input states, added in member order."""
        return np.add.reduce(self.priors[:, None, None] * self.states, axis=0, initial=0.0)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Holevo quantity of the covariant ensemble and its saturation gap."""

    chi_bits: float
    s_min_bits: float
    saturation_gap: float
    state: np.ndarray
    regime: Regime
    method: MOEMethod
    converged: bool

    @property
    def ensemble(self) -> Ensemble:
        """The covariant ensemble of ``state``, a fresh checked one on each access."""
        return covariant_ensemble(self.state)


def covariant_ensemble(state) -> Ensemble:
    """The 16 Pauli-pair rotations of a pure state, uniform priors.

    The average input is I/4 for any state; for a computational basis
    state the 16 projectors collapse onto the four basis projectors,
    for a Bell state onto the four Bell projectors.
    """
    state = require_unit_norm(state)
    rotated = _PAIR_STACK @ state
    projectors = rotated[:, :, None] * rotated[:, None, :].conj()
    return Ensemble(projectors, np.full(16, 1.0 / 16.0))


def holevo_chi(spec: ChannelSpec, ensemble: Ensemble) -> float:
    """Holevo quantity ``S(E(avg)) - sum_i p_i S(E(rho_i))`` in bits, through
    the same weigh, entropy and in-order sum steps as every closed-form capacity;
    the error names the first member of ``ensemble.states`` that is not a two-qubit state."""
    terms = _kraus_terms(_holevo_inputs(ensemble)[None])
    outputs = _weigh_terms(_joint_weights(spec.q, spec.mu)[None], terms)[0]
    return float(_chis(von_neumann_entropy_bits(outputs), ensemble.priors))


def _holevo_inputs(ensemble: Ensemble) -> np.ndarray:
    """The ``(m + 1, 4, 4)`` stack of the average input and the ``m`` members,
    which one ``density_spectra`` checks; their average is then a state."""
    density_spectra(ensemble.states)
    return np.concatenate((ensemble.average_input()[None], ensemble.states))


def _chis(entropies: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Holevo quantity of each row ``[S(avg), S_1, ..., S_m]`` of ``entropies``."""
    # accumulate adds one member at a time, in member order; a sum would pair them.
    held = np.add.accumulate(priors * entropies[..., 1:], axis=-1)[..., -1]
    return entropies[..., 0] - held


_PAIR_I, _PAIR_J = np.divmod(np.arange(16), 4)  # Pauli pair 4*i + j


def _axis_labels(k: int) -> np.ndarray:
    """Output label of each Pauli pair on the product eigenstate of ``s_k (x) s_k``.

    ``s_0`` and ``s_k`` keep an eigenstate of ``s_k``; the other two flip
    it to the orthogonal one.
    """
    flip_i = (_PAIR_I != 0) & (_PAIR_I != k)
    flip_j = (_PAIR_J != 0) & (_PAIR_J != k)
    return 2 * flip_i + flip_j


#: Candidate minimal-output-entropy inputs, read-only states that closed-form
#: results share, with, for each Pauli pair, the label of the orthonormal state
#: it sends the candidate to: the product eigenstates of ``s_1``, ``s_2`` and
#: ``s_3`` on both qubits (|00>, |++>, |+i +i>), and the Bell state, which
#: ``s_i (x) s_j`` sends to the Bell state ``i XOR j``.
_CANDIDATES = (
    (_frozen([1.0, 0.0, 0.0, 0.0]), _axis_labels(1)),
    (_frozen(np.full(4, 0.5)), _axis_labels(2)),
    (_frozen([0.5, 0.5j, 0.5j, -0.5]), _axis_labels(3)),
    (_frozen(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)), _PAIR_I ^ _PAIR_J),
)
_BELL = len(_CANDIDATES) - 1

#: ``_LABEL_PAIRS[c, l]``: the 4 Pauli pairs, in increasing order, that send
#: candidate ``c`` to its label state ``l``; each label owns exactly 4 of the 16.
_LABEL_PAIRS = np.argsort([labels for _, labels in _CANDIDATES], kind="stable").reshape(-1, 4, 4)
assert (np.sort([labels for _, labels in _CANDIDATES]) == np.arange(16) // 4).all()
_LABEL_PAIRS.flags.writeable = False


def candidate_entropies(spec: ChannelSpec) -> list[float]:
    """Output entropies in bits of the Z, X and Y axis candidates and the Bell state."""
    return _candidate_entropies(_joint_weights(spec.q, spec.mu))[0].tolist()


def _candidate_entropies(weights: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` candidate entropies of an ``(n, 16)`` weight stack, ``n = 1`` of ``(16,)``.

    A candidate's output is diagonal in the states the 16 Pauli pairs send
    it to, so its spectrum is the joint weights summed by label.  One
    _LABEL_PAIRS gather and one reduce, adding in pair order from +0.0,
    build the 4n spectra; one checked Shannon pass takes their entropies.
    """
    spectra = np.add.reduce(weights.take(_LABEL_PAIRS, axis=-1), axis=-1, initial=0.0)
    return _checked_entropies(spectra.reshape(-1, 4)).reshape(-1, len(_CANDIDATES))


#: Edges of the Boundary band, ``[-BOUNDARY_TOL, BOUNDARY_TOL]``, for ``searchsorted``:
#: a margin below it is band 0, in it band 1, above it band 2.
_BAND_EDGES = _frozen([math.nextafter(-BOUNDARY_TOL, -math.inf), BOUNDARY_TOL], float)
#: ``_WINNERS[band, axis]``: the best axis below the band, the Bell state in and above it.
_WINNERS = _frozen([[0, 1, 2], [_BELL] * 3, [_BELL] * 3], int)
_REGIMES = (Regime.PRODUCT, Regime.BOUNDARY, Regime.ENTANGLED)  # of each band


def _margins(entropies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's running minimum (the best axis's entropy, then ``s_min``) and margin."""
    least = np.minimum.accumulate(entropies, axis=1)
    return least, least[:, _BELL - 1] - entropies[:, _BELL]


def _optimum(entropies: np.ndarray) -> tuple[np.ndarray, ...]:
    """The winner rule, on the ``(n, 4)`` candidate ``entropies`` of ``n`` channels:
    each one's winner, ``s_min`` (the least entropy), ``_REGIMES`` band and margin,
    the entropy of the first axis with the least minus the Bell state's.  That
    axis wins below the band (Product); the Bell state wins above it (Entangled)
    and represents a tie within it (Boundary)."""
    least, margins = _margins(entropies)
    bands = _BAND_EDGES.searchsorted(margins)
    return _WINNERS[bands, entropies[:, :_BELL].argmin(axis=1)], least[:, _BELL], bands, margins


def candidate_entropy_gap(spec: ChannelSpec) -> float:
    """Smallest axis candidate's output entropy minus the Bell state's.

    The margin that sets the regime: negative where a product eigenstate
    of ``s_1``, ``s_2`` or ``s_3`` wins, positive where the Bell state
    (|00>+|11>)/sqrt2 does.
    """
    return _margins(_candidate_entropies(_joint_weights(spec.q, spec.mu)))[1].item()


def crossing_mu(spec_factory, tol: float = 1e-6) -> float | None:
    """Memory value where the best product axis and the Bell state swap rank.

    Bisects the sign of :func:`candidate_entropy_gap` over ``mu`` in
    [0, 1] until the bracket is at most ``tol`` wide, which must be a finite
    and positive number, not a bool, or holds no float between its ends; ``spec_factory(mu)``
    must build the channel.  Returns None when the gap has the same sign
    at both ends.
    """
    if isinstance(tol, bool) or not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    lo, hi = 0.0, 1.0
    g_lo = candidate_entropy_gap(spec_factory(lo))
    g_hi = candidate_entropy_gap(spec_factory(hi))
    if g_lo == 0.0 and g_hi == 0.0:
        return None
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        return None
    mid = 0.5 * (lo + hi)
    # A bracket of two adjacent floats has no midpoint inside it.
    while hi - lo > tol and lo < mid < hi:
        g_mid = candidate_entropy_gap(spec_factory(mid))
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo = mid
            g_lo = g_mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


#: Channels per stacked pass of ``_closed_form_rows``, which holds one block at a time;
#: timed against 16, 128 and 256, 64 runs a 101-point sweep in two passes.
_BLOCK = 64

#: ``_holevo_inputs`` of each candidate's covariant ensemble, ``(4, 17, 4, 4)``,
#: checked once here, and the uniform priors of those ensembles.
_CANDIDATE_INPUTS = _frozen([_holevo_inputs(covariant_ensemble(c[0])) for c in _CANDIDATES])
_UNIFORM_PRIORS = _frozen(np.full(16, 1.0 / 16.0), float)
#: ``_LABEL_ROWS[c]``, ``[0, *(labels + 1)]``, indexes candidate ``c``'s Holevo
#: inputs by output label among ``_LABEL_INPUTS[c]``: its average and the first
#: member with each label, ``(4, 5, 4, 4)``, whose Kraus terms are ``_CANDIDATE_TERMS``.
#: Members that share a label are equal up to signed zeros and have byte-equal
#: outputs, so the closed form weighs and diagonalizes one output per label.
_LABEL_ROWS = _frozen([[0, *(labels + 1)] for _, labels in _CANDIDATES], int)
_LABEL_INPUTS = _frozen([
    inputs[np.unique(rows, return_index=True)[1]]
    for inputs, rows in zip(_CANDIDATE_INPUTS, _LABEL_ROWS)
])
# Pair-major per candidate, (4, 16, 5, 4, 4): each candidate's terms are one
# contiguous block, so a block's one take copies whole blocks in _weigh_terms' order.
_CANDIDATE_TERMS = _frozen(_kraus_terms(_LABEL_INPUTS))
#: Index of each block row's first output among the block's ``5 n`` outputs, ``(_BLOCK, 1)``.
_ROW_OFFSETS = _frozen(_LABEL_INPUTS.shape[1] * np.arange(_BLOCK)[:, None], int)


def _closed_form_block(weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Closed-form ``chi``, ``s_min``, winner and ``_REGIMES`` band arrays of an
    ``(n, 16)`` weight stack of at most _BLOCK channels, a lone point's ``n = 1``:
    one pass takes the candidate entropies, ``_optimum`` picks every winner, and
    one Holevo pass weighs a gathered copy of each winner's _CANDIDATE_TERMS, one
    per label, takes one ``von_neumann_entropy_bits``, which checks every output,
    gathers each winner's ``_LABEL_ROWS`` of it and adds them in member order.
    A channel has its bits in any block."""
    winners, s_mins, bands, _ = _optimum(_candidate_entropies(weights))
    outputs = _weigh_terms(weights, _CANDIDATE_TERMS.take(winners, axis=0)).reshape(-1, 4, 4)
    rows = _LABEL_ROWS.take(winners, axis=0)
    rows += _ROW_OFFSETS[: len(rows)]
    chis = _chis(von_neumann_entropy_bits(outputs).take(rows), _UNIFORM_PRIORS)
    return chis, s_mins, winners, bands


def _closed_form_rows(q, mu) -> Iterator[tuple[float, float, int, Regime]]:
    """``(chi, s_min, winner, regime)`` of each channel ``(q[k], mu[k])`` of ``(n, 4)``
    checked weights and ``(n,)`` memory factors: one ``_closed_form_block`` per _BLOCK
    channels, each of its arrays read with one ``tolist``."""
    for start in range(0, len(mu), _BLOCK):
        block = slice(start, start + _BLOCK)
        chis, s_mins, winners, bands = _closed_form_block(_joint_weights(q[block], mu[block]))
        regimes = map(_REGIMES.__getitem__, bands.tolist())
        yield from zip(chis.tolist(), s_mins.tolist(), winners.tolist(), regimes)


def two_qubit_capacity(
    spec: ChannelSpec,
    config: SearchConfig | None = None,
    force_numeric: bool = False,
) -> CapacityResult:
    """Two-qubit capacity with the ensemble that attains it.

    Every channel takes the closed form, a one-channel ``_closed_form_block``,
    the kernel the sweeps stream: the best of four candidate inputs, the Z, X
    and Y product eigenstates and the Bell state, whose read-only state the
    result shares.  For the ``q0 = q1, q2 = q3`` family that is the paper's
    optimal input, and ``capacity_symmetric`` is its independent oracle.
    ``force_numeric`` runs the global search with ``config`` in its place and
    freezes the state it finds; the regime still comes from the closed form.
    The saturation gap ``|chi - (2 - s_min)|`` stays below 1e-8 for every Pauli
    memory channel regardless of route.
    """
    chis, s_mins, winners, bands = _closed_form_block(_joint_weights(spec.q, spec.mu)[None])
    chi, s_min, winner, band = chis.item(), s_mins.item(), winners.item(), bands.item()
    if force_numeric:
        found = minimize_output_entropy(spec, config)
        chi, s_min = holevo_chi(spec, covariant_ensemble(found.state)), found.entropy_bits
        state, method, converged = _frozen(found.state), found.method, found.converged
    else:
        state, converged = _CANDIDATES[winner][0], True
        method = MOEMethod.ANALYTIC_CLOSED_FORM
    return CapacityResult(
        chi_bits=chi, s_min_bits=s_min, saturation_gap=abs(chi - (2.0 - s_min)), state=state,
        regime=_REGIMES[band], method=method, converged=converged,
    )
