"""Global search for the pure input state with minimal output entropy.

This is the brute-force route to the capacity: by concavity of the von
Neumann entropy the minimum over all inputs is attained on a pure state,
so a multi-start derivative-free descent over a 6-angle parametrization
of pure two-qubit states suffices.  It never reads the closed form's
candidates, labels or certificate tables, and serves as its certificate:
``force_numeric`` and ``--numeric`` run it in its place, and ``verify``
checks on random channels that it never ends below the four-candidate
minimum.  It shares the channel kernel, the two stages ``apply`` takes,
and the Shannon kernel, ``spectral._row_entropies``, which scores its objective.

The descent is Nelder-Mead with scipy's non-adaptive rule, run on all
restart simplices in lock-step: each step scores the trial points of
every running simplex in one call (states, one stacked product with the
channel's 16x16 matrix, built once per search, so that no point's value
depends on its batch, and one stacked ``_eigvalsh``).  Each restart ends
exactly where it would end alone.  The first eight restarts start on
the computational basis and Bell states; the rest start at points drawn
uniformly from the angle box by ``np.random.default_rng(seed)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .channel import ChannelSpec, _joint_weights, _kraus_terms, _weigh_terms, apply
from .spectral import _eigvalsh, _row_entropies, require_unit_norm, von_neumann_entropy_bits

#: Most restarts one search takes; their simplices descend in one batch.
MAX_RESTARTS = 10_000

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start search budget; the seed fully determines the run."""

    restarts: int = 64
    max_iterations: int = 2000
    entropy_tolerance: float = 1e-9
    seed: int = 42

    def __post_init__(self):
        for name in ("restarts", "max_iterations"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and not isinstance(value, bool) and value >= 1):
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.restarts > MAX_RESTARTS:
            raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts!r}")
        if not 0.0 < self.entropy_tolerance < math.inf:
            raise ValueError(
                f"entropy_tolerance must be finite and positive, got {self.entropy_tolerance}"
            )
        seed = self.seed
        if not (isinstance(seed, Integral) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


class MOEMethod(enum.Enum):
    """Provenance of a minimal-output-entropy result."""

    ANALYTIC_CLOSED_FORM = "AnalyticClosedForm"
    GLOBAL_SEARCH = "GlobalSearch"


@dataclass(frozen=True, eq=False)
class MOEResult:
    """Minimizing pure state and its output entropy in bits."""

    state: np.ndarray
    entropy_bits: float
    method: MOEMethod
    converged: bool
    restarts_used: int
    #: Objective points scipy's rule consumes, over the restarts and the polish.
    evaluations: int
    #: Lock-step steps of the restart batch plus those of the polish.
    iterations: int


# Warm-start angles: the four computational basis states and the four Bell
# states, so the Z and Bell candidates are always examined.  The X and Y
# candidates |++> and |+i +i> are not; the search reaches them from its draws.
_WARM_STARTS = (
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),                       # |00>
    (_HALF_PI, 0.0, 0.0, 0.0, 0.0, 0.0),                  # |01>
    (_HALF_PI, _HALF_PI, 0.0, 0.0, 0.0, 0.0),             # |10>
    (_HALF_PI, _HALF_PI, _HALF_PI, 0.0, 0.0, 0.0),        # |11>
    (math.pi / 4, _HALF_PI, _HALF_PI, 0.0, 0.0, 0.0),     # (|00>+|11>)/sqrt2
    (math.pi / 4, _HALF_PI, _HALF_PI, 0.0, 0.0, math.pi), # (|00>-|11>)/sqrt2
    (_HALF_PI, math.pi / 4, 0.0, 0.0, 0.0, 0.0),          # (|01>+|10>)/sqrt2
    (_HALF_PI, math.pi / 4, 0.0, 0.0, math.pi, 0.0),      # (|01>-|10>)/sqrt2
)


def parametrize_pure_state(angles) -> np.ndarray:
    """Pure state from 3 magnitude angles and 3 phases (unit norm built in).

    ``(a1, a2, a3, b1, b2, b3)`` maps to amplitudes
    ``(cos a1, e^(i b1) sin a1 cos a2, e^(i b2) sin a1 sin a2 cos a3,
    e^(i b3) sin a1 sin a2 sin a3)``; the map covers all pure states up
    to global phase.  Raises ValueError unless there are 6 finite angles.
    """
    angles = np.asarray(angles, dtype=float).ravel()
    if angles.size != 6:
        raise ValueError(f"expected 6 angles, got {angles.size}")
    finite = np.isfinite(angles)
    if not finite.all():
        raise ValueError(f"angles must be finite, got {float(angles[~finite][0])}")
    return _pure_states(angles.reshape(1, 6))[0]


def _pure_states(angles: np.ndarray) -> np.ndarray:
    """(B, 6) angles to (B, 4) amplitudes, row by row as documented above."""
    e = np.exp(1j * angles)  # cos + i sin of every angle in one call
    c, s = e.real, e.imag
    s12 = s[:, 0] * s[:, 1]
    states = np.empty((len(angles), 4), dtype=complex)
    states[:, 0] = c[:, 0]
    states[:, 1] = s[:, 0] * c[:, 1]
    states[:, 2] = s12 * c[:, 2]
    states[:, 3] = s12 * s[:, 2]
    states[:, 1:] *= e[:, 3:]
    return states


def output_entropy(spec: ChannelSpec, state) -> float:
    """Output entropy in bits of a pure input state."""
    state = require_unit_norm(state)
    return von_neumann_entropy_bits(apply(spec, np.outer(state, state.conj())))


def _superoperator(spec: ChannelSpec) -> np.ndarray:
    """The channel as a C-ordered 16x16 matrix on flattened inputs,
    ``sup[(b, c), (a, d)]``: row ``4*b + c`` is the output of ``|b><c|``.

    The channel kernel sends the 16 matrix units through the channel.
    C order keeps the path, and so the bits, of the products ``rho @ sup``.
    """
    units = np.eye(16, dtype=complex).reshape(1, 16, 4, 4)
    outputs = _weigh_terms(_joint_weights(spec.q, spec.mu)[None], _kraus_terms(units))
    return np.ascontiguousarray(outputs[0].reshape(16, 16))


def _entropy_objective(spec: ChannelSpec):
    """Map (B, 6) angles to the (B,) output entropies of their pure states.

    Each point gets its own ``(1, 16) @ (16, 16)`` of a stacked product
    with ``_superoperator(spec)``, so that its value does not depend on its
    batch, as it may through a 2-D product.
    """
    sup = _superoperator(spec)

    def objective(angles: np.ndarray) -> np.ndarray:
        v = _pure_states(angles)
        rho = (v[:, :, None] * v[:, None, :].conj()).reshape(-1, 1, 16)
        return _row_entropies(_eigvalsh((rho @ sup).reshape(-1, 4, 4)))

    return objective


# scipy's non-adaptive Nelder-Mead rule: a trial point is
# (1 + c) * centroid - c * worst, with c = 1 to reflect, 2 to expand,
# 0.5 to contract outside and -0.5 to contract inside; a shrink halves
# every edge from the best vertex.  The initial simplex scales each
# nonzero coordinate by 1.05 and sets each zero one to 0.00025.
_REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK = 1, 2, 0.5, -0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def _by_value(sim: np.ndarray, fsim: np.ndarray):
    """Order each simplex's vertices by value, as scipy does."""
    rows = np.arange(len(fsim))[:, None]
    order = np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


def _nelder_mead(objective, starts: np.ndarray, max_iterations: int, tight: bool):
    """Lock-step Nelder-Mead from each row of ``starts``.

    Every simplex takes scipy's steps, decisions and stop test, and the
    trial points of all running simplices are scored in one objective
    call per phase of a step (reflect; expand or contract; shrink).  A
    simplex leaves the batch when it meets the stop test.  Returns the
    minimizers, their values, the number of lock-step steps and the
    number of points scored.
    """
    # Restarts only need to identify the basin; the winner is polished
    # once with tight tolerances.
    xatol, fatol = (1e-10, 1e-13) if tight else (1e-6, 1e-10)
    count, n = starts.shape
    diag = np.arange(n)
    sim = np.repeat(starts[:, None, :], n + 1, axis=1)
    sim[:, diag + 1, diag] = np.where(starts != 0, (1 + _NONZDELT) * starts, _ZDELT)
    fsim = objective(sim.reshape(-1, n)).reshape(count, n + 1)
    evaluations = count * (n + 1)
    # scipy sorts the initial simplex twice, which can reorder ties.
    sim, fsim = _by_value(*_by_value(sim, fsim))

    # Trial coefficient by the number of vertices worse than the reflection:
    # all n + 1 expand, one contracts outside, none inside, others keep it.
    trial = np.zeros(n + 2)
    trial[[n + 1, 1, 0]] = _EXPAND, _OUTSIDE, _INSIDE

    best_x = np.empty_like(starts)
    best_f = np.empty(count)
    ids = np.arange(count)
    steps = 0
    for _ in range(max_iterations - 1):
        # Each fsim row is sorted, so its largest spread is last minus first.
        done = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol) & (
            fsim[:, -1] - fsim[:, 0] <= fatol
        )
        if done.any():
            best_x[ids[done]], best_f[ids[done]] = sim[done, 0], fsim[done, 0]
            ids, sim, fsim = ids[~done], sim[~done], fsim[~done]
            if not len(ids):
                break
        steps += 1
        xbar = np.add.reduce(sim[:, :-1], 1) / n
        worst, f_worst = sim[:, -1], fsim[:, -1]
        new_x = (1 + _REFLECT) * xbar - _REFLECT * worst
        new_f = objective(new_x)
        evaluations += len(new_x)

        coef = trial[(new_f[:, None] < fsim).sum(axis=1)]
        rows = coef.nonzero()[0]
        if len(rows):
            c = coef[rows]
            xt = (1 + c[:, None]) * xbar[rows] - c[:, None] * worst[rows]
            ft = objective(xt)
            evaluations += len(rows)
            # scipy keeps an expansion that beats the reflection, an outside
            # contraction no worse than it and an inside one that beats the
            # worst vertex; a contraction it does not keep becomes a shrink.
            bar = np.where(c == _INSIDE, f_worst[rows], new_f[rows])
            better = np.where(c == _OUTSIDE, ft <= bar, ft < bar)
            new_x[rows[better]], new_f[rows[better]] = xt[better], ft[better]
            shrink = rows[~better & (c != _EXPAND)]
            if len(shrink):
                # Every vertex but the best moves halfway toward it.
                moved = sim[shrink, :1] + _SHRINK * (sim[shrink, 1:] - sim[shrink, :1])
                sim[shrink, 1:] = moved
                fsim[shrink, 1:] = objective(moved.reshape(-1, n)).reshape(-1, n)
                evaluations += moved.shape[0] * n
                new_x[shrink], new_f[shrink] = moved[:, -1], fsim[shrink, -1]
        sim[:, -1], fsim[:, -1] = new_x, new_f
        sim, fsim = _by_value(sim, fsim)

    best_x[ids], best_f[ids] = sim[:, 0], fsim[:, 0]
    return best_x, best_f, steps, evaluations


def _start_points(config: SearchConfig) -> np.ndarray:
    """The warm starts, then seeded uniform draws over the angle box."""
    starts = np.array(_WARM_STARTS[: config.restarts])
    extra = config.restarts - len(starts)
    if extra > 0:
        box = np.random.default_rng(config.seed).random((extra, 6))
        box[:, :3] *= _HALF_PI
        box[:, 3:] *= 2.0 * math.pi
        starts = np.vstack([starts, box])
    return starts


def minimize_output_entropy(
    spec: ChannelSpec, config: SearchConfig | None = None
) -> MOEResult:
    """Multi-start simplex descent over all pure two-qubit inputs.

    Deterministic given the config seed: all restarts descend in one
    lock-step batch, ties resolve to the lowest restart index, and the
    winner gets one extra descent from its own minimizer as a polish
    step.  The result is flagged converged when the two best restarts
    agree within ``entropy_tolerance`` (a single restart cannot confirm
    itself).
    """
    if config is None:
        config = SearchConfig()
    objective = _entropy_objective(spec)

    xs, fs, steps, evaluations = _nelder_mead(
        objective, _start_points(config), config.max_iterations, tight=False
    )
    order = np.argsort(fs, kind="stable")
    best_x, best_f = xs[order[0]], fs[order[0]]
    second_f = fs[order[1]] if len(order) > 1 else math.inf

    polish_x, polish_f, polish_steps, polish_evaluations = _nelder_mead(
        objective, best_x[None], config.max_iterations, tight=True
    )
    if polish_f[0] < best_f:
        best_x = polish_x[0]

    state = parametrize_pure_state(best_x)
    return MOEResult(
        state=state,
        entropy_bits=output_entropy(spec, state),
        method=MOEMethod.GLOBAL_SEARCH,
        converged=bool(second_f - best_f <= config.entropy_tolerance),
        restarts_used=config.restarts,
        evaluations=evaluations + polish_evaluations,
        iterations=steps + polish_steps,
    )


def schmidt_coefficients(state) -> np.ndarray:
    """Schmidt coefficients of a pure two-qubit state, descending.

    ``(1, 0)`` for product states, ``(1/sqrt2, 1/sqrt2)`` for maximally
    entangled ones.
    """
    state = require_unit_norm(state)
    return np.linalg.svd(state.reshape(2, 2), compute_uv=False)
