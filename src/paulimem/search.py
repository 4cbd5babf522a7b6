"""Global search for the pure input state with minimal output entropy.

This is the brute-force route to the capacity: by concavity of the von
Neumann entropy the minimum over all inputs is attained on a pure state,
so a multi-start derivative-free descent over a 6-angle parametrization
of pure two-qubit states suffices.  For the symmetric family it serves
as an independent check of the closed forms; for general weights it is
the only route.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize
from scipy.stats import qmc

from .channel import ChannelSpec, _kraus_stack, apply
from .spectral import von_neumann_entropy_bits

#: Pure states must be normalized within this tolerance.
NORM_TOL = 1e-12

_HALF_PI = math.pi / 2


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start search budget; the seed fully determines the run."""

    restarts: int = 64
    max_iterations: int = 2000
    entropy_tolerance: float = 1e-9
    seed: int = 42

    def __post_init__(self):
        if not self.restarts >= 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if not self.max_iterations >= 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if not 0.0 < self.entropy_tolerance < math.inf:
            raise ValueError(
                f"entropy_tolerance must be finite and positive, got {self.entropy_tolerance}"
            )
        if not self.seed >= 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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


# Warm-start angles: the four computational basis states and the four
# Bell states, so the known candidate optima are always examined.
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
    to global phase.
    """
    a1, a2, a3, b1, b2, b3 = (float(x) for x in angles)
    s1 = math.sin(a1)
    s12 = s1 * math.sin(a2)
    mags = (math.cos(a1), s1 * math.cos(a2), s12 * math.cos(a3), s12 * math.sin(a3))
    phases = (1.0, np.exp(1j * b1), np.exp(1j * b2), np.exp(1j * b3))
    return np.array([m * ph for m, ph in zip(mags, phases)], dtype=complex)


def _require_unit_norm(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex).ravel()
    if state.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm is {norm!r}, not 1")
    return state


def output_entropy(spec: ChannelSpec, state) -> float:
    """Output entropy in bits of a pure input state."""
    state = _require_unit_norm(state)
    return von_neumann_entropy_bits(apply(spec, np.outer(state, state.conj())))


def _entropy_objective(stack: np.ndarray):
    conj_stack = stack.conj()

    def objective(angles: np.ndarray) -> float:
        v = parametrize_pure_state(angles)
        applied = stack @ np.outer(v, v.conj())
        out = np.einsum("kab,kcb->ac", applied, conj_stack)
        w = np.linalg.eigvalsh(out)
        w = w[w > 1e-300]
        return float(-(w * np.log2(w)).sum())

    return objective


def _simplex_descent(objective, x0: np.ndarray, max_iterations: int, tight: bool):
    # Restarts only need to identify the basin; the winner is polished
    # once with tight tolerances.
    xatol, fatol = (1e-10, 1e-13) if tight else (1e-6, 1e-10)
    return _scipy_minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxiter": max_iterations,
            "xatol": xatol,
            "fatol": fatol,
            "adaptive": False,
        },
    )


def _start_points(config: SearchConfig) -> np.ndarray:
    starts = np.array(_WARM_STARTS[: config.restarts])
    extra = config.restarts - len(starts)
    if extra > 0:
        sampler = qmc.Halton(d=6, scramble=True, seed=config.seed)
        box = sampler.random(extra)
        box[:, :3] *= _HALF_PI
        box[:, 3:] *= 2.0 * math.pi
        starts = np.vstack([starts, box])
    return starts


def minimize_output_entropy(
    spec: ChannelSpec, config: SearchConfig | None = None
) -> MOEResult:
    """Multi-start simplex descent over all pure two-qubit inputs.

    Deterministic given the config seed: restarts run in a fixed order,
    ties resolve to the lowest restart index, and the winner gets one
    extra descent from its own minimizer as a polish step.  The result
    is flagged converged when the two best restarts agree within
    ``entropy_tolerance`` (a single restart cannot confirm itself).
    """
    if config is None:
        config = SearchConfig()
    objective = _entropy_objective(_kraus_stack(spec))

    best_x = None
    best_f = math.inf
    second_f = math.inf
    for x0 in _start_points(config):
        res = _simplex_descent(objective, x0, config.max_iterations, tight=False)
        f = float(res.fun)
        if f < best_f:
            best_f, second_f = f, best_f
            best_x = res.x
        elif f < second_f:
            second_f = f

    polish = _simplex_descent(objective, best_x, config.max_iterations, tight=True)
    if polish.fun < best_f:
        best_x = polish.x

    state = parametrize_pure_state(best_x)
    return MOEResult(
        state=state,
        entropy_bits=output_entropy(spec, state),
        method=MOEMethod.GLOBAL_SEARCH,
        converged=config.restarts >= 2
        and (second_f - best_f) <= config.entropy_tolerance,
        restarts_used=config.restarts,
    )


def mixed_state_dominance_check(spec: ChannelSpec, trials: int, seed: int) -> bool:
    """Spot-check that no sampled mixed input beats its own eigenvectors.

    Samples random density matrices and verifies
    ``S(E(rho)) >= min_v S(E(|v><v|)) - 1e-9`` over the eigenvectors
    ``v`` of each sample, which is what concavity of the entropy
    guarantees.  Returns True iff every sample passes.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= rho.trace().real
        mixed_entropy = von_neumann_entropy_bits(apply(spec, rho))
        _, vecs = np.linalg.eigh(rho)
        best_pure = min(output_entropy(spec, vecs[:, k]) for k in range(4))
        if mixed_entropy < best_pure - 1e-9:
            return False
    return True


def schmidt_coefficients(state) -> np.ndarray:
    """Schmidt coefficients of a pure two-qubit state, descending.

    ``(1, 0)`` for product states, ``(1/sqrt2, 1/sqrt2)`` for maximally
    entangled ones.
    """
    state = _require_unit_norm(state)
    return np.linalg.svd(state.reshape(2, 2), compute_uv=False)


_PRODUCT_CANDIDATE = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
_BELL_CANDIDATE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def candidate_entropy_gap(spec: ChannelSpec) -> float:
    """Output entropy of |00> minus that of the Bell state (|00>+|11>)/sqrt2.

    Negative where the product candidate wins, positive where the Bell
    candidate does.
    """
    return output_entropy(spec, _PRODUCT_CANDIDATE) - output_entropy(
        spec, _BELL_CANDIDATE
    )


def crossing_mu(spec_factory, tol: float = 1e-6) -> float | None:
    """Memory value where the product and Bell candidates swap rank.

    Bisects the sign of :func:`candidate_entropy_gap` over ``mu`` in
    [0, 1]; ``spec_factory(mu)`` must build the channel.  Returns None
    when the gap has the same sign at both ends.
    """
    lo, hi = 0.0, 1.0
    g_lo = candidate_entropy_gap(spec_factory(lo))
    g_hi = candidate_entropy_gap(spec_factory(hi))
    if g_lo == 0.0 and g_hi == 0.0:
        return None
    if math.copysign(1.0, g_lo) == math.copysign(1.0, g_hi):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = candidate_entropy_gap(spec_factory(mid))
        if g_mid == 0.0:
            return mid
        if math.copysign(1.0, g_mid) == math.copysign(1.0, g_lo):
            lo = mid
            g_lo = g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
