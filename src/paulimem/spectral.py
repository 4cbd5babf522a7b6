"""Spectra of two-qubit states, alone or stacked, entropy functionals in
bits, and the one check of each input: a two-qubit state, a pure state,
a set of weights (channel weights or ensemble priors), a memory factor and
a symmetric- or depolarizing-family weight.  ``_row_entropies`` is src's one
Shannon kernel: the entropy functionals and the search's objective score with it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo

#: Bound on ||M - M+||_max accepted as Hermitian.
HERMITIAN_TOL = 1e-10

#: Eigenvalue dust in [-DUST_TOL, 0) is clamped to zero before the log;
#: a density matrix may have no eigenvalue below -DUST_TOL.
DUST_TOL = 1e-9

#: Probability vectors must sum to one within this tolerance.
PROB_SUM_TOL = 1e-9

#: Density-matrix spectra must sum to one within this tolerance.
TRACE_TOL = 1e-10

#: Pure states must be normalized within this tolerance.
NORM_TOL = 1e-12

#: Channel weights and ensemble priors must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-12


def _require(ok: np.ndarray, member: str | None, message: str, values=None) -> None:
    """Raise ValueError unless all of ``ok`` holds, naming the first failing entry.

    ``message`` is formatted with that entry of ``values``; where ``member``
    names the entries of a stack, it is prefixed ``"<member> k: "``.
    """
    k = int(ok.argmin())  # the first False, or 0 where all hold
    if not ok[k]:
        text = message.format(None if values is None else float(values[k]))
        raise ValueError(f"{member} {k}: {text}" if member else text)


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a complex ``(..., 4, 4)`` stack: src's one call of the gufunc
    behind ``np.linalg.eigvalsh``, without that wrapper's checks and ``errstate``, so a LAPACK
    failure gives NaN, which ``density_spectra`` rejects, in place of ``LinAlgError``."""
    return _eigvalsh_lo(stack, signature="D->d")


def density_spectra(rho) -> np.ndarray:
    """Spectra of a two-qubit density matrix or of each member of a
    nonempty ``(n, 4, 4)`` stack, sorted descending: shape ``(4,)`` or ``(n, 4)``.

    The one check of a two-qubit state: Hermitian within HERMITIAN_TOL, no
    eigenvalue below -DUST_TOL and a spectrum that sums to one within
    TRACE_TOL.  NaN fails every check.  Each is one whole-stack test; the first
    bad member, which the message names, is worked out only once it fails.
    One ``_eigvalsh`` takes the whole stack, and each member keeps the bits it has alone.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (4, 4) or rho.size == 0:
        raise ValueError(
            f"expected a 4x4 density matrix or a nonempty (n, 4, 4) stack, got {rho.shape}"
        )
    member = "member" if rho.ndim == 3 else None
    skew = rho - rho.conj().swapaxes(-1, -2)
    if np.count_nonzero(skew):  # unless rho is its adjoint exactly; NaN counts, -0.0 does not
        defects = np.maximum.reduce(np.abs(skew).reshape(-1, 16), axis=1)
        message = "density matrix is not Hermitian: ||M - M+||_max = {:.3e}"
        _require(defects <= HERMITIAN_TOL, member, message, defects)
    spectra = _eigvalsh(rho)[..., ::-1].copy()
    rows = spectra.reshape(-1, 4)
    traces = np.add.reduce(rows, axis=1)
    if not (np.minimum.reduce(rows[:, -1]) >= -DUST_TOL
            and np.maximum.reduce(abs(traces - 1.0)) <= TRACE_TOL):
        message = "not positive semidefinite: smallest eigenvalue {:.3e}"
        _require(rows[:, -1] >= -DUST_TOL, member, message, rows[:, -1])
        _require(abs(traces - 1.0) <= TRACE_TOL, member, "trace is {!r}, not 1", traces)
    return spectra


def require_unit_norm(state) -> np.ndarray:
    """Four amplitudes as a complex vector, checked to have unit norm within NORM_TOL."""
    state = np.asarray(state, dtype=complex).ravel()
    if state.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state norm is {float(norm)!r}, not 1")
    return state


def require_weights(weights, name: str) -> None:
    """Check nonempty ``weights`` to be finite, then nonnegative, then to sum
    to one within WEIGHT_SUM_TOL; ``name`` words the errors."""
    weights = np.ravel(weights).tolist()
    for w in weights:
        if not math.isfinite(w):
            raise ValueError(f"{name} must be finite, got {w!r}")
    if not min(weights) >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got min {min(weights)!r}")
    total = sum(weights)  # in order, and inf without a warning on overflow
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise ValueError(f"{name} must sum to 1, got sum {total!r}")


def require_memory_factor(mu) -> float:
    """The memory factor ``mu`` as a float, checked to lie in [0, 1]."""
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    return mu


def require_symmetric_weight(p) -> float:
    """The symmetric-family weight ``p`` as a float, checked to lie in [0, 1/2]."""
    p = float(p)
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"symmetric-family weight p must lie in [0, 1/2], got {p}")
    return p


def require_depolarizing_weight(x) -> float:
    """The depolarizing-family weight ``x`` as a float, checked to lie in [0, 1]."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"depolarizing weight x must lie in [0, 1], got {x}")
    return x


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of an ``(n, k)`` stack, dust clamped into [0, 1].

    Clamp, ``log2`` and row sum are whole-array operations.  A zero entry
    adds an exact +0.0 and numpy sums a row of fewer than 8 entries in
    order, so such a row has the bits of summing its nonzero terms alone.
    """
    rows = np.minimum(np.maximum(rows, 0.0), 1.0)
    logs = np.log2(rows, out=np.zeros(rows.shape), where=rows > 0.0)
    return 0.0 - np.add.reduce(rows * logs, axis=1)  # not -sum: a zero entropy is +0.0


def shannon_entropy_bits(p) -> float | np.ndarray:
    """Shannon entropy -sum p_i log2 p_i with 0 log 0 = 0, in bits, checked by
    ``_checked_entropies``: a float of one probability vector, or an ``(n,)`` array
    of an ``(n, k)`` stack of them, one per row, from one pass over the stack."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError(
            f"expected a nonempty probability vector or (n, k) stack, got shape {p.shape}"
        )
    entropies = _checked_entropies(p.reshape(-1, p.shape[-1]), "row" if p.ndim == 2 else None)
    return float(entropies[0]) if p.ndim == 1 else entropies


def _checked_entropies(rows: np.ndarray, row: str | None = "row") -> np.ndarray:
    """``_row_entropies`` of an ``(n, k)`` float stack of probability vectors, checked:
    entries in [-DUST_TOL, 0) are clamped to zero; non-finite entries, and positivity or
    normalization violated beyond tolerance, are rejected, naming the first bad ``row``."""
    sums = np.add.reduce(rows, axis=1)
    # A non-finite entry fails the whole-stack test too, through a NaN or infinite min or sum.
    if not (np.minimum.reduce(rows, axis=None) >= -DUST_TOL
            and np.maximum.reduce(abs(sums - 1.0)) <= PROB_SUM_TOL):
        _require(np.isfinite(rows).all(axis=1), row, "probabilities must be finite")
        least = np.minimum.reduce(rows, axis=1)
        _require(least >= -DUST_TOL, row, "negative probability {:.3e} beyond tolerance", least)
        _require(abs(sums - 1.0) <= PROB_SUM_TOL, row, "probabilities sum to {!r}, not 1", sums)
    return _row_entropies(rows)


def von_neumann_entropy_bits(rho) -> float | np.ndarray:
    """Von Neumann entropy of a two-qubit density matrix, in bits.

    Equals the Shannon entropy of the spectrum; range [0, 2].  A 4x4
    ``rho`` gives a float and an ``(n, 4, 4)`` stack an ``(n,)`` array,
    from one ``density_spectra`` call, which checks every member, and
    one pass of the Shannon kernel.
    """
    spectra = density_spectra(rho)
    entropies = _row_entropies(spectra.reshape(-1, 4))
    return float(entropies[0]) if spectra.ndim == 1 else entropies
