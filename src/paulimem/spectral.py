"""Eigenvalues of 4x4 Hermitian matrices, alone or stacked, and entropy functionals in bits."""

from __future__ import annotations

import numpy as np

#: Bound on ||M - M+||_max accepted as Hermitian.
HERMITIAN_TOL = 1e-10

#: Eigenvalue dust in [-DUST_TOL, 0) is clamped to zero before the log.
DUST_TOL = 1e-9

#: Probability vectors must sum to one within this tolerance.
PROB_SUM_TOL = 1e-9

#: Density-matrix spectra must sum to one within this tolerance.
TRACE_TOL = 1e-10


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix or of each member of an
    ``(n, 4, 4)`` stack, sorted descending: shape ``(4,)`` or ``(n, 4)``.

    One ``eigvalsh`` takes the whole stack, and each member keeps the
    bits it has alone.  Raises ValueError for any other shape, an empty
    stack or a non-Hermitian member.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4) or m.size == 0:
        raise ValueError(f"expected a 4x4 matrix or a nonempty (n, 4, 4) stack, got {m.shape}")
    defect = np.abs(m - m.conj().swapaxes(-1, -2)).max()
    if not defect <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: ||M - M+||_max = {defect:.3e}")
    return np.linalg.eigvalsh(m)[..., ::-1].copy()


def shannon_entropy_bits(p) -> float:
    """Shannon entropy -sum p_i log2 p_i with 0 log 0 = 0, in bits.

    Entries in [-DUST_TOL, 0) are clamped to zero; inputs violating
    positivity or normalization beyond tolerance are rejected.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("probability vector is empty")
    if not p.min() >= -DUST_TOL:
        raise ValueError(f"negative probability {p.min():.3e} beyond tolerance")
    total = p.sum()
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    p = np.clip(p, 0.0, 1.0)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0  # +0.0 turns -0.0 into 0.0


def von_neumann_entropy_bits(rho) -> float | np.ndarray:
    """Von Neumann entropy of a two-qubit density matrix, in bits.

    Equals the Shannon entropy of the spectrum; range [0, 2].  A 4x4
    ``rho`` gives a float and an ``(n, 4, 4)`` stack an ``(n,)`` array,
    from one ``hermitian_eigenvalues`` call; the first member that is not
    positive or of unit trace rejects the stack.
    """
    spectra = hermitian_eigenvalues(rho)
    rows = spectra.reshape(-1, 4)
    negative = rows[rows[:, -1] < -DUST_TOL, -1]
    if negative.size:
        raise ValueError(f"not positive semidefinite: smallest eigenvalue {negative[0]:.3e}")
    traces = rows.sum(axis=1)
    off = traces[np.abs(traces - 1.0) > TRACE_TOL]
    if off.size:
        raise ValueError(f"trace is {off[0]!r}, not 1")
    entropies = [shannon_entropy_bits(spectrum) for spectrum in rows]
    return entropies[0] if spectra.ndim == 1 else np.array(entropies)
