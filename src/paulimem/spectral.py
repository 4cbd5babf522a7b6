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


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a checked ``(n, k)`` stack.

    Clamp, ``log2`` and row sum are whole-array operations.  A zero entry
    adds an exact +0.0 and numpy sums a row of fewer than 8 entries in
    order, so such a row has the bits of summing its nonzero terms alone.
    """
    rows = np.clip(rows, 0.0, 1.0)
    logs = np.log2(rows, out=np.zeros_like(rows), where=rows > 0.0)
    return -(rows * logs).sum(axis=1) + 0.0  # +0.0 turns -0.0 into 0.0


def shannon_entropy_bits(p) -> float | np.ndarray:
    """Shannon entropy -sum p_i log2 p_i with 0 log 0 = 0, in bits.

    One probability vector gives a float, and an ``(n, k)`` stack of them,
    one per row, gives an ``(n,)`` array from one pass over the stack.
    Entries in [-DUST_TOL, 0) are clamped to zero.  Non-finite entries,
    and positivity or normalization violated beyond tolerance, are
    rejected; the message names the first bad row of a stack.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError(
            f"expected a nonempty probability vector or (n, k) stack, got shape {p.shape}"
        )
    rows = p.reshape(-1, p.shape[-1])

    def row(bad: np.ndarray) -> str:
        return "" if p.ndim == 1 else f"row {bad.argmax()}: "

    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{row(bad)}probabilities must be finite")
    smallest = rows.min(axis=1)
    bad = smallest < -DUST_TOL
    if bad.any():
        raise ValueError(
            f"{row(bad)}negative probability {smallest[bad.argmax()]:.3e} beyond tolerance"
        )
    totals = rows.sum(axis=1)
    bad = np.abs(totals - 1.0) > PROB_SUM_TOL
    if bad.any():
        raise ValueError(f"{row(bad)}probabilities sum to {float(totals[bad.argmax()])!r}, not 1")
    entropies = _row_entropies(rows)
    return float(entropies[0]) if p.ndim == 1 else entropies


def von_neumann_entropy_bits(rho) -> float | np.ndarray:
    """Von Neumann entropy of a two-qubit density matrix, in bits.

    Equals the Shannon entropy of the spectrum; range [0, 2].  A 4x4
    ``rho`` gives a float and an ``(n, 4, 4)`` stack an ``(n,)`` array,
    from one ``hermitian_eigenvalues`` call and one pass of the Shannon
    kernel; the first member that is not positive or of unit trace
    rejects the stack.
    """
    spectra = hermitian_eigenvalues(rho)
    rows = spectra.reshape(-1, 4)
    negative = rows[rows[:, -1] < -DUST_TOL, -1]
    if negative.size:
        raise ValueError(f"not positive semidefinite: smallest eigenvalue {negative[0]:.3e}")
    traces = rows.sum(axis=1)
    off = traces[np.abs(traces - 1.0) > TRACE_TOL]
    if off.size:
        raise ValueError(f"trace is {float(off[0])!r}, not 1")
    entropies = _row_entropies(rows)
    return float(entropies[0]) if spectra.ndim == 1 else entropies
