"""Dense complex matrix helpers for the 2x2 / 4x4 kernels used throughout.

Every function takes one matrix or a stack of them: leading axes are batch
axes, and each matrix of a stack gets the same contract checks and the same
explicit tolerances as a single one.  The numeric route evaluates the tau
grid as stacks of 4-row factors, because per-matrix numpy calls on 4x4
inputs cost far more in call overhead than in arithmetic.

The matrix checks live here, each once: Hermiticity, unit trace and
positivity, all within the one rounding allowance PSD_CLAMP_TOL.
`hermitian_eig`, `psd_sqrt`, `states.validate_density_matrix` (for
matrices from outside), `states.XStateParams` (on its central block) and
`concurrence.spin_flip_spectrum` run them and share their wording.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Rounding allowance of the Hermiticity, trace and PSD checks: channel
# application can push eigenvalues of an exactly-PSD matrix a few ulp
# negative.
PSD_CLAMP_TOL = 1e-10

# Relative cut below which a nonnegative eigenvalue is snapped to exact zero.
# Rank-deficient inputs (pure states and their low-rank evolutions) otherwise
# keep O(eps) eigenvalue noise that sqrt amplifies to ~1e-8.  The snap also
# drops true eigenvalues under the cut: on amplitude-noise tails (tau ~ 26-36)
# the Wootters concurrence of an evolved X-pattern matrix keeps up to ~4e-7
# where the closed form is 0.  Without the snap that defect moves to evolved
# pure-state matrices (2.9e-8 measured), so it stays; the numeric route of
# the dynamics module evolves a factor of the state and never takes this root.
ZERO_EIG_RTOL = 1e-13


class EigDecomposition(NamedTuple):
    """Hermitian eigendecomposition with eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # real, shape (..., n), descending
    eigenvectors: np.ndarray  # unitary, shape (..., n, n), columns ordered to match


def _reject_first(bad, message) -> None:
    """Raise ValueError for the first matrix flagged in the per-matrix mask
    `bad`, with text `message(i, at)`: `i` indexes that matrix's entries
    (() for a single matrix) and `at` names it (" at index 3"; "" for a
    single matrix)."""
    if bad.ndim == 0:
        if bad:
            raise ValueError(message((), ""))
        return
    if bad.any():
        i = tuple(int(k) for k in np.unravel_index(np.argmax(bad), bad.shape))
        raise ValueError(message(i, f" at index {i[0] if len(i) == 1 else i}"))


def _unit_interval(name: str, value):
    """`value` as a float64 (one number) or a float array, each entry
    checked to lie in [0, 1]; the error names `name` and, for an array,
    the index of the first entry outside."""
    v = np.asarray(value, dtype=float)[()]
    _reject_first(
        ~((v >= 0.0) & (v <= 1.0)),
        lambda i, at: f"{name} must lie in [0, 1], got {float(v[i])!r}{at}",
    )
    return v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices (block (i,j) is a[i,j] * b).

    `a` and `b` may each be a stack of 2x2 matrices, shape (..., 2, 2); the
    product is taken pair by pair and the leading axes broadcast.  Each
    entry is the single product a[i,j] * b[k,l], as in `np.kron`, in the
    common dtype of the two: real factors give a real product.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise ValueError(f"kron expects 2x2 matrices, got {a.shape} and {b.shape}")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix (the last two axes)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix (the last two axes): the formula of
    `np.linalg.norm(m, axis=(-2, -1))`, bit for bit, without its wrapper."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


def _hermitian_part(h) -> np.ndarray:
    """(h + h^dag) / 2 of each matrix, after checking that `h` is square and
    Hermitian within PSD_CLAMP_TOL in Frobenius norm."""
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    hd = dagger(h)
    defect = _frobenius(h - hd)
    _reject_first(
        defect > PSD_CLAMP_TOL,
        lambda i, at: f"matrix{at} is not Hermitian: defect {defect[i]:.3e} > tol {PSD_CLAMP_TOL:.3e}",
    )
    return (h + hd) / 2.0


def _check_unit_trace(tr) -> None:
    """Reject each state whose trace `tr` (one per state: of a matrix, or
    the squared Frobenius norm of a factor) is not 1 within PSD_CLAMP_TOL."""
    tr = np.asarray(tr)
    _reject_first(
        abs(tr - 1.0) > PSD_CLAMP_TOL,
        lambda i, at: f"density matrix{at} trace must be 1, got {complex(tr[i])!r}",
    )


def _check_psd(low: np.ndarray) -> None:
    """Reject each matrix whose least eigenvalue `low` (one per matrix) sits
    below -PSD_CLAMP_TOL."""
    _reject_first(
        low < -PSD_CLAMP_TOL,
        lambda i, at: f"matrix{at} is not PSD: min eigenvalue {low[i]:.3e} < -{PSD_CLAMP_TOL:.3e}",
    )


def hermitian_eig(h: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    `h` is a square matrix, or a stack of them with shape (..., n, n), each
    Hermitian within PSD_CLAMP_TOL in Frobenius norm.  The matrix is
    symmetrized before the solve, so the allowed defect only ever absorbs
    rounding.

    Raises
    ------
    ValueError
        If the input is not square or not Hermitian within PSD_CLAMP_TOL;
        for a stack, the message names the index of the first failing
        matrix.
    """
    w, v = np.linalg.eigh(_hermitian_part(h))
    return EigDecomposition(w[..., ::-1].copy(), v[..., ::-1].copy())


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian positive-semidefinite square root of each matrix.

    Eigenvalues in [-PSD_CLAMP_TOL, 0) are clamped to 0; eigenvalues below
    ZERO_EIG_RTOL relative to the largest one of the same matrix are snapped
    to exact zero so that rank-deficient inputs yield an exactly
    rank-deficient root.  The root is the factor that
    `concurrence.concurrence_wootters` takes for a matrix input; its
    accuracy is bounded by that of the eigendecomposition, which is why the
    numeric route evolves a factor built without one (`dynamics`).

    Raises
    ------
    ValueError
        If the input is not Hermitian (as for `hermitian_eig`) or an
        eigenvalue sits below -PSD_CLAMP_TOL (input not PSD); for a stack,
        the message names the index of the first failing matrix.
    """
    w, v = hermitian_eig(h)
    _check_psd(w[..., -1])
    cut = ZERO_EIG_RTOL * np.maximum(w[..., :1], 0.0)
    w = np.where(w < cut, 0.0, w)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)
