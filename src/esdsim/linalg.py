"""Dense complex matrix helpers for the 2x2 / 4x4 kernels used throughout.

Every function takes one matrix or a stack of them: leading axes are batch
axes, and each matrix of a stack gets the same contract checks and the same
explicit tolerances as a single one.  The numeric route evaluates the tau
grid as stacks of 4-row factors, because per-matrix numpy calls on 4x4
inputs cost far more in call overhead than in arithmetic.

The matrix checks live here, each once: Hermiticity, unit trace and
positivity, all within the one rounding allowance PSD_CLAMP_TOL.
`states.validate_density_matrix` (for matrices from outside),
`states.XStateParams` (on its central block) and
`concurrence.factor_concurrence` (the trace of a factor's state) run them
and share their wording.  No function here takes an eigendecomposition or a
matrix square root: the numeric route evolves a factor of the state, whose
product with its conjugate transpose is positive by construction.
"""
from __future__ import annotations

import numpy as np

# Rounding allowance of the Hermiticity, trace and PSD checks: channel
# application can push eigenvalues of an exactly-PSD matrix a few ulp
# negative.
PSD_CLAMP_TOL = 1e-10


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


def _not_member(value, kinds) -> ValueError:
    """The ValueError for a `value` that is not a member of the enum `kinds`."""
    members = ", ".join(f"{kinds.__name__}.{m.name}" for m in kinds)
    return ValueError(f"expected a {kinds.__name__} ({members}), got {value!r}")


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
        ~(defect <= PSD_CLAMP_TOL),
        lambda i, at: f"matrix{at} is not Hermitian: defect {defect[i]:.3e} > tol {PSD_CLAMP_TOL:.3e}",
    )
    return (h + hd) / 2.0


def _check_unit_trace(tr) -> None:
    """Reject each state whose trace `tr` (one per state: of a matrix, or
    the squared Frobenius norm of a factor) is not 1 within PSD_CLAMP_TOL."""
    tr = np.asarray(tr)
    _reject_first(
        ~(abs(tr - 1.0) <= PSD_CLAMP_TOL),
        lambda i, at: f"density matrix{at} trace must be 1, got {complex(tr[i])!r}",
    )


def _check_psd(low) -> None:
    """Reject each matrix whose least eigenvalue `low` sits below
    -PSD_CLAMP_TOL or is NaN.  `low` is one float, for one matrix (a Python
    float passes with no numpy scalar made), or an array of them, one per
    matrix, whose errors name the index of the first that fails."""
    if isinstance(low, float):
        if low >= -PSD_CLAMP_TOL:
            return
        low = np.float64(low)
    _reject_first(
        ~(low >= -PSD_CLAMP_TOL),
        lambda i, at: f"matrix{at} is not PSD: min eigenvalue {low[i]:.3e} < -{PSD_CLAMP_TOL:.3e}",
    )
