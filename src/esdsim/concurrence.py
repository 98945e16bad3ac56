"""Concurrence of two-qubit states.

Three routes, used against each other throughout the test suite:

* `concurrence_wootters` works for any two-qubit density matrix via the
  spin-flipped spectrum.
* `concurrence_x` is the closed form for states with the cross pattern
  (diagonal plus one central coherence), 2 max(0, |z| - sqrt(a d)).
* `concurrence_pure` evaluates pure states written over the computational
  basis with three relative phases.

The general route deliberately avoids forming rho rho~ and diagonalizing
it: the needed lambda_i are the singular values of sqrt(rho)^T (sy x sy)
sqrt(rho), which is the same spectrum without the square-root of a nearly
defective product.  On rank-deficient states this keeps the error near
machine precision where the naive chain loses half the digits.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import _check_unit_trace, kron, psd_sqrt
from .states import PureStateParams, XStateParams, _pure_amplitudes

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

# (sy x sy) is real: the antidiagonal (-1, 1, 1, -1).
SPIN_FLIP = kron(_SIGMA_Y, _SIGMA_Y).real.copy()
SPIN_FLIP.setflags(write=False)

# Clamp window for tiny negative radicands produced by rounding.
RADICAND_TOL = 1e-12


def spin_flip_spectrum(rho: np.ndarray) -> np.ndarray:
    """The four lambda_i of the spin-flip construction, descending.

    Computed as singular values of W = sqrt(rho)^T (sy x sy) sqrt(rho).
    W^* W = sqrt(rho) rho~ sqrt(rho) with rho~ the spin-flipped state, so
    the singular values squared are the eigenvalues of rho rho~.  `rho` is
    one 4x4 state or a stack of shape (..., 4, 4), and the result has shape
    (..., 4).  Every state gets the checks of `validate_density_matrix`:
    unit trace here, Hermiticity and positivity from the eigendecomposition
    that `psd_sqrt` takes for the root, so each state is solved once.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {rho.shape}")
    _check_unit_trace(rho)
    s = psd_sqrt(rho)
    w = np.swapaxes(s, -1, -2) @ SPIN_FLIP @ s
    return np.linalg.svd(w, compute_uv=False)


def concurrence_wootters(rho: np.ndarray) -> float | np.ndarray:
    """max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4) for any 4x4 state.

    A float for one state, an array with one value per state for a stack.
    """
    lam = spin_flip_spectrum(rho)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_x(params: XStateParams) -> float:
    """Closed form 2 max(0, |z| - sqrt(a d)) for cross-pattern states."""
    return 2.0 * max(0.0, abs(params.z) - math.sqrt(params.a * params.d))


def concurrence_pure(params: PureStateParams) -> float:
    """Concurrence of the pure state with weights (a, b, c, d), phases (f, g, h).

    Equals 2 sqrt(ad + bc - 2 sqrt(abcd) cos(f + g - h)); the radicand is a
    squared magnitude and only dips below zero by rounding, so values in
    [-RADICAND_TOL, 0) are clamped and anything lower is an error.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    radicand = a * d + b * c - 2.0 * math.sqrt(a * b * c * d) * math.cos(
        params.f + params.g - params.h
    )
    if radicand < 0.0:
        if radicand < -RADICAND_TOL:
            raise ValueError(f"pure-state radicand {radicand!r} below clamp window")
        radicand = 0.0
    return 2.0 * math.sqrt(radicand)


def concurrence_pure_determinant(params: PureStateParams) -> float:
    """Independent pure-state route: 2 |det M| for the 2x2 amplitude matrix."""
    m = _pure_amplitudes(params).reshape(2, 2)
    return 2.0 * abs(np.linalg.det(m))
