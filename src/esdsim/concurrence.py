"""Concurrence of two-qubit states.

Two functions, used against each other throughout the test suite:

* `factor_concurrence` works for any two-qubit state given by a factor W
  with rho = W W^dag: the numeric route of the dynamics module evolves
  such a factor and never forms the matrix.
* `concurrence_pure` is the closed form of pure states written over the
  computational basis with three relative phases.

The general route deliberately avoids forming rho rho~ and diagonalizing
it: the needed lambda_i are the singular values of G = F^T (sy x sy) F for
any F with rho = F F^dag (the Uhlmann form of Wootters' spectrum).  A
factor given with more than four columns is first reduced to four by a QR
step, which changes F F^dag only by rounding.  G is symmetric, so it needs
no SVD: its singular values are the top half of the eigenvalues of the
real symmetric [[Re G, Im G], [Im G, -Re G]], and for a factor with no
imaginary part, which `factor_concurrence` runs in real arithmetic
throughout, the absolute eigenvalues of G.  The numeric route hands it
real factors only: every Kraus set is real, an X state's z is taken as |z|
there, and a pure state is turned to a real amplitude column (see
`dynamics.numeric_concurrence`).  On rank-deficient states the factor
keeps the error near machine precision, where the naive chain loses half
the digits and the root of an eigendecomposition keeps the square root of
its rounding.
"""
from __future__ import annotations

import math

import numpy as np

from .linalg import _check_unit_trace, dagger
from .states import PureStateParams

# (sy x sy) is real, the antidiagonal (-1, 1, 1, -1), so M @ (sy x sy) is M
# with its columns reversed, column k times this sign: the same bits as the
# matmul, without it
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _symmetric_singular_values(g: np.ndarray) -> np.ndarray:
    # singular values, descending, of each symmetric (..., m, m) matrix g,
    # from a symmetric eigensolver: |eigenvalues| for a real g; for a
    # complex g the top m eigenvalues of the real [[Re g, Im g], [Im g,
    # -Re g]], whose spectrum is +-sigma_i (a sigma of about 0 can come
    # out slightly negative, hence the clamp)
    m = g.shape[-1]
    if np.iscomplexobj(g):
        stack = np.empty(g.shape[:-2] + (2 * m, 2 * m))
        stack[..., :m, :m] = g.real
        stack[..., m:, m:] = -g.real
        stack[..., :m, m:] = stack[..., m:, :m] = g.imag
        return np.maximum(0.0, np.linalg.eigvalsh(stack)[..., : m - 1 : -1])
    return np.sort(np.abs(np.linalg.eigvalsh(g)), axis=-1)[..., ::-1]


def _factor_spectrum(f: np.ndarray) -> np.ndarray:
    # the lambda_i, descending, of the state f f^dag: singular values of
    # the symmetric f^T (sy x sy) f, for a factor f of shape (..., 4, m)
    # with m <= 4, in real arithmetic when f is real; a narrower factor
    # has fewer singular values, and the rest are zero
    lam = _symmetric_singular_values((np.swapaxes(f, -1, -2)[..., ::-1] * _FLIP_SIGNS) @ f)
    missing = 4 - lam.shape[-1]
    return np.pad(lam, [(0, 0)] * (lam.ndim - 1) + [(0, missing)]) if missing else lam


def factor_concurrence(w: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of the state rho = w w^dag, from its factor.

    `w` has shape (..., 4, m), any number m of columns; a float for one
    factor, an array with one value per factor for a stack.  A factor
    with m > 4 is reduced to F = R^dag, with R the triangular factor of
    w^dag = Q R, so F F^dag = w w^dag.  A float64 stack is taken as is;
    any other stack with no imaginary part anywhere, whatever its dtype,
    is reduced and solved in float64 too.
    Hermiticity and positivity hold by construction; each state's unit
    trace, the squared Frobenius norm of its factor, is checked within
    PSD_CLAMP_TOL.
    """
    w = np.asarray(w)
    if w.ndim < 2 or w.shape[-2] != 4:
        raise ValueError(f"expected a factor with 4 rows, got shape {w.shape}")
    if w.dtype != float:
        w = np.asarray(w, dtype=complex)
        if not w.imag.any():
            w = w.real
    if w.shape[-1] > 4:
        w = dagger(np.linalg.qr(dagger(w), mode="r"))
    _check_unit_trace(np.add.reduce((w.conj() * w).real, axis=(-2, -1)))
    lam = _factor_spectrum(w)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_pure(params: PureStateParams) -> float:
    """Concurrence of the pure state with weights (a, b, c, d), phases (f, g, h).

    Equals 2 |sqrt(a d) - sqrt(b c) e^(i theta)| with theta = f + g - h,
    the modulus of twice the determinant of the amplitude matrix, taken as
    2 hypot(sqrt(a) sqrt(d) - sqrt(b) sqrt(c) cos theta, sqrt(b) sqrt(c)
    sin theta).  Near a product state the first term cancels, but only the
    rounding of its two products, so the absolute error stays a few ulp;
    the radicand ad + bc - 2 sqrt(abcd) cos theta of the same value would
    cancel its squares and keep about half the digits (1e-8 where C is
    1e-17).
    """
    ad = math.sqrt(params.a) * math.sqrt(params.d)
    bc = math.sqrt(params.b) * math.sqrt(params.c)
    theta = params.f + params.g - params.h
    return 2.0 * math.hypot(ad - bc * math.cos(theta), bc * math.sin(theta))

