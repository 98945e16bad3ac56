"""Two-qubit state records: X states, pure states, isotropic and Werner.

Basis order is |00>, |01>, |10>, |11> throughout.  The X family carries a
diagonal (a, b, c, d) and a single central coherence z at entries (1, 2) and
(2, 1); all displayed evolutions stay inside this family, which is why the
closed-form concurrences exist.  A record is checked once, when it is
built, and is the one input of every state: `state_matrix` gives its 4x4
density matrix and `state_factor` a factor W of it, rho = W W^dag.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import _check_psd, _check_unit_trace, _hermitian_part, _not_member

# Weights are user input, so their sum check is tight.
WEIGHT_SUM_TOL = 1e-12

# Structural tolerance for X-pattern extraction; the channels preserve the
# pattern exactly, so this only absorbs rounding.
X_PATTERN_TOL = 1e-10


class Family(enum.Enum):
    ISOTROPIC = "isotropic"
    WERNER = "werner"


def _check_record(record, what: str) -> None:
    """Every field finite, the weights a..d nonnegative and summing to 1."""
    # finiteness first: the range checks compare with < and >, which NaN passes
    for name, value in vars(record).items():
        if not cmath.isfinite(value):
            raise ValueError(f"{what} parameter {name} must be finite, got {value!r}")
    for name in ("a", "b", "c", "d"):
        if getattr(record, name) < 0:
            raise ValueError(f"{what} weight {name} must be nonnegative")
    total = record.a + record.b + record.c + record.d
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"{what} weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class XStateParams:
    """Diagonal weights and central coherence of an X-form density matrix."""

    a: float
    b: float
    c: float
    d: float
    z: complex

    def __post_init__(self) -> None:
        _check_record(self, "X-state")
        # least eigenvalue of the central block [[b, z], [z*, c]], under the
        # allowance and wording of every matrix check
        b, c = self.b, self.c
        least = ((b + c) - math.hypot(b - c, 2.0 * abs(self.z))) / 2.0
        _check_psd(np.float64(least))
        if least < 0.0:  # admitted: both routes read the PSD block at |z| = sqrt(b c)
            object.__setattr__(self, "z", self.z * (math.sqrt(b) * math.sqrt(c) / abs(self.z)))


@dataclass(frozen=True)
class PureStateParams:
    """Amplitude-squared weights a..d and phases f, g, h of a pure state."""

    a: float
    b: float
    c: float
    d: float
    f: float = 0.0
    g: float = 0.0
    h: float = 0.0

    def __post_init__(self) -> None:
        _check_record(self, "pure-state")


@dataclass(frozen=True)
class FamilyParams:
    """Mixing weight x of a one-parameter (isotropic or Werner) family.

    Werner: (1-x) I/4 + x times the singlet projector.  Isotropic: diagonal
    ((1-x)/3, (2x+1)/6, (2x+1)/6, (1-x)/3) with central coherence (4x-1)/6,
    I/4 at x = 1/4 and a maximally entangled central-block projector at
    x = 1.
    """

    family: Family
    x: float

    def __post_init__(self) -> None:
        if not isinstance(self.family, Family):
            raise _not_member(self.family, Family)
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"mixing weight x must lie in [0, 1], got {self.x!r}")


def validate_density_matrix(mat: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array.

    `mat` is one matrix or a stack of them with shape (..., n, n); every
    matrix is checked by the `linalg` checks, within the rounding
    allowance `linalg.PSD_CLAMP_TOL`.  Raises ValueError naming the
    violated property and, for a stack, the index of the first matrix that
    violates it.
    """
    mat = np.asarray(mat, dtype=complex)
    herm = _hermitian_part(mat)
    _check_unit_trace(mat.trace(axis1=-2, axis2=-1))
    _check_psd(np.linalg.eigvalsh(herm)[..., 0])
    return mat


def x_entries(params: XStateParams | FamilyParams) -> tuple:
    """The entries (a, b, c, d, z) of an X-pattern record: its diagonal
    weights and central coherence.  An X record's z comes as a complex, so
    that a real z conjugates to -0j in its matrix; a family's z is real and
    keeps its sign."""
    if isinstance(params, XStateParams):
        return params.a, params.b, params.c, params.d, complex(params.z)
    x = params.x
    if params.family is Family.ISOTROPIC:
        corner, mid, z = (1.0 - x) / 3.0, (2.0 * x + 1.0) / 6.0, (4.0 * x - 1.0) / 6.0
    else:
        corner, mid, z = (1.0 - x) / 4.0, (1.0 + x) / 4.0, -x / 2.0
    return corner, mid, mid, corner, z


def _pure_amplitudes(params: PureStateParams) -> np.ndarray:
    return np.array(
        [
            math.sqrt(params.a),
            math.sqrt(params.b) * cmath.exp(1j * params.f),
            math.sqrt(params.c) * cmath.exp(1j * params.g),
            math.sqrt(params.d) * cmath.exp(1j * params.h),
        ]
    )


def pure_factor(params: PureStateParams) -> np.ndarray:
    """The amplitude column w, shape (4, 1), with state_matrix(params) = w w^dag;
    float64 when no phase leaves an imaginary part, else complex128."""
    amps = _pure_amplitudes(params)
    return (amps if amps.imag.any() else amps.real)[:, None]


def x_factor(a, b, c, d, z) -> np.ndarray:
    """A factor w, shape (4, 4), with w w^dag the X-pattern state of the
    entries (a, b, c, d, z), such as `x_entries` gives for a checked record.

    Columns: sqrt(a) |00>, sqrt(d) |11>, and the two columns of the PSD
    square root of the central block M = [[b, z], [z*, c]], in closed form
    (M + s I) / t with s = sqrt(det M) and t = sqrt(b + c + 2 s).  No
    matrix is built and no eigendecomposition is taken, so a zero weight
    gives an exactly zero column and a rank-1 central block a rank-1 pair
    of columns, up to the rounding of det M.  A det M below zero (raw entries
    with a least eigenvalue within -PSD_CLAMP_TOL: an `XStateParams` reads
    such a block at |z| = sqrt(b c)) takes s = 0 and t^2 = tr(M^2) / (b + c),
    so w w^dag keeps the state's trace and lies within about that eigenvalue
    of it.  The factor is float64 when z is real, else complex128.
    """
    z = complex(z)
    z = z if z.imag else z.real  # a real state gets a real factor
    det = b * c - abs(z) ** 2
    s = math.sqrt(max(det, 0.0))
    t = math.sqrt(b + c + 2.0 * s)
    w = np.zeros((4, 4), dtype=type(z))
    w[0, 0], w[3, 1] = math.sqrt(a), math.sqrt(d)
    if t > 0.0:  # else the central block is zero within the X-state checks
        if det < 0.0:
            # tr(M^2) = (b + c)^2 - 2 det M, and (M / t)^2 has trace b + c
            t = math.sqrt(b + c - 2.0 * det / (b + c))
        w[1:3, 2:4] = [[(b + s) / t, z / t], [z.conjugate() / t, (c + s) / t]]
    return w


StateParams = Union[XStateParams, PureStateParams, FamilyParams]


def state_kind(params: StateParams):
    """The kind of a record: its class, or the `Family` of a `FamilyParams`."""
    return getattr(params, "family", type(params))


def state_matrix(params: StateParams) -> np.ndarray:
    """The (4, 4) density matrix of one record: the projector of its
    amplitudes sqrt(a)|00> + sqrt(b)e^{if}|01> + sqrt(c)e^{ig}|10> +
    sqrt(d)e^{ih}|11> for a pure state, else the X pattern of its entries
    (`x_entries`).  The record was checked when built; the matrix is not
    checked again."""
    if isinstance(params, PureStateParams):
        amps = _pure_amplitudes(params)
        return amps[:, None] * amps.conj()
    a, b, c, d, z = x_entries(params)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = a, b, c, d
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    return rho


def state_factor(params: StateParams) -> np.ndarray:
    """A factor w with w w^dag = state_matrix(params): `pure_factor` for a
    pure state, else `x_factor` of its entries; float64 for a real state,
    complex128 otherwise."""
    return pure_factor(params) if isinstance(params, PureStateParams) else x_factor(*x_entries(params))


# Entries allowed to be nonzero in the X pattern (central coherence only).
_X_PATTERN = {(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}


def as_x_params(rho: np.ndarray) -> XStateParams:
    """Extract (a, b, c, d, z) from a matrix in the X pattern.

    Every entry outside the diagonal-plus-central-coherence pattern must have
    magnitude at most X_PATTERN_TOL; the offending entry is named otherwise.
    The returned params rebuild the input within X_PATTERN_TOL entrywise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    for i in range(4):
        for j in range(4):
            if (i, j) not in _X_PATTERN and abs(rho[i, j]) > X_PATTERN_TOL:
                raise ValueError(
                    f"matrix is not in X form: entry ({i}, {j}) has magnitude "
                    f"{abs(rho[i, j]):.3e} > tol {X_PATTERN_TOL:.3e}"
                )
    if abs(rho[2, 1] - rho[1, 2].conjugate()) > X_PATTERN_TOL:
        raise ValueError("matrix is not in X form: central coherences are not conjugate")
    diag = rho.diagonal()
    if np.abs(diag.imag).max() > X_PATTERN_TOL:
        raise ValueError("matrix is not in X form: diagonal has imaginary part")
    return XStateParams(
        float(diag[0].real),
        float(diag[1].real),
        float(diag[2].real),
        float(diag[3].real),
        complex(rho[1, 2]),
    )
