"""References the tests hold the library to, written apart from it.

`kraus_sum` is the channel of a noise on qubit 1 as the textbook writes
it, sum (K x I) rho (K x I)^dag with each K x I built by `np.kron`: the
map that `channels.apply_to_factor` applies to a factor of rho.

`reference_concurrence` builds the evolved state from the same float
inputs in mpmath at 50 digits and takes lambda_i^2 as the eigenvalues of
the Hermitian sqrt(rho) rho~ sqrt(rho) (`matrix_concurrence`, which takes
any 4x4 state), so its own error is near 1e-25.
It reads none of the closed forms and none of the library's kernels; its
Kraus operators (`kraus_operators`) and initial states (`initial_matrix`)
serve the tests' other 50-digit references too.

`reference_margin` has the sign of the evolved state's concurrence at 50
digits, from the evolved entries alone, and `reference_death` bisects that
sign for the death time; they too read nothing of the closed forms.

`x_concurrence` is the X-state formula 2 max(0, |z| - sqrt(a) sqrt(d)) in
floats, written out apart from the closed forms of `dynamics`.
"""
import math

import mpmath
import numpy as np

from esdsim.channels import NoiseKind
from esdsim.dynamics import Scenario
from esdsim.states import Family, FamilyParams, PureStateParams, XStateParams


def kraus_sum(rho, kraus):
    """sum (K x I) rho (K x I)^dag over a 2x2 `KrausSet`, on the first qubit of
    each state of `rho`; a stacked set and a stack of states broadcast."""
    lifted = np.kron(kraus.ops, np.eye(2))
    return (lifted @ rho @ lifted.conj().swapaxes(-1, -2)).sum(axis=0)


def x_concurrence(params: XStateParams) -> float:
    """2 max(0, |z| - sqrt(a) sqrt(d)), the concurrence of an X state; the
    product a d would underflow at weights below about 1e-162."""
    return 2.0 * max(0.0, abs(params.z) - math.sqrt(params.a) * math.sqrt(params.d))


MP = mpmath.mp.clone()
MP.dps = 50
# sy x sy is the antidiagonal with these signs, row by row
_FLIP = (-1, 1, 1, -1)


def _kron_first(k):
    # K x I for a 2x2 K, as a 4x4 mpmath matrix
    out = MP.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            for q in range(2):
                out[2 * i + q, 2 * j + q] = k[i][j]
    return out


def kraus_operators(kind: NoiseKind, tau: float):
    mp = MP
    decay = mp.exp(-mp.mpf(tau) / 2)
    if kind is NoiseKind.AMPLITUDE:
        return [[[decay, 0], [0, 1]], [[0, 0], [mp.sqrt(1 - decay**2), 0]]]
    if kind is NoiseKind.PHASE:
        return [[[1, 0], [0, decay]], [[0, 0], [0, mp.sqrt(1 - decay**2)]]]
    p = 1 - decay
    s, w = mp.sqrt(1 - p), mp.sqrt(p / 3)
    return [
        [[s, 0], [0, s]],
        [[0, w], [w, 0]],
        [[0, 1j * w], [-1j * w, 0]],
        [[w, 0], [0, -w]],
    ]


def _x_matrix(a, b, c, d, z):
    rho = MP.zeros(4, 4)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = a, b, c, d
    rho[1, 2] = z
    rho[2, 1] = MP.conj(z)
    return rho


def initial_matrix(state):
    mp = MP
    if isinstance(state, XStateParams):
        return _x_matrix(state.a, state.b, state.c, state.d, mp.mpc(state.z))
    if isinstance(state, FamilyParams):
        x = mp.mpf(state.x)
        if state.family is Family.ISOTROPIC:
            corner, mid, z = (1 - x) / 3, (2 * x + 1) / 6, (4 * x - 1) / 6
        else:
            corner, mid, z = (1 - x) / 4, (1 + x) / 4, -x / 2
        return _x_matrix(corner, mid, mid, corner, z)
    amps = [
        mp.sqrt(state.a),
        mp.sqrt(state.b) * mp.expj(state.f),
        mp.sqrt(state.c) * mp.expj(state.g),
        mp.sqrt(state.d) * mp.expj(state.h),
    ]
    return mp.matrix([[ai * mp.conj(aj) for aj in amps] for ai in amps])


def _psd_sqrt(h):
    mp = MP
    e, q = mp.eighe(h)
    root = mp.diag([mp.sqrt(max(v, 0)) for v in e])
    return q * root * q.transpose_conj()


def reference_concurrence(scenario: Scenario, tau: float) -> float:
    """Wootters concurrence of the evolved state at 50 digits."""
    mp = MP
    rho0 = initial_matrix(scenario.state)
    rho = mp.zeros(4, 4)
    for k in kraus_operators(scenario.noise, tau):
        lifted = _kron_first(k)
        rho += lifted * rho0 * lifted.transpose_conj()
    return matrix_concurrence(rho)


def matrix_concurrence(rho) -> float:
    """Wootters concurrence at 50 digits of a 4x4 state, an mpmath matrix or
    the float entries of a numpy array."""
    mp = MP
    rho = mp.matrix(np.asarray(rho).tolist()) if isinstance(rho, np.ndarray) else rho
    flipped = mp.matrix(
        [[_FLIP[i] * _FLIP[j] * mp.conj(rho[3 - i, 3 - j]) for j in range(4)] for i in range(4)]
    )
    root = _psd_sqrt(rho)
    h = root * flipped * root
    h = (h + h.transpose_conj()) / 2  # Hermitian up to the last digits
    lam = sorted((mp.sqrt(max(v, 0)) for v in mp.eighe(h)[0]), reverse=True)
    return float(max(0, lam[0] - lam[1] - lam[2] - lam[3]))


def _evolved_entry(kraus, rho0, row: int, col: int):
    # entry (row, col) of the sum over K of (K x I) rho0 (K x I)^dag; an
    # index is 2 * (qubit 1) + (qubit 2), and the noise acts on qubit 1
    (i, q), (j, r) = divmod(row, 2), divmod(col, 2)
    return sum(
        k[i][m] * rho0[2 * m + q, 2 * n + r] * MP.conj(k[j][n])
        for k in kraus for m in range(2) for n in range(2)
    )


def reference_margin(scenario: Scenario, tau):
    """A number with the sign of the evolved state's concurrence at 50 digits:
    |rho12| - sqrt(rho00 rho33) for the X-pattern kinds, and for a pure
    state -det of the partial transpose, which is negative exactly on the
    separable two-qubit states (Augusiak, Demianowicz and Horodecki, Phys.
    Rev. A 77, 030301, 2008)."""
    mp = MP
    kraus, rho0 = kraus_operators(scenario.noise, tau), initial_matrix(scenario.state)
    if not isinstance(scenario.state, PureStateParams):
        corners = mp.re(_evolved_entry(kraus, rho0, 0, 0) * _evolved_entry(kraus, rho0, 3, 3))
        return abs(_evolved_entry(kraus, rho0, 1, 2)) - mp.sqrt(corners)
    # partial transpose on qubit 2: (i q, j r) takes the entry (i r, j q)
    pt = mp.matrix(
        [[_evolved_entry(kraus, rho0, row - row % 2 + col % 2, col - col % 2 + row % 2)
          for col in range(4)] for row in range(4)]
    )
    return -mp.re(mp.det(pt))


# past this time every state that the boundary tests draw and that dies is
# dead; a death past it reads as None, an asymptotic decay
_FAR = 300.0


def reference_death(scenario: Scenario):
    """The death time by bisection of the sign at 50 digits, or None where the
    state is still entangled at _FAR; the state must be entangled at 0."""
    mp = MP
    assert reference_margin(scenario, 0) > 0
    if reference_margin(scenario, _FAR) > 0:
        return None
    lo, hi = mp.mpf(0), mp.mpf(1)
    while reference_margin(scenario, hi) > 0:
        lo, hi = hi, 2 * hi
    while hi - lo > hi * mp.mpf("1e-15"):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if reference_margin(scenario, mid) > 0 else (lo, mid)
    return (lo + hi) / 2
