"""Seeded random generators for states, channels and scenarios.

Everything takes an explicit numpy Generator so property suites and tests
stay reproducible.  Entangled variants resample until the initial
concurrence clears a floor; without it, states sampled arbitrarily close
to the separable boundary make death-time assertions meaningless.  An X
state's floor reads the closed form the routes run: the phase cell's at
tau = 0, which is 2 max(0, |z| - sqrt(a) sqrt(d)) bit for bit.

Each draw is a cheaper Generator call that consumes the stream as the
textbook call does and returns the same bits and types: flat Dirichlet
weights are numpy's own algorithm for alpha = 1 (four standard
exponentials times the reciprocal of their left-to-right sum), a uniform
on [lo, hi) is numpy's own lo + (hi - lo) * random(), and a complex
Ginibre matrix takes its real parts, then its imaginary parts, from one
standard_normal call.  Because a stack of Ginibre matrices is drawn in
the same order, `verification`'s `kron_algebra` and `symmetric_spectrum`
take all their cases in one `_complex_normal` call, and the twirl and
local-unitary suites turn all their cases' matrices into Haar unitaries
in one stacked QR (`_haar_from_ginibre`).  So a seed draws the same cases,
bit for bit, as the textbook calls would.  Numpy may change its streams
between releases, so `tests/test_sampling.py` pins each form to the call
it replaces on the installed numpy.  `rng.integers` is called as it is:
its bounded 32-bit draws carry buffered state from one call to the next.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .channels import NoiseKind
from .concurrence import concurrence_pure
from .dynamics import Scenario, closed_form_concurrence
from .linalg import _frobenius
from .states import Family, FamilyParams, PureStateParams, XStateParams

# Initial-concurrence floor for the "entangled" samplers.
MIN_CONCURRENCE = 0.01

NOISE_KINDS = tuple(NoiseKind)
SCENARIO_CELLS = 4 * len(NOISE_KINDS)  # the (state kind, noise) cycle of random_scenario


def _uniform(rng: np.random.Generator, low: float, high: float, size=None):
    """`rng.uniform(low, high, size)` by numpy's own formula, in a cheaper call."""
    return low + (high - low) * rng.random(size)


def _flat_dirichlet(rng: np.random.Generator) -> np.ndarray:
    """`rng.dirichlet(np.ones(4))` by numpy's own algorithm for alpha = 1:
    four standard exponentials times the reciprocal of their sum, taken
    left to right."""
    e = rng.standard_exponential(4)
    e0, e1, e2, e3 = e.tolist()
    return e * (1.0 / (e0 + e1 + e2 + e3))


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex Ginibre matrices of shape (..., rows, columns), in one draw:
    each matrix's real parts, then its imaginary parts, as two
    `standard_normal` calls of the matrix's shape draw them."""
    g = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return g[..., 0, :, :] + 1.0j * g[..., 1, :, :]


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of square Ginibre matrices:
    one stacked QR, with R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(g)
    # normalize R's diagonal phases, otherwise QR is not Haar
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_x_params(rng: np.random.Generator) -> XStateParams:
    """Cross-pattern parameters with the coherence bound satisfied.

    Weights come from a flat Dirichlet; |z| is a uniform fraction of its
    maximum sqrt(b c), so the whole admissible wedge is covered.
    """
    a, b, c, d = _flat_dirichlet(rng)
    mag = rng.random() * math.sqrt(b * c)
    z = mag * cmath.exp(1.0j * _uniform(rng, 0.0, 2.0 * math.pi))
    return XStateParams(a, b, c, d, z)


def random_entangled_x_params(rng: np.random.Generator) -> XStateParams:
    while True:
        params = random_x_params(rng)
        if closed_form_concurrence(Scenario(params, NoiseKind.PHASE), 0.0) >= MIN_CONCURRENCE:
            return params


def random_pure_params(rng: np.random.Generator) -> PureStateParams:
    a, b, c, d = _flat_dirichlet(rng)
    f, g, h = _uniform(rng, 0.0, 2.0 * math.pi, 3)
    return PureStateParams(a, b, c, d, f, g, h)


def random_entangled_pure_params(rng: np.random.Generator) -> PureStateParams:
    while True:
        params = random_pure_params(rng)
        if concurrence_pure(params) >= MIN_CONCURRENCE:
            return params


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a Ginibre matrix, phases fixed."""
    return _haar_from_ginibre(_complex_normal(rng, (2, 2)))


def ginibre_factor(rng: np.random.Generator, columns: int = 4) -> np.ndarray:
    """Factor W = G / ||G||_F of a random two-qubit state W W^dag = G G^dag / tr,
    with G a complex Ginibre matrix of shape (4, columns): full rank for
    four columns or more."""
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns!r}")
    g = _complex_normal(rng, (4, columns))
    return g / _frobenius(g)


def random_noise_kind(rng: np.random.Generator) -> NoiseKind:
    return NOISE_KINDS[rng.integers(len(NOISE_KINDS))]


def random_scenario(rng: np.random.Generator, index: int) -> Scenario:
    """One random scenario; `index` cycles kinds so a sample of n covers
    every (state kind, noise) pair about evenly."""
    state_pick = index % 4
    noise = NOISE_KINDS[(index // 4) % 3]
    if state_pick == 0:
        return Scenario(random_x_params(rng), noise)
    if state_pick == 1:
        return Scenario(random_pure_params(rng), noise)
    if state_pick == 2:
        return Scenario(FamilyParams(Family.ISOTROPIC, rng.random()), noise)
    return Scenario(FamilyParams(Family.WERNER, rng.random()), noise)
