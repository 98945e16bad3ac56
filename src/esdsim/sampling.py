"""Seeded random generators for states, channels and scenarios.

Everything takes an explicit numpy Generator so property suites and tests
stay reproducible.  Entangled variants resample until the initial
concurrence clears a floor; without it, states sampled arbitrarily close
to the separable boundary make death-time assertions meaningless.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .channels import NoiseKind
from .concurrence import concurrence_pure, concurrence_x
from .dynamics import Scenario
from .linalg import _frobenius
from .states import Family, FamilyParams, PureStateParams, XStateParams

# Initial-concurrence floor for the "entangled" samplers.
MIN_CONCURRENCE = 0.01

NOISE_KINDS = tuple(NoiseKind)
SCENARIO_CELLS = 4 * len(NOISE_KINDS)  # the (state kind, noise) cycle of random_scenario


def random_x_params(rng: np.random.Generator) -> XStateParams:
    """Cross-pattern parameters with the coherence bound satisfied.

    Weights come from a flat Dirichlet; |z| is a uniform fraction of its
    maximum sqrt(b c), so the whole admissible wedge is covered.
    """
    a, b, c, d = rng.dirichlet(np.ones(4))
    mag = rng.uniform() * math.sqrt(b * c)
    z = mag * cmath.exp(1.0j * rng.uniform(0.0, 2.0 * math.pi))
    return XStateParams(a, b, c, d, z)


def random_entangled_x_params(rng: np.random.Generator) -> XStateParams:
    while True:
        params = random_x_params(rng)
        if concurrence_x(params) >= MIN_CONCURRENCE:
            return params


def random_pure_params(rng: np.random.Generator) -> PureStateParams:
    a, b, c, d = rng.dirichlet(np.ones(4))
    f, g, h = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return PureStateParams(a, b, c, d, f, g, h)


def random_entangled_pure_params(rng: np.random.Generator) -> PureStateParams:
    while True:
        params = random_pure_params(rng)
        if concurrence_pure(params) >= MIN_CONCURRENCE:
            return params


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed 2x2 unitary via QR of a Ginibre matrix, phases fixed."""
    g = rng.standard_normal((2, 2)) + 1.0j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    # normalize R's diagonal phases, otherwise QR is not Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def ginibre_factor(rng: np.random.Generator, columns: int = 4) -> np.ndarray:
    """Factor W = G / ||G||_F of a random two-qubit state W W^dag = G G^dag / tr,
    with G a complex Ginibre matrix of shape (4, columns): full rank for
    four columns or more."""
    g = rng.standard_normal((4, columns)) + 1.0j * rng.standard_normal((4, columns))
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
        return Scenario(FamilyParams(Family.ISOTROPIC, rng.uniform()), noise)
    return Scenario(FamilyParams(Family.WERNER, rng.uniform()), noise)
