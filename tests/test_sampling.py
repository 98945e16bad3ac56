"""The cheap draws of `sampling` against the numpy calls they replace.

Each replacement must consume the Generator's stream as the call it
replaces does and return the same bits, with the same types: the suites'
reproduction strings (and so `DRAW_DIGESTS`) hold the reprs of what they
draw.  Numpy may change its streams between releases, so these run on
whatever numpy is installed.
"""
import math

import numpy as np
import pytest

from esdsim import sampling, verification
from esdsim.linalg import _frobenius
from esdsim.verification import run_all

SEEDS = range(200)

# every (low, high, size) that a sampler or a suite passes to
# sampling._uniform
UNIFORM_ARGS = [
    (0.0, 1.0, None),
    (0.0, 2.0 * math.pi, None),
    (0.0, 2.0 * math.pi, 3),
    (0.5, 0.9, None),
    (0.0, 3.0, 2),
    (0.0, 50.0, None),
] + [(lo, hi, None) for _, _, lo, hi in verification._FAMILY_DEATH_WINDOWS]


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_draw(got, want, old, new):
    # the same type, dtype, shape and bits, and the streams left alike
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    else:
        assert got.hex() == want.hex()
    assert new.bit_generator.state == old.bit_generator.state


def _two_call_complex(rng, shape):
    # one matrix's real parts, then its imaginary parts, matrix by matrix
    lead, matrix = shape[:-2], shape[-2:]
    draws = [rng.standard_normal(matrix) + 1.0j * rng.standard_normal(matrix)
             for _ in np.ndindex(*lead)]
    return np.stack(draws).reshape(shape)


def _qr_haar(rng):
    # a Haar unitary as one 2x2 QR of a two-call Ginibre matrix
    g = rng.standard_normal((2, 2)) + 1.0j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_flat_dirichlet_is_numpys_dirichlet():
    for seed in SEEDS:
        old, new = _pair(seed)
        for _ in range(3):
            assert_same_draw(sampling._flat_dirichlet(new), old.dirichlet(np.ones(4)), old, new)


@pytest.mark.parametrize("low, high, size", UNIFORM_ARGS)
def test_uniform_is_numpys_uniform(low, high, size):
    for seed in SEEDS:
        old, new = _pair(seed)
        assert_same_draw(sampling._uniform(new, low, high, size), old.uniform(low, high, size), old, new)


def test_random_is_the_unit_uniform():
    # rng.random() stands for rng.uniform(), one case at a time or stacked
    for seed in SEEDS:
        old, new = _pair(seed)
        assert_same_draw(new.random(), old.uniform(), old, new)
        for n in (1, 4, 100):
            assert new.random(n).tolist() == [float(old.uniform()) for _ in range(n)]
            assert new.bit_generator.state == old.bit_generator.state


def test_suites_pass_only_pinned_uniform_args(monkeypatch):
    seen = set()

    def uniform(rng, low, high, size=None):
        seen.add((low, high, size))
        return draw(rng, low, high, size)

    draw = sampling._uniform
    monkeypatch.setattr(sampling, "_uniform", uniform)
    for seed in range(3):
        run_all(seed, 40)
    assert seen and seen <= set(UNIFORM_ARGS)


@pytest.mark.parametrize(
    "shape",
    [(2, 2), (4, 4), (2, 2, 2), (5, 4, 2, 2), (3, 4, 4)] + [(4, m) for m in range(1, 17)],
)
def test_complex_normal_is_two_standard_normal_calls(shape):
    for seed in SEEDS:
        old, new = _pair(seed)
        assert_same_draw(sampling._complex_normal(new, shape), _two_call_complex(old, shape), old, new)


def test_ginibre_factor_is_the_two_call_draw():
    for seed in SEEDS:
        old, new = _pair(seed)
        for m in (1, 4, 15):
            g = _two_call_complex(old, (4, m))
            assert_same_draw(sampling.ginibre_factor(new, m), g / _frobenius(g), old, new)


def test_haar_unitary_is_the_per_matrix_qr():
    for seed in SEEDS:
        old, new = _pair(seed)
        assert_same_draw(sampling.haar_unitary(new), _qr_haar(old), old, new)


def test_stacked_haar_unitaries_are_the_per_matrix_qrs():
    # what the twirl and local-unitary suites take: each case's Ginibre
    # matrices drawn in turn, then one QR of the stack
    for seed in SEEDS:
        old, new = _pair(seed)
        want = np.stack([_qr_haar(old) for _ in range(6)]).reshape(3, 2, 2, 2)
        g = np.stack([sampling._complex_normal(new, (2, 2, 2)) for _ in range(3)])
        assert_same_draw(sampling._haar_from_ginibre(g), want, old, new)


@pytest.mark.parametrize("columns", [0, -1])
def test_ginibre_factor_needs_a_column(columns):
    with pytest.raises(ValueError, match="columns must be at least 1"):
        sampling.ginibre_factor(np.random.default_rng(0), columns)
