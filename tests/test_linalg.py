import numpy as np
import pytest

from esdsim.concurrence import _FLIP_SIGNS, factor_concurrence
from esdsim.linalg import _check_psd, _frobenius, _hermitian_part, dagger
from esdsim.states import XStateParams, state_matrix, validate_density_matrix

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_complex(rng, n=2):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_kron_sigma_y_pair_is_real_antidiagonal():
    # sy x sy, whose column reversal times _FLIP_SIGNS the spectrum kernel
    # takes in place of the matmul
    expected = np.zeros((4, 4))
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    np.testing.assert_array_equal(np.kron(SIGMA_Y, SIGMA_Y), expected)
    np.testing.assert_array_equal(expected, np.eye(4)[::-1] * _FLIP_SIGNS)


def test_dagger():
    rng = np.random.default_rng(13)
    a = random_complex(rng, 4)
    np.testing.assert_allclose(dagger(a), a.conj().T, atol=0)


def test_x_matrix_spectrum():
    # central block [[0.4, 0.2], [0.2, 0.4]] contributes 0.6 and 0.2,
    # the outer diagonal contributes 0.1 twice
    rho = state_matrix(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2))
    np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.1, 0.1, 0.2, 0.6], atol=1e-12)


def random_density_stack(rng, n):
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    h = g @ dagger(g)
    return h / np.trace(h, axis1=-2, axis2=-1).real[:, None, None]


def test_stacks_match_one_matrix_at_a_time():
    rng = np.random.default_rng(17)
    stack = random_density_stack(rng, 7)
    stack[2] = np.diag([1.0, 0.0, 0.0, 0.0])  # rank-deficient member
    assert validate_density_matrix(stack).tobytes() == stack.tobytes()
    parts, norms = _hermitian_part(stack), _frobenius(stack)
    assert parts.shape == (7, 4, 4) and norms.shape == (7,)
    for i, h in enumerate(stack):
        validate_density_matrix(h)
        assert parts[i].tobytes() == _hermitian_part(h).tobytes()
        assert norms[i] == _frobenius(h)
        assert dagger(stack)[i].tobytes() == dagger(h).tobytes()


def test_stack_errors_name_the_failing_member():
    rng = np.random.default_rng(18)
    stack = random_density_stack(rng, 5)
    skew = stack.copy()
    skew[3, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="index 3 is not Hermitian"):
        validate_density_matrix(skew)
    negative = stack.copy()
    negative[1] = np.diag([0.5, 0.5, -1e-3, 1e-3])
    with pytest.raises(ValueError, match="index 1 is not PSD"):
        validate_density_matrix(negative)
    with pytest.raises(ValueError, match=r"index \(1, 0\) is not PSD"):
        validate_density_matrix(negative.reshape(5, 1, 4, 4))
    with pytest.raises(ValueError, match="square"):
        validate_density_matrix(np.ones((3, 4, 2)))


NOT_HERMITIAN = r"^matrix at index 1 is not Hermitian: defect \S+ > tol 1\.000e-10$"
NOT_PSD = r"^matrix at index 3 is not PSD: min eigenvalue -2\.000e-01 < -1\.000e-10$"


def test_nan_fails_the_hermitian_check():
    # NaN fails every comparison, so each check must not read it as within
    # PSD_CLAMP_TOL; a NaN member of a stack is named by its index
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: defect nan > tol 1\.000e-10$"):
        validate_density_matrix(np.full((4, 4), np.nan))
    with pytest.raises(ValueError, match="^matrix at index 1 is not Hermitian: defect nan"):
        validate_density_matrix(np.stack([np.eye(4) / 4, np.full((4, 4), np.nan)]))


def test_nan_fails_the_unit_trace_check():
    with pytest.raises(ValueError, match=r"^density matrix trace must be 1, got \(nan\+0j\)$"):
        factor_concurrence(np.full((4, 1), np.nan))
    with pytest.raises(ValueError, match=r"^density matrix at index 1 trace must be 1, got \(nan"):
        factor_concurrence(np.stack([np.eye(4) / 2, np.full((4, 4), np.nan)]))


def test_nan_fails_the_psd_check():
    with pytest.raises(ValueError, match="^matrix is not PSD: min eigenvalue nan"):
        _check_psd(np.float64(np.nan))
    with pytest.raises(ValueError, match="^matrix at index 1 is not PSD: min eigenvalue nan"):
        _check_psd(np.array([0.0, np.nan, -1.0]))


def test_every_state_check_speaks_one_wording():
    # each route that checks a state raises the same text, naming the member
    good = np.stack([state_matrix(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)), np.eye(4) / 4] * 2)
    skew, heavy, negative = good.copy(), good.copy(), good.copy()
    skew[1, 0, 1] = 1e-3
    heavy[2] *= 1.5
    negative[3] = np.diag([1.2, -0.2, 0.0, 0.0])
    cases = (
        (skew, NOT_HERMITIAN),
        (heavy, r"^density matrix at index 2 trace must be 1, got \(1\.5\S*\+0j\)$"),
        (negative, NOT_PSD),
    )
    validate_density_matrix(good)
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            validate_density_matrix(bad)
    # a factor's state is Hermitian and PSD by construction; its trace is
    # checked in the same words
    factors = np.stack([np.eye(4) / 2] * 4)
    factors[2] = np.diag([1.0, 0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match=r"^density matrix at index 2 trace must be 1, got \(1\.5\S*\+0j\)$"):
        factor_concurrence(factors)
    # and a record's central block is checked for positivity in them too
    with pytest.raises(ValueError, match=r"^matrix is not PSD: min eigenvalue -2\.000e-01 < -1\.000e-10$"):
        XStateParams(0.4, 0.2, 0.2, 0.2, 0.4)
