import math

import mpmath
import numpy as np
import pytest

from esdsim.channels import NoiseKind
from esdsim.concurrence import (
    _FLIP_SIGNS,
    _factor_spectrum,
    _symmetric_singular_values,
    concurrence_pure,
    factor_concurrence,
)
from esdsim.dynamics import Scenario, _evolve, closed_form_concurrence
from esdsim.sampling import random_x_params
from esdsim.states import (
    Family,
    FamilyParams,
    PureStateParams,
    XStateParams,
    pure_factor,
    state_factor,
)
from esdsim.verification import _concurrence_pure_determinant
from reference import matrix_concurrence, x_concurrence


def test_spin_flip_constant():
    # the spectrum kernel's column reversal times _FLIP_SIGNS is the matmul
    # with sy x sy, bit for bit, on real and complex stacks
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    rng = np.random.default_rng(29)
    real = rng.standard_normal((6, 3, 4))
    for m in (real, real + 1j * rng.standard_normal((6, 3, 4))):
        np.testing.assert_array_equal(m[..., ::-1] * _FLIP_SIGNS, m @ np.kron(sy, sy))


def test_bell_state_concurrence_is_one():
    psi_plus = XStateParams(0.0, 0.5, 0.5, 0.0, 0.5)
    assert x_concurrence(psi_plus) == 1.0
    np.testing.assert_allclose(factor_concurrence(state_factor(psi_plus)), 1.0, atol=1e-12)
    phi_plus = PureStateParams(0.5, 0.0, 0.0, 0.5)
    np.testing.assert_allclose(concurrence_pure(phi_plus), 1.0, atol=1e-15)
    np.testing.assert_allclose(factor_concurrence(pure_factor(phi_plus)), 1.0, atol=1e-12)


def test_separable_states_have_zero_concurrence():
    assert factor_concurrence(np.eye(4, 1, dtype=complex)) <= 1e-12
    assert factor_concurrence(np.eye(4) / 2) <= 1e-12
    # equal-weight product state: radicand cancels exactly
    assert concurrence_pure(PureStateParams(0.25, 0.25, 0.25, 0.25)) == 0.0


def test_factor_spectrum_known_cases():
    # the lambda_i of the Bell state and of the maximally mixed state, from
    # a factor of each
    lam = _factor_spectrum(state_factor(XStateParams(0.0, 0.5, 0.5, 0.0, 0.5)))
    np.testing.assert_allclose(lam, [1, 0, 0, 0], atol=1e-12)
    lam = _factor_spectrum(np.eye(4) / 2)
    np.testing.assert_allclose(lam, [0.25] * 4, atol=1e-12)


def test_concurrence_x_formula_cases():
    # 2 max(0, |z| - sqrt(a d)), the reference the closed form is held to
    assert x_concurrence(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)) == pytest.approx(0.2)
    assert x_concurrence(XStateParams(0.25, 0.25, 0.25, 0.25, 0.1)) == 0.0
    assert x_concurrence(XStateParams(0.1, 0.4, 0.4, 0.1, 0.1 + 0.1j)) == pytest.approx(
        2 * (math.hypot(0.1, 0.1) - 0.1)
    )


def test_concurrence_x_keeps_sqrt_ad_at_tiny_weights():
    # below weights of about 1e-162 the product a d underflows, and
    # sqrt(a d) with it; sqrt(a) sqrt(d) keeps it.  One separable record,
    # one entangled, each against the closed form at tau = 0 and 50 digits
    mp = mpmath.mp.clone()
    mp.dps = 50
    for z in (5e-171, 2e-170):
        params = XStateParams(1e-170, 0.5, 0.5 - 2e-170, 1e-170, z)
        exact = 2 * max(0, mp.mpf(z) - mp.sqrt(mp.mpf(params.a) * mp.mpf(params.d)))
        c = x_concurrence(params)
        assert c == closed_form_concurrence(Scenario(params, NoiseKind.PHASE), 0.0)
        assert c == pytest.approx(float(exact), rel=1e-15, abs=0)


def test_phase_cell_at_tau_zero_is_the_x_formula_bit_for_bit():
    # the closed form that the sampler floor and verify's
    # concurrence_x_oracle read: the phase cell at tau = 0 equals the X
    # formula in every bit, sign of zero included, on 20000 draws and on
    # records of weights near 1e-170
    def same_bits(params):
        closed = float(closed_form_concurrence(Scenario(params, NoiseKind.PHASE), 0.0))
        return closed.hex() == x_concurrence(params).hex()

    rng = np.random.default_rng(11)
    assert all(same_bits(random_x_params(rng)) for _ in range(20000))
    for z in (5e-171, 2e-170):
        assert same_bits(XStateParams(1e-170, 0.5, 0.5 - 2e-170, 1e-170, z))


def test_concurrence_x_matches_wootters():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        a, b, c, d = rng.dirichlet(np.ones(4))
        z = rng.uniform() * np.sqrt(b * c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        params = XStateParams(a, b, c, d, z)
        worst = max(
            worst, abs(x_concurrence(params) - factor_concurrence(state_factor(params)))
        )
    assert worst <= 1e-9


def test_concurrence_pure_matches_wootters_and_determinant():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        a, b, c, d = rng.dirichlet(np.ones(4))
        f, g, h = rng.uniform(0, 2 * np.pi, size=3)
        params = PureStateParams(a, b, c, d, f, g, h)
        cp = concurrence_pure(params)
        worst = max(worst, abs(cp - factor_concurrence(pure_factor(params))))
        worst = max(worst, abs(cp - _concurrence_pure_determinant(params)))
    assert worst <= 1e-9


def _near_product_or_random_pure(rng: np.random.Generator, n: int):
    # every other draw lies near a product state: weights p q, p (1 - q),
    # (1 - p) q, (1 - p)(1 - q) and h = f + g, each nudged by a relative
    # amount log-uniform in [1e-16, 1e-4]; the others are flat draws
    for i in range(n):
        f, g = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if i % 2:
            p, q = rng.uniform(size=2)
            w = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
            w = w * (1.0 + 10.0 ** rng.uniform(-16.0, -4.0, 4) * rng.choice([-1.0, 1.0], 4))
            h = f + g + 10.0 ** rng.uniform(-16.0, -4.0) * rng.choice([-1.0, 1.0])
        else:
            w = rng.dirichlet(np.ones(4))
            h = rng.uniform(0.0, 2.0 * math.pi)
        yield PureStateParams(*(w / w.sum()).tolist(), float(f), float(g), float(h))


def test_concurrence_pure_near_product_states_against_50_digits():
    # the textbook radicand ad + bc - 2 sqrt(abcd) cos(theta), evaluated at
    # 50 digits from the same floats; in floats it cancels near product
    # states and lost half the digits there (1e-8 where C is 1e-17)
    mp = mpmath.mp.clone()
    mp.dps = 50
    worst = 0.0
    for params in _near_product_or_random_pure(np.random.default_rng(2024), 20000):
        a, b, c, d = (mp.mpf(w) for w in (params.a, params.b, params.c, params.d))
        theta = mp.mpf(params.f) + params.g - params.h
        radicand = a * d + b * c - 2 * mp.sqrt(a * b * c * d) * mp.cos(theta)
        want = 2 * mp.sqrt(max(radicand, 0))
        worst = max(worst, abs(concurrence_pure(params) - float(want)))
    # 6.7e-16 measured; the float theta alone can be off by an ulp of 4 pi
    assert worst <= 2e-15


def test_family_initial_concurrences():
    # isotropic: max(0, 2x - 1); Werner: max(0, (3x - 1)/2)
    for x in np.linspace(0.0, 1.0, 11):
        isotropic = state_factor(FamilyParams(Family.ISOTROPIC, x))
        np.testing.assert_allclose(factor_concurrence(isotropic), max(0.0, 2 * x - 1), atol=1e-9)
        werner = state_factor(FamilyParams(Family.WERNER, x))
        np.testing.assert_allclose(factor_concurrence(werner), max(0.0, (3 * x - 1) / 2), atol=1e-9)


def test_concurrence_pure_phase_dependence():
    # at f + g - h = 0 the interference term is fully destructive
    base = dict(a=0.2, b=0.3, c=0.3, d=0.2)
    aligned = concurrence_pure(PureStateParams(**base, f=0.4, g=0.6, h=1.0))
    anti = concurrence_pure(PureStateParams(**base, f=0.4, g=0.6, h=1.0 - np.pi))
    expected_aligned = 2 * math.sqrt(0.13 - 2 * math.sqrt(0.0036))
    expected_anti = 2 * math.sqrt(0.13 + 2 * math.sqrt(0.0036))
    np.testing.assert_allclose(aligned, expected_aligned, atol=1e-12)
    np.testing.assert_allclose(anti, expected_anti, atol=1e-12)


def test_wootters_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_concurrence(np.eye(2) / np.sqrt(2))
    with pytest.raises(ValueError):
        factor_concurrence(np.eye(4))  # trace 4


def test_wootters_accuracy_on_rank_deficient_states():
    # rank-deficient inputs are exactly where the naive eigenvalue chain
    # loses half its digits; the implementation must stay near machine eps
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(100):
        a, b, c, d = rng.dirichlet(np.ones(4))
        params = PureStateParams(a, b, c, d, *rng.uniform(0, 2 * np.pi, size=3))
        worst = max(
            worst,
            abs(concurrence_pure(params) - factor_concurrence(pure_factor(params))),
        )
    assert worst <= 1e-12


def test_wootters_on_a_stack_matches_each_state():
    # pure columns padded with zero columns beside X-state factors
    rng = np.random.default_rng(44)
    factors = []
    for _ in range(6):
        a, b, c, d = rng.dirichlet(np.ones(4))
        pure = pure_factor(PureStateParams(a, b, c, d, *rng.uniform(0, 2 * np.pi, size=3)))
        factors.append(np.hstack([pure, np.zeros((4, 3))]))
        factors.append(state_factor(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2 * rng.uniform())))
    stack = np.stack(factors)
    lam = _factor_spectrum(stack)
    c = factor_concurrence(stack)
    assert lam.shape == (12, 4) and c.shape == (12,)
    for i, w in enumerate(factors):
        np.testing.assert_allclose(lam[i], _factor_spectrum(w), atol=1e-15)
        assert abs(c[i] - factor_concurrence(w)) <= 1e-15
    stack[7] *= 1.1
    with pytest.raises(ValueError, match="index 7 trace must be 1"):
        factor_concurrence(stack)


def test_wootters_solves_each_state_once(monkeypatch):
    # a factor needs no eigendecomposition of its state and no PSD check:
    # the one eigvalsh is the spectrum's, on the stacked real (..., 8, 8)
    # form of G for complex factors
    xs = np.linspace(0.0, 1.0, 4)
    stack = np.stack([state_factor(FamilyParams(family, x)) for family in Family for x in xs])
    stack = stack * np.exp(0.3j)  # a global phase: the same states, complex factors
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            shapes[_name].append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert factor_concurrence(stack).shape == (8,)
    assert shapes == {"eigh": [], "eigvalsh": [(8, 8, 8)]}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symmetric_singular_values_match_the_svd(dtype, m):
    # G = v^T v is symmetric (complex symmetric, not Hermitian, for a
    # complex v) of rank r; r = 0 is the all-zero G
    rng = np.random.default_rng(46)
    eps = np.finfo(float).eps
    for r in range(m + 1):
        v = rng.standard_normal((200, r, m)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal((200, r, m))
        g = np.swapaxes(v, -1, -2) @ v
        lam = _symmetric_singular_values(g)
        ref = np.linalg.svd(g, compute_uv=False)
        assert lam.shape == ref.shape == (200, m)
        assert (lam >= 0.0).all() and (np.diff(lam, axis=-1) <= 0.0).all()
        assert (np.abs(lam - ref) <= 16 * eps * ref[:, :1]).all()
        if r == 0:
            assert not lam.any()


def _evolved_factor(state, kind: str) -> np.ndarray:
    scenario = Scenario(state, NoiseKind(kind))
    return _evolve(state_factor(state), scenario.noise, np.linspace(0.0, 50.0, 2048))


# cells whose evolved factor is real: every Kraus set is real, and so are
# the factors of the family states, of an X state with a real z and of a
# pure state with zero phases
_REAL_CELLS = [
    (XStateParams(0.1, 0.4, 0.4, 0.1, 0.2), "amplitude"),
    (XStateParams(0.1, 0.4, 0.4, 0.1, 0.2), "phase"),
    (FamilyParams(Family.WERNER, 0.7), "amplitude"),
    (FamilyParams(Family.ISOTROPIC, 0.8), "phase"),
    (PureStateParams(0.2, 0.3, 0.3, 0.2), "amplitude"),
    (PureStateParams(0.2, 0.3, 0.3, 0.2), "phase"),
]


@pytest.mark.parametrize("state, kind", _REAL_CELLS)
def test_real_and_complex_arithmetic_agree_on_a_phase(state, kind):
    # e^(i phi) w is a factor of the same state; it has an imaginary part,
    # so it takes the complex route that w itself skips
    w = _evolved_factor(state, kind)
    assert not w.imag.any()
    c = factor_concurrence(w)
    for phi in (0.3, np.pi / 2, 2.0):
        assert np.abs(factor_concurrence(np.exp(1j * phi) * w) - c).max() <= 1e-15


def test_real_arithmetic_runs_exactly_when_the_factor_is_real(monkeypatch):
    # the spectrum's input: (..., m, m) for a real factor, the stacked
    # (..., 2m, 2m) real form for a complex one
    shapes = []

    def counted(a, _solve=np.linalg.eigvalsh):
        shapes.append(np.shape(a))
        return _solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    qr_dtypes = []

    def qr(a, mode, _qr=np.linalg.qr):
        qr_dtypes.append(np.asarray(a).dtype)
        return _qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)

    def route(w):
        shapes.clear()
        qr_dtypes.clear()
        factor_concurrence(w)
        return shapes[:], qr_dtypes[:]

    real = _evolved_factor(*_REAL_CELLS[0])[:6]
    assert real.dtype == np.float64 and real.shape == (6, 4, 8)
    assert route(real) == route(real.astype(complex)) == ([(6, 4, 4)], [np.float64])
    assert route(np.exp(0.3j) * real) == ([(6, 8, 8)], [np.complex128])
    tiny = real.astype(complex)
    tiny[5, 0, 0] += 1e-300j
    assert route(tiny) == ([(6, 8, 8)], [np.complex128])
    pure = _evolved_factor(*_REAL_CELLS[4])[:6]
    assert route(pure) == ([(6, 2, 2)], [])
    assert route(np.exp(0.3j) * pure) == ([(6, 4, 4)], [])
    # the depolarizing Kraus set is real (iY in place of Y), so a family
    # state evolves and reduces in float64 under it too
    depolarized = _evolved_factor(FamilyParams(Family.WERNER, 0.7), "depolarizing")[1:7]
    assert depolarized.dtype == np.float64
    assert route(depolarized) == ([(6, 4, 4)], [np.float64])
    # a pure state with phases keeps a complex factor, and the embedding
    phased = PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0)
    phased = _evolved_factor(phased, "depolarizing")[1:7]
    assert phased.dtype == np.complex128 and phased.shape == (6, 4, 4)
    assert route(phased) == ([(6, 8, 8)], [])


def test_factor_concurrence_matches_the_matrix_route():
    # against the 50-digit Wootters chain on the matrix W W^dag, for the
    # first few factors of each width
    rng = np.random.default_rng(45)
    for cols in (1, 2, 3, 4, 5, 8, 16):
        g = rng.standard_normal((30, 4, cols)) + 1j * rng.standard_normal((30, 4, cols))
        w = g / np.linalg.norm(g, axis=(-2, -1), keepdims=True)
        rho = w @ w.conj().swapaxes(-1, -2)
        c = factor_concurrence(w)
        assert c.shape == (30,)
        want = [matrix_concurrence(r) for r in rho[:6]]
        np.testing.assert_allclose(c[:6], want, rtol=0, atol=1e-13)
        # any factor of the same state gives the same value: w u, u unitary
        u = rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
        q, _ = np.linalg.qr(u)
        np.testing.assert_allclose(factor_concurrence(w @ q), c, rtol=0, atol=1e-13)
        assert abs(factor_concurrence(w[3]) - c[3]) <= 1e-15


def test_factor_concurrence_is_exact_on_rank_deficient_factors():
    # a Bell column, and the same column weighted by a tiny decayed factor
    bell = np.array([[0.0], [1.0], [1.0], [0.0]]) / np.sqrt(2.0)
    assert abs(factor_concurrence(bell) - 1.0) <= 1e-15
    eta = np.exp(-14.0)
    tail = np.hstack([bell * eta, np.array([[np.sqrt(1.0 - eta**2)], [0], [0], [0]])])
    assert abs(factor_concurrence(tail) - eta**2) <= 1e-22


def test_factor_concurrence_checks_the_trace():
    w = np.stack([np.eye(4, 2) / np.sqrt(2.0)] * 3)
    w[1] *= 1.5
    message = r"^density matrix at index 1 trace must be 1, got \(2\.2\d*\+0j\)$"
    with pytest.raises(ValueError, match=message):
        factor_concurrence(w)
    with pytest.raises(ValueError, match="factor with 4 rows"):
        factor_concurrence(np.ones((3, 2)))
