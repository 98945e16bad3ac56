import numpy as np
import pytest

from esdsim.channels import (
    KrausSet,
    NoiseKind,
    NoiseSpec,
    amplitude_kraus,
    apply_to_factor,
    completeness_residual,
    depolarizing_kraus,
    kraus_for,
    phase_kraus,
)
from esdsim.sampling import ginibre_factor
from esdsim.states import XStateParams, as_x_params, state_factor
from esdsim.verification import _marginal_second, _state
from reference import kraus_sum


def lifted(kraus: KrausSet) -> KrausSet:
    # the 4x4 set {K x I} of a 2x2 set, member by member
    return KrausSet(np.kron(kraus.ops, np.eye(2)))


def channel(w, kraus):
    # the state W' W'^dag of the evolved factor W' of w
    return _state(apply_to_factor(w, kraus))


def test_amplitude_kraus_entries():
    eta = 0.6
    k = amplitude_kraus(eta)
    np.testing.assert_allclose(k.ops[0], [[0.6, 0], [0, 1]], atol=0)
    np.testing.assert_allclose(k.ops[1], [[0, 0], [0.8, 0]], atol=1e-15)


def test_phase_kraus_entries():
    gamma = 0.6
    k = phase_kraus(gamma)
    np.testing.assert_allclose(k.ops[0], [[1, 0], [0, 0.6]], atol=0)
    np.testing.assert_allclose(k.ops[1], [[0, 0], [0, 0.8]], atol=1e-15)


def test_depolarizing_kraus_entries():
    k = depolarizing_kraus(0.3)
    w = np.sqrt(0.1)
    np.testing.assert_allclose(k.ops[0], np.sqrt(0.7) * np.eye(2), atol=1e-15)
    np.testing.assert_allclose(k.ops[1], w * np.array([[0, 1], [1, 0]]), atol=1e-15)
    # iY in place of the imaginary Pauli Y: the same channel, and a real set
    np.testing.assert_allclose(k.ops[2], w * np.array([[0, 1], [-1, 0]]), atol=1e-15)
    np.testing.assert_allclose(k.ops[3], w * np.array([[1, 0], [0, -1]]), atol=1e-15)
    assert k.ops.dtype == np.float64


_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def _pauli_y_depolarizing(rho, p):
    # sum K rho K^dag over the textbook set sqrt(1 - p) I, sqrt(p / 3) (X, Y, Z)
    # on qubit 1, written out with the imaginary Pauli Y
    paulis = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), _PAULI_Y, np.diag([1.0, -1.0]))
    weights = (np.sqrt(1.0 - p), *[np.sqrt(p / 3.0)] * 3)
    lifted = [w * np.kron(sigma, np.eye(2)) for w, sigma in zip(weights, paulis)]
    return sum(k @ rho @ k.conj().T for k in lifted)


def test_real_depolarizing_set_is_the_pauli_y_channel():
    # (iY) rho (iY)^dag = Y rho Y^dag: the real set is the same channel
    rng = np.random.default_rng(34)
    for p in np.concatenate(([0.0, 0.75, 1.0], rng.uniform(size=20))):
        w = ginibre_factor(rng)
        got = channel(w, depolarizing_kraus(p))
        assert np.abs(got - _pauli_y_depolarizing(_state(w), p)).max() <= 1e-15
    # a stack of factors, each under its own p
    w = np.stack([ginibre_factor(rng) for _ in range(16)])
    ps = rng.uniform(size=16)
    want = np.stack([_pauli_y_depolarizing(r, p) for r, p in zip(_state(w), ps)])
    assert np.abs(channel(w, depolarizing_kraus(ps)) - want).max() <= 1e-15


def test_kraus_set_dtype_contract():
    # real operators, ints included, are held as float64; any complex
    # operator makes the whole set complex128
    for ops in ((np.eye(2, dtype=int),), ([[1, 0], [0, 1]],), (np.eye(2, dtype=np.float32),)):
        assert KrausSet(ops).ops.dtype == np.float64
    for ctor in (amplitude_kraus, phase_kraus, depolarizing_kraus):
        assert ctor(0.3).ops.dtype == ctor(np.array([0.1, 0.9])).ops.dtype == np.float64
    real = depolarizing_kraus(0.3)
    for ops in ((np.eye(2), 0j * np.eye(2)), (np.eye(2, dtype=np.complex64),), np.exp(0.4j) * real.ops):
        assert KrausSet(ops).ops.dtype == np.complex128
    # a caller's complex set, a global phase on each operator, is the same
    # channel and passes every entry point
    phased = KrausSet(np.exp(1j * np.array([0.4, 1.0, -2.0, 3.0]))[:, None, None] * real.ops)
    assert completeness_residual(phased) <= 1e-15
    w = ginibre_factor(np.random.default_rng(35)).real
    w /= np.linalg.norm(w)
    out = apply_to_factor(w, phased)
    assert out.dtype == np.complex128 and apply_to_factor(w, real).dtype == np.float64
    assert np.abs(_state(out) - channel(w, real)).max() <= 1e-15
    assert np.abs(_state(out) - kraus_sum(_state(w), real)).max() <= 1e-15
    assert np.abs(channel(w, lifted(phased)) - channel(w, real)).max() <= 1e-15
    # an incomplete set is refused in the same words, real or complex
    for scale in (1.1, 1.1j):
        with pytest.raises(ValueError, match="^Kraus set is not complete: residual 2.970e-01$"):
            apply_to_factor(w, KrausSet((scale * np.eye(2),)))


@pytest.mark.parametrize("ctor", [amplitude_kraus, phase_kraus, depolarizing_kraus])
def test_constructors_complete_over_parameter_range(ctor):
    rng = np.random.default_rng(31)
    for value in np.concatenate(([0.0, 1.0], rng.uniform(size=100))):
        assert completeness_residual(ctor(float(value))) <= 1e-14
    # and as one stack over a dense grid of [0, 1]
    assert completeness_residual(ctor(np.linspace(0.0, 1.0, 10001))).max() <= 1e-14


@pytest.mark.parametrize("ctor", [amplitude_kraus, phase_kraus, depolarizing_kraus])
@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_constructors_reject_out_of_range(ctor, bad):
    with pytest.raises(ValueError):
        ctor(bad)


def test_kraus_for_rejects_a_kind_that_is_not_the_enum():
    # "phase" once fell through to the four depolarizing operators
    kinds = "NoiseKind.AMPLITUDE, NoiseKind.PHASE, NoiseKind.DEPOLARIZING"
    for bad in ("phase", "amplitude", None):
        with pytest.raises(ValueError) as caught:
            kraus_for(bad, 0.5)
        assert str(caught.value) == f"expected a NoiseKind ({kinds}), got {bad!r}"


def test_noise_spec_alias_returns_the_kind():
    # esdbench/workloads.py still builds NoiseSpec(NoiseKind(name)): the
    # alias must hand back the kind itself until the workloads pass it
    assert NoiseSpec(NoiseKind("phase")) is NoiseKind.PHASE


def test_kraus_for_dispatch():
    for kind, ctor in (
        (NoiseKind.AMPLITUDE, amplitude_kraus),
        (NoiseKind.PHASE, phase_kraus),
        (NoiseKind.DEPOLARIZING, depolarizing_kraus),
    ):
        got, want = kraus_for(kind, 0.5).ops, ctor(0.5).ops
        assert len(got) == len(want)
        for op, expected in zip(got, want):
            np.testing.assert_array_equal(op, expected)


def test_krausset_shape_checks():
    with pytest.raises(ValueError):
        KrausSet((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError):
        KrausSet((np.ones((2, 3)),))
    with pytest.raises(ValueError):
        KrausSet(())  # a Kraus set has at least one operator


def test_completeness_residual_examples():
    # scaled identity: sum K^dag K - I = -0.19 I, Frobenius norm 0.19 sqrt(2)
    k = KrausSet((0.9 * np.eye(2),))
    np.testing.assert_allclose(completeness_residual(k), 0.19 * np.sqrt(2), atol=1e-14)


def test_apply_to_factor_preserves_trace_and_positivity():
    # through the factor, against the Kraus sum written out with np.kron
    rng = np.random.default_rng(32)
    for _ in range(100):
        w = ginibre_factor(rng)
        kind = (NoiseKind.AMPLITUDE, NoiseKind.PHASE, NoiseKind.DEPOLARIZING)[
            rng.integers(3)
        ]
        kraus = kraus_for(kind, rng.uniform())
        out = channel(w, kraus)
        np.testing.assert_allclose(out, kraus_sum(_state(w), kraus), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.trace(out).real, 1.0, atol=1e-10)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_apply_to_factor_identity_limits():
    rng = np.random.default_rng(33)
    w = ginibre_factor(rng)
    for kind, value in [
        (NoiseKind.AMPLITUDE, 1.0),
        (NoiseKind.PHASE, 1.0),
        (NoiseKind.DEPOLARIZING, 0.0),
    ]:
        out = channel(w, lifted(kraus_for(kind, value)))
        np.testing.assert_allclose(out, _state(w), atol=1e-15)


def test_apply_to_factor_rejects_incomplete_set():
    with pytest.raises(ValueError, match="not complete"):
        apply_to_factor(np.eye(4) / 2, KrausSet((0.9 * np.eye(4),)))


def test_apply_to_factor_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        apply_to_factor(np.eye(2) / np.sqrt(2), lifted(phase_kraus(0.5)))


def test_amplitude_moves_population_down():
    # pure |00> decays toward |10> on the first qubit: a -> a eta^2,
    # c -> c + (1 - eta^2) a, coherence z -> eta z
    params = XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)
    eta = 0.7
    out = channel(state_factor(params), amplitude_kraus(eta))
    back = as_x_params(out)
    e2 = eta * eta
    np.testing.assert_allclose(back.a, 0.1 * e2, atol=1e-15)
    np.testing.assert_allclose(back.b, 0.4 * e2, atol=1e-15)
    np.testing.assert_allclose(back.c, 0.4 + (1 - e2) * 0.1, atol=1e-15)
    np.testing.assert_allclose(back.d, 0.1 + (1 - e2) * 0.4, atol=1e-15)
    np.testing.assert_allclose(back.z, eta * 0.2, atol=1e-15)


def test_phase_scales_coherence_only():
    params = XStateParams(0.2, 0.3, 0.3, 0.2, 0.25j)
    gamma = 0.4
    out = channel(state_factor(params), phase_kraus(gamma))
    back = as_x_params(out)
    np.testing.assert_allclose(
        [back.a, back.b, back.c, back.d], [0.2, 0.3, 0.3, 0.2], atol=1e-15
    )
    np.testing.assert_allclose(back.z, gamma * 0.25j, atol=1e-15)


def test_depolarizing_mixes_toward_swap_and_scales_coherence():
    # diagonal moves as w -> w + (2p/3)(partner - w); z picks up (3-4p)/3
    params = XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)
    p = 0.3
    out = channel(state_factor(params), depolarizing_kraus(p))
    back = as_x_params(out)
    np.testing.assert_allclose(back.a, 0.1 + (2 * p / 3) * (0.4 - 0.1), atol=1e-15)
    np.testing.assert_allclose(back.d, 0.1 + (2 * p / 3) * (0.4 - 0.1), atol=1e-15)
    np.testing.assert_allclose(back.z, 0.2 * (3 - 4 * p) / 3, atol=1e-15)


def test_noise_on_first_qubit_leaves_second_marginal():
    rng = np.random.default_rng(34)
    for _ in range(50):
        w = ginibre_factor(rng)
        kind = (NoiseKind.AMPLITUDE, NoiseKind.PHASE, NoiseKind.DEPOLARIZING)[
            rng.integers(3)
        ]
        out = channel(w, kraus_for(kind, rng.uniform()))
        np.testing.assert_allclose(_marginal_second(out), _marginal_second(_state(w)), atol=1e-12)


def test_partial_trace_helpers_are_consistent():
    # the qubit-2 marginal of the property suites, on one state and on a stack
    rng = np.random.default_rng(35)
    rho = _state(ginibre_factor(rng))
    np.testing.assert_allclose(np.trace(_marginal_second(rho)).real, 1.0, atol=1e-12)
    # product input factors exactly
    u = np.diag([0.7, 0.3]).astype(complex)
    v = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    w = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    prods = np.stack([np.kron(u, v), np.kron(u, w)])
    np.testing.assert_allclose(_marginal_second(prods), [v, w], atol=1e-15)


@pytest.mark.parametrize("ctor", [amplitude_kraus, phase_kraus, depolarizing_kraus])
def test_constructors_build_one_kraus_set_per_value(ctor):
    values = np.array([0.0, 0.3, 0.77, 1.0])
    stacked = ctor(values)
    assert all(op.shape == (4, 2, 2) for op in stacked.ops)
    for i, value in enumerate(values):
        for op, one in zip(stacked.ops, ctor(float(value)).ops):
            np.testing.assert_array_equal(op[i], one)
    residual = completeness_residual(stacked)
    assert residual.shape == (4,) and residual.max() <= 1e-14
    with pytest.raises(ValueError, match=r"got 1\.5 at index 2"):
        ctor(np.array([0.2, 0.4, 1.5, 2.0]))


def test_two_by_two_set_acts_on_the_first_qubit():
    # a 2x2 Kraus set on a two-qubit factor is the same map as its lift,
    # and as the Kraus sum of the lift written out with np.kron
    rng = np.random.default_rng(36)
    for kind in NoiseKind:
        w = ginibre_factor(rng)
        kraus = kraus_for(kind, rng.uniform())
        out = channel(w, kraus)
        np.testing.assert_allclose(out, channel(w, lifted(kraus)), atol=1e-15)
        np.testing.assert_allclose(out, kraus_sum(_state(w), kraus), atol=1e-15)


def test_apply_to_factor_broadcasts_stacks():
    rng = np.random.default_rng(37)
    values = rng.uniform(size=5)
    w = ginibre_factor(rng)
    many = np.stack([ginibre_factor(rng) for _ in range(5)])
    for kind in NoiseKind:
        stacked = kraus_for(kind, values)
        one_state = channel(w, stacked)
        many_states = channel(many, stacked)
        assert one_state.shape == many_states.shape == (5, 4, 4)
        for i, value in enumerate(values):
            one = lifted(kraus_for(kind, float(value)))
            np.testing.assert_allclose(one_state[i], channel(w, one), atol=1e-15)
            np.testing.assert_allclose(many_states[i], channel(many[i], one), atol=1e-15)


def test_apply_to_factor_names_the_failing_member():
    e0 = np.stack([np.diag([eta, 1.0]) for eta in (0.5, 0.8, 0.6)]).astype(complex)
    e1 = np.zeros_like(e0)
    e1[:, 1, 0] = np.sqrt(1 - np.array([0.5, 0.8, 0.6]) ** 2)
    e1[1, 1, 0] = 0.5  # the set for 0.8 loses trace
    with pytest.raises(ValueError, match="index 1 is not complete"):
        apply_to_factor(np.eye(4) / 2, KrausSet((e0, e1)))


def test_a_nan_kraus_set_is_not_complete():
    # NaN fails every comparison, so the check must not read it as within
    # COMPLETENESS_TOL
    with pytest.raises(ValueError, match="^Kraus set is not complete: residual nan$"):
        apply_to_factor(np.eye(4) / 2, KrausSet((np.full((2, 2), np.nan),)))
    ops = np.stack([np.eye(2)] * 3)[None]
    ops[0, 1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="^Kraus set at index 1 is not complete: residual nan$"):
        apply_to_factor(np.eye(4) / 2, KrausSet(ops))


def test_kraus_set_holds_one_read_only_array():
    values = np.array([0.1, 0.5, 0.9])
    for ctor, k in ((amplitude_kraus, 2), (phase_kraus, 2), (depolarizing_kraus, 4)):
        ops = ctor(values).ops
        assert type(ops) is np.ndarray and ops.shape == (k, 3, 2, 2)
        assert not ops.flags.writeable
        # the batched residual adds its terms in operator order, as this loop does
        acc = -np.eye(2)
        for op in ops:
            acc = acc + op.conj().swapaxes(-1, -2) @ op
        reference = np.linalg.norm(acc, axis=(-2, -1))
        assert completeness_residual(ctor(values)).tobytes() == reference.tobytes()
    # the operators are copied into the set, so the caller's stay writable
    e0 = np.eye(2, dtype=complex)
    assert KrausSet((e0,)).ops.shape == (1, 2, 2) and e0.flags.writeable
    # one array, operator index first, is copied too
    both = np.stack([np.eye(2), np.zeros((2, 2))])
    held = KrausSet(both).ops
    assert held.tobytes() == both.tobytes() and not np.shares_memory(held, both)
    assert both.flags.writeable


@pytest.mark.parametrize("points", [256, 4097])
def test_entrywise_residual_has_the_bits_of_the_stacked_matmul(points):
    # `verify` prints the residual as kraus_completeness max_error
    values = np.random.default_rng(points).uniform(size=points)
    for kind in NoiseKind:
        ops = kraus_for(kind, values).ops
        acc = -np.eye(2, dtype=complex)
        for term in ops.conj().swapaxes(-1, -2) @ ops:
            acc = acc + term
        reference = np.linalg.norm(acc, axis=(-2, -1))
        assert completeness_residual(kraus_for(kind, values)).tobytes() == reference.tobytes()
    # a lifted 4x4 set sums each entry over four rows and its 16 squares in
    # row-major order, where the norm sums them pairwise: on a lifted
    # constructor set the two orders meet (see the row-order test below)
    lift = lifted(depolarizing_kraus(values[:5]))
    acc = -np.eye(4, dtype=complex)
    for term in lift.ops.conj().swapaxes(-1, -2) @ lift.ops:
        acc = acc + term
    np.testing.assert_allclose(completeness_residual(lift), np.linalg.norm(acc, axis=(-2, -1)), rtol=0, atol=1e-15)


def _residual_by_loop(ops):
    # the residual by its definition, one entry and one operator at a time:
    # (K^dag K)[i, j] = sum_r conj(K[r, i]) K[r, j] in row order, summed onto
    # -I in operator order, then the norm of each matrix of the stack
    d = ops.shape[-1]
    acc = -np.eye(d)
    for op in ops:
        gram = np.empty(op.shape, op.dtype)
        for i in range(d):
            for j in range(d):
                entry = op[..., 0, i].conj() * op[..., 0, j]
                for r in range(1, d):
                    entry = entry + op[..., r, i].conj() * op[..., r, j]
                gram[..., i, j] = entry
        acc = acc + gram
    return np.linalg.norm(acc, axis=(-2, -1))


@pytest.mark.parametrize("stack", [(), (7,), (3, 5)], ids=str)
@pytest.mark.parametrize("dtype", [float, complex], ids=lambda t: t.__name__)
def test_residual_has_the_bits_of_the_row_order_loop(stack, dtype):
    # random 2x2 sets, not only the constructors' sparse ones: the
    # stack-innermost layout sums the same products in the same order
    rng = np.random.default_rng([len(stack), dtype is complex])
    for trial in range(40):
        ops = rng.normal(size=(1 + trial % 4,) + stack + (2, 2)) * 10.0 ** rng.uniform(-3, 1)
        if dtype is complex:
            ops = ops + 1j * rng.normal(size=ops.shape)
        residual = completeness_residual(KrausSet(ops))
        reference = _residual_by_loop(ops)
        assert residual.shape == stack and residual.tobytes() == reference.tobytes()
        if not stack:
            assert type(residual) is np.float64


def test_four_by_four_residual_within_two_ulp_of_the_loop():
    # a 4x4 set sums its 16 squared entries in row-major order, while
    # np.linalg.norm sums them pairwise: within 2 ulp on random sets (67%
    # of them to the bit), and to the bit on lifted constructor sets, where
    # at most 8 entries are nonzero and come in equal pairs
    rng = np.random.default_rng(44)
    for trial in range(40):
        shape = (1 + trial % 4, 9, 4, 4)
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        residual, reference = completeness_residual(KrausSet(ops)), _residual_by_loop(ops)
        assert np.all(np.abs(residual - reference) <= 2 * np.spacing(reference))
    values = rng.uniform(size=500)
    for kind in NoiseKind:
        lift = lifted(kraus_for(kind, values))
        assert completeness_residual(lift).tobytes() == _residual_by_loop(lift.ops).tobytes()


def test_incomplete_member_of_a_two_dimensional_stack_is_named():
    ops = np.array(amplitude_kraus(np.full((2, 3), 0.6)).ops)
    ops[1, 1, 2, 1, 0] = 0.5  # the set at (1, 2) loses trace
    kraus = KrausSet(ops)
    assert completeness_residual(kraus).shape == (2, 3)
    with pytest.raises(ValueError, match=r"index \(1, 2\) is not complete: residual 3\.900e-01"):
        apply_to_factor(np.eye(4)[:, :1], kraus)
    # an empty stack has an empty residual and passes the check
    assert completeness_residual(amplitude_kraus(np.empty((2, 0)))).shape == (2, 0)
    assert apply_to_factor(np.zeros((0, 4, 1)), amplitude_kraus(np.empty(0))).shape == (0, 4, 2)


def test_factor_evolution_is_the_channel_map():
    rng = np.random.default_rng(17)
    for cols in (1, 2, 4, 7):
        g = rng.standard_normal((4, cols)) + 1j * rng.standard_normal((4, cols))
        w = g / np.linalg.norm(g)
        rho = w @ w.conj().T
        for kind in NoiseKind:
            for value in (0.0, 0.3, 1.0):
                kraus = kraus_for(kind, value)
                out = apply_to_factor(w, kraus)
                assert out.shape == (4, len(kraus.ops) * cols)
                want = kraus_sum(rho, kraus)
                np.testing.assert_allclose(out @ out.conj().T, want, rtol=0, atol=1e-15)
                # the lifted 4x4 set on the same factor is the same map
                lift = apply_to_factor(w, lifted(kraus))
                np.testing.assert_allclose(lift, out, rtol=0, atol=1e-16)


def test_factor_evolution_broadcasts_stacks():
    rng = np.random.default_rng(18)
    g = rng.standard_normal((3, 1, 4, 2)) + 1j * rng.standard_normal((3, 1, 4, 2))
    w = g / np.linalg.norm(g, axis=(-2, -1), keepdims=True)
    values = rng.uniform(size=(3, 5))
    out = apply_to_factor(w, amplitude_kraus(values))
    assert out.shape == (3, 5, 4, 4)
    for i in range(3):
        for j in range(5):
            one = apply_to_factor(w[i, 0], amplitude_kraus(values[i, j]))
            assert out[i, j].tobytes() == one.tobytes()


def test_factor_evolution_checks_completeness_and_shape():
    w = np.eye(4, 1, dtype=complex)
    bad = KrausSet((np.eye(2) * 1.1,))
    with pytest.raises(ValueError, match="Kraus set is not complete: residual"):
        apply_to_factor(w, bad)
    with pytest.raises(ValueError, match="Kraus set at index 1 is not complete"):
        apply_to_factor(w, KrausSet((np.stack([np.eye(2), 1.1 * np.eye(2)]),)))
    with pytest.raises(ValueError, match="does not match Kraus dim"):
        apply_to_factor(np.ones((3, 2)), amplitude_kraus(0.5))
    # a zero column stays exactly zero
    w = np.zeros((4, 2), dtype=complex)
    w[0, 0] = 1.0
    out = apply_to_factor(w, depolarizing_kraus(0.4))
    assert not out[:, 1::2].any()
