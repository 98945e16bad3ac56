import cmath
import collections
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from esdsim import states
from esdsim.concurrence import factor_concurrence
from esdsim.linalg import PSD_CLAMP_TOL
from esdsim.sampling import random_pure_params, random_x_params
from esdsim.states import (
    Family,
    FamilyParams,
    PureStateParams,
    XStateParams,
    as_x_params,
    pure_factor,
    state_factor,
    state_kind,
    state_matrix,
    validate_density_matrix,
    x_entries,
    x_factor,
)


def _iso(x):
    return state_matrix(FamilyParams(Family.ISOTROPIC, x))


def _wer(x):
    return state_matrix(FamilyParams(Family.WERNER, x))


def test_x_params_validation():
    XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)
    with pytest.raises(ValueError):
        XStateParams(-0.1, 0.5, 0.5, 0.1, 0.0)
    with pytest.raises(ValueError):
        XStateParams(0.1, 0.4, 0.4, 0.2, 0.0)  # sums to 1.1
    with pytest.raises(ValueError):
        XStateParams(0.1, 0.4, 0.4, 0.1, 0.5)  # |z|^2 > b c


def test_x_params_accepts_complex_coherence():
    p = XStateParams(0.1, 0.4, 0.4, 0.1, 0.1 + 0.1j)
    rho = state_matrix(p)
    assert rho[1, 2] == 0.1 + 0.1j
    assert rho[2, 1] == 0.1 - 0.1j


def test_pure_params_validation():
    PureStateParams(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        PureStateParams(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        PureStateParams(0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_x_params_reject_nonfinite(bad):
    # NaN passes every < and > range check, so finiteness is checked first
    for i, name in enumerate("abcd"):
        values = [0.2, 0.3, 0.3, 0.2, 0.1]
        values[i] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            XStateParams(*values)
    for z in (complex(bad, 0.0), complex(0.0, bad), bad):
        with pytest.raises(ValueError, match="z must be finite"):
            XStateParams(0.2, 0.3, 0.3, 0.2, z)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_pure_params_reject_nonfinite(bad):
    for i, name in enumerate("abcdfgh"):
        values = [0.25, 0.25, 0.25, 0.25, 0.1, 0.2, 0.3]
        values[i] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PureStateParams(*values)


def test_family_params_validation():
    FamilyParams(Family.WERNER, 0.0)
    FamilyParams(Family.ISOTROPIC, 1.0)
    with pytest.raises(ValueError):
        FamilyParams(Family.WERNER, 1.5)
    with pytest.raises(ValueError):
        FamilyParams(Family.ISOTROPIC, -0.1)
    with pytest.raises(ValueError):
        FamilyParams(Family.ISOTROPIC, float("nan"))


def test_family_params_reject_a_family_that_is_not_the_enum():
    # "isotropic" was once taken, and built the Werner diagonal
    for bad in ("isotropic", "werner", None, 0):
        with pytest.raises(ValueError) as caught:
            FamilyParams(bad, 0.7)
        assert str(caught.value) == (
            f"expected a Family (Family.ISOTROPIC, Family.WERNER), got {bad!r}"
        )


NOT_A_RECORD = "expected a state record (XStateParams, PureStateParams, FamilyParams), got {!r}"


@pytest.mark.parametrize("entry", [state_matrix, state_factor, x_entries], ids=lambda f: f.__name__)
def test_entry_points_reject_a_state_that_is_not_a_record(entry):
    # a tuple once raised AttributeError: 'tuple' object has no attribute 'x'
    for bad in ((1, 2), (0.1, 0.4, 0.4, 0.1, 0.2), None):
        with pytest.raises(ValueError) as caught:
            entry(bad)
        assert str(caught.value) == NOT_A_RECORD.format(bad)


def test_x_state_layout():
    rho = state_matrix(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2))
    np.testing.assert_allclose(np.diagonal(rho), [0.1, 0.4, 0.4, 0.1])
    assert rho[1, 2] == 0.2
    # all other off-diagonal entries vanish
    mask = np.ones((4, 4), dtype=bool)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
        mask[i, j] = False
    assert np.all(rho[mask] == 0)
    validate_density_matrix(rho)


def test_pure_state_is_rank_one_with_given_weights():
    params = PureStateParams(0.125, 0.375, 0.375, 0.125, 0.3, 1.1, 2.0)
    rho = state_matrix(params)
    validate_density_matrix(rho)
    np.testing.assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)
    np.testing.assert_allclose(
        np.diagonal(rho).real, [0.125, 0.375, 0.375, 0.125], atol=1e-12
    )


def test_pure_state_phases_enter_coherences():
    params = PureStateParams(0.25, 0.25, 0.25, 0.25, 0.7, 0.2, 1.5)
    rho = state_matrix(params)
    # entry (1, 2) is sqrt(b c) e^{i(f - g)}
    np.testing.assert_allclose(rho[1, 2], 0.25 * np.exp(1j * 0.5), atol=1e-12)
    np.testing.assert_allclose(rho[0, 3], 0.25 * np.exp(-1j * 1.5), atol=1e-12)


def test_isotropic_special_points():
    # x = 1/4 is the maximally mixed state
    np.testing.assert_allclose(_iso(0.25), np.eye(4) / 4, atol=1e-15)
    # x = 1 is a maximally entangled projector
    rho = _iso(1.0)
    np.testing.assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(rho).real, [0, 0.5, 0.5, 0], atol=1e-15)
    np.testing.assert_allclose(rho[1, 2], 0.5, atol=1e-15)


def test_werner_special_points():
    np.testing.assert_allclose(_wer(0.0), np.eye(4) / 4, atol=1e-15)
    rho = _wer(1.0)
    np.testing.assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)
    np.testing.assert_allclose(np.diagonal(rho).real, [0, 0.5, 0.5, 0], atol=1e-15)
    np.testing.assert_allclose(rho[1, 2], -0.5, atol=1e-15)


def test_family_states_are_valid_across_range():
    for x in np.linspace(0.0, 1.0, 21):
        validate_density_matrix(_iso(x))
        validate_density_matrix(_wer(x))


def test_family_state_dispatch():
    iso, wer = FamilyParams(Family.ISOTROPIC, 0.3), FamilyParams(Family.WERNER, 0.7)
    assert (state_kind(iso), state_kind(wer)) == (Family.ISOTROPIC, Family.WERNER)
    # the families' formulas written out: the isotropic diagonal
    # ((1-x)/3, (2x+1)/6, (2x+1)/6, (1-x)/3) with coherence (4x-1)/6, and
    # Werner (1-x) I/4 + x times the singlet projector
    want_iso = np.diag([0.7 / 3, 1.6 / 6, 1.6 / 6, 0.7 / 3])
    want_iso[1, 2] = want_iso[2, 1] = 0.2 / 6
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    want_wer = 0.3 * np.eye(4) / 4 + 0.7 * np.outer(singlet, singlet)
    np.testing.assert_allclose(state_matrix(iso), want_iso, rtol=0, atol=1e-15)
    np.testing.assert_allclose(state_matrix(wer), want_wer, rtol=0, atol=1e-15)


def test_validate_density_matrix_rejects():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4))
    neg = np.diag([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValueError):
        validate_density_matrix(neg)


def test_as_x_params_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b, c, d = rng.dirichlet(np.ones(4))
        z = rng.uniform() * np.sqrt(b * c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        params = XStateParams(a, b, c, d, z)
        back = as_x_params(state_matrix(params))
        np.testing.assert_allclose(
            [back.a, back.b, back.c, back.d], [a, b, c, d], atol=1e-14
        )
        np.testing.assert_allclose(back.z, z, atol=1e-14)


def test_as_x_params_rejects_corner_coherence():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi)
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        as_x_params(rho)


def test_as_x_params_rejects_single_qubit_input():
    with pytest.raises(ValueError):
        as_x_params(np.eye(2) / 2)


def test_validate_density_matrix_checks_every_member_of_a_stack():
    good = np.stack([state_matrix(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)), np.eye(4) / 4] * 3)
    assert validate_density_matrix(good).shape == (6, 4, 4)
    skew = good.copy()
    skew[4, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="index 4 is not Hermitian"):
        validate_density_matrix(skew)
    heavy = good.copy()
    heavy[2] *= 1.5
    with pytest.raises(ValueError, match="index 2 trace"):
        validate_density_matrix(heavy)
    negative = good.copy()
    negative[5] = np.diag([1.2, -0.2, 0.0, 0.0])
    with pytest.raises(ValueError, match="index 5 is not PSD"):
        validate_density_matrix(negative)


def _stack_cases():
    # each state kind's records, built afresh inside the test
    rng = np.random.default_rng(22)
    xs = [float(v) for v in rng.uniform(size=6)] + [0.0, 0.25, 1.0]
    return [
        ("x_state", [random_x_params(rng) for _ in range(7)] + [XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)]),
        ("pure_state", [random_pure_params(rng) for _ in range(7)]),
        ("isotropic", [FamilyParams(Family.ISOTROPIC, x) for x in xs]),
        ("werner", [FamilyParams(Family.WERNER, x) for x in xs]),
    ]


@pytest.mark.parametrize("kind, records", _stack_cases())
def test_a_stack_is_validated_once(kind, records, monkeypatch):
    # each entry is checked once, where it is taken in: a record when it is
    # built (an X record's central block through the PSD check, a family's
    # weight by its own range check); a stack of the records' matrices and
    # their factors are not checked again
    calls = collections.Counter()
    for name in ("validate_density_matrix", "_check_record", "_check_psd"):
        def counting(*args, name=name, original=getattr(states, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(states, name, counting)
    records = [type(r)(**vars(r)) for r in records]
    n = len(records)
    expected = {} if kind in ("isotropic", "werner") else {"_check_record": n}
    if kind == "x_state":
        expected["_check_psd"] = n
    assert dict(calls) == expected
    stack = np.stack([state_matrix(r) for r in records])
    for r in records:
        state_factor(r)
    assert dict(calls) == expected
    # and the stack holds density matrices within every matrix check
    validate_density_matrix(stack)


# log10 of a weight, down to 1e-300; half the draws above 1e-8, where a
# block can sit below -PSD_CLAMP_TOL
_LOG_WEIGHT = st.one_of(st.floats(-300.0, math.log10(0.5)), st.floats(-8.0, math.log10(0.5)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    _LOG_WEIGHT,
    _LOG_WEIGHT,
    st.floats(-16.0, -3.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(-math.pi, math.pi),
)
def test_the_record_admits_what_the_matrix_check_admits(log_b, log_c, log_delta, sign, share, phase):
    # |z| = sqrt(b c)(1 + delta) puts the central block's least eigenvalue on
    # either side of -PSD_CLAMP_TOL, from b c = 1e-600 up
    b, c = 10.0**log_b, 10.0**log_c
    zmod = math.sqrt(b) * math.sqrt(c) * (1.0 + sign * 10.0**log_delta)
    a = share * (1.0 - b - c)
    d = (1.0 - b - c) - a
    low = ((b + c) - math.hypot(b - c, 2.0 * zmod)) / 2.0
    # both compute the least eigenvalue to about eps (b + c)
    assume(abs(low + PSD_CLAMP_TOL) > 4.0 * np.finfo(float).eps * (b + c))
    z = cmath.rect(zmod, phase)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2], rho[3, 3] = a, b, c, d
    rho[1, 2], rho[2, 1] = z, z.conjugate()
    refused = []
    for check in (lambda: XStateParams(a, b, c, d, z), lambda: validate_density_matrix(rho)):
        try:
            check()
        except ValueError as exc:
            assert str(exc).startswith("matrix is not PSD: min eigenvalue ")
            refused.append(check)
    assert len(refused) in (0, 2), (low, refused)
    if not refused:
        # the record reads a block admitted below zero at |z| = sqrt(b c)
        want = zmod if low >= 0.0 else math.sqrt(b) * math.sqrt(c)
        assert abs(XStateParams(a, b, c, d, z).z) == pytest.approx(want, rel=4e-16, abs=0.0)
        # and the factor route carries every admitted state: its factor
        # keeps the unit trace and lies within about -low of the matrix
        w = x_factor(a, b, c, d, z)
        factor_concurrence(w)
        np.testing.assert_allclose(w @ w.conj().T, rho, rtol=0, atol=2.0 * max(-low, 0.0) + 1e-15)


def test_family_weights_are_checked_per_entry():
    # each record checks its own weight, in one wording for both families
    for family in Family:
        for bad, text in ((1.5, "1.5"), (-0.1, "-0.1"), (float("nan"), "nan")):
            with pytest.raises(ValueError) as err:
                FamilyParams(family, bad)
            assert str(err.value) == f"mixing weight x must lie in [0, 1], got {text}"


def test_x_factor_rebuilds_x_pattern_states():
    rng = np.random.default_rng(31)
    records = [random_x_params(rng) for _ in range(50)]
    records += [FamilyParams(Family.ISOTROPIC, x) for x in (0.0, 0.25, 0.625, 1.0)]
    records += [FamilyParams(Family.WERNER, x) for x in (0.0, 0.5, 1.0)]
    for params in records:
        w = x_factor(*x_entries(params))
        np.testing.assert_allclose(w @ w.conj().T, state_matrix(params), rtol=0, atol=1e-15)


def test_x_factor_of_the_entries_has_the_bits_of_the_matrix_read_back():
    # the factor from a record's entries is the factor from its matrix's
    # diagonal and (1, 2) coherence, bit for bit, down to weights of 1e-300
    rng = np.random.default_rng(33)
    records = []
    for _ in range(300):
        weights = 10.0 ** rng.uniform(-300.0, 0.0, 4)
        a, b, c, d = weights / weights.sum()
        z = cmath.rect(rng.uniform() * math.sqrt(b) * math.sqrt(c), rng.uniform(-math.pi, math.pi))
        records.append(XStateParams(a, b, c, d, z))
    for x in (0.0, 0.2, 0.25, 0.5, 0.625, 1.0, *rng.uniform(size=50)):
        records += [FamilyParams(Family.ISOTROPIC, x), FamilyParams(Family.WERNER, x)]
    for params in records:
        rho = state_matrix(params)
        read_back = x_factor(*rho.diagonal().real, rho[1, 2])
        w = x_factor(*x_entries(params))
        assert (w.dtype, w.tobytes()) == (read_back.dtype, read_back.tobytes()), params


def test_x_factor_zero_weights_give_exactly_zero_columns():
    # columns: a, d, then the central root's two
    for params, zero in (
        (XStateParams(0.0, 0.5, 0.3, 0.2, 0.1), [0]),
        (XStateParams(0.4, 0.3, 0.3, 0.0, 0.1j), [1]),
        (XStateParams(0.5, 0.0, 0.3, 0.2, 0.0), [2]),
        (XStateParams(0.5, 0.3, 0.0, 0.2, 0.0), [3]),
        (XStateParams(0.5, 0.0, 0.0, 0.5, 0.0), [2, 3]),
    ):
        w = x_factor(*x_entries(params))
        assert not w[:, zero].any(), params
        assert all(w[:, j].any() for j in range(4) if j not in zero), params


def test_x_factor_keeps_a_rank_one_central_block_rank_one():
    # b c = |z|^2 exactly: the two central columns are parallel
    for params in (FamilyParams(Family.WERNER, 1.0), FamilyParams(Family.ISOTROPIC, 1.0),
                   XStateParams(0.1, 0.4, 0.4, 0.1, 0.4)):
        central = x_factor(*x_entries(params))[1:3, 2:4]
        assert abs(np.linalg.det(central)) <= 1e-17


def test_pure_factor_is_the_amplitude_column():
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = random_pure_params(rng)
        w = pure_factor(params)
        assert w.shape == (4, 1)
        np.testing.assert_allclose(w @ w.conj().T, state_matrix(params), rtol=0, atol=1e-15)
