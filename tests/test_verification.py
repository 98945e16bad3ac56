import hashlib
import math

import numpy as np
import pytest

from esdsim import sampling, states, verification
from esdsim.concurrence import factor_concurrence
from esdsim.dynamics import Classification, EsdResult
from esdsim.linalg import _frobenius
from esdsim.sampling import random_scenario
from esdsim.states import state_factor, state_matrix
from esdsim.verification import SUITES, SuiteResult, run_all, run_suite

# sha256 of each suite's reproduction strings at seed 0 with 20 cases and
# every case failing: the text after "err=<value> ", one line per recorded
# case.  Taken from the per-case suites, so a change to what a seed draws,
# to the draw order or to the reproduction text shows here.
DRAW_DIGESTS = {
    "kron_algebra": "feca804196942acf5695199da9825a46e6b0dbe5be72c0dbc5cb207025460659",
    "symmetric_spectrum": "b40e21187309149177b6b86e3715bcaecf0832fb8fb91b07b6dd13ccb54f1ddb",
    # each wide factor mixes in an entangled pure column
    "factor_reduction": "29e9a0af941281d6c743078d53eb2586cf86f55f1e4d0712e4b4f1b8ddea3804",
    "kraus_completeness": "c163141f5c7a304140f424996259d2f4c59a29ee7e72f05c2d0557c1ce1f4c08",
    "channel_output_validity": "ee0ff8f38f02e3c722bcac8a4d43f1c8a52967824e13abe5704e7c7562923382",
    "x_form_closure": "e3eea8ac6b60584cbb869d16233f79775bfd2dc1126f172c387b387dc8806455",
    "qubit2_marginal": "23d5acb754258d02c3af417759bad9d82378415326024fb86ff07f865843c680",
    "composition_semigroup": "0d051220f11cc1f50f5e61c1d0c2c322046c8726370f83b65132db4a2b19aaf1",
    "concurrence_x_oracle": "77cb7fe028c82814e201409ad9a425e510212598c3deb489d9a91fc8c58fd958",
    "concurrence_pure_oracle": "fc51bb4da43f12162da3fd26b9bbb431c1ffc70771c6d3554909396122e6466b",
    "local_unitary_invariance": "cbbb8e7f198e129b3cf1fd7b504f2866ac9a7831f36c029f630ec0b06bb90457",
    "twirl_invariance": "1edf2f865504e9b02a5b5e30f0524ccd79ef5ffa8e97e1977799024c33bd7226",
    # the suites that cycle through the grid's cells draw their start first
    "closed_vs_numeric": "b0b1e2654d940f5817a91c103e00ad4f51114a99769cd7b04bb6b6ad0530e776",
    "analytic_vs_bisection": "565b5bf8e6c490afd36aaff0a6b1e4279c710e3b7145a43f9d9e30b87b9e80e7",
    "pure_depol_universality": "c60a9dc8db309367d5dc1a9b1726c8a0f53342d268f006cbab2901b50ab0cd9b",
    # each case's text holds the EsdResult it got
    "pure_amp_phase_no_esd": "93af2942131ac1d9f8faf7ff336199cbb44342d8a12847fdaa18d70fc024d224",
    "trajectory_monotone": "a97f54c30667755754b0466e1a19ae793810fd12438d9c9e31231c8c15f6c531",
    "tau_zero_identity": "9a03c03fc2b0af9064c45d224d252d2991d86b21a37c68755e97ccda5f116ea9",
}

# max_error of every suite at run_all(3, 40), as the stacked suites read it.
# Most are a few ulps of O(1) values out of matmul and LAPACK, whose
# rounding differs between BLAS builds and CPUs, so a pin is not compared
# bit for bit: each must hold within half its value and within 1e-14.  A
# pin off by a factor (2.75e-16 against 4.2e-17) fails; a 0.0 pin is exact.
MAX_ERRORS_SEED3_CASES40 = {
    "kron_algebra": 1.16683012789241e-14,
    "symmetric_spectrum": 5.329070518200751e-15,
    "factor_reduction": 5.551115123125783e-16,
    "kraus_completeness": 1.5700924586837752e-16,
    "channel_output_validity": 2.1163626406917047e-16,
    "x_form_closure": 3.012848690558697e-18,
    "qubit2_marginal": 1.3018518929051675e-16,
    "composition_semigroup": 1.3147327200186143e-16,
    "concurrence_x_oracle": 4.996003610813204e-16,
    "concurrence_pure_oracle": 2.220446049250313e-16,
    "local_unitary_invariance": 4.0245584642661925e-16,
    "twirl_invariance": 7.244140648242027e-16,
    "closed_vs_numeric": 1.1275702593849246e-17,
    "analytic_vs_bisection": 1.6653345369377348e-16,
    "pure_depol_universality": 2.220446049250313e-16,
    "pure_amp_phase_no_esd": 0.0,
    "trajectory_monotone": 0.0,
    "tau_zero_identity": 2.220446049250313e-16,
}


def test_registry_scales_give_advertised_default_counts():
    scales = {name: scale for name, _, scale, _ in SUITES}
    assert len(SUITES) == 18
    # at the default 1000 cases these land on the advertised sample sizes
    assert round(1000 * scales["closed_vs_numeric"]) == 500
    assert round(1000 * scales["concurrence_x_oracle"]) == 1000
    assert round(1000 * scales["kraus_completeness"]) == 100
    assert round(1000 * scales["local_unitary_invariance"]) == 100
    assert round(1000 * scales["pure_depol_universality"]) == 100
    assert round(1000 * scales["pure_amp_phase_no_esd"]) == 100


def test_suite_result_bookkeeping():
    res = SuiteResult("demo", 3, 1e-6)
    res.record_all([1e-9], lambda i: "fine")
    assert res.passed and res.max_error == 1e-9 and res.failures == []
    res.record_all([1e-3], lambda i: "too big")
    assert not res.passed
    assert res.max_error == 1e-3
    assert res.failures == ["err=1.000000e-03 too big"]


def test_record_counts_nan_as_a_failure():
    res = SuiteResult("demo", 1, 1e-6)
    res.record_all([math.nan], lambda i: "x")
    assert not res.passed
    assert res.failures == ["err=nan x"]
    assert math.isnan(res.max_error)
    # a later finite error does not hide the NaN
    res.record_all([1e-3], lambda i: "y")
    assert math.isnan(res.max_error)
    assert res.failures == ["err=nan x", "err=1.000000e-03 y"]


def test_record_all_formats_only_failing_cases():
    res = SuiteResult("demo", 4, 1e-6)
    asked = []

    def detail(i):
        asked.append(i)
        return f"case {i}"

    res.record_all(np.array([1e-9, 3e-7]), detail)
    assert res.passed and res.max_error == 3e-7 and asked == []
    # errors are taken in flattened (case-major) order; the NaN replaces
    # the finite max_error
    res.record_all(np.array([[1e-9, np.nan], [2e-3, math.inf]]), detail)
    assert asked == [1, 2, 3]
    assert res.failures == ["err=nan case 1", "err=2.000000e-03 case 2", "err=inf case 3"]
    assert math.isnan(res.max_error)


def test_seeded_draws_are_unchanged():
    for index, (name, fn, _, _) in enumerate(SUITES):
        # a negative tolerance makes every case record its reproduction
        res = SuiteResult(name, 20, -1.0)
        fn(np.random.default_rng([0, index]), res)
        assert len(res.failures) >= 20, name
        text = "\n".join(failure.split(" ", 1)[1] for failure in res.failures)
        assert hashlib.sha256(text.encode()).hexdigest() == DRAW_DIGESTS[name], name


def test_max_errors_are_pinned():
    results = run_all(3, 40)
    assert [r.name for r in results] == list(MAX_ERRORS_SEED3_CASES40)
    for r in results:
        pin = MAX_ERRORS_SEED3_CASES40[r.name]
        assert abs(r.max_error - pin) <= min(pin / 2, 1e-14), (r.name, r.max_error)


def test_suites_fail_on_wrong_library_answers(monkeypatch):
    # each check must turn a wrong answer of the code under test into a
    # failing case with its reason, not skip it
    def not_x(rho):
        raise ValueError("not X")

    def real_part_only(w):
        # a factor_concurrence that drops a complex factor's imaginary part,
        # renormalized so that the trace check still passes
        w = np.asarray(w).real
        return factor_concurrence(w / _frobenius(w)[..., None, None])

    def no_death(scenario, tau_max, **kwargs):
        return EsdResult(Classification.ASYMPTOTIC_DECAY, horizon=tau_max)

    def death_at_one(scenario, tau_max, **kwargs):
        return EsdResult(Classification.SUDDEN_DEATH, 1.0, tau_max)

    cases = (
        ("as_x_params", not_x, "x_form_closure", ": not X"),
        ("factor_concurrence", real_part_only, "concurrence_pure_oracle", ""),
        ("esd_time_bisection", no_death, "analytic_vs_bisection", ": bisection got EsdResult("),
        ("esd_time_bisection", no_death, "pure_depol_universality", ": got EsdResult("),
        ("esd_time_bisection", death_at_one, "pure_amp_phase_no_esd", ": EsdResult("),
    )
    for attr, fake, name, reason in cases:
        with monkeypatch.context() as m:
            m.setattr(verification, attr, fake)
            res = run_suite(name, 0, 20)
        assert not res.passed, name
        assert len(res.failures) >= res.cases, name
        assert all(reason in failure for failure in res.failures), name
        if reason:
            assert res.max_error == math.inf, name


def _complex_2x2(rng, *stack):
    return rng.standard_normal((*stack, 2, 2)) + 1j * rng.standard_normal((*stack, 2, 2))


def test_kron_matches_block_structure():
    # verify's own Kronecker product: block (i, j) is a[i, j] * b, the bits
    # of np.kron
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b = _complex_2x2(rng), _complex_2x2(rng)
        expected = np.block([[a[0, 0] * b, a[0, 1] * b], [a[1, 0] * b, a[1, 1] * b]])
        assert verification._kron(a, b).tobytes() == expected.tobytes()
        assert verification._kron(a, b).tobytes() == np.kron(a, b).tobytes()


def test_kron_mixed_product():
    rng = np.random.default_rng(12)
    for _ in range(50):
        a, b, c, d = _complex_2x2(rng, 4)
        np.testing.assert_allclose(
            verification._kron(a, b) @ verification._kron(c, d),
            verification._kron(a @ c, b @ d),
            atol=1e-13,
        )


def test_kron_stacks_pair_by_pair():
    # as the local-unitary and twirl suites take it, on complex and real
    # stacks (the real bit flip _FLIP1)
    rng = np.random.default_rng(13)
    a, b = _complex_2x2(rng, 6), _complex_2x2(rng, 6)
    pairs = verification._kron(a, b)
    assert pairs.shape == (6, 4, 4)
    for i in range(6):
        assert pairs[i].tobytes() == np.kron(a[i], b[i]).tobytes()
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert verification._FLIP1.tobytes() == np.kron(flip, np.eye(2)).tobytes()


def test_factor_reduction_draws_entangled_states():
    # a separable draw compares 0 with 0 and checks nothing: at the default
    # --cases 1000 (500 draws), at least 9 in 10 of the states are entangled
    index = [name for name, _, _, _ in SUITES].index("factor_reduction")
    rng = np.random.default_rng([0, index])
    w = verification._padded([verification._reduction_case(rng) for _ in range(500)], 16)
    assert np.mean(factor_concurrence(w) > 0.0) >= 0.9


def test_factor_reduction_catches_a_reduction_that_drops_a_row(monkeypatch):
    # a QR reduction that drops R's last row, renormalized so that the trace
    # check still passes, fails nearly every case
    def dropped(w):
        w = np.asarray(w)
        if w.shape[-1] > 4:
            w = np.linalg.qr(w.conj().swapaxes(-1, -2), mode="r")[..., :-1, :].conj().swapaxes(-1, -2)
            w = w / _frobenius(w)[..., None, None]
        return factor_concurrence(w)

    monkeypatch.setattr(verification, "factor_concurrence", dropped)
    for seed in (0, 3):
        res = run_suite("factor_reduction", seed, 40)
        assert len(res.failures) >= 0.85 * res.cases, (seed, len(res.failures))


def test_x_form_closure_names_each_record_that_fails_to_rebuild(monkeypatch):
    # an evolved matrix whose record cannot be built fails its own case,
    # with its own reason; the other cases rebuild in one stack and pass
    refused = []

    def as_x_params(rho):
        a = rho[0, 0].real
        if a > 0.2:
            refused.append(a)
            raise ValueError(f"refused a={a!r}")
        return states.as_x_params(rho)

    assert run_suite("x_form_closure", 0, 40).passed
    monkeypatch.setattr(verification, "as_x_params", as_x_params)
    res = run_suite("x_form_closure", 0, 40)
    assert 0 < len(res.failures) < res.cases
    assert len(res.failures) == len(refused)
    for failure, a in zip(res.failures, refused):
        assert failure.startswith("err=inf ") and failure.endswith(f": refused a={a!r}")


def test_stacked_initial_states_match_the_per_scenario_builds():
    # tau_zero_identity stacks the initial factors, zero-padded to 4 columns
    rng = np.random.default_rng(12)
    scenarios = [random_scenario(rng, i) for i in range(48)]
    stacked = verification._padded([state_factor(s.state) for s in scenarios], 4)
    want = np.stack([state_matrix(s.state) for s in scenarios])
    np.testing.assert_allclose(verification._state(stacked), want, rtol=0, atol=1e-15)
    assert verification._padded([], 4).shape == (0, 4, 4)


def test_cycling_suites_reach_every_cell_over_seeds(monkeypatch):
    # at verify --cases 40 these suites run 2 to 20 cases, fewer than their
    # cells in three of them: the start each draws first from its generator
    # takes fresh seeds through every cell
    picks = []

    def scenario(rng, index):
        picks.append(index % sampling.SCENARIO_CELLS)
        return random_scenario(rng, index)

    def death(rng, pick):
        picks.append(pick)
        return sudden_death(rng, pick)

    sudden_death = verification._sudden_death_scenario
    monkeypatch.setattr(sampling, "random_scenario", scenario)
    monkeypatch.setattr(verification, "_sudden_death_scenario", death)
    for name, cells in (("closed_vs_numeric", sampling.SCENARIO_CELLS),
                        ("analytic_vs_bisection", verification._DEATH_PICKS),
                        ("trajectory_monotone", sampling.SCENARIO_CELLS),
                        ("tau_zero_identity", sampling.SCENARIO_CELLS)):
        picks.clear()
        for seed in range(40):
            assert run_suite(name, seed, 40).passed, (name, seed)
        assert set(picks) == set(range(cells)), name


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 0, 10)


def test_run_suite_and_run_all_share_the_cases_check():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="cases must be at least 1"):
            run_suite("concurrence_x_oracle", 0, bad)
        with pytest.raises(ValueError, match="cases must be at least 1"):
            run_all(0, bad)


def test_run_suite_matches_its_run_all_entry():
    # both runners seed suite i from [seed, i] and scale the case count alike
    results = run_all(5, 20)
    for name in ("kraus_completeness", "concurrence_x_oracle", "twirl_invariance"):
        one = run_suite(name, 5, 20)
        same = next(r for r in results if r.name == name)
        assert (one.cases, one.max_error, one.failures) == (same.cases, same.max_error, same.failures)


def test_run_suite_is_seed_stable():
    a = run_suite("concurrence_x_oracle", 7, 50)
    b = run_suite("concurrence_x_oracle", 7, 50)
    assert a.cases == b.cases == 50
    assert a.max_error == b.max_error
    assert a.passed


def test_run_all_small():
    results = run_all(11, 30)
    assert [r.name for r in results] == [name for name, _, _, _ in SUITES]
    assert all(r.passed for r in results)
    assert all(r.cases >= 1 for r in results)
    with pytest.raises(ValueError):
        run_all(0, 0)
