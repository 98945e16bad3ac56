import pytest

from esdsim.verification import SUITES, SuiteResult, run_all, run_suite


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
    res.record(1e-9, "fine")
    assert res.passed and res.max_error == 1e-9 and res.failures == []
    res.record(1e-3, "too big")
    assert not res.passed
    assert res.max_error == 1e-3
    assert res.failures == ["err=1.000000e-03 too big"]


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
