"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get a pass/fail line per criterion.  Tolerances here are
the contract; loosening them is a release decision, not a test fix.
"""
import math
import time

import numpy as np

from esdsim.channels import (
    NoiseKind,
    amplitude_kraus,
    apply_to_factor,
    completeness_residual,
    depolarizing_kraus,
    kraus_for,
    phase_kraus,
)
from esdsim.concurrence import factor_concurrence
from esdsim.dynamics import (
    Classification,
    Scenario,
    closed_form_concurrence,
    esd_time_analytic,
    esd_time_bisection,
    evolved_state,
    noise_param,
    numeric_trajectory,
)
from esdsim.sampling import (
    ginibre_factor,
    haar_unitary,
    random_entangled_pure_params,
    random_noise_kind,
    random_scenario,
    random_x_params,
)
from esdsim.states import (
    Family,
    FamilyParams,
    XStateParams,
    as_x_params,
    state_factor,
    x_entries,
    x_factor,
)
from reference import kraus_sum, reference_concurrence, x_concurrence

AMP = NoiseKind.AMPLITUDE
PHASE = NoiseKind.PHASE
DEPOL = NoiseKind.DEPOLARIZING

FIG1_SOLID = Scenario(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2), AMP)
FIG1_DASHED = Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.2), AMP)
FIG2_SOLID = Scenario(XStateParams(0.2, 0.3, 0.3, 0.2, 0.3), PHASE)
FIG2_DASHED = Scenario(XStateParams(0.5, 0.1, 0.4, 0.0, 0.1), PHASE)
FIG3_SOLID = Scenario(XStateParams(0.5, 0.1, 0.4, 0.0, 0.1), DEPOL)
FIG3_DOTDASHED = Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.2), DEPOL)
BELL_PSI = XStateParams(0.0, 0.5, 0.5, 0.0, 0.5)


def test_criterion_01_amplitude_death_time_and_speed():
    start = time.perf_counter()
    analytic = esd_time_analytic(FIG1_SOLID)
    numeric = esd_time_bisection(FIG1_SOLID)
    elapsed = time.perf_counter() - start
    assert analytic.classification is Classification.SUDDEN_DEATH
    assert numeric.classification is Classification.SUDDEN_DEATH
    assert abs(analytic.tau_death - 1.386) <= 5e-4
    assert abs(numeric.tau_death - 1.386) <= 5e-4
    assert elapsed < 1.0


def test_criterion_02_amplitude_asymptotic_curve_stays_alive():
    result = esd_time_bisection(FIG1_DASHED)
    assert result.classification is Classification.ASYMPTOTIC_DECAY
    for tau in np.linspace(0.25, 50.0, 200):
        assert closed_form_concurrence(FIG1_DASHED, float(tau)) > 0.0


def test_criterion_03_phase_death_time():
    analytic = esd_time_analytic(FIG2_SOLID)
    assert abs(analytic.tau_death - math.log(2.25)) <= 1e-12
    numeric = esd_time_bisection(FIG2_SOLID)
    assert abs(numeric.tau_death - analytic.tau_death) <= 1e-8
    assert (
        esd_time_bisection(FIG2_DASHED).classification
        is Classification.ASYMPTOTIC_DECAY
    )


def test_criterion_04_depolarizing_sudden_death_pair():
    for scenario in (FIG3_SOLID, FIG3_DOTDASHED):
        result = esd_time_bisection(scenario)
        assert result.classification is Classification.SUDDEN_DEATH


def test_criterion_05_bell_state_closed_forms():
    grid = np.linspace(0.0, 10.0, 101)
    for noise, predicted in (
        (AMP, lambda t: math.exp(-t / 2)),
        (PHASE, lambda t: math.exp(-t / 2)),
        (DEPOL, lambda t: max(0.0, 1.0 - 2.0 * noise_param(DEPOL, t))),
    ):
        scenario = Scenario(BELL_PSI, noise)
        w0 = state_factor(BELL_PSI)
        oracle = factor_concurrence(apply_to_factor(w0, kraus_for(noise, noise_param(noise, grid))))
        for tau, c in zip(grid, oracle):
            assert abs(predicted(float(tau)) - c) <= 1e-10
        # and at 50 digits, at a few times
        for tau in grid[::25]:
            assert abs(predicted(float(tau)) - reference_concurrence(scenario, float(tau))) <= 1e-10
    death = esd_time_bisection(Scenario(BELL_PSI, DEPOL))
    assert abs(death.tau_death - 2 * math.log(2)) <= 1e-8


def test_criterion_06_pure_states_die_only_under_depolarizing():
    rng = np.random.default_rng(606)
    for _ in range(100):
        params = random_entangled_pure_params(rng)
        death = esd_time_bisection(Scenario(params, DEPOL), tau_max=5.0)
        assert death.classification is Classification.SUDDEN_DEATH
        assert abs(death.tau_death - 2 * math.log(2)) <= 1e-8
        for noise in (AMP, PHASE):
            result = esd_time_bisection(Scenario(params, noise))
            assert result.classification is Classification.ASYMPTOTIC_DECAY
            assert result.horizon == 50.0


def test_criterion_07_family_boundaries():
    def classify(family, x, noise):
        return esd_time_bisection(Scenario(FamilyParams(family, x), noise)).classification

    assert classify(Family.ISOTROPIC, 0.620, AMP) is Classification.SUDDEN_DEATH
    assert classify(Family.ISOTROPIC, 0.630, AMP) is Classification.ASYMPTOTIC_DECAY
    assert classify(Family.WERNER, 0.49, AMP) is Classification.SUDDEN_DEATH
    assert classify(Family.WERNER, 0.51, AMP) is Classification.ASYMPTOTIC_DECAY
    for x in (0.4, 0.7, 1.0):
        assert classify(Family.WERNER, x, DEPOL) is Classification.SUDDEN_DEATH
    for x in (0.55, 0.75, 1.0):
        assert classify(Family.ISOTROPIC, x, DEPOL) is Classification.SUDDEN_DEATH
    assert classify(Family.WERNER, 1.0, PHASE) is Classification.ASYMPTOTIC_DECAY


def test_criterion_08_closed_forms_match_oracle_at_scale():
    rng = np.random.default_rng(808)
    start = time.perf_counter()
    worst = 0.0
    for i in range(500):
        scenario = random_scenario(rng, i)
        # the CLI's default tau range, amplitude-noise tails included
        tau = float(rng.uniform(0.0, 50.0))
        closed = closed_form_concurrence(scenario, tau)
        oracle = numeric_trajectory(scenario, [tau]).c[0]
        worst = max(worst, abs(closed - oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_09_channel_integrity():
    for ctor in (amplitude_kraus, phase_kraus, depolarizing_kraus):
        for value in np.linspace(0.0, 1.0, 100):
            assert completeness_residual(ctor(float(value))) <= 1e-14

    rng = np.random.default_rng(909)
    for _ in range(500):
        w = ginibre_factor(rng)
        kind = random_noise_kind(rng)
        kraus = kraus_for(kind, float(rng.uniform()))
        evolved = apply_to_factor(w, kraus)
        out = evolved @ evolved.conj().T
        assert np.abs(out - kraus_sum(w @ w.conj().T, kraus)).max() <= 1e-15
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    for i in range(500):
        params = random_x_params(rng)
        kind = random_noise_kind(rng)
        scenario = Scenario(params, kind)
        tau = float(rng.uniform(0.0, 10.0))
        as_x_params(evolved_state(scenario, tau))  # raises if the pattern breaks


def test_criterion_10_concurrence_oracle_properties():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        w = ginibre_factor(rng)
        local = np.kron(haar_unitary(rng), haar_unitary(rng))
        assert abs(factor_concurrence(w) - factor_concurrence(local @ w)) <= 1e-9

    for _ in range(1000):
        params = random_x_params(rng)
        diff = abs(x_concurrence(params) - factor_concurrence(x_factor(*x_entries(params))))
        assert diff <= 1e-9
