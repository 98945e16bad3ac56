import cmath
import copy
import dataclasses
import functools
import hashlib
import json
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdsim import dynamics, states
from esdsim.channels import NoiseKind, NoiseSpec, apply_channel, kraus_for, lift_first
from esdsim.cli import main
from esdsim.concurrence import (
    concurrence_pure,
    concurrence_wootters,
    concurrence_x,
    factor_concurrence,
)
from esdsim.dynamics import (
    FIGURE_PRESETS,
    Classification,
    EsdMethod,
    EsdResult,
    Scenario,
    Trajectory,
    TrajectorySource,
    closed_form_concurrence,
    closed_form_trajectory,
    esd_boundary,
    esd_time_analytic,
    esd_time_bisection,
    evolved_state,
    initial_concurrence,
    initial_factor,
    initial_state,
    noise_param,
    numeric_concurrence,
    numeric_trajectory,
)
from esdsim.sampling import random_scenario
from esdsim.states import Family, FamilyParams, PureStateParams, XStateParams, as_x_params

AMP = NoiseSpec(NoiseKind.AMPLITUDE)
PHASE = NoiseSpec(NoiseKind.PHASE)
DEPOL = NoiseSpec(NoiseKind.DEPOLARIZING)

FIG1_SOLID = XStateParams(0.1, 0.4, 0.4, 0.1, 0.2)
FIG1_DASHED = XStateParams(0.1, 0.2, 0.6, 0.1, 0.2)
FIG2_SOLID = XStateParams(0.2, 0.3, 0.3, 0.2, 0.3)
FIG2_DASHED = XStateParams(0.5, 0.1, 0.4, 0.0, 0.1)
BELL_PSI = XStateParams(0.0, 0.5, 0.5, 0.0, 0.5)


@pytest.fixture(autouse=True)
def _fresh_scan_cache():
    # esd_time_bisection keeps its scan grid and noise values for the life
    # of the process; a test that patches noise_param must neither meet nor
    # leave an entry built from other values
    dynamics._scan_grid.cache_clear()
    yield
    dynamics._scan_grid.cache_clear()


def test_noise_param_values():
    assert noise_param(AMP, 0.0) == 1.0
    assert noise_param(DEPOL, 0.0) == 0.0
    np.testing.assert_allclose(noise_param(DEPOL, 2 * math.log(2)), 0.5, atol=1e-15)
    np.testing.assert_allclose(noise_param(PHASE, 2.0), math.exp(-1.0), atol=1e-15)


def test_noise_param_rejects_negative_time():
    with pytest.raises(ValueError):
        noise_param(AMP, -0.1)
    for tau in (math.nan, [0.0, math.nan], [0.5, -0.1]):
        for noise in (AMP, DEPOL):
            with pytest.raises(ValueError, match="tau must be nonnegative"):
                noise_param(noise, tau)
            with pytest.raises(ValueError, match="tau must be nonnegative"):
                closed_form_concurrence(Scenario(FIG1_SOLID, noise), tau)


def test_initial_concurrence_matches_static_formulas():
    assert initial_concurrence(Scenario(FIG1_SOLID, AMP)) == pytest.approx(0.2)
    assert initial_concurrence(Scenario(BELL_PSI, PHASE)) == 1.0
    assert initial_concurrence(
        Scenario(FamilyParams(Family.ISOTROPIC, 0.8), DEPOL)
    ) == pytest.approx(0.6)
    assert initial_concurrence(
        Scenario(FamilyParams(Family.WERNER, 0.8), AMP)
    ) == pytest.approx(0.7)


def test_closed_form_dies_at_threshold():
    # the amplitude threshold here is ln[a b / (a(b+d) - |z|^2)] = ln 4
    s = Scenario(FIG1_SOLID, AMP)
    assert closed_form_concurrence(s, math.log(4)) == pytest.approx(0.0, abs=1e-15)
    assert closed_form_concurrence(s, math.log(4) - 1e-3) > 0
    assert closed_form_concurrence(s, math.log(4) + 1e-3) == 0.0


def test_bell_amplitude_closed_form_is_exponential():
    s = Scenario(BELL_PSI, AMP)
    for tau in np.linspace(0, 8, 17):
        np.testing.assert_allclose(
            closed_form_concurrence(s, tau), math.exp(-tau / 2), atol=1e-15
        )


def test_bell_depolarizing_closed_form():
    # reduces to max(0, 1 - 2p), dying at p = 1/2
    s = Scenario(BELL_PSI, DEPOL)
    for tau in np.linspace(0, 6, 25):
        p = noise_param(DEPOL, tau)
        np.testing.assert_allclose(
            closed_form_concurrence(s, tau), max(0.0, 1 - 2 * p), atol=1e-14
        )
    assert closed_form_concurrence(s, 2 * math.log(2)) == pytest.approx(0.0, abs=1e-15)


def test_pure_depolarizing_stays_dead_after_crossing():
    params = PureStateParams(0.125, 0.375, 0.375, 0.125, 0.5, 0.5, 0.5)
    s = Scenario(params, DEPOL)
    for tau in np.linspace(2 * math.log(2), 10, 20):
        assert closed_form_concurrence(s, tau) == 0.0
        assert concurrence_wootters(evolved_state(s, tau)) <= 1e-12


def test_closed_vs_numeric_agreement():
    rng = np.random.default_rng(51)
    worst = 0.0
    for i in range(150):
        s = random_scenario(rng, i)
        tau = float(rng.uniform(0, 10))
        closed = closed_form_concurrence(s, tau)
        oracle = concurrence_wootters(evolved_state(s, tau))
        worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-8


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros(3), TrajectorySource.NUMERIC)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros(3), TrajectorySource.NUMERIC)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([0.5, 1.5]), TrajectorySource.NUMERIC)
    traj = Trajectory(np.array([0.0, 1.0]), np.array([0.5, 0.4]), TrajectorySource.NUMERIC)
    with pytest.raises(ValueError):
        traj.c[0] = 0.9  # frozen
    for grid in ([], [-1.0, 0.0]):
        with pytest.raises(ValueError, match="tau grid"):
            Trajectory(np.array(grid), np.zeros(len(grid)), TrajectorySource.NUMERIC)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trajectory_rejects_nonfinite_values(bad):
    # NaN passes the <= and < checks, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        Trajectory([0.0, bad], [0.5, 0.4], TrajectorySource.NUMERIC)
    with pytest.raises(ValueError, match="finite"):
        Trajectory([0.0, 1.0], [0.5, bad], TrajectorySource.NUMERIC)


def test_trajectory_grid_validation():
    s = Scenario(FIG1_SOLID, AMP)
    with pytest.raises(ValueError):
        numeric_trajectory(s, [-0.5, 0.0, 1.0])
    with pytest.raises(ValueError):
        numeric_trajectory(s, [0.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        closed_form_trajectory(s, [])
    for grid in ([0.0, math.nan], [math.nan, 1.0], [0.0, math.inf]):
        for trajectory in (closed_form_trajectory, numeric_trajectory):
            with pytest.raises(ValueError, match="tau grid must be finite"):
                trajectory(s, grid)


@pytest.mark.parametrize("trajectory", [closed_form_trajectory, numeric_trajectory])
def test_trajectory_leaves_the_callers_arrays_writable(trajectory):
    grid = np.linspace(0.0, 2.0, 9)
    traj = trajectory(Scenario(FIG1_SOLID, AMP), grid)
    assert grid.flags.writeable
    np.testing.assert_array_equal(grid, np.linspace(0.0, 2.0, 9))
    grid[0] = 0.5
    assert traj.tau[0] == 0.0 and not traj.tau.flags.writeable
    c = np.array([0.5, 0.4])
    Trajectory(np.array([0.0, 1.0]), c, TrajectorySource.NUMERIC)
    c[0] = 0.3  # still writable


def test_trajectory_starts_at_initial_concurrence():
    s = Scenario(FIG2_SOLID, PHASE)
    traj = numeric_trajectory(s, np.linspace(0, 2, 9))
    np.testing.assert_allclose(traj.c[0], initial_concurrence(s), atol=1e-12)
    assert traj.source is TrajectorySource.NUMERIC


def test_trajectories_monotone_nonincreasing():
    grid = np.linspace(0, 8, 33)
    for s in (
        Scenario(FIG1_SOLID, AMP),
        Scenario(FIG2_SOLID, PHASE),
        Scenario(FIG2_DASHED, PHASE),
        Scenario(PureStateParams(0.25, 0.25, 0.25, 0.25, 0.5, 0.5, 0.5), DEPOL),
        Scenario(FamilyParams(Family.ISOTROPIC, 0.9), AMP),
        Scenario(FamilyParams(Family.WERNER, 0.9), DEPOL),
    ):
        for traj in (numeric_trajectory(s, grid), closed_form_trajectory(s, grid)):
            assert np.all(np.diff(traj.c) <= 1e-10)


# ---------------------------------------------------------------------------
# the stacked numeric route against the per-point reference

CLI_GRID = np.linspace(0.0, 50.0, 2048)


def per_point_route(scenario, grid):
    # the numeric route one point at a time, through 4x4 lifted Kraus
    # operators applied to the initial factor by matmul: the reference the
    # stacked route must reproduce.  (The matrix route, apply_channel and
    # concurrence_wootters, is no reference on amplitude tails: psd_sqrt's
    # zero-eigenvalue snap leaves up to ~3e-7 there.)
    w0 = initial_factor(scenario)
    kind = scenario.noise.kind
    lifted = (lift_first(kraus_for(kind, noise_param(scenario.noise, t))).ops for t in grid)
    return np.array([factor_concurrence(np.hstack(list(ops @ w0))) for ops in lifted])


@pytest.mark.parametrize("pair", range(12))
def test_stacked_route_matches_per_point_route_on_cli_grid(pair):
    # random_scenario cycles the 12 (state kind x noise) pairs by index.  The
    # per-point reference takes every 8th grid point plus both sides of each
    # block boundary; all of it would cost ~12 s.
    scenario = random_scenario(np.random.default_rng(61), pair)
    block = dynamics._BLOCK_ROWS
    edges = np.arange(block, CLI_GRID.size, block)
    picks = np.unique(np.concatenate([np.arange(0, CLI_GRID.size, 8), edges - 1, edges]))
    stacked = numeric_trajectory(scenario, CLI_GRID).c
    np.testing.assert_allclose(
        stacked[picks], per_point_route(scenario, CLI_GRID[picks]), rtol=0, atol=1e-12
    )
    # evolved_state is the product W W^dag of the evolved factor: the
    # matrix route's state at the same point
    kind = scenario.noise.kind
    for i in picks[::64]:
        kraus = kraus_for(kind, noise_param(scenario.noise, CLI_GRID[i]))
        want = apply_channel(initial_state(scenario), kraus)
        assert np.abs(evolved_state(scenario, CLI_GRID[i]) - want).max() <= 1e-15


@pytest.mark.parametrize("noise", [AMP, PHASE, DEPOL], ids=lambda n: n.kind.value)
@pytest.mark.parametrize("arg", [0.0, 1.0, math.pi / 2, math.pi, -2.5])
def test_the_phase_of_z_leaves_the_numeric_route(noise, arg, monkeypatch):
    # the route evolves the record with z -> |z|: the qubit-2 rotation
    # diag(1, e^(-i arg z)) commutes with the noise on qubit 1 and leaves
    # the concurrence unchanged, and the rotated factor is real
    z = 0.3 * cmath.exp(1j * arg)
    scenario = Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, z), noise)
    qr_dtypes = []

    def qr(a, mode, _qr=np.linalg.qr):
        qr_dtypes.append(np.asarray(a).dtype)
        return _qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    c = numeric_trajectory(scenario, CLI_GRID).c
    assert qr_dtypes and set(qr_dtypes) == {np.dtype(np.float64)}
    # the true factor, complex where z is, evolved in one stack
    w0 = initial_factor(scenario)
    assert w0.dtype == (np.float64 if z.imag == 0.0 else np.complex128)
    true = factor_concurrence(dynamics._evolve(w0, noise, CLI_GRID))
    assert np.abs(c - true).max() <= 1e-14
    # the evolved state keeps the phase of z in its (1, 2) coherence (at
    # tau = 1, p < 3/4, so depolarizing noise has not flipped its sign)
    rho = evolved_state(scenario, 1.0)
    assert abs(rho[1, 2] / abs(rho[1, 2]) - z / abs(z)) <= 1e-14


# theta = f + g - h generic, 0 and pi; a = b = 0 (a product state); the
# record whose radicand closed form lost half its digits (exact C 2.4e-17);
# weights near 1e-300, where C is near 1e-150
PURE_TURN_STATES = {
    "generic": PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.5),
    "theta-zero": PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0),
    "theta-pi": PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0 - math.pi),
    "a-b-zero": PureStateParams(0.0, 0.0, 0.3, 0.7, 0.5, 2.0, 1.0),
    "near-product": PureStateParams(
        0.40389553676605316, 0.11176780010956844, 0.3793587841892353, 0.1049778789351431,
        2.048604842356715, 2.8713455886352186, 4.919950430991934,
    ),
    "tiny": PureStateParams(1e-300, 3e-300, 0.5, 0.5, 0.7, 1.9, 4.0),
}


@pytest.mark.parametrize("noise", [AMP, PHASE, DEPOL], ids=lambda n: n.kind.value)
@pytest.mark.parametrize("state", PURE_TURN_STATES.values(), ids=PURE_TURN_STATES)
def test_the_phases_of_a_pure_state_leave_the_numeric_route(noise, state):
    # the route evolves the real column (|r00|, 0, |r01|, |r11|) from the QR
    # of the amplitude matrix: a local unitary away from the state, so the
    # concurrence of the true factor, evolved in complex arithmetic, agrees
    scenario = Scenario(state, noise)
    c = numeric_trajectory(scenario, CLI_GRID).c
    w0 = initial_factor(scenario)
    assert w0.dtype == np.complex128
    true = factor_concurrence(dynamics._evolve(w0, noise, CLI_GRID))
    assert np.abs(c - true).max() <= 1e-14
    assert np.abs(c - closed_form_trajectory(scenario, CLI_GRID).c).max() <= 1e-14
    # the evolved state keeps the true amplitudes: at tau = 0 it is |psi><psi|
    assert np.abs(evolved_state(scenario, 0.0) - states.pure_state(state)).max() <= 1e-15


@pytest.mark.parametrize("pair", range(12))
def test_the_numeric_route_runs_in_float64(pair, monkeypatch):
    # every state kind reaches the stacked QR, the spin-flip product and its
    # eigvalsh as float64.  The pure turn's own QR takes the (n, 2, 2)
    # amplitude matrices, complex where a phase is, and is counted apart.
    scenario = random_scenario(np.random.default_rng(62), pair)
    seen = {"qr": [], "eigvalsh": [], "factor": []}

    def spy(name, original):
        def wrapper(a, *args, **kwargs):
            seen[name].append(np.asarray(a))
            return original(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "qr", spy("qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(dynamics, "factor_concurrence", spy("factor", factor_concurrence))
    numeric_trajectory(scenario, CLI_GRID)
    turn = [a for a in seen["qr"] if a.shape[-2:] == (2, 2)]
    route = [a for a in seen["qr"] if a.shape[-2:] != (2, 2)] + seen["eigvalsh"] + seen["factor"]
    assert [a.shape for a in turn] == ([(1, 2, 2)] if isinstance(scenario.state, PureStateParams) else [])
    assert seen["eigvalsh"] and seen["factor"]
    assert {a.dtype for a in route} == {np.dtype(np.float64)}
    # an X or family factor has more than 4 columns once evolved, and a pure
    # column at most 4: the stacked QR runs for those kinds only
    assert bool(len(route) - len(seen["eigvalsh"]) - len(seen["factor"])) == (
        not isinstance(scenario.state, PureStateParams)
    )


def test_the_pure_turn_is_one_stacked_qr(monkeypatch):
    # all pure records of one numeric_concurrence call take one QR
    shapes = []

    def qr(a, mode, _qr=np.linalg.qr):
        shapes.append(np.shape(a))
        return _qr(a, mode=mode)

    pure = list(PURE_TURN_STATES.values())
    scenarios = [Scenario(s, noise) for s, noise in zip(pure, [AMP, PHASE, DEPOL] * 2)]
    scenarios.append(Scenario(FIG1_SOLID, AMP))
    taus = np.linspace(0.0, 3.0, 5)
    monkeypatch.setattr(np.linalg, "qr", qr)
    c = numeric_concurrence(scenarios, np.tile(taus, (len(scenarios), 1)))
    assert [s for s in shapes if s[-2:] == (2, 2)] == [(len(pure), 2, 2)]
    monkeypatch.undo()
    for row, s in zip(c, scenarios):
        assert np.abs(row - closed_form_trajectory(s, taus).c).max() <= 1e-14


@pytest.mark.parametrize("size", [1, dynamics._BLOCK_ROWS, dynamics._BLOCK_ROWS + 1])
def test_stacked_route_at_block_boundary_sizes(size):
    scenario = Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.2), DEPOL)
    grid = np.linspace(0.0, 50.0, size)
    traj = numeric_trajectory(scenario, grid)
    assert traj.c.shape == (size,)
    np.testing.assert_allclose(traj.c, per_point_route(scenario, grid), rtol=0, atol=1e-12)


def test_numeric_concurrence_matches_each_scenarios_own_trajectory():
    # one call on a mixed list: every cell, an X state with a complex z and
    # a pure state with phases, so each noise kind stacks factors of both
    # widths and dtypes.  A pure column padded to the width of an X factor
    # takes the QR path, hence 1e-14 and not bit equality.
    rng = np.random.default_rng(21)
    scenarios = [random_scenario(rng, pair) for pair in range(12)] + [
        Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.3 * cmath.exp(2j)), DEPOL),
        Scenario(PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0), AMP),
    ]
    n = len(scenarios)
    # single times early, while most states live; grids out to tau = 50
    points = rng.uniform(0.0, 2.0, n)
    grids = np.stack([np.linspace(0.0, 25.0 * t, dynamics._BLOCK_ROWS + 1) for t in points])
    c = numeric_concurrence(scenarios, points)
    rows = numeric_concurrence(scenarios, grids)
    assert c.shape == points.shape and rows.shape == grids.shape
    for i, s in enumerate(scenarios):
        assert abs(c[i] - numeric_trajectory(s, points[i : i + 1]).c[0]) <= 1e-14
        assert np.abs(rows[i] - numeric_trajectory(s, grids[i]).c).max() <= 1e-14
    with pytest.raises(ValueError, match="one leading entry per scenario"):
        numeric_concurrence(scenarios, points[1:])


def test_numeric_concurrence_of_no_scenarios():
    # no scenario gives an empty result of taus's shape, for both layouts
    for shape in ((0,), (0, 5)):
        c = numeric_concurrence([], np.empty(shape))
        assert c.shape == shape and c.dtype == np.float64
    with pytest.raises(ValueError, match="one leading entry per scenario"):
        numeric_concurrence([], np.empty((1, 5)))
    with pytest.raises(ValueError, match="one leading entry per scenario"):
        numeric_concurrence([Scenario(FIG1_SOLID, AMP)], np.empty((0,)))


def test_the_block_bound_leaves_every_bit(monkeypatch):
    # _BLOCK_ROWS bounds memory only: one row per block, a bound that
    # divides neither grid, the old bound, the default and more than the
    # grid give the same bits.  The mixed call (every cell, plus factors of
    # both widths in each noise kind) runs past the default, so that the
    # default takes two blocks, the last partial; the per-cell calls run
    # past 256 only, as one row per block costs ~0.15 ms a block
    rng = np.random.default_rng(24)
    cells = [random_scenario(rng, pair) for pair in range(12)]
    mixed = cells + [
        Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.3 * cmath.exp(2j)), DEPOL),
        Scenario(PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0), AMP),
    ]
    points = dynamics._BLOCK_ROWS + 3
    grid = np.linspace(0.0, 50.0, 261)
    grids = np.sort(rng.uniform(0.0, 50.0, (len(mixed), points)), axis=1)
    results = []
    for rows in (1, 7, 256, dynamics._BLOCK_ROWS, points + 1):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", rows)
        per_cell = [numeric_concurrence([s], grid[None]).tobytes() for s in cells]
        results.append((per_cell, numeric_concurrence(mixed, grids).tobytes()))
    assert all(r == results[0] for r in results)


def test_trajectory_memory_does_not_grow_with_points():
    # a run of 8 blocks peaks within one block of a one-block run plus its
    # output arrays (the grid, the values and the record's two copies, 8
    # bytes a point each), so memory per point cannot grow with --points
    scenario = Scenario(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2 * cmath.exp(1j)), DEPOL)

    def peak(points):
        grid = np.linspace(0.0, 50.0, points)
        numeric_trajectory(scenario, grid)
        tracemalloc.start()
        try:
            numeric_trajectory(scenario, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = dynamics._BLOCK_ROWS
    one, eight = peak(rows), peak(8 * rows)
    assert eight <= one + 4 * 8 * (8 * rows)


def test_amplitude_tail_matches_closed_form():
    # the factor route keeps the weights that decay as e^(-tau) exactly
    # scaled, so the dead tail stays dead
    s = Scenario(FIG1_SOLID, AMP)
    closed = closed_form_trajectory(s, CLI_GRID).c
    numeric = numeric_trajectory(s, CLI_GRID).c
    assert closed_form_concurrence(s, 28.33) == 0.0
    assert np.abs(closed - numeric).max() <= 1e-8
    assert numeric_trajectory(s, [28.33]).c[0] <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="known defect of the matrix-input route: concurrence_wootters on a "
    "matrix takes psd_sqrt, whose relative zero-eigenvalue snap (ZERO_EIG_RTOL) "
    "leaves a ~3e-7 residue on amplitude-noise tails (tau ~ 26-36)",
)
def test_matrix_input_route_on_the_amplitude_tail():
    s = Scenario(FIG1_SOLID, AMP)
    assert concurrence_wootters(evolved_state(s, 28.33)) <= 1e-8


@pytest.mark.parametrize("pair", range(12))
def test_numeric_route_agrees_at_cli_defaults(pair):
    # two random scenarios per (state kind x noise) pair over the default
    # evolve grid, tau in [0, 50]; the README promises 1e-8
    for seed in (71, 72):
        s = random_scenario(np.random.default_rng(seed), pair)
        gap = np.abs(closed_form_trajectory(s, CLI_GRID).c - numeric_trajectory(s, CLI_GRID).c)
        assert gap.max() <= 1e-8, s


def test_evolved_state_is_the_product_of_the_evolved_factor():
    for s in (Scenario(FIG1_SOLID, AMP), Scenario(FIG2_DASHED, DEPOL), Scenario(BELL_PSI, PHASE)):
        w = dynamics._evolve(initial_factor(s), s.noise, [3.0])[0]
        assert evolved_state(s, 3.0).tobytes() == (w @ w.conj().T).tobytes()
    rho = evolved_state(Scenario(PureStateParams(0.1, 0.2, 0.3, 0.4, 1.0, 2.0, 3.0), DEPOL), 0.7)
    assert rho.shape == (4, 4)
    np.testing.assert_allclose(rho, rho.conj().T, rtol=0, atol=0)


def test_initial_factor_rebuilds_the_initial_state():
    for state in (FIG1_SOLID, FIG2_DASHED, BELL_PSI, *GRID_STATES.values()):
        s = Scenario(state, AMP)
        w = initial_factor(s)
        assert w.shape == ((4, 1) if isinstance(state, PureStateParams) else (4, 4))
        np.testing.assert_allclose(w @ w.conj().T, initial_state(s), rtol=0, atol=1e-15)
    # the record is the one admission check, so every route accepts the same
    # states: a central block with b c - |z|^2 = -1e-14, not PSD within the
    # matrix allowance, is refused when it is built
    with pytest.raises(ValueError, match="^matrix is not PSD: min eigenvalue -1.000e-07 < -1.000e-10$"):
        XStateParams(0.5, 0.0, 0.0, 0.5, 1e-7)


def test_the_numeric_route_builds_no_matrix(monkeypatch):
    # every 4x4 state matrix is built by states._x_pattern (X-pattern kinds)
    # or states.pure_state; the numeric route and initial_factor take their
    # factors from the records' entries and amplitudes alone
    scenarios = [random_scenario(np.random.default_rng(26), i) for i in range(12)]

    def refuse(*args):
        raise AssertionError("a state matrix was built")

    monkeypatch.setattr(states, "_x_pattern", refuse)
    monkeypatch.setattr(states, "pure_state", refuse)
    taus = np.linspace(0.0, 3.0, 5)
    mixed = numeric_concurrence(scenarios, np.tile(taus, (12, 1)))
    for s, row in zip(scenarios, mixed):
        # alone, a pure state's factor is not padded: the same values, not the same bits
        np.testing.assert_allclose(numeric_concurrence([s], taus[None])[0], row, rtol=0, atol=1e-12)
    for state in GRID_STATES.values():
        initial_factor(Scenario(state, AMP))
    with pytest.raises(AssertionError, match="a state matrix was built"):
        initial_state(scenarios[0])


# ---------------------------------------------------------------------------
# analytic thresholds


def test_analytic_amplitude_threshold():
    r = esd_time_analytic(Scenario(FIG1_SOLID, AMP))
    assert r.classification is Classification.SUDDEN_DEATH
    assert r.method is EsdMethod.ANALYTIC
    np.testing.assert_allclose(r.tau_death, math.log(4), atol=1e-12)


def test_analytic_amplitude_asymptotic_when_denominator_closes():
    # a(b+d) <= |z|^2 keeps the radical below |z| forever
    r = esd_time_analytic(Scenario(FIG1_DASHED, AMP))
    assert r.classification is Classification.ASYMPTOTIC_DECAY
    assert r.tau_death is None
    # a = 0 degenerates the threshold but decay stays exponential
    r = esd_time_analytic(Scenario(XStateParams(0.0, 0.5, 0.4, 0.1, 0.3), AMP))
    assert r.classification is Classification.ASYMPTOTIC_DECAY


def test_analytic_phase_threshold():
    r = esd_time_analytic(Scenario(FIG2_SOLID, PHASE))
    np.testing.assert_allclose(r.tau_death, math.log(2.25), atol=1e-12)
    # ad = 0 never crosses
    r = esd_time_analytic(Scenario(FIG2_DASHED, PHASE))
    assert r.classification is Classification.ASYMPTOTIC_DECAY


@pytest.mark.parametrize("a, b, d, z", [
    (1e-310, 0.5, 1e-310, 0.5),
    (5e-324, 0.5, 5e-324, 0.5),
    (1e-300, 0.5, 1e-320, 0.5),
    (5e-324, 0.5, 0.25, 0.3),
    (1e-200, 0.5, 1e-123, 0.5),
    (0.2, 0.3, 0.2, 0.3),
    # subnormal roots under which |z| / root stays finite
    (2e-317, 0.5, 5e-324, 1e-20),
    (1e-310, 0.5, 1e-310, 1e-10),
    (3e-309, 0.5, 3e-309, 1e-300),
    (5e-324, 0.5, 1e-300, 1e-160),
    (1e-320, 0.5, 1e-300, 1e-5),
])
def test_analytic_phase_threshold_at_subnormal_weights(a, b, d, z):
    # the rule is 2 ln(|z| / (sqrt(a) sqrt(d))); where the root sqrt(a)
    # sqrt(d) is subnormal (it has lost bits, and only such a root can
    # overflow the quotient) it takes the logarithms apart, elsewhere it
    # keeps the quotient, so its bits do not move
    state = XStateParams(a, b, 1.0 - a - b - d, d, z)
    got = Scenario(state, PHASE)._death_time
    root = math.sqrt(a) * math.sqrt(d)
    if root >= sys.float_info.min:
        assert got == 2.0 * math.log(z / root)
        tol = 4 * math.ulp(got)
    else:
        # each logarithm rounded once, then summed
        tol = 4 * math.ulp(2.0 * (abs(math.log(z)) + abs(math.log(a)) / 2.0 + abs(math.log(d)) / 2.0))
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        want = 2 * mp.log(mp.mpf(z) / (mp.sqrt(mp.mpf(a)) * mp.sqrt(mp.mpf(d))))
        assert abs(got - want) <= tol


def test_analytic_bell_phase_is_asymptotic():
    r = esd_time_analytic(Scenario(BELL_PSI, PHASE))
    assert r.classification is Classification.ASYMPTOTIC_DECAY


def test_analytic_pure_state_cases():
    params = PureStateParams(0.3, 0.2, 0.2, 0.3, 1.0, 0.5, 0.25)
    assert (
        esd_time_analytic(Scenario(params, AMP)).classification
        is Classification.ASYMPTOTIC_DECAY
    )
    assert (
        esd_time_analytic(Scenario(params, PHASE)).classification
        is Classification.ASYMPTOTIC_DECAY
    )
    r = esd_time_analytic(Scenario(params, DEPOL))
    np.testing.assert_allclose(r.tau_death, 2 * math.log(2), atol=1e-15)


def test_analytic_werner_phase_threshold():
    # 2 x gamma = 1 - x  =>  tau = 2 ln[2x/(1-x)]
    r = esd_time_analytic(Scenario(FamilyParams(Family.WERNER, 0.9), PHASE))
    np.testing.assert_allclose(r.tau_death, 2 * math.log(18), atol=1e-12)
    r = esd_time_analytic(Scenario(FamilyParams(Family.WERNER, 1.0), PHASE))
    assert r.classification is Classification.ASYMPTOTIC_DECAY


def test_analytic_isotropic_phase_threshold():
    # (4x-1) gamma = 2(1-x)
    x = 0.75
    r = esd_time_analytic(Scenario(FamilyParams(Family.ISOTROPIC, x), PHASE))
    gamma_star = 2 * (1 - x) / (4 * x - 1)
    np.testing.assert_allclose(r.tau_death, -2 * math.log(gamma_star), atol=1e-12)
    r = esd_time_analytic(Scenario(FamilyParams(Family.ISOTROPIC, 1.0), PHASE))
    assert r.classification is Classification.ASYMPTOTIC_DECAY


def test_analytic_depolarizing_family_thresholds():
    # isotropic zero crossing at p = (6x-3)/(8x-2), Werner at p = (3x-1)/(4x)
    x = 0.8
    r = esd_time_analytic(Scenario(FamilyParams(Family.ISOTROPIC, x), DEPOL))
    p_star = (6 * x - 3) / (8 * x - 2)
    np.testing.assert_allclose(r.tau_death, -2 * math.log1p(-p_star), atol=1e-12)
    r = esd_time_analytic(Scenario(FamilyParams(Family.WERNER, x), DEPOL))
    p_star = (3 * x - 1) / (4 * x)
    np.testing.assert_allclose(r.tau_death, -2 * math.log1p(-p_star), atol=1e-12)
    # both families at x = 1 are pure and die at 2 ln 2
    for fam in (Family.ISOTROPIC, Family.WERNER):
        r = esd_time_analytic(Scenario(FamilyParams(fam, 1.0), DEPOL))
        np.testing.assert_allclose(r.tau_death, 2 * math.log(2), atol=1e-12)


def test_analytic_separable_short_circuit():
    r = esd_time_analytic(Scenario(XStateParams(0.25, 0.25, 0.25, 0.25, 0.0), DEPOL))
    assert r.classification is Classification.INITIALLY_SEPARABLE
    r = esd_time_analytic(Scenario(FamilyParams(Family.WERNER, 0.2), PHASE))
    assert r.classification is Classification.INITIALLY_SEPARABLE


# One entangled state per kind; the grid of the paper is these four kinds
# times the three noises.
GRID_STATES = {
    "xstate": FIG1_SOLID,
    "pure": PureStateParams(0.125, 0.375, 0.375, 0.125, 0.3, 1.1, 2.0),
    "isotropic": FamilyParams(Family.ISOTROPIC, 0.8),
    "werner": FamilyParams(Family.WERNER, 0.8),
}
# Cells where the grid state's concurrence reaches zero only as tau -> inf:
# pure states under amplitude or phase noise, and both families at x = 0.8,
# beyond their amplitude-noise critical x (0.625 and 0.5).
ASYMPTOTIC_CELLS = {
    ("pure", NoiseKind.AMPLITUDE),
    ("pure", NoiseKind.PHASE),
    ("isotropic", NoiseKind.AMPLITUDE),
    ("werner", NoiseKind.AMPLITUDE),
}


def static_concurrence(state):
    if isinstance(state, XStateParams):
        return concurrence_x(state)
    if isinstance(state, PureStateParams):
        return concurrence_pure(state)
    return concurrence_x(as_x_params(initial_state(Scenario(state, AMP))))


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("state_kind", list(GRID_STATES))
def test_every_cell_of_the_grid(state_kind, kind):
    state = GRID_STATES[state_kind]
    s = Scenario(state, NoiseSpec(kind))
    assert closed_form_concurrence(s, 0.0) == pytest.approx(static_concurrence(state), abs=1e-14)
    assert closed_form_concurrence(s, 0.0) > 0.0
    result = esd_time_analytic(s)
    assert result.method is EsdMethod.ANALYTIC
    if result.classification is Classification.ASYMPTOTIC_DECAY:
        assert (state_kind, kind) in ASYMPTOTIC_CELLS
        assert closed_form_concurrence(s, 40.0) > 0.0
        return
    assert (state_kind, kind) not in ASYMPTOTIC_CELLS
    assert result.classification is Classification.SUDDEN_DEATH
    tau = result.tau_death
    assert closed_form_concurrence(s, tau * (1.0 - 1e-6)) > 0.0
    assert closed_form_concurrence(s, tau * (1.0 + 1e-6)) == 0.0


# Cells whose radicand depends on the noise value, with a state and an
# out-of-range value that drives it negative.
NEGATIVE_RADICAND = {
    ("xstate", NoiseKind.AMPLITUDE): (FIG1_SOLID, 2.0),
    ("xstate", NoiseKind.DEPOLARIZING): (XStateParams(0.1, 0.1, 0.6, 0.2, 0.2), 10.0),
    ("isotropic", NoiseKind.AMPLITUDE): (GRID_STATES["isotropic"], 2.0),
    ("werner", NoiseKind.AMPLITUDE): (GRID_STATES["werner"], 2.0),
}


@pytest.mark.parametrize("kind", list(NoiseKind), ids=lambda k: k.value)
@pytest.mark.parametrize("state_kind", list(GRID_STATES))
def test_closed_form_over_the_grid_matches_per_point_calls(monkeypatch, state_kind, kind):
    s = Scenario(GRID_STATES[state_kind], NoiseSpec(kind))
    stacked = closed_form_concurrence(s, CLI_GRID)
    per_point = [closed_form_concurrence(s, float(t)) for t in CLI_GRID]
    assert stacked.shape == CLI_GRID.shape
    assert stacked.tobytes() == np.array(per_point).tobytes()
    assert all(type(c) is np.float64 for c in per_point)
    square = closed_form_concurrence(s, CLI_GRID.reshape(32, 64))
    assert square.tobytes() == stacked.tobytes() and square.shape == (32, 64)

    if (state_kind, kind) in NEGATIVE_RADICAND:
        state, bad = NEGATIVE_RADICAND[state_kind, kind]
        true_param = dynamics.noise_param

        def off_range(noise, tau):
            value = np.array(true_param(noise, tau))
            value.flat[-1] = bad
            return value

        monkeypatch.setattr(dynamics, "noise_param", off_range)
        with pytest.raises(ValueError, match="closed form undefined"):
            closed_form_concurrence(Scenario(state, NoiseSpec(kind)), CLI_GRID[:8])
        with pytest.raises(ValueError, match="closed form undefined"):
            closed_form_concurrence(Scenario(state, NoiseSpec(kind)), 0.5)


def test_dead_amplitude_tail_is_positive_zero():
    # at tau = 2000, eta underflows to 0; the clamp must not return -0.0
    c = closed_form_concurrence(Scenario(FIG1_SOLID, AMP), [1000.0, 2000.0])
    assert c.tolist() == [0.0, 0.0]
    assert all(math.copysign(1.0, v) == 1.0 for v in c)


def test_scenario_pickles_with_its_table_row():
    s = Scenario(GRID_STATES["werner"], PHASE)
    back = pickle.loads(pickle.dumps(s))
    assert back == s
    assert closed_form_concurrence(back, 0.3) == closed_form_concurrence(s, 0.3)
    np.testing.assert_array_equal(initial_state(back), initial_state(s))


def test_each_scenario_builds_its_coefficients_once(monkeypatch, capsys):
    # esd on a sudden death runs the scan, one round and the rule, and all
    # of them read the coefficients built with the scenario
    built, x_margin = [], dynamics._MARGINS[XStateParams]

    def counted(state, kind):
        built.append((state, kind))
        return x_margin(state, kind)

    monkeypatch.setitem(dynamics._MARGINS, XStateParams, counted)
    assert main("esd --noise phase --xstate --a 0.2 --b 0.3 --c 0.3 --d 0.2 --zsq 0.09".split()) == 0
    assert "classification: SuddenDeath" in capsys.readouterr().out
    assert built == [(FIG2_SOLID, NoiseKind.PHASE)]
    # a pure state's coefficients hold its concurrence, taken once for the
    # scan and the rule
    taken, concurrence = [], dynamics.concurrence_pure
    monkeypatch.setattr(dynamics, "concurrence_pure", lambda s: taken.append(s) or concurrence(s))
    argv = "esd --noise amplitude --pure --a 0.4 --b 0.1 --c 0.2 --d 0.3 --f 0.5 --g 0.2 --h 1"
    assert main(argv.split()) == 0
    assert "classification: AsymptoticDecay" in capsys.readouterr().out
    assert len(taken) == 1


def test_a_replaced_noise_reads_its_own_cell():
    taus = np.linspace(0.0, 3.0, 31)
    s = Scenario(FIG2_SOLID, PHASE)
    assert s._death_time is not None
    moved = dataclasses.replace(s, noise=DEPOL)
    fresh = Scenario(FIG2_SOLID, DEPOL)
    np.testing.assert_array_equal(closed_form_concurrence(moved, taus),
                                  closed_form_concurrence(fresh, taus))
    assert moved._death_time == fresh._death_time != s._death_time
    assert esd_time_analytic(moved) == esd_time_analytic(fresh)
    # a copy keeps the cell of its fields
    kept = copy.copy(s)
    np.testing.assert_array_equal(closed_form_concurrence(kept, taus),
                                  closed_form_concurrence(Scenario(FIG2_SOLID, PHASE), taus))
    assert kept._death_time == s._death_time
    assert esd_time_analytic(kept) == esd_time_analytic(s)


# ---------------------------------------------------------------------------
# bisection


def test_bisection_parameter_errors():
    s = Scenario(FIG1_SOLID, AMP)
    with pytest.raises(ValueError):
        esd_time_bisection(s, tau_max=0.0)
    with pytest.raises(ValueError):
        esd_time_bisection(s, points=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tau_max must be positive and finite"):
            esd_time_bisection(s, tau_max=bad)
    with pytest.raises(ValueError, match="tau_max must be at most"):
        esd_time_bisection(s, tau_max=math.nextafter(dynamics.ESD_TAU_MAX_LIMIT, math.inf))
    # every bad setting is refused before the scan cache is looked up
    assert dynamics._scan_grid.cache_info().misses == 0


def _werner_phase_dying_at(tau_death):
    # Werner/phase dies at tau = 2 ln(2x / (1 - x))
    r = math.exp(0.5 * tau_death)
    return Scenario(FamilyParams(Family.WERNER, r / (2.0 + r)), PHASE)


def test_bisection_scan_edges():
    # tau_max 10 over 11 points puts the scan grid on the integers
    for tau_death in (0.5, 9.5):
        s = _werner_phase_dying_at(tau_death)
        r = esd_time_bisection(s, tau_max=10.0, points=11)
        assert r.classification is Classification.SUDDEN_DEATH
        assert abs(r.tau_death - esd_time_analytic(s).tau_death) <= 1e-8
        assert abs(r.tau_death - tau_death) <= 1e-8
    r = esd_time_bisection(_werner_phase_dying_at(12.0), tau_max=10.0, points=11)
    assert r.classification is Classification.ASYMPTOTIC_DECAY
    assert r.horizon == 10.0


@pytest.mark.parametrize("revived", [4.0, 6.0])
def test_bisection_reports_the_first_revived_point(monkeypatch, revived):
    # dead on [3, revived), alive elsewhere; the scan grid is the integers
    def fake(scenario, tau, value):
        return np.where((tau >= 3.0) & (tau < revived), 0.0, 0.5)

    monkeypatch.setattr(dynamics, "_closed_form", fake)
    message = rf"revived after dying, first at tau=(np\.float64\()?{revived}\)?;"
    with pytest.raises(RuntimeError, match=message):
        esd_time_bisection(Scenario(FIG1_SOLID, AMP), tau_max=10.0, points=11)


def test_bisection_matches_analytic_thresholds():
    cases = [
        Scenario(FIG1_SOLID, AMP),
        Scenario(FIG2_SOLID, PHASE),
        Scenario(PureStateParams(0.2, 0.3, 0.3, 0.2, 0.1, 0.2, 0.3), DEPOL),
        Scenario(FamilyParams(Family.WERNER, 0.9), PHASE),
        Scenario(FamilyParams(Family.ISOTROPIC, 0.75), DEPOL),
    ]
    for s in cases:
        analytic = esd_time_analytic(s)
        numeric = esd_time_bisection(s)
        assert numeric.classification is Classification.SUDDEN_DEATH
        assert numeric.method is EsdMethod.BISECTION
        assert abs(numeric.tau_death - analytic.tau_death) <= 1e-8


def test_bisection_oracle_route_agrees():
    # the general route (numeric_trajectory) dies with fig1-solid at the
    # bisected death time ln 4
    s = Scenario(FIG1_SOLID, AMP)
    tau_death = esd_time_bisection(s).tau_death
    assert abs(tau_death - math.log(4)) <= 1e-8
    c = numeric_trajectory(s, [tau_death - 1e-7, tau_death + 1e-9]).c
    assert c[0] > 0.0
    assert c[1] == 0.0


def test_oracle_bisection_over_the_default_horizon_sees_no_revival():
    # the general route reads no revival of fig1-solid on the amplitude
    # tail of the default grid
    s = Scenario(FIG1_SOLID, AMP)
    grid = np.linspace(0.0, dynamics.DEFAULT_TAU_MAX, dynamics.SCAN_POINTS)
    tail = grid[grid > math.log(4)]
    assert numeric_trajectory(s, tail).c.tolist() == [0.0] * len(tail)


def test_initial_concurrence_is_evaluated_once_per_scenario(monkeypatch):
    calls, rules = [], []
    # taken before the counter goes in, so that it adds no count
    reference = closed_form_concurrence(Scenario(FIG2_SOLID, PHASE), 0.0)
    evaluate = dynamics._closed_form

    def counted(scenario, tau, value):
        calls.append(np.size(tau))
        return evaluate(scenario, tau, value)

    rule = dynamics._death

    def counted_rule(margin):
        rules.append(margin)
        return rule(margin)

    monkeypatch.setattr(dynamics, "_closed_form", counted)
    monkeypatch.setattr(dynamics, "_death", counted_rule)
    s = Scenario(FIG2_SOLID, PHASE)
    assert esd_time_analytic(s).classification is Classification.SUDDEN_DEATH
    assert esd_time_bisection(s).classification is Classification.SUDDEN_DEATH
    assert initial_concurrence(s) == reference
    # library order: tau = 0 once for the analytic route, then the scan
    # (tau = 0 included, its value already cached) and the 48 midpoints of
    # the predicted path, one round to the float spacing
    assert calls == [1, 2048, 48]
    # the death-time rule as well: the analytic route and the guess share it
    assert rules == [s._margin]
    # the esd command runs the bisection first, whose scan leaves the value
    # at tau = 0 for the analytic route; both share the rule as well
    calls.clear()
    rules.clear()
    argv = "esd --noise phase --xstate --a 0.2 --b 0.3 --c 0.3 --d 0.2 --zsq 0.09".split()
    assert main(argv) == 0
    assert calls == [2048, 48]
    assert len(rules) == 1
    # an asymptotic decay (d = 0) and a separable state: the scan alone
    for weights in ("--a 0.2 --b 0.3 --c 0.5 --d 0 --zsq 0.09",
                    "--a 0.2 --b 0.3 --c 0.3 --d 0.2 --zsq 0.01"):
        calls.clear()
        assert main(["esd", "--noise", "phase", "--xstate", *weights.split()]) == 0
        assert calls == [2048]


def test_bisection_x_depolarizing_frozen_roots():
    # solid curve of the depolarizing figure: squaring the death condition
    # gives p^2 - 2.7 p + 0.45 = 0, hence p* = (2.7 - sqrt(5.49))/2
    s = Scenario(XStateParams(0.5, 0.1, 0.4, 0.0, 0.1), DEPOL)
    p_star = (2.7 - math.sqrt(5.49)) / 2
    expected = -2 * math.log1p(-p_star)
    r = esd_time_bisection(s)
    assert abs(r.tau_death - expected) <= 1e-8
    assert abs(esd_time_analytic(s).tau_death - expected) <= 1e-14
    # dot-dashed curve: 0.44 p^2 - 1.32 p + 0.27 = 0
    s = Scenario(XStateParams(0.1, 0.2, 0.6, 0.1, 0.2), DEPOL)
    p_star = (1.32 - math.sqrt(1.32**2 - 4 * 0.44 * 0.27)) / (2 * 0.44)
    expected = -2 * math.log1p(-p_star)
    r = esd_time_bisection(s)
    assert abs(r.tau_death - expected) <= 1e-8
    assert abs(esd_time_analytic(s).tau_death - expected) <= 1e-14


def test_bisection_family_amplitude_frozen_roots():
    # isotropic x=0.6: (4x-1)^2 = 2(1-x)(3 - (1+2x) eta^2) solves to
    # eta^2 = 1/4, tau = ln 4
    r = esd_time_bisection(Scenario(FamilyParams(Family.ISOTROPIC, 0.6), AMP))
    assert abs(r.tau_death - math.log(4)) <= 1e-8
    # Werner: (2x)^2 = (1-x)(2 - (1+x) eta^2) gives
    # eta^2 = (2 - 2x - 4x^2)/(1 - x^2); x=0.4 lands on eta^2 = 2/3
    r = esd_time_bisection(Scenario(FamilyParams(Family.WERNER, 0.4), AMP))
    assert abs(r.tau_death - math.log(1.5)) <= 1e-8
    # x=0.49, just under the critical point: eta^2 = 0.0596/0.7599 = 1/12.75
    r = esd_time_bisection(Scenario(FamilyParams(Family.WERNER, 0.49), AMP))
    assert abs(r.tau_death - math.log(12.75)) <= 1e-8


def test_bisection_asymptotic_and_separable():
    r = esd_time_bisection(Scenario(FIG1_DASHED, AMP))
    assert r.classification is Classification.ASYMPTOTIC_DECAY
    assert r.tau_death is None
    assert r.horizon == 50.0
    r = esd_time_bisection(Scenario(FamilyParams(Family.ISOTROPIC, 0.3), PHASE))
    assert r.classification is Classification.INITIALLY_SEPARABLE


def stepwise_bisection(scenario, tau_max=50.0, points=2048):
    # reference: the scan and the one-midpoint-per-evaluation bisection to
    # the float spacing, whose path esd_time_bisection predicts and checks
    # in rounds
    def dead(taus):
        return closed_form_concurrence(scenario, taus) == 0.0

    if dead([0.0])[0]:
        return EsdResult(Classification.INITIALLY_SEPARABLE, EsdMethod.BISECTION)
    grid = np.linspace(0.0, tau_max, points)
    dead_scan = dead(grid[1:])
    if not dead_scan.any():
        return EsdResult(Classification.ASYMPTOTIC_DECAY, EsdMethod.BISECTION, horizon=tau_max)
    first = int(dead_scan.argmax()) + 1
    if not dead_scan[first:].all():
        raise RuntimeError("concurrence revived after dying")
    lo, hi = grid[first - 1], grid[first]
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if dead([mid])[0]:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return EsdResult(
        Classification.SUDDEN_DEATH, EsdMethod.BISECTION, tau_death=mid, horizon=tau_max
    )


def _random_scenarios(seed, n):
    rng = np.random.default_rng(seed)
    return [random_scenario(rng, i) for i in range(n)]


RANDOM_SCENARIOS = _random_scenarios(314, 240)


def test_bisection_matches_the_stepwise_loop():
    # the draws cycle through the 12 (state kind, noise) pairs
    by_class = {kind: [] for kind in Classification}
    for s in RANDOM_SCENARIOS:
        got = esd_time_bisection(s)
        assert got == stepwise_bisection(s), s
        by_class[got.classification].append(s)
    assert all(by_class.values())


def test_bisection_matches_the_stepwise_loop_at_scan_cache_hits_and_misses():
    # the 12 cells at three scan settings in turn, so that each setting
    # first misses the cache (at most 3 entries) and then hits it; the
    # tiny phase state at 800 / 2048 between the blocks evicts one more.
    # Every scenario scans, so the first cell of each noise kind in a block
    # takes the miss: block j leads with the state kind j mod 4, which puts
    # every classification on a miss as well as on a hit
    cells = RANDOM_SCENARIOS[:12]
    assert len({(states.state_kind(s.state), s.noise.kind) for s in cells}) == 12
    tiny = Scenario(XStateParams(1e-200, 0.5, 0.5, 1e-123, 0.5), PHASE)
    runs = []
    for j, (tau_max, points) in enumerate(((50.0, 2048), (10.0, 11), (3.0, 301)) * 2):
        order = sorted(range(12), key=lambda i: ((i - j) % 4, i))
        runs += [(cells[i], tau_max, points) for i in order]
        runs.append((tiny, 800.0, 2048))
    seen = set()
    for s, tau_max, points in runs:
        hits = dynamics._scan_grid.cache_info().hits
        got = esd_time_bisection(s, tau_max=tau_max, points=points)
        assert got == stepwise_bisection(s, tau_max=tau_max, points=points), (s, tau_max, points)
        seen.add((got.classification, dynamics._scan_grid.cache_info().hits > hits))
    assert seen == {(kind, hit) for kind in Classification for hit in (False, True)}


def test_scan_cache_entries_are_read_only_and_bit_identical():
    esd_time_bisection(Scenario(FIG1_SOLID, AMP))
    grid, values = dynamics._scan_grid(NoiseKind.AMPLITUDE, 50.0, 2048)
    assert dynamics._scan_grid.cache_info().hits == 1
    assert grid.tobytes() == CLI_GRID.tobytes()
    # tau = 0 included: its value is the one closed_form_concurrence(s, 0.0)
    # passes the evaluator
    assert values.tobytes() == noise_param(AMP, CLI_GRID).tobytes()
    assert values[0].tobytes() == noise_param(AMP, 0.0).tobytes()
    for array in (grid, values, grid[1:]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_scan_cache_stays_within_its_bound():
    for tau_max in range(1, 101):
        for noise in (AMP, PHASE, DEPOL):
            esd_time_bisection(Scenario(FIG2_SOLID, noise), tau_max=float(tau_max), points=16)
    info = dynamics._scan_grid.cache_info()
    assert info.misses == 300
    assert info.currsize == info.maxsize == 3


SCAN_HORIZONS = (50.0, dynamics.ESD_TAU_MAX_LIMIT)


@pytest.mark.parametrize("tau_max", SCAN_HORIZONS)
def test_the_scan_seeds_the_initial_concurrence_with_its_bits(tau_max):
    # the scan's first point is tau = 0 with the value closed_form_concurrence
    # (s, 0.0) passes the evaluator, so the value it leaves for the analytic
    # route has the same bytes, the sign of a zero included
    for drawn in RANDOM_SCENARIOS:
        s = Scenario(drawn.state, drawn.noise)
        esd_time_bisection(s, tau_max=tau_max)
        seeded = vars(s)["_initial_concurrence"]
        want = closed_form_concurrence(drawn, 0.0)
        assert type(seeded) is type(want)
        assert np.asarray(seeded).tobytes() == np.asarray(want).tobytes(), drawn


@pytest.mark.parametrize("tau_max", SCAN_HORIZONS)
def test_every_initially_separable_draw_is_classified_so(tau_max):
    # separable states scan as well; the verdict at tau = 0 settles them
    # before the revival check, and no formula leaves its domain on them
    edges = [
        Scenario(FamilyParams(family, x), noise)
        for family, x in ((Family.WERNER, 0.0), (Family.WERNER, 1.0 / 3.0),
                          (Family.ISOTROPIC, 0.0), (Family.ISOTROPIC, 0.25),
                          (Family.ISOTROPIC, 0.5))
        for noise in (AMP, PHASE, DEPOL)
    ]
    draws = [s for s in _random_scenarios(27, 1200) if closed_form_concurrence(s, 0.0) == 0.0]
    # every cell but the pure states, whose random draws are entangled
    assert len({(states.state_kind(s.state), s.noise.kind) for s in draws}) == 9
    for s in edges + draws:
        got = esd_time_bisection(s, tau_max=tau_max)
        assert got == EsdResult(Classification.INITIALLY_SEPARABLE, EsdMethod.BISECTION), s


def test_bisection_matches_at_a_tol_below_the_float_spacing():
    # the bisection has no tolerance: it runs until lo and hi are adjacent
    # floats, which is where a step-by-step loop with a tol below the float
    # spacing ends too
    for s in (Scenario(FIG1_SOLID, AMP), Scenario(FIG2_SOLID, PHASE), *RANDOM_SCENARIOS[:48]):
        got = esd_time_bisection(s)
        assert got == stepwise_bisection(s)
        if got.classification is Classification.SUDDEN_DEATH:
            lo, hi = got.tau_death, math.nextafter(got.tau_death, math.inf)
            assert not lo < 0.5 * (lo + hi) < hi


def test_bisection_evaluation_counts(monkeypatch):
    calls = []
    evaluate = dynamics._closed_form

    def counted(scenario, tau, value):
        calls.append(np.size(tau))
        return evaluate(scenario, tau, value)

    monkeypatch.setattr(dynamics, "_closed_form", counted)
    r = esd_time_bisection(Scenario(FIG2_SOLID, PHASE))
    assert r.classification is Classification.SUDDEN_DEATH
    # the scan, tau = 0 included, and one round: the rule's time predicts
    # all 48 midpoints to the float spacing
    assert calls == [2048, 48]
    # every cell has a death-time rule, the cross-pattern/depolarizing one
    # included
    calls.clear()
    depol = esd_time_bisection(Scenario(FIG2_DASHED, DEPOL))
    assert depol.classification is Classification.SUDDEN_DEATH
    assert calls == [2048, 49]
    # a separable state and an asymptotic decay: the scan alone
    for s in (Scenario(FamilyParams(Family.WERNER, 0.3), PHASE), Scenario(FIG1_DASHED, AMP)):
        calls.clear()
        esd_time_bisection(s)
        assert calls == [2048]
    # a wrong rule time, or none, costs one round per verdict that differs
    # from the prediction; each round keeps at least one midpoint, so the
    # rounds hold fewer midpoints one after the other
    for guess in (r.tau_death + 0.01, r.tau_death - 0.01, None):
        monkeypatch.setattr(dynamics, "_death", lambda margin: guess)
        calls.clear()
        assert esd_time_bisection(Scenario(FIG2_SOLID, PHASE)) == r
        assert calls[0] == 2048
        assert 10 < len(calls) - 1 <= 48
        assert all(a >= b for a, b in zip(calls[1:], calls[2:]))


def test_bisection_without_a_finite_rule_time_matches_the_stepwise_loop(monkeypatch):
    # the phase rule takes sqrt(a) sqrt(d), so |z| / (sqrt(a) sqrt(d)) stays
    # finite and the death near tau = 742 has a rule time
    tiny = Scenario(XStateParams(1e-200, 0.5, 0.5, 1e-123, 0.5), PHASE)
    assert tiny._death_time == 742.3486906759568
    predicted = esd_time_bisection(tiny, tau_max=800.0)
    assert predicted.classification is Classification.SUDDEN_DEATH
    assert predicted == stepwise_bisection(tiny, tau_max=800.0)
    # a rule time of inf predicts every midpoint alive: the rounds end at
    # each dead one and still land on the same bits
    monkeypatch.setattr(dynamics, "_death", lambda margin: math.inf)
    tiny = Scenario(XStateParams(1e-200, 0.5, 0.5, 1e-123, 0.5), PHASE)
    assert tiny._death_time == math.inf
    assert esd_time_bisection(tiny, tau_max=800.0) == predicted


def test_death_guess_is_a_finite_rule_value(monkeypatch):
    # the bisection predicts its rounds from the rule time the analytic
    # route reports, read once per scenario
    calls = []
    evaluate = dynamics._closed_form

    def counted(scenario, tau, value):
        calls.append(np.size(tau))
        return evaluate(scenario, tau, value)

    monkeypatch.setattr(dynamics, "_closed_form", counted)
    for s in (Scenario(FIG2_SOLID, PHASE), Scenario(FIG2_DASHED, DEPOL)):
        assert s._death_time == esd_time_analytic(s).tau_death
        calls.clear()
        got = esd_time_bisection(s)
        # a rule time right to the float spacing predicts the whole path
        assert calls[0] == 2048 and len(calls) == 2
        assert got == stepwise_bisection(s)
    # weights near 1e-162 keep a finite phase rule time
    tiny = Scenario(XStateParams(1e-200, 0.5, 0.5, 1e-123, 0.5), PHASE)
    assert tiny._death_time == 742.3486906759568
    # a rule that finds no death, a death time that overflows
    assert Scenario(FIG1_DASHED, AMP)._death_time is None
    assert Scenario(FamilyParams(Family.WERNER, 0.6), AMP)._death_time is None
    monkeypatch.setattr(dynamics, "_death", lambda margin: math.inf)
    s = Scenario(FIG2_SOLID, PHASE)
    assert s._death_time == math.inf
    assert esd_time_bisection(s) == stepwise_bisection(s)


# sudden deaths of the random draws, from every cell that has them
SUDDEN_DEATHS = [
    s for s in RANDOM_SCENARIOS[:120]
    if esd_time_bisection(s).classification is Classification.SUDDEN_DEATH
]
ULP = st.integers(1, 4) | st.integers(-4, -1)
SIGN = st.sampled_from([1.0, -1.0])


@functools.cache
def _stepwise_references(i):
    # the step-by-step result and the scan bracket of its death time
    s = SUDDEN_DEATHS[i]
    closed = stepwise_bisection(s)
    grid = np.linspace(0.0, dynamics.DEFAULT_TAU_MAX, dynamics.SCAN_POINTS)
    k = int(np.searchsorted(grid, closed.tau_death, side="right"))
    return closed, float(grid[k - 1]), float(grid[k])


@st.composite
def _guesses(draw, base, lo, hi):
    kind = draw(st.sampled_from(
        ["exact", "ulps", "1e-12", "1e-9", "0.01", "lo", "hi", "outside", "inf", "nan", "none"]
    ))
    if kind == "exact":
        return base
    if kind == "ulps":
        return base + draw(ULP) * math.ulp(base)
    if kind in ("1e-12", "1e-9", "0.01"):
        return base + draw(SIGN) * float(kind)
    if kind == "outside":
        return draw(st.sampled_from([lo - 1.0, 0.5 * lo, hi + 1.0]))
    return {"lo": lo, "hi": hi, "inf": draw(SIGN) * math.inf, "nan": math.nan}.get(kind)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_any_guess_gives_the_stepwise_bits(data):
    # the guess is the cell's death rule, so it reaches the bisection as a
    # rule time does: a finite value, inf, nan, or None where the rule finds
    # no death
    i = data.draw(st.integers(0, len(SUDDEN_DEATHS) - 1), label="scenario")
    drawn = SUDDEN_DEATHS[i]
    closed, lo, hi = _stepwise_references(i)
    # the cell's own death time where it is finite, else the bisected one
    rule = drawn._death_time
    base = rule if rule is not None and math.isfinite(rule) else closed.tau_death
    guess = data.draw(_guesses(base, lo, hi), label="guess")
    asked = []

    def guessed(margin):
        asked.append(margin)
        return guess

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_death", guessed)
        fresh = Scenario(drawn.state, drawn.noise)
        assert esd_time_bisection(fresh) == closed
    # the bisection reached the rounds and read the rule once, on the
    # scenario's own coefficients
    assert asked == [fresh._margin]


def test_bisection_takes_at_most_two_rounds_per_death(monkeypatch):
    # the rule's time predicts whole paths, so a round ends early only near
    # a death time that the rule misses by an ulp or so.  One closed-form
    # call per midpoint would take about 50 per death
    calls = []
    evaluate = dynamics._closed_form

    def counted(scenario, tau, value):
        calls.append(np.size(tau))
        return evaluate(scenario, tau, value)

    monkeypatch.setattr(dynamics, "_closed_form", counted)
    rounds = 0
    for drawn in SUDDEN_DEATHS:
        calls.clear()
        r = esd_time_bisection(Scenario(drawn.state, drawn.noise))
        assert r.classification is Classification.SUDDEN_DEATH
        rounds += len(calls) - 1
    assert len(SUDDEN_DEATHS) >= 30
    assert rounds <= 2 * len(SUDDEN_DEATHS), rounds


def test_a_shifted_death_rule_moves_only_the_analytic_time(monkeypatch, capsys):
    argv = "esd --noise phase --xstate --a 0.2 --b 0.3 --c 0.3 --d 0.2 --zsq 0.09".split()

    def esd_fields():
        assert main([*argv, "--format", "jsonl"]) == 0
        return json.loads(capsys.readouterr().out)

    before = esd_fields()
    bisected = esd_time_bisection(Scenario(FIG2_SOLID, PHASE))
    rule = dynamics._death
    monkeypatch.setattr(dynamics, "_death", lambda margin: rule(margin) + 1e-6)
    after = esd_fields()
    assert esd_time_bisection(Scenario(FIG2_SOLID, PHASE)) == bisected
    assert after["tau_death_bisection"] == before["tau_death_bisection"]
    assert after["tau_death_analytic"] != before["tau_death_analytic"]
    assert abs(after["abs_diff"] - 1e-6) <= 1e-9


def _esd_argv(s):
    # the esd command line of a random_scenario draw
    argv = ["esd", "--noise", s.noise.kind.value]
    state = s.state
    if isinstance(state, FamilyParams):
        return [*argv, "--family", state.family.value, "--x", repr(float(state.x))]
    if isinstance(state, XStateParams):
        argv.append("--xstate")
        extra = {"zmod": abs(state.z), "zarg": cmath.phase(state.z)}
    else:
        argv.append("--pure")
        extra = {"f": state.f, "g": state.g, "h": state.h}
    for name, value in {"a": state.a, "b": state.b, "c": state.c, "d": state.d, **extra}.items():
        argv += [f"--{name}", repr(float(value))]
    return argv


# sha256 of the esd stdout below, taken from the step-by-step bisection.
# Re-pinned when the bisection went on to the float spacing in place of a
# 1e-9 tolerance: against the output before, every classification,
# tau_death_analytic and horizon line is byte-identical; only the
# tau_death_bisection and abs_diff lines moved, with every abs_diff
# <= 2e-15 (it was up to 3.4e-10).  Re-pinned when every cell took one
# margin: only 20 abs_diff lines moved.
ESD_STDOUT_SHA256 = "0f20e2d14a90c7e79768d4d74138be7355fa1ed4592ddf6e87b804b5a683d75e"


def test_esd_stdout_is_pinned(capsys):
    digest = hashlib.sha256()
    for s in RANDOM_SCENARIOS[:120]:
        for fmt in ("csv", "jsonl"):
            assert main([*_esd_argv(s), "--format", fmt]) == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ESD_STDOUT_SHA256


def test_esd_result_invariants():
    with pytest.raises(ValueError):
        EsdResult(Classification.SUDDEN_DEATH, EsdMethod.ANALYTIC)  # missing tau
    with pytest.raises(ValueError):
        EsdResult(Classification.ASYMPTOTIC_DECAY, EsdMethod.ANALYTIC, tau_death=1.0)
    with pytest.raises(ValueError):
        EsdResult(Classification.SUDDEN_DEATH, EsdMethod.BISECTION, tau_death=-1.0)


# ---------------------------------------------------------------------------
# boundaries and presets


def test_esd_boundary_table():
    b = esd_boundary(Family.ISOTROPIC, NoiseKind.AMPLITUDE)
    assert b.critical_x == 0.625
    assert b.contains(0.62) and not b.contains(0.63)
    b = esd_boundary(Family.WERNER, NoiseKind.AMPLITUDE)
    assert b.critical_x == 0.5
    assert b.contains(0.49) and not b.contains(0.51)
    b = esd_boundary(Family.WERNER, NoiseKind.DEPOLARIZING)
    assert b.contains(1.0) and b.contains(0.4) and not b.contains(1.0 / 3.0)
    b = esd_boundary(Family.ISOTROPIC, NoiseKind.DEPOLARIZING)
    assert b.contains(0.55) and b.contains(1.0) and not b.contains(0.5)
    b = esd_boundary(Family.WERNER, NoiseKind.PHASE)
    assert not b.contains(1.0)
    b = esd_boundary(Family.ISOTROPIC, NoiseKind.PHASE)
    assert b.contains(0.99) and not b.contains(1.0)
    assert "0.625" in esd_boundary(Family.ISOTROPIC, NoiseKind.AMPLITUDE).description


def test_boundary_classifications_match_bisection():
    # sample one x inside and one outside each sudden-death interval
    for family, kind, inside, outside in [
        (Family.ISOTROPIC, NoiseKind.PHASE, 0.8, 1.0),
        (Family.WERNER, NoiseKind.PHASE, 0.7, 1.0),
        (Family.ISOTROPIC, NoiseKind.DEPOLARIZING, 0.7, None),
        (Family.WERNER, NoiseKind.DEPOLARIZING, 0.5, None),
    ]:
        r = esd_time_bisection(Scenario(FamilyParams(family, inside), NoiseSpec(kind)))
        assert r.classification is Classification.SUDDEN_DEATH
        if outside is not None:
            r = esd_time_bisection(
                Scenario(FamilyParams(family, outside), NoiseSpec(kind))
            )
            assert r.classification is Classification.ASYMPTOTIC_DECAY


def test_x_depolarizing_death_is_positive_wherever_the_closed_form_is():
    # |z| within a few ulps of sqrt(ad): wherever the closed form at tau = 0
    # reads positive, the rule must give a positive death time, also where
    # the rounding of sqrt(3a) sqrt(3d) puts the state on the separable side
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(40):
        a, b, c, d = (float(w) for w in rng.dirichlet(np.ones(4)))
        if b * c < a * d:
            a, b, c, d = b, a, d, c
        for direction, steps in ((0.0, 2), (1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3)):
            mag = math.sqrt(a * d)
            for _ in range(steps):
                mag = math.nextafter(mag, direction)
            s = Scenario(XStateParams(a, b, c, d, mag), DEPOL)
            if closed_form_concurrence(s, 0.0) > 0.0:
                checked += 1
                result = esd_time_analytic(s)
                assert result.classification is Classification.SUDDEN_DEATH
                assert 0.0 < result.tau_death < 1e-12, s
    assert checked > 40


FAMILY_CELLS = [(f, k) for f in Family for k in NoiseKind]


@pytest.mark.parametrize("family, kind", FAMILY_CELLS, ids=lambda v: v.value)
def test_death_rule_is_finite_exactly_inside_the_boundary(family, kind):
    b = esd_boundary(family, kind)
    beyond = [] if b.critical_x is None else [b.critical_x, b.critical_x + 1e-9, 0.9, 1.0]
    xs = [b.x_min - 1e-6, b.x_min, b.x_min + 1e-6, 0.5 * (b.x_min + b.x_max),
          b.x_max - 1e-6, b.x_max, *beyond]
    for x in (x for x in xs if 0.0 <= x <= 1.0):
        tau = esd_time_analytic(Scenario(FamilyParams(family, x), NoiseSpec(kind))).tau_death
        assert (tau is not None and math.isfinite(tau)) == b.contains(x), (x, tau)
        if b.critical_x is not None and x >= b.critical_x:
            assert tau is None, x


def test_figure_presets_wiring():
    assert set(FIGURE_PRESETS) == {"fig1", "fig2", "fig3", "fig4"}
    fig1 = FIGURE_PRESETS["fig1"]
    assert [c.label for c in fig1.curves] == ["solid", "dashed"]
    assert all(c.scenario.noise.kind is NoiseKind.AMPLITUDE for c in fig1.curves)
    fig4 = FIGURE_PRESETS["fig4"]
    assert len(fig4.curves) == 3
    assert all(c.scenario.noise.kind is NoiseKind.DEPOLARIZING for c in fig4.curves)
    # every preset curve starts entangled
    for preset in FIGURE_PRESETS.values():
        for curve in preset.curves:
            assert initial_concurrence(curve.scenario) > 0


def test_bisection_ends_below_the_float_spacing():
    # hi - lo stops shrinking once lo and hi are adjacent floats, and the
    # loop ends there
    s = Scenario(FIG1_SOLID, AMP)
    r = esd_time_bisection(s)
    assert abs(r.tau_death - math.log(4)) <= math.ulp(math.log(4))


# e^(-tau/2) underflows to 0 past about 1490 (1416.79 leaves the normal
# floats), which the closed forms read as a death
LONG_HORIZON_DECAYS = [
    Scenario(PureStateParams(0.5, 0.0, 0.0, 0.5), AMP),
    Scenario(PureStateParams(0.5, 0.0, 0.0, 0.5), PHASE),
    Scenario(FamilyParams(Family.WERNER, 1.0), PHASE),
    Scenario(FIG1_DASHED, AMP),
]


@pytest.mark.parametrize("s", LONG_HORIZON_DECAYS)
def test_a_scan_past_the_normal_floats_is_refused(s):
    assert esd_time_analytic(s).classification is Classification.ASYMPTOTIC_DECAY
    with pytest.raises(ValueError, match=r"at most 1416\.79.*normal float"):
        esd_time_bisection(s, tau_max=3000.0)
    limit = dynamics.ESD_TAU_MAX_LIMIT
    assert limit == -2.0 * math.log(np.finfo(float).tiny)
    assert noise_param(s.noise, limit) >= np.finfo(float).tiny
    with pytest.raises(ValueError):
        esd_time_bisection(s, tau_max=math.nextafter(limit, math.inf))
    r = esd_time_bisection(s, tau_max=limit)
    assert r.classification is Classification.ASYMPTOTIC_DECAY
    assert r.horizon == limit


# Asymptotic decays whose closed form is a product of e^(-tau/2) powers and
# a small constant: the product underflows to 0 long before e^(-tau/2)
# leaves the normal floats, and the scan reads a death
PRODUCT_UNDERFLOWS = {
    # eta * (|z| - sqrt(a(b + d - b eta^2))), dead near tau = 798.10
    "x-amplitude": Scenario(XStateParams(1e-300, 0.25, 0.75 - 1e-300, 0.0, 1e-150), AMP),
    # gamma |z| with a d = 0, dead near tau = 799.49
    "x-phase": Scenario(XStateParams(0.0, 0.5, 0.5, 0.0, 1e-150), PHASE),
    # e^(-tau/2) C0 with C0 = 2e-150, dead near tau = 800.88
    "pure-amplitude": Scenario(PureStateParams(1.0, 0.0, 0.0, 1e-300), AMP),
    "pure-phase": Scenario(PureStateParams(1.0, 0.0, 0.0, 1e-300), PHASE),
    # at the critical x the closed form is of order eta^3, dead near 495.64
    "isotropic-critical": Scenario(FamilyParams(Family.ISOTROPIC, 0.625), AMP),
    "werner-critical": Scenario(FamilyParams(Family.WERNER, 0.5), AMP),
}


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the closed form's product of e^(-tau/2) powers and a "
    "small constant underflows to 0 below ESD_TAU_MAX_LIMIT, a false death",
)
@pytest.mark.parametrize("s", PRODUCT_UNDERFLOWS.values(), ids=PRODUCT_UNDERFLOWS.keys())
def test_amplitude_margin_underflow_below_the_limit(s):
    assert esd_time_analytic(s).classification is Classification.ASYMPTOTIC_DECAY
    r = esd_time_bisection(s, tau_max=1400.0)
    assert r.classification is Classification.ASYMPTOTIC_DECAY, r.tau_death
