"""Both routes against a 50-digit Wootters reference at the domain's edges.

The README promises that the closed forms and the general (numeric) route
agree everywhere the CLI accepts.  These property tests draw states at
the boundaries where rounding hurts most: a zero corner weight (a = 0 or
d = 0), a rank-1 central block (|z|^2 = b c), the family critical x of
the amplitude intervals, x = 1, and pure states under depolarizing noise
near the kink at tau = 2 ln 2.  Times run over the CLI's default range
[0, 50], amplitude-noise tails included.

The reference (`reference.reference_concurrence`) builds the evolved state
from the same float inputs in mpmath at 50 digits, so its own error is
near 1e-25.  At the family critical x the amplitude-noise concurrence falls below that
on the tail, so there the closed form is also held to a relative bound
against its own formula evaluated at 50 digits.

The death rules of the cross-pattern/depolarizing cell and of both
families under amplitude noise are checked the same way, against the root
of their threshold equation found at 50 digits.
"""
import contextlib
import io
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from esdsim.channels import NoiseKind
from esdsim.cli import main
from esdsim.dynamics import (
    Classification,
    Scenario,
    closed_form_concurrence,
    esd_boundary,
    esd_time_analytic,
    esd_time_bisection,
    numeric_trajectory,
)
from esdsim.states import Family, FamilyParams, PureStateParams, XStateParams
from reference import (
    MP,
    initial_matrix,
    kraus_operators,
    reference_concurrence,
    reference_death,
    reference_margin,
)

# both routes, against the reference; the gaps seen are below 1e-15
TOL = 1e-12

KINDS = st.sampled_from(list(NoiseKind))
TAUS = st.floats(0.0, 50.0)
UNIT = st.floats(0.0, 1.0)
PHASE = st.floats(0.0, 2.0 * math.pi)
POSITIVE = st.floats(1e-3, 1.0)

BOUNDARY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

def assert_routes_match_reference(scenario: Scenario, tau: float) -> None:
    want = reference_concurrence(scenario, tau)
    numeric = numeric_trajectory(scenario, [tau]).c[0]
    closed = closed_form_concurrence(scenario, tau)
    assert abs(numeric - want) <= TOL, (scenario, tau, numeric, want)
    assert abs(closed - want) <= TOL, (scenario, tau, closed, want)


def family_amplitude_closed_form(state: FamilyParams, tau: float):
    """The family's amplitude-noise closed form at 50 digits, whose margin
    a - sqrt(R) keeps about 50 - tau / ln 10 of them."""
    mp = MP
    x, eta = mp.mpf(state.x), mp.exp(-mp.mpf(tau) / 2)
    if state.family is Family.ISOTROPIC:
        return eta / 3 * max(0, (4 * x - 1) - mp.sqrt(2 * (1 - x) * (3 - (1 + 2 * x) * eta**2)))
    return eta / 2 * max(0, 2 * x - mp.sqrt((1 - x) * (2 - (1 + x) * eta**2)))


def assert_closed_form_is_relatively_exact(scenario: Scenario, tau: float) -> None:
    # a few roundings of eta, eta^2 and the margin: a few ulps
    want = family_amplitude_closed_form(scenario.state, tau)
    got = closed_form_concurrence(scenario, tau)
    assert want > 0 and abs(got - want) <= 4e-15 * want, (scenario, tau, got, float(want))


def _weights(raw, zero: int):
    # three positive draws normalized into a..d, with weight `zero` exactly 0
    total = sum(raw)
    w = [v / total for v in raw]
    w.insert(zero, 0.0)
    return w


@BOUNDARY
@given(
    st.lists(POSITIVE, min_size=3, max_size=3), st.sampled_from([0, 3]), UNIT, PHASE, KINDS, TAUS
)
def test_zero_corner_weight(raw, zero, u, arg, kind, tau):
    # a = 0 or d = 0: the threshold formulas degenerate there
    a, b, c, d = _weights(raw, zero)
    z = u * math.sqrt(b * c) * complex(math.cos(arg), math.sin(arg))
    assert_routes_match_reference(Scenario(XStateParams(a, b, c, d, z), kind), tau)


@BOUNDARY
@given(st.lists(POSITIVE, min_size=4, max_size=4), PHASE, KINDS, TAUS)
def test_rank_one_central_block(raw, arg, kind, tau):
    # |z|^2 = b c: the central block is a projector times its trace
    a, b, c, d = (v / sum(raw) for v in raw)
    z = math.sqrt(b * c) * complex(math.cos(arg), math.sin(arg))
    assert_routes_match_reference(Scenario(XStateParams(a, b, c, d, z), kind), tau)


@BOUNDARY
@given(
    st.sampled_from([(Family.ISOTROPIC, 0.625), (Family.WERNER, 0.5)]),
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-4, -1e-4]),
    TAUS,
)
def test_family_critical_x_under_amplitude_noise(critical, offset, tau):
    # at the critical x the amplitude-noise concurrence reaches zero only
    # as tau -> infinity; just below it, sudden death comes late
    family, x = critical
    scenario = Scenario(FamilyParams(family, x + offset), NoiseKind.AMPLITUDE)
    assert_routes_match_reference(scenario, tau)
    if offset == 0.0:
        # the closed form keeps its relative precision on the whole tail
        assert_closed_form_is_relatively_exact(scenario, tau)


@BOUNDARY
@given(st.sampled_from(list(Family)), KINDS, TAUS)
def test_family_at_x_one(family, kind, tau):
    # x = 1 is a maximally entangled pure state with a rank-1 central block
    assert_routes_match_reference(Scenario(FamilyParams(family, 1.0), kind), tau)


@BOUNDARY
@given(
    st.lists(POSITIVE, min_size=4, max_size=4),
    st.lists(PHASE, min_size=3, max_size=3),
    st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
)
def test_pure_depolarizing_near_the_kink(raw, phases, offset):
    # every entangled pure state dies at tau = 2 ln 2 under depolarizing noise
    a, b, c, d = (v / sum(raw) for v in raw)
    scenario = Scenario(PureStateParams(a, b, c, d, *phases), NoiseKind.DEPOLARIZING)
    assert_routes_match_reference(scenario, 2.0 * math.log(2.0) + offset)


@BOUNDARY
@given(
    st.lists(POSITIVE, min_size=4, max_size=4),
    st.lists(PHASE, min_size=3, max_size=3),
    st.sampled_from([NoiseKind.AMPLITUDE, NoiseKind.PHASE]),
    TAUS,
)
def test_pure_damping_tails(raw, phases, kind, tau):
    # amplitude and phase noise never kill a pure state: C = e^(-tau/2) C0
    a, b, c, d = (v / sum(raw) for v in raw)
    scenario = Scenario(PureStateParams(a, b, c, d, *phases), kind)
    assert_routes_match_reference(scenario, tau)


def test_reference_on_known_values():
    # the Bell state |01> + |10> under amplitude noise keeps C = e^(-tau/2)
    bell = Scenario(XStateParams(0.0, 0.5, 0.5, 0.0, 0.5), NoiseKind.AMPLITUDE)
    for tau in (0.0, 1.0, 30.0):
        assert abs(reference_concurrence(bell, tau) - math.exp(-tau / 2)) <= 1e-15
    # fig1-solid dies at ln 4 and stays dead on the amplitude tail
    solid = Scenario(XStateParams(0.1, 0.4, 0.4, 0.1, 0.2), NoiseKind.AMPLITUDE)
    assert reference_concurrence(solid, 28.33) == 0.0
    assert reference_concurrence(solid, 1.0) > 0.0
    assert np.isclose(reference_concurrence(solid, 0.0), 0.2, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# death rules against the root of their threshold equation


def _x_depolarizing_threshold(state: XStateParams):
    """tau at the root in (0, 3/4) of (3 - 4p)^2 |z|^2 = (3a + 2p(c - a))(3d + 2p(b - d)),
    by bisection on log p at 50 digits (the root may be near 1e-160)."""
    mp = MP
    a, b, c, d = (mp.mpf(w) for w in (state.a, state.b, state.c, state.d))
    zsq = abs(mp.mpc(state.z)) ** 2

    def f(p):
        return (3 - 4 * p) ** 2 * zsq - (3 * a + 2 * p * (c - a)) * (3 * d + 2 * p * (b - d))

    lo, hi = mp.mpf("1e-400"), mp.mpf(3) / 4
    assert f(lo) > 0 > f(hi)
    while hi / lo - 1 > mp.mpf("1e-40"):
        mid = mp.sqrt(lo * hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return -2 * mp.log1p(-lo)


def _family_amplitude_threshold(state: FamilyParams):
    """tau where the amplitude-noise closed form's coherence term equals its
    root term, solved for eta^2 at 50 digits; None where eta*^2 <= 0."""
    mp = MP
    x = mp.mpf(state.x)
    if state.family is Family.ISOTROPIC:
        # (4x - 1)^2 = 2(1 - x)(3 - (1 + 2x) eta^2)
        eta_sq = (3 - (4 * x - 1) ** 2 / (2 * (1 - x))) / (1 + 2 * x) if x < 1 else mp.mpf(-1)
    else:
        # 4x^2 = (1 - x)(2 - (1 + x) eta^2)
        eta_sq = (2 - 4 * x**2 / (1 - x)) / (1 + x) if x < 1 else mp.mpf(-1)
    return -mp.log(eta_sq) if eta_sq > 0 else None


def assert_death_time_matches(scenario: Scenario, want, rel: float = 1e-12, abs_: float = 0.0):
    got = esd_time_analytic(scenario).tau_death
    if want is None:
        assert got is None, (scenario, got)
        return
    assert got is not None and got > 0.0, (scenario, got)
    assert abs(got - float(want)) <= rel * float(want) + abs_, (scenario, got, want)


DEPOL = NoiseKind.DEPOLARIZING
AMP = NoiseKind.AMPLITUDE


def _entangled(scenario: Scenario) -> bool:
    return closed_form_concurrence(scenario, 0.0) > 0.0


def _entangling_weights(raw):
    # weights a..d with b c >= a d, so that sqrt(ad) < |z| <= sqrt(bc) is
    # an entangled X state (swapping a with b and c with d swaps the products)
    a, b, c, d = (v / sum(raw) for v in raw)
    return (a, b, c, d) if b * c >= a * d else (b, a, d, c)


@BOUNDARY
@given(st.lists(POSITIVE, min_size=4, max_size=4), st.floats(0.01, 1.0), PHASE)
def test_x_depolarizing_death_rule(raw, u, arg):
    a, b, c, d = _entangling_weights(raw)
    low, high = math.sqrt(a * d), math.sqrt(b * c)
    mag = low + u * (high - low)
    s = Scenario(XStateParams(a, b, c, d, mag * complex(math.cos(arg), math.sin(arg))), DEPOL)
    if _entangled(s):
        assert_death_time_matches(s, _x_depolarizing_threshold(s.state))


@BOUNDARY
@given(st.lists(POSITIVE, min_size=3, max_size=3), st.sampled_from([0, 3]), st.floats(0.01, 1.0), PHASE)
def test_x_depolarizing_death_rule_with_a_zero_corner(raw, zero, u, arg):
    # a = 0 or d = 0: every coherence is entangled, ad = 0 in C
    a, b, c, d = _weights(raw, zero)
    z = u * math.sqrt(b * c) * complex(math.cos(arg), math.sin(arg))
    s = Scenario(XStateParams(a, b, c, d, z), DEPOL)
    assert _entangled(s)
    assert_death_time_matches(s, _x_depolarizing_threshold(s.state))


@BOUNDARY
@given(st.lists(POSITIVE, min_size=4, max_size=4), st.floats(-15.0, -2.0), PHASE)
def test_x_depolarizing_death_rule_near_separable(raw, log_gap, arg):
    # |z| just above sqrt(ad): C = 9(|z|^2 - ad) nearly cancels.  The
    # rounding of |z| and sqrt(ad) in the inputs sets the accuracy, about
    # 1e-16 relative to the size of |z|^2 - ad, so the bound is absolute
    a, b, c, d = _entangling_weights(raw)
    mag = math.sqrt(a * d) * (1.0 + 10.0**log_gap)
    if mag * mag > b * c:
        return
    s = Scenario(XStateParams(a, b, c, d, mag * complex(math.cos(arg), math.sin(arg))), DEPOL)
    if _entangled(s):
        assert_death_time_matches(s, _x_depolarizing_threshold(s.state), rel=0.0, abs_=1e-14)


@BOUNDARY
@given(
    st.lists(POSITIVE, min_size=4, max_size=4),
    st.floats(-165.0, -140.0),
    st.floats(1e-3, 3.0),
    PHASE,
)
def test_x_depolarizing_death_rule_at_subnormal_scale(raw, log_scale, excess, arg):
    # a, d and |z| near 1e-160: C and a d fall below the normal float range,
    # as the corner weights of the CLI's --gamma 3e-307 case approach it
    scale = 10.0**log_scale
    a, d = raw[0] * scale, raw[3] * scale
    b = (1.0 - a - d) * raw[1] / (raw[1] + raw[2])
    c = 1.0 - a - d - b
    mag = math.sqrt(a) * math.sqrt(d) * (1.0 + excess)
    s = Scenario(XStateParams(a, b, c, d, mag * complex(math.cos(arg), math.sin(arg))), DEPOL)
    assert _entangled(s)
    assert_death_time_matches(s, _x_depolarizing_threshold(s.state))


def test_x_depolarizing_death_rule_at_known_points():
    for state in (
        XStateParams(1e-150, 0.5, 0.5, 1e-150, 0.5),  # the --gamma 3e-307 state
        XStateParams(0.0, 0.5, 0.5, 0.0, 1e-170),  # A < 0, a tiny |z| with a = d = 0
        XStateParams(0.0, 0.5, 0.5, 0.0, 0.5),  # a Bell state: p* = 1/2, tau = 2 ln 2
        XStateParams(0.1, 0.4, 0.4, 0.1, 0.2),
    ):
        assert_death_time_matches(Scenario(state, DEPOL), _x_depolarizing_threshold(state))
    bell = esd_time_analytic(Scenario(XStateParams(0.0, 0.5, 0.5, 0.0, 0.5), DEPOL))
    assert abs(bell.tau_death - 2.0 * math.log(2.0)) <= 1e-15


PHASE_NOISE = NoiseKind.PHASE
LOG_WEIGHT = st.floats(-300.0, 0.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(LOG_WEIGHT, min_size=4, max_size=4), st.floats(-15.0, 0.0))
def test_x_phase_cell_at_extreme_weights(raw, log_offset):
    # weights down to 1e-300 and |z| just above sqrt(a) sqrt(d), where
    # |z|^2 and a d leave the normal floats: the CLI answers at its default
    # horizon, the rule and the scan agree, and both find the death by
    # tau = 2 ln 2 that |z| <= 2 sqrt(a d) gives
    a, b, c, d = _entangling_weights(raw)
    mag = math.sqrt(a) * math.sqrt(d) * (1.0 + 10.0**log_offset)
    assume(mag <= math.sqrt(b) * math.sqrt(c))
    weights = [f"--{name}={value!r}" for name, value in zip("abcd", (a, b, c, d))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["esd", "--noise", "phase", "--xstate", *weights, f"--zmod={mag!r}"]) == 0
    s = Scenario(XStateParams(a, b, c, d, mag), PHASE_NOISE)
    analytic, scanned = esd_time_analytic(s), esd_time_bisection(s)
    assert analytic.classification is scanned.classification, (s, analytic, scanned)
    assert analytic.classification is Classification.SUDDEN_DEATH, (s, analytic)
    assert abs(analytic.tau_death - scanned.tau_death) <= 1e-8, (s, analytic, scanned)
    mp = MP
    want = 2 * mp.log(mp.mpf(mag) / mp.sqrt(mp.mpf(a) * mp.mpf(d)))
    assert_death_time_matches(s, want, abs_=1e-14)


# offsets from the ends of the amplitude-noise intervals, in ulps and in steps
ENDS = st.sampled_from([1, 2, 7, 1000]).map(float) | st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3])


def _near(x: float, step: float, direction: float) -> float:
    # `step` ulps away from x towards `direction` when step >= 1, else x +- step
    if step >= 1.0:
        for _ in range(int(step)):
            x = math.nextafter(x, direction)
        return x
    return x + math.copysign(step, direction - x)


@BOUNDARY
@given(
    st.sampled_from([(Family.ISOTROPIC, 0.5, 0.625), (Family.WERNER, 1.0 / 3.0, 0.5)]),
    st.booleans(),
    ENDS,
)
def test_family_amplitude_death_rule_near_the_ends(cell, lower, step):
    # just above the separable weight (1/2, 1/3: tau -> 0) and just below
    # the critical weight (5/8, 1/2: tau -> infinity)
    family, x_min, x_max = cell
    x = _near(x_min, step, 1.0) if lower else _near(x_max, step, 0.0)
    s = Scenario(FamilyParams(family, x), AMP)
    if _entangled(s):
        assert_death_time_matches(s, _family_amplitude_threshold(s.state))


@BOUNDARY
@given(st.sampled_from(list(Family)), UNIT)
def test_family_amplitude_death_rule(family, x):
    s = Scenario(FamilyParams(family, x), AMP)
    if _entangled(s):
        assert_death_time_matches(s, _family_amplitude_threshold(s.state))


def test_family_amplitude_death_rule_at_critical_x_and_x_one():
    for family, critical in ((Family.ISOTROPIC, 0.625), (Family.WERNER, 0.5)):
        for x in (critical, math.nextafter(critical, 1.0), 1.0):
            s = Scenario(FamilyParams(family, x), AMP)
            assert _family_amplitude_threshold(s.state) is None
            assert_death_time_matches(s, None)
            # the scan agrees: the margin of order eta^2 does not round to
            # 0 once eta^2 drops below the float spacing (near tau = 37)
            r = esd_time_bisection(s)
            assert r.classification is Classification.ASYMPTOTIC_DECAY, (x, r.tau_death)
            assert r.horizon == 50.0
        s = Scenario(FamilyParams(family, critical), AMP)
        for tau in range(30, 50):
            assert_closed_form_is_relatively_exact(s, float(tau))
    assert_death_time_matches(
        Scenario(FamilyParams(Family.WERNER, 0.4), AMP), MP.log(MP.mpf(1.5)), rel=1e-15
    )


# ---------------------------------------------------------------------------
# the fully depolarizing point

# p = 3/4 at tau = 2 ln 4; the grid runs from there over the CLI's range
FULLY_DEPOLARIZED = np.linspace(2.0 * math.log(4.0), 50.0, 64)
# the factor route's rounding floor there; the draws seen read exactly 0.0
SEPARABLE_TOL = 1e-12


@BOUNDARY
@given(st.lists(POSITIVE, min_size=4, max_size=4), UNIT, st.lists(PHASE, min_size=3, max_size=3), UNIT)
def test_depolarized_states_are_separable_from_two_ln_four(raw, u, phases, x):
    # at p = 3/4 the Kraus sum on qubit 1 is I/2 x rho_2, a product state,
    # and every later time stays separable; the factor route must read zero
    a, b, c, d = (v / sum(raw) for v in raw)
    z = u * math.sqrt(b * c) * complex(math.cos(phases[0]), math.sin(phases[0]))
    states = [
        XStateParams(a, b, c, d, z),
        PureStateParams(a, b, c, d, *phases),
        FamilyParams(Family.ISOTROPIC, x),
        FamilyParams(Family.WERNER, x),
    ]
    for state in states:
        conc = numeric_trajectory(Scenario(state, DEPOL), FULLY_DEPOLARIZED).c
        assert conc.max() <= SEPARABLE_TOL, state


# ---------------------------------------------------------------------------
# every other dying cell: the death time against a root found on the
# evolved state at 50 digits, reading nothing of the closed forms


def _x_drawn(raw, u, arg):
    # weights from [1e-3, 1], normalized, and |z| from sqrt(ad) to sqrt(bc)
    a, b, c, d = _entangling_weights(raw)
    low, high = math.sqrt(a) * math.sqrt(d), math.sqrt(b) * math.sqrt(c)
    return XStateParams(a, b, c, d, (low + u * (high - low)) * complex(math.cos(arg), math.sin(arg)))


def assert_cell_matches_reference(scenario: Scenario) -> None:
    want = reference_death(scenario)
    got = esd_time_analytic(scenario)
    if want is None:
        assert got.classification is Classification.ASYMPTOTIC_DECAY, (scenario, got)
        return
    assert got.classification is Classification.SUDDEN_DEATH, (scenario, got, want)
    assert_death_time_matches(scenario, want)


GATE = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@GATE
@given(st.lists(POSITIVE, min_size=4, max_size=4), st.floats(0.01, 1.0), PHASE,
       st.sampled_from([AMP, PHASE_NOISE]))
def test_x_amplitude_and_phase_death_rules_against_the_evolved_state(raw, u, arg, noise):
    # X/amplitude dies where a(b + d) > |z|^2, X/phase wherever a d > 0
    s = Scenario(_x_drawn(raw, u, arg), noise)
    assume(reference_margin(s, 0) > 1e-9)
    assert_cell_matches_reference(s)


@GATE
@given(st.sampled_from(list(Family)), st.sampled_from([PHASE_NOISE, DEPOL]), st.floats(0.34, 1.0))
def test_family_phase_and_depolarizing_death_rules_against_the_evolved_state(family, noise, x):
    s = Scenario(FamilyParams(family, x), noise)
    if _entangled(s):
        assert_cell_matches_reference(s)


def test_family_phase_and_depolarizing_death_rules_near_the_ends():
    # just above the separable weight, where the death time nears 0, and
    # x = 1 (asymptotic under phase noise, 2 ln 2 under depolarizing noise)
    for family, x_min in ((Family.ISOTROPIC, 0.5), (Family.WERNER, 1.0 / 3.0)):
        for x in (x_min + 1e-3, 1.0 - 1e-6, 1.0):
            for noise in (PHASE_NOISE, DEPOL):
                assert_cell_matches_reference(Scenario(FamilyParams(family, x), noise))


def test_family_death_rules_keep_their_digits_at_the_separable_end():
    # at x_min + 1e-6 the root lies within about 1e-5 of v = 1, and the
    # rules take log1p of m0 / lo there, not the log of a quotient near 1
    for family, x_min in ((Family.ISOTROPIC, 0.5), (Family.WERNER, 1.0 / 3.0)):
        for noise in (AMP, PHASE_NOISE, DEPOL):
            for step in (1e-6, 1e-9):
                assert_cell_matches_reference(Scenario(FamilyParams(family, x_min + step), noise))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.lists(POSITIVE, min_size=4, max_size=4), st.lists(PHASE, min_size=3, max_size=3))
def test_pure_depolarizing_death_rule_against_the_evolved_state(raw, phases):
    a, b, c, d = (v / sum(raw) for v in raw)
    s = Scenario(PureStateParams(a, b, c, d, *phases), DEPOL)
    assume(reference_margin(s, 0) > 1e-9)
    assert_cell_matches_reference(s)


# ---------------------------------------------------------------------------
# the hand-entered family intervals against the rules


def test_family_intervals_hold_exactly_where_the_rules_read_sudden_death():
    for family in Family:
        for kind in NoiseKind:
            boundary = esd_boundary(family, kind)
            ends = [boundary.x_min, boundary.x_max]
            if boundary.critical_x is not None:
                ends.append(boundary.critical_x)
            xs = {float(x) for x in np.linspace(0.0, 1.0, 257)}
            for end in ends:
                xs |= {end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)}
            for x in sorted(v for v in xs if 0.0 <= v <= 1.0):
                r = esd_time_analytic(Scenario(FamilyParams(family, x), kind))
                dies = r.classification is Classification.SUDDEN_DEATH
                assert boundary.contains(x) == dies, (family, kind, x, r)
