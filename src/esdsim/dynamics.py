"""Entanglement dynamics under a single local noise.

Everything here works in the dimensionless time tau (decay rate times
physical time).  The noise parameter at time tau is eta = e^(-tau/2) for
amplitude noise, gamma = e^(-tau/2) for phase noise and p = 1 - e^(-tau/2)
for depolarizing noise.

Two evaluation routes are kept deliberately separate so they can check
each other: `closed_form_concurrence` evaluates the formula of the
scenario's (state kind, noise kind) cell, while the numeric route evolves
the state through the Kraus maps and runs the general concurrence.  Both
take one tau or a whole grid.  The closed form evaluates its formula with
numpy ufuncs over the grid in one call.  The numeric route writes the
initial state once as rho0 = W0 W0^dag (`states.state_factor`: the
amplitude column of a pure state, the closed-form factor of an X-pattern
state's five entries (a, b, c, d, z); no 4x4 matrix is built), builds
the Kraus sets for a block of up to `_BLOCK_ROWS` (1024) tau values at
once, applies them to the factor, W(tau) = [(K_1 x I) W0, (K_2 x I) W0,
...], and takes the Wootters concurrence of the whole stack of factors;
a default grid of 2048 points takes two blocks per noise kind.
The block bound only bounds the working set: no value depends on it.  The
Kraus sets are real, and the route makes every factor real by a local
unitary that commutes with the noise and leaves the concurrence unchanged:
an X state evolves with z -> |z|, a phase on the noiseless qubit 2, and a
pure state as the real column of the triangular factor of its amplitude
matrix (see `numeric_concurrence`).  So the whole route runs in real
arithmetic, for every scenario and every stack.  No eigendecomposition of
the state and no matrix square root is taken, so a weight that decays
towards zero keeps its relative precision.
`numeric_concurrence` runs the route for many scenarios at their own
times; `numeric_trajectory` (`evolve`, `figure`) and the verify suites
that compare the routes all call it, and `evolved_state` (W W^dag, from
the true factor) applies its kernel `_evolve` at one time.
Both routes take their channel parameters from `noise_param`.  ESD
detection likewise comes in an analytic flavor (the root of the cell's
margin) and a scan-plus-bisection flavor.  Where the margin has a root,
the latter scans the closed form over the whole grid, tau = 0 included,
in one evaluation, then bisects the first dead interval; any other
margin is evaluated at tau = 0 alone, the one point that can change its
verdict.  The scan grid and its noise-parameter values depend only on
(noise kind, tau_max, points), so they are built once per process for
each such key (16 bytes per point per entry, at most 3 entries) and fed
to the same evaluator that `closed_form_concurrence` calls.
The bisection runs to the float spacing in rounds: the rule's death time
predicts the step-by-step path, one evaluation checks every midpoint on
it, and the next round starts after the first verdict that differs.  The
prediction only picks points, so the death time is the step-by-step one,
bit for bit, and the two flavors still check each other.  Scans stop at
`ESD_TAU_MAX_LIMIT`.

The paper's results form a grid of four state kinds (cross-pattern, pure,
isotropic, Werner) times the three noises.  Each cell is written once, as
the coefficients of its margin (`_Margin`): a function of the record gives
the margin at tau = 0, its slope and its limit in the cell's decay variable
v = e^(-tau/k), and the value's prefactor and denominator.  One value
function (`_value`) and one death-time function (`_death`) read them, so
the closed form and the rule share every constant: a state is
InitiallySeparable where the margin at tau = 0 is <= 0, and dies where its
limit is negative.  A `Scenario` reads its cell's coefficients once, when
it is built (`_MARGINS`, by `state_kind`), and every closed-form value and
its death rule take them from it; `_BOUNDARIES` holds the families'
sudden-death intervals.  The initial state is the record: `states`
builds its matrix (`state_matrix`) and factor (`state_factor`), and the
closed form at tau = 0 is its concurrence.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import NoiseKind, apply_to_factor, kraus_for
from .concurrence import concurrence_pure, factor_concurrence
from .linalg import _not_member, dagger
from .states import (
    Family,
    FamilyParams,
    PureStateParams,
    StateParams,
    XStateParams,
    _not_record,
    _pure_amplitudes,
    state_factor,
    state_kind,
    x_factor,
)

DEFAULT_TAU_MAX = 50.0
SCAN_POINTS = 2048
# Past this tau, e^(-tau/2) leaves the normal floats and then underflows to
# 0, a false death.  A finite rule time can lie past it (the cross-pattern
# phase rule gives 1426 at subnormal weights): no scan reaches such a death,
# and `esd` prints AsymptoticDecay beside the rule's time.
ESD_TAU_MAX_LIMIT = -2.0 * math.log(np.finfo(float).tiny)
TRAJECTORY_CAP = 1.0 + 1e-10
# Grid points per stacked evaluation on the numeric route, a bound on the
# working set only: the values do not depend on it, bit for bit.  Each
# block pays about 35 numpy calls (noise_param, the Kraus build and its
# completeness check, the matmul, the qr and eigvalsh wrappers), so a
# default grid of 2048 points takes two blocks per noise kind.  1024 rows
# keep nearly all the speed of one pass at a fraction of its peak memory,
# which grows with --points (BENCH_kraus_stage.json, "block_policy").
_BLOCK_ROWS = 1024


class Classification(enum.Enum):
    SUDDEN_DEATH = "SuddenDeath"
    ASYMPTOTIC_DECAY = "AsymptoticDecay"
    INITIALLY_SEPARABLE = "InitiallySeparable"


@dataclass(frozen=True)
class Scenario:
    """One initial state plus the single local noise acting on qubit 1."""

    state: StateParams
    noise: NoiseKind

    def __post_init__(self) -> None:
        if not isinstance(self.noise, NoiseKind):
            raise _not_member(self.noise, NoiseKind)
        # the cell's coefficients, read once: every closed-form value and
        # the death rule take them from here
        build = _MARGINS.get(state_kind(self.state))
        if build is None:
            raise _not_record(self.state)
        object.__setattr__(self, "_margin", build(self.state, self.noise))

    @functools.cached_property
    def _death_time(self):
        # the cell's death-time rule, evaluated once per scenario: the
        # analytic route reports it, and the bisection predicts each round's
        # path from it
        return _death(self._margin)


@dataclass(frozen=True)
class Trajectory:
    tau: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        # the record freezes copies, so the caller's arrays stay writable
        tau = _validate_grid(np.array(self.tau, dtype=float))
        c = np.array(self.c, dtype=float)
        if c.shape != tau.shape:
            raise ValueError("tau and c must be 1-d arrays of equal length")
        if not np.isfinite(c).all():
            raise ValueError("concurrence values must be finite")
        if c.min() < 0.0 or c.max() > TRAJECTORY_CAP:
            raise ValueError("concurrence values must lie in [0, 1]")
        tau.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True)
class EsdResult:
    """Decay classification, with the death time when there is one.

    `horizon` marks a result of `esd_time_bisection` with its window; an
    AsymptoticDecay from the scan only asserts survival up to it, and one
    from a margin with no root holds at every tau.
    """

    classification: Classification
    tau_death: float | None = None
    horizon: float | None = None

    def __post_init__(self) -> None:
        has_death = self.tau_death is not None
        if has_death != (self.classification is Classification.SUDDEN_DEATH):
            raise ValueError("tau_death must be present exactly for SuddenDeath")
        if has_death and not self.tau_death > 0.0:
            raise ValueError(f"tau_death must be positive, got {self.tau_death!r}")


def noise_param(kind: NoiseKind, tau):
    """eta, gamma or p at dimensionless time tau, per the noise kind.

    `tau` is one time or an array of them; the result is a numpy float64
    or an array of the same shape.  Negative and NaN times are rejected,
    and so is anything but a `NoiseKind`.
    """
    tau = np.asarray(tau, dtype=float)
    ok = tau >= 0.0
    if not ok.all():
        raise ValueError(f"tau must be nonnegative, got {float(tau[~ok].flat[0])!r}")
    if kind is NoiseKind.DEPOLARIZING:
        return -np.expm1(-0.5 * tau)
    if kind is NoiseKind.AMPLITUDE or kind is NoiseKind.PHASE:
        return np.exp(-0.5 * tau)
    raise _not_member(kind, NoiseKind)


# ---------------------------------------------------------------------------
# closed forms and death rules: one margin per cell


class _Margin(NamedTuple):
    """One cell's coefficients, read from the record once per scenario.

    The concurrence has the sign of the margin m = m0 - s u + c2 u^2
    = m0 v - lo u + c2 u^2 in v = e^(-tau/k) and u = 1 - v: v is eta^2
    (k = 1) for the X-pattern kinds under amplitude noise, else eta, gamma
    or 1 - p (k = 2), and c2 = 0 but for X/depolarizing.  m0 is the margin
    at tau = 0, s its slope in u there and -lo = m0 - s its limit, each
    formed from the record so that it keeps its digits where it is small
    (the phase cells form m0 as s - lo, which is exact there).  The value
    is pre max(0, m) / den, times eta where k = 1.
    Where m is the squared margin |rho12|^2 - rho00 rho33 of the evolved
    entries, den is their |rho12| + sqrt(rho00 rho33), taken as
    |q0 + q1 u| + sqrt((r0 + r1 u)(r2 + r3 u)); elsewhere m is linear in
    them and den is None.
    """

    k: float
    m0: float
    s: float
    lo: float
    pre: float
    den: tuple[float, float, float, float, float, float] | None = None
    c2: float = 0.0


# The cross-pattern margins square the weights, and the square of a weight
# near 1e-162 leaves the normal floats.  So they take the weights times
# 2^500, exactly: a square stays normal down to weights near 5e-305, none
# overflows, and the quotients of the death rules keep their bits.
_X_SCALE = 2.0**500


def _dot2(*pairs: tuple[float, float]) -> float:
    # the sum of x y over the pairs as if taken in twice the precision and
    # rounded once: Dot2 of Ogita, Rump and Oishi, "Accurate sum and dot
    # product" (2005), with Dekker's error-free product by Veltkamp's split
    # (no fused multiply-add before Python 3.13).  Where the products cancel,
    # as in |z|^2 - ad near a separable state, a plain sum keeps only their
    # rounding errors.
    total = err = 0.0
    for x, y in pairs:
        p = x * y
        xs, ys = 134217729.0 * x, 134217729.0 * y
        xh, yh = xs - (xs - x), ys - (ys - y)
        xl, yl = x - xh, y - yh
        t = total + p
        back = t - total
        err += (total - (t - back)) + (p - back) + (((xh * yh - p) + xh * yl + xl * yh) + xl * yl)
        total = t
    return total + err


def _x_margin(s: XStateParams, kind: NoiseKind) -> _Margin:
    a, d, z = s.a * _X_SCALE, s.d * _X_SCALE, abs(s.z) * _X_SCALE
    if kind is NoiseKind.PHASE:
        # gamma |z| - sqrt(a) sqrt(d)
        root = math.sqrt(a) * math.sqrt(d)
        return _Margin(2.0, z - root, z, root, 2.0 / _X_SCALE)
    # where z = 0 every margin is <= 0, and den may vanish: none is needed
    b = s.b * _X_SCALE
    if kind is NoiseKind.AMPLITUDE:
        # rho12 = eta z, rho00 = eta^2 a and rho33 = d + b u
        return _Margin(1.0, _dot2((z, z), (-a, d)), a * b, _dot2((a, b), (a, d), (-z, z)),
                       2.0 / _X_SCALE, (z, 0.0, a, 0.0, d, b) if z else None)
    # depolarizing, u = p: 3 rho12 = (3 - 4p) z, 3 rho00 = 3a + 2p(c - a) and
    # 3 rho33 = 3d + 2p(b - d).  A third of their squared margin is
    # 3 zeta - (8 zeta + 2n) p + (A / 3) p^2, zeta = |z|^2 - ad,
    # n = ab + cd + 2ad, A = 16|z|^2 - 4(c - a)(b - d).  It is < 0 on
    # [3/4, 1], where |3 - 4p| turns: at 3/4 it is -(3/4)(a + c)(b + d) and
    # at 1 (|z|^2 - (a + 2c)(d + 2b)) / 3, as |z|^2 <= bc; convex (A >= 0)
    # it stays below both ends, concave it falls on past its one root.
    c = s.c * _X_SCALE
    zeta, n = _dot2((z, z), (-a, d)), a * b + c * d + 2.0 * a * d
    den = (3.0 * z, -4.0 * z, 3.0 * a, 2.0 * (c - a), 3.0 * d, 2.0 * (b - d)) if z else None
    return _Margin(2.0, 3.0 * zeta, 8.0 * zeta + 2.0 * n, 5.0 * zeta + 2.0 * n, 2.0 / _X_SCALE,
                   den, (16.0 * z * z - 4.0 * (c - a) * (b - d)) / 3.0)


def _pure_margin(s: PureStateParams, kind: NoiseKind) -> _Margin:
    c0 = concurrence_pure(s)
    if kind is NoiseKind.DEPOLARIZING:
        # (2 (1 - p) - 1) C0: dead from p = 1/2, tau = 2 ln 2, for every state
        return _Margin(2.0, c0, 2.0 * c0, c0, 1.0)
    # eta C0 or gamma C0: no death
    return _Margin(2.0, c0, c0, 0.0, 1.0)


def _isotropic_margin(s: FamilyParams, kind: NoiseKind) -> _Margin:
    # 2x - 1 and 5 - 8x are exact in floats near x = 1/2 and 5/8
    x = s.x
    if kind is NoiseKind.AMPLITUDE:
        # 6 rho12 = 4x - 1, 6 rho00 = 2(1 - x), 6 rho33 = 2(1 - x) + (1 + 2x) u
        rest = 2.0 * (1.0 - x)
        return _Margin(1.0, 3.0 * (2.0 * x + 1.0) * (2.0 * x - 1.0), rest * (1.0 + 2.0 * x),
                       (5.0 - 8.0 * x) * (2.0 * x + 1.0), 1.0 / 3.0,
                       (4.0 * x - 1.0, 0.0, rest, 0.0, rest, 1.0 + 2.0 * x))
    if kind is NoiseKind.PHASE:
        # (4x - 1) gamma - 2(1 - x)
        s, lo = 4.0 * x - 1.0, 2.0 * (1.0 - x)
        return _Margin(2.0, s - lo, s, lo, 1.0 / 3.0)
    # 6x - 3 - 2(4x - 1) p
    return _Margin(2.0, 3.0 * (2.0 * x - 1.0), 2.0 * (4.0 * x - 1.0), 2.0 * x + 1.0, 1.0 / 3.0)


def _werner_margin(s: FamilyParams, kind: NoiseKind) -> _Margin:
    # 3x - 1 = x - (1 - 2x) and 1 - 2x are exact in floats near x = 1/3 and 1/2
    x = s.x
    third = x - (1.0 - 2.0 * x)
    if kind is NoiseKind.AMPLITUDE:
        # 4 |rho12| = 2x, 4 rho00 = 1 - x, 4 rho33 = 1 - x + (1 + x) u
        return _Margin(1.0, third * (x + 1.0), (1.0 - x) * (1.0 + x),
                       2.0 * (1.0 - 2.0 * x) * (x + 1.0), 0.5,
                       (2.0 * x, 0.0, 1.0 - x, 0.0, 1.0 - x, 1.0 + x))
    if kind is NoiseKind.PHASE:
        # 2x gamma - (1 - x)
        s, lo = 2.0 * x, 1.0 - x
        return _Margin(2.0, s - lo, s, lo, 0.5)
    # 3x - 1 - 4x p
    return _Margin(2.0, third, 4.0 * x, 1.0 + x, 0.5)


# each state kind's coefficient builder, by `state_kind`; a `Scenario`
# calls it once, with its noise kind
_MARGINS = {XStateParams: _x_margin, PureStateParams: _pure_margin,
            Family.ISOTROPIC: _isotropic_margin, Family.WERNER: _werner_margin}


def _affine(c0: float, c1: float, u):
    # c0 + c1 u, with no pass over the grid where c1 = 0
    return c0 + c1 * u if c1 else c0


def _value(kind: NoiseKind, margin: _Margin, value):
    # the cell's concurrence at value = noise_param(kind, tau).  m takes the
    # form that is exact where its variable is: m0 - s p at p = 0 (the
    # depolarizing cells have lo > 0, so no tail needs the other form);
    # s v - lo on the tail of v = gamma or eta, and at v = 1 as well, where
    # those cells form m0 as s - lo; and m0 v - lo u, exact at both ends,
    # in v = eta^2.  A state separable at tau = 0 stays so under a local
    # channel: its margin is <= 0 on the whole range, and every value is +0.
    # Where lo <= 0 the margin is >= 0 on the whole range: no clamp is needed.
    k, m0, s, lo, pre, den, c2 = margin
    if not m0 > 0.0:
        return 0.0 * value
    if kind is NoiseKind.DEPOLARIZING:
        u = value
        m = m0 - (s - c2 * u) * u if c2 else m0 - s * u
    elif k == 2.0:
        m = s * value - lo if lo else s * value
    else:
        v = value * value
        u = 1.0 - v
        m = m0 * v - lo * u
    if lo > 0.0:
        m = np.maximum(0.0, m)
    if den is None:
        return pre * m
    q0, q1, r0, r1, r2, r3 = den
    ratio = m / (abs(_affine(q0, q1, u)) + np.sqrt(_affine(r0, r1, u) * _affine(r2, r3, u)))
    # eta >= 0 multiplies first: the product underflows no earlier than the
    # value, and an eta that underflows gives +0, not the -0 of 0 * (negative)
    return pre * (value * ratio) if k == 1.0 else pre * ratio


def _death(c: _Margin) -> float | None:
    # The root u* of the margin, tau = -k log1p(-u*); None unless lo > 0.
    # Linear: u* = m0 / s and tau = k ln(s / lo).  Near the separable end
    # s / lo nears 1, and log1p keeps the digits of m0 / lo; where s / lo
    # overflows (subnormal roots of the weights, X/phase), the logarithms
    # are taken apart.  Quadratic (X/depolarizing): the root in (0, 3/4),
    # u* = 2r / (1 + sqrt(1 - 4 c2 m0 / s^2)) with r = m0 / s, for every
    # sign of c2, and g^2 = |c2| m0 / s^2 as a ratio of roots so that it
    # cannot overflow on the way (|z| tiny beside sqrt(bc), a = d = 0).  A
    # time that underflows to 0 reads as the least positive one.  It holds
    # only for m0 > 0, an entangled state: where s = 0 (ab = 0, or z = 0 under
    # phase noise) m0 = -lo, so log1p(m0 / lo) = log1p(-1) raises, and
    # X/depolarizing takes sqrt(m0).
    if not c.lo > 0.0:
        return None
    if c.c2:
        g = math.sqrt(abs(c.c2)) * math.sqrt(c.m0) / c.s
        if c.c2 < 0.0:
            disc = math.hypot(1.0, 2.0 * g)
        else:
            disc = math.sqrt(max(0.0, (1.0 - 2.0 * g) * (1.0 + 2.0 * g)))
        tau = -math.log1p(-2.0 * (c.m0 / c.s) / (1.0 + disc))
    elif c.m0 < c.lo / 8.0:
        tau = math.log1p(c.m0 / c.lo)
    else:
        ratio = c.s / c.lo
        tau = math.log(ratio) if ratio < math.inf else math.log(c.s) - math.log(c.lo)
    return max(c.k * tau, math.ulp(0.0))


def closed_form_concurrence(scenario: Scenario, tau):
    """Evolved concurrence from the formula matching (state kind, noise).

    `tau` is one time or an array of them, as for `noise_param`; the result
    is a numpy float64 or an array of the same shape.  A formula that
    leaves its domain (a negative radicand) raises ValueError instead of
    returning NaN.
    """
    return _closed_form(scenario, noise_param(scenario.noise, tau))


def _closed_form(scenario: Scenario, value):
    # the cell's formula at value = noise_param(noise, tau); the one
    # evaluator behind every closed-form value and every esd verdict
    try:
        with np.errstate(invalid="raise"):
            return _value(scenario.noise, scenario._margin, value)
    except FloatingPointError as exc:
        raise ValueError(f"closed form undefined for {scenario!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# trajectories


def _validate_grid(tau_grid) -> np.ndarray:
    grid = np.asarray(tau_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if not np.isfinite(grid).all():
        raise ValueError("tau grid must be finite")
    if grid[0] < 0.0:
        raise ValueError("tau grid must be nonnegative")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("tau grid must be strictly increasing")
    return grid


def closed_form_trajectory(scenario: Scenario, tau_grid) -> Trajectory:
    grid = _validate_grid(tau_grid)
    c = closed_form_concurrence(scenario, grid)
    return Trajectory(grid, c)


def _evolve(w0: np.ndarray, kind: NoiseKind, taus) -> np.ndarray:
    # the factor w0 evolved to each tau of a block (their leading axes
    # broadcast) as a (..., 4, k m) stack.  The channel parameters come from
    # the same noise_param as the closed form's: bit-identical eta, gamma, p.
    return apply_to_factor(w0, kraus_for(kind, noise_param(kind, taus)))


def _real_pure_factors(records) -> np.ndarray:
    # for n pure records, the real columns (|r00|, 0, |r01|, |r11|), shape
    # (n, 4, 1), of locally equivalent states: each record's amplitudes as
    # M, rows for qubit 1 and columns for qubit 2, and M^T = Q R, so
    # M Q^* = R^T = [[r00, 0], [r01, r11]]; real amplitudes take a real QR
    m = np.array([_pure_amplitudes(r) for r in records]).reshape(-1, 2, 2)
    m = m if m.imag.any() else m.real
    r = np.abs(np.linalg.qr(np.swapaxes(m, -1, -2), mode="r"))
    return np.stack([r[:, 0, 0], np.zeros(len(r)), r[:, 0, 1], r[:, 1, 1]], axis=-1)[..., None]


def _groups(keys) -> dict:
    """Indices per key (a noise kind, say), for one stacked call per key."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def _padded(factors, width: int) -> np.ndarray:
    """The factors as one (n, 4, width) stack, zero columns after each (they
    leave W W^dag unchanged); float64 unless a factor is complex."""
    out = np.zeros((len(factors), 4, width), dtype=np.result_type(float, *factors))
    for i, f in enumerate(factors):
        out[i, :, : f.shape[-1]] = f
    return out


def numeric_concurrence(scenarios, taus) -> np.ndarray:
    """Each scenario's concurrence on the numeric route at its own times,
    `taus` of shape (n,) or (n, T) for n scenarios; the result has its shape.
    The channel at parameter(tau) acts on the initial factor in one shot:
    eta and gamma multiply and p is defined through e^(-tau/2).

    Every state is evolved in a real form, turned by a local unitary that
    commutes with each channel, so the concurrence is the same and the
    factor is real:
    - an X state takes z -> |z|: its factor is `x_factor` of the entries
      (a, b, c, d, |z|), the state turned by U = I x diag(1, e^(-i arg z))
      on the noiseless qubit 2, which commutes with every K x I; an
      isotropic or Werner state has a real z and keeps its sign;
    - a pure state takes the real column (|r00|, 0, |r01|, |r11|), from the
      triangular factor R of M^T = Q R, with M its amplitudes as a 2x2
      matrix, rows for qubit 1 and columns for qubit 2 (one stacked
      Householder QR for all pure records).  M Q^* = R^T, a unitary on
      qubit 2, and the phases of R^T's entries go with a diagonal unitary
      on each qubit.  A unitary on qubit 2 commutes with every K x I; a
      diagonal one on qubit 1 commutes with each channel: it multiplies
      each amplitude- and phase-noise Kraus operator by a phase, and the
      depolarizing channel commutes with every unitary.
    The pure turn reads the amplitudes, never the projector or the closed
    form, so the two routes stay independent.  `states.state_factor` and
    `evolved_state` keep the true state's factor.

    The scenarios of one noise kind evolve as one float64 stack, a narrower
    factor padded with zero columns (W W^dag is unchanged), in blocks of up
    to _BLOCK_ROWS (1024) times per stacked evaluation.  The bound keeps the
    working set at about 1.3 MB per block whatever the grid; the values
    are the same bits for every block size.  No scenario, or no times,
    gives an empty result of `taus`'s shape.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim not in (1, 2) or len(taus) != len(scenarios):
        raise ValueError(f"taus must have one leading entry per scenario, got shape {taus.shape}")
    records = [s.state for s in scenarios]
    pure = [r for r in records if isinstance(r, PureStateParams)]
    turned = iter(_real_pure_factors(pure) if pure else ())
    # an X record's factor is taken at |z| (the qubit-2 turn U above)
    factors = [next(turned) if isinstance(r, PureStateParams)
               else x_factor(r.a, r.b, r.c, r.d, abs(r.z)) if isinstance(r, XStateParams)
               else state_factor(r) for r in records]
    times = taus if taus.ndim == 2 else taus[:, None]
    c = np.empty(times.shape)
    for kind, idx in _groups(s.noise for s in scenarios).items():
        w0 = _padded([factors[i] for i in idx], max(factors[i].shape[1] for i in idx))[:, None]
        # the kind's rows are gathered once, so each block is a view of them
        rows, out = times[idx], np.empty((len(idx), times.shape[1]))
        for start in range(0, times.shape[1], _BLOCK_ROWS):
            block = rows[:, start : start + _BLOCK_ROWS]
            out[:, start : start + block.shape[1]] = factor_concurrence(_evolve(w0, kind, block))
        c[idx] = out
    return c.reshape(taus.shape)


def numeric_trajectory(scenario: Scenario, tau_grid) -> Trajectory:
    """General-route trajectory: `numeric_concurrence` over one grid."""
    grid = _validate_grid(tau_grid)
    c = numeric_concurrence([scenario], grid[None])[0]
    return Trajectory(grid, c)


def evolved_state(scenario: Scenario, tau: float) -> np.ndarray:
    """The state at time tau on the numeric route: W W^dag, with W the
    initial factor evolved to tau."""
    w = _evolve(state_factor(scenario.state), scenario.noise, [tau])[0]
    return w @ dagger(w)


# ---------------------------------------------------------------------------
# ESD detection


def esd_time_analytic(scenario: Scenario) -> EsdResult:
    """Death time from the closed threshold of the scenario's cell.

    Every cell of the grid has one: the root of its closed-form concurrence
    in the noise parameter, or None where the concurrence reaches zero only
    as tau -> infinity (pure states under amplitude or phase noise, and
    the families at or beyond their critical or maximal weight).  A state
    whose margin at tau = 0 is <= 0 is InitiallySeparable, read before the
    rule, which holds only where that margin is > 0.
    """
    if not scenario._margin.m0 > 0.0:
        return EsdResult(Classification.INITIALLY_SEPARABLE)
    tau = scenario._death_time
    if tau is None:
        return EsdResult(Classification.ASYMPTOTIC_DECAY)
    return EsdResult(Classification.SUDDEN_DEATH, tau_death=tau)


@functools.lru_cache(maxsize=3, typed=True)
def _scan_grid(kind: NoiseKind, tau_max: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    # the scan grid over [0, tau_max] and noise_param at every point of it,
    # tau = 0 included, read-only since every scenario of the noise kind
    # shares them.  Callers validate tau_max and points first, so no invalid
    # key is kept; typed, so that points=11.0 still fails in linspace
    # instead of hitting points=11.
    grid = np.linspace(0.0, tau_max, points)
    value = noise_param(kind, grid)
    grid.setflags(write=False)
    value.setflags(write=False)
    return grid, value


def esd_time_bisection(
    scenario: Scenario, tau_max: float = DEFAULT_TAU_MAX, points: int = SCAN_POINTS
) -> EsdResult:
    """Scan the closed form over [0, tau_max] and bisect the first death point.

    A time is dead where the closed form reads exactly 0.0: the formulas
    clamp through max(0, .), so a barely-alive asymptotic tail stays
    alive.  Only a margin with a root (lo > 0) is clamped; where it has
    none, a value that underflows to 0.0 is alive, so that cell is not
    scanned (below).  `tau_max` may not exceed `ESD_TAU_MAX_LIMIT`
    (about 1416.79): past it e^(-tau/2) itself underflows, and the scan
    would read a dying cell's underflow as its death.  The numeric route
    is checked against the closed form elsewhere (`evolve`'s abs_diff
    column, `verify`), not here.

    The bisection halves the scan bracket [lo, hi] (lo alive, hi dead) at
    mid = (lo + hi) / 2 until no float lies strictly between lo and hi, and
    returns the last midpoint: the death time to the float spacing, bit for
    bit that of a step-by-step bisection, which evaluates one midpoint at a
    time.  It runs in rounds.  The cell's death time tau* predicts the
    step-by-step path from the current bracket (mid is dead iff
    mid >= tau*), and one call of the closed form checks every midpoint on
    it.  The round keeps the verdicts up to and including the first one
    that differs from the prediction, and the next round predicts again
    from the bracket they leave.  The prediction only picks points,
    so the bisection still checks the rule.

    Only a margin with a root (m0 > 0 and lo > 0) scans: one evaluation of
    the scenario's formula on the cached grid (`_scan_grid`), through the
    same evaluator and domain check as `closed_form_concurrence`, so every
    verdict of the scan has the same bits; a sudden death then costs one
    evaluation per round.  Any other margin is evaluated at tau = 0 alone,
    after the same grid lookup (so a bad or oversized `points` fails alike
    for every state), since no later point can change its verdict.  That
    value is read as a Python float, through the same evaluator: the same
    IEEE operations as on the grid give the same bits, without the cost of
    numpy on a one-element array.  0.0 there is InitiallySeparable, and
    anything else an AsymptoticDecay that holds at every tau, whose
    `horizon` still echoes `tau_max`.  The value
    at tau = 0 decides InitiallySeparable apart from the margin that
    `esd_time_analytic` reads.
    """
    if not (tau_max > 0.0 and math.isfinite(tau_max)):
        raise ValueError(f"tau_max must be positive and finite, got {tau_max!r}")
    if tau_max > ESD_TAU_MAX_LIMIT:
        raise ValueError(f"tau_max must be at most {ESD_TAU_MAX_LIMIT:.6g}, where e^(-tau/2) is "
                         f"still a normal float (it underflows past it), got {tau_max!r}")
    if points < 2:
        raise ValueError(f"need at least 2 scan points, got {points!r}")

    grid, values = _scan_grid(scenario.noise, tau_max, points)
    margin = scenario._margin
    if not (margin.m0 > 0.0 and margin.lo > 0.0):
        # no root: only the value at tau = 0 can change the verdict
        if _closed_form(scenario, float(values[0])) == 0.0:
            return EsdResult(Classification.INITIALLY_SEPARABLE)
        return EsdResult(Classification.ASYMPTOTIC_DECAY, horizon=tau_max)
    c = _closed_form(scenario, values)
    dead_scan = c == 0.0
    if dead_scan[0]:
        return EsdResult(Classification.INITIALLY_SEPARABLE)
    if not dead_scan.any():
        return EsdResult(Classification.ASYMPTOTIC_DECAY, horizon=tau_max)
    first = int(dead_scan.argmax())

    alive_after = ~dead_scan[first:]
    if alive_after.any():
        revived = grid[first + int(alive_after.argmax())]
        raise RuntimeError(
            f"concurrence revived after dying, first at tau={revived!r}; "
            "scan assumptions do not hold for this scenario"
        )

    lo, hi = float(grid[first - 1]), float(grid[first])
    guess = scenario._death_time
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        # the predicted path from [lo, hi]; it holds mid, so it is not empty
        path, a, b = [], lo, hi
        while a < mid < b:
            path.append(mid)
            a, b = (a, mid) if mid >= guess else (mid, b)
            mid = 0.5 * (a + b)
        for m, dead in zip(path, (closed_form_concurrence(scenario, path) == 0.0).tolist()):
            lo, hi = (lo, m) if dead else (m, hi)
            if dead != (m >= guess):
                break
        mid = 0.5 * (lo + hi)
    return EsdResult(Classification.SUDDEN_DEATH, tau_death=mid, horizon=tau_max)


# ---------------------------------------------------------------------------
# family ESD ranges


@dataclass(frozen=True)
class EsdBoundary:
    """Mixing-parameter interval with sudden death, for one (family, noise):
    x_min < x, and x < x_max or x <= x_max as `max_open` says."""

    x_min: float
    x_max: float
    max_open: bool
    critical_x: float | None = None

    def contains(self, x: float) -> bool:
        return self.x_min < x and (x < self.x_max if self.max_open else x <= self.x_max)


def esd_boundary(family: Family, noise_kind: NoiseKind) -> EsdBoundary:
    return _BOUNDARIES[family, noise_kind]


_A, _P, _D = NoiseKind.AMPLITUDE, NoiseKind.PHASE, NoiseKind.DEPOLARIZING
_ISO, _WER = Family.ISOTROPIC, Family.WERNER


# The amplitude criticals of the family intervals solve the eta -> 0 limit
# of the closed forms, lo = 0: (4x-1)^2 = 6(1-x) and 2x^2 + x - 1 = 0.
_BOUNDARIES = {
    (_ISO, _A): EsdBoundary(0.5, 0.625, True, critical_x=0.625),
    (_ISO, _P): EsdBoundary(0.5, 1.0, True),
    (_ISO, _D): EsdBoundary(0.5, 1.0, False),
    (_WER, _A): EsdBoundary(1.0 / 3.0, 0.5, True, critical_x=0.5),
    (_WER, _P): EsdBoundary(1.0 / 3.0, 1.0, True),
    (_WER, _D): EsdBoundary(1.0 / 3.0, 1.0, False),
}


# ---------------------------------------------------------------------------
# figure presets


@dataclass(frozen=True)
class FigureCurve:
    label: str
    scenario: Scenario


@dataclass(frozen=True)
class FigurePreset:
    tau_max: float
    curves: tuple[FigureCurve, ...]


def _xs(a, b, c, d, z, kind) -> Scenario:
    return Scenario(XStateParams(a, b, c, d, z), kind)


def _ps(a, b, c, d, f, g, h, kind) -> Scenario:
    return Scenario(PureStateParams(a, b, c, d, f, g, h), kind)


_QP = math.pi / 4.0

FIGURE_PRESETS = {
    "fig1": FigurePreset(
        3.0,
        (
            FigureCurve("solid", _xs(0.1, 0.4, 0.4, 0.1, 0.2, NoiseKind.AMPLITUDE)),
            FigureCurve("dashed", _xs(0.1, 0.2, 0.6, 0.1, 0.2, NoiseKind.AMPLITUDE)),
        ),
    ),
    "fig2": FigurePreset(
        2.0,
        (
            FigureCurve("solid", _xs(0.2, 0.3, 0.3, 0.2, 0.3, NoiseKind.PHASE)),
            FigureCurve("dashed", _xs(0.5, 0.1, 0.4, 0.0, 0.1, NoiseKind.PHASE)),
        ),
    ),
    "fig3": FigurePreset(
        2.5,
        (
            FigureCurve("solid", _xs(0.5, 0.1, 0.4, 0.0, 0.1, NoiseKind.DEPOLARIZING)),
            FigureCurve("dot-dashed", _xs(0.1, 0.2, 0.6, 0.1, 0.2, NoiseKind.DEPOLARIZING)),
        ),
    ),
    "fig4": FigurePreset(
        2.0,
        (
            FigureCurve(
                "dashed",
                _ps(0.125, 0.375, 0.375, 0.125, _QP, _QP, _QP, NoiseKind.DEPOLARIZING),
            ),
            FigureCurve(
                "dot-dashed",
                _ps(0.25, 0.25, 0.25, 0.25, _QP, _QP, _QP, NoiseKind.DEPOLARIZING),
            ),
            FigureCurve(
                "solid",
                _ps(0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, NoiseKind.DEPOLARIZING),
            ),
        ),
    ),
}
