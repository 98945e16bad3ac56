"""Randomized property suites.

Each suite runs in two phases.  It first draws its cases from a seeded
generator, in a fixed order, so a seed always yields the same cases and
the same reproduction strings.  `kron_algebra`, `symmetric_spectrum` and
`kraus_completeness` draw from one distribution only, so each takes all
its cases in one generator call; the other suites interleave several
distributions per case and draw case by case.  Every draw uses the cheap
forms of `sampling`, which consume the stream as the textbook calls do,
so a one-call suite draws the same bits as a case-by-case draw would.
`twirl_invariance` and `local_unitary_invariance` draw each case's
Ginibre matrices, then turn them all into Haar unitaries in one stacked
QR.  A suite then stacks the drawn inputs and checks them all at once
through the stack-aware library functions: one call per suite, or one
per noise kind (or dtype) where the call depends on it.  Every channel
and concurrence suite checks the kernels that the numeric route of
`evolve` runs, on factors W of the state (rho = W W^dag): noise acts
through `channels.apply_to_factor`, a state after noise is compared as
W W^dag, and concurrences come from
`concurrence.factor_concurrence` of complex factors, narrow (a pure
state's amplitude column), square and wider than four columns (Ginibre
draws G / ||G||_F).  `channel_output_validity` keeps one reference: the
Kraus sum written out with `np.kron`, and `states.validate_density_matrix`
on the evolved states.  `kron_algebra` checks `_kron`, the stacked 2x2
Kronecker product of the local-unitary and twirl suites, which neither
route runs; `concurrence_x_oracle` checks the X closed form at tau = 0
that the routes run.  `closed_vs_numeric` and `trajectory_monotone` hand
their whole sample to `dynamics.numeric_concurrence`, the numeric route
that `evolve` prints; it builds, stacks and evolves the factors.  Library
functions that take a single record (the closed forms, the death-time
routes, `as_x_params`, and `state_matrix` and `state_factor`, the one way
to build a state from its record) run once per case.  The death-time
suite draws sudden deaths from every cell of the grid that has them.
The suites that cycle through the grid's cells start at an offset drawn
first, so that a few cases still reach every cell over fresh seeds.
`SuiteResult.record_all` takes the array of per-case errors and formats a
reproduction string only for the cases over tolerance.  The CLI verify
command runs the whole registry; the test suite reuses single suites with
smaller case counts.

Case counts scale with the requested total: the per-suite `scale` keeps
expensive scan-based suites proportionally smaller, with at least one case
each.  The stacks grow with the case count, and so does memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import channels, dynamics, sampling
from .channels import NoiseKind, apply_to_factor, kraus_for
from .concurrence import _symmetric_singular_values, concurrence_pure, factor_concurrence
from .dynamics import (
    Classification,
    Scenario,
    _groups,
    _padded,
    closed_form_concurrence,
    closed_form_trajectory,
    esd_time_analytic,
    esd_time_bisection,
    numeric_concurrence,
)
from .linalg import _frobenius, dagger
from .states import (
    Family,
    FamilyParams,
    PureStateParams,
    _pure_amplitudes,
    as_x_params,
    pure_factor,
    state_factor,
    state_matrix,
    validate_density_matrix,
)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a x b of two 2x2 matrices, or of two stacks of them pair by pair:
    # block (i, j) is a[i, j] * b, each entry one product, as in np.kron
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


# bit flip on qubit 1
_FLIP1 = _kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


@dataclass
class SuiteResult:
    name: str
    cases: int
    tolerance: float
    max_error: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record_all(self, errors, detail: Callable[[int], str]) -> None:
        """Record one error per case, in case order.

        `detail(i)` gives the reproduction string of case i (the index into
        the flattened `errors`); it is called only for failing cases.  A
        NaN error fails and sticks as `max_error`.
        """
        errors = np.asarray(errors, dtype=float).ravel()
        if not errors.size:
            return
        worst = float(errors.max())
        if worst > self.max_error or math.isnan(worst):
            self.max_error = worst
        for i in np.flatnonzero(~(errors <= self.tolerance)):
            self.failures.append(f"err={errors[i]:.6e} {detail(i)}")


def _noise_params(kinds, taus) -> np.ndarray:
    """`noise_param` of each case's noise kind at its time."""
    taus = np.asarray(taus, dtype=float)
    values = np.empty_like(taus)
    for kind, idx in _groups(kinds).items():
        values[idx] = dynamics.noise_param(kind, taus[idx])
    return values


def _apply_noise(w: np.ndarray, kinds, values) -> np.ndarray:
    """Each factor of the (n, 4, m) stack `w` under its own noise kind on
    qubit 1, at its own parameter value: one `apply_to_factor` call per
    kind, the kernel that `dynamics._evolve` runs.  The result is an
    (n, 4, 4 m) stack; a kind with two Kraus operators fills the first 2 m
    columns, and the zero columns after them leave W W^dag unchanged."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(w.shape[:-1] + (4 * w.shape[-1],), dtype=complex)
    for kind, idx in _groups(kinds).items():
        evolved = apply_to_factor(w[idx], kraus_for(kind, values[idx]))
        out[idx, :, : evolved.shape[-1]] = evolved
    return out


def _state(w: np.ndarray) -> np.ndarray:
    """The state W W^dag of each factor."""
    return w @ dagger(w)


def _checked(check, items) -> tuple[dict, dict[int, str]]:
    """`check` of each item, by index: what it returns for the items it
    accepts, and the reason of each one it refuses with ValueError."""
    results, reasons = {}, {}
    for i, item in enumerate(items):
        try:
            results[i] = check(item)
        except ValueError as exc:
            reasons[i] = f": {exc}"
    return results, reasons


def _marginal_second(rho: np.ndarray) -> np.ndarray:
    """Qubit-2 reduced state (partial trace over qubit 1) of each state."""
    return np.einsum("...ijil->...jl", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# linear algebra


def suite_kron_algebra(rng: np.random.Generator, res: SuiteResult) -> None:
    a, b, c, d = sampling._complex_normal(rng, (res.cases, 4, 2, 2)).swapaxes(0, 1)
    k = _kron(a, b)
    blocks = np.block([[a[:, i, j, None, None] * b for j in range(2)] for i in range(2)])
    mixed = k @ _kron(c, d)
    joint = _kron(a @ c, b @ d)
    err = np.maximum(_frobenius(k - blocks), _frobenius(mixed - joint))
    res.record_all(err, lambda i: f"a={a[i].tolist()!r} b={b[i].tolist()!r}")


def suite_symmetric_spectrum(rng: np.random.Generator, res: SuiteResult) -> None:
    # the singular values that factor_concurrence reads, of real (even
    # cases) and complex (odd cases) symmetric matrices, against the SVD
    g = sampling._complex_normal(rng, (res.cases, 4, 4))
    sym = g + g.swapaxes(-1, -2)
    err = np.empty(res.cases)
    for parity, stack in enumerate((sym[0::2].real, sym[1::2])):
        want = np.linalg.svd(stack, compute_uv=False)
        err[parity::2] = np.abs(_symmetric_singular_values(stack) - want).max(axis=-1)
    res.record_all(err, lambda i: f"g={(sym[i] if i % 2 else sym[i].real).tolist()!r}")


def _reduction_case(rng: np.random.Generator) -> np.ndarray:
    # a factor of m = 5 to 16 columns, [sqrt(t) psi, sqrt(1 - t) G] with
    # psi an entangled pure state's amplitudes, t in [0.5, 0.9] and G a
    # Ginibre factor of m - 1 columns: about 9 in 10 of these states are
    # entangled, where a Ginibre factor alone is mostly separable and its
    # concurrence reads 0 on both sides of the check
    m = int(rng.integers(5, 17))
    psi = pure_factor(sampling.random_entangled_pure_params(rng))
    t = sampling._uniform(rng, 0.5, 0.9)
    return np.hstack([math.sqrt(t) * psi, math.sqrt(1.0 - t) * sampling.ginibre_factor(rng, m - 1)])


def suite_factor_reduction(rng: np.random.Generator, res: SuiteResult) -> None:
    # a wide factor (zero-padded to 16 columns), which factor_concurrence
    # reduces by QR, against the Cholesky factor of its state
    w = [_reduction_case(rng) for _ in range(res.cases)]
    wide = _padded(w, 16)
    err = np.abs(factor_concurrence(wide) - factor_concurrence(np.linalg.cholesky(_state(wide))))
    res.record_all(err, lambda i: f"w={w[i].tolist()!r}")


# ---------------------------------------------------------------------------
# channels


def suite_kraus_completeness(rng: np.random.Generator, res: SuiteResult) -> None:
    values = rng.random(res.cases).tolist()
    kinds = sampling.NOISE_KINDS
    err = np.stack(
        [channels.completeness_residual(kraus_for(kind, values)) for kind in kinds], axis=-1
    )

    def detail(j: int) -> str:
        i, k = divmod(j, len(kinds))
        return f"kind={kinds[k].value} value={values[i]!r}"

    res.record_all(err, detail)


def _noisy_case(rng: np.random.Generator, state: Callable) -> tuple:
    # a state, then a noise kind and its parameter value
    return state(rng), sampling.random_noise_kind(rng), rng.random()


def suite_channel_output_validity(rng: np.random.Generator, res: SuiteResult) -> None:
    # the evolved factor's state against the Kraus sum written out with
    # np.kron, and a density matrix by the check on matrices from outside
    w, kinds, values = zip(
        *(_noisy_case(rng, sampling.ginibre_factor) for _ in range(res.cases))
    )
    w = np.stack(w)
    out = _state(_apply_noise(w, kinds, values))
    rho, want = _state(w), np.empty_like(out)
    for kind, idx in _groups(kinds).items():
        lifted = np.kron(kraus_for(kind, np.take(values, idx)).ops, np.eye(2))
        want[idx] = (lifted @ rho[idx] @ dagger(lifted)).sum(axis=0)
    err = _frobenius(out - want)
    try:
        validate_density_matrix(out)
        reasons = {}
    except ValueError:  # each refused state, with its own reason
        reasons = _checked(validate_density_matrix, out)[1]
    err[list(reasons)] = math.inf
    res.record_all(
        err,
        lambda i: f"kind={kinds[i].value} value={values[i]!r} w={w[i].tolist()!r}"
        + reasons.get(i, ""),
    )


def suite_x_form_closure(rng: np.random.Generator, res: SuiteResult) -> None:
    # every noise maps the cross pattern into itself (the corner coherences
    # generated by the bit-flip components cancel pairwise)
    params, kinds, values = zip(
        *(_noisy_case(rng, sampling.random_x_params) for _ in range(res.cases))
    )
    out = _state(_apply_noise(np.stack([state_factor(p) for p in params]), kinds, values))
    records, reasons = _checked(as_x_params, out)
    rebuilt = out.copy()
    for i, record in records.items():
        rebuilt[i] = state_matrix(record)
    err = _frobenius(rebuilt - out)
    err[list(reasons)] = math.inf
    res.record_all(
        err,
        lambda i: f"params={params[i]!r} kind={kinds[i].value} value={values[i]!r}"
        + reasons.get(i, ""),
    )


def suite_qubit2_marginal(rng: np.random.Generator, res: SuiteResult) -> None:
    # noise on qubit 1 must leave the qubit-2 reduced state untouched
    w, kinds, values = zip(
        *(_noisy_case(rng, sampling.ginibre_factor) for _ in range(res.cases))
    )
    w = np.stack(w)
    out = _state(_apply_noise(w, kinds, values))
    err = _frobenius(_marginal_second(out) - _marginal_second(_state(w)))
    res.record_all(
        err, lambda i: f"kind={kinds[i].value} value={values[i]!r} w={w[i].tolist()!r}"
    )


def _semigroup_case(rng: np.random.Generator) -> tuple:
    w = sampling.ginibre_factor(rng)
    kind = NoiseKind.AMPLITUDE if rng.random() < 0.5 else NoiseKind.PHASE
    t1, t2 = sampling._uniform(rng, 0.0, 3.0, 2)
    return w, kind, t1, t2


def suite_composition_semigroup(rng: np.random.Generator, res: SuiteResult) -> None:
    # eta and gamma multiply, so applying at tau1 then tau2 equals one
    # application at tau1 + tau2 (amplitude and phase only; depolarizing
    # is parametrized directly through p and is not a semigroup in tau)
    w, kinds, t1, t2 = zip(*(_semigroup_case(rng) for _ in range(res.cases)))
    w = np.stack(w)
    tau1, tau2 = np.array(t1), np.array(t2)
    step1 = _apply_noise(w, kinds, _noise_params(kinds, tau1))
    step2 = _apply_noise(step1, kinds, _noise_params(kinds, tau2))
    joint = _apply_noise(w, kinds, _noise_params(kinds, tau1 + tau2))
    res.record_all(
        _frobenius(_state(step2) - _state(joint)),
        lambda i: f"kind={kinds[i].value} t1={t1[i]!r} t2={t2[i]!r}",
    )


# ---------------------------------------------------------------------------
# concurrence


def suite_concurrence_x_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    # the closed form at tau = 0 (the phase cell's is the X formula, bit for
    # bit) against x_factor of each record's entries, z complex
    params = [sampling.random_x_params(rng) for _ in range(res.cases)]
    closed = [closed_form_concurrence(Scenario(p, NoiseKind.PHASE), 0.0) for p in params]
    err = np.abs(np.array(closed) - factor_concurrence(np.stack([state_factor(p) for p in params])))
    res.record_all(err, lambda i: f"params={params[i]!r}")


def _concurrence_pure_determinant(params: PureStateParams) -> float:
    # an oracle apart from both routes: 2 |det M| of the 2x2 amplitude matrix
    return 2.0 * abs(np.linalg.det(_pure_amplitudes(params).reshape(2, 2)))


def suite_concurrence_pure_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    # the complex 4 x 1 amplitude column, which factor_concurrence pads
    params = [sampling.random_pure_params(rng) for _ in range(res.cases)]
    c = np.array([concurrence_pure(p) for p in params])
    err = np.abs(c - factor_concurrence(np.stack([pure_factor(p) for p in params])))
    err = np.maximum(err, np.abs(c - [_concurrence_pure_determinant(p) for p in params]))
    res.record_all(err, lambda i: f"params={params[i]!r}")


def _local_unitary_case(rng: np.random.Generator) -> tuple:
    # a state's factor with 4 to 8 columns (zero-padded to 8 in the suite),
    # then the Ginibre matrices of the local unitaries of qubit 1 and qubit 2
    w = sampling.ginibre_factor(rng, int(rng.integers(4, 9)))
    return w, sampling._complex_normal(rng, (2, 2, 2))


def suite_local_unitary_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    w, g = zip(*(_local_unitary_case(rng) for _ in range(res.cases)))
    u1, u2 = sampling._haar_from_ginibre(np.stack(g)).swapaxes(0, 1)
    wide, u = _padded(w, 8), _kron(u1, u2)
    err = np.abs(factor_concurrence(wide) - factor_concurrence(u @ wide))
    res.record_all(err, lambda i: f"w={w[i].tolist()!r} u={u[i].tolist()!r}")


def suite_twirl_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    # a Werner state commutes with U x U conjugation; an isotropic state
    # does so with U x U* after a bit flip on qubit 1 (the triplet-based
    # sign layout)
    xs, g = zip(*((rng.random(), sampling._complex_normal(rng, (2, 2))) for _ in range(res.cases)))
    u = sampling._haar_from_ginibre(np.stack(g))
    rho_w = np.stack([state_matrix(FamilyParams(Family.WERNER, x)) for x in xs])
    uu = _kron(u, u)
    err = _frobenius(uu @ rho_w @ dagger(uu) - rho_w)
    rho_i = np.stack([state_matrix(FamilyParams(Family.ISOTROPIC, x)) for x in xs])
    rho_i = _FLIP1 @ rho_i @ _FLIP1
    uc = _kron(u, u.conj())
    err = np.maximum(err, _frobenius(uc @ rho_i @ dagger(uc) - rho_i))
    res.record_all(err, lambda i: f"x={xs[i]!r} u={u[i].tolist()!r}")


# ---------------------------------------------------------------------------
# dynamics


def suite_closed_vs_numeric(rng: np.random.Generator, res: SuiteResult) -> None:
    # tau over the CLI's default range, amplitude-noise tails included
    start = int(rng.integers(sampling.SCENARIO_CELLS))
    scenarios, taus = zip(
        *(
            (sampling.random_scenario(rng, start + i), sampling._uniform(rng, 0.0, 50.0))
            for i in range(res.cases)
        )
    )
    closed = np.array([closed_form_concurrence(s, t) for s, t in zip(scenarios, taus)])
    oracle = numeric_concurrence(scenarios, taus)
    res.record_all(
        np.abs(closed - oracle), lambda i: f"scenario={scenarios[i]!r} tau={taus[i]!r}"
    )


# Family cells and a mixing-weight window inside their sudden-death
# interval, for picks 3-6 and 7-8 of `_sudden_death_scenario`.
_FAMILY_DEATH_WINDOWS = (
    (Family.ISOTROPIC, NoiseKind.PHASE, 0.51, 0.99),
    (Family.ISOTROPIC, NoiseKind.DEPOLARIZING, 0.51, 1.0),
    (Family.WERNER, NoiseKind.PHASE, 0.35, 0.99),
    (Family.WERNER, NoiseKind.DEPOLARIZING, 0.35, 1.0),
    (Family.ISOTROPIC, NoiseKind.AMPLITUDE, 0.51, 0.62),
    (Family.WERNER, NoiseKind.AMPLITUDE, 0.34, 0.49),
)
# Kinds of sudden-death scenario: picks 0-2 below, then the family windows,
# then cross-pattern states under depolarizing noise.
_DEATH_PICKS = 10


def _sudden_death_scenario(rng: np.random.Generator, pick: int) -> Scenario:
    # one (state, noise) pair of kind `pick`, drawn inside its sudden-death
    # window
    if pick == 0:
        for _ in range(1000):
            params = sampling.random_entangled_x_params(rng)
            if params.a * (params.b + params.d) > abs(params.z) ** 2:
                return Scenario(params, NoiseKind.AMPLITUDE)
        raise RuntimeError("could not sample a sudden-death amplitude case")
    if pick == 1:
        return Scenario(sampling.random_entangled_x_params(rng), NoiseKind.PHASE)
    if pick == 2:
        return Scenario(sampling.random_entangled_pure_params(rng), NoiseKind.DEPOLARIZING)
    if pick == 9:
        return Scenario(sampling.random_entangled_x_params(rng), NoiseKind.DEPOLARIZING)
    family, kind, lo, hi = _FAMILY_DEATH_WINDOWS[pick - 3]
    return Scenario(FamilyParams(family, sampling._uniform(rng, lo, hi)), kind)


def _death_time_gap(scenario: Scenario) -> tuple[float, str]:
    # |analytic - bisected| death time, or inf and the reason
    analytic = esd_time_analytic(scenario)
    if analytic.classification is not Classification.SUDDEN_DEATH:
        return math.inf, f": expected SuddenDeath, got {analytic}"
    numeric = esd_time_bisection(scenario, tau_max=analytic.tau_death + 10.0)
    if numeric.classification is not Classification.SUDDEN_DEATH:
        return math.inf, f": bisection got {numeric}"
    return abs(analytic.tau_death - numeric.tau_death), ""


def suite_analytic_vs_bisection(rng: np.random.Generator, res: SuiteResult) -> None:
    start = int(rng.integers(_DEATH_PICKS))
    scenarios = [_sudden_death_scenario(rng, (start + i) % _DEATH_PICKS) for i in range(res.cases)]
    err, reasons = zip(*map(_death_time_gap, scenarios))
    res.record_all(err, lambda i: f"scenario={scenarios[i]!r}{reasons[i]}")


def _pure_depolarizing_gap(params) -> tuple[float, str]:
    # |bisected death time - 2 ln 2|, or inf and the reason
    result = esd_time_bisection(Scenario(params, NoiseKind.DEPOLARIZING), tau_max=5.0)
    if result.classification is not Classification.SUDDEN_DEATH:
        return math.inf, f": got {result}"
    return abs(result.tau_death - 2.0 * math.log(2.0)), ""


def suite_pure_depol_universality(rng: np.random.Generator, res: SuiteResult) -> None:
    # the depolarizing death time of every entangled pure state is 2 ln 2,
    # independent of the state parameters
    params = [sampling.random_entangled_pure_params(rng) for _ in range(res.cases)]
    err, reasons = zip(*map(_pure_depolarizing_gap, params))
    res.record_all(err, lambda i: f"params={params[i]!r}{reasons[i]}")


def suite_pure_amp_phase_no_esd(rng: np.random.Generator, res: SuiteResult) -> None:
    kinds = (NoiseKind.AMPLITUDE, NoiseKind.PHASE)
    params = [sampling.random_entangled_pure_params(rng) for _ in range(res.cases)]
    results = [
        esd_time_bisection(Scenario(p, kind), tau_max=50.0)
        for p in params
        for kind in kinds
    ]
    err = [
        0.0 if r.classification is Classification.ASYMPTOTIC_DECAY else math.inf for r in results
    ]

    def detail(j: int) -> str:
        i, k = divmod(j, len(kinds))
        return f"params={params[i]!r} kind={kinds[k].value}: {results[j]}"

    res.record_all(err, detail)


def suite_trajectory_monotone(rng: np.random.Generator, res: SuiteResult) -> None:
    grid = np.linspace(0.0, 10.0, 48)
    sources = ("Numeric", "ClosedForm")
    start = int(rng.integers(sampling.SCENARIO_CELLS))
    scenarios = [sampling.random_scenario(rng, start + i) for i in range(res.cases)]
    numeric = numeric_concurrence(scenarios, np.broadcast_to(grid, (len(scenarios), grid.size)))
    closed = np.stack([closed_form_trajectory(s, grid).c for s in scenarios])
    steps = np.diff(np.stack([numeric, closed], axis=1), axis=-1)
    err = np.maximum(steps.max(axis=-1), 0.0)

    def detail(j: int) -> str:
        i, k = divmod(j, len(sources))
        return f"scenario={scenarios[i]!r} source={sources[k]}"

    res.record_all(err, detail)


def suite_tau_zero_identity(rng: np.random.Generator, res: SuiteResult) -> None:
    # the true initial factors (complex z, pure phases), zero-padded to 4
    # columns, under each noise at tau = 0
    start = int(rng.integers(sampling.SCENARIO_CELLS))
    scenarios = [sampling.random_scenario(rng, start + i) for i in range(res.cases)]
    kinds = [s.noise for s in scenarios]
    w0 = _padded([state_factor(s.state) for s in scenarios], 4)
    evolved = _apply_noise(w0, kinds, _noise_params(kinds, np.zeros(len(kinds))))
    err = _frobenius(_state(evolved) - _state(w0))
    closed = np.array([closed_form_concurrence(s, 0.0) for s in scenarios])
    err = np.maximum(err, np.abs(closed - factor_concurrence(w0)))
    res.record_all(err, lambda i: f"scenario={scenarios[i]!r}")


# ---------------------------------------------------------------------------
# registry

SuiteFn = Callable[[np.random.Generator, SuiteResult], None]

# (name, function, case-count scale, tolerance)
SUITES: tuple[tuple[str, SuiteFn, float, float], ...] = (
    ("kron_algebra", suite_kron_algebra, 0.5, 1e-12),
    ("symmetric_spectrum", suite_symmetric_spectrum, 0.5, 1e-10),
    ("factor_reduction", suite_factor_reduction, 0.5, 1e-9),
    ("kraus_completeness", suite_kraus_completeness, 0.1, 1e-14),
    ("channel_output_validity", suite_channel_output_validity, 0.5, 1e-10),
    ("x_form_closure", suite_x_form_closure, 0.5, 1e-10),
    ("qubit2_marginal", suite_qubit2_marginal, 0.2, 1e-12),
    ("composition_semigroup", suite_composition_semigroup, 0.2, 1e-12),
    ("concurrence_x_oracle", suite_concurrence_x_oracle, 1.0, 1e-9),
    ("concurrence_pure_oracle", suite_concurrence_pure_oracle, 0.5, 1e-9),
    ("local_unitary_invariance", suite_local_unitary_invariance, 0.1, 1e-9),
    ("twirl_invariance", suite_twirl_invariance, 0.2, 1e-12),
    ("closed_vs_numeric", suite_closed_vs_numeric, 0.5, 1e-8),
    ("analytic_vs_bisection", suite_analytic_vs_bisection, 0.05, 1e-12),
    ("pure_depol_universality", suite_pure_depol_universality, 0.1, 1e-11),
    ("pure_amp_phase_no_esd", suite_pure_amp_phase_no_esd, 0.1, 1e-8),
    ("trajectory_monotone", suite_trajectory_monotone, 0.05, 1e-10),
    ("tau_zero_identity", suite_tau_zero_identity, 0.2, 1e-12),
)


def _run(index: int, seed: int, cases: int) -> SuiteResult:
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases!r}")
    name, fn, scale, tol = SUITES[index]
    res = SuiteResult(name, max(1, int(round(cases * scale))), tol)
    fn(np.random.default_rng([seed, index]), res)
    return res


def run_suite(name: str, seed: int, cases: int) -> SuiteResult:
    for index, entry in enumerate(SUITES):
        if entry[0] == name:
            return _run(index, seed, cases)
    raise ValueError(f"unknown suite {name!r}")


def run_all(seed: int, cases: int) -> list[SuiteResult]:
    return [_run(index, seed, cases) for index in range(len(SUITES))]
