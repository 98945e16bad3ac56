"""Randomized property suites.

Each suite runs in two phases.  It first draws its cases one at a time from
a seeded generator, in a fixed order, so a seed always yields the same
cases and the same reproduction strings.  It then stacks the drawn inputs
and checks them all at once through the stack-aware library functions:
one call per suite, or one per noise kind where the Kraus set depends on
it.  The state constructors and `kron` take the whole stack too: the
initial states of the scenario suites are built with one constructor call
per state kind, and the `as_x_params` records of `x_form_closure` are
rebuilt with one `x_state` call.  `closed_vs_numeric` and
`trajectory_monotone` hand their whole sample to
`dynamics.numeric_concurrence`, the numeric route that `evolve` prints;
it builds, stacks and evolves the factors, and this module builds none.
Library functions that take a single record (the closed forms, the
death-time routes, `as_x_params`) run once per case.  The death-time
suite draws sudden deaths from every cell of the grid that has them.
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
from .channels import NoiseKind, NoiseSpec, apply_channel, kraus_for
from .concurrence import (
    concurrence_pure,
    concurrence_pure_determinant,
    concurrence_wootters,
    concurrence_x,
)
from .dynamics import (
    Classification,
    Scenario,
    TrajectorySource,
    closed_form_concurrence,
    closed_form_trajectory,
    esd_time_analytic,
    esd_time_bisection,
    numeric_concurrence,
)
from .linalg import _frobenius, dagger, hermitian_eig, kron, psd_sqrt
from .states import (
    Family,
    FamilyParams,
    XStateParams,
    as_x_params,
    isotropic,
    pure_state,
    state_stack,
    werner,
    x_state,
)

# bit flip on qubit 1
_FLIP1 = kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))


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


def _random_complex(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))


def _by_kind(kinds) -> dict[NoiseKind, list[int]]:
    """Case indices per noise kind, for one stacked call per kind."""
    groups: dict[NoiseKind, list[int]] = {}
    for i, kind in enumerate(kinds):
        groups.setdefault(kind, []).append(i)
    return groups


def _noise_params(kinds, taus) -> np.ndarray:
    """`noise_param` of each case's noise kind at its time (or times):
    `taus` has one leading entry per case."""
    taus = np.asarray(taus, dtype=float)
    values = np.empty_like(taus)
    for kind, idx in _by_kind(kinds).items():
        values[idx] = dynamics.noise_param(NoiseSpec(kind), taus[idx])
    return values


def _apply_noise(rho: np.ndarray, kinds, values) -> np.ndarray:
    """Each two-qubit state of the (n, 4, 4) stack `rho` under its own noise
    kind on qubit 1, at its own parameter value (or values: `values` has
    one leading entry per case, and the result has shape values.shape +
    (4, 4)).  The 2x2 Kraus sets act directly, one `apply_channel` call per
    kind: the map that `dynamics._evolve` applies to a factor of the state."""
    values = np.asarray(values, dtype=float)
    out = np.empty(values.shape + (4, 4), dtype=complex)
    for kind, idx in _by_kind(kinds).items():
        states = rho[idx].reshape((len(idx),) + (1,) * (values.ndim - 1) + (4, 4))
        out[idx] = apply_channel(states, kraus_for(kind, values[idx]))
    return out


def _marginal_second(rho: np.ndarray) -> np.ndarray:
    """Qubit-2 reduced state (partial trace over qubit 1) of each state."""
    return np.einsum("...ijil->...jl", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# linear algebra


def suite_kron_algebra(rng: np.random.Generator, res: SuiteResult) -> None:
    draws = [[_random_complex(rng) for _ in range(4)] for _ in range(res.cases)]
    a, b, c, d = (np.stack(m) for m in zip(*draws))
    k = kron(a, b)
    blocks = np.block([[a[:, i, j, None, None] * b for j in range(2)] for i in range(2)])
    mixed = k @ kron(c, d)
    joint = kron(a @ c, b @ d)
    err = np.maximum(_frobenius(k - blocks), _frobenius(mixed - joint))
    res.record_all(err, lambda i: f"a={a[i].tolist()!r} b={b[i].tolist()!r}")


def suite_eig_reconstruction(rng: np.random.Generator, res: SuiteResult) -> None:
    g = np.stack([_random_complex(rng, 4) for _ in range(res.cases)])
    h = g + dagger(g)
    w, v = hermitian_eig(h)
    err = _frobenius((v * w[..., None, :]) @ dagger(v) - h)
    err = np.maximum(err, _frobenius(dagger(v) @ v - np.eye(4)))
    # eigenvalues must come out descending
    err = np.maximum(err, np.diff(w).max(axis=-1))
    res.record_all(err, lambda i: f"h={h[i].tolist()!r}")


def _psd_case(rng: np.random.Generator, i: int) -> np.ndarray:
    if i % 3:
        return sampling.ginibre_density(rng)
    # rank-deficient input; the square root must not amplify the zero modes
    rank = int(rng.integers(1, 4))
    g = rng.standard_normal((4, rank)) + 1.0j * rng.standard_normal((4, rank))
    h = g @ dagger(g)
    return h / np.trace(h).real


def suite_psd_sqrt_roundtrip(rng: np.random.Generator, res: SuiteResult) -> None:
    h = np.stack([_psd_case(rng, i) for i in range(res.cases)])
    s = psd_sqrt(h)
    err = np.maximum(_frobenius(s @ s - h), _frobenius(s - dagger(s)))
    res.record_all(err, lambda i: f"h={h[i].tolist()!r}")


# ---------------------------------------------------------------------------
# channels


def suite_kraus_completeness(rng: np.random.Generator, res: SuiteResult) -> None:
    values = [float(rng.uniform()) for _ in range(res.cases)]
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
    return state(rng), sampling.random_noise_kind(rng), float(rng.uniform())


def suite_channel_output_validity(rng: np.random.Generator, res: SuiteResult) -> None:
    rhos, kinds, values = zip(
        *(_noisy_case(rng, sampling.ginibre_density) for _ in range(res.cases))
    )
    out = _apply_noise(np.stack(rhos), kinds, values)
    err = np.abs(np.trace(out, axis1=-2, axis2=-1).real - 1.0)
    err = np.maximum(err, _frobenius(out - dagger(out)))
    err = np.maximum(err, -np.linalg.eigvalsh(out)[..., 0])
    res.record_all(
        err, lambda i: f"kind={kinds[i].value} value={values[i]!r} rho={rhos[i].tolist()!r}"
    )


def suite_x_form_closure(rng: np.random.Generator, res: SuiteResult) -> None:
    # every noise maps the cross pattern into itself (the corner coherences
    # generated by the bit-flip components cancel pairwise)
    params, kinds, values = zip(
        *(_noisy_case(rng, sampling.random_x_params) for _ in range(res.cases))
    )
    out = _apply_noise(x_state(params), kinds, values)
    records: dict[int, XStateParams] = {}
    reasons: dict[int, str] = {}
    for i, rho in enumerate(out):
        try:
            records[i] = as_x_params(rho)
        except ValueError as exc:
            reasons[i] = f": {exc}"
    rebuilt = out.copy()
    rebuilt[list(records)] = x_state(list(records.values()))
    err = _frobenius(rebuilt - out)
    err[list(reasons)] = math.inf
    res.record_all(
        err,
        lambda i: f"params={params[i]!r} kind={kinds[i].value} value={values[i]!r}"
        + reasons.get(i, ""),
    )


def suite_qubit2_marginal(rng: np.random.Generator, res: SuiteResult) -> None:
    # noise on qubit 1 must leave the qubit-2 reduced state untouched
    rhos, kinds, values = zip(
        *(_noisy_case(rng, sampling.ginibre_density) for _ in range(res.cases))
    )
    rho = np.stack(rhos)
    out = _apply_noise(rho, kinds, values)
    err = _frobenius(_marginal_second(out) - _marginal_second(rho))
    res.record_all(
        err, lambda i: f"kind={kinds[i].value} value={values[i]!r} rho={rhos[i].tolist()!r}"
    )


def _semigroup_case(rng: np.random.Generator) -> tuple:
    rho = sampling.ginibre_density(rng)
    kind = NoiseKind.AMPLITUDE if rng.uniform() < 0.5 else NoiseKind.PHASE
    t1, t2 = rng.uniform(0.0, 3.0, size=2)
    return rho, kind, t1, t2


def suite_composition_semigroup(rng: np.random.Generator, res: SuiteResult) -> None:
    # eta and gamma multiply, so applying at tau1 then tau2 equals one
    # application at tau1 + tau2 (amplitude and phase only; depolarizing
    # is parametrized directly through p and is not a semigroup in tau)
    rhos, kinds, t1, t2 = zip(*(_semigroup_case(rng) for _ in range(res.cases)))
    rho = np.stack(rhos)
    tau1, tau2 = np.array(t1), np.array(t2)
    step1 = _apply_noise(rho, kinds, _noise_params(kinds, tau1))
    step2 = _apply_noise(step1, kinds, _noise_params(kinds, tau2))
    joint = _apply_noise(rho, kinds, _noise_params(kinds, tau1 + tau2))
    res.record_all(
        _frobenius(step2 - joint), lambda i: f"kind={kinds[i].value} t1={t1[i]!r} t2={t2[i]!r}"
    )


# ---------------------------------------------------------------------------
# concurrence


def suite_concurrence_x_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    params = [sampling.random_x_params(rng) for _ in range(res.cases)]
    oracle = concurrence_wootters(x_state(params))
    err = np.abs(np.array([concurrence_x(p) for p in params]) - oracle)
    res.record_all(err, lambda i: f"params={params[i]!r}")


def suite_concurrence_pure_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    params = [sampling.random_pure_params(rng) for _ in range(res.cases)]
    c = np.array([concurrence_pure(p) for p in params])
    err = np.abs(c - concurrence_wootters(pure_state(params)))
    err = np.maximum(err, np.abs(c - [concurrence_pure_determinant(p) for p in params]))
    res.record_all(err, lambda i: f"params={params[i]!r}")


def _local_unitary_case(rng: np.random.Generator) -> tuple:
    # a state, then the two local unitaries of qubit 1 and qubit 2
    return sampling.ginibre_density(rng), sampling.haar_unitary(rng), sampling.haar_unitary(rng)


def suite_local_unitary_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    rhos, u1, u2 = zip(*(_local_unitary_case(rng) for _ in range(res.cases)))
    rho, u = np.stack(rhos), kron(np.stack(u1), np.stack(u2))
    err = np.abs(concurrence_wootters(rho) - concurrence_wootters(u @ rho @ dagger(u)))
    res.record_all(err, lambda i: f"rho={rhos[i].tolist()!r} u={u[i].tolist()!r}")


def suite_twirl_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    # werner(x) commutes with U x U conjugation; isotropic(x) does so with
    # U x U* after a bit flip on qubit 1 (the triplet-based sign layout)
    xs, us = zip(*((float(rng.uniform()), sampling.haar_unitary(rng)) for _ in range(res.cases)))
    u = np.stack(us)
    rho_w = werner(xs)
    uu = kron(u, u)
    err = _frobenius(uu @ rho_w @ dagger(uu) - rho_w)
    rho_i = _FLIP1 @ isotropic(xs) @ _FLIP1
    uc = kron(u, u.conj())
    err = np.maximum(err, _frobenius(uc @ rho_i @ dagger(uc) - rho_i))
    res.record_all(err, lambda i: f"x={xs[i]!r} u={us[i].tolist()!r}")


# ---------------------------------------------------------------------------
# dynamics


def suite_closed_vs_numeric(rng: np.random.Generator, res: SuiteResult) -> None:
    # tau over the CLI's default range, amplitude-noise tails included
    scenarios, taus = zip(
        *(
            (sampling.random_scenario(rng, i), float(rng.uniform(0.0, 50.0)))
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
# then cross-pattern states under depolarizing noise.  The picks added
# last keep the draws of the first seven where they were.
_DEATH_PICKS = 10


def _sudden_death_scenario(rng: np.random.Generator, pick: int) -> Scenario:
    # one (state, noise) pair of kind `pick`, drawn inside its sudden-death
    # window
    if pick == 0:
        for _ in range(1000):
            params = sampling.random_entangled_x_params(rng)
            if params.a * (params.b + params.d) > abs(params.z) ** 2:
                return Scenario(params, NoiseSpec(NoiseKind.AMPLITUDE))
        raise RuntimeError("could not sample a sudden-death amplitude case")
    if pick == 1:
        return Scenario(sampling.random_entangled_x_params(rng), NoiseSpec(NoiseKind.PHASE))
    if pick == 2:
        return Scenario(sampling.random_entangled_pure_params(rng), NoiseSpec(NoiseKind.DEPOLARIZING))
    if pick == 9:
        return Scenario(sampling.random_entangled_x_params(rng), NoiseSpec(NoiseKind.DEPOLARIZING))
    family, kind, lo, hi = _FAMILY_DEATH_WINDOWS[pick - 3]
    return Scenario(FamilyParams(family, float(rng.uniform(lo, hi))), NoiseSpec(kind))


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
    scenarios = [_sudden_death_scenario(rng, i % _DEATH_PICKS) for i in range(res.cases)]
    err, reasons = zip(*map(_death_time_gap, scenarios))
    res.record_all(err, lambda i: f"scenario={scenarios[i]!r}{reasons[i]}")


def _pure_depolarizing_gap(params) -> tuple[float, str]:
    # |bisected death time - 2 ln 2|, or inf and the reason
    result = esd_time_bisection(Scenario(params, NoiseSpec(NoiseKind.DEPOLARIZING)), tau_max=5.0)
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
        esd_time_bisection(Scenario(p, NoiseSpec(kind)), tau_max=50.0)
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
    sources = (TrajectorySource.NUMERIC, TrajectorySource.CLOSED_FORM)
    scenarios = [sampling.random_scenario(rng, i) for i in range(res.cases)]
    numeric = numeric_concurrence(scenarios, np.broadcast_to(grid, (len(scenarios), grid.size)))
    closed = np.stack([closed_form_trajectory(s, grid).c for s in scenarios])
    steps = np.diff(np.stack([numeric, closed], axis=1), axis=-1)
    err = np.maximum(steps.max(axis=-1), 0.0)

    def detail(j: int) -> str:
        i, k = divmod(j, len(sources))
        return f"scenario={scenarios[i]!r} source={sources[k].value}"

    res.record_all(err, detail)


def suite_tau_zero_identity(rng: np.random.Generator, res: SuiteResult) -> None:
    scenarios = [sampling.random_scenario(rng, i) for i in range(res.cases)]
    kinds = [s.noise.kind for s in scenarios]
    rho0 = state_stack([s.state for s in scenarios])
    err = _frobenius(_apply_noise(rho0, kinds, _noise_params(kinds, np.zeros(len(kinds)))) - rho0)
    closed = np.array([closed_form_concurrence(s, 0.0) for s in scenarios])
    err = np.maximum(err, np.abs(closed - concurrence_wootters(rho0)))
    res.record_all(err, lambda i: f"scenario={scenarios[i]!r}")


# ---------------------------------------------------------------------------
# registry

SuiteFn = Callable[[np.random.Generator, SuiteResult], None]

# (name, function, case-count scale, tolerance)
SUITES: tuple[tuple[str, SuiteFn, float, float], ...] = (
    ("kron_algebra", suite_kron_algebra, 0.5, 1e-12),
    ("eig_reconstruction", suite_eig_reconstruction, 0.5, 1e-10),
    ("psd_sqrt_roundtrip", suite_psd_sqrt_roundtrip, 0.5, 1e-9),
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
    ("analytic_vs_bisection", suite_analytic_vs_bisection, 0.05, 1e-8),
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
