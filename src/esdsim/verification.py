"""Randomized property suites.

Each suite draws its cases from a seeded generator, measures a worst-case
error and collects reproduction strings for anything over tolerance.  The
CLI verify command runs the whole registry; the test suite reuses single
suites with smaller case counts.

Case counts scale with the requested total: the per-suite `scale` keeps
expensive scan-based suites proportionally smaller, with at least one case
each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import channels, dynamics, sampling
from .channels import NoiseKind, NoiseSpec, apply_channel, kraus_for, lift_first
from .concurrence import (
    concurrence_pure,
    concurrence_pure_determinant,
    concurrence_wootters,
    concurrence_x,
)
from .dynamics import (
    Classification,
    Scenario,
    closed_form_concurrence,
    closed_form_trajectory,
    esd_time_analytic,
    esd_time_bisection,
    evolved_state,
    initial_state,
    numeric_trajectory,
)
from .linalg import dagger, hermitian_eig, kron, psd_sqrt
from .states import Family, FamilyParams, as_x_params, isotropic, pure_state, werner, x_state

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


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

    def record(self, error: float, detail: str) -> None:
        if error > self.max_error:
            self.max_error = error
        if error > self.tolerance:
            self.failures.append(f"err={error:.6e} {detail}")


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _random_complex(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1.0j * rng.standard_normal((dim, dim))


# ---------------------------------------------------------------------------
# linear algebra


def suite_kron_algebra(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        a, b, c, d = (_random_complex(rng) for _ in range(4))
        k = kron(a, b)
        blocks = np.block([[a[0, 0] * b, a[0, 1] * b], [a[1, 0] * b, a[1, 1] * b]])
        err = _frob(k - blocks)
        err = max(err, _frob(k @ kron(c, d) - kron(a @ c, b @ d)))
        res.record(err, f"a={a.tolist()!r} b={b.tolist()!r}")


def suite_eig_reconstruction(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        g = _random_complex(rng, 4)
        h = g + dagger(g)
        dec = hermitian_eig(h)
        v, w = dec.eigenvectors, dec.eigenvalues
        err = _frob((v * w) @ dagger(v) - h)
        err = max(err, _frob(dagger(v) @ v - np.eye(4)))
        if np.any(np.diff(w) > 0):
            err = max(err, float(np.diff(w).max()))
        res.record(err, f"h={h.tolist()!r}")


def suite_psd_sqrt_roundtrip(rng: np.random.Generator, res: SuiteResult) -> None:
    for i in range(res.cases):
        if i % 3 == 0:
            # rank-deficient input; the square root must not amplify the
            # zero modes
            rank = int(rng.integers(1, 4))
            g = rng.standard_normal((4, rank)) + 1.0j * rng.standard_normal((4, rank))
            h = g @ dagger(g)
            h = h / np.trace(h).real
        else:
            h = sampling.ginibre_density(rng)
        s = psd_sqrt(h)
        err = _frob(s @ s - h)
        err = max(err, _frob(s - dagger(s)))
        res.record(err, f"h={h.tolist()!r}")


# ---------------------------------------------------------------------------
# channels


def suite_kraus_completeness(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        value = float(rng.uniform())
        for kind in sampling.NOISE_KINDS:
            err = channels.completeness_residual(kraus_for(kind, value))
            res.record(err, f"kind={kind.value} value={value!r}")


def suite_channel_output_validity(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        rho = sampling.ginibre_density(rng)
        kind = sampling.random_noise_kind(rng)
        value = float(rng.uniform())
        out = apply_channel(rho, lift_first(kraus_for(kind, value)))
        err = abs(np.trace(out).real - 1.0)
        err = max(err, _frob(out - dagger(out)))
        w = np.linalg.eigvalsh(out)
        err = max(err, max(0.0, -float(w.min())))
        res.record(err, f"kind={kind.value} value={value!r} rho={rho.tolist()!r}")


def suite_x_form_closure(rng: np.random.Generator, res: SuiteResult) -> None:
    # every noise maps the cross pattern into itself (the corner coherences
    # generated by the bit-flip components cancel pairwise)
    for _ in range(res.cases):
        params = sampling.random_x_params(rng)
        kind = sampling.random_noise_kind(rng)
        value = float(rng.uniform())
        out = apply_channel(x_state(params), lift_first(kraus_for(kind, value)))
        try:
            back = as_x_params(out)
        except ValueError as exc:
            res.record(math.inf, f"params={params!r} kind={kind.value} value={value!r}: {exc}")
            continue
        res.record(
            _frob(x_state(back) - out),
            f"params={params!r} kind={kind.value} value={value!r}",
        )


def suite_qubit2_marginal(rng: np.random.Generator, res: SuiteResult) -> None:
    # noise on qubit 1 must leave the qubit-2 reduced state untouched
    for _ in range(res.cases):
        rho = sampling.ginibre_density(rng)
        kind = sampling.random_noise_kind(rng)
        value = float(rng.uniform())
        out = apply_channel(rho, lift_first(kraus_for(kind, value)))
        err = _frob(
            channels._reduced_second_qubit(out) - channels._reduced_second_qubit(rho)
        )
        res.record(err, f"kind={kind.value} value={value!r} rho={rho.tolist()!r}")


def suite_composition_semigroup(rng: np.random.Generator, res: SuiteResult) -> None:
    # eta and gamma multiply, so applying at tau1 then tau2 equals one
    # application at tau1 + tau2 (amplitude and phase only; depolarizing
    # is parametrized directly through p and is not a semigroup in tau)
    for _ in range(res.cases):
        rho = sampling.ginibre_density(rng)
        kind = NoiseKind.AMPLITUDE if rng.uniform() < 0.5 else NoiseKind.PHASE
        noise = NoiseSpec(kind)
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        step1 = apply_channel(rho, lift_first(kraus_for(kind, dynamics.noise_param(noise, t1))))
        step2 = apply_channel(step1, lift_first(kraus_for(kind, dynamics.noise_param(noise, t2))))
        joint = apply_channel(
            rho, lift_first(kraus_for(kind, dynamics.noise_param(noise, t1 + t2)))
        )
        res.record(_frob(step2 - joint), f"kind={kind.value} t1={t1!r} t2={t2!r}")


# ---------------------------------------------------------------------------
# concurrence


def suite_concurrence_x_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        params = sampling.random_x_params(rng)
        err = abs(concurrence_x(params) - concurrence_wootters(x_state(params)))
        res.record(err, f"params={params!r}")


def suite_concurrence_pure_oracle(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        params = sampling.random_pure_params(rng)
        c = concurrence_pure(params)
        err = abs(c - concurrence_wootters(pure_state(params)))
        err = max(err, abs(c - concurrence_pure_determinant(params)))
        res.record(err, f"params={params!r}")


def suite_local_unitary_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        rho = sampling.ginibre_density(rng)
        u = kron(sampling.haar_unitary(rng), sampling.haar_unitary(rng))
        err = abs(concurrence_wootters(rho) - concurrence_wootters(u @ rho @ dagger(u)))
        res.record(err, f"rho={rho.tolist()!r} u={u.tolist()!r}")


def suite_twirl_invariance(rng: np.random.Generator, res: SuiteResult) -> None:
    # werner(x) commutes with U x U conjugation; isotropic(x) does so with
    # U x U* after a bit flip on qubit 1 (the triplet-based sign layout)
    for _ in range(res.cases):
        x = float(rng.uniform())
        u = sampling.haar_unitary(rng)
        rho_w = werner(x)
        uu = kron(u, u)
        err = _frob(uu @ rho_w @ dagger(uu) - rho_w)
        flip = kron(_SX, _EYE2)
        rho_i = flip @ isotropic(x) @ flip
        uc = kron(u, u.conj())
        err = max(err, _frob(uc @ rho_i @ dagger(uc) - rho_i))
        res.record(err, f"x={x!r} u={u.tolist()!r}")


# ---------------------------------------------------------------------------
# dynamics


def suite_closed_vs_numeric(rng: np.random.Generator, res: SuiteResult) -> None:
    for i in range(res.cases):
        scenario = sampling.random_scenario(rng, i)
        tau = float(rng.uniform(0.0, 10.0))
        closed = closed_form_concurrence(scenario, tau)
        oracle = concurrence_wootters(evolved_state(scenario, tau))
        res.record(abs(closed - oracle), f"scenario={scenario!r} tau={tau!r}")


# Family cells with a closed threshold, and a mixing-weight window inside
# their sudden-death interval.
_FAMILY_DEATH_WINDOWS = (
    (Family.ISOTROPIC, NoiseKind.PHASE, 0.51, 0.99),
    (Family.ISOTROPIC, NoiseKind.DEPOLARIZING, 0.51, 1.0),
    (Family.WERNER, NoiseKind.PHASE, 0.35, 0.99),
    (Family.WERNER, NoiseKind.DEPOLARIZING, 0.35, 1.0),
)


def _sudden_death_scenario(rng: np.random.Generator, pick: int) -> Scenario:
    # builders restricted to (state, noise) pairs with a closed threshold,
    # sampled inside their sudden-death windows
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
    family, kind, lo, hi = _FAMILY_DEATH_WINDOWS[pick - 3]
    return Scenario(FamilyParams(family, float(rng.uniform(lo, hi))), NoiseSpec(kind))


def suite_analytic_vs_bisection(rng: np.random.Generator, res: SuiteResult) -> None:
    for i in range(res.cases):
        scenario = _sudden_death_scenario(rng, i % 7)
        analytic = esd_time_analytic(scenario)
        if analytic.classification is not Classification.SUDDEN_DEATH:
            res.record(math.inf, f"scenario={scenario!r}: expected SuddenDeath, got {analytic}")
            continue
        numeric = esd_time_bisection(scenario, tau_max=analytic.tau_death + 10.0)
        if numeric.classification is not Classification.SUDDEN_DEATH:
            res.record(math.inf, f"scenario={scenario!r}: bisection got {numeric}")
            continue
        res.record(abs(analytic.tau_death - numeric.tau_death), f"scenario={scenario!r}")


def suite_pure_depol_universality(rng: np.random.Generator, res: SuiteResult) -> None:
    # the depolarizing death time of every entangled pure state is 2 ln 2,
    # independent of the state parameters
    target = 2.0 * math.log(2.0)
    for _ in range(res.cases):
        params = sampling.random_entangled_pure_params(rng)
        result = esd_time_bisection(
            Scenario(params, NoiseSpec(NoiseKind.DEPOLARIZING)), tau_max=5.0
        )
        if result.classification is not Classification.SUDDEN_DEATH:
            res.record(math.inf, f"params={params!r}: got {result}")
            continue
        res.record(abs(result.tau_death - target), f"params={params!r}")


def suite_pure_amp_phase_no_esd(rng: np.random.Generator, res: SuiteResult) -> None:
    for _ in range(res.cases):
        params = sampling.random_entangled_pure_params(rng)
        for kind in (NoiseKind.AMPLITUDE, NoiseKind.PHASE):
            result = esd_time_bisection(Scenario(params, NoiseSpec(kind)), tau_max=50.0)
            ok = result.classification is Classification.ASYMPTOTIC_DECAY
            res.record(0.0 if ok else math.inf, f"params={params!r} kind={kind.value}: {result}")


def suite_trajectory_monotone(rng: np.random.Generator, res: SuiteResult) -> None:
    grid = np.linspace(0.0, 10.0, 48)
    for i in range(res.cases):
        scenario = sampling.random_scenario(rng, i)
        for traj in (numeric_trajectory(scenario, grid), closed_form_trajectory(scenario, grid)):
            steps = np.diff(traj.c)
            err = max(0.0, float(steps.max())) if steps.size else 0.0
            res.record(err, f"scenario={scenario!r} source={traj.source.value}")


def suite_tau_zero_identity(rng: np.random.Generator, res: SuiteResult) -> None:
    for i in range(res.cases):
        scenario = sampling.random_scenario(rng, i)
        rho0 = initial_state(scenario)
        err = _frob(evolved_state(scenario, 0.0) - rho0)
        err = max(
            err,
            abs(closed_form_concurrence(scenario, 0.0) - concurrence_wootters(rho0)),
        )
        res.record(err, f"scenario={scenario!r}")


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
    ("pure_depol_universality", suite_pure_depol_universality, 0.1, 1e-8),
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
