"""Two-qubit entanglement decay under a single local noise channel.

Build a state (X form, pure, isotropic or Werner), pick one of the three
noises, and follow its concurrence: closed forms, a general spin-flip
route that checks them, and sudden-death detection by threshold formula
or bisection.
"""
from .channels import (
    KrausSet,
    NoiseKind,
    amplitude_kraus,
    apply_to_factor,
    completeness_residual,
    depolarizing_kraus,
    kraus_for,
    phase_kraus,
)
from .concurrence import (
    concurrence_pure,
    factor_concurrence,
)
from .dynamics import (
    FIGURE_PRESETS,
    Classification,
    EsdBoundary,
    EsdResult,
    Scenario,
    Trajectory,
    closed_form_concurrence,
    closed_form_trajectory,
    esd_boundary,
    esd_time_analytic,
    esd_time_bisection,
    evolved_state,
    noise_param,
    numeric_trajectory,
)
from .linalg import dagger
from .states import (
    Family,
    FamilyParams,
    PureStateParams,
    XStateParams,
    as_x_params,
    state_factor,
    state_matrix,
    validate_density_matrix,
)

__version__ = "0.1.0"

# The verify stack (and numpy.random with it) loads on first use, so the
# commands that never verify do not pay for its import.
_VERIFICATION_NAMES = ("SuiteResult", "run_all", "run_suite")


def __getattr__(name: str):
    if name in _VERIFICATION_NAMES:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "dagger",
    "Family",
    "FamilyParams",
    "PureStateParams",
    "XStateParams",
    "as_x_params",
    "state_factor",
    "state_matrix",
    "validate_density_matrix",
    "KrausSet",
    "NoiseKind",
    "amplitude_kraus",
    "apply_to_factor",
    "completeness_residual",
    "depolarizing_kraus",
    "kraus_for",
    "phase_kraus",
    "concurrence_pure",
    "factor_concurrence",
    "FIGURE_PRESETS",
    "Classification",
    "EsdBoundary",
    "EsdResult",
    "Scenario",
    "Trajectory",
    "closed_form_concurrence",
    "closed_form_trajectory",
    "esd_boundary",
    "esd_time_analytic",
    "esd_time_bisection",
    "evolved_state",
    "noise_param",
    "numeric_trajectory",
    "SuiteResult",
    "run_all",
    "run_suite",
    "__version__",
]
