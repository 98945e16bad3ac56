"""Static checks on the package's imports and exports, with the stdlib `ast`.

A name that a module imports and never reads is left over from code that
was removed; an `__all__` entry that does not resolve breaks
`from esdsim import *`; and the package's public names are pinned, so
that each change to them is a listed edit.
"""
import ast
from pathlib import Path

import pytest

import esdsim

SRC = Path(esdsim.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    # each name an import binds, with its line; `from __future__` binds none
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    return bound


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _read(tree) | _all_names(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in kept}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def test_every_public_name_resolves():
    # the verification names load lazily, through the package's __getattr__
    for name in esdsim.__all__:
        getattr(esdsim, name)


# The public surface, one literal list: adding, renaming or removing a
# public name is a deliberate edit of this list.
PUBLIC_NAMES = [
    "Classification",
    "EsdBoundary",
    "EsdResult",
    "FIGURE_PRESETS",
    "Family",
    "FamilyParams",
    "KrausSet",
    "NoiseKind",
    "PureStateParams",
    "Scenario",
    "SuiteResult",
    "Trajectory",
    "XStateParams",
    "__version__",
    "amplitude_kraus",
    "apply_to_factor",
    "as_x_params",
    "closed_form_concurrence",
    "closed_form_trajectory",
    "completeness_residual",
    "concurrence_pure",
    "dagger",
    "depolarizing_kraus",
    "esd_boundary",
    "esd_time_analytic",
    "esd_time_bisection",
    "evolved_state",
    "factor_concurrence",
    "kraus_for",
    "noise_param",
    "numeric_trajectory",
    "phase_kraus",
    "run_all",
    "run_suite",
    "state_factor",
    "state_matrix",
    "validate_density_matrix",
]


def test_public_names_are_pinned():
    assert sorted(esdsim.__all__) == PUBLIC_NAMES
