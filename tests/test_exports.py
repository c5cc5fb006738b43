"""Every function and class that ``qma`` exports has a caller in the package.

A helper only the tests call belongs in the test that calls it.  The few
exported names with no caller in ``src/qma`` are listed below, each with the
reason it stays: a check of one of the paper's identities, which the tests
run and a ``qma`` command row may run later, or a reference implementation
the tests compare against.  A listed name that gains a caller leaves the list.
"""

import ast
import pathlib
import types

import qma

UNCALLED = {
    "bt_product": "claim check: the Bedford-Taylor product laplace(u) ^ T",
    "change_of_variables_check": "claim check: the delta-matrix law under q -> A q",
    "convergence_suite": "claim check: Bedford-Taylor convergence of decreasing sequences",
    "d_scalar": "claim check: the differentials d0, d1 of a potential",
    "integration_by_parts_residual": "claim check: integration by parts of laplacian wedges",
    "mixed_discriminant": "claim check: the polarized Moore determinant",
    "mollify": "claim check: the mollified potentials convergence_suite pairs",
    "positivity_pairing_min": "claim check: positivity of a current against strong positives",
    "shell_identity_check": "claim check: the two-radius shell identity of the Lelong profile",
    "smooth_max_family": "claim check: the smooth max family of the exhaustion argument",
    "stokes_check": "claim check: Stokes duality between d_alpha and wedging",
    "fundamental_ma_density": "reference: the closed-form density ma_density is compared to",
    "BlackBox": "reference: finite-difference derivatives of a value oracle",
    "ClosedForm": "reference: a field given by its value, gradient and Hessian oracles",
}


def _names_used_in_package():
    """Names read in ``src/qma`` outside the definition that binds them;
    the re-exports of ``__init__`` and the imports themselves do not count."""
    used = set()
    for path in pathlib.Path(qma.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def test_every_exported_name_has_a_caller_or_a_listed_reason():
    exported = {name for name in qma.__all__
                if not isinstance(getattr(qma, name), types.ModuleType)}
    uncalled = exported - _names_used_in_package()
    assert sorted(uncalled - set(UNCALLED)) == [], "exported with no caller in src/qma"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed, but exported with a caller"
