"""Every function, class and method in ``src/qma`` has a caller in the package.

A helper only the tests call belongs in the test that calls it.  The few
names with no caller in ``src/qma`` are listed below, each with the reason
it stays: a check of one of the paper's identities, which the tests run and
a ``qma`` command row may run later, or a reference implementation the
tests compare against.  A listed name that gains a caller leaves the list.
Special methods (``__init__``, ``__add__``, ...) are called by the
language, not by name, and are not checked.
"""

import ast
import pathlib

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


def _package_modules():
    return [ast.parse(path.read_text())
            for path in sorted(pathlib.Path(qma.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"]


def _defined_names(module):
    """Each module-level function and class, and each method but the
    special ones."""
    for top in module.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.name


def _names_read(node, skip):
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name is not None and name != skip:
            yield name


def _names_used_in_package(modules):
    """Names read in ``src/qma`` outside the definition that binds them; a
    method's own body does not count for its name, and neither do the
    re-exports of ``__init__`` or the imports themselves."""
    used = set()
    for module in modules:
        for top in module.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    own = item.name if isinstance(item, ast.FunctionDef) else top.name
                    used.update(_names_read(item, own))
                for node in top.bases + top.decorator_list:
                    used.update(_names_read(node, top.name))
            else:
                own = top.name if isinstance(top, ast.FunctionDef) else None
                used.update(_names_read(top, own))
    return used


def test_every_definition_has_a_caller_or_a_listed_reason():
    modules = _package_modules()
    defined = {name for module in modules for name in _defined_names(module)}
    uncalled = defined - _names_used_in_package(modules)
    assert sorted(uncalled - set(UNCALLED)) == [], "defined with no caller in src/qma"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed, but defined with a caller"
