"""Every function, class and method in ``src/qma`` has a caller in the package.

A helper only the tests call belongs in the test that calls it.  The few
names with no caller in ``src/qma`` are listed below, each with the reason
it stays: a check of one of the paper's identities, which the tests run and
a ``qma`` command row may run later, a reference implementation the
tests compare against, or the builder of such a check's input.  A listed name that gains a caller leaves the list.
Special methods (``__init__``, ``__add__``, ...) are called by the
language, not by name, and are not checked.

A method counts as called only through an attribute read (``x.name``), and
not one on an imported module (``np.zeros`` does not call a ``zeros``
method); a module-level function or class counts as called through a name
read or such an attribute read.  A local variable of the same name is not a
caller of a method.
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
    "sample": "check input: GridField.sample builds the lattice the mollify check smooths",
}


def _package_modules():
    return [ast.parse(path.read_text())
            for path in sorted(pathlib.Path(qma.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"]


def _defined_names(module):
    """(module-level functions and classes, methods but the special ones)."""
    top_level, methods = set(), set()
    for top in module.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            top_level.add(top.name)
        if isinstance(top, ast.ClassDef):
            methods.update(item.name for item in top.body
                           if isinstance(item, ast.FunctionDef)
                           and not (item.name.startswith("__") and item.name.endswith("__")))
    return top_level, methods


def _imported_modules(module):
    """The names an ``import`` statement binds to a module (np, math, ...)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(module) if isinstance(node, ast.Import)
            for alias in node.names}


def _on_a_module(attribute, modules):
    """Whether an attribute chain starts at an imported module's name."""
    root = attribute.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in modules


def _reads(node, skip, modules, names, attributes):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id != skip:
            names.add(sub.id)
        elif (isinstance(sub, ast.Attribute) and sub.attr != skip
              and not _on_a_module(sub, modules)):
            attributes.add(sub.attr)


def _reads_in_package(modules):
    """(names, attributes) read in ``src/qma`` outside the definition that
    binds them; a method's own body does not count for its name, and
    neither do the re-exports of ``__init__`` or the imports themselves."""
    names, attributes = set(), set()
    for module in modules:
        imported = _imported_modules(module)
        for top in module.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    own = item.name if isinstance(item, ast.FunctionDef) else top.name
                    _reads(item, own, imported, names, attributes)
                for node in top.bases + top.decorator_list:
                    _reads(node, top.name, imported, names, attributes)
            else:
                own = top.name if isinstance(top, ast.FunctionDef) else None
                _reads(top, own, imported, names, attributes)
    return names, attributes


def test_every_definition_has_a_caller_or_a_listed_reason():
    modules = _package_modules()
    top_level, methods = set(), set()
    for module in modules:
        t, m = _defined_names(module)
        top_level |= t
        methods |= m
    names, attributes = _reads_in_package(modules)
    uncalled = (top_level - names - attributes) | (methods - attributes)
    assert sorted(uncalled - set(UNCALLED)) == [], "defined with no caller in src/qma"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed, but defined with a caller"
