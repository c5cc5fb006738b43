"""Every function, class and method in ``src/qma`` has a caller in the
package, and every option of one is set by a caller there.

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

An option is a parameter with a default.  A call of the same name (a
constructor's is its class name) sets it by keyword, by position, or by
``*``/``**`` forwarding, which sets every parameter it can reach.  An
option no call sets is a constant in disguise; the few that stay are
listed below with their reason.

A ``ScalarField`` kind is reached by a command when the config grammar
builds it; the kinds it cannot build are listed with their reason too.
"""

import ast
import pathlib

import qma
from qma.cli import parse_field_expr
from qma.fields import ScalarField

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
    "BlackBox": "reference: finite-difference derivatives of a value oracle",
    "ClosedForm": "reference: a field given by its value, gradient and Hessian oracles",
    "sample": "check input: GridField.sample builds the lattice the mollify check smooths",
}

_CLAIM_CHECK = "claim check: a tunable of one of the paper's identities"
UNSET = {
    "main.argv": "the command line; the console script leaves it to sys.argv",
    "random_qmatrix.cols": "test-suite generator: the rectangular matrices of the tests",
    **{f"ClosedForm.{p}": "reference: the oracles a closed-form field is given"
       for p in ("grad_fn", "hess_fn", "values_fn", "grads_fn", "hessians_fn", "name")},
    "BlackBox.name": "reference: the label of a finite-difference field",
    **{f"{check}.{p}": _CLAIM_CHECK for check, params in [
        ("convergence_suite", ("radius", "sphere_pow", "radial_nodes", "seed")),
        ("integration_by_parts_residual", ("radius", "sphere_pow", "radial_nodes", "seed")),
        ("positivity_pairing_min", ("trials", "seed")),
        ("shell_identity_check", ("sphere_pow", "radial_nodes", "seed")),
        ("stokes_check", ("radius", "center")),
    ] for p in params},
}

UNPARSED = {
    "BlackBox": "reference: finite-difference derivatives of a value oracle",
    "ClosedForm": "reference: a field given by its value, gradient and Hessian oracles",
    "LinearSubstitution": "claim check: the field change_of_variables_check "
                          "substitutes (ROADMAP item 18)",
    "ChainField": "claim check: the members of smooth_max_family",
    "GridField": "claim check: the lattice mollify smooths (ROADMAP item 3)",
}

#: One expression per production of the grammar that builds a field:
#: variables, normsq, quadform, invshift, + - * ^ and unary minus.
GRAMMAR = ["x0^4 + normsq()", "quadform([2, (0,1,0,0); (0,-1,0,0), 3])",
           "invshift(0.001) + normsq()", "invshift(0.001) - x1", "2 * invshift(0.001)",
           "-invshift(0.001)", "invshift(0.001) * invshift(0.1)", "invshift(0.001)^2"]


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


def _defaulted(args, bound):
    """(position, name) of each parameter with a default, the first
    ``bound`` (self or cls) dropped; a keyword-only one has position None."""
    positional = (args.posonlyargs + args.args)[bound:]
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _options(modules):
    """(label, name called, whether a name read calls it, defaulted
    parameters) of every function, method and constructor; a constructor
    is its class's ``__init__``, called by the class name.  A method's
    first parameter is self or cls (the package has no staticmethod)."""
    for module in modules:
        for top in module.body:
            if isinstance(top, ast.FunctionDef):
                yield top.name, top.name, True, _defaulted(top.args, 0)
            if not isinstance(top, ast.ClassDef):
                continue
            for item in top.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    yield top.name, top.name, True, _defaulted(item.args, 1)
                elif not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{top.name}.{item.name}", item.name, False, _defaulted(item.args, 1)


def _call_sites(modules):
    """{(name, through a name read): [(positional count before any *,
    any *, keywords, any **)]} of the calls in ``src/qma``."""
    sites = {}
    for module in modules:
        imported = _imported_modules(module)
        for call in ast.walk(module):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name):
                key = (call.func.id, True)
            elif isinstance(call.func, ast.Attribute) and not _on_a_module(call.func, imported):
                key = (call.func.attr, False)
            else:
                continue
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            sites.setdefault(key, []).append((
                starred[0] if starred else len(call.args), bool(starred),
                {k.arg for k in call.keywords if k.arg is not None},
                any(k.arg is None for k in call.keywords)))
    return sites


def test_every_option_is_set_by_a_caller_or_listed_with_a_reason():
    modules = _package_modules()
    sites = _call_sites(modules)
    unset = set()
    for label, name, by_name, defaulted in _options(modules):
        calls = sites.get((name, False), []) + (sites.get((name, True), []) if by_name else [])
        for slot, param in defaulted:
            if not any(param in keywords or double_star
                       or (slot is not None and (count > slot or star))
                       for count, star, keywords, double_star in calls):
                unset.add(f"{label}.{param}")
    assert sorted(unset - set(UNSET)) == [], "an option no call in src/qma sets"
    assert sorted(set(UNSET) - unset) == [], "listed, but set by a call"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _field_kinds(field):
    """The class names of a field and of every field it is built from."""
    kinds = {type(field).__name__}
    for part in getattr(field, "__dict__", {}).values():
        if isinstance(part, ScalarField):
            kinds |= _field_kinds(part)
    return kinds


def test_every_field_kind_is_parsed_or_listed_with_a_reason():
    kinds = {c.__name__ for c in _subclasses(ScalarField) if c.__module__.startswith("qma.")}
    parsed = set().union(*(_field_kinds(parse_field_expr(e, 2)) for e in GRAMMAR))
    assert parsed == {"Polynomial", "InvShift", "_SumField", "_ScaledField", "_ProductField"}
    assert sorted(kinds - parsed - set(UNPARSED)) == [], "a field kind no config builds"
    assert sorted(set(UNPARSED) & parsed) == [], "listed, but built by the grammar"
    assert sorted(set(UNPARSED) - kinds) == [], "listed, but not a ScalarField kind"
