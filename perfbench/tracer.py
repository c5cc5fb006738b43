"""In-memory span aggregation around the public functions of each qma layer.

Every wrapped function is rebound in each ``qma`` module that holds it by
name (``delta_matrices`` is called through ``monge_ampere``, ``potential``
and ``currents``; ``ma_density`` also through ``potential`` and ``cli``).
``brentq`` is wrapped once per importing module so the two root-finding
paths stay apart, and field methods are wrapped on every ``ScalarField``
subclass that defines its own.  Spans are aggregated by (name, parent):
one run makes millions of leaf calls, so no per-call record is kept.
"""

import sys
import time


def _batch(index):
    """Points in the batch argument at ``index``."""
    return lambda args: len(args[index])


# (module, function, points in the call's batch or None)
FUNCTIONS = (
    ("cli", "parse_config", None),
    ("cli", "parse_field_expr", None),
    ("cli", "write_outputs", None),
    ("calculus", "delta_matrices", _batch(1)),
    ("monge_ampere", "ma_density", _batch(1)),
    ("monge_ampere", "mixed_ma", _batch(1)),
    ("monge_ampere", "moore_equivalence_residual", None),
    ("monge_ampere", "psh_test", None),
    # dmats is a list of (N, 2n, 2n) arrays, one per factor
    ("currents", "wedge_top_density", lambda args: len(args[2][0])),
    ("currents", "sigma_mass", None),
    ("potential", "boundary_measure_density", _batch(1)),
    ("potential", "surface_integral", None),
    ("potential", "sublevel_integral", None),
    ("quadrature", "sobol_sphere", None),
    ("quadrature", "gauss_legendre_panels", None),
    ("exterior", "positivity_test", None),
    ("exterior", "pullback", None),
    ("hamilton", "moore_det", None),
)

# ScalarField methods; args[0] is the field, args[1] the point or batch
FIELD_METHODS = (("value", None), ("values", _batch(1)), ("gradients", _batch(1)),
                 ("hessians", _batch(1)))

# modules whose module-level brentq is the per-ray root solver
ROOT_SOLVERS = ("potential", "quadrature")

RULES = ("BallQuadrature", "SphereRule", "EllipsoidRule", "StarShapedRule")


class Tracer:
    def __init__(self):
        self._stack = []            # [name, time covered by child spans]
        self._spans = {}            # (name, parent) -> [calls, pts, total, child]
        self.counters = {}

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, points=None):
        stack, spans = self._stack, self._spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                if points is not None:
                    rec[1] += points(args)
                rec[2] += elapsed
                rec[3] += frame[1]

        return wrapper

    # ------------------------------------------------------------ install
    def install(self):
        modules = {name[len("qma."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("qma.")}
        modules["qma"] = sys.modules["qma"]
        for mod_name, fn_name, points in FUNCTIONS:
            original = getattr(modules[mod_name], fn_name)
            wrapped = self.span(f"{mod_name}.{fn_name}", original, points)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        for mod_name in ROOT_SOLVERS:
            mod = modules[mod_name]
            mod.brentq = self._root_solver(f"{mod_name}.root", mod.brentq)
        self._wrap_field_methods(modules["fields"].ScalarField)
        quadrature = modules["quadrature"]
        for rule in RULES:
            cls = getattr(quadrature, rule)
            cls.integrate = self._counting_integrate(cls.integrate,
                                                     rule == "BallQuadrature")

    def _root_solver(self, name, brentq):
        counted = self.span(name, brentq)

        def solve(f, a, b, *args, **kwargs):
            def g(x, *fargs):
                self.count(f"{name}.fevals")
                return f(x, *fargs)
            self.count(f"{name}.solves")
            return counted(g, a, b, *args, **kwargs)

        return solve

    def _wrap_field_methods(self, base):
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for method, points in FIELD_METHODS:
                if method in vars(cls):
                    setattr(cls, method, self.span(f"fields.{method}",
                                                   vars(cls)[method], points))

    def _counting_integrate(self, integrate, is_ball):
        def wrapper(rule, fn, *args, **kwargs):
            passed = [0]

            def counted(pts):
                passed[0] += len(pts)
                return fn(pts)

            try:
                return integrate(rule, counted, *args, **kwargs)
            finally:
                self.count("quadrature.integrand.pts", passed[0])
                if is_ball:
                    self.count("quadrature.ball.passed", passed[0])
                    self.count("quadrature.ball.nodes",
                               len(rule.t_nodes) * len(rule.dirs))

        return wrapper

    # ------------------------------------------------------------ export
    def export(self):
        spans = [{"name": name, "parent": parent, "calls": rec[0], "pts": rec[1],
                  "total_s": rec[2], "self_s": rec[2] - rec[3]}
                 for (name, parent), rec in sorted(self._spans.items(),
                                                   key=lambda kv: (kv[0][0], str(kv[0][1])))]
        return {"spans": spans, "counters": dict(sorted(self.counters.items()))}
