"""Sublevel geometry of PSH exhaustions: boundary measures and the
Lelong-Jensen identity.

For a smooth exhaustion ``phi`` with regular level set S_phi(r) = {phi = r},
the associated boundary measure concentrates on the level set with an
explicit surface density built from the quaternionic normal frame of the
outward unit normal, the first-order operators applied to phi, and the
second-order delta matrices:

    density = 2^(n-1) (n-1)! * sum_{i != j} sum_{matchings of the rest}
              sign * n_{i0} * (grad_{j1} phi) * prod delta_{ab} phi,

which is half the top-form density of laplace(phi)^(n-1) wedged with the
2-form of the antisymmetric matrix n_0 g_1^T - g_1 n_0^T (g_1 the
grad_{j1} phi column), so it is evaluated by the same matching expansion
as every other top-degree density.

The Lelong-Jensen identity ties three quantities together:

    mu_{phi,r}(V) - integral_{B_phi(r)} V (laplace phi)^n
        = integral_{B_phi(r)} (r - phi) laplace(V) ^ (laplace phi)^(n-1)
        = integral_{-inf}^{r} dt integral_{B_phi(t)} laplace(V) ^ (laplace phi)^(n-1)

and ``lelong_jensen`` evaluates all three with residuals and quadrature
error estimates.  The boundary measure is a surface integral over the level
set, with one rule per geometry: spherical and ellipsoidal level sets
(phi a Polynomial of degree <= 2) use the exact sphere and ellipsoid rules,
and any other level set, star-shaped around a center, uses
``quadrature.StarShapedRule``.

Off the quadratic path, the sublevel rule runs on a ray engine from a
center, over the directions and weights of ``quadrature.sphere_rule``, the
one place every rule takes its direction set from: ``_ray_radii`` solves
the crossing radii of every (ray, level) pair in one batched Brent solve
over the brackets of ``quadrature.ray_brackets``, the bracket search and
tolerances that ``StarShapedRule`` uses too, and ``_ray_panel_sums``
integrates from the center out to each level on Gauss-Legendre panels,
handing the integrand the node blocks of ``quadrature.block_values``, as
``BallQuadrature`` does.  The layered term of the identity solves all of
its levels at once and sums the panels one level at a time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateLevelSetError, DimensionError, QuadratureError
from .calculus import delta_matrices, nabla_matrices
from .fields import ChainField, Polynomial, ScalarField
from .monge_ampere import _to_real, ma_density, mixed_ma, mixed_pfaffian
from .quadrature import (RAY_TOL, BallQuadrature, EllipsoidRule, SphereRule,
                         StarShapedRule, block_values, brentq,
                         gauss_legendre_panels, halving_estimate, ray_brackets,
                         sphere_rule)

_GRAD_FLOOR = 1e-6


def boundary_measure_density(phi, pts):
    """Surface density of the boundary measure of phi at on-level points."""
    n = phi.n
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    grads = phi.gradients(pts)
    norms = np.linalg.norm(grads, axis=1)
    if norms.min() < _GRAD_FLOOR:
        raise DegenerateLevelSetError("vanishing gradient on the level set")
    v0, v1 = nabla_matrices(n)
    n0 = (grads / norms[:, None]) @ v0.T          # n_{i0}
    g1 = grads @ v1.T                             # grad_{j1} phi
    # sum_{i != j} n_{i0} grad_{j1} phi pairs i with j like the 2-form of
    # the antisymmetric A = n0 g1^T - g1 n0^T: half the wedge density of
    # [A] + [D] * (n - 1)
    a = n0[:, :, None] * g1[:, None, :] - g1[:, :, None] * n0[:, None, :]
    dmat = delta_matrices(phi, pts)
    total = (2.0 ** (n - 1)) * mixed_pfaffian(n, [a] + [dmat] * (n - 1))
    return _to_real(total, "boundary measure density")


# ---------------------------------------------------------------------------
# surface and sublevel quadrature

def _quadratic_geometry(phi):
    """(center, M, const) with phi = (x - center)^T M (x - center) + const
    when phi is a Polynomial of degree <= 2 with M positive definite, else
    None.  M is half the Hessian at 0, exact at degree <= 2, where every
    second partial is a constant of the ``Polynomial._plan`` template; the
    center solves -2 M center = grad phi(0) and const is phi(center)."""
    if not isinstance(phi, Polynomial) or phi.degree() > 2:
        return None
    zero = np.zeros(phi.dim)
    m = 0.5 * phi.hessian(zero)
    if np.linalg.eigvalsh(m).min() <= 0:
        return None
    center = np.linalg.solve(-2.0 * m, phi.gradient(zero))
    return center, m, float(phi.value(center))


def _round(m):
    """Whether the matrix of a quadratic phi is a multiple of the identity,
    so its level sets are round spheres."""
    return np.allclose(m, m[0, 0] * np.eye(len(m)), atol=1e-14 * abs(m[0, 0]))


def _as_callable(f, n):
    if f is None:
        return lambda pts: np.ones(len(pts))
    if isinstance(f, ScalarField):
        return f.values
    return f


def surface_integral(phi, r, f=None, sphere_pow=10, seed=0, center=None):
    """integral of f over the level set {phi = r} with respect to surface
    measure.

    Quadratic phi with positive definite part gets the exact sphere or
    ellipsoid rule; any other phi gets ``StarShapedRule`` around ``center``:
    the crossing radius of each Sobol ray and the area element
    rho^(d-1) |grad phi| / <grad phi, theta>.  Each rule's error estimate
    halves its direction set.  Returns (value, error).
    """
    n = phi.n
    fn = _as_callable(f, n)
    geom = _quadratic_geometry(phi)
    if geom is not None:
        a, m, const = geom
        level = r - const
        if level <= 0:
            raise DegenerateLevelSetError("empty level set")
        if _round(m):
            rule = SphereRule(n, math.sqrt(level / m[0, 0]), a,
                              sphere_pow=sphere_pow, seed=seed)
        else:
            rule = EllipsoidRule(m, a, level, sphere_pow=sphere_pow, seed=seed)
    else:
        rule = StarShapedRule(phi, r, center=center, sphere_pow=sphere_pow, seed=seed)
    return rule.integrate(fn)


def _ray_radii(phi, levels, center, dirs):
    """(rays, len(levels)) radii where the rays center + rho * theta cross
    the level sets {phi = level}: one batched ``brentq`` over the brackets
    of ``quadrature.ray_brackets``, whose docstring states the bracketing,
    the bits and the errors."""
    g, lo, hi, glo, ghi = ray_brackets(phi, levels, center, dirs)
    # the solve stays here, on this module's own brentq: perfbench counts
    # each module's brentq apart (potential.root here, quadrature.root for
    # StarShapedRule)
    radii = brentq(g, lo, hi, xtol=RAY_TOL, rtol=RAY_TOL, fa=glo, fb=ghi)
    return radii.reshape(len(dirs), len(levels))


def _ray_panel_sums(fn, center, dirs, lo, hi, nodes):
    """Per-ray Gauss-Legendre sums of fn * rho^(d-1) over the panels
    [lo_i, hi_i] along the rays center + rho * dirs_i.

    Node k is panel node k % nodes on ray k // nodes; fn sees the nodes in
    the blocks of ``quadrature.block_values``.
    """
    if np.any(hi <= lo):
        raise QuadratureError("empty panel on a sample ray")
    d = dirs.shape[1]
    # the rule on [-1, 1], mapped to each panel as gauss_legendre_panels does
    x, w = gauss_legendre_panels([-1.0, 1.0], nodes)
    half = (0.5 * (hi - lo))[:, None]
    rho = ((0.5 * (lo + hi))[:, None] + half * x).ravel()
    w = (half * w).ravel()

    def build(start, stop):
        first = start // nodes
        ray_dirs = np.repeat(dirs[first:(stop - 1) // nodes + 1], nodes, axis=0)
        return center + rho[start:stop, None] * ray_dirs[start - first * nodes:stop - first * nodes]

    terms = w * block_values(fn, len(rho), build) * rho ** (d - 1)
    return terms.reshape(len(dirs), nodes).sum(axis=1)


def sublevel_integral(phi, t, fn, center=None, sphere_pow=9, radial_nodes=12,
                      seed=0):
    """integral of fn over the sublevel set {phi < t} (value, error)."""
    center = np.zeros(4 * phi.n) if center is None else np.asarray(center, dtype=float)
    return _sublevel_integrals(phi, (t,), fn, center, sphere_pow, radial_nodes, seed)[0]


def _sublevel_integrals(phi, levels, fn, center, sphere_pow, radial_nodes, seed):
    """(value, error) of the integral of fn over {phi < t} for each level t.

    A round quadratic phi takes one BallQuadrature per level.  Any other
    phi takes the ray rule: one ``sphere_rule`` set and one ``_ray_radii``
    solve for all levels, then the panel sums one level at a time.  A level
    at or below the minimum of phi (on the ray rule, phi at the center)
    gives (0.0, 0.0)."""
    geom = _quadratic_geometry(phi)
    if geom is not None and _round(geom[1]):
        a, m, const = geom
        out = []
        for t in levels:
            level = t - const
            if level <= 0:
                out.append((0.0, 0.0))
                continue
            quad = BallQuadrature(phi.n, math.sqrt(level / m[0, 0]), center=a,
                                  sphere_pow=sphere_pow, radial_nodes=radial_nodes,
                                  seed=seed)
            out.append(quad.integrate(fn))
        return out
    # phi at the center is evaluated as _ray_radii evaluates it
    t_center = phi.values(center[None])[0]
    out = [(0.0, 0.0)] * len(levels)
    solved = [k for k, t in enumerate(levels) if not t_center >= t]
    if not solved:
        return out
    dirs, weights = sphere_rule(4 * phi.n, sphere_pow, seed)
    edges = _ray_radii(phi, [levels[k] for k in solved], center, dirs)
    for k, edge in zip(solved, edges.T):
        contrib = _ray_panel_sums(fn, center, dirs, np.zeros(len(dirs)), edge,
                                  radial_nodes)
        out[k] = halving_estimate(contrib, weights)
    return out


# ---------------------------------------------------------------------------
# Lelong-Jensen

@dataclasses.dataclass
class JensenReport:
    """All three expressions of the Lelong-Jensen identity plus residuals."""
    boundary_term: float          # mu_{phi,r}(V)
    interior_term: float          # integral_B V (laplace phi)^n
    lhs: float                    # boundary_term - interior_term
    rhs_spatial: float            # integral_B (r - phi) laplace V ^ (laplace phi)^(n-1)
    rhs_layered: float            # integral dt integral_{B_t} ...
    residual_spatial: float
    residual_layered: float
    errors: dict


def lelong_jensen(phi, v, r, t_nodes=48, sphere_pow=9, radial_nodes=12,
                  seed=0, center=None):
    """Evaluate the Lelong-Jensen identity for exhaustion phi and potential
    v at level r; returns a JensenReport.

    The layered term integrates the levels from phi(center) up to r, and
    the ray rules start at center.  It defaults to the center of a
    quadratic phi, its minimum, and to 0 otherwise."""
    n = phi.n
    if v.n != n:
        raise DimensionError("phi and V live on different spaces")
    if center is None:
        geom = _quadratic_geometry(phi)
        center = np.zeros(4 * n) if geom is None else geom[0]
    center = np.asarray(center, dtype=float)

    dens_fn = lambda pts: boundary_measure_density(phi, pts) * v.values(pts)
    mu_v, mu_err = surface_integral(phi, r, dens_fn, sphere_pow=sphere_pow + 1,
                                    seed=seed, center=center)

    ma_fn = lambda pts: ma_density(phi, pts) * v.values(pts)
    interior, interior_err = sublevel_integral(
        phi, r, ma_fn, center, sphere_pow, radial_nodes, seed)
    lhs = mu_v - interior

    mixed_fields = [v] + [phi] * (n - 1)
    mixed_fn = lambda pts: mixed_ma(mixed_fields, pts)
    spatial_fn = lambda pts: (r - phi.values(pts)) * mixed_fn(pts)
    rhs_spatial, spatial_err = sublevel_integral(
        phi, r, spatial_fn, center, sphere_pow, radial_nodes, seed)

    t_min = float(phi.value(center))
    if t_min >= r:
        rhs_layered, layered_err = 0.0, 0.0
    else:
        ts, ws = gauss_legendre_panels([t_min, r], t_nodes)
        layers = _sublevel_integrals(phi, ts, mixed_fn, center, sphere_pow - 1,
                                     radial_nodes, seed)
        rhs_layered = 0.0
        layered_err = 0.0
        for (val, err), w in zip(layers, ws):
            rhs_layered += w * val
            layered_err += w * err

    return JensenReport(
        boundary_term=mu_v,
        interior_term=interior,
        lhs=lhs,
        rhs_spatial=rhs_spatial,
        rhs_layered=rhs_layered,
        residual_spatial=abs(lhs - rhs_spatial),
        residual_layered=abs(lhs - rhs_layered),
        errors={
            "boundary": mu_err,
            "interior": interior_err,
            "spatial": spatial_err,
            "layered": layered_err,
        },
    )


def boundary_mass_residual(phi, r, sphere_pow=9, radial_nodes=12, seed=0,
                           center=None):
    """|mu_{phi,r}(1) - integral_{B_phi(r)} (laplace phi)^n| (the V = 1
    instance of the identity; both sides are the total boundary mass)."""
    n = phi.n
    center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
    mu1, _ = surface_integral(phi, r, lambda pts: boundary_measure_density(phi, pts),
                              sphere_pow=sphere_pow + 1, seed=seed, center=center)
    total, err = sublevel_integral(phi, r, lambda pts: ma_density(phi, pts),
                                   center, sphere_pow, radial_nodes, seed)
    return abs(mu1 - total), mu1, total


# ---------------------------------------------------------------------------
# smooth max family

def smooth_max_family(phi, r, l):
    """chi_l(phi) for the C^2 convex ramp chi_l: equals r below r - 1/l,
    the identity above r + 1/l, and a monotone convex cubic-quartic blend
    in between (0 <= chi' <= 1, chi'' >= 0); decreases pointwise in l."""
    if l < 1:
        raise ValueError("the family index must be >= 1")
    a = r - 1.0 / l
    w = 2.0 / l

    def blend(y):
        return y ** 3 - 0.5 * y ** 4

    def f(t):
        t = np.asarray(t, dtype=float)
        y = np.clip((t - a) / w, 0.0, 1.0)
        return np.where(t <= a, r, np.where(t >= a + w, t, r + w * blend(y)))

    def d1(t):
        t = np.asarray(t, dtype=float)
        y = np.clip((t - a) / w, 0.0, 1.0)
        return np.where((t <= a) | (t >= a + w), np.where(t >= a + w, 1.0, 0.0),
                        3 * y ** 2 - 2 * y ** 3)

    def d2(t):
        t = np.asarray(t, dtype=float)
        y = np.clip((t - a) / w, 0.0, 1.0)
        return np.where((t <= a) | (t >= a + w), 0.0, (6 * y - 6 * y ** 2) / w)

    return ChainField(phi, f, d1, d2, name=f"smooth_max(r={r}, l={l})")
