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
error estimates.  Each geometry has one rule on its level set and one
inside it, from the a of ``quadrature.exhaustion_center``, the minimum of
a Polynomial phi: a quadratic phi with round level sets takes the sphere
rule and ``BallQuadrature``, one with ellipsoidal level sets the ellipsoid
rule and ``BallQuadrature`` pulled through y -> a + B y
(``quadrature.ellipsoid_map``), and any other phi, star-shaped around a,
``quadrature.StarShapedRule`` and the ray rule: ``_ray_radii`` solves every
(ray, level) crossing in one batched Brent solve over the brackets of
``quadrature.ray_brackets``, and ``_ray_panel_sums`` integrates along the
rays on Gauss-Legendre panels, in the node blocks of
``quadrature.block_values``.  The layered term solves all its levels at once.
A density of fields whose delta matrices are the same everywhere is
evaluated once and integrated as a ``quadrature.Constant``
(``calculus.hoisted``).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateLevelSetError, DimensionError, QuadratureError
from .calculus import delta_matrices, hoisted, nabla_matrices
from .fields import ChainField
from .monge_ampere import _to_real, ma_density, mixed_ma, mixed_pfaffian
from .quadrature import (RAY_TOL, BallQuadrature, Constant, EllipsoidRule,
                         SphereRule, StarShapedRule, block_values, brentq,
                         ellipsoid_map, exhaustion_center, gauss_legendre_panels,
                         halving_estimate, ray_brackets, sphere_rule)

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

def _round(m):
    """Whether the matrix of a quadratic phi is a multiple of the identity,
    so its level sets are round spheres: every entry within 1e-14 M[0, 0],
    with no relative slack, which would pass |q|^2 + 1e-5 x1^2."""
    return np.allclose(m, m[0, 0] * np.eye(len(m)), rtol=0, atol=1e-14 * abs(m[0, 0]))


def surface_integral(phi, r, fn, sphere_pow=10, seed=0):
    """integral of fn over the level set {phi = r} with respect to surface
    measure.

    Around the a of ``quadrature.exhaustion_center``, a quadratic phi gets
    the exact sphere or ellipsoid rule, and any other phi ``StarShapedRule``:
    the crossing radius of each Sobol ray and the area element rho^(d-1)
    |grad phi| / <grad phi, theta>.  Each rule's error estimate halves its
    direction set.  Returns (value, error).
    """
    a, t_min, m = exhaustion_center(phi)
    if m is None:
        rule = StarShapedRule(phi, r, sphere_pow=sphere_pow, seed=seed)
    elif not r > t_min:
        raise DegenerateLevelSetError("empty level set")
    elif _round(m):
        rule = SphereRule(phi.n, math.sqrt((r - t_min) / m[0, 0]), a,
                          sphere_pow=sphere_pow, seed=seed)
    else:
        rule = EllipsoidRule(m, a, r - t_min, sphere_pow=sphere_pow, seed=seed)
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


def _ray_panel_sums(fn, center, dirs, edges, nodes):
    """Per-ray Gauss-Legendre sums of fn * rho^(d-1) over the panels
    [0, edges_i] along the rays center + rho * dirs_i.

    Node k is panel node k % nodes on ray k // nodes; fn sees the nodes in
    the blocks of ``quadrature.block_values``.
    """
    if np.any(edges <= 0):
        raise QuadratureError("empty panel on a sample ray")
    d = dirs.shape[1]
    # the rule on [-1, 1], mapped to each panel as gauss_legendre_panels does
    x, w = gauss_legendre_panels([-1.0, 1.0], nodes)
    half = (0.5 * edges)[:, None]
    rho = (half + half * x).ravel()
    w = (half * w).ravel()

    def build(start, stop):
        first = start // nodes
        ray_dirs = np.repeat(dirs[first:(stop - 1) // nodes + 1], nodes, axis=0)
        pts = ray_dirs[start - first * nodes:stop - first * nodes]
        pts *= rho[start:stop, None]
        pts += center
        return pts

    terms = w * block_values(fn, len(rho), build) * rho ** (d - 1)
    return terms.reshape(len(dirs), nodes).sum(axis=1)


def sublevel_integral(phi, t, fn, sphere_pow=9, radial_nodes=12, seed=0):
    """integral of fn over the sublevel set {phi < t} (value, error)."""
    return _sublevel_integrals(phi, (t,), fn, sphere_pow, radial_nodes, seed)[0]


def _sublevel_integrals(phi, levels, fn, sphere_pow, radial_nodes, seed):
    """(value, error) of the integral of fn over {phi < t} for each level t.

    Every rule starts from the a of ``quadrature.exhaustion_center``, and a
    level t <= phi(a) gives (0.0, 0.0).  A quadratic phi = (x - a)^T M
    (x - a) + phi(a) takes one BallQuadrature per level: around a, of radius
    sqrt((t - phi(a)) / m), when M = m I, and else of radius
    sqrt(t - phi(a)), fn pulled back through y -> a + B y (a Constant
    kept as it is) and the result times det B.  Any other phi takes the ray
    rule from a: one ``_ray_radii`` solve for all levels, then the panel
    sums level by level."""
    a, t_min, m = exhaustion_center(phi)
    out = [(0.0, 0.0)] * len(levels)
    solved = [k for k, t in enumerate(levels) if not t_min >= t]
    if not solved:
        return out
    if m is None:
        dirs, weights = sphere_rule(4 * phi.n, sphere_pow, seed)
        edges = _ray_radii(phi, [levels[k] for k in solved], a, dirs)
        for k, edge in zip(solved, edges.T):
            out[k] = halving_estimate(_ray_panel_sums(fn, a, dirs, edge, radial_nodes),
                                      weights)
        return out
    if _round(m):
        scale, center, integrand, det_b = m[0, 0], a, fn, 1.0
    else:
        b, _, det_b = ellipsoid_map(m)
        # a Constant passes through as it is, for block_values to fill;
        # any other fn sees its nodes mapped by a plain einsum, as
        # LinearSubstitution maps its points: no node's image depends on
        # the rest of its block
        scale, center = 1.0, None
        integrand = fn if isinstance(fn, Constant) else (
            lambda y: fn(np.einsum("ij,bj->bi", b, y) + a))
    for k in solved:
        val, err = BallQuadrature(phi.n, math.sqrt((levels[k] - t_min) / scale),
                                  center=center, sphere_pow=sphere_pow,
                                  radial_nodes=radial_nodes, seed=seed).integrate(integrand)
        out[k] = (val * det_b, err * det_b)
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


def _mass_terms(phi, r, weight, sphere_pow, radial_nodes, seed):
    """((value, error) of mu_{phi,r}(V), (value, error) of
    integral_{B_phi(r)} V (laplace phi)^n), V given by ``weight(pts)``, a
    callable or a ``Constant``; (laplace phi)^n goes through ``hoisted``."""
    boundary = surface_integral(
        phi, r, lambda pts: boundary_measure_density(phi, pts) * weight(pts),
        sphere_pow=sphere_pow + 1, seed=seed)
    ma = hoisted([phi], lambda pts: ma_density(phi, pts))
    if isinstance(ma, Constant) and isinstance(weight, Constant):
        density = Constant(ma.value * weight.value)
    else:
        density = lambda pts: ma(pts) * weight(pts)
    interior = sublevel_integral(phi, r, density, sphere_pow, radial_nodes, seed)
    return boundary, interior


def lelong_jensen(phi, v, r, t_nodes=48, sphere_pow=9, radial_nodes=12, seed=0):
    """Evaluate the Lelong-Jensen identity for exhaustion phi and potential
    v at level r; returns a JensenReport.

    The layered term integrates the levels from phi(a), at the minimum a of
    ``quadrature.exhaustion_center``, up to r."""
    n = phi.n
    if v.n != n:
        raise DimensionError("phi and V live on different spaces")

    (mu_v, mu_err), (interior, interior_err) = _mass_terms(
        phi, r, v.values, sphere_pow, radial_nodes, seed)
    lhs = mu_v - interior

    mixed_fields = [v] + [phi] * (n - 1)
    mixed_fn = hoisted(mixed_fields, lambda pts: mixed_ma(mixed_fields, pts))
    spatial_fn = lambda pts: (r - phi.values(pts)) * mixed_fn(pts)
    rhs_spatial, spatial_err = sublevel_integral(
        phi, r, spatial_fn, sphere_pow, radial_nodes, seed)

    _, t_min, _ = exhaustion_center(phi)
    if t_min >= r:
        rhs_layered, layered_err = 0.0, 0.0
    else:
        ts, ws = gauss_legendre_panels([t_min, r], t_nodes)
        layers = _sublevel_integrals(phi, ts, mixed_fn, sphere_pow - 1,
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


def boundary_mass_residual(phi, r, sphere_pow=9, radial_nodes=12, seed=0):
    """|mu_{phi,r}(1) - integral_{B_phi(r)} (laplace phi)^n|, mu_{phi,r}(1)
    and the integral: the total boundary mass both ways, the boundary and
    interior terms of ``lelong_jensen`` at V = 1 bit for bit (x * 1.0 = x)."""
    (mu1, _), (total, _) = _mass_terms(phi, r, Constant(1.0), sphere_pow,
                                       radial_nodes, seed)
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
