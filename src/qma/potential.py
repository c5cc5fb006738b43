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
error estimates.  Spherical and ellipsoidal level sets (quadratic phi) use
exact surface rules; generic smooth star-shaped phi falls back to a
co-area shell estimator.

Off the quadratic path, the surface and sublevel rules share one ray
engine over Sobol directions from a center: ``_ray_radii`` solves the
crossing radii of every (ray, level) pair in one batched Brent solve over
the brackets of ``quadrature.ray_brackets``, the bracket search and
tolerances that ``quadrature.StarShapedRule`` uses too, and
``_ray_panel_sums`` integrates along the rays on Gauss-Legendre panels,
handing the integrand node blocks of at most ``_BLOCK_NODES`` points.  The
co-area shell integrates f |grad phi| between the levels r - delta and
r + delta; the surface rule solves the levels of both of its shells at
once.  The sublevel rule integrates from the center out to the level t;
the layered term of the identity solves all of its levels at once and sums
the panels one level at a time.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DegenerateLevelSetError, DimensionError, QuadratureError
from .calculus import delta_matrices, nabla_matrices
from .fields import ChainField, QuadraticForm, ScalarField
from .monge_ampere import _to_real, ma_density, mixed_ma, mixed_pfaffian
from .quadrature import (RAY_TOL, BallQuadrature, EllipsoidRule, SphereRule, brentq,
                         gauss_legendre_panels, halving_estimate, ray_brackets,
                         sobol_sphere, sphere_area)

_GRAD_FLOOR = 1e-6
# most nodes per integrand call on the ray rules (bounds the kernels' batches)
_BLOCK_NODES = 1024


@dataclasses.dataclass
class NormalFrame:
    """Quaternionic frame components of a unit vector: entry (i, alpha) is
    the same linear combination of the vector's real components that the
    first-order operator (i, alpha) takes of a function's partials."""
    vector: np.ndarray
    components: np.ndarray  # (2n, 2) complex

    def __getitem__(self, key):
        i, alpha = key
        return self.components[i, alpha]


def normal_frame(phi, x):
    """Frame of the outward unit normal grad(phi)/|grad(phi)| at x."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(phi.gradient(x), dtype=float)
    norm = float(np.linalg.norm(g))
    if norm < _GRAD_FLOOR:
        raise DegenerateLevelSetError("vanishing gradient on the level set")
    unit = g / norm
    v0, v1 = nabla_matrices(phi.n)
    return NormalFrame(unit, np.stack([v0 @ unit, v1 @ unit], axis=1))


def boundary_measure_density(phi, pts, check_tol=1e-8):
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
    return _to_real(total, "boundary measure density", check_tol)


# ---------------------------------------------------------------------------
# surface and sublevel quadrature

@dataclasses.dataclass
class SurfaceResult:
    value: float
    error: float

    def __float__(self):
        return self.value


def _quadratic_geometry(phi):
    """(center, m_real, const) when phi is quadratic with positive definite
    part, else None."""
    if not isinstance(phi, QuadraticForm):
        return None
    m = np.asarray(phi.m_real, dtype=float)
    if np.linalg.eigvalsh(0.5 * (m + m.T)).min() <= 0:
        return None
    center = np.zeros(4 * phi.n) if phi.center is None else np.asarray(phi.center, dtype=float)
    return center, m, float(phi.const)


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


def surface_integral(phi, r, f=None, sphere_pow=10, seed=0, center=None,
                     radial_nodes=8):
    """integral of f over the level set {phi = r} with respect to surface
    measure.

    Quadratic phi with positive definite part gets the exact sphere or
    ellipsoid rule; otherwise a co-area shell estimate
    (1/2 delta) * integral_{r-delta < phi < r+delta} f |grad phi| dV,
    computed along Sobol rays from ``center`` at delta = |r|/100 (1/100
    for r = 0), with a delta-halving error estimate.  Returns SurfaceResult
    (float() gives the value).
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
        val, err = rule.integrate(fn)
        return SurfaceResult(val, err)

    center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
    delta = abs(r) * 1e-2 if r else 1e-2
    dirs = sobol_sphere(4 * n, sphere_pow, seed)
    # the coarse shell's two levels, then the fine shell's
    radii = _ray_radii(phi, (r - delta, r + delta, r - delta / 2, r + delta / 2),
                       center, dirs)
    coarse = _coarea_shell(phi, fn, delta, center, dirs, radii[:, 0], radii[:, 1],
                           radial_nodes)
    fine = _coarea_shell(phi, fn, delta / 2, center, dirs, radii[:, 2], radii[:, 3],
                         radial_nodes)
    return SurfaceResult(fine, abs(fine - coarse))


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


def _ray_panel_sums(fn, center, dirs, lo, hi, nodes, weight=None):
    """Per-ray Gauss-Legendre sums of fn (* weight) * rho^(d-1) over the
    panels [lo_i, hi_i] along the rays center + rho * dirs_i.

    fn and weight see the nodes in blocks of at most _BLOCK_NODES points.
    """
    if np.any(hi <= lo):
        raise QuadratureError("empty panel on a sample ray")
    d = dirs.shape[1]
    # the rule on [-1, 1], mapped to each panel as gauss_legendre_panels does
    x, w = gauss_legendre_panels([-1.0, 1.0], nodes)
    half = (0.5 * (hi - lo))[:, None]
    rho = (0.5 * (lo + hi))[:, None] + half * x
    w = (half * w).ravel()
    pts = (center + rho[:, :, None] * dirs[:, None, :]).reshape(-1, d)
    rho_pow = rho.ravel() ** (d - 1)
    terms = np.empty(len(pts))
    for s in range(0, len(pts), _BLOCK_NODES):
        block = slice(s, s + _BLOCK_NODES)
        vals = w[block] * np.asarray(fn(pts[block]), dtype=float)
        if weight is not None:
            vals = vals * weight(pts[block])
        terms[block] = vals * rho_pow[block]
    return terms.reshape(rho.shape).sum(axis=1)


def _coarea_shell(phi, fn, delta, center, dirs, lo, hi, radial_nodes):
    """The co-area shell estimate between the ray radii lo and hi of the
    levels r - delta and r + delta."""
    gnorm = lambda pts: np.linalg.norm(phi.gradients(pts), axis=1)
    sums = _ray_panel_sums(fn, center, dirs, lo, hi, radial_nodes, gnorm)
    w_dir = sphere_area(phi.n) / len(dirs)
    total = 0.0
    for s in sums.tolist():   # a sequential float sum, ray by ray
        total += w_dir * s
    return total / (2 * delta)


def sublevel_integral(phi, t, fn, center=None, sphere_pow=9, radial_nodes=12,
                      seed=0):
    """integral of fn over the sublevel set {phi < t} (value, error)."""
    center = np.zeros(4 * phi.n) if center is None else np.asarray(center, dtype=float)
    return _sublevel_integrals(phi, (t,), fn, center, sphere_pow, radial_nodes, seed)[0]


def _sublevel_integrals(phi, levels, fn, center, sphere_pow, radial_nodes, seed):
    """(value, error) of the integral of fn over {phi < t} for each level t.

    A round quadratic phi takes one BallQuadrature per level.  Any other
    phi takes the ray rule: one Sobol direction set and one ``_ray_radii``
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
    dirs = sobol_sphere(4 * phi.n, sphere_pow, seed)
    edges = _ray_radii(phi, [levels[k] for k in solved], center, dirs)
    weights = np.full(len(dirs), sphere_area(phi.n) / len(dirs))
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
    residual_cross: float
    errors: dict

    def finite(self):
        vals = [self.boundary_term, self.interior_term, self.lhs,
                self.rhs_spatial, self.rhs_layered]
        return all(math.isfinite(v) for v in vals)


def lelong_jensen(phi, v, r, t_nodes=48, sphere_pow=9, radial_nodes=12,
                  seed=0, center=None):
    """Evaluate the Lelong-Jensen identity for exhaustion phi and potential
    v at level r; returns a JensenReport."""
    n = phi.n
    if v.n != n:
        raise DimensionError("phi and V live on different spaces")
    center = (np.zeros(4 * n) if center is None else np.asarray(center, dtype=float))

    dens_fn = lambda pts: boundary_measure_density(phi, pts) * v.values(pts)
    mu_v = surface_integral(phi, r, dens_fn, sphere_pow=sphere_pow + 1,
                            seed=seed, center=center)

    ma_fn = lambda pts: ma_density(phi, pts) * v.values(pts)
    interior, interior_err = sublevel_integral(
        phi, r, ma_fn, center, sphere_pow, radial_nodes, seed)
    lhs = mu_v.value - interior

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
        boundary_term=mu_v.value,
        interior_term=interior,
        lhs=lhs,
        rhs_spatial=rhs_spatial,
        rhs_layered=rhs_layered,
        residual_spatial=abs(lhs - rhs_spatial),
        residual_layered=abs(lhs - rhs_layered),
        residual_cross=abs(rhs_spatial - rhs_layered),
        errors={
            "boundary": mu_v.error,
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
    mu1 = surface_integral(phi, r, lambda pts: boundary_measure_density(phi, pts),
                           sphere_pow=sphere_pow + 1, seed=seed, center=center)
    total, err = sublevel_integral(phi, r, lambda pts: ma_density(phi, pts),
                                   center, sphere_pow, radial_nodes, seed)
    return abs(mu1.value - total), mu1.value, total


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
