"""Integration rules on balls, spheres and level sets in R^(4n).

Three tiers, from exact to sampled:

1. **Exact moments.**  Monomial integrals over centered balls and spheres
   are rational multiples of pi^(2n); polynomials with rational data
   integrate exactly (Fractions all the way).
2. **Radial rules.**  Radially symmetric integrands reduce to a 1-D
   integral; after the substitution t = rho^2 the weight becomes
   t^(2n-1)/2, handled by Gauss-Legendre panels that are geometrically
   graded toward 0 when the integrand has a sharp eps-scale peak there.
3. **Product rules.**  Generic integrands use radial panels crossed with
   low-discrepancy (scrambled Sobol) directions on the sphere; surface
   rules for spheres, ellipsoids (exact level sets of quadratic forms) and
   star-shaped level sets of general fields.  Error estimates come from
   halving the direction set (prefixes of a Sobol sequence at powers of two
   are again balanced node sets).

Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc
from scipy.optimize import brentq

from .errors import DegenerateLevelSetError, DimensionError, QuadratureError
from .fields import Polynomial

# most nodes per integrand call of BallQuadrature (bounds its memory use)
_BALL_CHUNK_NODES = 65536

# ---------------------------------------------------------------------------
# tier 1: exact moments


def sphere_moment_coefficient(d, alpha):
    """Unit-sphere monomial moment as the coefficient of pi^(d/2).

    integral_{S^(d-1)} x^alpha dS = coeff * pi^(d/2); zero unless every
    exponent is even.  d must be even (here d = 4n).
    """
    if d % 2:
        raise DimensionError("only even ambient dimensions are supported")
    if len(alpha) != d:
        raise DimensionError("exponent tuple has wrong length")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    prod = Fraction(1)
    for a in alpha:
        k = a // 2
        prod *= Fraction(math.factorial(2 * k), 4 ** k * math.factorial(k))
    m = (sum(alpha) + d) // 2
    return 2 * prod / math.factorial(m - 1)


def ball_moment_coefficient(d, alpha, r=Fraction(1)):
    """Ball monomial moment over B(0, r) as the coefficient of pi^(d/2)."""
    r = Fraction(r)
    s = sum(alpha) + d
    return sphere_moment_coefficient(d, alpha) * r ** s / s


def translate_polynomial(poly, center):
    """p(x + c) as a new polynomial (exact when c is rational)."""
    center = [Fraction(c) if not isinstance(c, float) else c for c in center]
    out = Polynomial(poly.n)
    for expo, coeff in poly.terms.items():
        term = Polynomial.constant(poly.n, coeff)
        for m, e in enumerate(expo):
            if e:
                base = Polynomial.coordinate(poly.n, m) + Polynomial.constant(poly.n, center[m])
                term = term * base ** e
        out = out + term
    return out


def integrate_polynomial_ball(poly, r=Fraction(1), center=None):
    """Exact integral of a polynomial over B(center, r): coefficient of pi^(2n)."""
    if center is not None and any(center):
        poly = translate_polynomial(poly, center)
    d = poly.dim
    acc = Fraction(0)
    for expo, coeff in poly.terms.items():
        c = ball_moment_coefficient(d, expo, r)
        if c:
            acc += Fraction(coeff) * c
    return acc


def integrate_polynomial_sphere(poly, r=Fraction(1), center=None):
    """Exact integral over the sphere of radius r: coefficient of pi^(2n)."""
    if center is not None and any(center):
        poly = translate_polynomial(poly, center)
    d = poly.dim
    r = Fraction(r)
    acc = Fraction(0)
    for expo, coeff in poly.terms.items():
        c = sphere_moment_coefficient(d, expo)
        if c:
            acc += Fraction(coeff) * c * r ** (sum(expo) + d - 1)
    return acc


# ---------------------------------------------------------------------------
# tier 2: radial rules

def gauss_legendre_panels(breaks, nodes_per_panel):
    """Gauss-Legendre nodes/weights on a sequence of panels."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        xs.append(0.5 * (a + b) + half * base_x)
        ws.append(half * base_w)
    if not xs:
        raise QuadratureError("empty panel sequence")
    return np.concatenate(xs), np.concatenate(ws)


def graded_breaks(upper, scale=None, coarse_panels=4):
    """Panel breakpoints on [0, upper], geometrically refined toward 0 when
    a peak scale is given (doubling from `scale` up)."""
    if upper <= 0:
        raise QuadratureError("upper limit must be positive")
    if scale is None or scale >= upper:
        step = upper / coarse_panels
        return [step * k for k in range(coarse_panels + 1)]
    breaks = [0.0, float(scale)]
    while breaks[-1] < upper:
        breaks.append(min(2.0 * breaks[-1], upper))
    return breaks


def sphere_area(n):
    """Surface area of the unit sphere in R^(4n)."""
    return 2.0 * math.pi ** (2 * n) / math.factorial(2 * n - 1)


def halving_estimate(contrib, weights):
    """(full, |full - half|) for a rule with per-direction contributions.

    full = sum_i weights_i * contrib_i; half is the same sum over the
    leading half of the directions, rescaled by total weight over prefix
    weight (prefixes of a Sobol sequence at powers of two are again
    balanced node sets).
    """
    contrib = np.asarray(contrib, dtype=float)
    weights = np.asarray(weights, dtype=float)
    nh = len(contrib) // 2
    full = float(contrib @ weights)
    half = float(contrib[:nh] @ weights[:nh]) * (weights.sum() / weights[:nh].sum())
    return full, abs(full - half)


def radial_ball_integral(n, fn_rho, r, peak_scale=None, nodes=32):
    """Integral over B(0, r) of a radial function fn_rho(rho) (vectorized).

    peak_scale flags an integrand concentrated at rho ~ sqrt(peak_scale)
    (e.g. the regularized fundamental density with eps = peak_scale), which
    grades the t = rho^2 panels toward zero.
    """
    t, w = gauss_legendre_panels(graded_breaks(float(r) ** 2, peak_scale), nodes)
    rho = np.sqrt(t)
    vals = np.asarray(fn_rho(rho), dtype=float)
    return sphere_area(n) * 0.5 * float(np.sum(w * t ** (2 * n - 1) * vals))


# ---------------------------------------------------------------------------
# tier 3: product rules

def sobol_sphere(d, m_pow, seed=0, antithetic=False):
    """2^m_pow quasi-random directions on S^(d-1) (scrambled Sobol through
    the Gaussian map; deterministic in the seed).

    With ``antithetic``, half that many Sobol directions are interleaved
    with their negatives (theta_0, -theta_0, theta_1, ...): every
    even-length prefix is exactly centrally symmetric, so odd integrands
    cancel to machine precision while prefix-halving error estimates stay
    meaningful.
    """
    if antithetic:
        if m_pow < 1:
            raise ValueError("antithetic rules need at least two points")
        base = sobol_sphere(d, m_pow - 1, seed)
        out = np.empty((2 * len(base), d))
        out[0::2] = base
        out[1::2] = -base
        return out
    eng = qmc.Sobol(d, scramble=True, seed=seed)
    u = eng.random_base2(m_pow)
    # keep strictly inside (0,1) for ndtri
    u = np.clip(u, 1e-12, 1 - 1e-12)
    g = ndtri(u)
    norms = np.linalg.norm(g, axis=1)
    # a Gaussian draw of norm ~0 is measure-zero; clip for safety
    norms = np.where(norms < 1e-12, 1.0, norms)
    return g / norms[:, None]


class BallQuadrature:
    """Product rule (graded radial panels x Sobol directions) on a ball.

    ``integrate(fn)`` evaluates fn on (N, 4n) node blocks and returns
    (value, error_estimate); the estimate compares the full direction set
    against its leading half.  Memory use is bounded by
    ``_BALL_CHUNK_NODES`` nodes per call.  Directions are antithetic.
    """

    def __init__(self, n, radius, center=None, peak_scale=None,
                 sphere_pow=9, radial_nodes=16, seed=0):
        self.n = n
        self.radius = float(radius)
        self.center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
        self.dirs = sobol_sphere(4 * n, sphere_pow, seed, antithetic=True)
        self.t_nodes, self.t_weights = gauss_legendre_panels(
            graded_breaks(self.radius ** 2, peak_scale), radial_nodes)

    def integrate(self, fn):
        n_dirs = len(self.dirs)
        per_dir = np.zeros(n_dirs)
        rows_per_block = max(1, _BALL_CHUNK_NODES // n_dirs)
        tw = self.t_weights * self.t_nodes ** (2 * self.n - 1)
        for start in range(0, len(self.t_nodes), rows_per_block):
            t = self.t_nodes[start:start + rows_per_block]
            rho = np.sqrt(t)
            pts = (self.center[None, None, :]
                   + rho[:, None, None] * self.dirs[None, :, :]).reshape(-1, 4 * self.n)
            vals = np.asarray(fn(pts), dtype=float).reshape(len(t), n_dirs)
            per_dir += tw[start:start + rows_per_block] @ vals
        weights = np.full(n_dirs, sphere_area(self.n) * 0.5 / n_dirs)
        return halving_estimate(per_dir, weights)


class SphereRule:
    """Equal-weight antithetic Sobol rule on a round sphere; exposes outward
    normals."""

    def __init__(self, n, radius, center=None, sphere_pow=10, seed=0):
        self.n = n
        self.radius = float(radius)
        self.center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
        self.normals = sobol_sphere(4 * n, sphere_pow, seed, antithetic=True)
        self.points = self.center[None, :] + self.radius * self.normals
        area = sphere_area(n) * self.radius ** (4 * n - 1)
        self.weights = np.full(len(self.points), area / len(self.points))

    def integrate(self, fn):
        return halving_estimate(fn(self.points), self.weights)


class EllipsoidRule:
    """Surface rule for a level set {(x-a)^T M (x-a) = level} of a
    positive quadratic form (exact geometry, antithetic Sobol directions).

    Node weights carry the exact area element of the linear image of the
    sphere: det(B) * |B^(-T) theta| per unit sphere element, B = M^(-1/2).
    """

    def __init__(self, m_real, center, level, sphere_pow=10, seed=0):
        m_real = np.asarray(m_real, dtype=float)
        d = m_real.shape[0]
        if d % 4:
            raise DimensionError("ambient dimension must be a multiple of 4")
        self.n = d // 4
        evals, evecs = np.linalg.eigh(0.5 * (m_real + m_real.T))
        if evals.min() <= 0:
            raise DegenerateLevelSetError("quadratic form is not positive definite")
        if level <= 0:
            raise DegenerateLevelSetError("level must be positive")
        b = evecs @ np.diag(evals ** -0.5) @ evecs.T
        b_inv_t = evecs @ np.diag(evals ** 0.5) @ evecs.T
        theta = sobol_sphere(d, sphere_pow, seed, antithetic=True)
        root = math.sqrt(level)
        self.center = np.asarray(center, dtype=float)
        self.points = self.center[None, :] + root * theta @ b.T
        det_b = float(np.prod(evals ** -0.5))
        stretch = np.linalg.norm(theta @ b_inv_t.T, axis=1)
        area = sphere_area(self.n)
        self.weights = (area / len(theta)) * det_b * stretch * root ** (d - 1)
        grad_dir = (self.points - self.center) @ m_real.T
        self.normals = grad_dir / np.linalg.norm(grad_dir, axis=1)[:, None]

    def integrate(self, fn):
        return halving_estimate(fn(self.points), self.weights)


class StarShapedRule:
    """Surface rule for a level set {phi = level} star-shaped around a
    center: each Sobol ray is solved for its crossing radius by bracketed
    root finding, and the area element uses the field gradient.

    Each ray's bracket [1e-9, hi] starts at the previous ray's root (1.0 on
    the first ray) and doubles hi until the sign changes.
    """

    def __init__(self, field, level, center=None, sphere_pow=9, seed=0):
        n = field.n
        d = 4 * n
        self.n = n
        center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        dirs = sobol_sphere(d, sphere_pow, seed)
        radii = np.empty(len(dirs))
        hint = 1.0
        for i, th in enumerate(dirs):
            f = lambda rho: field.value(center + rho * th) - level
            lo, hi = 1e-9, hint
            flo, fhi = f(lo), f(hi)
            grow = 0
            while flo * fhi > 0:
                hi *= 2.0
                fhi = f(hi)
                grow += 1
                if grow > 60:
                    raise DegenerateLevelSetError(
                        "level set does not cross one of the sample rays")
            radii[i] = hint = brentq(f, lo, hi, xtol=1e-12)
        self.points = center[None, :] + radii[:, None] * dirs
        grads = field.gradients(self.points)
        gnorm = np.linalg.norm(grads, axis=1)
        radial = np.einsum("bi,bi->b", grads, dirs)
        if np.any(radial <= 0):
            raise DegenerateLevelSetError("gradient not outward along a ray")
        area = sphere_area(n)
        self.weights = (area / len(dirs)) * radii ** (d - 1) * gnorm / radial
        self.normals = grads / gnorm[:, None]

    def integrate(self, fn):
        return halving_estimate(fn(self.points), self.weights)
