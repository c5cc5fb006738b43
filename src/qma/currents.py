"""Regularized closed positive currents and their quantitative invariants.

A current here is a smooth object of even degree

    T = (constant factor) ^ laplace(u_1) ^ ... ^ laplace(u_m),

stored by its potential list plus an optional constant-coefficient factor
(so the basic positive form beta and its powers are currents with no
potentials at all).  Genuinely singular currents enter as eps-families of
such smooth ones.

Everything quantitative reduces to evaluating top-form densities

    T ^ beta^p   (relative to the volume element)

in batch over quadrature nodes: the constant factor contributes a fixed
index mask, each laplacian contributes its antisymmetric delta matrix, and
``monge_ampere.mixed_pfaffian`` expands the signed matchings of the
remaining indices over the assignments of the factors.  On top of that sit:

* ``bt_product``       wedge with another laplacian (degree +2);
* ``sigma_mass``       integral of T ^ beta^p over a ball, with an error
                       estimate (Lelong masses, CLN norms);
* ``lelong_number``    the radial profile sigma(a, r)/r^(4p) and its
                       small-radius limit;
* ``shell_identity_check``  the two-radius shell identity for the profile,
                       both sides differences of ``sigma_mass`` at the two
                       radii;
* ``stokes_check`` / ``integration_by_parts_residual``  checks of the
                       duality between d_alpha and wedging, integrated by
                       one ball integral, ``_ball_integral`` (exact moments
                       for Polynomial data, else ``BallQuadrature``);
* ``convergence_suite``    pairings of decreasing potential sequences
                       against their limit;
* ``mollify``          grid convolution with a compact smooth bump (n = 1),
                       a numpy shifted sum over the kernel's offsets.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import dataclasses

from .errors import DimensionError
from .exterior import beta, random_strongly_positive
from .calculus import CxField, FormField, delta_matrices, hoisted, laplace
from .fields import GridField, InvShift, Polynomial, invshift, normsq
from .hamilton import jmatrix
from .monge_ampere import _to_real, mixed_pfaffian
from .quadrature import (BallQuadrature, ball_moment_coefficient, ball_points,
                         integrate_polynomial_ball)


def wedge_top_density(n, constant_coeffs, dmats):
    """Top-form density of  (sum_I c_I w^I) ^ prod_s (2-form with delta
    matrix D_s)  over a batch of points.

    ``constant_coeffs``: {mask: complex}; ``dmats``: list of (N, 2n, 2n).
    The 2-form attached to D is sum_{i<j} 2 D_ij w^i w^j, i.e. exactly the
    laplacian when D is the delta matrix of a potential.
    """
    if not dmats:
        raise ValueError("at least one delta matrix is required")
    total = np.zeros(len(dmats[0]), dtype=complex)
    for mask, cval in constant_coeffs.items():
        total += complex(cval) * mixed_pfaffian(n, dmats, mask)
    return _to_real((2.0 ** len(dmats)) * total, "current density")


class RegularizedCurrent:
    """constant ^ laplace(u_1) ^ ... ^ laplace(u_m), all smooth."""

    __slots__ = ("n", "potentials", "constant")

    def __init__(self, n, potentials=(), constant=None):
        self.n = n
        self.potentials = tuple(potentials)
        if any(u.n != n for u in self.potentials):
            raise DimensionError("potential on the wrong space")
        if constant is not None and (constant.n != n or constant.degree % 2):
            raise DimensionError("constant factor must be an even-degree element")
        self.constant = constant
        if self.degree > 2 * n:
            raise DimensionError("current degree exceeds the top degree")

    @property
    def degree(self):
        return 2 * len(self.potentials) + (self.constant.degree if self.constant else 0)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_laplace(cls, u):
        return cls(u.n, (u,))

    def wedge_constant(self, element):
        const = element if self.constant is None else self.constant ^ element
        return RegularizedCurrent(self.n, self.potentials, const)

    # ------------------------------------------------------------ evaluation
    def _constant_coeffs(self):
        if self.constant is None:
            return {0: 1.0}
        return {m: complex(c) for m, c in self.constant.coeffs.items()}

    def _dmats(self, pts, pad=0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        mats = [delta_matrices(u, pts) for u in self.potentials]
        if pad:
            half_j = np.broadcast_to(0.5 * jmatrix(self.n).astype(complex),
                                     (len(pts), 2 * self.n, 2 * self.n))
            mats.extend([half_j] * pad)
        if not mats:
            raise DimensionError("no two-form factors to expand")
        return mats

    def trace_density(self, pts, pad=None):
        """Density of T ^ beta^pad (default: pad up to top degree)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pad is None:
            pad = (2 * self.n - self.degree) // 2
        if self.degree + 2 * pad != 2 * self.n:
            raise DimensionError("padding does not reach the top degree")
        coeffs = self._constant_coeffs()
        if not self.potentials and pad == 0:
            # purely constant top current
            full = (1 << (2 * self.n)) - 1
            c = coeffs.get(full, 0.0)
            return np.full(len(pts), float(np.real(c)))
        return wedge_top_density(self.n, coeffs, self._dmats(pts, pad))

    def density(self, pts):
        """Top-form density of T itself (requires degree 2n)."""
        if self.degree != 2 * self.n:
            raise DimensionError("current is not of top degree")
        return self.trace_density(pts, pad=0)

    def form(self):
        """Symbolic FormField (wedge of laplacians times the constant)."""
        f = None
        for u in self.potentials:
            lf = laplace(u)
            f = lf if f is None else f.wedge(lf)
        if self.constant is not None:
            c = self.constant
            f = FormField(c.n, c.degree, c.coeffs) if f is None else f.wedge(c)
        return FormField.scalar(self.n, 1) if f is None else f


def bt_product(u, current):
    """laplace(u) ^ T as a new current (degree +2)."""
    if current.degree + 2 > 2 * current.n:
        raise DimensionError("wedge with a laplacian overflows the top degree")
    return RegularizedCurrent(current.n, current.potentials + (u,), current.constant)


# ---------------------------------------------------------------------------
# integral invariants

def sigma_mass(current, a, r, sphere_pow=8, radial_nodes=16, seed=0):
    """Lelong mass sigma_T(a, r) = integral of T ^ beta^p over B(a, r).

    Returns (value, error), the error ``BallQuadrature``'s estimate from
    halving its direction set.  A current with no potentials
    short-circuits to the exact ball volume formula.  The density goes
    through ``calculus.hoisted``: a constant when every potential has a
    constant delta matrix, evaluated once on one row.  The ball rule's
    radial panels are refined toward the center
    at the smallest eps of the InvShift potentials (1e-6 for eps = 0), the
    scale where their densities peak.
    """
    n = current.n
    p = (2 * n - current.degree) // 2
    probe = np.atleast_2d(np.asarray(a, dtype=float))
    if not current.potentials:
        dens = float(current.trace_density(probe + 0.1, pad=p)[0])
        vol = float(ball_moment_coefficient(4 * n, (0,) * 4 * n, Fraction(r).limit_denominator(10 ** 12))) \
            * math.pi ** (2 * n)
        return dens * vol, 0.0
    peak_scale = min((u.eps if u.eps > 0 else 1e-6 for u in current.potentials
                      if isinstance(u, InvShift)), default=None)
    quad = BallQuadrature(n, r, center=a, peak_scale=peak_scale, sphere_pow=sphere_pow,
                          radial_nodes=radial_nodes, seed=seed)
    return quad.integrate(hoisted(current.potentials,
                                  lambda pts: current.trace_density(pts, pad=p)))


def cln_ratio(fields, inner_radius, outer_radius, seed=0, **quad_opts):
    """|| laplace(u_1)^...^laplace(u_k) ||_L  /  prod_i sup_K |u_i|.

    L = B(0, inner_radius) inside K = B(0, outer_radius); the sup norms are
    sampled (a reported bound, not a certified maximum) at the origin and
    along the 4,096 directions of ``ball_points(n, outer_radius, 4096,
    seed + 1)``, on the sphere of K and at that draw's uniform points in K.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one potential")
    n = fields[0].n
    if inner_radius > outer_radius:
        raise ValueError("inner ball must sit inside the outer ball")
    origin = np.zeros(4 * n)
    t = RegularizedCurrent(n, fields)
    norm, _ = sigma_mass(t, origin, inner_radius, seed=seed, **quad_opts)
    dirs, inside = ball_points(n, outer_radius, 4096, seed + 1)
    block = np.concatenate([dirs * outer_radius, inside, origin[None, :]], axis=0)
    sups = []
    for u in fields:
        with np.errstate(divide="ignore", invalid="ignore"):  # checked below
            sup = float(np.abs(u.values(block)).max())
        if sup == 0.0:
            raise ValueError("a potential has zero sup-norm on the outer ball")
        if not math.isfinite(sup):
            raise ValueError("a potential is not finite on the outer ball")
        sups.append(sup)
    return norm / math.prod(sups)


@dataclasses.dataclass
class RadialProfile:
    """sigma_T(a, r)/r^(4p) along a geometric radius ladder."""
    radii: np.ndarray
    values: np.ndarray
    errors: np.ndarray

    def monotone_violations(self, slack=3.0):
        """Indices k where the profile decreases beyond combined error bars
        plus a rounding allowance of 1e-12 (relative, absolute below 1), or
        where a value or error at k or k + 1 is not finite."""
        bad = []
        for k in range(len(self.radii) - 1):
            finite = np.isfinite([self.values[k], self.values[k + 1],
                                  self.errors[k], self.errors[k + 1]]).all()
            allowed = slack * (self.errors[k] + self.errors[k + 1])
            if not finite or (self.values[k] > self.values[k + 1] + allowed
                              + 1e-12 * max(1.0, abs(self.values[k + 1]))):
                bad.append(k)
        return bad


def lelong_number(current, a, radii=None, **quad_opts):
    """(RadialProfile, nu) for the current at the point a.

    nu is read off at the smallest radius whose quadrature error estimate is
    at most 5% of the value scale (the profile tends to its limit from
    above as r decreases for closed positive currents).
    """
    n = current.n
    p = (2 * n - current.degree) // 2
    a = np.asarray(a, dtype=float)
    if radii is None:
        radii = [2.0 ** (-k) for k in range(6, -1, -1)]
    radii = np.asarray(sorted(float(r) for r in radii))
    if (radii <= 0).any():
        raise ValueError("radii must be positive")
    vals = np.empty(len(radii))
    errs = np.empty(len(radii))
    for i, r in enumerate(radii):
        val, err = sigma_mass(current, a, r, **quad_opts)
        vals[i] = val / r ** (4 * p)
        errs[i] = err / r ** (4 * p)
    profile = RadialProfile(radii, vals, errs)
    scale = max(float(np.abs(vals).max()), 1e-300)
    nu = None
    for i in range(len(radii)):
        if errs[i] <= 0.05 * scale:
            nu = vals[i]
            break
    if nu is None:
        nu = vals[0]
    return profile, float(nu)


def shell_identity_check(current, a, r1, r2, sphere_pow=9, radial_nodes=24,
                         seed=0):
    """Residual of the two-radius shell identity

        integral_{r1<|q-a|<r2} T ^ (laplace(-1/|q-a|^2))^p
            = 8^p [ sigma(a,r2)/r2^(4p) - sigma(a,r1)/r1^(4p) ].

    The kernel power on the left carries delta matrices that scale like
    8/|q-a|^4 per factor, which is where the 8^p on the right comes from.
    The left side is sigma_mass of T ^ (laplace K)^p over B(a, r2) minus
    that over B(a, r1): the pole of K at a is integrable against T when
    p < n, (laplace K)^n vanishes off it, and ``sigma_mass`` grades its
    radial panels toward a.  Returns |lhs - rhs|.
    """
    n = current.n
    p = (2 * n - current.degree) // 2
    a = np.asarray(a, dtype=float)
    if not 0 < r1 <= r2:
        raise ValueError("need 0 < r1 <= r2")
    if r1 == r2:
        return 0.0
    kernel = invshift(n, 0.0, center=a)
    shell_current = RegularizedCurrent(n, current.potentials + (kernel,) * p,
                                       current.constant)

    def mass(t, r):
        return sigma_mass(t, a, r, sphere_pow=sphere_pow, radial_nodes=radial_nodes,
                          seed=seed)[0]

    lhs = mass(shell_current, r2) - mass(shell_current, r1)
    rhs = (8.0 ** p) * (mass(current, r2) / r2 ** (4 * p) - mass(current, r1) / r1 ** (4 * p))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Stokes-type checks

def bump_field(n, radius=1.0):
    """(r^2 - |x|^2)^3 / r^6 inside the ball, as an exact polynomial.

    Vanishes to third order at the boundary, so first and second
    derivatives are continuous across it; the canonical compactly
    supported test factor on B(0, r).
    """
    r2 = Fraction(radius) ** 2
    base = Polynomial.constant(n, r2) - normsq(n)
    return base ** 3 * (1 / r2 ** 3)


def stokes_check(h, tform, radius=1.0, center=None, sphere_pow=9,
                 radial_nodes=12, seed=0):
    """max_alpha | integral h d_alpha(T) + integral d_alpha(h) ^ T |.

    h must vanish at the boundary of the ball (e.g. a ``bump_field``
    multiple); T is a smooth (2n-1)-form field.  Exact polynomial data is
    integrated exactly; anything else falls back to the product rule.
    """
    n = tform.n
    if tform.degree != 2 * n - 1:
        raise DimensionError("T must have degree 2n - 1")
    hf = FormField.from_scalar(h)
    worst = 0.0
    for alpha in (0, 1):
        lhs_form = hf.wedge(tform.d(alpha))
        rhs_form = hf.d(alpha).wedge(tform)
        total = lhs_form + rhs_form  # = d_alpha(h T), integrates to 0
        coeff = total.coeffs.get((1 << (2 * n)) - 1)
        if coeff is not None:
            val = _ball_integral(coeff, radius, center, sphere_pow, radial_nodes, seed)
            worst = max(worst, math.hypot(val.real, val.imag))
    return worst


def _ball_integral(f, radius, center, sphere_pow, radial_nodes, seed):
    """Integral of the CxField f over B(center, radius), a complex number:
    exact ball moments when both parts are Polynomials, else one
    BallQuadrature for both parts."""
    if f.is_exact():
        r = Fraction(radius).limit_denominator(10 ** 12)
        c = None if center is None else [Fraction(x).limit_denominator(10 ** 12) for x in center]
        scale = math.pi ** (2 * f.n)
        return complex(float(integrate_polynomial_ball(f.re, r, c)) * scale,
                       float(integrate_polynomial_ball(f.im, r, c)) * scale)
    quad = BallQuadrature(f.n, radius, center=center, sphere_pow=sphere_pow,
                          radial_nodes=radial_nodes, seed=seed)
    return complex(quad.integrate(f.re.values)[0], quad.integrate(f.im.values)[0])


def integration_by_parts_residual(fields, radius=1.0, sphere_pow=9,
                                  radial_nodes=12, seed=0):
    """Residual of  integral laplace(u_1)^...^laplace(u_k) ^ psi
                  = integral u_1 laplace(u_2)^...^laplace(u_k) ^ laplace(b) ^ beta^(n-k)

    with psi = bump * beta^(n-k) and b the bump itself (compact support in
    the unit ball makes the boundary terms vanish).  All-polynomial data is
    integrated exactly; otherwise the ball product rule is used.
    """
    fields = list(fields)
    if not fields:
        raise DimensionError("need between 1 and n potentials")
    n = fields[0].n
    k = len(fields)
    if k > n:
        raise DimensionError("need between 1 and n potentials")
    b = bump_field(n, radius)
    pad = beta(n).wedge_power(n - k) if k < n else None

    t_lhs = RegularizedCurrent(n, tuple(fields), pad)
    t_rhs = RegularizedCurrent(n, tuple(fields[1:]) + (b,), pad)
    u1 = fields[0]

    full = (1 << (2 * n)) - 1
    zero = CxField(Polynomial(n))
    top_l = t_lhs.form().coeffs.get(full, zero)
    top_r = t_rhs.form().coeffs.get(full, zero)
    if isinstance(u1, Polynomial) and top_l.is_exact() and top_r.is_exact():
        return abs(_ball_integral(top_l * b, radius, None, sphere_pow, radial_nodes, seed)
                   - _ball_integral(top_r * u1, radius, None, sphere_pow, radial_nodes, seed))

    quad = BallQuadrature(n, radius, sphere_pow=sphere_pow,
                          radial_nodes=radial_nodes, seed=seed)
    lhs, _ = quad.integrate(
        lambda pts: t_lhs.trace_density(pts, pad=0) * b.values(pts))
    rhs, _ = quad.integrate(
        lambda pts: t_rhs.trace_density(pts, pad=0) * u1.values(pts))
    return abs(lhs - rhs)


def positivity_pairing_min(current, pts, trials=20, seed=0):
    """Smallest pairing density of T against sampled strongly positive
    elements of complementary degree (should be >= -1e-9 for positive T)."""
    n = current.n
    comp = 2 * n - current.degree
    if comp % 2:
        raise DimensionError("complementary degree must be even")
    rng = np.random.default_rng(seed)
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    worst = np.inf
    for _ in range(trials):
        if comp == 0:
            dens = current.density(pts)
        else:
            eta = random_strongly_positive(rng, n, comp // 2)
            dens = current.wedge_constant(eta).density(pts)
        worst = min(worst, float(dens.min()))
    return worst


# ---------------------------------------------------------------------------
# mollification (n = 1 grids)

def mollifier_weights(spacing, eps):
    """Normalized discrete bump kernel exp(-1/(1-(|o|/eps)^2)) on the
    lattice offsets with |o| < eps; weights sum to exactly 1."""
    if eps < 2 * spacing:
        raise ValueError("mollifier radius must be at least two grid spacings")
    m = int(math.floor(eps / spacing + 1e-12))
    axis = spacing * np.arange(-m, m + 1)
    g = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"))
    r2 = np.sum(g * g, axis=0) / eps ** 2
    w = np.zeros_like(r2)
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    total = w.sum()
    if total <= 0:
        raise ValueError("empty mollifier support")
    return w / total


def mollify(field, eps):
    """Convolve a grid-sampled field on R^4 with the normalized bump of
    radius eps; returns a GridField on the shrunk domain.

    Only the interior, where the kernel fits inside the grid, is computed:
    one shifted sum of the data over the kernel's nonzero offsets, taken in
    the kernel's C order.  The bump is symmetric, so this is the
    convolution itself.
    """
    if not isinstance(field, GridField):
        raise TypeError("mollify expects a grid-sampled field")
    w = mollifier_weights(field.spacing, eps)
    margin = (w.shape[0] - 1) // 2
    shape = field.data.shape
    if any(s - 2 * margin < 5 for s in shape):
        raise ValueError("domain too small after shrinking by the kernel radius")
    inner = tuple(s - 2 * margin for s in shape)
    smoothed = np.zeros(inner)
    for offset in zip(*np.nonzero(w)):
        window = tuple(slice(o, o + m) for o, m in zip(offset, inner))
        smoothed += w[offset] * field.data[window]
    origin = field.origin + margin * field.spacing
    return GridField(origin, field.spacing, smoothed)


# ---------------------------------------------------------------------------
# Bedford-Taylor convergence

@dataclasses.dataclass
class ConvergenceReport:
    indices: list
    pairings: list
    limit_pairing: float
    deviations: list


def convergence_suite(sequences, limits, radius=1.0, sphere_pow=8,
                      radial_nodes=10, seed=0):
    """Pairings of decreasing smooth sequences against the limit fields.

    ``sequences``: list of k lists, each the j-indexed approximants of one
    potential; ``limits``: the k limit fields.  The pairing is

        integral u^(1) laplace(u^(2)) ^ ... ^ laplace(u^(k)) ^ laplace(bump)
                 ^ beta^(n-k)

    over the ball (the first potential enters by value, so sequences that
    differ from the limit by constants still show their convergence rate).
    Raises if a sequence increases pointwise on the sample nodes by more
    than 1e-9.
    """
    k = len(sequences)
    if k == 0 or len(limits) != k:
        raise ValueError("sequences/limits mismatch")
    steps = len(sequences[0])
    if any(len(s) != steps for s in sequences):
        raise ValueError("sequences have unequal lengths")
    n = limits[0].n
    _, sample = ball_points(n, 0.9 * radius, 64, seed)
    for seq in sequences:
        prev = None
        for u in seq:
            vals = u.values(sample)
            if prev is not None and np.any(vals > prev + 1e-9):
                raise ValueError("sequence is not pointwise decreasing")
            prev = vals

    b = bump_field(n, radius)
    quad = BallQuadrature(n, radius, sphere_pow=sphere_pow,
                          radial_nodes=radial_nodes, seed=seed)

    def pairing(fields):
        t = RegularizedCurrent(n, tuple(fields[1:]) + (b,))
        val, _ = quad.integrate(
            lambda pts: t.trace_density(pts, pad=n - k) * fields[0].values(pts))
        return val

    limit_pairing = pairing(limits)
    indices, pairings, deviations = [], [], []
    for j in range(steps):
        fields = [sequences[i][j] for i in range(k)]
        pj = pairing(fields)
        indices.append(j)
        pairings.append(pj)
        deviations.append(abs(pj - limit_pairing))
    return ConvergenceReport(indices, pairings, limit_pairing, deviations)
