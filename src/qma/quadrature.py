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
   star-shaped level sets of general fields.  ``sphere_rule`` is the one
   place any rule, here, in ``potential`` or in ``currents``, chooses its
   directions and weights, and ``ball_points`` the one pseudo-random draw
   of unweighted points in a ball (sampled checks and sup norms).  Error
   estimates come from halving the direction set (prefixes of a Sobol
   sequence at powers of two are balanced again).
   ``block_values`` is where every rule, the ball and surface rules here
   and the ray rule of ``potential``, splits its nodes into the integrand's
   calls: blocks of at most ``_BLOCK_NODES`` nodes, each built when it is
   evaluated; a ``Constant`` integrand (a density of fields whose delta
   matrices are the same everywhere) fills every node with its value.

Everything is deterministic given the seed.

The three numerical routines the rules need from outside numpy live here,
each giving the same bits as the scipy call it stands for, so importing
the package loads no scipy module:

* ``scrambled_sobol`` is ``scipy.stats.qmc.Sobol(d, scramble=True,
  seed=seed).random_base2(m)``: Joe-Kuo direction numbers (d <= 4 MAX_N),
  a linear matrix scramble and a digital shift drawn from
  ``np.random.default_rng(seed)`` in scipy's order, points in Gray-code
  order.
* ``ndtri`` is Cephes ``ndtri`` (``scipy.special.ndtri``) on 0 < p < 1.
* ``brentq`` is scipy's C ``brentq`` (Brent 1973), with the same iterates
  and the same errors, plus optional known end values.  Given arrays of
  brackets it solves them all in one masked iteration, each entry to the
  float of its own scalar call; a scalar call is that iteration on one
  entry, so there is one Brent loop.

Every level-set rule starts from the point a of ``exhaustion_center``, the
minimum of a ``Polynomial`` phi and 0 for any other field, and every root
is found one way: ``ray_brackets`` brackets each crossing of a ray from a
with {phi = level} on its own, and one array ``brentq`` at xtol = rtol =
``RAY_TOL`` solves all of them.  ``StarShapedRule``, the surface rule of
every level set that is not a sphere or an ellipsoid, makes that call here,
and the sublevel rule of ``potential`` makes it there.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
# numpy loads these submodules on first use; importing them here keeps that
# one-time cost in start-up, not inside a run's first rule or random draw
import numpy.polynomial.legendre
import numpy.random

from .errors import (DegenerateLevelSetError, DimensionError,
                     NumericalInconsistencyError, QuadratureError)
from .exterior import MAX_N
from .fields import Polynomial

# most nodes per integrand call of every rule (the ball and surface rules,
# the ray panels of potential): bounds the batches, and with them the
# memory, of the density kernels
_BLOCK_NODES = 1024

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


# ---------------------------------------------------------------------------
# tier 2: radial rules

@functools.lru_cache(maxsize=8)
def _leggauss(nodes):
    """The Gauss-Legendre rule on [-1, 1], memoized per node count (a
    level-set run asks for the same rule many times), read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre_panels(breaks, nodes_per_panel):
    """Gauss-Legendre nodes/weights on a sequence of panels."""
    base_x, base_w = _leggauss(nodes_per_panel)
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


def graded_breaks(upper, scale=None):
    """Panel breakpoints on [0, upper]: four equal panels, or geometrically
    refined toward 0 from a finite positive peak scale (doubling it up)."""
    if upper <= 0:
        raise QuadratureError("upper limit must be positive")
    if scale is not None and not 0 < scale < math.inf:
        raise QuadratureError(f"peak scale must be finite and positive, got {scale!r}")
    if scale is None or scale >= upper:
        step = upper / 4
        return [step * k for k in range(5)]
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


class Constant:
    """An integrand with one value at every node: called on an (N, d)
    batch it is ``np.full(N, value)``, and ``block_values`` fills its nodes
    without building them."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def __call__(self, pts):
        return np.full(len(pts), self.value)


def block_values(fn, count, nodes):
    """fn at ``count`` nodes as one (count,) float array, fn seeing at most
    ``_BLOCK_NODES`` of them per call: ``nodes(lo, hi)`` builds the rows
    lo:hi, and only when that block is evaluated.  A ``Constant`` is its
    value at every node, with no node built and no call."""
    if isinstance(fn, Constant):
        return np.full(count, fn.value)
    out = np.empty(count)
    for lo in range(0, count, _BLOCK_NODES):
        hi = min(lo + _BLOCK_NODES, count)
        out[lo:hi] = np.asarray(fn(nodes(lo, hi)), dtype=float).reshape(hi - lo)
    return out


def radial_ball_integral(n, fn_rho, r, peak_scale=None, nodes=32):
    """Integral over B(0, r) of a radial function fn_rho(rho) (vectorized).

    peak_scale flags an integrand concentrated at rho ~ sqrt(peak_scale)
    (e.g. the regularized fundamental density with eps = peak_scale), which
    grades the t = rho^2 panels toward zero.  A radius r <= 0 raises
    QuadratureError.
    """
    if not r > 0:
        raise QuadratureError(f"ball radius must be positive, got {r!r}")
    t, w = gauss_legendre_panels(graded_breaks(float(r) ** 2, peak_scale), nodes)
    rho = np.sqrt(t)
    vals = np.asarray(fn_rho(rho), dtype=float)
    return sphere_area(n) * 0.5 * float(np.sum(w * t ** (2 * n - 1) * vals))


# ---------------------------------------------------------------------------
# scrambled Sobol points, the inverse normal CDF and Brent's root finder

_SOBOL_BITS = 30

# (primitive polynomial, initial direction numbers) of Sobol dimensions
# 2 .. 4 MAX_N, from Joe & Kuo's new-joe-kuo-6.21201 table; dimension 1 is
# the van der Corput sequence
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)


@functools.cache
def _sobol_directions():
    """(4 MAX_N, 30) direction numbers v_j * 2^(29 - j) (Bratley & Fox,
    ACM TOMS 14 (1988), the recurrence on p. 90); read-only."""
    rows = [[1] * _SOBOL_BITS]
    for poly, init in _JOE_KUO:
        deg = len(init)
        v = list(init)
        for j in range(deg, _SOBOL_BITS):
            new = v[j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    scale = 1 << np.arange(_SOBOL_BITS - 1, -1, -1)
    out = np.array(rows, dtype=np.int64) * scale
    out.flags.writeable = False
    return out


def scrambled_sobol(d, m_pow, seed):
    """The first 2^m_pow points of the d-dimensional scrambled Sobol
    sequence (d <= 4 MAX_N), equal to
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random_base2(m_pow)``.
    """
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    # the digital shift, then the linear matrix scramble: lower-triangular
    # matrices with unit diagonal, applied over GF(2) to the bits of each
    # direction number (most significant first)
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ (1 << np.arange(bits))
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32)).astype(float)
    ltm[:, np.arange(bits), np.arange(bits)] = 1.0
    weights = 1 << np.arange(bits - 1, -1, -1)
    v_bits = ((_sobol_directions()[:d, :, None] & weights) != 0).astype(float)
    parity = (v_bits @ ltm.transpose(0, 2, 1)).astype(np.int64) & 1
    v = parity @ weights
    # point k is the shift xor the v columns of the set bits of gray(k)
    k = np.arange(2 ** m_pow)
    gray = k ^ (k >> 1)
    quasi = np.repeat(shift[None, :], len(k), axis=0)
    for b in range(m_pow):
        quasi ^= ((gray >> b) & 1)[:, None] * v[:, b]
    return quasi * 2.0 ** -bits


# Cephes ndtri: rational approximations in the centre (|p - 1/2| <= 3/8)
# and in z = sqrt(-2 log p) on 2 <= z < 8 and 8 <= z <= 64
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2 = 0.13533528323661269189   # exp(-2)


def _polevl(x, coeffs):
    """coeffs[0] x^N + ... + coeffs[N] by Horner's rule (Cephes polevl)."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x, coeffs):
    """x^N + coeffs[0] x^(N-1) + ... + coeffs[N-1] (Cephes p1evl)."""
    acc = x + coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def ndtri(p):
    """Inverse of the standard normal CDF, elementwise for 0 < p < 1.

    The operations of Cephes ``ndtri`` in the same order, so the result
    equals ``scipy.special.ndtri`` bit for bit.  The tail's two logs go
    through ``math.log``, the C library's log as Cephes calls it, mapped
    over the values into a preallocated array: numpy's own vectorized log
    can differ from it in the last bits.
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    centre = y > _EXP_M2
    c = y[centre] - 0.5
    c2 = c * c
    ratio = c2 * _polevl(c2, _NDTRI_P0) / _p1evl(c2, _NDTRI_Q0)
    out[centre] = (c + c * ratio) * 2.50662827463100050242E0
    tail = ~centre
    logs = np.fromiter(map(math.log, y[tail].tolist()), float, np.count_nonzero(tail))
    z = np.sqrt(-2.0 * logs)
    z0 = z - np.fromiter(map(math.log, z.tolist()), float, len(z)) / z
    w = 1.0 / z
    z1 = np.where(z < 8.0,
                  w * _polevl(w, _NDTRI_P1) / _p1evl(w, _NDTRI_Q1),
                  w * _polevl(w, _NDTRI_P2) / _p1evl(w, _NDTRI_Q2))
    x = z0 - z1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def brentq(f, a, b, xtol=2e-12, rtol=4 * np.finfo(float).eps, fa=None, fb=None):
    """A root of f in [a, b], where f(a) and f(b) differ in sign (Brent,
    *Algorithms for Minimization Without Derivatives*, 1973, ch. 4).

    A port of scipy's C ``brentq`` with the same iterates, so it returns
    the same float as ``scipy.optimize.brentq(f, a, b, xtol=xtol,
    rtol=rtol)``, and raises the same ValueError on a NaN value or equal
    end signs and RuntimeError after 100 iterations.  ``fa``/``fb`` are
    f(a)/f(b) when the caller already has them; each saves one call.

    With 1-d numpy arrays ``a`` and ``b`` (one bracket per entry) every
    entry is solved at once and an array of roots comes back, each the
    float the scalar call returns on that entry's bracket.  ``f(x, entries)``
    is then called with the iterates of the entries still open and their
    indices into ``a``, and returns f at each; ``fa``/``fb`` are arrays.
    The errors are the scalar call's, raised for the first entry that meets
    one.  A scalar call is the array loop on a one-entry bracket.
    """
    if isinstance(a, np.ndarray):
        return _brent_arrays(f, a, b, xtol, rtol, fa, fb)
    one = lambda v: None if v is None else np.array([v], dtype=float)
    root = _brent_arrays(lambda x, _: np.array([f(float(x[0]))], dtype=float),
                         one(a), one(b), xtol, rtol, one(fa), one(fb))
    return float(root[0])


def _check_nan(fx, x):
    bad = np.isnan(fx)
    if bad.any():
        raise ValueError(f"The function value at x={float(x[bad.argmax()])} is NaN; "
                         "solver cannot continue.")


def _brent_arrays(f, a, b, xtol, rtol, fa, fb):
    """Brent's loop over arrays of brackets: each open entry takes its
    branch through np.where, so it sees the operations of scipy's scalar
    loop on the same floats; the entries that converge leave the state."""
    xpre = np.array(a, dtype=float)
    xcur = np.array(b, dtype=float)
    entries = np.arange(len(xcur))
    fpre = f(xpre, entries) if fa is None else np.array(fa, dtype=float)
    _check_nan(fpre, xpre)
    fcur = f(xcur, entries) if fb is None else np.array(fb, dtype=float)
    _check_nan(fcur, xcur)
    roots = np.where(fpre == 0, xpre, xcur)
    keep = (fpre != 0) & (fcur != 0)
    if np.any((fpre[keep] < 0) == (fcur[keep] < 0)):
        raise ValueError("f(a) and f(b) must have different signs")
    entries, xpre, xcur, fpre, fcur = (v[keep] for v in (entries, xpre, xcur, fpre, fcur))
    if not len(entries):
        return roots
    xblk = fblk = spre = scur = np.zeros(len(xcur))
    for _ in range(100):
        flip = (fpre != 0) & (fcur != 0) & ((fpre < 0) != (fcur < 0))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            roots[entries[done]] = xcur[done]
            keep = ~done
            (entries, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (v[keep] for v in (entries, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
            if not len(entries):
                return roots
        # the step an entry does not take may divide by zero; it is never
        # selected
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = (-fcur * (fblk * dblk - fpre * dpre)
                                 / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, secant, inverse_quadratic)
        accept = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                  & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(accept, scur, sbis), np.where(accept, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = np.asarray(f(xcur, entries), dtype=float)
        _check_nan(fcur, xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur[0]:f}")


# xtol and rtol of every level-set ray solve
RAY_TOL = 1e-13


def ray_brackets(phi, levels, center, dirs):
    """Brackets for the radii where the rays center + rho * theta cross the
    level sets {phi = level}, one entry per (ray, level) pair, ray-major.

    Returns ``(g, lo, hi, glo, ghi)``: the objective g(rho, entries) =
    phi - level on each entry's ray, in the form an array ``brentq`` call
    takes, and each entry's bracket [lo, hi] with g at both ends.  Each
    entry is bracketed on its own in [1e-9, hi]: hi starts at 1.0 and
    doubles, at most 60 times, until the sign changes.  phi is evaluated
    once per ray at the lower end.  No bracket depends on another entry, so
    ``brentq(g, lo, hi, xtol=RAY_TOL, rtol=RAY_TOL, fa=glo, fb=ghi)`` gives
    each radius as the float a scalar ``brentq`` gives on that entry's
    bracket, whichever rays and levels are solved together.  phi runs
    through ``phi.values`` without numpy's overflow and invalid-value
    warnings; a NaN value raises NumericalInconsistencyError naming the ray
    and the level.
    """
    ray = np.repeat(np.arange(len(dirs)), len(levels))
    level = np.tile(np.asarray(levels, dtype=float), len(dirs))

    def refuse_nan(vals, rho, entries):
        bad = np.isnan(vals)
        if bad.any():
            k = bad.argmax()
            e = entries[k]
            raise NumericalInconsistencyError(
                f"sample ray {ray[e]}, level {float(level[e])!r}: "
                f"phi is NaN at radius {float(rho[k])!r}")

    def g(rho, entries):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = phi.values(center + rho[:, None] * dirs[ray[entries]]) - level[entries]
        refuse_nan(vals, rho, entries)
        return vals

    everything = np.arange(len(ray))
    lo = np.full(len(ray), 1e-9)
    hi = np.ones(len(ray))
    with np.errstate(over="ignore", invalid="ignore"):
        glo = phi.values(center + 1e-9 * dirs)[ray] - level
    refuse_nan(glo, lo, everything)
    ghi = g(hi, everything)
    todo = everything[np.sign(glo) * np.sign(ghi) > 0]   # no sign change yet
    for _ in range(60):
        if not len(todo):
            break
        hi[todo] *= 2.0
        ghi[todo] = g(hi[todo], todo)
        todo = todo[np.sign(glo[todo]) * np.sign(ghi[todo]) > 0]
    if len(todo):
        e = todo[0]
        raise DegenerateLevelSetError(
            f"sample ray {ray[e]}, level {float(level[e])!r}: "
            "level set does not cross the ray")
    return g, lo, hi, glo, ghi


# ---------------------------------------------------------------------------
# tier 3: product rules

@functools.lru_cache(maxsize=8)
def sobol_sphere(d, m_pow, seed=0, antithetic=False):
    """2^m_pow quasi-random directions on S^(d-1) (scrambled Sobol through
    the Gaussian map; deterministic in the seed).

    With ``antithetic``, half that many Sobol directions are interleaved
    with their negatives (theta_0, -theta_0, theta_1, ...): every
    even-length prefix is exactly centrally symmetric, so odd integrands
    cancel to machine precision while prefix-halving error estimates stay
    meaningful.

    The last few direction sets are memoized (a rule built once per level
    asks for the same set many times), so the returned array is read-only.
    """
    if d > 4 * MAX_N:
        raise DimensionError(f"Sobol directions exist for d <= 4 * MAX_N = {4 * MAX_N}, "
                             f"got d = {d}")
    if not int(antithetic) <= m_pow <= _SOBOL_BITS:
        raise ValueError(f"m_pow must lie in [{int(antithetic)}, {_SOBOL_BITS}] (at most "
                         f"2**{_SOBOL_BITS} Sobol points), got m_pow = {m_pow}")
    if antithetic:
        # spelled as sphere_rule spells a plain set, so the memo shares it
        base = sobol_sphere(d, m_pow - 1, seed, False)
        out = np.empty((2 * len(base), d))
        out[0::2] = base
        out[1::2] = -base
    else:
        # keep strictly inside (0,1) for ndtri
        u = np.clip(scrambled_sobol(d, m_pow, seed), 1e-12, 1 - 1e-12)
        g = ndtri(u)
        norms = np.linalg.norm(g, axis=1)
        # a Gaussian draw of norm ~0 is measure-zero; clip for safety
        norms = np.where(norms < 1e-12, 1.0, norms)
        out = g / norms[:, None]
    out.flags.writeable = False
    return out


def sphere_rule(d, m_pow, seed, antithetic=False):
    """Read-only (dirs, weights) on S^(d-1): the 2^m_pow ``sobol_sphere``
    directions, each weighing |S^(d-1)| / 2^m_pow.  m_pow < 1 raises
    ValueError: one direction has no half set to estimate an error from."""
    if m_pow < 1:
        raise ValueError(f"a sphere rule needs at least two directions, got m_pow = {m_pow}")
    dirs = sobol_sphere(d, m_pow, seed, antithetic)
    weights = np.full(len(dirs), sphere_area(d // 4) / len(dirs))
    weights.flags.writeable = False
    return dirs, weights


def ball_points(n, r, count, seed):
    """(dirs, points): count Gaussian directions on S^(4n-1) and, along
    them, points uniform in the closed ball B(0, r), both drawn from
    ``np.random.default_rng(seed)``.  The one draw of evaluation points that
    carry no weights (sampled checks, sup norms); integrals use
    ``sphere_rule``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, 4 * n))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    return dirs, dirs * (r * rng.random((count, 1)) ** (1.0 / (4 * n)))


class BallQuadrature:
    """Product rule (graded radial panels x Sobol directions) on a ball.

    ``integrate(fn)`` evaluates fn, as every rule does, on (N, 4n) node
    blocks of at most ``_BLOCK_NODES`` nodes (``block_values``) and returns
    (value, error_estimate); the estimate compares the full direction set
    against its leading half.  Node k is radial node k // len(dirs) on direction
    k % len(dirs), and a block's nodes are built when it is evaluated, so
    memory is bounded by the block, not the rule.  The value does not
    depend on the block size: the per-direction sums are one product over
    all radial nodes.  Directions are antithetic.  A radius <= 0 raises
    QuadratureError.
    """

    def __init__(self, n, radius, center=None, peak_scale=None,
                 sphere_pow=9, radial_nodes=16, seed=0):
        if not radius > 0:
            raise QuadratureError(f"ball radius must be positive, got {radius!r}")
        self.n = n
        self.center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
        self.dirs, self.dir_weights = sphere_rule(4 * n, sphere_pow, seed, antithetic=True)
        self.t_nodes, self.t_weights = gauss_legendre_panels(
            graded_breaks(float(radius) ** 2, peak_scale), radial_nodes)

    def integrate(self, fn):
        n_dirs = len(self.dirs)
        rho = np.sqrt(self.t_nodes)

        def nodes(lo, hi):
            # one slice of the directions per radial row the block meets
            out = np.empty((hi - lo, self.dirs.shape[1]))
            for row in range(lo // n_dirs, (hi - 1) // n_dirs + 1):
                a, b = max(lo, row * n_dirs), min(hi, (row + 1) * n_dirs)
                np.multiply(rho[row], self.dirs[a - row * n_dirs:b - row * n_dirs],
                            out=out[a - lo:b - lo])
            out += self.center
            return out

        vals = block_values(fn, len(rho) * n_dirs, nodes).reshape(len(rho), n_dirs)
        tw = self.t_weights * self.t_nodes ** (2 * self.n - 1)
        return halving_estimate(tw @ vals, self.dir_weights * 0.5)


def exhaustion_center(phi):
    """(a, phi(a), M or None): the start point of every level-set rule of
    phi, and M with phi = (x - a)^T M (x - a) + phi(a) for a quadratic phi.
    For a ``Polynomial``, a is its minimum by Newton's method on grad phi
    from 0 with the exact batched Hessian, each step taken only where it is
    positive definite (Nocedal & Wright, *Numerical Optimization*, 2006,
    ch. 3), until a step is below 1e-12 (1 + |a|), at most 50 steps.  At
    degree <= 2 the one step is exact and M is half the Hessian; a quadratic
    part that is not positive definite, whose sublevel sets are unbounded,
    raises DegenerateLevelSetError.  Any other field keeps a = 0.  The
    arrays are read-only, and a Polynomial's result is solved once and
    cached on it."""
    if not isinstance(phi, Polynomial):
        a = np.zeros(phi.dim)
        a.flags.writeable = False
        return a, phi.value(a), None
    if phi._center is not None:
        return phi._center
    a = np.zeros(phi.dim)
    quadratic = phi.degree() <= 2
    for _ in range(50):
        h = phi.hessian(a)
        if np.linalg.eigvalsh(h).min() <= 0:
            if quadratic:
                raise DegenerateLevelSetError("phi is quadratic but not positive "
                                              "definite: not an exhaustion")
            break
        step = np.linalg.solve(-h, phi.gradient(a))
        a = a + step
        if quadratic or not np.abs(step).max() > 1e-12 * (1.0 + np.abs(a).max()):
            break
    a.flags.writeable = False
    m = 0.5 * h if quadratic else None
    if m is not None:
        m.flags.writeable = False
    phi._center = a, phi.value(a), m
    return phi._center


def ellipsoid_map(m):
    """(B, B^(-T), det B) for B = M^(-1/2), M positive definite (else
    DegenerateLevelSetError): y -> a + B y maps the ball of radius s onto
    {(x - a)^T M (x - a) < s^2} and its sphere onto the boundary."""
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    if evals.min() <= 0:
        raise DegenerateLevelSetError("quadratic form is not positive definite")
    b = evecs @ np.diag(evals ** -0.5) @ evecs.T
    b_inv_t = evecs @ np.diag(evals ** 0.5) @ evecs.T
    return b, b_inv_t, float(np.prod(evals ** -0.5))


class _SurfaceRule:
    """Level-set nodes ``points`` and area ``weights``; ``integrate(fn)``
    is (value, error from the half set), fn seeing ``points`` in the blocks
    of ``block_values``."""

    def integrate(self, fn):
        vals = block_values(fn, len(self.points), lambda lo, hi: self.points[lo:hi])
        return halving_estimate(vals, self.weights)


class SphereRule(_SurfaceRule):
    """Equal-weight antithetic Sobol rule on a round sphere."""

    def __init__(self, n, radius, center=None, sphere_pow=10, seed=0):
        radius = float(radius)
        center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
        dirs, weights = sphere_rule(4 * n, sphere_pow, seed, antithetic=True)
        self.points = center[None, :] + radius * dirs
        self.weights = weights * radius ** (4 * n - 1)


class EllipsoidRule(_SurfaceRule):
    """Surface rule for a level set {(x-a)^T M (x-a) = level} of a
    positive quadratic form (exact geometry, antithetic Sobol directions).

    Node weights carry the exact area element of the linear image of the
    sphere: det(B) * |B^(-T) theta| per unit sphere element (``ellipsoid_map``).
    """

    def __init__(self, m, center, level, sphere_pow=10, seed=0):
        m = np.asarray(m, dtype=float)
        d = m.shape[0]
        if d % 4:
            raise DimensionError("ambient dimension must be a multiple of 4")
        b, b_inv_t, det_b = ellipsoid_map(m)
        if level <= 0:
            raise DegenerateLevelSetError("level must be positive")
        theta, weights = sphere_rule(d, sphere_pow, seed, antithetic=True)
        root = math.sqrt(level)
        center = np.asarray(center, dtype=float)
        self.points = center[None, :] + root * theta @ b.T
        stretch = np.linalg.norm(theta @ b_inv_t.T, axis=1)
        self.weights = weights * det_b * stretch * root ** (d - 1)


class StarShapedRule(_SurfaceRule):
    """Surface rule for a level set {phi = level} star-shaped around the a
    of ``exhaustion_center``: the crossing radii of all Sobol rays from a
    come from one batched ``brentq`` over the brackets of ``ray_brackets``,
    and the area element uses the field gradient."""

    def __init__(self, field, level, sphere_pow=9, seed=0):
        d = 4 * field.n
        center, _, _ = exhaustion_center(field)
        dirs, weights = sphere_rule(d, sphere_pow, seed)
        g, lo, hi, glo, ghi = ray_brackets(field, (level,), center, dirs)
        radii = brentq(g, lo, hi, xtol=RAY_TOL, rtol=RAY_TOL, fa=glo, fb=ghi)
        self.points = center[None, :] + radii[:, None] * dirs
        grads = field.gradients(self.points)
        gnorm = np.linalg.norm(grads, axis=1)
        radial = np.einsum("bi,bi->b", grads, dirs)
        if np.any(radial <= 0):
            raise DegenerateLevelSetError("gradient not outward along a ray")
        self.weights = weights * radii ** (d - 1) * gnorm / radial
