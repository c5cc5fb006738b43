"""Exact moments, radial rules, and the Sobol product/surface rules."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import qmc

from qma import quadrature
from qma.errors import DegenerateLevelSetError, DimensionError, QuadratureError
from qma.exterior import MAX_N
from qma.fields import InvShift, Polynomial, normsq, quadform
from qma.hamilton import QMatrix, Quaternion
from qma.monge_ampere import fundamental_ma_density, fundamental_mass_exact, ma_density
from qma.quadrature import (
    BallQuadrature,
    EllipsoidRule,
    SphereRule,
    StarShapedRule,
    ball_moment_coefficient,
    ball_points,
    brentq,
    gauss_legendre_panels,
    graded_breaks,
    halving_estimate,
    integrate_polynomial_ball,
    ndtri,
    radial_ball_integral,
    scrambled_sobol,
    sobol_sphere,
    sphere_area,
    sphere_moment_coefficient,
    sphere_rule,
    translate_polynomial,
)

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# exact moments


def test_sphere_moments_low_degree():
    # |S^3| = 2 pi^2 and the classical even moments on it
    assert sphere_moment_coefficient(4, (0, 0, 0, 0)) == 2
    assert sphere_moment_coefficient(4, (2, 0, 0, 0)) == Fraction(1, 2)
    assert sphere_moment_coefficient(4, (4, 0, 0, 0)) == Fraction(1, 4)
    assert sphere_moment_coefficient(4, (2, 2, 0, 0)) == Fraction(1, 12)
    assert sphere_moment_coefficient(4, (1, 0, 0, 0)) == 0
    assert sphere_moment_coefficient(4, (3, 2, 0, 0)) == 0


def test_sphere_moment_guards():
    with pytest.raises(DimensionError):
        sphere_moment_coefficient(3, (0, 0, 0))
    with pytest.raises(DimensionError):
        sphere_moment_coefficient(4, (0, 0))


def test_ball_moments():
    assert ball_moment_coefficient(4, (0, 0, 0, 0)) == Fraction(1, 2)  # vol B^4
    assert ball_moment_coefficient(4, (0, 0, 0, 0), r=Fraction(1, 2)) == Fraction(1, 32)
    assert ball_moment_coefficient(4, (2, 0, 0, 0)) == Fraction(1, 12)
    assert ball_moment_coefficient(8, (0,) * 8) == Fraction(1, 24)  # vol B^8


def test_integrate_polynomial_ball_normsq():
    assert integrate_polynomial_ball(normsq(1)) == Fraction(1, 3)
    assert integrate_polynomial_ball(normsq(1), r=Fraction(1, 2)) == Fraction(1, 3) / 64


def test_integrate_polynomial_ball_translated():
    # int_{B(c,r)} x_0 dx = c_0 * vol
    p = Polynomial.coordinate(1, 0)
    c = [Fraction(1, 3), 0, 0, 0]
    got = integrate_polynomial_ball(p, r=Fraction(2), center=c)
    assert got == Fraction(1, 3) * Fraction(1, 2) * 2**4


def test_translate_polynomial_exact():
    p = Polynomial.coordinate(1, 0) ** 2
    q = translate_polynomial(p, [Fraction(1, 2), 0, 0, 0])
    # (x + 1/2)^2 = x^2 + x + 1/4
    assert q.value([Fraction(0), 0, 0, 0]) == Fraction(1, 4)
    assert q.value([Fraction(1), 0, 0, 0]) == Fraction(9, 4)


# ---------------------------------------------------------------------------
# radial rules


def test_gauss_legendre_panels_exact_for_polynomials():
    t, w = gauss_legendre_panels([0.0, 0.4, 1.0], 4)
    assert np.sum(w * t**3) == pytest.approx(0.25, rel=1e-14)
    assert np.sum(w * t**7) == pytest.approx(0.125, rel=1e-13)


def test_gauss_legendre_panels_skips_empty():
    t, w = gauss_legendre_panels([0.0, 0.5, 0.5, 1.0], 3)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(QuadratureError):
        gauss_legendre_panels([1.0, 1.0], 3)


@pytest.mark.parametrize("nodes", [1, 8, 24, 64])
def test_gauss_legendre_base_rule_is_cached_read_only(nodes):
    x, w = quadrature._leggauss(nodes)
    assert quadrature._leggauss(nodes)[0] is x
    want_x, want_w = np.polynomial.legendre.leggauss(nodes)
    assert np.array_equal(x, want_x) and np.array_equal(w, want_w)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    # the panels are new arrays, not views of the cached rule
    t, _ = gauss_legendre_panels([-1.0, 1.0], nodes)
    t[0] = 0.0
    assert np.array_equal(quadrature._leggauss(nodes)[0], want_x)


def test_graded_breaks():
    with pytest.raises(QuadratureError):
        graded_breaks(0.0)
    uniform = graded_breaks(1.0)
    assert uniform == [0.0, 0.25, 0.5, 0.75, 1.0]
    graded = graded_breaks(1.0, scale=1e-3)
    assert graded[0] == 0.0 and graded[1] == 1e-3 and graded[-1] == 1.0
    assert all(b < c for b, c in zip(graded, graded[1:]))
    # doubling panels: each step at most doubles
    ratios = [c / b for b, c in zip(graded[1:-1], graded[2:])]
    assert max(ratios) <= 2.0 + 1e-12


@pytest.mark.parametrize("scale", [0.0, -1e-3, math.inf, math.nan])
def test_graded_breaks_refuses_a_peak_scale_that_is_not_finite_and_positive(scale):
    # doubling from a scale <= 0 never reaches the upper end
    f = lambda x: np.ones(len(x))
    with pytest.raises(QuadratureError, match="peak scale"):
        graded_breaks(1.0, scale=scale)
    with pytest.raises(QuadratureError, match="peak scale"):
        radial_ball_integral(1, f, 1.0, peak_scale=scale)
    with pytest.raises(QuadratureError, match="peak scale"):
        BallQuadrature(1, 1.0, peak_scale=scale).integrate(f)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2 * PI2, rel=1e-15)
    assert sphere_area(2) == pytest.approx(math.pi**4 / 3, rel=1e-15)


def test_radial_ball_integral_polynomial():
    got = radial_ball_integral(1, lambda rho: rho**2, 1.0)
    assert got == pytest.approx(PI2 / 3, rel=1e-13)
    got = radial_ball_integral(2, lambda rho: np.ones_like(rho), 2.0)
    assert got == pytest.approx(math.pi**4 / 24 * 2**8, rel=1e-13)


def test_radial_ball_integral_peaked_fundamental():
    eps = 1e-4
    got = radial_ball_integral(
        1, lambda rho: 8.0 * eps / (rho * rho + eps) ** 3, 1.0, peak_scale=eps, nodes=32
    )
    want = float(fundamental_mass_exact(1, Fraction(1, 10000), 1)) * PI2
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("radius", [-1.0, 0.0, Fraction(-1, 2), math.nan])
def test_ball_rules_refuse_a_radius_that_is_not_positive(radius):
    # both rules square the radius; a negative one must not stand for |r|
    with pytest.raises(QuadratureError, match="ball radius must be positive"):
        radial_ball_integral(1, lambda rho: np.ones_like(rho), radius)
    with pytest.raises(QuadratureError, match="ball radius must be positive"):
        BallQuadrature(1, radius)


# ---------------------------------------------------------------------------
# Sobol directions


def test_sobol_sphere_deterministic():
    a = sobol_sphere(4, 6, seed=3)
    b = sobol_sphere(4, 6, seed=3)
    np.testing.assert_array_equal(a, b)
    c = sobol_sphere(4, 6, seed=4)
    assert np.abs(a - c).max() > 1e-3


def test_sobol_sphere_unit_norms():
    pts = sobol_sphere(8, 7, seed=0)
    assert pts.shape == (128, 8)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)


def test_sobol_sphere_antithetic_pairs():
    pts = sobol_sphere(4, 6, seed=1, antithetic=True)
    np.testing.assert_array_equal(pts[0::2], -pts[1::2])
    # every even prefix is centrally symmetric, so odd moments vanish exactly
    assert np.abs(pts[:32].sum(axis=0)).max() == 0.0
    with pytest.raises(ValueError):
        sobol_sphere(4, 0, antithetic=True)


def test_sobol_sphere_is_memoized_read_only():
    a = sobol_sphere(4, 5, 2, antithetic=True)
    assert sobol_sphere(4, 5, 2, antithetic=True) is a
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 0.0


def test_sobol_sphere_limits():
    with pytest.raises(DimensionError, match="MAX_N"):
        sobol_sphere(4 * MAX_N + 1, 4)
    # refused before any point is drawn
    with pytest.raises(ValueError, match="2\\*\\*30"):
        sobol_sphere(4, 31)
    with pytest.raises(ValueError, match="2\\*\\*30"):
        sobol_sphere(4, 32, antithetic=True)


@settings(max_examples=40)
@given(d=st.sampled_from([4, 8, 12]), m_pow=st.integers(1, 12),
       seed=st.integers(0, 2 ** 64 - 1), antithetic=st.booleans())
def test_sphere_rule_weights_sum_to_the_sphere_area(d, m_pow, seed, antithetic):
    dirs, weights = sphere_rule(d, m_pow, seed, antithetic)
    assert dirs.shape == (2 ** m_pow, d) and weights.shape == (2 ** m_pow,)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-12)
    assert (weights > 0).all()
    assert not dirs.flags.writeable and not weights.flags.writeable
    area = sphere_area(d // 4)
    assert abs(weights.sum() - area) <= 1e-15 * area


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_points_lie_in_the_closed_ball_along_unit_directions(n):
    r = 0.75
    dirs, pts = ball_points(n, r, 4096, 11)
    assert dirs.shape == pts.shape == (4096, 4 * n)
    assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-15
    assert np.linalg.norm(pts, axis=1).max() <= r
    # each point lies on its own direction
    assert np.allclose(pts, dirs * np.linalg.norm(pts, axis=1)[:, None], rtol=0, atol=1e-15)
    # uniform in volume: the fraction inside B(r/2) is 2^(-4n)
    inside = np.mean(np.linalg.norm(pts, axis=1) < r / 2)
    assert abs(inside - 0.5 ** (4 * n)) <= 4 * math.sqrt(0.5 ** (4 * n) / 4096)
    again = ball_points(n, r, 4096, 11)
    assert np.array_equal(again[0], dirs) and np.array_equal(again[1], pts)


def test_sphere_rule_refuses_a_single_direction():
    # halving_estimate would compare the rule with an empty leading half
    for antithetic in (False, True):
        with pytest.raises(ValueError, match="at least two directions"):
            sphere_rule(4, 0, 0, antithetic)


# ---------------------------------------------------------------------------
# the in-module Sobol engine, ndtri and brentq against the scipy calls they
# stand for (scipy is imported by the tests only)


@pytest.mark.parametrize("d", [4, 8, 12, 16, 32])
@pytest.mark.parametrize("m", [0, 1, 5, 9, 10, 11])
def test_scrambled_sobol_equals_scipy(d, m):
    for seed in range(6):
        want = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)
        assert np.array_equal(scrambled_sobol(d, m, seed), want)


def test_ndtri_equals_scipy():
    rng = np.random.default_rng(11)
    edge = 0.1353352832366127   # exp(-2), where Cephes switches branches
    edges = np.concatenate([np.nextafter(e, [0.0, 1.0]) for e in (edge, 1 - edge)])
    p = np.concatenate([
        rng.random(100_000),
        10.0 ** -rng.uniform(0, 12, 10_000),        # lower tail to 1e-12
        1 - 10.0 ** -rng.uniform(0, 12, 10_000),    # upper tail to 1 - 1e-12
        [edge, 1 - edge, 1e-12, 1 - 1e-12, 0.5], edges,
    ])
    assert np.array_equal(ndtri(p), scipy_ndtri(p))


def _quartic_ray(theta, level):
    """g(rho) = (normsq + x0^4)(rho theta) - level and its bracket, as the ray
    solvers build them."""
    phi = normsq(1) + Polynomial.coordinate(1, 0) ** 4
    g = lambda rho: phi.value(rho * theta) - level
    lo, hi = 1e-9, 1.0
    while g(lo) * g(hi) > 0:
        hi *= 2.0
    return g, lo, hi


@settings(max_examples=60)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(1e-3, 50.0))
def test_brentq_equals_scipy_on_ray_objectives(raw, level):
    theta = np.asarray(raw)
    norm = np.linalg.norm(theta)
    if norm < 1e-3:
        theta, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    g, lo, hi = _quartic_ray(theta / norm, level)
    # xtol = rtol = RAY_TOL, the pair of every ray solve, and xtol alone
    for tols in ({"xtol": 1e-13, "rtol": 1e-13}, {"xtol": 1e-12}):
        want = scipy_brentq(g, lo, hi, **tols)
        assert brentq(g, lo, hi, **tols) == want
        assert brentq(g, lo, hi, fa=g(lo), fb=g(hi), **tols) == want


def test_brentq_errors_match_scipy():
    gap = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5   # NaN at the first secant step
    for solver in (brentq, scipy_brentq):
        with pytest.raises(ValueError, match="NaN"):
            solver(gap, 0.0, 1.0)
        with pytest.raises(ValueError, match="different signs"):
            solver(lambda x: x, 1.0, 2.0)
    # passed-in end values are checked too: a NaN end is no bracket
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x, -1.0, 1.0, fa=math.nan)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: x, -1.0, 1.0, fb=math.nan)


def _per_entry(fns):
    """The objective of an array brentq call with one scalar function per
    entry."""
    return lambda x, entries: np.array([fns[e](v) for v, e in zip(x.tolist(), entries)])


def _unit(raw):
    theta = np.asarray(raw)
    norm = np.linalg.norm(theta)
    return theta / norm if norm >= 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])


@settings(max_examples=30)
@given(st.lists(st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                          st.floats(1e-3, 50.0)), min_size=1, max_size=8))
def test_array_brentq_equals_scalar_brentq_per_entry(cases):
    rays = [_quartic_ray(_unit(raw), level) for raw, level in cases]
    # an entry with a root at each end of its bracket
    rays += [(lambda x: x - 1.0, 1.0, 2.0), (lambda x: x - 1.0, 0.0, 1.0)]
    gs, los, his = (list(v) for v in zip(*rays))
    for tols in ({"xtol": 1e-13, "rtol": 1e-13}, {"xtol": 1e-12}):
        want = [brentq(g, lo, hi, **tols) for g, lo, hi in rays]
        got = brentq(_per_entry(gs), np.array(los), np.array(his), **tols)
        assert got.tolist() == want
        ends = {"fa": np.array([g(lo) for g, lo in zip(gs, los)]),
                "fb": np.array([g(hi) for g, hi in zip(gs, his)])}
        assert brentq(_per_entry(gs), np.array(los), np.array(his), **ends,
                      **tols).tolist() == want


def test_array_brentq_errors_match_the_scalar_call():
    gap = lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5   # NaN at the first secant step
    same_sign = lambda x: x
    # the failing entry comes after one that solves
    for fail, a, b, match in ((gap, 0.0, 1.0, "NaN"),
                              (same_sign, 1.0, 2.0, "different signs")):
        with pytest.raises(ValueError, match=match) as scalar:
            brentq(fail, a, b)
        with pytest.raises(ValueError, match=match) as batched:
            brentq(_per_entry([lambda x: x - 0.25, fail]), np.array([0.0, a]),
                   np.array([1.0, b]))
        assert str(batched.value) == str(scalar.value)
    # passed-in end values are checked too
    with pytest.raises(ValueError, match="NaN"):
        brentq(_per_entry([same_sign, same_sign]), np.array([-1.0, -1.0]),
               np.array([1.0, 1.0]), fa=np.array([-1.0, math.nan]))


# brackets on which Brent takes several steps in a row without a sign flip,
# so the step sizes it keeps between iterations steer its safeguards; on
# (x - 1)^3 at the tight tolerances scipy gives up after 100 iterations
_SLOW_BRACKETS = [
    (lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    (lambda x: (x - 1.0) ** 3, -2.0, 1.7),
    (lambda x: x ** 9 - 1e-3, -1.0, 4.0),
    (lambda x: x ** 9 - 0.3, 0.0, 2.0),
    (lambda x: x ** 20 - 1.0, 0.0, 1.3),
    (lambda x: math.cos(x) - x, 0.0, 1.5),
    (lambda x: math.atan(x - 0.7) + 0.01 * x, -5.0, 8.0),
]


def _root_or_error(solve):
    try:
        return solve()
    except RuntimeError:
        return "no convergence"


@pytest.mark.parametrize("tols", [{"xtol": 1e-13, "rtol": 1e-13}, {"xtol": 1e-12}, {}])
def test_brentq_equals_scipy_on_slow_brackets(tols):
    want = [_root_or_error(lambda: scipy_brentq(g, a, b, **tols))
            for g, a, b in _SLOW_BRACKETS]
    assert [_root_or_error(lambda: brentq(g, a, b, **tols))
            for g, a, b in _SLOW_BRACKETS] == want
    for (g, a, b), root in zip(_SLOW_BRACKETS, want):
        assert _root_or_error(lambda: brentq(_per_entry([g]), np.array([a]),
                                             np.array([b]), **tols)[0]) == root
    # the entries that converge, solved together
    solved = [k for k, root in enumerate(want) if root != "no convergence"]
    gs, los, his = zip(*(_SLOW_BRACKETS[k] for k in solved))
    got = brentq(_per_entry(gs), np.array(los), np.array(his), **tols)
    assert got.tolist() == [want[k] for k in solved]


def test_import_loads_no_scipy():
    # importing, and mollifying a grid (the last scipy user until it moved
    # to a numpy shifted sum), loads no scipy module
    code = ("import sys, qma, qma.cli; "
            "from qma.currents import mollify; from qma.fields import GridField, normsq; "
            "g = GridField.sample(normsq(1), [-0.5] * 4, 0.125, (9, 9, 9, 9)); "
            "assert mollify(g, 0.25).data.shape == (5, 5, 5, 5); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    # the child imports the qma this test imported
    env = dict(os.environ, PYTHONPATH=str(Path(quadrature.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# ball product rule


def test_ball_quadrature_radial_is_exact():
    rule = BallQuadrature(1, 1.0, sphere_pow=5, radial_nodes=8)
    val, err = rule.integrate(lambda pts: np.einsum("bi,bi->b", pts, pts))
    # the direction average of a radial integrand is constant, so the
    # half-set comparison only sees rounding noise
    assert err < 1e-14
    assert val == pytest.approx(PI2 / 3, rel=1e-13)


def test_ball_quadrature_polynomial():
    p = Polynomial.coordinate(1, 0) ** 4
    exact = float(integrate_polynomial_ball(p)) * PI2
    rule = BallQuadrature(1, 1.0, sphere_pow=11, radial_nodes=8, seed=2)
    val, err = rule.integrate(p.values)
    assert val == pytest.approx(exact, rel=5e-3)
    assert abs(val - exact) < 10 * max(err, 1e-6)


def test_ball_quadrature_center_shift():
    c = np.array([0.5, -0.25, 0.0, 1.0])
    rule = BallQuadrature(1, 0.75, center=c, sphere_pow=6, radial_nodes=8)
    val, _ = rule.integrate(lambda pts: np.ones(len(pts)))
    assert val == pytest.approx(PI2 / 2 * 0.75**4, rel=1e-12)
    val_x, _ = rule.integrate(lambda pts: pts[:, 3])
    # odd part cancels exactly by antithetic pairing; the mean is c_3 * vol
    assert val_x == pytest.approx(c[3] * PI2 / 2 * 0.75**4, rel=1e-12)


def test_ball_quadrature_chunking_consistent(monkeypatch):
    p = normsq(1) * normsq(1)
    rule = BallQuadrature(1, 1.0, sphere_pow=7, radial_nodes=8)
    big = rule.integrate(p.values)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 100)
    sizes = []
    small = rule.integrate(lambda pts: sizes.append(len(pts)) or p.values(pts))
    # 32 radial rows (4 panels of 8) of 128 directions, 100 nodes per call
    # across the rows
    assert sizes == [100] * 40 + [96]
    assert small == big


@st.composite
def _ball_integrands(draw):
    """A small BallQuadrature over H^n (n in {1, 2}) and an integrand: the
    Monge-Ampere density of an InvShift (eps >= 0, 0 included), of a
    quartic, or of a quadratic times a polynomial.  The pole sits 1/4 to 2
    outside the ball, off the nodes, where the density at eps = 0 is
    rounding noise small enough to come out real."""
    n = draw(st.sampled_from([1, 2]))
    d = 4 * n
    small = st.floats(-1.0, 1.0)
    center = np.array(draw(st.lists(small, min_size=d, max_size=d)))
    radius = draw(st.floats(0.125, 2.0))
    rule = BallQuadrature(n, radius, center=center,
                          peak_scale=draw(st.sampled_from([None, 1e-2])),
                          sphere_pow=draw(st.integers(1, 4)),
                          radial_nodes=draw(st.integers(1, 4)), seed=draw(st.integers(0, 3)))
    x0 = Polynomial.coordinate(n, 0)
    kind = draw(st.sampled_from(["invshift", "quartic", "quadratic"]))
    if kind == "invshift":
        way = np.array(draw(st.lists(small, min_size=d, max_size=d)))
        assume(np.linalg.norm(way) > 0.1)
        pole = center + (radius + draw(st.floats(0.25, 2.0))) * way / np.linalg.norm(way)
        u = InvShift(n, draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))), pole)
        return rule, lambda pts: ma_density(u, pts)
    if kind == "quartic":
        u = normsq(n) + x0 ** 4 * draw(st.fractions(-2, 2, max_denominator=4))
        return rule, lambda pts: ma_density(u, pts)
    u = normsq(n) * draw(st.floats(0.5, 2.0)) + x0 * x0
    v = x0 * x0 + Fraction(3, 2)
    return rule, lambda pts: ma_density(u, pts) * v.values(pts)


@settings(max_examples=40, deadline=None)
@given(_ball_integrands())
def test_ball_quadrature_gives_the_same_bytes_at_any_block_size(case):
    # every node block size gives the same bits, down to one node per call,
    # and no call sees more nodes than the block
    rule, fn = case
    got = set()
    for block in (1, quadrature._BLOCK_NODES, 10**9):
        sizes = []

        def counted(pts):
            sizes.append(len(pts))
            return fn(pts)

        with mock.patch.object(quadrature, "_BLOCK_NODES", block), \
                np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got.add(np.array(rule.integrate(counted)).tobytes())
        assert max(sizes) <= block
        assert sum(sizes) == len(rule.t_nodes) * len(rule.dirs)
    assert len(got) == 1


# ---------------------------------------------------------------------------
# surface rules


def test_sphere_rule_geometry():
    rule = SphereRule(1, 0.5, sphere_pow=8, seed=0)
    np.testing.assert_allclose(np.linalg.norm(rule.points, axis=1), 0.5, rtol=1e-12)
    assert rule.weights.sum() == pytest.approx(2 * PI2 * 0.5**3, rel=1e-12)


def test_sphere_rule_constant_and_moment():
    rule = SphereRule(1, 1.0, sphere_pow=11, seed=1)
    val, err = rule.integrate(lambda pts: np.ones(len(pts)))
    assert val == pytest.approx(2 * PI2, rel=1e-13)
    assert err < 1e-12
    val, err = rule.integrate(lambda pts: pts[:, 0] ** 2)
    assert val == pytest.approx(PI2 / 2, rel=5e-3)


def test_ellipsoid_rule_round_sphere():
    rule = EllipsoidRule(np.eye(4), np.zeros(4), level=0.49, sphere_pow=8, seed=0)
    np.testing.assert_allclose(np.linalg.norm(rule.points, axis=1), 0.7, rtol=1e-12)
    assert rule.weights.sum() == pytest.approx(2 * PI2 * 0.7**3, rel=1e-12)


def test_ellipsoid_rule_divergence_identity():
    # int_S x . n dS = d * vol for the enclosed region
    m = np.diag([1.0, 2.0, 4.0, 0.5])
    level = 1.3
    rule = EllipsoidRule(m, np.zeros(4), level, sphere_pow=11, seed=3)
    # the outward unit normal is along grad phi = 2 M x
    grad_dir = rule.points @ m.T
    normals = grad_dir / np.linalg.norm(grad_dir, axis=1)[:, None]
    flux = float(np.einsum("bi,bi->b", rule.points, normals) @ rule.weights)
    vol = PI2 / 2 * level**2 / math.sqrt(float(np.linalg.det(m)))
    assert flux == pytest.approx(4 * vol, rel=5e-3)


def test_ellipsoid_rule_guards():
    with pytest.raises(DegenerateLevelSetError):
        EllipsoidRule(np.diag([1.0, -1.0, 1.0, 1.0]), np.zeros(4), 1.0)
    with pytest.raises(DegenerateLevelSetError):
        EllipsoidRule(np.eye(4), np.zeros(4), 0.0)
    with pytest.raises(DimensionError):
        EllipsoidRule(np.eye(6), np.zeros(6), 1.0)


def test_star_shaped_rule_recovers_sphere():
    rule = StarShapedRule(normsq(1), level=0.25, sphere_pow=7, seed=0)
    np.testing.assert_allclose(np.linalg.norm(rule.points, axis=1), 0.5, rtol=1e-9)
    assert rule.weights.sum() == pytest.approx(2 * PI2 * 0.5**3, rel=1e-9)
    val, _ = rule.integrate(lambda pts: np.ones(len(pts)))
    assert val == pytest.approx(2 * PI2 * 0.125, rel=1e-9)


def test_star_shaped_rule_matches_ellipsoid():
    a = QMatrix([[Quaternion(2)]])
    u = quadform(a)
    star = StarShapedRule(u, level=1.0, sphere_pow=10, seed=5)
    ell = EllipsoidRule(0.5 * u.hessian(np.zeros(4)), np.zeros(4), 1.0, sphere_pow=10, seed=5)
    sa, _ = star.integrate(lambda pts: np.ones(len(pts)))
    ea, _ = ell.integrate(lambda pts: np.ones(len(pts)))
    assert sa == pytest.approx(ea, rel=2e-3)


def test_star_shaped_rule_brackets_every_ray():
    # the n = 2 quartic level set {|q|^2 + x0^4 = 1} crosses every ray
    # inside the unit sphere, on it only where theta_0 = 0, so the bracket
    # [1e-9, 1.0] of each ray holds its root or ends on it
    phi = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    for seed in (0, 1, 2, 3):
        rule = StarShapedRule(phi, 1.0, sphere_pow=10, seed=seed)
        np.testing.assert_allclose(phi.values(rule.points), 1.0, rtol=1e-11)
        radii = np.linalg.norm(rule.points, axis=1)
        assert radii.min() > 0.78 and radii.max() <= 1.0 + 1e-12


def test_star_shaped_rule_is_one_brentq_call_of_per_ray_scalar_roots(monkeypatch):
    # every ray is solved in one array brentq call, and each radius is the
    # float that a scalar brentq gives on that ray's own bracket
    phi = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    center, level, sphere_pow, seed = np.zeros(8), 1.0, 6, 1
    solve, calls = quadrature.brentq, []

    def counted(f, a, b, **kwargs):
        roots = solve(f, a, b, **kwargs)
        calls.append((a.copy(), b.copy(), roots.copy()))
        return roots

    monkeypatch.setattr(quadrature, "brentq", counted)
    rule = StarShapedRule(phi, level, sphere_pow=sphere_pow, seed=seed)
    assert len(calls) == 1
    lo, hi, radii = calls[0]
    dirs = sobol_sphere(8, sphere_pow, seed)
    assert len(radii) == len(dirs)
    assert np.array_equal(rule.points, center + radii[:, None] * dirs)
    for i, theta in enumerate(dirs):
        g = lambda rho: phi.values((center + rho * theta)[None])[0] - level
        a, b = 1e-9, 1.0
        while np.sign(g(a)) * np.sign(g(b)) > 0:
            b *= 2.0
        assert (lo[i], hi[i]) == (a, b)
        tols = {"xtol": 1e-13, "rtol": 1e-13}
        assert radii[i] == solve(g, a, b, **tols) == scipy_brentq(g, a, b, **tols)


def test_star_shaped_rule_guards():
    x0, x1 = Polynomial.coordinate(1, 0), Polynomial.coordinate(1, 1)
    # a quadratic that is not positive definite is no exhaustion
    for phi in (x0**2 - x1**2, -1 * normsq(1)):
        with pytest.raises(DegenerateLevelSetError, match="not an exhaustion"):
            StarShapedRule(phi, level=1.0, sphere_pow=4)
    # the quartic terms keep the Hessian at 0 indefinite, so the rays start
    # at 0; rays where |x1| > |x0| never reach {x0^2 - x1^2 - x1^4 = 1}
    with pytest.raises(DegenerateLevelSetError, match="does not cross"):
        StarShapedRule(x0**2 - x1**2 - x1**4, level=1.0, sphere_pow=4)
    down = -1 * normsq(1) - x0**4
    # -|q|^2 - x0^4 = 0.25 has no point at all
    with pytest.raises(DegenerateLevelSetError, match="does not cross"):
        StarShapedRule(down, level=0.25, sphere_pow=4)
    # -|q|^2 - x0^4 = -0.25 crosses every ray, but the gradient points in
    with pytest.raises(DegenerateLevelSetError, match="not outward"):
        StarShapedRule(down, level=-0.25, sphere_pow=4)


_SURFACE_KINDS = ["sphere", "ellipsoid", "star-shaped"]


def _surface_rule(kind, sphere_pow):
    """An n = 2 surface rule of each kind: a shifted sphere, a tilted
    ellipsoid and the level set {|q|^2 + x0^4 = 1}."""
    if kind == "sphere":
        return SphereRule(2, 0.75, np.full(8, 0.25), sphere_pow=sphere_pow, seed=1)
    if kind == "ellipsoid":
        m = np.diag([1.0, 2.0, 4.0, 0.5, 1.5, 3.0, 0.75, 1.0])
        return EllipsoidRule(m, np.zeros(8), 1.3, sphere_pow=sphere_pow, seed=3)
    phi = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    return StarShapedRule(phi, 1.0, sphere_pow=sphere_pow, seed=2)


@pytest.mark.parametrize("kind", _SURFACE_KINDS)
def test_surface_rules_hand_their_integrand_node_blocks(kind):
    # 2,048 nodes reach the integrand in blocks of at most _BLOCK_NODES, and
    # the (value, error) is that of one call on the whole node set
    rule = _surface_rule(kind, sphere_pow=11)
    assert len(rule.points) == 2048
    u = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    fn = lambda pts: ma_density(u, pts) * (1.0 + pts[:, 0])
    sizes = []
    got = rule.integrate(lambda pts: sizes.append(len(pts)) or fn(pts))
    assert max(sizes) <= quadrature._BLOCK_NODES
    assert sum(sizes) == len(rule.points)
    assert got == halving_estimate(fn(rule.points), rule.weights)


class _UncallableConstant(quadrature.Constant):
    __slots__ = ()

    def __call__(self, pts):
        raise AssertionError("a Constant integrand is filled, not called")


@pytest.mark.parametrize("kind", _SURFACE_KINDS)
def test_a_constant_integrates_on_every_surface_rule_without_a_call(kind):
    # the rule fills a Constant's nodes with its value instead of calling it
    rule = _surface_rule(kind, sphere_pow=8)
    val, err = rule.integrate(_UncallableConstant(2.5))
    assert (val, err) == halving_estimate(np.full(len(rule.points), 2.5), rule.weights)
    assert val == pytest.approx(2.5 * rule.weights.sum(), rel=1e-13)


@pytest.mark.parametrize("n, sphere_pow, seed", [(1, 5, 0), (1, 9, 4), (2, 7, 3)])
def test_rules_equal_their_inline_weight_oracles(n, sphere_pow, seed):
    # the ball, sphere and ellipsoid rules with the directions of
    # sobol_sphere and the weight |S^(d-1)| / N written out inline
    d = 4 * n
    dirs = sobol_sphere(d, sphere_pow, seed, antithetic=True)
    area = sphere_area(n)
    center = np.linspace(-0.5, 0.5, d)
    fn = lambda pts: 1.0 + pts[:, 0] ** 2 + pts[:, 1] ** 3 * pts[:, 2]

    radius = 0.75
    ball = BallQuadrature(n, radius, center=center, sphere_pow=sphere_pow,
                          radial_nodes=8, seed=seed)
    t, tw = gauss_legendre_panels(graded_breaks(radius ** 2), 8)
    pts = (center[None, None, :] + np.sqrt(t)[:, None, None] * dirs[None, :, :]).reshape(-1, d)
    per_dir = (tw * t ** (2 * n - 1)) @ fn(pts).reshape(len(t), len(dirs))
    weights = np.full(len(dirs), area * 0.5 / len(dirs))
    assert ball.integrate(fn) == halving_estimate(per_dir, weights)

    sphere = SphereRule(n, radius, center, sphere_pow=sphere_pow, seed=seed)
    weights = np.full(len(dirs), area * radius ** (d - 1) / len(dirs))
    assert sphere.integrate(fn) == halving_estimate(fn(center + radius * dirs), weights)

    a = np.random.default_rng(seed).standard_normal((d, d))
    m, level = a @ a.T + np.eye(d), 1.3
    ellipsoid = EllipsoidRule(m, center, level, sphere_pow=sphere_pow, seed=seed)
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    b = evecs @ np.diag(evals ** -0.5) @ evecs.T
    b_inv_t = evecs @ np.diag(evals ** 0.5) @ evecs.T
    root = math.sqrt(level)
    weights = ((area / len(dirs)) * float(np.prod(evals ** -0.5))
               * np.linalg.norm(dirs @ b_inv_t.T, axis=1) * root ** (d - 1))
    assert ellipsoid.integrate(fn) == halving_estimate(fn(center + root * dirs @ b.T), weights)


def test_rules_deterministic_in_seed():
    a = SphereRule(1, 1.0, sphere_pow=6, seed=9)
    b = SphereRule(1, 1.0, sphere_pow=6, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    qa = BallQuadrature(2, 1.0, sphere_pow=5, seed=9)
    qb = BallQuadrature(2, 1.0, sphere_pow=5, seed=9)
    np.testing.assert_array_equal(qa.dirs, qb.dirs)


def test_ball_quadrature_fundamental_density_mass():
    # graded panels + antithetic directions reproduce the exact regularized
    # mass over the ball at tight relative error
    eps = 1e-2
    rule = BallQuadrature(1, 1.0, peak_scale=eps, sphere_pow=7, radial_nodes=24)
    val, err = rule.integrate(lambda pts: fundamental_ma_density(1, eps, pts))
    want = float(fundamental_mass_exact(1, Fraction(1, 100), 1)) * PI2
    assert err < 1e-12  # the density is radial
    assert val == pytest.approx(want, rel=1e-10)
