"""Boundary measures, the Lelong-Jensen identity, and the smooth-max ramp."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from qma.calculus import nabla_matrices, z_field
from qma.errors import (DegenerateLevelSetError, DimensionError,
                        NumericalInconsistencyError)
from qma.fields import ClosedForm, Polynomial, normsq, quadform
from qma.hamilton import QMatrix, Quaternion
from qma.monge_ampere import ma_density
from qma.quadrature import (StarShapedRule, gauss_legendre_panels,
                            halving_estimate, integrate_polynomial_ball,
                            sobol_sphere, sphere_area, translate_polynomial)
from qma import potential, quadrature
from qma.potential import (
    boundary_mass_residual,
    boundary_measure_density,
    lelong_jensen,
    smooth_max_family,
    sublevel_integral,
    surface_integral,
)
from test_fields import _TILTED

PI2 = math.pi**2
PI4 = math.pi**4


# ---------------------------------------------------------------------------
# normal frames and boundary density


def test_normal_frame_is_conjugate_coordinate_frame():
    # the frame n_{i alpha} of boundary_measure_density is row i of
    # nabla_matrices applied to the unit normal; for |q|^2 that is the
    # conjugate coordinate of the normal
    rng = np.random.default_rng(1)
    for n in (1, 2):
        x = rng.standard_normal(4 * n)
        grad = normsq(n).gradients(x[None])[0]
        unit = grad / np.linalg.norm(grad)
        np.testing.assert_allclose(unit, x / np.linalg.norm(x), rtol=1e-12)
        for alpha, v in enumerate(nabla_matrices(n)):
            for i in range(2 * n):
                want = complex(z_field(n, i, alpha).value(unit)).conjugate()
                assert v[i] @ unit == pytest.approx(want, rel=1e-12)


def test_normal_frame_degenerate():
    # one point of a batch where the gradient, and so the normal, vanishes
    pts = np.vstack([sobol_sphere(8, 3, seed=0), np.zeros((1, 8))])
    with pytest.raises(DegenerateLevelSetError, match="vanishing gradient"):
        boundary_measure_density(normsq(2), pts)


@pytest.mark.parametrize("n,radius", [(1, 1.0), (1, 0.5), (2, 1.0), (2, 0.25)])
def test_boundary_density_of_normsq(n, radius):
    # on the sphere of radius s the density is 2 (n-1)! 8^(n-1) s
    pts = radius * sobol_sphere(4 * n, 5, seed=2)
    dens = boundary_measure_density(normsq(n), pts)
    want = 2.0 * math.factorial(n - 1) * 8.0 ** (n - 1) * radius
    np.testing.assert_allclose(dens, want, rtol=1e-10)


def test_boundary_density_degenerate():
    with pytest.raises(DegenerateLevelSetError):
        boundary_measure_density(normsq(1), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# surface and sublevel quadrature


def test_exhaustion_center_of_any_positive_quadratic_polynomial():
    x0 = Polynomial.coordinate(2, 0)
    eye = np.eye(8)
    for phi, m, const, round_ in [(2 * normsq(2), 2 * eye, 0.0, True),
                                  (normsq(2) + 1, eye, 1.0, True),
                                  (normsq(2) + x0 * x0, np.diag([2.0] + [1.0] * 7), 0.0, False)]:
        center, got_const, got_m = quadrature.exhaustion_center(phi)
        assert np.array_equal(center, np.zeros(8))
        assert np.array_equal(got_m, m) and got_const == const
        assert potential._round(got_m) == round_
    # translating a form keeps the bytes of M and moves the center to c
    c = np.array([0.5, -1.0, 0.0, 2.0, -0.25, 0.75, 1.5, -3.0])
    for phi in (normsq(2), quadform(_TILTED[2])):
        _, _, m = quadrature.exhaustion_center(phi)
        center, const, got_m = quadrature.exhaustion_center(translate_polynomial(phi, -c))
        assert got_m.tobytes() == m.tobytes()
        np.testing.assert_allclose(center, c, rtol=0, atol=1e-12)
        assert abs(const) < 1e-12


def test_exhaustion_center_refuses_a_quadratic_that_is_not_an_exhaustion():
    # a quadratic part that is not positive definite has unbounded sublevel
    # sets; a higher degree has no M, and normsq + x0^4 its minimum at 0
    x0 = Polynomial.coordinate(2, 0)
    for phi in (x0 * x0,                      # singular
                normsq(2) - 2 * x0 * x0):     # indefinite
        with pytest.raises(DegenerateLevelSetError, match="not an exhaustion"):
            quadrature.exhaustion_center(phi)
    center, const, m = quadrature.exhaustion_center(normsq(2) + x0 ** 4)   # degree 4
    assert m is None and np.array_equal(center, np.zeros(8)) and const == 0.0


@pytest.mark.parametrize("phi", [normsq(2) + 1,
                                 translate_polynomial(normsq(2) + Polynomial.coordinate(2, 0) ** 4,
                                                      -np.full(8, 0.5))],
                         ids=["quadratic", "translated-quartic"])
def test_exhaustion_center_is_solved_once_per_polynomial(monkeypatch, phi):
    # Newton runs on the first call only; every later call returns the same
    # read-only arrays
    calls = []
    hessians = Polynomial.hessians
    monkeypatch.setattr(Polynomial, "hessians",
                        lambda self, pts: calls.append(len(pts)) or hessians(self, pts))
    first = quadrature.exhaustion_center(phi)
    steps = len(calls)
    assert steps >= 1
    for _ in range(3):
        again = quadrature.exhaustion_center(phi)
        assert len(calls) == steps
        assert all(x is y for x, y in zip(again, first))
    a, _, m = first
    assert (m is None) == (phi.degree() > 2)
    for arr in (a,) if m is None else (a, m):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1.0


def _positive_quadratic(n, entries, diagonal):
    """x^T M x with M = A A^T + diag(diagonal), A read row-major from entries."""
    d = 4 * n
    a = np.asarray(entries[:d * d]).reshape(d, d)
    m = a @ a.T + np.diag(diagonal[:d])
    terms = {}
    for i in range(d):
        for j in range(i, d):
            expo = [0] * d
            expo[i] += 1
            expo[j] += 1
            terms[tuple(expo)] = m[i, i] if i == j else 2 * m[i, j]
    return Polynomial(n, terms)


_ENTRIES = st.lists(st.floats(-1.0, 1.0), min_size=64, max_size=64)
_DIAGONAL = st.lists(st.floats(0.1, 2.0), min_size=8, max_size=8)
_VECTOR = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)


@settings(max_examples=25)
@given(n=st.sampled_from([1, 2]), entries=_ENTRIES, diagonal=_DIAGONAL,
       linear=_VECTOR, const=st.floats(-2.0, 2.0))
def test_quadratic_center_is_the_center_solve_it_replaces(n, entries, diagonal, linear, const):
    # the one Newton step from 0 is the solve of -2 M a = grad phi(0), M
    # half the Hessian at 0, with the same bits; the sum 0 + step turns a
    # -0.0 of the solve into 0.0
    phi = _positive_quadratic(n, entries, diagonal) + const
    for i, b in enumerate(linear[:4 * n]):
        phi = phi + Polynomial.coordinate(n, i) * b
    zero = np.zeros(4 * n)
    m = 0.5 * phi.hessian(zero)
    want = np.linalg.solve(-2.0 * m, phi.gradient(zero))
    center, got_const, got_m = quadrature.exhaustion_center(phi)
    assert center.tobytes() == (zero + want).tobytes()
    assert got_m.tobytes() == m.tobytes()
    assert got_const == float(phi.value(want))


@settings(max_examples=25)
@given(n=st.sampled_from([1, 2]), entries=_ENTRIES, diagonal=_DIAGONAL,
       quartic=st.lists(st.floats(0.0, 2.0), min_size=8, max_size=8), c=_VECTOR)
def test_newton_finds_the_center_of_a_translated_convex_quartic(n, entries, diagonal,
                                                                quartic, c):
    # x^T M x + sum k_i x_i^4 with k_i >= 0 has its minimum at 0, so the
    # same polynomial translated by c has it at c
    phi = _positive_quadratic(n, entries, diagonal)
    for i, k in enumerate(quartic[:4 * n]):
        phi = phi + Polynomial.coordinate(n, i) ** 4 * k
    c = np.asarray(c[:4 * n])
    center, _, m = quadrature.exhaustion_center(translate_polynomial(phi, -c))
    assert (m is None) == any(quartic[:4 * n])
    np.testing.assert_allclose(center, c, rtol=0, atol=1e-10)


def _ones(pts):
    return np.ones(len(pts))


def test_surface_integral_sphere_path():
    value, error = surface_integral(normsq(1), 1.0, _ones)
    assert value == pytest.approx(2 * PI2, rel=1e-12)
    assert error < 1e-10
    value, _ = surface_integral(normsq(1), 0.25, _ones)
    assert value == pytest.approx(2 * PI2 * 0.5**3, rel=1e-12)


def test_surface_integral_empty_level():
    with pytest.raises(DegenerateLevelSetError):
        surface_integral(normsq(1), -1.0, _ones)


def test_surface_integral_ellipsoid_matches_star_shaped_rule():
    a = QMatrix([[Quaternion(1), Quaternion(0)], [Quaternion(0), Quaternion(2)]])
    phi = quadform(a)
    exact_rule, _ = surface_integral(phi, 1.0, _ones, sphere_pow=10)
    # the same level set through the star-shaped rule; direction error
    # dominates on anisotropic surfaces, so use a full set
    star, _ = StarShapedRule(phi, 1.0, sphere_pow=10).integrate(_ones)
    assert star == pytest.approx(exact_rule, rel=2e-3)


def test_surface_integral_star_shaped_on_radial_quartic():
    # phi = |q|^2 + |q|^4/4 has the unit sphere as its level set at 1.25
    u = normsq(1)
    phi = u + u * u * 0.25
    value, error = surface_integral(phi, 1.25, _ones, sphere_pow=5)
    assert value == pytest.approx(2 * PI2, rel=2e-3)
    assert error < 0.05 * value


def test_sublevel_integral_ball_path():
    val, err = sublevel_integral(normsq(1), 1.0, lambda pts: np.ones(len(pts)))
    assert val == pytest.approx(PI2 / 2, rel=1e-12)
    val, err = sublevel_integral(
        normsq(1), 1.0, lambda pts: np.einsum("bi,bi->b", pts, pts))
    assert val == pytest.approx(PI2 / 3, rel=1e-12)
    assert sublevel_integral(normsq(1), -2.0, lambda pts: np.ones(len(pts))) == (0.0, 0.0)


@pytest.mark.parametrize("eps", [1e-5, 1e-6])
def test_sublevel_integral_of_a_nearly_round_quadratic(eps):
    # |q|^2 + eps x1^2 is not round; the ball rule with the radius of
    # M[0, 0] would be off by about eps / 2, so it takes the ellipsoid path
    phi = normsq(1) + eps * Polynomial.coordinate(1, 1) ** 2
    val, _ = sublevel_integral(phi, 1.0, _ones)
    assert val == pytest.approx(PI2 / 2 / math.sqrt(1 + eps), rel=1e-12)


def test_sublevel_integral_ray_path():
    u = normsq(1)
    phi = u + u * u * 0.25
    val, err = sublevel_integral(phi, 1.25, lambda pts: np.ones(len(pts)),
                                 sphere_pow=5)
    assert val == pytest.approx(PI2 / 2, rel=1e-10)
    assert sublevel_integral(phi, -1.0, lambda pts: np.ones(len(pts)),
                             sphere_pow=5) == (0.0, 0.0)


def test_ray_rules_raise_when_a_ray_misses_the_level_set():
    # {x0^2 - x1^2 - x1^4 = 1} does not meet the rays with
    # |theta_0| <= |theta_1|; the Hessian at 0 is indefinite, so the rays
    # start at 0
    x0, x1 = Polynomial.coordinate(1, 0), Polynomial.coordinate(1, 1)
    phi = x0 * x0 - x1 * x1 - x1 ** 4
    with pytest.raises(DegenerateLevelSetError, match="does not cross"):
        sublevel_integral(phi, 1.0, lambda pts: np.ones(len(pts)), sphere_pow=4)
    with pytest.raises(DegenerateLevelSetError, match="does not cross"):
        surface_integral(phi, 1.0, _ones, sphere_pow=4)


@pytest.mark.parametrize("nan_from, nan_to", [
    (0.9, math.inf),   # NaN at the bracket's upper end
    (0.0, 1e-6),       # NaN at the bracket's lower end
    (0.4, 0.6),        # NaN around the root, met by an inner iterate
])
def test_ray_rules_refuse_a_nan_field_value(nan_from, nan_to):
    # |q|^2, except NaN for nan_from < |q| < nan_to; the level 1/4 crosses
    # every ray at |q| = 1/2
    def value(x):
        r = math.sqrt(float(x @ x))
        return math.nan if nan_from < r < nan_to else r * r

    phi = ClosedForm(1, value)
    with pytest.raises(NumericalInconsistencyError, match="sample ray 0"):
        sublevel_integral(phi, 0.25, lambda pts: np.ones(len(pts)), sphere_pow=4)
    with pytest.raises(NumericalInconsistencyError, match="sample ray 0"):
        StarShapedRule(phi, 0.25, sphere_pow=4)


# the per-ray loops that the batched ray solve replaced, kept as the oracle:
# each (ray, level) root is bracketed on its own from hi = 1.0, and phi is
# evaluated as the ray engine evaluates it, through phi.values

def _oracle_ray_root(phi, level, center, theta, r_hint=1.0):
    g = lambda rho: phi.values((center + rho * theta)[None])[0] - level
    lo, hi = 1e-9, r_hint
    glo = g(lo)
    ghi = g(hi)
    grow = 0
    while glo * ghi > 0:
        hi *= 2.0
        ghi = g(hi)
        grow += 1
        if grow > 60:
            raise DegenerateLevelSetError("level set does not cross a sample ray")
    return brentq(g, lo, hi, xtol=1e-13, rtol=1e-13)


def _oracle_coarea_shell(phi, r, fn, delta, center, sphere_pow, seed, radial_nodes):
    """(1/2 delta) * integral of fn |grad phi| over {r - delta < phi < r + delta},
    ray by ray: a surface integral over {phi = r} up to an O(delta^2) bias."""
    d = 4 * phi.n
    dirs = sobol_sphere(d, sphere_pow, seed)
    w_dir = sphere_area(phi.n) / len(dirs)
    total = 0.0
    for theta in dirs:
        lo = _oracle_ray_root(phi, r - delta, center, theta)
        hi = _oracle_ray_root(phi, r + delta, center, theta)
        rho, w = gauss_legendre_panels([lo, hi], radial_nodes)
        pts = center[None, :] + rho[:, None] * theta[None, :]
        gnorm = np.linalg.norm(phi.gradients(pts), axis=1)
        vals = np.asarray(fn(pts), dtype=float)
        total += w_dir * float(np.sum(w * vals * gnorm * rho ** (d - 1)))
    return total / (2 * delta)


def _oracle_sublevel(phi, t, fn, sphere_pow, seed=0, radial_nodes=12):
    d = 4 * phi.n
    center, _, _ = quadrature.exhaustion_center(phi)
    dirs = sobol_sphere(d, sphere_pow, seed)
    contrib = np.empty(len(dirs))
    for i, theta in enumerate(dirs):
        edge = _oracle_ray_root(phi, t, center, theta)
        rho, w = gauss_legendre_panels([0.0, edge], radial_nodes)
        pts = center[None, :] + rho[:, None] * theta[None, :]
        vals = np.asarray(fn(pts), dtype=float)
        contrib[i] = float(np.sum(w * vals * rho ** (d - 1)))
    return halving_estimate(contrib, np.full(len(dirs), sphere_area(phi.n) / len(dirs)))


def _oracle_chain_radii(phi, levels, center, dirs):
    """The earlier bracket chain: the first level of a ray starts from the
    previous ray's last root (1.0 on the first ray), each later level from
    max(that, 1.5 * this ray's previous root)."""
    radii = np.empty((len(dirs), len(levels)))
    hint = 1.0
    for i, theta in enumerate(dirs):
        start = hint
        for k, level in enumerate(levels):
            radii[i, k] = _oracle_ray_root(phi, level, center, theta, start)
            start = max(hint, radii[i, k] * 1.5)
        hint = radii[i, -1]
    return radii


def _radial_quartic():
    # level 1.25 is the unit sphere
    u = normsq(1)
    return u + u * u * 0.25, 1.25


def _shifted_quartic():
    # the benchmark's non-quadratic exhaustion normsq() + x0^4 at n = 2
    x0 = Polynomial.coordinate(2, 0)
    return normsq(2) + x0 * x0 * x0 * x0, 1.0


# a translation of the benchmark quartic, with its minimum at _SHIFT
_SHIFT = np.array([0.25, -0.5, 0.125, 0.0, 0.375, -0.25, 0.0, 0.5])


def _translated_quartic():
    phi, level = _shifted_quartic()
    return translate_polynomial(phi, -_SHIFT), level


def _integrand(kind, phi):
    n = phi.n
    v = Polynomial.coordinate(n, 0) * Polynomial.coordinate(n, 0) + 1.5
    if kind == "ones":
        return lambda pts: np.ones(len(pts))
    if kind == "polynomial":
        return (v * Polynomial.coordinate(n, 1) + 2).values
    return lambda pts: ma_density(phi, pts) * v.values(pts)


@pytest.mark.parametrize("geometry,sphere_pow", [(_radial_quartic, 5),
                                                 (_shifted_quartic, 5),
                                                 (_shifted_quartic, 6),
                                                 (_translated_quartic, 5)])
@pytest.mark.parametrize("kind", ["ones", "polynomial", "ma_density"])
def test_ray_rules_match_per_ray_oracle(monkeypatch, geometry, sphere_pow, kind):
    phi, level = geometry()
    fn = _integrand(kind, phi)
    want_sub = _oracle_sublevel(phi, level, fn, sphere_pow)
    # a level set that is not a sphere or an ellipsoid takes the star-shaped rule
    want_surf = StarShapedRule(phi, level, sphere_pow=sphere_pow).integrate(fn)
    # any node block size gives the same bits, down to one node per call
    for block in (quadrature._BLOCK_NODES, 1, 10**9):
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
        assert sublevel_integral(phi, level, fn, sphere_pow=sphere_pow) == want_sub
        assert surface_integral(phi, level, fn, sphere_pow=sphere_pow) == want_surf


def test_star_shaped_surface_rule_is_the_limit_of_coarea_shells():
    # the co-area shells at delta, delta/2 and delta/4 converge at O(delta^2)
    # on the same directions, towards the star-shaped rule's value
    phi, r = _shifted_quartic()
    fn = _integrand("ma_density", phi)
    center, delta = np.zeros(4 * phi.n), r * 1e-2
    shells = [_oracle_coarea_shell(phi, r, fn, delta / 2**k, center, 5, 0, 8)
              for k in range(3)]
    coarse_gap, fine_gap = abs(shells[1] - shells[0]), abs(shells[2] - shells[1])
    assert 3.9 < coarse_gap / fine_gap < 4.1
    star, _ = surface_integral(phi, r, fn, sphere_pow=5)
    assert abs(shells[2] - star) <= fine_gap


def test_sublevel_integral_maps_a_tilted_quadform_onto_the_ball():
    # a non-round quadratic form takes the ball rule through y -> B y,
    # B = M^(-1/2): its sublevel set at 1 has volume pi^4 / 24 / sqrt(det M)
    phi = quadform(_TILTED[2])
    m = 0.5 * phi.hessian(np.zeros(8))
    assert np.linalg.det(m) == pytest.approx(625.0, rel=1e-12)
    volume, error = sublevel_integral(phi, 1.0, _ones)
    assert volume == pytest.approx(PI4 / 24 / 25, rel=1e-13) and error < 1e-13
    assert sublevel_integral(phi, 0.0, _ones) == (0.0, 0.0)
    # a degree-2 polynomial against the exact ball integral of its pullback
    # p(B y) det B, up to the angular rule's error
    b, _, det_b = quadrature.ellipsoid_map(m)
    ys = [Polynomial.coordinate(2, j) for j in range(8)]
    xs = [sum((ys[j] * float(b[i, j]) for j in range(1, 8)), ys[0] * float(b[i, 0]))
          for i in range(8)]
    poly = lambda x: x[0] * x[0] + x[1] * x[5] * 3 + x[2] * x[6] + x[3] + 1.5
    x = [Polynomial.coordinate(2, i) for i in range(8)]
    want = float(integrate_polynomial_ball(poly(xs))) * PI4 * det_b
    got, _ = sublevel_integral(phi, 1.0, poly(x).values)
    assert got == pytest.approx(want, rel=1e-3)


class _UncallableConstant(quadrature.Constant):
    def __call__(self, pts):
        raise AssertionError("a Constant integrand is filled, not called")


def test_a_constant_passes_through_the_ellipsoid_pullback():
    # y -> a + B y does not wrap a Constant, so block_values still fills it
    phi = quadform(_TILTED[2])
    got = sublevel_integral(phi, 1.0, _UncallableConstant(1.5))
    assert got == sublevel_integral(phi, 1.0, lambda pts: np.full(len(pts), 1.5))
    assert got[0] == pytest.approx(1.5 * PI4 / 24 / 25, rel=1e-13)


@pytest.mark.parametrize("geometry,sphere_pow", [(_radial_quartic, 5),
                                                 (_shifted_quartic, 5),
                                                 (_shifted_quartic, 6)])
def test_ray_radii_agree_with_the_bracket_chain(geometry, sphere_pow):
    # another bracket gives Brent other iterates: the roots agree to twice
    # the solver's tolerance, not in every bit
    phi, r = geometry()
    center = np.zeros(4 * phi.n)
    dirs = sobol_sphere(4 * phi.n, sphere_pow, 0)
    delta = r * 1e-2
    levels = [*gauss_legendre_panels([0.0, r], 8)[0], r - delta, r + delta]
    got = potential._ray_radii(phi, levels, center, dirs)
    want = _oracle_chain_radii(phi, levels, center, dirs)
    assert np.all(np.abs(got - want) <= 2 * (1e-13 + 1e-13 * want))


@settings(max_examples=25)
@given(n=st.sampled_from([1, 2]), axis=st.integers(0, 7), c=st.floats(0.0, 4.0),
       shift=st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8),
       levels=st.lists(st.floats(0.1, 4.0), min_size=1, max_size=5, unique=True))
def test_ray_radii_equal_the_scalar_solve_of_each_entry(n, axis, c, shift, levels):
    # phi = normsq + c x_k^4 is convex along every ray, and phi(center) < 0.1
    # stays below every level, so each (ray, level) entry has one root
    x = Polynomial.coordinate(n, axis % (4 * n))
    phi = normsq(n) + x * x * x * x * c
    center = np.asarray(shift[:4 * n])
    levels = sorted(levels)
    dirs = sobol_sphere(4 * n, 3, 0)
    got = potential._ray_radii(phi, levels, center, dirs)
    want = [[_oracle_ray_root(phi, t, center, theta) for t in levels] for theta in dirs]
    assert got.tolist() == want
    # solving the levels together changes no bit of any one level
    for k, t in enumerate(levels):
        assert potential._ray_radii(phi, [t], center, dirs)[:, 0].tolist() == got[:, k].tolist()


def test_lelong_jensen_solves_all_layered_levels_at_once(monkeypatch):
    # off the ball path: one ray solve per rule, the t_nodes layered levels
    # in one of them, and one direction set per rule
    phi, r = _radial_quartic()
    v = Polynomial.coordinate(1, 0) * Polynomial.coordinate(1, 0) + 1.5
    solved, drawn = [], []
    ray_radii, sobol = potential._ray_radii, quadrature.sobol_sphere

    def counted_radii(phi, levels, center, dirs):
        solved.append(len(levels))
        return ray_radii(phi, levels, center, dirs)

    def counted_sobol(*args, **kwargs):
        drawn.append(args)
        return sobol(*args, **kwargs)

    monkeypatch.setattr(potential, "_ray_radii", counted_radii)
    # every rule draws its directions through quadrature.sphere_rule
    monkeypatch.setattr(quadrature, "sobol_sphere", counted_sobol)
    lelong_jensen(phi, v, r, t_nodes=12, sphere_pow=4, radial_nodes=4)
    # the interior and spatial terms, the layered term; the surface rule
    # solves its rays in quadrature
    assert solved == [1, 1, 12]
    # the surface rule, the interior and spatial terms, the layered term
    assert len(drawn) == 4


def test_lelong_jensen_builds_each_direction_set_once(monkeypatch):
    # a round quadratic takes one BallQuadrature per layered level; every
    # rule asks for its directions, and each distinct set is built once
    phi = normsq(1)
    v = Polynomial.coordinate(1, 0) * Polynomial.coordinate(1, 0) + 1.5
    cached = quadrature.sobol_sphere
    asked = []

    def recorded(*args, **kwargs):
        asked.append((args, tuple(sorted(kwargs.items()))))
        return cached(*args, **kwargs)

    # sphere_rule, and each antithetic set for its base set, ask through
    # quadrature's name
    monkeypatch.setattr(quadrature, "sobol_sphere", recorded)
    cached.cache_clear()
    lelong_jensen(phi, v, 1.0, t_nodes=12, sphere_pow=4, radial_nodes=4)
    info = cached.cache_info()
    assert info.misses == len(set(asked))
    assert info.hits == len(asked) - len(set(asked)) >= 12


@pytest.mark.parametrize("block", [None, 100])
def test_ray_rules_call_the_integrand_once_per_block(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", block)
    block = quadrature._BLOCK_NODES
    phi, level = _radial_quartic()
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return np.ones(len(pts))

    # 32 rays of 12 sublevel nodes; the surface rule's 32 points in one call
    sublevel_integral(phi, level, fn, sphere_pow=5, radial_nodes=12)
    assert sizes == [min(block, 384 - s) for s in range(0, 384, block)]
    sizes.clear()
    surface_integral(phi, level, fn, sphere_pow=5)
    assert sizes == [32]


# ---------------------------------------------------------------------------
# Lelong-Jensen


def test_lelong_jensen_self_pairing_n1():
    phi = normsq(1)
    report = lelong_jensen(phi, phi, 1.0)
    want = 4 * PI2 / 3
    assert report.boundary_term == pytest.approx(4 * PI2, rel=1e-10)
    assert report.interior_term == pytest.approx(8 * PI2 / 3, rel=1e-10)
    assert report.lhs == pytest.approx(want, rel=1e-8)
    assert report.rhs_spatial == pytest.approx(want, rel=1e-8)
    assert report.rhs_layered == pytest.approx(want, rel=1e-8)
    assert report.residual_spatial < 1e-8 * want
    assert report.residual_layered < 1e-8 * want
    assert abs(report.rhs_spatial - report.rhs_layered) < 1e-8 * want
    assert set(report.errors) == {"boundary", "interior", "spatial", "layered"}


def test_lelong_jensen_self_pairing_n2():
    phi = normsq(2)
    report = lelong_jensen(phi, phi, 1.0, t_nodes=24)
    want = 16 * PI4 / 15
    assert report.lhs == pytest.approx(want, rel=1e-7)
    assert report.rhs_spatial == pytest.approx(want, rel=1e-7)
    assert report.rhs_layered == pytest.approx(want, rel=1e-7)


def test_lelong_jensen_constant_potential():
    phi = normsq(1)
    v = Polynomial.constant(1, 3)
    report = lelong_jensen(phi, v, 1.0)
    # laplace of a constant vanishes, so both right-hand sides are zero and
    # the left side reduces to 3x the boundary-mass identity
    assert report.rhs_spatial == 0.0
    assert report.rhs_layered == 0.0
    assert abs(report.lhs) < 1e-8


def test_lelong_jensen_linear_potential():
    phi = normsq(1)
    v = Polynomial.coordinate(1, 0)
    report = lelong_jensen(phi, v, 1.0)
    # odd integrands cancel exactly on the paired direction sets
    assert report.rhs_spatial == 0.0
    assert report.rhs_layered == 0.0
    assert abs(report.boundary_term) < 1e-10
    assert abs(report.interior_term) < 1e-10
    assert abs(report.lhs) < 1e-10


def test_lelong_jensen_is_translation_invariant():
    # every rule starts from the minimum of phi, so the benchmark's quartic
    # and v, both translated by _SHIFT, give every term of the report
    x0 = Polynomial.coordinate(2, 0)
    phi, v = normsq(2) + x0 ** 4, x0 * x0 + 1.5
    opts = {"sphere_pow": 6, "radial_nodes": 8, "t_nodes": 8}
    base = lelong_jensen(phi, v, 1.0, **opts)
    moved = lelong_jensen(translate_polynomial(phi, -_SHIFT),
                          translate_polynomial(v, -_SHIFT), 1.0, **opts)
    for name in ("boundary_term", "interior_term", "lhs", "rhs_spatial", "rhs_layered",
                 "residual_spatial", "residual_layered"):
        assert getattr(moved, name) == pytest.approx(getattr(base, name), rel=1e-12)
    for name, err in base.errors.items():
        assert moved.errors[name] == pytest.approx(err, rel=1e-12)


def test_lelong_jensen_layers_a_tilted_quartic_from_its_minimum():
    # normsq + x0^4 + 4 x0 has its minimum -2.157 at x0 = -0.835: the layers
    # below phi(0) = 0 belong to the layered term, which then agrees with
    # the spatial term within their summed estimates
    x0 = Polynomial.coordinate(2, 0)
    phi = normsq(2) + x0 ** 4 + x0 * 4
    report = lelong_jensen(phi, x0 * x0 + 1.5, 1.0, sphere_pow=13, radial_nodes=16)
    gap = abs(report.rhs_layered - report.rhs_spatial)
    assert gap <= report.errors["layered"] + report.errors["spatial"]


def test_lelong_jensen_dimension_guard():
    with pytest.raises(DimensionError):
        lelong_jensen(normsq(1), normsq(2), 1.0)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0])
def test_boundary_mass_residual_normsq(r):
    resid, mu1, interior = boundary_mass_residual(normsq(1), r)
    assert mu1 == pytest.approx(4 * PI2 * r * r, rel=1e-10)
    assert interior == pytest.approx(mu1, rel=1e-9)
    assert resid < 1e-8 * mu1


@pytest.mark.parametrize("geometry", ["round", "tilted", "off-center", "quartic"])
def test_boundary_mass_residual_is_the_unit_potential_of_lelong_jensen(geometry):
    # the boundary and interior terms of the identity at V = 1, bit for bit,
    # on the sphere, ellipsoid and star-shaped rules
    x0 = Polynomial.coordinate(1, 0)
    phi, r = {"round": (normsq(1), 1.0),
              "tilted": (quadform(_TILTED[2]), 1.0),
              "off-center": (normsq(1) + x0 * x0 + x0 * 8, -6.0),
              "quartic": _radial_quartic()}[geometry]
    opts = {"sphere_pow": 5, "radial_nodes": 6, "seed": 2}
    resid, mu1, interior = boundary_mass_residual(phi, r, **opts)
    report = lelong_jensen(phi, Polynomial.constant(phi.n, 1), r, t_nodes=4, **opts)
    assert (mu1, interior) == (report.boundary_term, report.interior_term)
    assert resid == abs(report.lhs)


# ---------------------------------------------------------------------------
# smooth max family


def test_smooth_max_family_ramp_shape():
    phi = normsq(1)
    r, l = 1.0, 4
    chi = smooth_max_family(phi, r, l)
    f = chi.f
    lo, hi = r - 1.0 / l, r + 1.0 / l
    ts = np.linspace(-1.0, 3.0, 801)
    vals = f(ts)
    # equals the two asymptotes outside the blending window
    np.testing.assert_allclose(vals[ts <= lo], r, atol=0)
    np.testing.assert_allclose(vals[ts >= hi], ts[ts >= hi], atol=0)
    # sits above max(t, r) and is continuous at the seams
    assert (vals >= np.maximum(ts, r) - 1e-12).all()
    assert f(lo) == pytest.approx(r, abs=1e-12)
    assert f(hi) == pytest.approx(hi, abs=1e-12)
    # slope in [0, 1], curvature >= 0
    d1 = chi.d1(ts)
    d2 = chi.d2(ts)
    assert (d1 >= 0).all() and (d1 <= 1 + 1e-12).all()
    assert (d2 >= 0).all()
    assert chi.d1(lo) == pytest.approx(0.0, abs=1e-12)
    assert chi.d1(hi) == pytest.approx(1.0, abs=1e-12)


def test_smooth_max_family_decreases_in_index():
    phi = normsq(1)
    ts = np.linspace(0.0, 2.0, 401)
    f4 = smooth_max_family(phi, 1.0, 4).f
    f8 = smooth_max_family(phi, 1.0, 8).f
    f16 = smooth_max_family(phi, 1.0, 16).f
    assert (f4(ts) >= f8(ts) - 1e-12).all()
    assert (f8(ts) >= f16(ts) - 1e-12).all()
    # pointwise limit is max(t, r)
    assert np.abs(f16(ts) - np.maximum(ts, 1.0)).max() <= 2.0 / 16


def test_smooth_max_family_field_values():
    phi = normsq(1)
    chi = smooth_max_family(phi, 1.0, 4)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((20, 4))
    np.testing.assert_allclose(chi.values(pts), chi.f(phi.values(pts)), rtol=1e-14)
    x = pts[0]
    assert chi.value(x) == pytest.approx(float(chi.f(phi.value(x))), rel=1e-14)
    with pytest.raises(ValueError):
        smooth_max_family(phi, 1.0, 0)
