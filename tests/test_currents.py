"""Regularized currents: masses, profiles, Stokes checks, mollification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import ndimage

from qma import currents, quadrature
from qma.calculus import d_scalar, hoisted
from qma.cli import parse_field_expr
from qma.errors import DimensionError
from qma.exterior import ExtElement, beta, indices_to_mask
from qma.fields import GridField, InvShift, Polynomial, invshift, normsq, quadform
from qma.hamilton import QMatrix, Quaternion
from qma.monge_ampere import fundamental_mass_exact, ma_density
from qma.currents import (
    RadialProfile,
    RegularizedCurrent,
    bt_product,
    bump_field,
    cln_ratio,
    convergence_suite,
    integration_by_parts_residual,
    lelong_number,
    mollifier_weights,
    mollify,
    positivity_pairing_min,
    shell_identity_check,
    sigma_mass,
    stokes_check,
    wedge_top_density,
)
from test_calculus import form_at

PI2 = math.pi**2
PI4 = math.pi**4


# ---------------------------------------------------------------------------
# construction and densities


def _unit(n):
    """The 0-current with density 1."""
    return RegularizedCurrent(n, (), ExtElement.scalar(n, 1))


def beta_power_current(n, k):
    """beta^k as a constant-coefficient positive current."""
    return RegularizedCurrent(n, (), beta(n).wedge_power(k))


def test_unit_and_beta_power_densities():
    pts1 = np.zeros((3, 4))
    np.testing.assert_allclose(_unit(1).trace_density(pts1), 1.0)
    pts2 = np.zeros((3, 8))
    np.testing.assert_allclose(_unit(2).trace_density(pts2), 2.0)
    np.testing.assert_allclose(
        beta_power_current(2, 1).trace_density(pts2), 2.0
    )
    np.testing.assert_allclose(beta_power_current(2, 2).density(pts2), 2.0)


def test_laplace_current_density_matches_ma():
    rng = np.random.default_rng(1)
    u = normsq(1)
    pts = rng.standard_normal((5, 4))
    t = RegularizedCurrent.from_laplace(u)
    np.testing.assert_allclose(t.density(pts), 8.0, rtol=1e-12)
    np.testing.assert_allclose(t.density(pts), ma_density(u, pts), rtol=1e-12)


def test_trace_density_pads_with_beta():
    # Delta |q|^2 ^ beta = 8 beta ^ beta, top coefficient 16 at n = 2
    t = RegularizedCurrent.from_laplace(normsq(2))
    pts = np.random.default_rng(2).standard_normal((4, 8))
    np.testing.assert_allclose(t.trace_density(pts), 16.0, rtol=1e-12)
    # wedging the constant beta in explicitly gives the same top density
    t2 = t.wedge_constant(beta(2))
    np.testing.assert_allclose(t2.density(pts), 16.0, rtol=1e-12)


def test_bt_product_recovers_density():
    rng = np.random.default_rng(3)
    u = normsq(2)
    t = bt_product(u, RegularizedCurrent.from_laplace(u))
    pts = rng.standard_normal((5, 8))
    np.testing.assert_allclose(t.density(pts), ma_density(u, pts), rtol=1e-11)
    with pytest.raises(DimensionError):
        bt_product(u, t)


def test_current_guards():
    u = normsq(1)
    with pytest.raises(DimensionError):
        RegularizedCurrent(1, (u, u))  # degree 4 > 2n
    with pytest.raises(DimensionError):
        RegularizedCurrent(1, (normsq(2),))
    with pytest.raises(DimensionError):
        RegularizedCurrent(1, (), ExtElement(1, 1, {indices_to_mask((0,)): 1}))
    with pytest.raises(DimensionError):
        RegularizedCurrent.from_laplace(normsq(2)).density(np.zeros((1, 8)))
    with pytest.raises(DimensionError):
        RegularizedCurrent.from_laplace(normsq(2)).trace_density(np.zeros((1, 8)), pad=3)


def test_current_form_matches_symbolic():
    u = normsq(1)
    t = RegularizedCurrent.from_laplace(u)
    f = t.form()
    assert form_at(f, np.zeros(4)) == beta(1) * 8


def test_wedge_top_density_guards():
    with pytest.raises(ValueError):
        wedge_top_density(1, {0: 1.0}, [])
    dm = np.zeros((2, 2, 2), dtype=complex)
    with pytest.raises(DimensionError):
        wedge_top_density(1, {0b01: 1.0}, [dm])


# ---------------------------------------------------------------------------
# masses and ratios


def test_sigma_mass_constant_current_exact():
    value, error = sigma_mass(beta_power_current(1, 1), np.zeros(4), 1.0)
    assert error == 0.0
    assert value == pytest.approx(PI2 / 2, rel=1e-12)


def test_sigma_mass_quadratic_potential():
    t = RegularizedCurrent.from_laplace(normsq(1))
    value, error = sigma_mass(t, np.zeros(4), 1.0)
    assert value == pytest.approx(4 * PI2, rel=1e-10)
    assert error < 1e-9


def test_sigma_mass_fundamental_family():
    eps = 1e-2
    t = RegularizedCurrent.from_laplace(invshift(1, eps))
    value, _ = sigma_mass(t, np.zeros(4), 1.0)
    want = float(fundamental_mass_exact(1, Fraction(1, 100), 1)) * PI2
    assert value == pytest.approx(want, rel=1e-9)


def _ball_route(current, a, r):
    """sigma_mass by the product rule on 2^8 directions, whatever the
    current: the rule every current took before the one-ray tier."""
    p = (2 * current.n - current.degree) // 2
    peak_scale = min((u.eps if u.eps > 0 else 1e-6 for u in current.potentials
                      if isinstance(u, InvShift)), default=None)
    quad = quadrature.BallQuadrature(current.n, r, center=a, peak_scale=peak_scale,
                                     sphere_pow=8, radial_nodes=16)
    return quad.integrate(hoisted(current.potentials,
                                  lambda pts: current.trace_density(pts, pad=p)))


@settings(max_examples=20)
@given(n=st.sampled_from([1, 2, 3]), data=st.data(), r=st.floats(0.05, 2.0))
def test_radial_tier_matches_the_ball_rule(n, data, r):
    # 1..n InvShift potentials sharing a center a: sigma_mass integrates
    # them on one ray, and must give the ball rule's value.  eps is 0 or at
    # least 1e-3: the ball rule refines its radial panels down to eps, one
    # panel per halving, and takes seconds a call below that
    eps = data.draw(st.lists(st.just(0.0) | st.floats(1e-3, 0.5), min_size=1,
                             max_size=n))
    a = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n,
                                    max_size=4 * n)))
    # (laplace u)^n of the eps = 0 kernel vanishes off its pole: both rules
    # read rounding noise there, which the ball rule's imaginary-residue
    # check refuses at n = 3
    assume(len(eps) < n or max(eps) > 0)
    t = RegularizedCurrent(n, [invshift(n, e, center=a) for e in eps])
    assert t.radial_about(a)
    value, error = sigma_mass(t, a, r)
    want, _ = _ball_route(t, a, r)
    assert error == 0.0
    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


@pytest.fixture
def ball_rules(monkeypatch):
    """The arguments of every BallQuadrature that ``currents`` builds."""
    built = []
    real = quadrature.BallQuadrature

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(currents, "BallQuadrature", counting)
    return built


_OFF = np.zeros(8)
_OFF[1] = 0.3


@pytest.mark.parametrize("current, radial", [
    (RegularizedCurrent.from_laplace(invshift(2, 0.001, center=_OFF)), False),
    (RegularizedCurrent.from_laplace(normsq(2) + Polynomial.coordinate(2, 0) ** 4), False),
    (RegularizedCurrent.from_laplace(invshift(2, 0.001) + normsq(2)), False),
    (RegularizedCurrent(2, (invshift(2, 0.001),), beta(2)), False),
    (RegularizedCurrent.from_laplace(invshift(2, 0.001)), True),
], ids=["off-center", "quartic", "composite", "constant", "invshift"])
def test_sigma_mass_builds_a_ball_rule_only_off_the_radial_tier(ball_rules, current,
                                                                radial):
    a = np.zeros(8)
    value, error = sigma_mass(current, a, 0.5)
    assert current.radial_about(a) is radial
    assert len(ball_rules) == (0 if radial else 1)
    if not radial:
        # the ball route keeps every bit
        assert (value, error) == _ball_route(current, a, 0.5)


def test_an_off_center_tiny_eps_grades_as_eps_zero(monkeypatch):
    # the pole at 0 is off a = 0.1 e_0: eps = 1e-300 grades no finer than
    # 1e-6, the 21 t-panels of eps = 0 on [0, 1], where it built 998
    panels = []
    real = quadrature.BallQuadrature

    def counting(*args, **kwargs):
        quad = real(*args, **kwargs)
        panels.append(len(quad.t_nodes) // kwargs["radial_nodes"])
        return quad

    monkeypatch.setattr(currents, "BallQuadrature", counting)
    a = np.zeros(8)
    a[0] = 0.1
    tiny, _ = sigma_mass(RegularizedCurrent.from_laplace(invshift(2, 1e-300)), a, 1.0)
    zero, _ = sigma_mass(RegularizedCurrent.from_laplace(invshift(2, 0.0)), a, 1.0)
    assert panels == [21, 21]
    assert abs(tiny - zero) <= 1e-12 * abs(zero)


def test_cln_ratio_keeps_the_ball_rule(ball_rules):
    # the potentials of the cln benchmark run are not radial: one ball
    # rule per call, and the ratio is the ball rule's norm over the sampled
    # sup norms, to the bit
    fields = [parse_field_expr("normsq() + x0^4", 2),
              parse_field_expr("quadform([2, (0,1,0,0); (0,-1,0,0), 3])", 2)]
    ratio = cln_ratio(fields, 0.5, 1.0, sphere_pow=8, radial_nodes=16)
    assert len(ball_rules) == 1
    norm, _ = _ball_route(RegularizedCurrent(2, fields), np.zeros(8), 0.5)
    dirs, inside = quadrature.ball_points(2, 1.0, 4096, 1)
    block = np.concatenate([dirs, inside, np.zeros((1, 8))])
    assert ratio == norm / math.prod(float(np.abs(u.values(block)).max()) for u in fields)


def test_cln_norm_and_ratio():
    # the CLN norm is sigma_mass over the inner ball
    norm, _ = sigma_mass(RegularizedCurrent.from_laplace(normsq(1)), np.zeros(4), 0.5)
    ratio = cln_ratio([normsq(1)], 0.5, 1.0)
    # mass over B(1/2) is pi^2/4 and the sampled sup over the closed unit
    # ball is 1 up to rounding
    assert norm == pytest.approx(PI2 / 4, rel=1e-10)
    assert ratio == pytest.approx(norm, rel=1e-12)
    # scale invariance of the normalized ratio
    assert cln_ratio([3 * normsq(1)], 0.5, 1.0) == pytest.approx(ratio, rel=1e-10)


def test_cln_ratio_guards():
    with pytest.raises(ValueError):
        cln_ratio([], 0.5, 1.0)
    with pytest.raises(ValueError):
        cln_ratio([normsq(1)], 2.0, 1.0)
    with pytest.raises(ValueError):
        cln_ratio([Polynomial(1)], 0.5, 1.0)
    # the sup-norm sample includes the center, where -1/|q|^2 has its pole
    with pytest.raises(ValueError, match="not finite"):
        cln_ratio([invshift(1)], 0.5, 1.0)


def test_cln_ratio_draws_no_sobol_set_beyond_its_ball_rule(monkeypatch):
    # the sup norms are a max over ball_points; only sigma_mass's antithetic
    # ball rule (sphere_pow directions, built on a half set) asks for Sobol
    asked = []
    real = quadrature.sobol_sphere

    def recording(d, m_pow, *args):
        asked.append(m_pow)
        return real(d, m_pow, *args)

    monkeypatch.setattr(quadrature, "sobol_sphere", recording)
    cln_ratio([normsq(2)], 0.5, 1.0, sphere_pow=5, seed=3)
    assert asked and set(asked) <= {5, 4}


# ---------------------------------------------------------------------------
# Lelong profiles


def test_radial_profile_monotone_violations():
    radii = np.array([0.25, 0.5, 1.0])
    ok = RadialProfile(radii, np.array([1.0, 1.1, 1.3]), np.zeros(3))
    assert ok.monotone_violations() == []
    dip = RadialProfile(radii, np.array([1.0, 0.9, 1.0]), np.full(3, 0.01))
    assert dip.monotone_violations(slack=3.0) == [0]
    assert dip.monotone_violations(slack=10.0) == []
    # NaN > x is False; a pair touching a non-finite value or error must
    # still count as a violation
    nan = RadialProfile(radii, np.array([1.0, np.nan, 1.3]), np.zeros(3))
    assert nan.monotone_violations() == [0, 1]
    wild = RadialProfile(radii, np.array([1.0, 1.1, np.inf]), np.array([0.0, 0.0, np.nan]))
    assert wild.monotone_violations() == [1]
    # rounding noise on a vanishing measure is no dip (the allowance is
    # absolute below 1); a dip of 1e-9 relative on a large profile still is
    noise = RadialProfile(radii, np.array([-1.7e-20, -2.0e-19, -1.8e-18]),
                          np.array([4e-21, 3e-20, 2.8e-19]))
    assert noise.monotone_violations() == []
    big = RadialProfile(radii, np.array([1e6, 1e6 - 1e-3, 1e6]), np.zeros(3))
    assert big.monotone_violations() == [0]


def test_lelong_number_of_unit_current():
    profile, nu = lelong_number(_unit(1), np.zeros(4))
    np.testing.assert_allclose(profile.values, PI2 / 2, rtol=1e-12)
    np.testing.assert_allclose(profile.errors, 0.0, atol=0)
    assert nu == pytest.approx(PI2 / 2, rel=1e-12)
    assert profile.monotone_violations() == []


def test_lelong_number_smooth_current_vanishes_at_small_radii():
    # sigma(0, r)/r^4 for the smooth current Delta |q|^2 at n = 2 scales like
    # r^4: the profile heads to zero, as for any smooth density
    t = RegularizedCurrent.from_laplace(normsq(2))
    profile, nu = lelong_number(t, np.zeros(8), radii=[0.5, 1.0], sphere_pow=6,
                                radial_nodes=10)
    want = 2 * PI4 / 3
    np.testing.assert_allclose(profile.values, [want / 16, want], rtol=1e-10)
    assert nu == pytest.approx(want / 16, rel=1e-10)
    assert profile.monotone_violations() == []


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_lelong_profile_of_invshift_has_its_closed_form(n, eps):
    """About its center the normalized mass of laplace(invshift(eps)) is

        2 (n - 1)! |S^(4n-1)| (r^2/(r^2 + eps))^2.

    Stokes turns the mass on B(r) into a sphere flux, which gives the
    dependence on r; the constant 2 (n - 1)! was fitted to computed
    profiles, not derived."""
    radii = [0.125, 0.25, 0.5, 1.0]
    t = RegularizedCurrent.from_laplace(invshift(n, eps))
    profile, _ = lelong_number(t, np.zeros(4 * n), radii)
    r2 = np.asarray(radii) ** 2
    want = 2 * math.factorial(n - 1) * quadrature.sphere_area(n) * (r2 / (r2 + eps)) ** 2
    np.testing.assert_allclose(profile.values, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(profile.errors, 0.0)


def test_lelong_number_guards():
    with pytest.raises(ValueError):
        lelong_number(_unit(1), np.zeros(4), radii=[0.0, 1.0])


def test_shell_identity_two_radii():
    # for T = Delta |q|^2 at n = 2 both sides equal 16 pi^4/3 (r2^4 - r1^4)
    t = RegularizedCurrent.from_laplace(normsq(2))
    resid = shell_identity_check(t, np.zeros(8), 0.5, 1.0, sphere_pow=7,
                                 radial_nodes=16)
    scale = 16 * PI4 / 3 * (1 - 0.5**4)
    assert resid < 1e-8 * scale
    assert shell_identity_check(t, np.zeros(8), 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        shell_identity_check(t, np.zeros(8), 0.0, 1.0)
    with pytest.raises(ValueError):
        shell_identity_check(t, np.zeros(8), 1.0, 0.5)


@pytest.mark.parametrize("current, sphere_pow, radial_nodes, bound", [
    # a radial current: both sides exact up to rounding (scale 200)
    (RegularizedCurrent.from_laplace(invshift(2, 0.3)), 7, 16, 1e-12),
    # the unit current, p = n: (laplace K)^2 vanishes off the pole, and
    # both sides are 0 (scale 520)
    (_unit(2), 7, 16, 1e-13),
    # a current that is not radial: the residual is the angular error of
    # the direction set (scale 524)
    (RegularizedCurrent.from_laplace(normsq(2) + Polynomial.coordinate(2, 0) ** 4),
     9, 24, 0.013),
], ids=["invshift", "unit", "quartic"])
def test_shell_identity_on_more_currents(current, sphere_pow, radial_nodes, bound):
    resid = shell_identity_check(current, np.zeros(8), 0.5, 1.0, sphere_pow=sphere_pow,
                                 radial_nodes=radial_nodes)
    assert resid < bound


def test_shell_identity_hands_the_density_node_blocks(monkeypatch):
    # both sides are sigma_mass calls, so the density sees at most
    # _BLOCK_NODES rows at a time, not a whole direction set per radial node
    rows = []
    density = RegularizedCurrent.trace_density

    def recording(self, pts, pad=None):
        rows.append(len(pts))
        return density(self, pts, pad)

    monkeypatch.setattr(RegularizedCurrent, "trace_density", recording)
    t = RegularizedCurrent.from_laplace(normsq(2))
    resid = shell_identity_check(t, np.zeros(8), 0.5, 1.0, sphere_pow=11, radial_nodes=2)
    assert max(rows) == quadrature._BLOCK_NODES
    assert resid < 1e-8 * 16 * PI4 / 3 * (1 - 0.5**4)


# ---------------------------------------------------------------------------
# Stokes-type checks


def test_bump_field_shape():
    b = bump_field(1)
    assert isinstance(b, Polynomial)
    assert b.value([0, 0, 0, 0]) == 1
    assert b.value([Fraction(1), 0, 0, 0]) == 0
    np.testing.assert_allclose(b.gradient([1.0, 0, 0, 0]), np.zeros(4), atol=1e-14)
    np.testing.assert_allclose(b.hessian([0.0, 1.0, 0, 0]), np.zeros((4, 4)), atol=1e-14)


def test_stokes_check_exact_polynomials():
    h = bump_field(1)
    t = d_scalar(normsq(1), 1)
    assert stokes_check(h, t) == 0.0
    rng = np.random.default_rng(4)
    poly = Polynomial(1, {(1, 1, 0, 0): Fraction(2), (0, 0, 2, 0): Fraction(-1)})
    assert stokes_check(h * poly, d_scalar(poly * normsq(1), 0)) == 0.0


def test_stokes_check_degree_guard():
    with pytest.raises(DimensionError):
        stokes_check(bump_field(1), d_scalar(normsq(2), 0))


def test_integration_by_parts_exact():
    assert integration_by_parts_residual([normsq(1)]) == 0.0
    diag = QMatrix([[Quaternion(2), Quaternion(0)], [Quaternion(0), Quaternion(1)]])
    assert integration_by_parts_residual([normsq(2), quadform(diag)]) == 0.0
    assert integration_by_parts_residual([normsq(2)]) == 0.0  # k < n pads with beta


def test_integration_by_parts_numeric():
    # radial data keeps the product rule exact in the directions; the
    # trace_density lane builds no symbolic form, and its float is pinned
    resid = integration_by_parts_residual([invshift(1, 1.0)], radial_nodes=20)
    assert resid < 1e-8
    assert resid == 2.220446049250313e-16


def test_symbolic_form_refuses_non_polynomial_potentials():
    with pytest.raises(TypeError, match="InvShift has no symbolic derivative"):
        RegularizedCurrent.from_laplace(invshift(2, 0.1)).form()


def test_integration_by_parts_guards():
    with pytest.raises(DimensionError):
        integration_by_parts_residual([])
    with pytest.raises(DimensionError):
        integration_by_parts_residual([normsq(1), normsq(1)])


def test_positivity_pairing():
    pts = np.random.default_rng(5).standard_normal((16, 8))
    t = RegularizedCurrent.from_laplace(normsq(2))
    assert positivity_pairing_min(t, pts, trials=8) >= -1e-9
    top = beta_power_current(2, 2)
    assert positivity_pairing_min(top, pts, trials=2) == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# mollification


def test_mollifier_weights_normalized_and_symmetric():
    w = mollifier_weights(0.125, 0.3)
    assert w.sum() == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(w, w[::-1, ::-1, ::-1, ::-1], atol=0)
    with pytest.raises(ValueError):
        mollifier_weights(0.125, 0.2)


def kernel_second_moment(spacing, eps):
    """sum_o w_o |o|^2 of the discrete mollifier (the exact constant added
    to |q|^2 by mollification)."""
    w = mollifier_weights(spacing, eps)
    m = (w.shape[0] - 1) // 2
    axis = spacing * np.arange(-m, m + 1)
    g = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"))
    return float(np.sum(w * np.sum(g * g, axis=0)))


def test_mollify_adds_kernel_second_moment_to_normsq():
    spacing, eps = 0.125, 0.3
    grid = GridField.sample(normsq(1), origin=[-1.0] * 4, spacing=spacing,
                            shape=(17, 17, 17, 17))
    mol = mollify(grid, eps)
    m2 = kernel_second_moment(spacing, eps)
    assert m2 > 0
    x = np.array([0.25, -0.125, 0.0, 0.375])
    assert mol.value(x) == pytest.approx(float(normsq(1).value(x)) + m2, abs=1e-12)
    np.testing.assert_allclose(mol.hessian(x), 2 * np.eye(4), atol=1e-9)
    # domain shrank by the kernel margin on each face
    margin = (mollifier_weights(spacing, eps).shape[0] - 1) // 2
    assert mol.data.shape == tuple(17 - 2 * margin for _ in range(4))
    np.testing.assert_allclose(mol.origin, grid.origin + margin * spacing)


@pytest.mark.parametrize("shape,eps", [((17,) * 4, 0.3), ((13,) * 4, 0.25)])
def test_mollify_equals_scipy_convolve_on_the_interior(shape, eps):
    # the shifted sum against scipy's constant-mode convolution trimmed by
    # the kernel margin, on a field with no symmetry of its own
    x = [Polynomial.coordinate(1, m) for m in range(3)]
    u = x[0] ** 3 - 2 * x[1] * x[2] + invshift(1, 0.5)
    grid = GridField.sample(u, origin=[-1.0] * 4, spacing=0.125, shape=shape)
    w = mollifier_weights(0.125, eps)
    margin = (w.shape[0] - 1) // 2
    want = ndimage.convolve(grid.data, w, mode="constant")
    want = want[tuple(slice(margin, s - margin) for s in shape)]
    assert np.array_equal(mollify(grid, eps).data, want)


def test_mollify_guards():
    with pytest.raises(TypeError):
        mollify(normsq(1), 0.3)
    tiny = GridField.sample(normsq(1), origin=[-0.2] * 4, spacing=0.1, shape=(5, 5, 5, 5))
    with pytest.raises(ValueError):
        mollify(tiny, 0.2)


# ---------------------------------------------------------------------------
# convergence pairings


def test_convergence_suite_scaling_sequence():
    u = normsq(1)
    seq = [(1 + Fraction(1, j)) * u for j in (1, 2, 4, 8)]
    report = convergence_suite([seq], [u])
    assert report.indices == [0, 1, 2, 3]
    devs = report.deviations
    assert all(a > b for a, b in zip(devs, devs[1:]))
    # deviation scales like 1/j
    assert devs[1] / devs[0] == pytest.approx(0.5, rel=1e-9)
    assert devs[3] / devs[0] == pytest.approx(0.125, rel=1e-9)
    assert report.pairings[-1] == pytest.approx(report.limit_pairing
                                                + devs[-1], abs=2e-9 * abs(report.limit_pairing))


def test_convergence_suite_rejects_increasing_sequence():
    u = normsq(1)
    with pytest.raises(ValueError):
        convergence_suite([[u, 2 * u]], [u])
    with pytest.raises(ValueError):
        convergence_suite([], [])
    with pytest.raises(ValueError):
        convergence_suite([[u, u], [u]], [u, u])
