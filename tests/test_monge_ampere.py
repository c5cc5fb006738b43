"""Monge-Ampere densities, the Hessian bridge, and the fundamental family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from qma.cli import parse_field_expr
from qma.errors import DimensionError, NumericalInconsistencyError
from qma.fields import ClosedForm, InvShift, Polynomial, invshift, normsq, quadform
from qma.hamilton import (
    QMatrix,
    Quaternion,
    jmatrix,
    mixed_discriminant,
    moore_det,
    random_hyperhermitian,
)
from qma.monge_ampere import (
    _hessian_components,
    _qmatrix,
    fundamental_ma_density,
    fundamental_mass_exact,
    fundamental_mass_limit_coefficient,
    ma_density,
    mixed_ma,
    moore_equivalence_residual,
    perfect_matchings,
    psh_test,
    tau_hessians,
)
from qma.calculus import delta_from_hessians, delta_matrices, delta_matrix
from qma.quadrature import ball_moment_coefficient, sphere_moment_coefficient


def hyperhermitian_hessian(u, x):
    """The n x n hyperhermitian Hessian of u at x (quaternion entries): row 0
    of the batched read-off."""
    return _qmatrix(_hessian_components(u, np.asarray(x, dtype=float)[None])[0])


def psh_quadratic(rng, n):
    """A strictly positive hyperhermitian quadratic form."""
    a = random_hyperhermitian(rng, n)
    ta = a.tau()
    lo = float(np.linalg.eigvalsh(ta).min())
    shift = Quaternion(max(0.0, -lo) + 0.5)
    bump = QMatrix([[shift if i == j else Quaternion(0) for j in range(n)]
                    for i in range(n)])
    return quadform(a + bump)


# ---------------------------------------------------------------------------
# matchings


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 15)])
def test_perfect_matchings_count(n, count):
    ms = perfect_matchings(n)
    assert len(ms) == count
    for pairs, sign in ms:
        assert sign in (-1, 1)
        flat = [v for p in pairs for v in p]
        assert sorted(flat) == list(range(2 * n))
        assert all(a < b for a, b in pairs)
        assert list(p[0] for p in pairs) == sorted(p[0] for p in pairs)


def test_perfect_matchings_identity_sign():
    ms = dict(perfect_matchings(2))
    assert ms[((0, 1), (2, 3))] == 1
    assert ms[((0, 2), (1, 3))] == -1
    assert ms[((0, 3), (1, 2))] == 1


def test_perfect_matchings_cap():
    with pytest.raises(DimensionError):
        perfect_matchings(9)


# ---------------------------------------------------------------------------
# densities


@pytest.mark.parametrize("n", [1, 2, 3])
def test_density_of_normsq(n):
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((7, 4 * n))
    want = 8.0**n * math.factorial(n)
    np.testing.assert_allclose(ma_density(normsq(n), pts), want, rtol=1e-12)


def test_density_of_diagonal_quadratic():
    a = QMatrix([[Quaternion(2), Quaternion(0)], [Quaternion(0), Quaternion(3)]])
    u = quadform(a)
    pts = np.random.default_rng(2).standard_normal((5, 8))
    want = 8.0**2 * math.factorial(2) * 6.0
    np.testing.assert_allclose(ma_density(u, pts), want, rtol=1e-12)


def _hessian_field(n, hessians):
    """A ClosedForm whose only batched oracle is the given Hessian callable."""
    return ClosedForm(n, lambda x: 0.0, hessians_fn=hessians)


def test_density_from_hessians_matches():
    rng = np.random.default_rng(3)
    u = psh_quadratic(rng, 2)
    pts = rng.standard_normal((6, 8))
    np.testing.assert_allclose(
        ma_density(_hessian_field(2, u.hessians), pts), ma_density(u, pts), rtol=1e-13
    )


def test_density_rejects_nonreal_input():
    rng = np.random.default_rng(4)
    fake = rng.standard_normal((4, 8, 8))  # not symmetric: not a Hessian
    field = _hessian_field(2, lambda pts: fake)
    with pytest.raises(NumericalInconsistencyError, match="non-real"):
        ma_density(field, np.zeros((4, 8)))


def test_mixed_ma_diagonal_recovers_density():
    rng = np.random.default_rng(5)
    u = psh_quadratic(rng, 2)
    pts = rng.standard_normal((6, 8))
    np.testing.assert_allclose(mixed_ma([u, u], pts), ma_density(u, pts), rtol=1e-11)


def test_mixed_ma_symmetric_and_multilinear():
    rng = np.random.default_rng(6)
    u, v, w = (psh_quadratic(rng, 2) for _ in range(3))
    pts = rng.standard_normal((5, 8))
    np.testing.assert_allclose(mixed_ma([u, v], pts), mixed_ma([v, u], pts), rtol=1e-11)
    lhs = mixed_ma([u + v, w], pts)
    rhs = mixed_ma([u, w], pts) + mixed_ma([v, w], pts)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_mixed_ma_matches_mixed_discriminant():
    # for quadratics with matrices A_i the polarized density is
    # 8^n n! times the mixed discriminant of the A_i
    rng = np.random.default_rng(7)
    n = 2
    mats = [random_hyperhermitian(rng, n) for _ in range(n)]
    fields = [quadform(a) for a in mats]
    pts = rng.standard_normal((4, 4 * n))
    want = 8.0**n * math.factorial(n) * float(mixed_discriminant(*mats))
    np.testing.assert_allclose(mixed_ma(fields, pts), want, rtol=1e-9)


def test_mixed_ma_guards():
    u = normsq(2)
    with pytest.raises(DimensionError):
        mixed_ma([u], np.zeros((1, 8)))
    with pytest.raises(DimensionError):
        mixed_ma([u, normsq(1)], np.zeros((1, 8)))


# ---------------------------------------------------------------------------
# the Hessian bridge


def test_hyperhermitian_hessian_of_quadratic():
    rng = np.random.default_rng(8)
    a = random_hyperhermitian(rng, 2)
    h = hyperhermitian_hessian(quadform(a), np.zeros(8))
    np.testing.assert_allclose(h.tau(), 8.0 * a.tau(), atol=1e-10)


def test_tau_hessians_match_pointwise_embedding():
    rng = np.random.default_rng(9)
    u = psh_quadratic(rng, 2) + Polynomial.coordinate(2, 0) ** 3
    pts = rng.standard_normal((5, 8))
    th = tau_hessians(u, pts)
    defect = np.abs(th - np.conj(np.swapaxes(th, 1, 2))).max()
    assert defect < 1e-10
    for t, x in enumerate(pts):
        np.testing.assert_allclose(
            th[t], hyperhermitian_hessian(u, x).tau(), atol=1e-10
        )


@pytest.mark.parametrize("n", [1, 2])
def test_moore_equivalence_on_mixed_fields(n):
    rng = np.random.default_rng(10 + n)
    u = psh_quadratic(rng, n) + Fraction(1, 4) * Polynomial.coordinate(n, 0) ** 3
    pts = rng.standard_normal((10, 4 * n))
    assert moore_equivalence_residual(u, pts) < 1e-9


def test_moore_equivalence_residual_is_nan_on_non_finite_values():
    # x0^16 overflows at 1e30, so the density there is NaN; max() over the
    # points must not drop it and report the finite second point's residual
    u = Polynomial.coordinate(1, 0) ** 16
    pts = np.array([[1e30, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    with np.errstate(all="ignore"):
        assert math.isnan(moore_equivalence_residual(u, pts))
    assert moore_equivalence_residual(u, pts[1:]) < 1e-9


def test_psh_test_verdicts():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((20, 4))
    good = psh_test(normsq(1), pts)
    assert good
    assert good.is_psh
    assert good.min_eigenvalue == pytest.approx(8.0, rel=1e-10)
    bad = psh_test(-1 * normsq(1), pts)
    assert not bad
    assert bad.min_eigenvalue == pytest.approx(-8.0, rel=1e-10)
    assert bad.witness.shape == (4,)


def test_psh_test_saddle():
    # u = |q_1|^2 - |q_2|^2 is not plurisubharmonic anywhere
    a = QMatrix([[Quaternion(1), Quaternion(0)], [Quaternion(0), Quaternion(-1)]])
    res = psh_test(quadform(a), np.zeros((1, 8)))
    assert not res.is_psh
    assert res.min_eigenvalue == pytest.approx(-8.0, rel=1e-10)



def _hessian_by_point(u, x):
    # the per-point read-off: one delta_matrix per point, one Quaternion per
    # entry from c1 = 2 D[2l, 2k+1] and c2 = 2 D[2l+1, 2k+1]
    d = delta_matrix(u, x)
    rows = []
    for l in range(u.n):
        row = []
        for k in range(u.n):
            c1 = 2.0 * d[2 * l, 2 * k + 1]
            c2 = 2.0 * d[2 * l + 1, 2 * k + 1]
            row.append(Quaternion(c1.real, c1.imag, c2.real, -c2.imag))
        rows.append(row)
    return QMatrix(rows)


def _oracle_moore_residual(u, pts):
    dens = ma_density(u, pts)
    moore = np.array([math.factorial(u.n) * float(moore_det(_hessian_by_point(u, x)))
                      for x in pts])
    if not (np.isfinite(dens).all() and np.isfinite(moore).all()):
        return math.nan
    return float(np.max(np.abs(dens - moore), initial=0.0))


def _oracle_psh(u, pts, tol=1e-9):
    th = np.array([_hessian_by_point(u, x).tau() for x in pts])
    eigs = np.linalg.eigvalsh(0.5 * (th + np.conj(np.swapaxes(th, 1, 2))))
    idx = int(np.argmin(eigs[:, 0]))
    return float(eigs[idx, 0]) >= -tol, float(eigs[idx, 0]), pts[idx], th


_BRIDGE_FIELDS = {
    "quartic-n1": (1, "normsq() + x0^4"),
    "quartic-n2": (2, "normsq() + x0^4"),
    "tilted-n2": (2, "quadform([2, (0,1,0,0); (0,-1,0,0), 3])"),
    "invshift-sum-n1": (1, "normsq() + invshift(0.5) - x1^3"),
}


@pytest.mark.parametrize("case", sorted(_BRIDGE_FIELDS))
@pytest.mark.parametrize("seed", range(5))
def test_hessian_bridge_equals_the_per_point_read_off(case, seed):
    # one batched (c1, c2) read-off serves the Hessian, its embedding, the
    # Moore side of the residual and the psh scan: each equals, bit for bit,
    # the per-point delta_matrix read-off it replaced
    n, expr = _BRIDGE_FIELDS[case]
    u = parse_field_expr(expr, n)
    pts = np.random.default_rng(seed).standard_normal((32, 4 * n))
    assert hyperhermitian_hessian(u, pts[3]) == _hessian_by_point(u, pts[3])
    got = moore_equivalence_residual(u, pts)
    assert got == _oracle_moore_residual(u, pts)
    is_psh, least, witness, th = _oracle_psh(u, pts)
    assert tau_hessians(u, pts).tobytes() == th.tobytes()
    res = psh_test(u, pts)
    assert (res.is_psh, res.min_eigenvalue) == (is_psh, least)
    assert res.witness.tobytes() == witness.tobytes()


# ---------------------------------------------------------------------------
# the fundamental family


def _fundamental_delta_matrices(n, eps, pts):
    """Delta matrices of -1/(|q|^2+eps) in closed form: (N, 2n, 2n), from
    the complex coordinate columns.  Its imaginary parts are rounding noise
    amplified by 1/s^3 near the pole, so it serves as an oracle only."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    s = eps + np.einsum("bi,bi->b", pts, pts)
    z0 = np.empty((len(pts), 2 * n), dtype=complex)
    z1 = np.empty((len(pts), 2 * n), dtype=complex)
    for l in range(n):
        x0, x1, x2, x3 = (pts[:, 4 * l + m] for m in range(4))
        z0[:, 2 * l] = x0 - 1j * x1
        z1[:, 2 * l] = -x2 + 1j * x3
        z0[:, 2 * l + 1] = x2 + 1j * x3
        z1[:, 2 * l + 1] = x0 + 1j * x1
    m = np.einsum("bi,bj->bij", z0, z1) - np.einsum("bi,bj->bij", z1, z0)
    return (-4.0 / s[:, None, None] ** 3) * (np.conj(m) - s[:, None, None] * jmatrix(n)[None])


@pytest.mark.parametrize("n,eps", [(1, 1.0), (1, 0.01), (2, 0.5)])
def test_fundamental_delta_matrices_closed_form(n, eps):
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((8, 4 * n))
    u = InvShift(n, eps)
    got = delta_matrices(u, pts)
    np.testing.assert_allclose(got, _fundamental_delta_matrices(n, eps, pts),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got, delta_from_hessians(n, u.hessians(pts)),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,eps", [(1, 1.0), (1, 1e-2), (2, 1e-2)])
def test_fundamental_density_closed_form(n, eps):
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((30, 4 * n))
    dens = ma_density(invshift(n, eps), pts)
    np.testing.assert_allclose(dens, fundamental_ma_density(n, eps, pts), rtol=1e-10)
    assert (dens > 0).all()


def test_area_and_volume_coefficients():
    assert sphere_moment_coefficient(4, (0,) * 4) == 2          # |S^3|  = 2 pi^2
    assert sphere_moment_coefficient(8, (0,) * 8) == Fraction(1, 3)   # |S^7|  = pi^4 / 3
    # the zeroth ball moment is the volume, as sigma_mass reads it
    assert ball_moment_coefficient(4, (0,) * 4) == Fraction(1, 2)   # |B^4|  = pi^2 / 2
    assert ball_moment_coefficient(8, (0,) * 8) == Fraction(1, 24)  # |B^8|  = pi^4 / 24
    assert ball_moment_coefficient(12, (0,) * 12) == Fraction(1, 720)


@pytest.mark.parametrize("n", [1, 2])
def test_fundamental_mass_exact_vs_quadrature(n):
    eps, r = 0.1, 1.0
    coeff = fundamental_mass_exact(n, Fraction(1, 10), 1)
    assert isinstance(coeff, Fraction)
    area = float(sphere_moment_coefficient(4 * n, (0,) * (4 * n))) * math.pi ** (2 * n)

    def integrand(rho):
        return area * rho ** (4 * n - 1) * (8.0**n) * math.factorial(n) * eps / (
            rho * rho + eps) ** (2 * n + 1)

    quad, quad_err = integrate.quad(integrand, 0.0, r, epsabs=1e-13, epsrel=1e-13)
    assert float(coeff) * math.pi ** (2 * n) == pytest.approx(quad, rel=1e-10)


def test_fundamental_mass_limits():
    assert fundamental_mass_limit_coefficient(1) == 4          # 4 pi^2
    assert fundamental_mass_limit_coefficient(2) == Fraction(16, 3)  # 16 pi^4 / 3
    # the whole-space mass at fixed eps already equals the limit coefficient
    for n in (1, 2):
        big = fundamental_mass_exact(n, Fraction(1, 100), 10**6)
        assert abs(big - fundamental_mass_limit_coefficient(n)) < Fraction(1, 10**10)
    # mass increases with the ball radius
    small = fundamental_mass_exact(1, Fraction(1, 100), Fraction(1, 2))
    mid = fundamental_mass_exact(1, Fraction(1, 100), 1)
    assert 0 < small < mid < fundamental_mass_limit_coefficient(1)


def test_fundamental_mass_closed_form():
    # the ball mass is the limit scaled by (r^2 / (r^2 + eps))^(2n), so at
    # r = 1 it sits 1 - (1 + eps)^(-2n) ~ 2n*eps below the eps -> 0 limit
    for n in (1, 2):
        limit = fundamental_mass_limit_coefficient(n)
        for eps in (Fraction(1, 1000), Fraction(1, 100), Fraction(3, 7), 1):
            for r in (Fraction(1, 2), 1, 3):
                r = Fraction(r)
                want = limit * (r * r / (r * r + eps)) ** (2 * n)
                assert fundamental_mass_exact(n, eps, r) == want


def test_fundamental_mass_requires_positive_eps():
    with pytest.raises(ValueError):
        fundamental_mass_exact(1, 0, 1)
    with pytest.raises(ValueError):
        fundamental_mass_exact(1, -1, 1)
