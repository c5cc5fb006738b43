"""Scalar field layer: exact polynomials, closed-form fields, grids."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qma.fields
from qma.errors import DimensionError, OracleError
from qma.fields import (
    BlackBox,
    ChainField,
    ClosedForm,
    DerivedField,
    GridField,
    InvShift,
    LinearSubstitution,
    Polynomial,
    QuadraticForm,
    ScalarField,
    _ProductField,
    _ScaledField,
    _SumField,
    invshift,
    normsq,
    quadform,
)
from qma.hamilton import QMatrix, Quaternion, QI


def rand_pts(rng, n, count, scale=1.5):
    return scale * rng.standard_normal((count, 4 * n))


# ---------------------------------------------------------------------------
# Polynomial


def test_polynomial_basic_algebra():
    x0 = Polynomial.coordinate(1, 0)
    x1 = Polynomial.coordinate(1, 1)
    p = (x0 + x1) ** 3
    q = x0**3 + 3 * x0**2 * x1 + 3 * x0 * x1**2 + x1**3
    assert p == q
    assert p.degree() == 3
    assert (p - q).is_zero()
    assert (-p) + p == Polynomial(1)


def test_polynomial_constant_and_scalar_equality():
    c = Polynomial.constant(2, Fraction(5, 3))
    assert c == Fraction(5, 3)
    assert c.value([0] * 8) == Fraction(5, 3)
    assert Polynomial(1) == 0
    assert Polynomial.constant(1, 0).is_zero()


def test_polynomial_exact_coefficients():
    # Fraction coefficients survive arithmetic with no float contamination
    x0 = Polynomial.coordinate(1, 0)
    p = Fraction(1, 3) * x0**2 - Fraction(1, 7)
    val = p.value([Fraction(1, 2), 0, 0, 0])
    assert val == Fraction(1, 12) - Fraction(1, 7)
    assert all(isinstance(c, Fraction) for c in p.terms.values())


def test_polynomial_diff_exact():
    x0 = Polynomial.coordinate(1, 0)
    x2 = Polynomial.coordinate(1, 2)
    p = x0**2 * x2 + 4 * x2
    assert p.diff(0) == 2 * x0 * x2
    assert p.diff(2) == x0**2 + Polynomial.constant(1, 4)
    assert p.diff(1).is_zero()
    # mixed partials commute exactly
    assert p.diff(0).diff(2) == p.diff(2).diff(0)


def test_polynomial_guards():
    with pytest.raises(DimensionError):
        Polynomial(1, {(1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial.coordinate(1, 0) ** -2


def test_polynomial_batch_matches_pointwise():
    rng = np.random.default_rng(5)
    x0 = Polynomial.coordinate(2, 0)
    x5 = Polynomial.coordinate(2, 5)
    p = x0**3 - 2 * x0 * x5 + Fraction(1, 2)
    pts = rand_pts(rng, 2, 17)
    np.testing.assert_allclose(p.values(pts), [float(p.value(x)) for x in pts], rtol=1e-13)
    np.testing.assert_allclose(p.gradients(pts), [p.gradient(x) for x in pts], rtol=1e-13)
    np.testing.assert_allclose(p.hessians(pts), [p.hessian(x) for x in pts], rtol=1e-13)


def _dict_walk(p, x):
    """Reference pointwise evaluator: dict order, coefficient times pow."""
    acc = 0
    for e, c in p.terms.items():
        term = c
        for xi, ei in zip(x, e):
            if ei:
                term = term * xi ** ei
        acc = acc + term
    return acc


def _power_tables(p, pts):
    """Reference batched evaluator: per-axis power tables, sorted terms."""
    pts = np.asarray(pts, dtype=float)
    if not p.terms:
        return np.zeros(len(pts))
    expos = np.array(sorted(p.terms), dtype=int).reshape(len(p.terms), p.dim)
    coefs = np.array([float(p.terms[tuple(e)]) for e in expos])
    out = np.zeros(len(pts))
    maxe = expos.max(axis=0)
    powers = [None] * p.dim
    for m in range(p.dim):
        tab = np.empty((maxe[m] + 1, len(pts)))
        tab[0] = 1.0
        for k in range(1, maxe[m] + 1):
            tab[k] = tab[k - 1] * pts[:, m]
        powers[m] = tab
    for t in range(len(coefs)):
        term = np.full(len(pts), coefs[t])
        for m in range(p.dim):
            if expos[t, m]:
                term = term * powers[m][expos[t, m]]
        out += term
    return out


@st.composite
def _polynomials_and_points(draw):
    """A polynomial over H^n (n in {1, 2}) of degree <= 6 with rational
    coefficients, possibly zero or constant, and 1 to 4 float points."""
    n = draw(st.sampled_from([1, 2]))
    d = 4 * n
    monomial = st.lists(st.integers(0, d - 1), max_size=6).map(
        lambda axes: tuple(axes.count(m) for m in range(d)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    terms = draw(st.dictionaries(monomial, coeff, max_size=6))
    coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    pts = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=4))
    return Polynomial(n, terms), np.array(pts)


def _bits(v):
    return np.float64(v).tobytes()


@settings(max_examples=150)
@given(_polynomials_and_points())
@example((Polynomial(1), np.array([[0.5, -1.0, 2.0, 0.0]])))
@example((Polynomial.constant(2, Fraction(-7, 3)), np.full((2, 8), 0.25)))
def test_polynomial_one_walk_matches_reference_evaluators(case):
    p, pts = case
    batch = p.values(pts)
    assert np.array_equal(batch, _power_tables(p, pts))
    for x in pts:
        # the float lane gives the same bits pointwise and batched, from an
        # ndarray or a list of Python floats
        assert _bits(p.value(x)) == _bits(p.values(x[None])[0])
        assert _bits(p.value(x.tolist())) == _bits(p.value(x))
        # the exact lane agrees with the reference walk to the last digit
        exact = [Fraction(float(c)) for c in x]
        assert p.value(exact) == _dict_walk(p, exact)


# ---------------------------------------------------------------------------
# normsq / quadform


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normsq_value_gradient_hessian(n):
    rng = np.random.default_rng(n)
    u = normsq(n)
    x = rng.standard_normal(4 * n)
    assert u.value(x) == pytest.approx(np.dot(x, x))
    np.testing.assert_allclose(u.gradient(x), 2 * x, rtol=1e-14)
    np.testing.assert_allclose(u.hessian(x), 2 * np.eye(4 * n), rtol=0, atol=0)


def test_normsq_center():
    c = [1.0, 0.0, -2.0, 0.5]
    u = normsq(1, center=c)
    assert u.value(c) == 0
    assert u.value([2.0, 0.0, -2.0, 0.5]) == pytest.approx(1.0)
    np.testing.assert_allclose(u.hessian(np.zeros(4)), 2 * np.eye(4))


def test_normsq_is_exact_polynomial():
    u = normsq(1)
    assert isinstance(u, QuadraticForm)
    assert u.terms == {
        (2, 0, 0, 0): Fraction(1),
        (0, 2, 0, 0): Fraction(1),
        (0, 0, 2, 0): Fraction(1),
        (0, 0, 0, 2): Fraction(1),
    }
    assert u.matrix == QMatrix.identity(1)


def test_quadform_matches_quaternion_arithmetic_exactly():
    q = Quaternion(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(2))
    a = QMatrix([[Quaternion(2), q], [q.conjugate(), Quaternion(3)]])
    u = quadform(a)
    x = [Fraction(1, 3), Fraction(-2, 7), Fraction(1), Fraction(0),
         Fraction(3, 4), Fraction(1, 9), Fraction(-1, 2), Fraction(5)]
    y = [Quaternion(*x[0:4]), Quaternion(*x[4:8])]
    acc = Quaternion(0)
    for j in range(2):
        for k in range(2):
            acc = acc + y[j].conjugate() * a[j, k] * y[k]
    assert acc.components[1:] == (0, 0, 0)
    assert u.value(x) == acc.components[0]


def test_quadform_rejects_non_hyperhermitian():
    with pytest.raises(ValueError):
        quadform([[Quaternion(2), QI], [QI, Quaternion(3)]])
    with pytest.raises(ValueError):
        quadform([[QI]])


def test_quadform_center_and_real_matrix():
    a = QMatrix([[Quaternion(Fraction(3))]])
    c = np.array([0.5, -1.0, 0.0, 2.0])
    u = quadform(a, center=c)
    assert u.value(c) == 0
    np.testing.assert_allclose(u.m_real, 3 * np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u.gradient(c + [1, 0, 0, 0]), [6, 0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(u.hessian(np.zeros(4)), 6 * np.eye(4), atol=1e-12)


def test_quadraticform_batch_matches_polynomial():
    rng = np.random.default_rng(11)
    q = Quaternion(0, Fraction(1, 2), 0, Fraction(-1, 4))
    a = QMatrix([[Quaternion(1), q], [q.conjugate(), Quaternion(2)]])
    u = quadform(a, center=rng.standard_normal(8))
    pts = rand_pts(rng, 2, 23)
    slow = [float(Polynomial.value(u, x)) for x in pts]
    np.testing.assert_allclose(u.values(pts), slow, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(u.gradients(pts), [u.gradient(x) for x in pts], rtol=1e-12)
    np.testing.assert_allclose(u.hessians(pts), [u.hessian(x) for x in pts], rtol=1e-12)


# ---------------------------------------------------------------------------
# InvShift


def test_invshift_against_finite_differences():
    rng = np.random.default_rng(3)
    u = InvShift(1, eps=0.75, center=[0.2, 0.0, -0.3, 0.1])
    bb = BlackBox(1, u.value)
    for _ in range(5):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(u.gradient(x), bb.gradient(x), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(u.hessian(x), bb.hessian(x), rtol=1e-5, atol=1e-6)


def test_invshift_batch_matches_pointwise():
    rng = np.random.default_rng(4)
    u = invshift(2, eps=0.01)
    pts = rand_pts(rng, 2, 19)
    np.testing.assert_allclose(u.values(pts), [u.value(x) for x in pts], rtol=1e-14)
    np.testing.assert_allclose(u.gradients(pts), [u.gradient(x) for x in pts], rtol=1e-14)
    np.testing.assert_allclose(u.hessians(pts), [u.hessian(x) for x in pts], rtol=1e-14)


def test_invshift_eps_zero_singular_family():
    u = invshift(1, eps=0.0)
    assert u.value([1.0, 0, 0, 0]) == -1.0
    assert u.value([2.0, 0, 0, 0]) == -0.25
    with pytest.raises(ValueError):
        invshift(1, eps=-1e-6)


# ---------------------------------------------------------------------------
# ClosedForm / BlackBox / DerivedField


def test_closed_form_requires_oracles():
    f = ClosedForm(1, lambda x: float(np.sum(x**2)), name="plain")
    assert f.value([1, 1, 0, 0]) == 2.0
    with pytest.raises(OracleError):
        f.gradient(np.zeros(4))
    with pytest.raises(OracleError):
        f.hessian(np.zeros(4))
    pts = np.array([[1.0, 0, 0, 0], [0, 2.0, 0, 0]])
    np.testing.assert_allclose(f.values(pts), [1.0, 4.0])


def test_blackbox_derivatives_on_quartic():
    u = BlackBox(1, lambda x: float(np.sum(x**2)) ** 2)
    x = np.array([0.5, -1.0, 0.25, 2.0])
    s = float(np.dot(x, x))
    np.testing.assert_allclose(u.gradient(x), 4 * s * x, rtol=1e-6)
    np.testing.assert_allclose(
        u.hessian(x), 4 * s * np.eye(4) + 8 * np.outer(x, x), rtol=1e-5, atol=1e-5
    )


def test_derived_field_reads_parent_oracles():
    u = InvShift(1, eps=1.0)
    d0 = u.diff(0)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    assert d0.value(x) == u.gradient(x)[0]
    np.testing.assert_allclose(d0.gradient(x), u.hessian(x)[0], rtol=1e-14)
    pts = rand_pts(rng, 1, 7)
    np.testing.assert_allclose(d0.values(pts), u.gradients(pts)[:, 0], rtol=1e-14)
    np.testing.assert_allclose(d0.gradients(pts), u.hessians(pts)[:, 0, :], rtol=1e-14)


def test_derived_field_hessian_third_derivative():
    # parent |x|^4 has Hessian 4s*I + 8xx^T, so d(parent)/dx_a has Hessian
    # 8(x_m d_la + x_l d_ma + x_a d_ml); the parent Hessian is quadratic, so
    # the internal central difference is exact up to roundoff
    def hess(x):
        s = float(np.dot(x, x))
        return 4 * s * np.eye(4) + 8 * np.outer(x, x)

    u = ClosedForm(
        1,
        lambda x: float(np.dot(x, x)) ** 2,
        lambda x: 4 * float(np.dot(x, x)) * x,
        hess,
    )
    x = np.array([0.3, -0.7, 1.1, 0.4])
    a = 2
    expected = np.zeros((4, 4))
    for m in range(4):
        for l in range(4):
            expected[m, l] = 8 * (
                x[m] * (l == a) + x[l] * (m == a) + x[a] * (m == l)
            )
    np.testing.assert_allclose(u.diff(a).hessian(x), expected, atol=1e-7)


# ---------------------------------------------------------------------------
# composition


def test_chain_field_matches_exact_square():
    phi = normsq(1)
    chain = ChainField(
        phi,
        lambda t: t**2,
        lambda t: 2.0 * t,
        lambda t: 2.0 * np.ones_like(np.asarray(t, dtype=float)),
        name="square",
    )
    exact = Polynomial.__mul__(phi, phi)
    rng = np.random.default_rng(21)
    pts = rand_pts(rng, 1, 11)
    np.testing.assert_allclose(chain.values(pts), exact.values(pts), rtol=1e-12)
    np.testing.assert_allclose(chain.gradients(pts), exact.gradients(pts), rtol=1e-12)
    np.testing.assert_allclose(chain.hessians(pts), exact.hessians(pts), rtol=1e-12)
    x = pts[0]
    np.testing.assert_allclose(chain.hessian(x), exact.hessian(x), rtol=1e-12)


def test_linear_substitution_chain_rule():
    rng = np.random.default_rng(31)
    base = quadform(QMatrix([[Quaternion(3)]]))
    rmat = rng.standard_normal((4, 4))
    shift = rng.standard_normal(4)
    u = LinearSubstitution(base, rmat, shift)
    bb = BlackBox(1, u.value)
    x = rng.standard_normal(4)
    assert u.value(x) == pytest.approx(base.value(rmat @ x + shift))
    np.testing.assert_allclose(u.gradient(x), bb.gradient(x), rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(u.hessian(x), bb.hessian(x), rtol=1e-4, atol=1e-4)
    pts = rand_pts(rng, 1, 9)
    np.testing.assert_allclose(u.values(pts), [u.value(p) for p in pts], rtol=1e-13)
    np.testing.assert_allclose(u.gradients(pts), [u.gradient(p) for p in pts], rtol=1e-13)
    np.testing.assert_allclose(u.hessians(pts), [u.hessian(p) for p in pts], rtol=1e-13)


def test_linear_substitution_shape_guard():
    with pytest.raises(DimensionError):
        LinearSubstitution(normsq(1), np.eye(3))


# ---------------------------------------------------------------------------
# field algebra


def test_field_sum_and_scale_mixed_types():
    rng = np.random.default_rng(41)
    p = normsq(1)
    u = invshift(1, eps=0.5)
    s = p + u
    x = rng.standard_normal(4)
    assert s.value(x) == pytest.approx(p.value(x) + u.value(x))
    np.testing.assert_allclose(s.hessian(x), p.hessian(x) + u.hessian(x), rtol=1e-14)
    half = 0.5 * u
    assert half.value(x) == pytest.approx(0.5 * u.value(x))
    diff = u - u
    assert diff.value(x) == 0.0
    np.testing.assert_allclose(diff.gradient(x), np.zeros(4), atol=0)
    neg = -u
    assert neg.value(x) == -u.value(x)
    shifted = 1 - u
    assert shifted.value(x) == pytest.approx(1 - u.value(x))


def test_field_product_rule():
    rng = np.random.default_rng(43)
    p = normsq(1)
    u = invshift(1, eps=0.25)
    prod = p * u
    bb = BlackBox(1, lambda x: p.value(x) * u.value(x))
    x = 0.5 * rng.standard_normal(4)
    assert prod.value(x) == pytest.approx(p.value(x) * u.value(x))
    np.testing.assert_allclose(prod.gradient(x), bb.gradient(x), rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(prod.hessian(x), bb.hessian(x), rtol=1e-4, atol=1e-4)
    pts = rand_pts(rng, 1, 8, scale=0.5)
    np.testing.assert_allclose(prod.values(pts), [prod.value(q) for q in pts], rtol=1e-13)
    np.testing.assert_allclose(
        prod.hessians(pts), [prod.hessian(q) for q in pts], rtol=1e-13
    )


def test_field_algebra_guards():
    with pytest.raises(DimensionError):
        invshift(1) + invshift(2)
    with pytest.raises(TypeError):
        normsq(1) + "x"


# ---------------------------------------------------------------------------
# the one-row rule: pointwise methods read row 0 of the batched ones


def _pointwise_oracle(u, x):
    """(value, gradient, Hessian) at x by the hand-written pointwise
    formulas these fields used to carry, recursing through the oracle; a
    Polynomial and DerivedField.hessian keep their own pointwise code."""
    if isinstance(u, _SumField):
        a, b = _pointwise_oracle(u.a, x), _pointwise_oracle(u.b, x)
        return a[0] + b[0], a[1] + b[1], a[2] + b[2]
    if isinstance(u, _ScaledField):
        v, g, h = _pointwise_oracle(u.a, x)
        return u.s * v, u.s * g, u.s * h
    if isinstance(u, _ProductField):
        (va, ga, ha), (vb, gb, hb) = _pointwise_oracle(u.a, x), _pointwise_oracle(u.b, x)
        cross = np.outer(ga, gb)
        return va * vb, va * gb + vb * ga, va * hb + vb * ha + cross + cross.T
    if isinstance(u, ChainField):
        t, g, h = _pointwise_oracle(u.phi, x)
        return (float(u.f(t)), float(u.d1(t)) * g,
                float(u.d2(t)) * np.outer(g, g) + float(u.d1(t)) * h)
    if isinstance(u, LinearSubstitution):
        v, g, h = _pointwise_oracle(u.base, u.rmat @ x + u.shift)
        return v, u.rmat.T @ g, u.rmat.T @ h @ u.rmat
    if isinstance(u, InvShift):
        y = x - u.center
        s = u.eps + np.sum(y * y, axis=-1)
        return (-1.0 / s, 2.0 * y / s ** 2,
                2.0 * np.eye(len(x)) / s ** 2 - 8.0 * np.outer(y, y) / s ** 3)
    if isinstance(u, DerivedField):
        _, g, h = _pointwise_oracle(u.parent, x)
        return float(g[u.axis]), h[u.axis].copy(), u.hessian(x)
    if isinstance(u, QuadraticForm):
        # the value by Polynomial's walk over the exact terms, not the einsum
        return (Polynomial.value(u, x), 2.0 * u.m_real @ (x - u.center),
                2.0 * u.m_real.copy())
    assert type(u) is Polynomial
    return u.value(x), u.gradient(x), u.hessian(x)


def _tanh_chain(phi):
    th = np.tanh
    return ChainField(phi, th, lambda t: 1.0 - th(t) ** 2,
                      lambda t: -2.0 * th(t) * (1.0 - th(t) ** 2), name="tanh")


# a positive hyperhermitian matrix per n with off-diagonal quaternion entries
# where n allows them (the tilted form of the cln benchmark at n = 2)
_TILTED = {1: QMatrix([[Quaternion(2)]]),
           2: QMatrix([[Quaternion(2), Quaternion(0, 1, 0, 0)],
                       [Quaternion(0, -1, 0, 0), Quaternion(3)]])}


@st.composite
def _composite_fields_and_points(draw):
    """A field over H^n (n in {1, 2}) built from InvShift, centered normsq,
    centered tilted quadform and cubic polynomial leaves by sums, scalings,
    products, tanh chains, affine substitutions and partial derivatives,
    plus 1 to 3 points."""
    n = draw(st.sampled_from([1, 2]))
    d = 4 * n
    small = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    vec = st.lists(small, min_size=d, max_size=d).map(np.array)
    leaves = st.one_of(
        st.builds(lambda eps, c: InvShift(n, eps, c),
                  st.floats(min_value=0.1, max_value=2.0), vec),
        vec.map(lambda c: normsq(n, c)),
        vec.map(lambda c: quadform(_TILTED[n], c)),
        st.tuples(st.integers(0, d - 1), st.fractions(-2, 2, max_denominator=5)).map(
            lambda mc: normsq(n) + mc[1] * Polynomial.coordinate(n, mc[0]) ** 3),
    )

    def extend(inner):
        mat = st.lists(small, min_size=d * d, max_size=d * d).map(
            lambda v: np.eye(d) + 0.5 * np.array(v).reshape(d, d))
        return st.one_of(
            st.builds(_SumField, inner, inner),
            st.builds(_ScaledField, inner, small),
            st.builds(_ProductField, inner, inner),
            inner.map(_tanh_chain),
            st.builds(LinearSubstitution, inner, mat, vec),
            st.builds(DerivedField, inner, st.integers(0, d - 1)),
        )

    field = draw(st.recursive(leaves, extend, max_leaves=4))
    pts = draw(st.lists(vec, min_size=1, max_size=3))
    return field, pts


def _close(got, want):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * max(1.0, float(np.abs(want).max())))


# a point where the polynomial walk and the einsum of a QuadraticForm
# differ in the last bit, for both leaves
_LAST_BIT_POINT = np.array([0.1, 0.4, 0.7, -0.7, -0.4, -0.1, 0.2, 0.5])


@settings(max_examples=120)
@given(_composite_fields_and_points())
@example((quadform(_TILTED[2], np.full(8, 0.25)), [_LAST_BIT_POINT]))
@example((normsq(2, np.full(8, 0.25)), [_LAST_BIT_POINT]))
def test_pointwise_is_one_row_of_batched_and_matches_oracles(case):
    u, pts = case
    for x in pts:
        v, g, h = _pointwise_oracle(u, x)
        assert isinstance(u.value(x), float)
        # a Polynomial keeps its own pointwise trio and DerivedField its
        # pointwise Hessian; every other method, a QuadraticForm's value at
        # a float point among them, is row 0 of its batch
        if type(u) is not Polynomial:
            assert u.value(x) == u.values(x[None])[0]
        if type(u) is not Polynomial:
            assert np.array_equal(u.gradient(x), u.gradients(x[None])[0])
        if type(u) is not Polynomial and not isinstance(u, DerivedField):
            assert np.array_equal(u.hessian(x), u.hessians(x[None])[0])
        _close(u.value(x), v)
        _close(u.gradient(x), g)
        _close(u.hessian(x), h)


def test_every_field_class_defines_one_side_of_each_pair():
    # ScalarField's pointwise methods read the batched ones and its batched
    # methods loop over the pointwise ones: a class defining neither side of
    # a pair would recurse
    classes = [c for c in vars(qma.fields).values()
               if isinstance(c, type) and issubclass(c, ScalarField) and c is not ScalarField]
    own_pointwise = {}
    for cls in classes:
        own = {name for k in cls.__mro__[:-2] for name in vars(k)}
        for point in ("value", "gradient", "hessian"):
            assert point in own or point + "s" in own, (cls.__name__, point)
        # a class may take a pointwise method back to the base class's row
        own_pointwise[cls.__name__] = {
            m for m in ("value", "gradient", "hessian")
            if vars(cls).get(m, vars(ScalarField)[m]) is not vars(ScalarField)[m]}
    trio = {"value", "gradient", "hessian"}
    assert {k: v for k, v in own_pointwise.items() if v} == {
        "Polynomial": trio, "ClosedForm": trio, "BlackBox": trio, "GridField": trio,
        "QuadraticForm": {"value"}, "DerivedField": {"hessian"}}
    assert not issubclass(InvShift, ClosedForm)


# ---------------------------------------------------------------------------
# GridField


def test_grid_field_requires_4d():
    with pytest.raises(DimensionError):
        GridField(np.zeros(4), 0.1, np.zeros((3, 3, 3)))


def test_grid_field_linear_interpolation_exact():
    lin = Polynomial.coordinate(1, 0) + 2 * Polynomial.coordinate(1, 1) - Polynomial.coordinate(1, 3)
    g = GridField.sample(lin, origin=[-1.0] * 4, spacing=0.25, shape=(9, 9, 9, 9))
    rng = np.random.default_rng(55)
    for _ in range(10):
        x = rng.uniform(-0.9, 0.9, size=4)
        assert g.value(x) == pytest.approx(float(lin.value(x)), abs=1e-12)


def test_grid_field_derivatives_at_nodes():
    u = normsq(1)
    g = GridField.sample(u, origin=[-1.0] * 4, spacing=0.25, shape=(9, 9, 9, 9))
    x = np.array([-0.25, 0.5, 0.0, 0.25])
    assert g.value(x) == pytest.approx(u.value(x), abs=1e-12)
    np.testing.assert_allclose(g.gradient(x), 2 * x, atol=1e-10)
    np.testing.assert_allclose(g.hessian(x), 2 * np.eye(4), atol=1e-9)


def test_grid_field_boundary_guard():
    g = GridField.sample(normsq(1), origin=[-1.0] * 4, spacing=0.25, shape=(9, 9, 9, 9))
    with pytest.raises(ValueError):
        g.gradient([-1.0, 0.0, 0.0, 0.0])


def test_grid_field_interior_nodes():
    g = GridField(np.full(4, -1.0), 0.25, np.zeros((9, 9, 9, 9)))
    inner = g.interior_nodes(1)
    assert inner.shape == (7**4, 4)
    assert np.abs(inner).max() <= 0.75 + 1e-12
    only_center = g.interior_nodes(4)
    np.testing.assert_allclose(only_center, [[0.0, 0.0, 0.0, 0.0]], atol=1e-12)
