"""First/second-order operators, form fields, and the two differentials."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qma.calculus import (
    CxField,
    FormField,
    change_of_variables_check,
    closedness_residual,
    d_scalar,
    delta_field,
    delta_from_hessians,
    delta_matrices,
    delta_matrix,
    laplace,
    nabla,
    nabla_matrices,
    z_field,
)
from qma.errors import DimensionError
from qma.exterior import ExtElement, RationalComplex, beta
from qma.fields import InvShift, LinearSubstitution, Polynomial, invshift, normsq, quadform
from qma.hamilton import QMatrix, Quaternion, jmatrix, random_quaternion


def form_at(form, x):
    """A FormField evaluated to a constant-coefficient element at one point."""
    return ExtElement(form.n, form.degree, {m: f.value(x) for m, f in form.coeffs.items()})


def random_poly(rng, n, degree=3):
    """Random polynomial with small integer coefficients (exact)."""
    d = 4 * n
    terms = {}
    for _ in range(12):
        e = [0] * d
        for _ in range(degree):
            e[rng.integers(d)] += 1
        terms[tuple(e)] = terms.get(tuple(e), 0) + Fraction(int(rng.integers(-3, 4)))
    return Polynomial(n, terms)


# ---------------------------------------------------------------------------
# CxField


def test_cxfield_arithmetic():
    x0 = Polynomial.coordinate(1, 0)
    x1 = Polynomial.coordinate(1, 1)
    f = CxField(x0, x1)
    g = CxField(x1, Polynomial.constant(1, Fraction(2)))
    x = [0.5, -1.0, 2.0, 0.0]
    assert f.value(x) == pytest.approx(0.5 - 1.0j)
    assert (f + g).value(x) == pytest.approx(f.value(x) + g.value(x))
    assert (f - g).value(x) == pytest.approx(f.value(x) - g.value(x))
    assert (f * g).value(x) == pytest.approx(f.value(x) * g.value(x))
    assert (f * 3).value(x) == pytest.approx(3 * f.value(x))
    assert (f * (1 + 2j)).value(x) == pytest.approx((1 + 2j) * f.value(x))
    assert (f * RationalComplex(0, 1)).value(x) == pytest.approx(1j * f.value(x))
    assert f.conj().value(x) == pytest.approx(f.value(x).conjugate())
    assert (-f).value(x) == pytest.approx(-f.value(x))


def test_cxfield_exactness_flags():
    x0 = Polynomial.coordinate(1, 0)
    f = CxField(x0)
    assert isinstance(f.re, Polynomial) and isinstance(f.im, Polynomial)
    assert not f.is_exact_zero()
    assert (f - f).is_exact_zero()
    g = CxField(invshift(1, 1.0))
    assert not isinstance(g.re, Polynomial)
    assert not g.is_exact_zero()


def test_cxfield_guards():
    with pytest.raises(DimensionError):
        CxField(Polynomial.coordinate(1, 0), Polynomial.coordinate(2, 0))
    for bad in ("x", None, np.array([1.0])):
        with pytest.raises(TypeError, match="as a complex field"):
            CxField(Polynomial.coordinate(1, 0)) + bad
        with pytest.raises(TypeError, match="as a complex field"):
            CxField(Polynomial.coordinate(1, 0)) * bad


@pytest.mark.parametrize("number, same", [
    (np.int64(2), 2), (np.int32(-3), -3), (np.float32(0.5), 0.5), (np.float64(2.5), 2.5),
    (np.complex128(1 + 2j), 1 + 2j), (np.complex64(-1j), -1j), (1 + 2j, 1 + 2j),
    (RationalComplex(Fraction(1, 2), 3), RationalComplex(Fraction(1, 2), 3)),
], ids=["int64", "int32", "float32", "float64", "complex128", "complex64", "complex",
        "RationalComplex"])
def test_cxfield_takes_numpy_scalars_as_the_numbers_they_hold(number, same):
    # a numpy integer or floating scalar is an int or a float, as for the
    # real fields, and a numpy complex scalar a complex, in both orders
    f = CxField(Polynomial.coordinate(1, 0) ** 2, Polynomial.coordinate(1, 1))
    for got, want in [(f + number, f + same), (f - number, f - same),
                      (f * number, f * same), (number + f, same + f),
                      (number - f, same - f), (number * f, same * f)]:
        assert (got.re, got.im) == (want.re, want.im)


def test_rational_complex_operators_defer_to_a_complex_field():
    # RationalComplex returns NotImplemented for a complex field, whose
    # reflected methods then give the results of the other operand order
    z, f = RationalComplex(1, 2), CxField(normsq(1))
    for got, want in [(z + f, f + z), (z - f, -(f - z)), (z * f, f * z)]:
        assert (got.re, got.im) == (want.re, want.im)
    # a float is still no RationalComplex operand, in either order
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(z, 1.5)
        with pytest.raises(TypeError):
            op(1.5, z)


def test_cxfield_batch_values():
    f = z_field(2, 1, 0)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((9, 8))
    np.testing.assert_allclose(f.values(pts), [f.value(x) for x in pts], rtol=1e-14)


# ---------------------------------------------------------------------------
# nabla and the complex coordinates


def test_z_field_components():
    # q_0 = x0 + x1 i + x2 j + x3 k splits into the complex pair rows
    x = [1.0, 2.0, 3.0, 4.0, 0.5, -0.5, 0.25, -0.25]
    assert z_field(2, 0, 0).value(x) == pytest.approx(1 - 2j)
    assert z_field(2, 0, 1).value(x) == pytest.approx(-3 + 4j)
    assert z_field(2, 1, 0).value(x) == pytest.approx(3 + 4j)
    assert z_field(2, 1, 1).value(x) == pytest.approx(1 + 2j)
    assert z_field(2, 2, 0).value(x) == pytest.approx(0.5 + 0.5j)
    assert z_field(2, 3, 1).value(x) == pytest.approx(0.5 - 0.5j)


@pytest.mark.parametrize("n", [1, 2])
def test_nabla_z_duality(n):
    for j in range(2 * n):
        for alpha in (0, 1):
            for k in range(2 * n):
                for bet in (0, 1):
                    g = nabla(z_field(n, k, bet), j, alpha)
                    want = 2 if (j, alpha) == (k, bet) else 0
                    assert g.re == want, (j, alpha, k, bet)
                    assert g.im == 0, (j, alpha, k, bet)


@pytest.mark.parametrize("n", [1, 2])
def test_nabla_normsq_is_conjugate_coordinate(n):
    u = normsq(n)
    for j in range(2 * n):
        for alpha in (0, 1):
            diff = nabla(u, j, alpha) - z_field(n, j, alpha).conj() * 2
            assert diff.is_exact_zero(), (j, alpha)


def test_nabla_operators_commute():
    rng = np.random.default_rng(7)
    u = random_poly(rng, 2)
    for (j, a), (k, b) in [((0, 0), (1, 1)), ((2, 1), (0, 0)), ((3, 0), (3, 1))]:
        d1 = nabla(nabla(u, j, a), k, b)
        d2 = nabla(nabla(u, k, b), j, a)
        assert (d1 - d2).is_exact_zero()


def test_nabla_value_matches_symbolic():
    # nabla_{j,alpha} u at points is row j of nabla_matrices times the gradients
    rng = np.random.default_rng(8)
    u = random_poly(rng, 2)
    pts = rng.standard_normal((5, 8))
    grads = u.gradients(pts)
    for alpha, v in enumerate(nabla_matrices(2)):
        for j in range(4):
            sym = nabla(u, j, alpha).values(pts)
            np.testing.assert_allclose(grads @ v[j], sym, rtol=1e-12, atol=1e-12)


def test_m_field_minor_identity():
    # the 2x2 minor of the first two rows picks up the quaternionic cross terms
    z00, z01 = z_field(1, 0, 0), z_field(1, 0, 1)
    z10, z11 = z_field(1, 1, 0), z_field(1, 1, 1)
    f = z00 * z11 - z01 * z10
    x = [0.3, -0.4, 1.2, 0.9]
    want = z00.value(x) * z11.value(x) - z01.value(x) * z10.value(x)
    assert f.value(x) == pytest.approx(want)
    # for one quaternion row pair this is |q|^2 restricted to the pair
    assert f.value(x) == pytest.approx(sum(v * v for v in x))


# ---------------------------------------------------------------------------
# delta operators


def test_delta_field_antisymmetric():
    rng = np.random.default_rng(9)
    u = random_poly(rng, 2)
    assert delta_field(u, 1, 1).is_exact_zero()
    for i, j in [(0, 1), (0, 3), (2, 1)]:
        s = delta_field(u, i, j) + delta_field(u, j, i)
        assert s.is_exact_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_delta_matrix_of_normsq_is_symplectic(n):
    x = np.linspace(-1, 1, 4 * n)
    np.testing.assert_allclose(delta_matrix(normsq(n), x), 4.0 * jmatrix(n), atol=1e-12)


def test_delta_matrix_matches_delta_field():
    rng = np.random.default_rng(10)
    u = random_poly(rng, 2)
    x = rng.standard_normal(8)
    d = delta_matrix(u, x)
    for i in range(4):
        for j in range(4):
            sym = delta_field(u, i, j).value(x) if i != j else 0.0
            assert d[i, j] == pytest.approx(sym, rel=1e-10, abs=1e-10)


def test_delta_matrices_batched():
    rng = np.random.default_rng(11)
    u = quadform(QMatrix([[Quaternion(2), Quaternion(0, 1, 0, 0)],
                          [Quaternion(0, -1, 0, 0), Quaternion(3)]]))
    pts = rng.standard_normal((13, 8))
    batch = delta_matrices(u, pts)
    np.testing.assert_allclose(batch, [delta_matrix(u, x) for x in pts], atol=1e-12)
    via_hess = delta_from_hessians(2, u.hessians(pts))
    np.testing.assert_allclose(batch, via_hess, atol=1e-14)


def _einsum_delta(n, hess):
    """The contraction delta_from_hessians gathers, multiplied out."""
    v0, v1 = nabla_matrices(n)
    a = np.einsum("im,bmk,jk->bij", v0, hess, v1, optimize=True)
    return 0.5 * (a - np.swapaxes(a, 1, 2))


def _loop_delta(n, h):
    """One Hessian's delta matrix entry by entry in Python floats: each part
    of a = V0 H V1^T sums its nonzero products from +0."""
    v0, v1 = nabla_matrices(n)
    a = np.empty((2 * n, 2 * n), dtype=complex)
    for i in range(2 * n):
        for j in range(2 * n):
            re = im = 0.0
            for m in np.flatnonzero(v0[i]):
                for k in np.flatnonzero(v1[j]):
                    c = v0[i, m] * v1[j, k]
                    if c.real:
                        re += float(c.real) * float(h[m, k])
                    else:
                        im += float(c.imag) * float(h[m, k])
            a.real[i, j], a.imag[i, j] = re, im
    return 0.5 * (a - a.T)


@st.composite
def _hessian_batches(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    d = 4 * n
    entry = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.5]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    rows = draw(st.integers(1, 3))
    hess = np.array(draw(st.lists(entry, min_size=rows * d * d,
                                  max_size=rows * d * d))).reshape(rows, d, d)
    if draw(st.booleans()):
        hess = hess + np.swapaxes(hess, 1, 2)
    return n, hess


@settings(max_examples=150)
@given(_hessian_batches())
def test_delta_from_hessians_is_the_einsum_contraction(case):
    n, hess = case
    got = delta_from_hessians(n, hess)
    want = _einsum_delta(n, hess)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got, want)
    for k, h in enumerate(hess):
        # a row of the batch is the one-row call, bit for bit
        assert got[k].tobytes() == delta_from_hessians(n, hess[k:k + 1])[0].tobytes()
        assert got[k].tobytes() == _loop_delta(n, h).tobytes()
    if np.all(hess != 0):
        # without exact zeros in H the signs of zero match the einsum too;
        # with them the einsum's zero signs follow the summation order of
        # products it multiplies by zero
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_hessian_entry_reaches_every_entry_that_reads_it(n, bad):
    d = 4 * n
    v0, v1 = nabla_matrices(n)
    rng = np.random.default_rng(12)
    for m in range(d):
        for k in range(d):
            hess = rng.standard_normal((1, d, d))
            hess[0, m, k] = bad
            with np.errstate(invalid="ignore"):
                got = delta_from_hessians(n, hess)[0]
            # a[i, j] reads H[m, k] when V0[i, m] and V1[j, k] are nonzero;
            # delta[i, j] is built from a[i, j] and a[j, i]
            reads = np.outer(v0[:, m] != 0, v1[:, k] != 0)
            reads = reads | reads.T
            assert reads.any()
            assert np.array_equal(~np.isfinite(got), reads)


def test_delta_matrix_is_row_zero_of_the_batch():
    rng = np.random.default_rng(13)
    u = random_poly(rng, 2)
    pts = rng.standard_normal((6, 8))
    pts[0, :4] = 0.0
    batch = delta_matrices(u, pts)
    for x, row in zip(pts, batch):
        assert delta_matrix(u, x).tobytes() == row.tobytes()


def _record_hessian_rows(monkeypatch, cls):
    rows = []
    inner = cls.hessians

    def hessians(self, pts):
        rows.append(len(pts))
        return inner(self, pts)

    monkeypatch.setattr(cls, "hessians", hessians)
    return rows


@pytest.mark.parametrize("u", [
    Polynomial.coordinate(2, 0) ** 2 - Polynomial.coordinate(2, 1) * Polynomial.coordinate(2, 6)
    + Fraction(3, 2),
    quadform(QMatrix([[Quaternion(2), Quaternion(0, 1, 0, 0)],
                      [Quaternion(0, -1, 0, 0), Quaternion(3)]])),
], ids=["polynomial", "quadform"])
def test_quadratic_delta_matrices_read_one_hessian_row(monkeypatch, u):
    assert u.degree() == 2
    pts = np.random.default_rng(14).standard_normal((37, 8))
    sweep = delta_from_hessians(2, u.hessians(pts))
    rows = _record_hessian_rows(monkeypatch, type(u))
    got = delta_matrices(u, pts)
    assert rows == [1]
    assert not got.flags.writeable
    assert got.shape == (37, 4, 4)
    assert np.ascontiguousarray(got).tobytes() == sweep.tobytes()


@pytest.mark.parametrize("u, read", [(Polynomial.coordinate(2, 0) ** 3 + normsq(2), [1]),
                                     (invshift(2, 0.1), [])],
                         ids=["cubic", "invshift"])
def test_non_quadratic_delta_matrices_skip_the_hessian_sweep(monkeypatch, u, read):
    # a cubic reads one Hessian row and gathers only the parts that read a
    # varying second partial; an InvShift gathers its distinct Hessian
    # entries and reads no row on finite points; both give the sweep's bytes
    pts = np.random.default_rng(15).standard_normal((9, 8))
    sweep = delta_from_hessians(2, u.hessians(pts))
    rows = _record_hessian_rows(monkeypatch, type(u))
    got = delta_matrices(u, pts)
    assert rows == read
    assert got.flags.writeable
    assert got.tobytes() == sweep.tobytes()


@st.composite
def _invshift_points(draw):
    """An InvShift over H^n (n in {1, 2, 3}, eps >= 0, 0 included, any
    center) and 1 to 6 points: on the center, near it, or anywhere in the
    float range, inf and NaN coordinates included."""
    n = draw(st.sampled_from([1, 2, 3]))
    d = 4 * n
    eps = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)))
    small = st.floats(min_value=-4.0, max_value=4.0)
    center = np.array(draw(st.lists(small, min_size=d, max_size=d)))
    coord = st.one_of(small, st.floats(allow_nan=True, allow_infinity=True))
    point = st.one_of(
        st.just(center),
        st.lists(st.floats(-1e-3, 1e-3), min_size=d, max_size=d).map(lambda v: center + v),
        st.lists(coord, min_size=d, max_size=d).map(np.array))
    pts = np.array(draw(st.lists(point, min_size=1, max_size=6)))
    return InvShift(n, eps, center), pts


@settings(max_examples=200)
@given(_invshift_points())
@example((InvShift(2), np.zeros((2, 8))))
@example((InvShift(1, 0.0, np.ones(4)), np.array([[1.0, 1.0, 1.0, 1.0], [1e60, 0.0, 1.0, 1.0],
                                                  [1.0, 1.0 + 1e-120, 1.0, 1.0]])))
@example((InvShift(2, 0.5), np.array([[-0.5, -1e-17, 0.0, 0.5, 2.0, 0.0, 7.0, -2.0],
                                      [3.0, 0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0]])))
@example((InvShift(2, 3.0), 1e-160 * np.array([[1.3, -0.7, 2.1, 0.4, -1.9, 0.8, 1.1, -0.3]])))
def test_invshift_delta_matrices_equal_the_hessian_path(case):
    # the distinct-entry gather has the full sweep's values, subnormal ones
    # included: every exact zero (imaginary parts too) and every non-finite
    # entry of a row on the pole or too far out for s^3 falls where the
    # sweep puts it
    u, pts = case
    with np.errstate(all="ignore"):
        got = delta_matrices(u, pts)
        want = delta_from_hessians(u.n, u.hessians(pts))
    assert got.shape == want.shape == (len(pts), 2 * u.n, 2 * u.n)
    assert np.array_equal(got.view(float), want.view(float), equal_nan=True)


def _assert_same_floats(got, want):
    """Equal floats part by part: NaN where NaN, and the same sign bits."""
    got, want = np.asarray(got).view(float), np.asarray(want).view(float)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_AWKWARD_COORDS = [0.0, -0.0, 5e-324, -2.5e-310, 1e150, -1e150, np.inf, -np.inf, np.nan]


@st.composite
def _polynomial_points(draw):
    """A Polynomial over H^n (n in {1, 2, 3}) of degree <= 4 with Fraction
    or float coefficients, and 0 to 6 points whose coordinates include +-0,
    subnormals, +-1e150, inf and NaN."""
    n = draw(st.sampled_from([1, 2, 3]))
    d = 4 * n
    monomial = st.lists(st.integers(0, d - 1), max_size=4).map(
        lambda axes: tuple(axes.count(m) for m in range(d)))
    coeff = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=7),
                      st.floats(-1e3, 1e3, allow_nan=False))
    u = Polynomial(n, draw(st.dictionaries(monomial, coeff, max_size=5)))
    coord = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_AWKWARD_COORDS))
    rows = draw(st.integers(0, 6))
    pts = draw(st.lists(coord, min_size=rows * d, max_size=rows * d))
    return u, np.array(pts, dtype=float).reshape(rows, d)


_X = [Polynomial.coordinate(2, m) for m in range(8)]


@settings(max_examples=200)
@given(_polynomial_points())
@example((normsq(2) + _X[0] ** 4, np.array([[0.5, -0.0, 1.0, 2.0, 0.0, 1.0, -1.0, 3.0],
                                            [np.inf, 0.0, np.nan, 1.0, 5e-324, 0.0, 0.0, 1.0]])))
@example((_X[0] * _X[1] * _X[5] - Fraction(1, 3) * _X[2] * _X[7],  # off-diagonal partials only
          np.array([[1e150, -1e150, 0.0, -0.0, 2.0, np.inf, 1.0, -2.5e-310]])))
@example((_X[0] ** 2 - 0.5 * _X[1] * _X[6] + 3, np.array([[np.nan] * 8, [-0.0] * 8])))
@example((Polynomial(2), np.zeros((0, 8))))
def test_polynomial_delta_matrices_equal_the_hessian_path(case):
    # gathering only the parts that read a varying second partial gives the
    # sweep's floats, zero signs and non-finite entries included, and a row
    # of the batch is the one-row call
    u, pts = case
    with np.errstate(all="ignore"):
        got = delta_matrices(u, pts)
        want = delta_from_hessians(u.n, u.hessians(pts))
        rows = [delta_matrices(u, pts[k:k + 1])[0] for k in range(len(pts))]
    assert got.shape == want.shape == (len(pts), 2 * u.n, 2 * u.n)
    _assert_same_floats(got, want)
    for k, row in enumerate(rows):
        _assert_same_floats(got[k], row)


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


@pytest.mark.parametrize("u", [normsq(2), normsq(2) + _X[0] ** 4], ids=["quadform", "quartic"])
def test_polynomial_delta_row_is_cached_read_only(monkeypatch, u):
    # the constant parts are gathered once, from one Hessian row, and kept
    # on the polynomial; a later call reads no Hessian row and reuses them
    rng = np.random.default_rng(16)
    first, second = rng.standard_normal((5, 8)), rng.standard_normal((7, 8))
    rows = _record_hessian_rows(monkeypatch, type(u))
    delta_matrices(u, first)
    cached = u._delta_row
    assert rows == [1]
    got = delta_matrices(u, second)
    assert rows == [1]
    assert u._delta_row is cached
    arrays = list(_arrays(cached))
    assert len(arrays) == (1 if u.degree() <= 2 else 9)
    for arr in arrays:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        cached[0][0, 1] = 1.0
    monkeypatch.undo()
    sweep = delta_from_hessians(2, u.hessians(second))
    assert np.ascontiguousarray(got).tobytes() == sweep.tobytes()


@pytest.mark.parametrize("u", [normsq(2), Polynomial.coordinate(2, 3) ** 2,
                               Polynomial.coordinate(2, 3) ** 3, invshift(2, 0.1)],
                         ids=["quadform", "square", "cube", "invshift"])
def test_delta_matrices_of_no_points(u):
    got = delta_matrices(u, np.empty((0, 8)))
    assert got.shape == (0, 4, 4) and got.dtype == complex


# ---------------------------------------------------------------------------
# FormField


def test_form_field_guards():
    with pytest.raises(DimensionError):
        FormField(1, 3)
    with pytest.raises(DimensionError):
        FormField(1, 1, {0b11: Polynomial.coordinate(1, 0)})
    a = FormField(1, 1, {0b01: Polynomial.coordinate(1, 0)})
    b = FormField(1, 2, {0b11: Polynomial.coordinate(1, 0)})
    with pytest.raises(DimensionError):
        a + b
    with pytest.raises(DimensionError):
        a.wedge(FormField(2, 1, {0b1: Polynomial.coordinate(2, 0)}))


def test_form_field_at_and_from_constant():
    el = beta(2)
    f = FormField(el.n, el.degree, el.coeffs)
    assert form_at(f, np.zeros(8)) == el
    assert form_at(f, np.ones(8)) == el
    top = f.wedge(f)
    assert form_at(top, np.zeros(8)) == el.wedge(el)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)
_EXACT = st.builds(RationalComplex, _RATIONALS, _RATIONALS)


@st.composite
def _exact_elements(draw, n, degree):
    masks = [m for m in range(1 << (2 * n)) if m.bit_count() == degree]
    return ExtElement(n, degree, draw(st.dictionaries(st.sampled_from(masks), _EXACT)))


def _exact_at(form, x):
    """A FormField evaluated exactly at a rational point."""
    return ExtElement(form.n, form.degree, {m: RationalComplex(f.re.value(x), f.im.value(x))
                                            for m, f in form.coeffs.items()})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_form_field_algebra_is_the_exterior_algebra(data):
    # a form with constant coefficients takes every step of the algebra as
    # the exact element it was built from, and stays a FormField
    n = data.draw(st.integers(1, 2))
    p, q = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, 2 * n))
    a, a2 = data.draw(_exact_elements(n, p)), data.draw(_exact_elements(n, p))
    b = data.draw(_exact_elements(n, q))
    s = data.draw(_EXACT)
    x = data.draw(st.lists(_RATIONALS, min_size=4 * n, max_size=4 * n))
    fa, fa2, fb = (FormField(e.n, e.degree, e.coeffs) for e in (a, a2, b))
    for form, want in [(fa + fa2, a + a2), (fa - fa2, a - a2), (-fa, -a),
                       (fa.scale(s), a.scale(s)), (fa.wedge(fb), a.wedge(b)),
                       (fa.wedge(b), a.wedge(b))]:
        assert isinstance(form, FormField)
        assert all(isinstance(part, Polynomial)
                   for f in form.coeffs.values() for part in (f.re, f.im))
        assert _exact_at(form, x) == want
    # coefficients that cancel exactly leave no term
    assert (fa - fa).is_zero()
    assert (fa + fa2 - fa2 - fa).is_zero()
    if p % 2:
        assert fa.wedge(fa).is_zero()
    assert (fa.wedge(fb) - fb.wedge(fa).scale((-1) ** (p * q))).is_zero()


def test_sum_keeps_a_coefficient_only_one_form_has():
    # 0 + c is c itself: the zero of the field algebra adds no layer
    a = FormField(1, 1, {1: invshift(1, 0.5)})
    b = FormField(1, 1, {2: invshift(1, 0.5)})
    s = a + b
    assert s.coeffs[2].re is b.coeffs[2].re
    assert s.coeffs[1].re is a.coeffs[1].re


def test_form_field_wedge_with_element():
    u = normsq(1)
    f = FormField.from_scalar(u).wedge(beta(1))
    x = [0.5, 0.5, 0.0, 1.0]
    assert form_at(f, x) == beta(1) * u.value(x)


def test_wedge_anticommutes_on_one_forms():
    rng = np.random.default_rng(12)
    a = d_scalar(random_poly(rng, 2), 0)
    b = d_scalar(random_poly(rng, 2), 1)
    s = a.wedge(b) + b.wedge(a)
    assert s.is_zero()


def test_wedge_truncates_beyond_top_degree():
    u = normsq(1)
    two = laplace(u)
    top = two.wedge(two)
    assert top.degree == 2
    assert top.coeffs == {}


# ---------------------------------------------------------------------------
# the differentials d0, d1


def test_differentials_square_to_zero():
    rng = np.random.default_rng(13)
    u = random_poly(rng, 2)
    for alpha in (0, 1):
        dd = FormField.from_scalar(u).d(alpha).d(alpha)
        assert dd.is_zero()
    one_form = FormField(2, 1, {0b0001: random_poly(rng, 2), 0b0100: random_poly(rng, 2)})
    for alpha in (0, 1):
        assert one_form.d(alpha).d(alpha).is_zero()


def test_differentials_anticommute():
    rng = np.random.default_rng(14)
    u = random_poly(rng, 2)
    f = FormField.from_scalar(u)
    s = f.d(0).d(1) + f.d(1).d(0)
    assert s.is_zero()
    one_form = FormField(2, 1, {0b0010: random_poly(rng, 2)})
    s = one_form.d(0).d(1) + one_form.d(1).d(0)
    assert s.is_zero()


def test_leibniz_rule():
    rng = np.random.default_rng(15)
    a = FormField(2, 1, {0b0001: random_poly(rng, 2), 0b1000: random_poly(rng, 2)})
    b = FormField(2, 1, {0b0010: random_poly(rng, 2)})
    for alpha in (0, 1):
        lhs = a.wedge(b).d(alpha)
        rhs = a.d(alpha).wedge(b) - a.wedge(b.d(alpha))  # deg(a) = 1
        assert (lhs - rhs).is_zero()
    u = random_poly(rng, 2)
    f = FormField.from_scalar(u)
    for alpha in (0, 1):
        lhs = f.wedge(b).d(alpha)
        rhs = f.d(alpha).wedge(b) + f.wedge(b.d(alpha))  # deg(f) = 0
        assert (lhs - rhs).is_zero()


def test_top_form_differential_is_zero():
    u = normsq(1)
    top = laplace(u)  # degree 2 = top for n = 1
    assert top.degree == 2 * u.n
    assert top.d(0).is_zero()
    assert top.d(1).is_zero()


# ---------------------------------------------------------------------------
# laplace


@pytest.mark.parametrize("n", [1, 2, 3])
def test_laplace_normsq_is_symplectic_form(n):
    f = laplace(normsq(n))
    assert form_at(f, np.zeros(4 * n)) == beta(n) * 8


def test_laplace_equals_d0_d1():
    rng = np.random.default_rng(16)
    u = random_poly(rng, 2)
    diff = laplace(u) - FormField.from_scalar(u).d(1).d(0)
    assert diff.is_zero()


def test_laplace_is_closed_exactly():
    rng = np.random.default_rng(17)
    u = random_poly(rng, 2)
    assert closedness_residual(laplace(u)) == 0.0


def test_laplace_of_product_chain():
    # Delta u1 ^ Delta u2 = d0(d1 u1 ^ Delta u2) = d0 d1 (u1 * Delta u2)
    rng = np.random.default_rng(18)
    u1 = random_poly(rng, 2, degree=2)
    u2 = random_poly(rng, 2, degree=2)
    t = laplace(u2)
    lhs = laplace(u1).wedge(t)
    mid = d_scalar(u1, 1).wedge(t).d(0)
    rhs = FormField.from_scalar(u1).wedge(t).d(1).d(0)
    assert (lhs - mid).is_zero()
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("coeff, want", [
    (Fraction(3, 2) * Polynomial.coordinate(1, 2), 1.5),
    # the norm is the largest |coefficient| over real and imaginary parts
    (CxField(Polynomial.coordinate(1, 2), 2 * Polynomial.coordinate(1, 2)), 2.0),
])
def test_closedness_residual_reads_the_largest_coefficient(coeff, want):
    # d of c(x2) w^0 has the constant coefficients nabla_{1,alpha} c at w^1 ^ w^0
    assert closedness_residual(FormField(1, 1, {0b01: coeff})) == want


@pytest.mark.parametrize("op, kind", [
    (lambda: nabla(invshift(1, 1.0), 0, 0), "InvShift"),
    (lambda: laplace(LinearSubstitution(normsq(1), np.eye(4))), "LinearSubstitution"),
    (lambda: d_scalar(normsq(1) + invshift(1, 1.0), 0), "_SumField"),
    (lambda: closedness_residual(FormField(1, 1, {0b01: invshift(1, 1.0)})), "InvShift"),
], ids=["nabla", "laplace", "d_scalar", "closedness_residual"])
def test_symbolic_operators_refuse_non_polynomial_fields(op, kind):
    # symbolic differentiation is exact only: no finite-difference field
    with pytest.raises(TypeError, match=f"^{kind} has no symbolic derivative"):
        op()


# ---------------------------------------------------------------------------
# change of variables


def test_real_rep_is_multiplicative():
    rng = np.random.default_rng(20)
    a = QMatrix([[random_quaternion(rng) for _ in range(2)] for _ in range(2)])
    b = QMatrix([[random_quaternion(rng) for _ in range(2)] for _ in range(2)])
    np.testing.assert_allclose((a @ b).real_rep().astype(float),
                               (a.real_rep() @ b.real_rep()).astype(float), atol=1e-12)
    assert (QMatrix.identity(2).real_rep() == np.eye(8)).all()


def test_pullback_potential_values():
    rng = np.random.default_rng(21)
    a = QMatrix([[random_quaternion(rng) for _ in range(2)] for _ in range(2)])
    u_tilde = normsq(2)
    r = a.real_rep().astype(float)
    u = LinearSubstitution(u_tilde, r)
    x = rng.standard_normal(8)
    assert u.value(x) == pytest.approx(u_tilde.value(r @ x))


@pytest.mark.parametrize("n", [1, 2])
def test_change_of_variables_law(n):
    rng = np.random.default_rng(22 + n)
    a = QMatrix([[random_quaternion(rng) for _ in range(n)] for _ in range(n)])
    u_tilde = quadform(QMatrix.identity(n)) + random_poly(rng, n, degree=2)
    pts = rng.standard_normal((20, 4 * n))
    assert change_of_variables_check(u_tilde, a, pts) < 1e-9
