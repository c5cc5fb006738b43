"""Scalar fields on R^(4n), the real picture of H^n.

Coordinates are ordered so that the quaternionic coordinate q_l occupies the
real slots (x_{4l}, x_{4l+1}, x_{4l+2}, x_{4l+3}).  Three kinds of field are
provided, mirroring how much derivative information is trustworthy:

* ``Polynomial``   exact sparse multivariate polynomials (Fraction or float
                   coefficients); differentiation is exact, so these drive
                   every identity that must hold to the last bit.
* ``ClosedForm``   value with hand-written gradient and Hessian callables.
* ``BlackBox``     value only; derivatives by central differences.

``QuadraticForm`` is a Polynomial subclass that remembers its matrix data so
level sets stay recognizable (exact sphere/ellipsoid quadrature), ``InvShift``
is the fundamental-solution family -1/(|q - a|^2 + eps), and ``GridField``
holds lattice samples for the mollification machinery.

All fields share pointwise ``value/gradient/hessian`` plus batched
``values/gradients/hessians`` (shape (N, 4n) in, used heavily by quadrature).
A field states its math once, in its batched methods: ``ScalarField``'s
pointwise trio returns row 0 of the batched trio at ``x[None]``.  Field
sums, scalings and products, ``ChainField``, ``LinearSubstitution``,
``InvShift`` and ``DerivedField``'s value and gradient work that way.  The
exceptions define their own pointwise methods:

* ``Polynomial``, whose scalar walk keeps Fraction points exact and
  gives a float point the bits of ``values`` without a one-row array.
  ``QuadraticForm``, whose ``values`` is an einsum over its matrix rather
  than the walk, takes a float point's ``value``, and its gradient and
  Hessian, back to one row of its matrix forms; an exact point keeps the
  walk.
* ``ClosedForm``, ``BlackBox`` and ``GridField``, pointwise by contract;
  their batched methods are the base class's loop over points (a
  ``ClosedForm`` may pass vectorized callables instead).
* ``DerivedField.hessian``, a difference of the parent's pointwise Hessian
  with no batched formula; ``hessians`` loops over it.

Every concrete field thus defines one side of each pointwise/batched pair;
a field defining neither would send the two defaults into each other.

A Polynomial's ``value`` and ``values`` share one walk over a cached term
table per lane: exact points use the stored coefficients, float arrays use
float(c), and a float point gives the same bits pointwise and batched.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, OracleError
from .hamilton import QMatrix, Quaternion, is_hyperhermitian

_EPS = float(np.finfo(float).eps)
#: central-difference steps: eps^(1/3) for first, eps^(1/4) for second
#: derivatives (the latter keeps the |q|^2 Hessian good to ~1e-8; the
#: first-derivative step follows the usual truncation/roundoff balance).
_H1 = _EPS ** (1.0 / 3.0)
_H2 = _EPS ** 0.25


class ScalarField:
    """Base class: a real-valued field on R^(4n)."""

    n = None  # quaternionic dimension; the real dimension is 4n

    @property
    def dim(self):
        return 4 * self.n

    # --- pointwise interface: row 0 of the batched methods -------------------
    def value(self, x):
        return float(self.values(np.asarray(x, dtype=float)[None])[0])

    def gradient(self, x):
        return self.gradients(np.asarray(x, dtype=float)[None])[0]

    def hessian(self, x):
        return self.hessians(np.asarray(x, dtype=float)[None])[0]

    def diff(self, axis):
        """The field d(self)/dx_axis.  Exact for polynomials, oracle-backed
        otherwise (value from gradient, gradient from Hessian, Hessian by
        differencing the parent Hessian)."""
        return DerivedField(self, axis)

    # --- batched interface: a loop over the pointwise methods ----------------
    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.array([self.value(p) for p in pts])

    def gradients(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.array([self.gradient(p) for p in pts])

    def hessians(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.array([self.hessian(p) for p in pts])

    # --- algebra --------------------------------------------------------------
    def __add__(self, other):
        return field_sum(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return field_sum(self, field_scale(_as_field(other, self.n), -1))

    def __rsub__(self, other):
        return field_sum(field_scale(self, -1), other)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return field_product(self, other)
        return field_scale(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return field_scale(self, -1)


def _zero_exponent(n):
    return (0,) * (4 * n)


def _walk(table, x):
    """Sum the table's terms at x from 0 in order, each power by repeated
    multiplication; x[axis] is a scalar or a column of points."""
    acc = 0
    for c, factors in table:
        term = c
        for m, k in factors:
            xm = p = x[m]
            for _ in range(k - 1):
                p = p * xm
            term = term * p
        acc = acc + term
    return acc


class Polynomial(ScalarField):
    """Sparse polynomial: {exponent tuple (len 4n): coefficient}.

    Coefficients are whatever numeric type is supplied (Fraction keeps every
    operation exact); zero coefficients are pruned on construction so
    equality is structural.
    """

    __slots__ = ("n", "terms", "_tables", "_diff_cache")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            d = 4 * n
            for expo, c in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != d:
                    raise DimensionError(f"exponent tuple must have length {d}")
                if any(e < 0 for e in expo):
                    raise ValueError("negative exponent")
                if c:
                    self.terms[expo] = self.terms.get(expo, 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}
        self._tables = None
        self._diff_cache = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def constant(cls, n, c):
        return cls(n, {_zero_exponent(n): c})

    @classmethod
    def coordinate(cls, n, axis):
        e = [0] * (4 * n)
        e[axis] = 1
        return cls(n, {tuple(e): Fraction(1)})

    # ------------------------------------------------------------------ algebra
    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(self.n, other)
        if isinstance(other, Polynomial):
            out = dict(self.terms)
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
            return Polynomial(self.n, out)
        return field_sum(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float, Fraction, Polynomial)):
            return self + (other * -1 if isinstance(other, Polynomial) else -other)
        return field_sum(self, field_scale(other, -1))

    def __rsub__(self, other):
        return (self * -1) + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            if not other:
                return Polynomial(self.n)
            return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})
        if isinstance(other, Polynomial):
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(a + b for a, b in zip(ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
            return Polynomial(self.n, out)
        return field_product(self, other)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        acc = Polynomial.constant(self.n, Fraction(1))
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base if k > 1 else base
            k >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"Polynomial(n={self.n}, {len(self.terms)} terms, degree {self.degree()})"

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # ------------------------------------------------------------------ calculus
    def diff(self, axis):
        cached = self._diff_cache.get(axis)
        if cached is None:
            out = {}
            for e, c in self.terms.items():
                k = e[axis]
                if k:
                    ne = list(e)
                    ne[axis] = k - 1
                    out[tuple(ne)] = c * k
            cached = Polynomial(self.n, out)
            self._diff_cache[axis] = cached
        return cached

    # ------------------------------------------------------------------ evaluate
    def _table(self, exact):
        """The term table of one lane: (coefficient, ((axis, exponent), ...))
        in sorted(terms) order; the float lane holds float(coefficient)."""
        if self._tables is None:
            table = tuple((self.terms[e], tuple((m, k) for m, k in enumerate(e) if k))
                          for e in sorted(self.terms))
            self._tables = (table, tuple((float(c), f) for c, f in table))
        return self._tables[0 if exact else 1]

    def value(self, x):
        if isinstance(x, np.ndarray) and x.dtype == float:
            return _walk(self._table(False), x.tolist())
        return _walk(self._table(True), x)

    def gradient(self, x):
        return np.array([float(self.diff(m).value(x)) for m in range(self.dim)])

    def hessian(self, x):
        d = self.dim
        out = np.empty((d, d))
        for i in range(d):
            di = self.diff(i)
            for j in range(i, d):
                out[i, j] = out[j, i] = float(di.diff(j).value(x))
        return out

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(len(pts)) + _walk(self._table(False), pts.T)

    def gradients(self, pts):
        return np.stack([self.diff(m).values(pts) for m in range(self.dim)], axis=1)

    def hessians(self, pts):
        d = self.dim
        pts = np.asarray(pts, dtype=float)
        out = np.empty((len(pts), d, d))
        for i in range(d):
            di = self.diff(i)
            for j in range(i, d):
                vals = di.diff(j).values(pts)
                out[:, i, j] = out[:, j, i] = vals
        return out


class QuadraticForm(Polynomial):
    """(q-a)^bar^T A (q-a) + const as an exact polynomial, with its real
    symmetric matrix M, center and the quaternionic matrix kept around so the
    sphere/ellipsoid structure of level sets stays visible."""

    __slots__ = ("matrix", "m_real", "center", "const")

    def __init__(self, n, terms, matrix, m_real, center, const):
        super().__init__(n, terms)
        self.matrix = matrix
        self.m_real = np.asarray(m_real, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.const = float(const)

    def values(self, pts):
        y = np.asarray(pts, dtype=float) - self.center
        return np.einsum("bi,ij,bj->b", y, self.m_real, y) + self.const

    def gradients(self, pts):
        y = np.asarray(pts, dtype=float) - self.center
        return 2.0 * y @ self.m_real

    def hessians(self, pts):
        h = 2.0 * self.m_real
        return np.broadcast_to(h, (len(pts), *h.shape)).copy()

    def value(self, x):
        # a float point is row 0 of the einsum in values, as for every
        # batched field; an exact point keeps the walk and stays exact
        if isinstance(x, np.ndarray) and x.dtype == float:
            return ScalarField.value(self, x)
        return Polynomial.value(self, x)

    # one row of the matrix forms above, not Polynomial's walk over 4n(4n+1)/2
    # second partials
    gradient = ScalarField.gradient
    hessian = ScalarField.hessian


class ClosedForm(ScalarField):
    """Field with analytic value/gradient/Hessian callables.

    ``batch`` callables (``values_fn`` etc.) are optional vectorized
    counterparts taking an (N, 4n) array.
    """

    def __init__(self, n, value_fn, grad_fn=None, hess_fn=None,
                 values_fn=None, grads_fn=None, hessians_fn=None, name=""):
        self.n = n
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self._values = values_fn
        self._grads = grads_fn
        self._hessians = hessians_fn
        self.name = name

    def value(self, x):
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x):
        if self._grad is None:
            raise OracleError(f"field {self.name or type(self).__name__} has no gradient oracle")
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        if self._hess is None:
            raise OracleError(f"field {self.name or type(self).__name__} has no Hessian oracle")
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)

    def values(self, pts):
        if self._values is not None:
            return np.asarray(self._values(np.asarray(pts, dtype=float)), dtype=float)
        return super().values(pts)

    def gradients(self, pts):
        if self._grads is not None:
            return np.asarray(self._grads(np.asarray(pts, dtype=float)), dtype=float)
        return super().gradients(pts)

    def hessians(self, pts):
        if self._hessians is not None:
            return np.asarray(self._hessians(np.asarray(pts, dtype=float)), dtype=float)
        return super().hessians(pts)


class BlackBox(ScalarField):
    """Value-only field; derivatives by central differences.

    First derivatives use step eps^(1/3)*(1+|x_m|); second derivatives use
    eps^(1/4)*(1+|x_m|), the usual optimum for twice-differenced values.
    """

    def __init__(self, n, value_fn, name=""):
        self.n = n
        self._value = value_fn
        self.name = name

    def value(self, x):
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty(self.dim)
        for m in range(self.dim):
            h = _H1 * (1.0 + abs(x[m]))
            xp = x.copy(); xp[m] += h
            xm = x.copy(); xm[m] -= h
            out[m] = (self._value(xp) - self._value(xm)) / (2.0 * h)
        return out

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        d = self.dim
        out = np.empty((d, d))
        f0 = self._value(x)
        steps = [_H2 * (1.0 + abs(x[m])) for m in range(d)]
        for i in range(d):
            hi = steps[i]
            xp = x.copy(); xp[i] += hi
            xm = x.copy(); xm[i] -= hi
            out[i, i] = (self._value(xp) - 2.0 * f0 + self._value(xm)) / (hi * hi)
            for j in range(i + 1, d):
                hj = steps[j]
                xpp = x.copy(); xpp[i] += hi; xpp[j] += hj
                xpm = x.copy(); xpm[i] += hi; xpm[j] -= hj
                xmp = x.copy(); xmp[i] -= hi; xmp[j] += hj
                xmm = x.copy(); xmm[i] -= hi; xmm[j] -= hj
                val = (self._value(xpp) - self._value(xpm) - self._value(xmp)
                       + self._value(xmm)) / (4.0 * hi * hj)
                out[i, j] = out[j, i] = val
        return out


class DerivedField(ScalarField):
    """d(parent)/dx_axis for non-polynomial parents.

    Value comes from the parent's gradient, gradient from the parent's
    Hessian, and the Hessian from a central difference of the parent's
    Hessian row (third derivatives are rarely needed; accuracy ~1e-10 on
    smooth O(1) fields).
    """

    def __init__(self, parent, axis):
        self.n = parent.n
        self.parent = parent
        self.axis = axis

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        d = self.dim
        out = np.empty((d, d))
        for m in range(d):
            h = _H1 * (1.0 + abs(x[m]))
            xp = x.copy(); xp[m] += h
            xm = x.copy(); xm[m] -= h
            row = (np.asarray(self.parent.hessian(xp))[self.axis]
                   - np.asarray(self.parent.hessian(xm))[self.axis]) / (2.0 * h)
            out[m] = row
        return 0.5 * (out + out.T)

    def values(self, pts):
        return self.parent.gradients(pts)[:, self.axis]

    def gradients(self, pts):
        return self.parent.hessians(pts)[:, self.axis, :]


class LinearSubstitution(ScalarField):
    """u(x) = base(R x + t): pullback of a field along an affine map."""

    def __init__(self, base, rmat, shift=None):
        self.n = base.n
        self.base = base
        self.rmat = np.asarray(rmat, dtype=float)
        if self.rmat.shape != (4 * base.n, 4 * base.n):
            raise DimensionError("substitution matrix has wrong shape")
        self.shift = np.zeros(4 * base.n) if shift is None else np.asarray(shift, dtype=float)

    def values(self, pts):
        return self.base.values(np.asarray(pts, dtype=float) @ self.rmat.T + self.shift)

    def gradients(self, pts):
        return self.base.gradients(np.asarray(pts, dtype=float) @ self.rmat.T + self.shift) @ self.rmat

    def hessians(self, pts):
        h = self.base.hessians(np.asarray(pts, dtype=float) @ self.rmat.T + self.shift)
        return np.einsum("ij,bjk,kl->bil", self.rmat.T, h, self.rmat)


class ChainField(ScalarField):
    """chi(phi(x)) for a scalar function chi with two derivatives.

    chi is given by three vectorized callables (f, f', f'').
    """

    def __init__(self, phi, f, d1, d2, name=""):
        self.n = phi.n
        self.phi = phi
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.name = name

    def values(self, pts):
        return self.f(self.phi.values(pts))

    def gradients(self, pts):
        return self.d1(self.phi.values(pts))[:, None] * self.phi.gradients(pts)

    def hessians(self, pts):
        t = self.phi.values(pts)
        g = self.phi.gradients(pts)
        return (self.d2(t)[:, None, None] * np.einsum("bi,bj->bij", g, g)
                + self.d1(t)[:, None, None] * self.phi.hessians(pts))


# ---------------------------------------------------------------------------
# generic field algebra (closed under +, scalar *, *), with batch support

class _SumField(ScalarField):
    def __init__(self, a, b):
        if a.n != b.n:
            raise DimensionError("field dimensions differ")
        self.n = a.n
        self.a, self.b = a, b

    def values(self, pts):
        return self.a.values(pts) + self.b.values(pts)

    def gradients(self, pts):
        return self.a.gradients(pts) + self.b.gradients(pts)

    def hessians(self, pts):
        return self.a.hessians(pts) + self.b.hessians(pts)


class _ScaledField(ScalarField):
    def __init__(self, a, s):
        self.n = a.n
        self.a = a
        self.s = float(s)

    def values(self, pts):
        return self.s * self.a.values(pts)

    def gradients(self, pts):
        return self.s * self.a.gradients(pts)

    def hessians(self, pts):
        return self.s * self.a.hessians(pts)


class _ProductField(ScalarField):
    def __init__(self, a, b):
        if a.n != b.n:
            raise DimensionError("field dimensions differ")
        self.n = a.n
        self.a, self.b = a, b

    def values(self, pts):
        return self.a.values(pts) * self.b.values(pts)

    def gradients(self, pts):
        return (self.a.values(pts)[:, None] * self.b.gradients(pts)
                + self.b.values(pts)[:, None] * self.a.gradients(pts))

    def hessians(self, pts):
        ga, gb = self.a.gradients(pts), self.b.gradients(pts)
        cross = np.einsum("bi,bj->bij", ga, gb)
        return (self.a.values(pts)[:, None, None] * self.b.hessians(pts)
                + self.b.values(pts)[:, None, None] * self.a.hessians(pts)
                + cross + np.swapaxes(cross, 1, 2))


def _as_field(v, n):
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, (int, float, Fraction)):
        return Polynomial.constant(n, Fraction(v) if not isinstance(v, float) else v)
    raise TypeError(f"cannot use {type(v).__name__} as a scalar field")


def field_sum(a, b):
    if isinstance(a, ScalarField):
        b = _as_field(b, a.n)
    else:
        a = _as_field(a, b.n)
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return Polynomial.__add__(a, b)
    return _SumField(a, b)


def field_scale(a, s):
    if isinstance(a, Polynomial):
        return Polynomial.__mul__(a, s if isinstance(s, (int, Fraction)) else float(s))
    return _ScaledField(a, s)


def field_product(a, b):
    if isinstance(a, ScalarField) and not isinstance(b, ScalarField):
        return field_scale(a, b)
    if not isinstance(a, ScalarField):
        return field_scale(b, a)
    if isinstance(a, Polynomial) and isinstance(b, Polynomial):
        return Polynomial.__mul__(a, b)
    return _ProductField(a, b)


# ---------------------------------------------------------------------------
# standard fields

def _quaternion_coordinate_polys(n, j, center=None, conjugate=False):
    """The quaternion q_j - a_j as a 4-tuple of coordinate polynomials."""
    comps = []
    for m in range(4):
        p = Polynomial.coordinate(n, 4 * j + m)
        if center is not None:
            p = p + Polynomial.constant(n, -center[4 * j + m])
        comps.append(p)
    if conjugate:
        comps = [comps[0], -comps[1], -comps[2], -comps[3]]
    return comps


def _qpoly_mul(a, b):
    """Hamilton product of quaternions whose components are polynomials."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def normsq(n, center=None):
    """|q - a|^2 as an exact QuadraticForm (Hessian 2*Id)."""
    center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)
    c_exact = [Fraction(v) if float(v).is_integer() else v for v in center]
    terms = {}
    d = 4 * n
    for m in range(d):
        e2 = [0] * d
        e2[m] = 2
        terms[tuple(e2)] = terms.get(tuple(e2), 0) + Fraction(1)
    poly = Polynomial(n, terms)
    for m in range(d):
        if c_exact[m]:
            poly = poly + Polynomial(n, {tuple(0 if i != m else 1 for i in range(d)): -2 * c_exact[m]})
    const = sum(Fraction(c) * Fraction(c) if isinstance(c, Fraction) else c * c for c in c_exact)
    if const:
        poly = poly + Polynomial.constant(n, const)
    return QuadraticForm(n, poly.terms, QMatrix.identity(n), np.eye(d), center, 0.0)


def quadform(a_matrix, center=None):
    """(q-a)^bar^T A (q-a) for hyperhermitian A, as an exact QuadraticForm.

    Raises if A is not hyperhermitian (the value would not be real).
    """
    a_matrix = a_matrix if isinstance(a_matrix, QMatrix) else QMatrix(a_matrix)
    if not is_hyperhermitian(a_matrix, tol=1e-12):
        raise ValueError("quadform needs a hyperhermitian matrix")
    n = a_matrix.rows
    center_arr = None if center is None else np.asarray(center, dtype=float)
    total = [Polynomial(n), Polynomial(n), Polynomial(n), Polynomial(n)]
    for j in range(n):
        qj_bar = _quaternion_coordinate_polys(n, j, center_arr, conjugate=True)
        for k in range(n):
            a = a_matrix[j, k]
            if not a:
                continue
            qk = _quaternion_coordinate_polys(n, k, center_arr)
            apoly = tuple(Polynomial.constant(n, comp) for comp in a.components)
            prod = _qpoly_mul(_qpoly_mul(qj_bar, apoly), qk)
            total = [t + p for t, p in zip(total, prod)]
    # vector parts cancel pairwise for hyperhermitian A
    for vec_part in total[1:]:
        if any(abs(float(c)) > 1e-9 for c in vec_part.terms.values()):
            raise ValueError("quadform value failed to be real; matrix not hyperhermitian?")
    scalar = total[0]
    m_real = 0.5 * np.array(
        [[float(scalar.diff(i).diff(j).value(np.zeros(4 * n))) for j in range(4 * n)]
         for i in range(4 * n)])
    ctr = np.zeros(4 * n) if center_arr is None else center_arr
    return QuadraticForm(n, scalar.terms, a_matrix, m_real, ctr, 0.0)


class InvShift(ScalarField):
    """The fundamental-solution family u = -1/(|q - a|^2 + eps).

    eps = 0 is allowed; the field is then singular at the center and must not
    be evaluated there.
    """

    def __init__(self, n, eps=0.0, center=None):
        if eps < 0:
            raise ValueError("eps must be >= 0")
        self.n = n
        self.eps = float(eps)
        self.center = np.zeros(4 * n) if center is None else np.asarray(center, dtype=float)

    def _shifted(self, pts):
        """(y, s): y = pts - center and s = eps + |y|^2 per point."""
        y = np.asarray(pts, dtype=float) - self.center
        return y, self.eps + np.sum(y * y, axis=-1)

    def values(self, pts):
        return -1.0 / self._shifted(pts)[1]

    def gradients(self, pts):
        y, s = self._shifted(pts)
        return 2.0 * y / s[:, None] ** 2

    def hessians(self, pts):
        y, s = self._shifted(pts)
        eye = np.eye(self.dim)
        return (2.0 * eye[None] / s[:, None, None] ** 2
                - 8.0 * np.einsum("bi,bj->bij", y, y) / s[:, None, None] ** 3)


def invshift(n, eps=0.0, center=None):
    return InvShift(n, eps, center)


class GridField(ScalarField):
    """Lattice samples of a field on a cube, n = 1 only (a 4D array).

    value() interpolates multilinearly; gradient/hessian use central
    differences at the nearest lattice node, so they are meant to be read at
    (or very near) grid points, which is how the mollification tests sample.
    """

    def __init__(self, origin, spacing, data):
        self.n = 1
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = float(spacing)
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 4:
            raise DimensionError("GridField expects a 4D value array")

    @classmethod
    def sample(cls, field, origin, spacing, shape):
        """Sample an analytic field on the lattice."""
        axes = [origin[m] + spacing * np.arange(shape[m]) for m in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        return cls(origin, spacing, field.values(pts).reshape(shape))

    def _local(self, x):
        return (np.asarray(x, dtype=float) - self.origin) / self.spacing

    def value(self, x):
        f = self._local(x)
        i0 = np.floor(f).astype(int)
        i0 = np.clip(i0, 0, np.array(self.data.shape) - 2)
        t = f - i0
        acc = 0.0
        for corner in itertools.product((0, 1), repeat=4):
            w = 1.0
            for m in range(4):
                w *= t[m] if corner[m] else (1.0 - t[m])
            if w:
                acc += w * self.data[tuple(i0 + corner)]
        return acc

    def _node(self, x):
        idx = np.rint(self._local(x)).astype(int)
        if (idx < 1).any() or (idx > np.array(self.data.shape) - 2).any():
            raise ValueError("grid derivative requested too close to the boundary")
        return idx

    def gradient(self, x):
        idx = self._node(x)
        out = np.empty(4)
        for m in range(4):
            up = idx.copy(); up[m] += 1
            dn = idx.copy(); dn[m] -= 1
            out[m] = (self.data[tuple(up)] - self.data[tuple(dn)]) / (2 * self.spacing)
        return out

    def hessian(self, x):
        idx = self._node(x)
        h = self.spacing
        out = np.empty((4, 4))
        f0 = self.data[tuple(idx)]
        for i in range(4):
            up = idx.copy(); up[i] += 1
            dn = idx.copy(); dn[i] -= 1
            out[i, i] = (self.data[tuple(up)] - 2 * f0 + self.data[tuple(dn)]) / h ** 2
            for j in range(i + 1, 4):
                pp = idx.copy(); pp[i] += 1; pp[j] += 1
                pm = idx.copy(); pm[i] += 1; pm[j] -= 1
                mp = idx.copy(); mp[i] -= 1; mp[j] += 1
                mm = idx.copy(); mm[i] -= 1; mm[j] -= 1
                out[i, j] = out[j, i] = (self.data[tuple(pp)] - self.data[tuple(pm)]
                                         - self.data[tuple(mp)] + self.data[tuple(mm)]) / (4 * h ** 2)
        return out

    def interior_nodes(self, margin):
        """Lattice points at least `margin` nodes away from every face."""
        shape = self.data.shape
        pts = []
        for idx in itertools.product(*(range(margin, s - margin) for s in shape)):
            pts.append(self.origin + self.spacing * np.array(idx, dtype=float))
        return np.array(pts)
