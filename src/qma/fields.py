"""Scalar fields on R^(4n), the real picture of H^n.

Coordinates are ordered so that the quaternionic coordinate q_l occupies the
real slots (x_{4l}, x_{4l+1}, x_{4l+2}, x_{4l+3}).  Three kinds of field are
provided, mirroring how much derivative information is trustworthy:

* ``Polynomial``   exact sparse multivariate polynomials (Fraction or float
                   coefficients); differentiation is exact, so these drive
                   every identity that must hold to the last bit; no
                   other kind has a symbolic ``diff`` (TypeError).
* ``ClosedForm``   value with hand-written gradient and Hessian callables.
* ``BlackBox``     value only; derivatives by central differences.

``normsq`` and ``quadform`` build quadratic Polynomials centered at 0
(``quadrature.translate_polynomial(p, -a)`` centers one at a), ``InvShift``
is the fundamental-solution family -1/(|q - a|^2 + eps), and ``GridField``
holds lattice samples for the mollification machinery.

All fields share pointwise ``value/gradient/hessian`` plus batched
``values/gradients/hessians`` (shape (N, 4n) in, used heavily by quadrature).
A field states its math once, in its batched methods: ``ScalarField``'s
pointwise trio returns row 0 of the batched trio at ``x[None]``, so every
gradient and Hessian, a ``Polynomial``'s among them, has one evaluator.
Only these define pointwise methods of their own:

* the exact lane, ``Polynomial.value``: the scalar walk keeps Fraction
  points exact and gives a float point the bits of ``values`` without a
  one-row array;
* ``ClosedForm``, ``BlackBox`` and ``GridField``, pointwise by contract;
  their batched methods are the base class's loop over points (a
  ``ClosedForm`` may pass vectorized callables instead).

Every concrete field thus defines one side of each pointwise/batched pair;
a field defining neither would send the two defaults into each other.

A Polynomial's ``value`` and ``values`` share one walk over a cached term
table per lane: exact points use the stored coefficients, float arrays use
float(c), and a float point gives the same bits pointwise and batched.

Field arithmetic has one spelling, the operators ``+ - * ** unary-``: they
build the sum, scaling and product combinators, and ``u ** k`` is the
repeated product ((u * u) * u) ...  A Polynomial stays an exact Polynomial
with Polynomials and numbers; with any other field it joins the
combinators.  A number is an int, Fraction or float, a numpy integer scalar
counting as an int and a numpy floating scalar as a float, alike for
``+ - *``; any other operand raises TypeError.  An exact zero
Polynomial (or the number 0) is the identity of ``+`` in both operand
orders, so a sum grows no layer for it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import DimensionError, OracleError
from .hamilton import QMatrix, is_hyperhermitian

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
        """The field d(self)/dx_axis, exact, so only a Polynomial has one;
        any other kind raises TypeError, its derivatives being read through
        its batched ``gradients`` and ``hessians`` instead."""
        raise TypeError(f"{type(self).__name__} has no symbolic derivative; "
                        "only a Polynomial is differentiated exactly")

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
        other = _as_field(other, self.n)
        if self.n == other.n:
            # an exact zero is the identity: the sum is the other operand
            if _is_zero(other):
                return self
            if _is_zero(self):
                return other
        return _SumField(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return _ProductField(self, other)
        return _ScaledField(self, _as_number(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __pow__(self, k):
        """The product ((self * self) * self) ... of k factors; k = 0 gives
        the constant 1."""
        _check_exponent(k)
        if not k:
            return Polynomial.constant(self.n, Fraction(1))
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


def _zero_exponent(n):
    return (0,) * (4 * n)


def _check_exponent(k):
    if not isinstance(k, int) or k < 0:
        raise ValueError("field powers must be nonnegative integers")


def _walk(table, x):
    """Sum the table's terms at x from 0 in order, each power by repeated
    multiplication; x[axis] is a scalar or a column of points.  A power
    that several terms share is built once per walk, by the same
    multiplications, so sharing it changes no bit."""
    acc = 0
    powers = {}
    for c, factors in table:
        term = c
        for mk in factors:
            p = powers.get(mk)
            if p is None:
                m, k = mk
                xm = p = x[m]
                for _ in range(k - 1):
                    p = p * xm
                powers[mk] = p
            term = term * p
        acc = acc + term
    return acc


class Polynomial(ScalarField):
    """Sparse polynomial: {exponent tuple (len 4n): coefficient}.

    Coefficients are whatever numeric type is supplied (Fraction keeps every
    operation exact); zero coefficients are pruned on construction so
    equality is structural.
    """

    # _delta_row holds calculus's read-only cache of the parts of the delta
    # matrix that read only constant second partials, _center quadrature's
    # of exhaustion_center
    __slots__ = ("n", "terms", "_tables", "_diff_cache", "_hessian_plan", "_delta_row",
                 "_center")

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
        self._hessian_plan = None
        self._delta_row = None
        self._center = None

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
        if not isinstance(other, ScalarField):
            other = Polynomial.constant(self.n, _as_number(other))
        if isinstance(other, Polynomial):
            out = dict(self.terms)
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
            return Polynomial(self.n, out)
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    e = tuple(a + b for a, b in zip(ea, eb))
                    out[e] = out.get(e, 0) + ca * cb
            return Polynomial(self.n, out)
        if isinstance(other, ScalarField):
            return super().__mul__(other)
        other = _as_number(other)
        if not other:
            return Polynomial(self.n)
        return Polynomial(self.n, {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

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

    def values(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(len(pts)) + _walk(self._table(False), pts.T)

    def gradients(self, pts):
        return np.stack([self.diff(m).values(pts) for m in range(self.dim)], axis=1)

    def _plan(self):
        """(template, varying): the float Hessian with every constant second
        partial filled in, zeros included, and (i, j, partial) for the
        second partials that read a coordinate, i <= j.  A constant
        partial's walk is 0 + c, which is c, so the template holds the bits
        a walk would give.  A partial d_j d_i with no term of d_i reading x_j
        is 0, as filled, and is not built."""
        if self._hessian_plan is None:
            d = self.dim
            zero = _zero_exponent(self.n)
            template = np.zeros((d, d))
            varying = []
            for i in range(d):
                di = self.diff(i)
                for j in sorted({m for e in di.terms for m in range(i, d) if e[m]}):
                    dij = di.diff(j)
                    if dij.degree():
                        varying.append((i, j, dij))
                    else:
                        template[i, j] = template[j, i] = float(dij.terms.get(zero, 0))
            template.setflags(write=False)
            self._hessian_plan = (template, tuple(varying))
        return self._hessian_plan

    def hessians(self, pts):
        pts = np.asarray(pts, dtype=float)
        template, varying = self._plan()
        out = np.repeat(template[None], len(pts), axis=0)
        for i, j, dij in varying:
            out[:, i, j] = out[:, j, i] = dij.values(pts)
        return out


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


class LinearSubstitution(ScalarField):
    """u(x) = base(R x): pullback of a field along a linear map."""

    def __init__(self, base, rmat):
        self.n = base.n
        self.base = base
        self.rmat = np.asarray(rmat, dtype=float)
        if self.rmat.shape != (4 * base.n, 4 * base.n):
            raise DimensionError("substitution matrix has wrong shape")

    # The products are plain einsums, no BLAS: a BLAS product rounds a row
    # according to how many rows share the call, and a field's value at a
    # point must not depend on the other points of its batch.
    def _mapped(self, pts):
        """The points R x."""
        return np.einsum("ij,bj->bi", self.rmat, np.asarray(pts, dtype=float))

    def values(self, pts):
        return self.base.values(self._mapped(pts))

    def gradients(self, pts):
        return np.einsum("bj,jk->bk", self.base.gradients(self._mapped(pts)), self.rmat)

    def hessians(self, pts):
        h = self.base.hessians(self._mapped(pts))
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
# the combinators behind the operators: sum, scaling and product

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
    v = _as_number(v)
    return Polynomial.constant(n, v if isinstance(v, float) else Fraction(v))


def _as_number(v):
    """A number operand as an int, Fraction or float: a numpy integer
    scalar is an int and a numpy floating scalar a float.  Anything else,
    complex numbers included, raises TypeError."""
    if isinstance(v, (int, Fraction)):
        return v
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    raise TypeError(f"cannot use {type(v).__name__} as a scalar field")


def _is_zero(v):
    return isinstance(v, Polynomial) and v.is_zero()


# ---------------------------------------------------------------------------
# standard fields

def _monomial(d, *axes):
    """The exponent tuple of prod x_axis over R^d."""
    e = [0] * d
    for m in axes:
        e[m] += 1
    return tuple(e)


def normsq(n):
    """|q|^2 as an exact Polynomial (Hessian 2*Id)."""
    d = 4 * n
    return Polynomial(n, {_monomial(d, m, m): Fraction(1) for m in range(d)})


def quadform(a_matrix):
    """q^bar^T A q for hyperhermitian A, as an exact Polynomial.

    With R the real representation of A (``QMatrix.real_rep``, exact on
    exact entries) the value is x^T R x: x_i^2 carries R_ii and x_i x_j
    carries R_ij + R_ji, so the Hessian is R + R^T.  Raises if A is not
    hyperhermitian (the value would not be real).
    """
    a_matrix = a_matrix if isinstance(a_matrix, QMatrix) else QMatrix(a_matrix)
    if not is_hyperhermitian(a_matrix, tol=1e-12):
        raise ValueError("quadform needs a hyperhermitian matrix")
    n = a_matrix.rows
    d = 4 * n
    r = a_matrix.real_rep()
    terms = {}
    for i in range(d):
        for j in range(i, d):
            c = r[i, i] if i == j else r[i, j] + r[j, i]
            if c:
                terms[_monomial(d, i, j)] = c
    return Polynomial(n, terms)


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

