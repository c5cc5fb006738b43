"""First- and second-order operators of the quaternionic calculus.

The real space R^(4n) carries 2n complex first-order operators per column
index alpha in {0, 1}:

    row 2l:   nabla_{(2l)0}   = d/dx_{4l}   + i d/dx_{4l+1}
              nabla_{(2l)1}   = -d/dx_{4l+2} - i d/dx_{4l+3}
    row 2l+1: nabla_{(2l+1)0} = d/dx_{4l+2} - i d/dx_{4l+3}
              nabla_{(2l+1)1} = d/dx_{4l}   - i d/dx_{4l+1}

They are dual to the complex coordinates z^{j,alpha} (nabla_{j a} z^{k b} =
2 delta delta) and commute, being constant-coefficient.  Everything else is
built from them:

* ``delta_field(u, i, j)``  the antisymmetric second-order operators
  (1/2)(nabla_{i0} nabla_{j1} - nabla_{i1} nabla_{j0}) u;
* ``laplace(u)``            the 2-form sum_{i<j} 2 delta_{ij} u  w^i ^ w^j,
  equal to d0 d1 u;
* ``FormField``             forms with field coefficients: the
  ``exterior.ExtElement`` algebra over ``CxField`` coefficients, plus the
  two exterior-type differentials d0/d1 (both square to zero);
* ``delta_matrix(u, x)``    the 2n x 2n antisymmetric matrix of
  delta_{ij} u(x): row 0 of the batched ``delta_matrices``.  Each part of
  each entry is an exact two-term gather of real Hessian entries
  (``delta_from_hessians``); a Polynomial gathers the parts that read only
  constant second partials once, cached on it, and the others per point,
  an InvShift gathers its distinct Hessian entries, and every other field
  gathers from a full Hessian sweep, all with the sweep's bits.

Complex-valued fields are pairs of real fields (``CxField``), so exact
polynomial inputs stay exact through every operator; the symbolic ones
refuse any other component (TypeError from ``ScalarField.diff``), and
floats enter only through the batched Hessians of ``delta_matrices``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .exterior import ExtElement, RationalComplex, wedge_sign
from .fields import InvShift, LinearSubstitution, Polynomial, ScalarField, _as_number
from .hamilton import QMatrix
from .quadrature import Constant


# ---------------------------------------------------------------------------
# complex-valued fields

class CxField:
    """A complex-valued field as a (re, im) pair of real scalar fields."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        if im is None:
            im = Polynomial(re.n)
        if re.n != im.n:
            raise DimensionError("mismatched components")
        self.re = re
        self.im = im

    @property
    def n(self):
        return self.re.n

    @classmethod
    def constant(cls, n, z):
        if isinstance(z, RationalComplex):
            return cls(Polynomial.constant(n, z.re), Polynomial.constant(n, z.im))
        z = complex(z)
        return cls(Polynomial.constant(n, z.real), Polynomial.constant(n, z.imag))

    def value(self, x):
        return complex(self.re.value(x)) + 1j * complex(self.im.value(x))

    def values(self, pts):
        return self.re.values(pts) + 1j * self.im.values(pts)

    def conj(self):
        return CxField(self.re, -self.im)

    def __add__(self, other):
        other = _as_cx(other, self.n)
        return CxField(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_cx(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return CxField(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, (CxField, ScalarField)):
            other = _as_cx_number(other)
            if not isinstance(other, (RationalComplex, complex)):
                return CxField(self.re * other, self.im * other)
            a, b = other.real, other.imag
            re, im = self.re, self.im
            return CxField(re * a + im * -b, re * b + im * a)
        other = _as_cx(other, self.n)
        # (a + ib)(c + id) = (ac - bd) + i(ad + bc)
        a, b, c, d = self.re, self.im, other.re, other.im
        return CxField(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def is_exact_zero(self):
        return (isinstance(self.re, Polynomial) and self.re.is_zero()
                and isinstance(self.im, Polynomial) and self.im.is_zero())


def _as_cx(v, n):
    if isinstance(v, CxField):
        return v
    if isinstance(v, ScalarField):
        return CxField(v)
    return CxField.constant(n, _as_cx_number(v))


def _as_cx_number(v):
    """A number operand of a complex field: a complex or RationalComplex
    as it is, a numpy complex scalar as a complex, and any other number as
    ``fields._as_number`` takes it (a numpy integer scalar as an int, a
    numpy floating scalar as a float).  Anything else raises TypeError."""
    if isinstance(v, (complex, RationalComplex)):
        return v
    if isinstance(v, np.complexfloating):
        return complex(v)
    try:
        return _as_number(v)
    except TypeError:
        raise TypeError(f"cannot use {type(v).__name__} as a complex field") from None


# ---------------------------------------------------------------------------
# the nabla operators

def _nabla_parts(j, alpha):
    """(axis, sign) pairs for the real and imaginary parts of nabla_{j,alpha}."""
    base = 4 * (j >> 1)
    if j % 2 == 0:
        if alpha == 0:
            return (base, 1), (base + 1, 1)
        return (base + 2, -1), (base + 3, -1)
    if alpha == 0:
        return (base + 2, 1), (base + 3, -1)
    return (base, 1), (base + 1, -1)


def nabla(f, j, alpha):
    """Apply nabla_{j,alpha} to a real or complex field; returns a CxField.

    Exact: f's components must be Polynomials (else TypeError).
    """
    if isinstance(f, CxField):
        gr = nabla(f.re, j, alpha)
        gi = nabla(f.im, j, alpha)
        # gr + i*gi
        return CxField(gr.re - gi.im, gr.im + gi.re)
    (mr, sr), (mi, si) = _nabla_parts(j, alpha)
    re = f.diff(mr) if sr > 0 else -f.diff(mr)
    im = f.diff(mi) if si > 0 else -f.diff(mi)
    return CxField(re, im)


@lru_cache(maxsize=None)
def nabla_matrices(n):
    """(V0, V1): complex (2n, 4n) coefficient matrices with
    nabla_{j,alpha} u = sum_m V_alpha[j, m] du/dx_m."""
    v = np.zeros((2, 2 * n, 4 * n), dtype=complex)
    for j in range(2 * n):
        for alpha in (0, 1):
            (mr, sr), (mi, si) = _nabla_parts(j, alpha)
            v[alpha, j, mr] = sr
            v[alpha, j, mi] += 1j * si
    v.setflags(write=False)
    return v[0], v[1]


# ---------------------------------------------------------------------------
# exact complex coordinates

@lru_cache(maxsize=None)
def z_field(n, j, alpha):
    """The complex coordinate z^{j,alpha} as an exact CxField: one shared
    value per (n, j, alpha), built on first use, whose parts keep their
    derivative caches between uses."""
    base = 4 * (j >> 1)
    c = lambda m: Polynomial.coordinate(n, m)
    if j % 2 == 0:
        if alpha == 0:
            return CxField(c(base), -c(base + 1))
        return CxField(-c(base + 2), c(base + 3))
    if alpha == 0:
        return CxField(c(base + 2), c(base + 3))
    return CxField(c(base), c(base + 1))


# ---------------------------------------------------------------------------
# second-order operators

def delta_field(u, i, j):
    """The antisymmetric second-order operator applied to u, as a CxField:
    (1/2)(nabla_{i0} nabla_{j1} u - nabla_{i1} nabla_{j0} u)."""
    a = nabla(nabla(u, j, 1), i, 0)
    b = nabla(nabla(u, j, 0), i, 1)
    return (a - b) * Fraction(1, 2)


def delta_matrix(u, x):
    """The antisymmetric 2n x 2n matrix of delta_{ij} u(x): row 0 of
    ``delta_matrices``."""
    return delta_matrices(u, np.asarray(x, dtype=float)[None])[0]


def delta_matrices(u, pts):
    """Batched delta matrices: (N, 2n, 2n) complex.

    Routes, by the field's structure:

    * a Polynomial gathers the parts of its delta matrix that read only
      constant second partials once, from one Hessian row, and keeps them
      on the polynomial; over the batch it computes only the entries that
      a second partial ``Polynomial._plan`` lists as varying reaches
      (``_polynomial_delta_matrices``).  With no
      varying partial (degree <= 2: the nabla operators have constant
      coefficients) the matrix is the same everywhere and comes back as a
      read-only broadcast view;
    * an InvShift gathers its distinct Hessian entries
      (``_invshift_delta_matrices``);
    * every other field is ``delta_from_hessians`` of one Hessian sweep.

    The first two build no (N, 4n, 4n) tensor and give the sweep's bits.
    """
    if isinstance(u, Polynomial) and len(pts):
        return _polynomial_delta_matrices(u, pts)
    if isinstance(u, InvShift):
        return _invshift_delta_matrices(u, pts)
    return delta_from_hessians(u.n, u.hessians(pts))


def constant_delta(u):
    """Whether the delta matrix of u is the same at every point: u is a
    Polynomial of degree <= 2, the case where ``delta_matrices`` returns
    one cached row as a broadcast view.  A density built from such fields
    alone is a constant, so a rule can evaluate it on one row."""
    return isinstance(u, Polynomial) and u.degree() <= 2


def hoisted(fields, fn):
    """fn, a density of ``fields`` on an (N, 4n) batch, as an integrand: a
    ``quadrature.Constant`` of its value on one row when every field has a
    constant delta matrix (``constant_delta``), every row of a batch call
    then having that row's bits, and fn itself otherwise."""
    if all(constant_delta(u) for u in fields):
        return Constant(fn(np.zeros((1, 4 * fields[0].n)))[0])
    return fn


@lru_cache(maxsize=None)
def _delta_gather(n):
    """(index, sign) table of a = V0 H V1^T over the flattened Hessian.

    Every row of V0 and V1 holds one real and one imaginary unit entry, so
    the real part and the imaginary part of each a[i, j] are both a signed
    sum of exactly two Hessian entries.  Returns int and float arrays of
    shape (2, 8n^2): term t of part p of entry (i, j) sits at column
    2 (2n i + j) + p, so the two sums fill a complex array's float view.
    """
    v0, v1 = nabla_matrices(n)
    d = 4 * n
    rows = []
    for i in range(2 * n):
        for j in range(2 * n):
            prods = [(m * d + k, v0[i, m] * v1[j, k])
                     for m in np.flatnonzero(v0[i]) for k in np.flatnonzero(v1[j])]
            rows.append([(p, c.real) for p, c in prods if c.real])
            rows.append([(p, c.imag) for p, c in prods if c.imag])
    table = np.array(rows)                       # (8n^2, term, (index, sign))
    idx = table[:, :, 0].T.astype(np.intp)
    sgn = table[:, :, 1].T.copy()
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


def delta_from_hessians(n, hess):
    """Delta matrices from precomputed Hessians (N, 4n, 4n).

    a = V0 H V1^T is gathered, not multiplied out: each part of each entry
    is +-H[m, k] +- H[m', k'] (see ``_delta_gather``), and the result is
    (a - a^T) / 2 as a contiguous complex array.  The floats are those of
    the contraction sum_{m,k} V0[i, m] H[m, k] V1[j, k] multiplied out, as
    an einsum does it: a product with a unit coefficient is exact, a sum of
    two terms does not depend on their order, and every other product is a
    zero.  Only a zero part can differ, in its sign: here it is +0, as in a
    sum accumulated from +0, where an einsum's sign follows the order in
    which it adds signed zeros.  Row k of a batch is the one-row call on
    hess[k], and a non-finite Hessian entry reaches only the entries that
    read it.
    """
    hess = np.asarray(hess, dtype=float)
    idx, sgn = _delta_gather(n)
    return _antisymmetric_half(n, _gather(hess.reshape(len(hess), 16 * n * n), idx, sgn))


def _gather(flat, idx, sgn):
    """The two-term sums sgn[0] flat[:, idx[0]] + sgn[1] flat[:, idx[1]],
    plus 0.0, one column per part."""
    parts = flat.take(idx[0], axis=1)
    parts *= sgn[0]
    parts += flat.take(idx[1], axis=1) * sgn[1]
    parts += 0.0
    return parts


def _antisymmetric_half(n, parts):
    """(a - a^T) / 2 of a = the parts (N, 8n^2) read as (N, 2n, 2n) complex."""
    a = parts.view(complex).reshape(len(parts), 2 * n, 2 * n)
    return 0.5 * (a - np.swapaxes(a, 1, 2))


@lru_cache(maxsize=128)
def _varying_gather(n, varying):
    """The gather of ``_delta_gather`` restricted to the entries of a whose
    parts read a second partial listed in ``varying``, (i, j) pairs with
    i <= j, and to their transposes.

    Returns (entries, cols, fixed, src, sgn, swap): the flat indices into
    the (2n, 2n) matrix of those entries; the columns, in the float view of
    an (N, len(entries)) complex array of them, of the parts that read a
    varying partial; the flattened Hessian indices of the constant entries
    those parts also read; the two terms of each such part as (2,
    len(cols)) column indices into a source array holding the varying
    partials in order, then the ``fixed`` entries, with the gather's signs;
    and the position in ``entries`` of each entry's transpose.  The cache
    is keyed by the polynomial's pattern of varying partials, so it is
    bounded.
    """
    idx, sgn = _delta_gather(n)
    d, m = 4 * n, 2 * n
    slot = {}
    for r, (i, j) in enumerate(varying):
        slot[i * d + j] = slot[j * d + i] = r
    reads = [c for c in range(idx.shape[1]) if idx[0, c] in slot or idx[1, c] in slot]
    transpose = lambda e: (e % m) * m + e // m
    touched = {c // 2 for c in reads}
    entries = sorted(touched | {transpose(e) for e in touched})
    where = {e: k for k, e in enumerate(entries)}
    fixed = sorted({int(idx[t, c]) for t in (0, 1) for c in reads} - slot.keys())
    slot.update({f: len(varying) + q for q, f in enumerate(fixed)})
    out = (np.array(entries, dtype=np.intp),
           np.array([2 * where[c // 2] + c % 2 for c in reads], dtype=np.intp),
           np.array(fixed, dtype=np.intp),
           np.array([[slot[int(idx[t, c])] for c in reads] for t in (0, 1)], dtype=np.intp),
           sgn[:, reads].copy(),
           np.array([where[transpose(e)] for e in entries], dtype=np.intp))
    for arr in out:
        arr.setflags(write=False)
    return out


def _constant_delta_parts(u):
    """The parts of a Polynomial's delta matrix that read only constant
    second partials, gathered once from its Hessian at the origin:
    (row, varying).

    ``row`` is the finished (2n, 2n) matrix, right at every point on the
    entries no varying partial reaches.  ``varying`` is None at degree <= 2
    (a monomial of degree >= 3 has a second partial that reads a
    coordinate); otherwise it is (tables, partials, a, fixed): the ``_varying_gather``
    tables, the varying second partials, the reached entries of a = V0 H
    V1^T before halving, and the constant Hessian entries their parts read.
    Every array is read-only.
    """
    n = u.n
    flat = u.hessians(np.zeros((1, u.dim))).reshape(1, 16 * n * n)
    idx, sgn = _delta_gather(n)
    parts = _gather(flat, idx, sgn)
    row = _antisymmetric_half(n, parts)[0]
    row.setflags(write=False)
    if constant_delta(u):
        return row, None
    _, varying = u._plan()
    tables = _varying_gather(n, tuple((i, j) for i, j, _ in varying))
    entries, _, fixed = tables[:3]
    a, fixed_vals = parts.view(complex)[0, entries], flat[0, fixed]
    a.setflags(write=False)
    fixed_vals.setflags(write=False)
    return row, (tables, tuple(dij for _, _, dij in varying), a, fixed_vals)


def _polynomial_delta_matrices(u, pts):
    """Delta matrices of a Polynomial at N >= 1 points without the
    (N, 4n, 4n) Hessian tensor.

    The parts that read only constant second partials are the same at
    every point; ``_constant_delta_parts`` gathers them once per
    polynomial, cached on it.  Over the batch only the entries that a
    varying partial reaches, and their transposes, are computed: their
    varying parts gathered from ``dij.values(pts)`` as
    ``Polynomial.hessians`` computes them and the cached constant entries,
    by the same two-term sums, then halved by the same complex
    0.5 * (a - a^T).  The result is ``delta_from_hessians(n,
    u.hessians(pts))`` bit for bit, and row k is the one-row call on
    pts[k].  With no varying partial (degree <= 2) it is the cached row as
    a read-only broadcast view, with no Hessian read or gather.
    """
    if u._delta_row is None:
        u._delta_row = _constant_delta_parts(u)
    row, varying = u._delta_row
    if varying is None:
        return np.broadcast_to(row, (len(pts), *row.shape))
    (entries, cols, _, src, csgn, swap), partials, a0, fixed_vals = varying
    h = np.empty((len(pts), len(partials) + len(fixed_vals)))
    for r, dij in enumerate(partials):
        h[:, r] = dij.values(pts)
    h[:, len(partials):] = fixed_vals
    a = np.repeat(a0[None], len(pts), axis=0)
    a.view(float)[:, cols] = _gather(h, src, csgn)
    out = np.repeat(row.reshape(1, -1), len(pts), axis=0)
    out[:, entries] = 0.5 * (a - a[:, swap])
    return out.reshape(len(pts), *row.shape)


@lru_cache(maxsize=None)
def _pair_tables(n):
    """(pairs, spread): the gather of ``_delta_gather`` on a Hessian given
    by its distinct entries H[m, k], m <= k, negated.

    Row r of ``pairs`` belongs to the r-th pair m <= k of range(4n) in
    lexicographic order; columns 4c + 2 side + part hold that part of
    a[i, j] (side 0) and of a[j, i] (side 1) for the c-th pair i < j of
    range(2n): the gather's signs, negated, with (m, k) and (k, m) merged.
    ``spread`` maps those columns to the flattened (2n, 2n) complex matrix
    a - a^T: a[i, j] - a[j, i] at (i, j) and its negative at (j, i).  A
    column of either table has at most two nonzero entries, each +-1 or
    +-2, so a product with it is one correctly rounded two-term sum, in
    whatever order the matrix product adds: the sums of
    ``delta_from_hessians``.
    """
    idx, sgn = _delta_gather(n)
    d = 4 * n
    row = {mk: r for r, mk in enumerate(itertools.combinations_with_replacement(range(d), 2))}
    upper = list(itertools.combinations(range(2 * n), 2))
    pairs = np.zeros((len(row), 4 * len(upper)))
    spread = np.zeros((4 * len(upper), 8 * n * n))
    for c, (i, j) in enumerate(upper):
        for part in (0, 1):
            for side, entry in enumerate((2 * n * i + j, 2 * n * j + i)):
                col = 4 * c + 2 * side + part
                for t in (0, 1):
                    m, k = divmod(int(idx[t, 2 * entry + part]), d)
                    pairs[row[min(m, k), max(m, k)], col] -= sgn[t, 2 * entry + part]
                spread[col, 2 * (2 * n * i + j) + part] = 1 - 2 * side
                spread[col, 2 * (2 * n * j + i) + part] = 2 * side - 1
    pairs.setflags(write=False)
    spread.setflags(write=False)
    return pairs, spread


def _invshift_delta_matrices(u, pts):
    """Delta matrices of u = -1/(|y|^2 + eps), y = x - center, from the
    4n(4n+1)/2 distinct Hessian entries instead of the (N, 4n, 4n) tensor.

    ``InvShift.hessians`` gives H[m, k] = 2 delta_mk / s^2 - 8 y_m y_k / s^3,
    s = eps + |y|^2.  Its negative is computed here with the same
    operations, 8 y_m y_k / s^3 less 2 / s^2 on the diagonal, and
    ``_pair_tables`` gathers it as ``delta_from_hessians`` does, halving
    a - a^T last, so the result has the Hessian path's bits, subnormal ones
    included; a zero may differ in its sign.
    Rows where s^3 is zero, subnormal or not finite (a node on the pole, a
    far point) take the Hessian path: there an entry of the tensor can be
    non-finite, and a matrix product would spread it over the whole row.
    """
    n, d = u.n, u.dim
    pts = np.asarray(pts, dtype=float)
    y, s = u._shifted(pts)
    alpha, s3 = 2.0 / s ** 2, s ** 3
    pairs, spread = _pair_tables(n)
    yt = y.T.copy()
    neg = np.empty((len(pairs), len(pts)))
    r = 0
    for m in range(d):
        block = neg[r:r + d - m]  # the pairs (m, k), k >= m
        np.multiply(yt[m], yt[m:], out=block)
        block *= 8.0
        block /= s3
        block[0] -= alpha
        r += d - m
    out = (neg.T @ pairs) @ spread
    out *= 0.5
    out = out.view(complex).reshape(len(pts), 2 * n, 2 * n)
    bad = ~(np.isfinite(s3) & (s3 >= np.finfo(float).tiny))
    if bad.any():
        out[bad] = delta_from_hessians(n, u.hessians(pts[bad]))
    return out


# ---------------------------------------------------------------------------
# forms with field coefficients

class FormField(ExtElement):
    """A degree-p form whose coefficients are complex-valued fields.

    An ``ExtElement`` over ``CxField`` coefficients: {index bitmask:
    CxField}, with the algebra of ``exterior``.  Each coefficient is stored
    as a ``CxField`` and dropped when it is exactly zero; a form wedges a
    constant-coefficient ``ExtElement`` directly.
    """

    __slots__ = ()

    def _coefficient(self, c):
        c = _as_cx(c, self.n)
        return None if c.is_exact_zero() else c

    @classmethod
    def from_scalar(cls, u):
        return cls(u.n, 0, {0: u})

    def d(self, alpha):
        """Exterior-type differential: sum_j nabla_{j,alpha} f_I w^j ^ w^I."""
        if self.degree == 2 * self.n:
            return FormField(self.n, self.degree)  # no room; only top forms
        out = {}
        for mask, f in self.coeffs.items():
            for j in range(2 * self.n):
                bit = 1 << j
                if mask & bit:
                    continue
                g = nabla(f, j, alpha)
                if wedge_sign(bit, mask) < 0:
                    g = -g
                m = mask | bit
                out[m] = out[m] + g if m in out else g
        return FormField(self.n, self.degree + 1, out)


def laplace(u):
    """The closed 2-form with coefficients 2 delta_{ij} u at mask {i, j}.

    Equals d0(d1(u)); for plurisubharmonic u this is the basic positive form
    (e.g. u = |q|^2 gives 8 * beta)."""
    n = u.n
    return FormField(n, 2, {(1 << i) | (1 << j): delta_field(u, i, j) * 2
                            for i, j in itertools.combinations(range(2 * n), 2)})


def d_scalar(u, alpha):
    """d_alpha of a scalar field, as a degree-1 FormField."""
    return FormField.from_scalar(u).d(alpha)


def closedness_residual(form):
    """Max |coefficient| of d0(form) and d1(form) over the real and
    imaginary parts of their Polynomial coefficients, exactly: 0.0 when
    both vanish identically.  A non-Polynomial coefficient raises TypeError.
    """
    worst = Fraction(0)
    for alpha in (0, 1):
        for f in form.d(alpha).coeffs.values():
            for part in (f.re, f.im):
                for c in part.terms.values():
                    worst = max(worst, abs(Fraction(c)))
    return float(worst)


# ---------------------------------------------------------------------------
# change of variables

def change_of_variables_check(u_tilde, a_matrix, pts):
    """Residual of the delta-matrix transformation law under q -> A q.

    For u(x) = u_tilde(Ax) the claim is
        D_u(x) = tau(A)^T  D_{u_tilde}(Ax)  tau(A),
    checked at the sample points; returns the max entrywise residual.
    """
    a_matrix = a_matrix if isinstance(a_matrix, QMatrix) else QMatrix(a_matrix)
    tau_a = a_matrix.tau()
    u = LinearSubstitution(u_tilde, a_matrix.real_rep().astype(float))
    pts = np.asarray(pts, dtype=float)
    lhs = delta_matrices(u, pts)
    rhs = np.einsum("pi,bij,jq->bpq", tau_a.T, delta_matrices(u_tilde, u._mapped(pts)),
                    tau_a, optimize=True)
    return float(np.abs(lhs - rhs).max())
