"""Quaternion arithmetic and the conjugate embedding into complex matrices.

A quaternion q = x0 + x1*i + x2*j + x3*k is embedded as the 2x2 complex
matrix

    tau(q) = [[x0 - i*x1, -x2 + i*x3],
              [x2 + i*x3,  x0 + i*x1]]

and the embedding extends blockwise to quaternionic l x m matrices, giving
2l x 2m complex matrices.  tau is multiplicative, sends the conjugate
transpose to the conjugate transpose, and intertwines the standard
block-diagonal symplectic form J:  J * conj(tau(A)) = tau(A) * J.

Components may be ints, floats or fractions.Fraction; all quaternion and
Moore-determinant arithmetic stays exact on exact inputs.  Only the
embedding forces a conversion to complex floats: ``tau``, ``QMatrix.tau``
and the batched Hessian embeddings of ``monge_ampere`` all go through one
block writer, ``_tau_blocks``, on arrays of components.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, NumericalInconsistencyError

#: Largest quaternionic matrix size accepted by the algebraic routines. The
#: permutation expansions below grow factorially and are meant for small n.
MAX_MATRIX_DIM = 8

#: The largest vector part of a Moore determinant, relative to
#: max(1, |real part|), that counts as rounding.
_MOORE_TOL = 1e-9


class Quaternion:
    """A quaternion with components of any exact or floating numeric type."""

    __slots__ = ("x0", "x1", "x2", "x3")

    def __init__(self, x0=0, x1=0, x2=0, x3=0):
        self.x0 = x0
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3

    @property
    def components(self):
        return (self.x0, self.x1, self.x2, self.x3)

    def conjugate(self):
        return Quaternion(self.x0, -self.x1, -self.x2, -self.x3)

    def norm_sq(self):
        return self.x0 * self.x0 + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def norm(self):
        return math.sqrt(float(self.norm_sq()))

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.x0 + other.x0, self.x1 + other.x1,
                          self.x2 + other.x2, self.x3 + other.x3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.x0 - other.x0, self.x1 - other.x1,
                          self.x2 - other.x2, self.x3 - other.x3)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Quaternion(-self.x0, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return Quaternion(self.x0 * other, self.x1 * other,
                              self.x2 * other, self.x3 * other)
        a0, a1, a2, a3 = self.components
        b0, b1, b2, b3 = _coerce(other).components
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self * other
        return _coerce(other) * self

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __bool__(self):
        return bool(self.x0 or self.x1 or self.x2 or self.x3)

    def __abs__(self):
        return self.norm()

    def __repr__(self):
        return f"Quaternion({self.x0!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Quaternion(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a quaternion")


QI = Quaternion(0, 1, 0, 0)
QJ = Quaternion(0, 0, 1, 0)
QK = Quaternion(0, 0, 0, 1)
QONE = Quaternion(1, 0, 0, 0)


#: Components behind the (re, im) pairs of tau's blocks (0,0), (0,1), (1,0),
#: (1,1): (x0, -x1), (-x2, x3), (x2, x3), (x0, x1); slots 1 and 2 negated.
_TAU_PARTS = np.array([0, 1, 2, 3, 2, 3, 0, 1])


def _tau_blocks(x):
    """The conjugate embedding of quaternion components, blockwise.

    ``x`` holds (x0, x1, x2, x3) along its last axis, shape (..., rows,
    cols, 4), as floats or anything float() takes (ints, Fractions).
    Returns the (..., 2*rows, 2*cols) complex array whose 2x2 block (l, m)
    is tau of entry (l, m); the one place that writes tau's layout.
    """
    x = np.asarray(x, dtype=float)
    *lead, rows, cols, _ = x.shape
    parts = x[..., _TAU_PARTS]
    parts[..., 1:3] = -parts[..., 1:3]
    # (rows, cols, block row, block col, re/im) -> (rows, block row, cols, ...)
    parts = parts.reshape(*lead, rows, cols, 2, 2, 2).swapaxes(-4, -3)
    return np.ascontiguousarray(parts).view(complex).reshape(*lead, 2 * rows, 2 * cols)


#: Left multiplication by a on the components of q: entry (i, m) of the
#: 4x4 block is _REAL_SIGNS[i, m] * a[_REAL_PARTS[i, m]].
_REAL_PARTS = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_REAL_SIGNS = np.array([[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]],
                       dtype=object)


def tau(q):
    """Embed a quaternion as a 2x2 complex matrix (see module docstring)."""
    return _tau_blocks([[_coerce(q).components]])


class QMatrix:
    """A dense quaternionic matrix with entrywise exact arithmetic.

    Entries are Quaternion; scalars (int/float/Fraction) are coerced on
    construction.  Supports +, -, scalar *, matrix @, conjugate transpose,
    and the blockwise embedding .tau().
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, data):
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise DimensionError("QMatrix needs at least one row and column")
        self.rows = len(data)
        self.cols = len(data[0])
        if any(len(row) != self.cols for row in data):
            raise DimensionError("ragged rows in QMatrix")
        if max(self.rows, self.cols) > MAX_MATRIX_DIM:
            raise DimensionError(
                f"quaternionic matrices capped at {MAX_MATRIX_DIM}x{MAX_MATRIX_DIM}")
        self._data = [[_coerce(v) for v in row] for row in data]

    @classmethod
    def identity(cls, m):
        return cls([[QONE if i == j else Quaternion() for j in range(m)] for i in range(m)])

    def __getitem__(self, idx):
        i, j = idx
        return self._data[i][j]

    def entries(self):
        for i, row in enumerate(self._data):
            for j, v in enumerate(row):
                yield i, j, v

    def __add__(self, other):
        self._check_same_shape(other)
        return QMatrix([[a + b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self._data, other._data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return QMatrix([[a - b for a, b in zip(ra, rb)]
                        for ra, rb in zip(self._data, other._data)])

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, Fraction, Quaternion)):
            return NotImplemented
        return QMatrix([[v * scalar for v in row] for row in self._data])

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, float, Fraction)):
            return NotImplemented
        return QMatrix([[scalar * v for v in row] for row in self._data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Quaternion()
                for k in range(self.cols):
                    acc = acc + self._data[i][k] * other._data[k][j]
                row.append(acc)
            out.append(row)
        return QMatrix(out)

    def conj_transpose(self):
        return QMatrix([[self._data[i][j].conjugate() for i in range(self.rows)]
                        for j in range(self.cols)])

    def tau(self):
        """Blockwise conjugate embedding: a 2*rows x 2*cols complex array."""
        return _tau_blocks([[q.components for q in row] for row in self._data])

    def real_rep(self):
        """The 4*rows x 4*cols real matrix of q -> A q on stacked components,
        as an object array keeping the entries' type (exact stays exact)."""
        x = np.array([[q.components for q in row] for row in self._data], dtype=object)
        blocks = x[..., _REAL_PARTS] * _REAL_SIGNS      # (rows, cols, 4, 4)
        return blocks.swapaxes(1, 2).reshape(4 * self.rows, 4 * self.cols)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for ra, rb in zip(self._data, other._data) for a, b in zip(ra, rb))

    def __repr__(self):
        return f"QMatrix({self._data!r})"

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")


def jmatrix(m):
    """Block-diagonal symplectic form: m blocks of [[0, 1], [-1, 0]]."""
    out = np.zeros((2 * m, 2 * m))
    for l in range(m):
        out[2 * l, 2 * l + 1] = 1.0
        out[2 * l + 1, 2 * l] = -1.0
    return out


def is_hyperhermitian(a, tol=0.0):
    """True if conj(a[j,i]) == a[i,j] for all entries (within tol per component)."""
    if not isinstance(a, QMatrix):
        a = QMatrix(a)
    if a.rows != a.cols:
        return False
    for i in range(a.rows):
        for j in range(i, a.cols):
            d = a[i, j] - a[j, i].conjugate()
            if tol == 0.0:
                if d:
                    return False
            elif max(abs(float(c)) for c in d.components) > tol:
                return False
    return True


def _cycles_decreasing_leader(perm):
    """Disjoint cycles of perm, each led by its smallest element, ordered by
    decreasing leader.  perm is a tuple with perm[i] = image of i."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append(cyc)
    cycles.reverse()  # collected by increasing leader
    return cycles


def moore_det(a):
    """Moore determinant of a hyperhermitian quaternionic matrix.

    Uses the cycle-ordered permutation expansion: for each permutation, write
    it as disjoint cycles each led by its smallest element, order the cycles
    by decreasing leader, and multiply the entries a[c0,c1]*a[c1,c2]*...*
    a[cl,c0] along each cycle in that fixed order; sum with the permutation
    sign.  Exact on exact (int/Fraction) entries.

    The result is a real scalar for hyperhermitian input; a vector residue
    beyond ``_MOORE_TOL`` (relative) raises NumericalInconsistencyError.
    """
    if not isinstance(a, QMatrix):
        a = QMatrix(a)
    if a.rows != a.cols:
        raise DimensionError("moore_det needs a square matrix")
    m = a.rows
    total = Quaternion()
    for perm in itertools.permutations(range(m)):
        term = None
        cycles = _cycles_decreasing_leader(perm)
        for cyc in cycles:
            factor = a[cyc[0], cyc[1 % len(cyc)]] if len(cyc) > 1 else a[cyc[0], cyc[0]]
            for s in range(1, len(cyc)):
                factor = factor * a[cyc[s], cyc[(s + 1) % len(cyc)]]
            term = factor if term is None else term * factor
        # the sign of a permutation is (-1)^(m - number of cycles)
        if (m - len(cycles)) % 2:
            term = -term
        total = total + term
    vec = max(abs(float(c)) for c in (total.x1, total.x2, total.x3))
    scale = max(1.0, abs(float(total.x0)))
    if vec > _MOORE_TOL * scale:
        raise NumericalInconsistencyError(
            f"moore_det: vector residue {vec:.3e} on input that should be hyperhermitian")
    return total.x0


def mixed_discriminant(*matrices):
    """Mixed discriminant of n hyperhermitian m x m matrices (n == m).

    Polarization of the Moore determinant by inclusion-exclusion:

        det(A_1, ..., A_n) = (1/n!) * sum_{S nonempty} (-1)^(n-|S|)
                             moore_det(sum_{i in S} A_i)

    Symmetric and multilinear; collapses to moore_det when all arguments
    coincide; exact on exact entries.
    """
    mats = [m if isinstance(m, QMatrix) else QMatrix(m) for m in matrices]
    n = len(mats)
    if n == 0:
        raise DimensionError("mixed_discriminant needs at least one matrix")
    if any(m.rows != n or m.cols != n for m in mats):
        raise DimensionError("mixed_discriminant: need n matrices of size n x n")
    exact = all(isinstance(c, (int, Fraction))
                for m in mats for _, _, q in m.entries() for c in q.components)
    total = Fraction(0) if exact else 0.0
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for subset in itertools.combinations(range(n), size):
            acc = mats[subset[0]]
            for idx in subset[1:]:
                acc = acc + mats[idx]
            total += sign * moore_det(acc)
    if exact:
        return total / math.factorial(n)
    return total / float(math.factorial(n))


# ----------------------------------------------------------------------------
# random generators used across the test-suites and the CLI verify command

def random_quaternion(rng, exact=False):
    """Gaussian components, or (exact=True) Fractions k/4 with k in [-8, 8]."""
    if exact:
        return Quaternion(*(Fraction(int(rng.integers(-8, 9)), 4) for _ in range(4)))
    return Quaternion(*rng.standard_normal(4))

def random_qmatrix(rng, rows, cols=None, exact=False):
    cols = rows if cols is None else cols
    return QMatrix([[random_quaternion(rng, exact) for _ in range(cols)]
                    for _ in range(rows)])


def random_hyperhermitian(rng, m, exact=False):
    b = random_qmatrix(rng, m, exact=exact)
    return (b + b.conj_transpose()) * Fraction(1, 2)

