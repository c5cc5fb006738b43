"""Sparse exterior algebra over C^(2n) with quaternionic structure.

Basis covectors are written omega^0 .. omega^(2n-1).  A multi-index
(i_1 < ... < i_p) is stored as a packed bitmask, so a wedge sign is the
parity of bit crossings and products cost O(1) per term pair.

The module carries three structures tied to the quaternionic picture:

* the canonical 2-element beta_n = sum_l omega^(2l) ^ omega^(2l+1) and the
  volume element Omega_2n = omega^0 ^ ... ^ omega^(2n-1), with
  beta_n^n = n! * Omega_2n;
* the real structure rho(j), the conjugate-linear algebra map induced by
  right multiplication by j (rho(j) omega^(2l) = omega^(2l+1),
  rho(j) omega^(2l+1) = -omega^(2l), coefficients conjugated); an element is
  "real" when it is a fixed point;
* pullbacks along right quaternionic-linear maps g: H^k -> H^n through the
  conjugate embedding, g* omega^p = sum_j tau(g)[p, j] omega^j, extended as
  an algebra homomorphism.  These generate the strongly positive cone and
  drive the sampled positivity test.

By Cauchy-Binet the pullback of sum_I c_I omega^I has coefficient
sum_I c_I det(tau(g)[I, J]) on omega^J.  A float or complex tau(g) takes
that route: every (I, J) minor of one call goes through batched
``np.linalg.det`` calls of at most ``_MINOR_BUDGET`` minors each.  An
object-dtype tau(g) holds exact entries and is pulled back by the chain of
wedges of the images of the basis covectors instead, which keeps the exact
lane apart from the float one.

Coefficients may be python complex numbers or exact RationalComplex values;
all structural operations (wedge, rho, pullback on exact tau data) preserve
exactness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .hamilton import QMatrix, random_qmatrix

#: Cap on the half-dimension n of the algebra; bitmasks use 2n bits.
MAX_N = 8

#: Minors per batched determinant call of the float pullback; a call
#: gathers at most _MINOR_BUDGET * p^2 complex entries at degree p.
_MINOR_BUDGET = 1 << 12


class RationalComplex:
    """Exact complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self):
        return RationalComplex(self.re, -self.im)

    def __add__(self, other):
        other = _as_rc(other)
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rc(other)
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_rc(other) - self

    def __mul__(self, other):
        other = _as_rc(other)
        return RationalComplex(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        try:
            other = _as_rc(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


def _as_rc(value):
    if isinstance(value, RationalComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalComplex(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RationalComplex")


def _conj(c):
    return c.conjugate()


def _negligible(c):
    if isinstance(c, (RationalComplex, Fraction, int)):
        return not c
    return abs(c) <= 1e-15


def indices_to_mask(indices):
    """Pack a strictly increasing index tuple into a bitmask."""
    mask = 0
    prev = -1
    for i in indices:
        if i <= prev:
            raise ValueError(f"multi-index must be strictly increasing, got {tuple(indices)}")
        mask |= 1 << i
        prev = i
    return mask


def mask_to_indices(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def wedge_sign(mask_a, mask_b):
    """Sign of omega^A ^ omega^B relative to the sorted union; 0 on overlap.

    Equals (-1)^c where c counts pairs (a in A, b in B) with a > b.
    """
    if mask_a & mask_b:
        return 0
    sign = 1
    rest = mask_a
    while rest:
        low = rest & -rest
        # bits of B below this bit of A each contribute one crossing
        if (mask_b & (low - 1)).bit_count() & 1:
            sign = -sign
        rest ^= low
    return sign


def perm_sign(seq):
    """Sign of the permutation given as a sequence; 0 if an entry repeats."""
    seq = tuple(seq)
    if len(set(seq)) != len(seq):
        return 0
    inv = 0
    for a, b in itertools.combinations(seq, 2):
        if a > b:
            inv += 1
    return -1 if inv & 1 else 1


class ExtElement:
    """Sparse element of the exterior algebra on C^(2n), homogeneous degree."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n, degree, coeffs=None):
        if not 1 <= n <= MAX_N:
            raise DimensionError(f"n must be in [1, {MAX_N}], got {n}")
        if not 0 <= degree <= 2 * n:
            raise DimensionError(f"degree must be in [0, {2 * n}], got {degree}")
        self.n = n
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for mask, c in coeffs.items():
                if mask >> (2 * n):
                    raise DimensionError(f"mask {mask:#x} exceeds 2n = {2 * n} bits")
                if mask.bit_count() != degree:
                    raise DimensionError(
                        f"mask {mask:#x} has degree {mask.bit_count()}, element has {degree}")
                if not _negligible(c):
                    self.coeffs[mask] = c

    @classmethod
    def zero(cls, n, degree=0):
        return cls(n, degree)

    @classmethod
    def scalar(cls, n, value):
        return cls(n, 0, {0: value})

    @classmethod
    def from_indices(cls, n, indices, coeff=1):
        """Basis element from an index sequence in any order (sign folded in)."""
        indices = tuple(indices)
        s = perm_sign(indices)
        if s == 0:
            return cls(n, len(indices))
        return cls(n, len(indices),
                   {indices_to_mask(sorted(indices)): coeff if s > 0 else -coeff})

    def terms(self):
        return sorted(self.coeffs.items())

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            v = out.get(mask, 0) + c
            if _negligible(v):
                out.pop(mask, None)
            else:
                out[mask] = v
        return ExtElement(self.n, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExtElement(self.n, self.degree, {m: -c for m, c in self.coeffs.items()})

    def scale(self, s):
        if _negligible(s):
            return ExtElement(self.n, self.degree)
        return ExtElement(self.n, self.degree, {m: c * s for m, c in self.coeffs.items()})

    def __mul__(self, s):
        if isinstance(s, ExtElement):
            return self.wedge(s)
        return self.scale(s)

    def __rmul__(self, s):
        return self.scale(s)

    def wedge(self, other):
        """Exterior product; anticommutative in the graded sense, exact."""
        if not isinstance(other, ExtElement):
            raise TypeError("wedge expects an ExtElement")
        if self.n != other.n:
            raise DimensionError("wedge of elements over different C^(2n)")
        deg = self.degree + other.degree
        if deg > 2 * self.n:
            # the product vanishes above top degree; report a top-degree zero
            return ExtElement(self.n, 2 * self.n)
        out = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                s = wedge_sign(ma, mb)
                if s == 0:
                    continue
                m = ma | mb
                v = ca * cb
                v = v if s > 0 else -v
                acc = out.get(m)
                v = v if acc is None else acc + v
                if _negligible(v):
                    out.pop(m, None)
                else:
                    out[m] = v
        return ExtElement(self.n, deg, out)

    __xor__ = wedge

    def wedge_power(self, k):
        if k < 0:
            raise ValueError("negative wedge power")
        acc = ExtElement.scalar(self.n, 1)
        for _ in range(k):
            acc = acc.wedge(self)
        return acc

    def norm_inf(self):
        return max((abs(complex(c)) for c in self.coeffs.values()), default=0.0)

    def is_zero(self, tol=0.0):
        if tol == 0.0:
            return not self.coeffs
        return self.norm_inf() <= tol

    def __eq__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        if (self.n, self.degree) != (other.n, other.degree):
            return False
        masks = set(self.coeffs) | set(other.coeffs)
        return all(self.coeffs.get(m, 0) == other.coeffs.get(m, 0) for m in masks)

    def __repr__(self):
        parts = []
        for mask, c in self.terms():
            idx = "".join(str(i) for i in mask_to_indices(mask))
            parts.append(f"{c!r}*w{idx}" if idx else f"{c!r}")
        body = " + ".join(parts) if parts else "0"
        return f"<ExtElement n={self.n} deg={self.degree}: {body}>"

    def _check_compatible(self, other):
        if not isinstance(other, ExtElement):
            raise TypeError("expected an ExtElement")
        if (self.n, self.degree) != (other.n, other.degree):
            raise DimensionError(
                f"incompatible elements: (n={self.n},deg={self.degree}) vs "
                f"(n={other.n},deg={other.degree})")


def beta(n):
    """beta_n = sum_l omega^(2l) ^ omega^(2l+1); satisfies beta^n = n!*Omega."""
    return ExtElement(n, 2, {indices_to_mask((2 * l, 2 * l + 1)): 1 for l in range(n)})


def omega_top(n):
    """Volume element omega^0 ^ ... ^ omega^(2n-1)."""
    return ExtElement(n, 2 * n, {(1 << (2 * n)) - 1: 1})


def top_coefficient(a):
    """Coefficient of Omega_2n in a top-degree element."""
    if a.degree != 2 * a.n:
        raise DimensionError(f"top_coefficient needs degree {2 * a.n}, got {a.degree}")
    return a.coeffs.get((1 << (2 * a.n)) - 1, 0)


def rho_j(a):
    """Real structure: conjugate-linear algebra map with rho(omega^(2l)) =
    omega^(2l+1) and rho(omega^(2l+1)) = -omega^(2l).  Squares to (-1)^degree
    on homogeneous elements and fixes beta_n."""
    out = {}
    for mask, c in a.coeffs.items():
        sign = 1
        mapped = []
        for i in mask_to_indices(mask):
            if i % 2 == 0:
                mapped.append(i + 1)
            else:
                mapped.append(i - 1)
                sign = -sign
        s = perm_sign(mapped)
        new_mask = indices_to_mask(sorted(mapped))
        v = _conj(c)
        if sign * s < 0:
            v = -v
        out[new_mask] = out.get(new_mask, 0) + v
    return ExtElement(a.n, a.degree, out)


def is_real(a, tol=1e-12):
    """Whether rho(j) fixes a, within tol relative to the largest coefficient."""
    d = rho_j(a) - a
    return d.norm_inf() <= tol * max(1.0, a.norm_inf())


class HLinearMap:
    """Right quaternionic-linear map H^k -> H^n, stored as an n x k QMatrix.

    Acts on the exterior algebra by pullback through the conjugate embedding:
    pull(omega^p) = sum_j tau[p, j] omega^j, extended multiplicatively.
    """

    __slots__ = ("matrix", "_tau")

    def __init__(self, matrix):
        self.matrix = matrix if isinstance(matrix, QMatrix) else QMatrix(matrix)
        self._tau = self.matrix.tau()

    @property
    def source_n(self):
        return self.matrix.cols

    @property
    def target_n(self):
        return self.matrix.rows

    @property
    def tau(self):
        return self._tau

    def pullback(self, a):
        return pullback(a, self._tau)

    @classmethod
    def random(cls, rng, n, k):
        return cls(random_qmatrix(rng, n, k))

    def __repr__(self):
        return f"HLinearMap({self.matrix!r})"


@lru_cache(maxsize=None)
def _subsets(width, p):
    """Every p-subset of range(width): an (m, p) index array and the masks."""
    combos = list(itertools.combinations(range(width), p))
    return np.array(combos, dtype=np.intp), [indices_to_mask(c) for c in combos]


def pullback(a, tau_g):
    """Pull a back along the map with embedding matrix tau_g (2n x 2k).

    The element lives over C^(2n); the result lives over C^(2k).  Algebra
    homomorphism: pullback(a ^ b) = pullback(a) ^ pullback(b).

    A float or complex tau_g is pulled back by Cauchy-Binet: the coefficient
    of omega^J is sum_I c_I det(tau_g[I, J]), with every (I, J) minor taken
    in batched ``np.linalg.det`` calls of at most ``_MINOR_BUDGET`` minors.
    An object-dtype tau_g holds exact entries (int, Fraction,
    RationalComplex); it takes the wedge chain of the images of the basis
    covectors, so exact data stays exact.
    """
    tau_g = np.asarray(tau_g)
    rows, cols = tau_g.shape
    if rows != 2 * a.n:
        raise DimensionError(
            f"pullback matrix has {rows} rows, element needs {2 * a.n}")
    if cols % 2:
        raise DimensionError("embedding matrix must have an even column count")
    k = cols // 2
    p = a.degree
    if p > 2 * k:
        return ExtElement(k, 2 * k)  # vanishes above the target's top degree
    if p == 0:
        return ExtElement(k, 0, a.coeffs)
    if tau_g.dtype == object:
        return _wedge_chain(a, tau_g, k)
    if not a.coeffs:
        return ExtElement(k, p)
    sources = np.array([mask_to_indices(m) for m in a.coeffs], dtype=np.intp)
    weights = np.array([complex(c) for c in a.coeffs.values()])
    targets, masks = _subsets(cols, p)
    out = np.zeros(len(masks), dtype=complex)
    t_step = min(len(masks), _MINOR_BUDGET)
    s_step = max(1, _MINOR_BUDGET // t_step)
    for s in range(0, len(sources), s_step):
        src = sources[s:s + s_step, None, :, None]
        for t in range(0, len(masks), t_step):
            minors = tau_g[src, targets[None, t:t + t_step, None, :]]
            out[t:t + t_step] += weights[s:s + s_step] @ np.linalg.det(minors)
    return ExtElement(k, p, dict(zip(masks, out.tolist())))


def _wedge_chain(a, tau_g, k):
    """Exact-lane pullback: wedge the images of each term's covectors."""
    # image of each basis covector as a 1-element over C^(2k)
    images = [ExtElement(k, 1, {1 << j: tau_g[p, j] for j in range(2 * k)
                                if not _negligible(tau_g[p, j])})
              for p in range(len(tau_g))]
    out = ExtElement(k, a.degree)
    for mask, c in a.coeffs.items():
        term = ExtElement.scalar(k, c)
        for i in mask_to_indices(mask):
            term = term.wedge(images[i])
            if not term.coeffs:
                break
        out = out + term
    return out


def elementary_sp(maps):
    """Elementary strongly positive 2k-element from right-linear maps H^n -> H.

    Given eta_1..eta_k (each an HLinearMap or 1 x n QMatrix), returns
    eta_1*omega~^0 ^ eta_1*omega~^1 ^ ... ^ eta_k*omega~^0 ^ eta_k*omega~^1,
    where eta*omega~^p is the 1-element with coefficients tau(eta)[p, :].
    """
    maps = [m if isinstance(m, HLinearMap) else HLinearMap(m) for m in maps]
    if not maps:
        raise DimensionError("elementary_sp needs at least one map")
    n = maps[0].source_n
    if any(m.source_n != n or m.target_n != 1 for m in maps):
        raise DimensionError("elementary_sp expects 1 x n maps with a common n")
    acc = ExtElement.scalar(n, 1)
    for m in maps:
        for p in (0, 1):
            one = ExtElement(n, 1, {1 << j: m.tau[p, j] for j in range(2 * n)
                                    if not _negligible(m.tau[p, j])})
            acc = acc.wedge(one)
    return acc


def random_elementary_sp(rng, n, k):
    """Random elementary strongly positive 2k-element over C^(2n)."""
    return elementary_sp([HLinearMap.random(rng, 1, n) for _ in range(k)])


def random_strongly_positive(rng, n, k, terms=3):
    """Random convex combination of elementary strongly positive elements."""
    weights = rng.random(terms) + 0.05
    weights /= weights.sum()
    acc = ExtElement(n, 2 * k)
    for w in weights:
        acc = acc + random_elementary_sp(rng, n, k).scale(complex(w))
    return acc


NOT_POSITIVE = "NOT_POSITIVE"
LIKELY_POSITIVE = "LIKELY_POSITIVE"


@dataclass
class PositivityResult:
    """Outcome of the sampled positivity criterion (one-sided)."""
    verdict: str
    min_kappa: float
    samples: int
    witness: HLinearMap | None = None

    def __bool__(self):
        return self.verdict == LIKELY_POSITIVE


def positivity_test(a, samples=512, seed=0, tol=1e-9):
    """Sample the positivity criterion for a 2k-element over C^(2n).

    An element is positive iff every pullback along a right-linear
    g: H^k -> H^n is a nonnegative multiple of the volume element of C^(2k).
    This draws `samples` Gaussian maps and checks the pulled-back top
    coefficient kappa; a negative real part or a nonreal kappa beyond
    tolerance yields NOT_POSITIVE with the witness map.  A clean sweep is
    only LIKELY_POSITIVE: the criterion is sampled, never proven.

    Elements that are not rho(j)-real are rejected immediately; fewer than
    one sample is a ValueError, since an empty sweep would pass anything.
    """
    if samples < 1:
        raise ValueError(f"positivity_test needs at least one sample, got {samples}")
    if a.degree % 2:
        return PositivityResult(NOT_POSITIVE, float("nan"), 0)
    k = a.degree // 2
    if k == 0:
        c = complex(a.coeffs.get(0, 0))
        ok = abs(c.imag) <= tol and c.real >= -tol
        return PositivityResult(LIKELY_POSITIVE if ok else NOT_POSITIVE, c.real, 0)
    if not is_real(a):
        return PositivityResult(NOT_POSITIVE, float("nan"), 0)
    scale = a.norm_inf()
    if scale == 0.0:
        return PositivityResult(LIKELY_POSITIVE, 0.0, 0)
    # float coefficients, read through complex() as the float pullback reads
    # them: an exact RationalComplex cannot take a float scale
    b = ExtElement(a.n, a.degree,
                   {m: complex(c) * (1.0 / scale) for m, c in a.coeffs.items()})
    rng = np.random.default_rng(seed)
    min_kappa = float("inf")
    for _ in range(samples):
        g = HLinearMap.random(rng, a.n, k)
        kappa = complex(top_coefficient(g.pullback(b)))
        bound = tol * max(1.0, abs(kappa))
        if abs(kappa.imag) > bound or kappa.real < -bound:
            return PositivityResult(NOT_POSITIVE, kappa.real * scale, samples, g)
        min_kappa = min(min_kappa, kappa.real)
    return PositivityResult(LIKELY_POSITIVE, min_kappa * scale, samples)
