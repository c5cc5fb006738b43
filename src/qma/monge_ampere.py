"""Quaternionic Monge-Ampere densities and the Hessian bridge.

The n-fold product of the 2-form laplacian of u is a top form; its
coefficient relative to the volume element w^0^...^w^{2n-1} is the
Monge-Ampere density computed here.  Expanding the product over perfect
matchings of {0..2n-1} gives

    density(u) = 2^n n! * sum_M sign(M) * prod_s D[a_s, b_s],

with D the antisymmetric delta matrix of u; the polarized (mixed) version
also sums over the assignments of the fields to the pairs.  Every
top-degree density in the package (these two, the current densities
T ^ beta^p and the boundary measure) is this one signed sum, a mixed
Pfaffian: ``mixed_pfaffian`` evaluates it from a term table cached per
(n, constant mask, factor-multiplicity pattern), with one gather and
multiply per pair slot and one dot with the integer coefficients.  A
quadratic u has one delta matrix everywhere, so its density is a
constant: the expansion then runs on one row and is broadcast.
For twice-differentiable u the density agrees with n! times the Moore
determinant of the hyperhermitian Hessian matrix

    H(u)_{lk} = 2 delta_{(2l)(2k+1)} u + j * 2 delta_{(2l+1)(2k+1)} u,

which is the bridge between the pointwise linear-algebra picture (Moore
determinants, mixed discriminants, eigenvalues of the complex embedding)
and the differential-form picture.

The family u_eps = -1/(|q|^2 + eps) has closed-form references implemented
at the bottom: its density 8^n n! eps / (|q|^2+eps)^(2n+1),
the exact ball mass as a rational multiple of pi^(2n), and the eps -> 0
limit 8^n n! pi^(2n) / (2n)! concentrating at the origin.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NumericalInconsistencyError
from .calculus import delta_matrices
from .hamilton import MAX_MATRIX_DIM, QMatrix, Quaternion, _tau_blocks, moore_det
from .exterior import perm_sign
from .quadrature import sphere_moment_coefficient


@lru_cache(maxsize=None)
def perfect_matchings(n):
    """Signed perfect matchings of {0..2n-1}.

    Returns a tuple of (pairs, sign) where pairs = ((a_1,b_1),...,(a_n,b_n))
    with a_s < b_s and a_1 < a_2 < ...; sign is the parity of the flattened
    sequence as a permutation of 0..2n-1.  There are (2n-1)!! of them.
    """
    if n > MAX_MATRIX_DIM:
        raise DimensionError(f"n={n} exceeds the supported cap {MAX_MATRIX_DIM}")

    out = []

    def rec(remaining, acc):
        if not remaining:
            flat = [v for pair in acc for v in pair]
            out.append((tuple(acc), perm_sign(flat)))
            return
        a = remaining[0]
        for idx in range(1, len(remaining)):
            b = remaining[idx]
            rec(remaining[1:idx] + remaining[idx + 1:], acc + [(a, b)])

    rec(list(range(2 * n)), [])
    return tuple(out)


@lru_cache(maxsize=None)
def _term_table(n, mask, labels):
    """Signed terms of the matching expansion of ``mixed_pfaffian``.

    ``labels[s]`` names the factor array of product slot s (equal labels
    mark one array repeated), and ``mask`` the indices a constant factor
    already occupies.  Returns (coefs, slots): one entry per matching of
    the free indices and distinct assignment of the labels to its pairs,
    with coefficient sign * prod_i k_i! (k_i the multiplicity of label i)
    in ``coefs``, and per slot a (label, a, b) triple whose index arrays
    hold that slot's pair for every entry.  Slots are ordered by label, so
    each slot gathers from a single factor.
    """
    fixed = [i for i in range(2 * n) if mask >> i & 1]
    rest = [i for i in range(2 * n) if not mask >> i & 1]
    if len(rest) != 2 * len(labels):
        raise DimensionError("constant factor degree does not complement the products")
    slot_labels = sorted(labels)
    weight = math.prod(math.factorial(labels.count(k)) for k in set(labels))
    assignments = sorted(set(itertools.permutations(slot_labels)))
    coefs, pairs_of = [], []
    for pairs, _ in perfect_matchings(len(labels)):
        pairs = [(rest[a], rest[b]) for a, b in pairs]
        sign = perm_sign(fixed + [v for pair in pairs for v in pair])
        for assign in assignments:
            coefs.append(sign * weight)
            pairs_of.append([pair for _, pair in sorted(zip(assign, pairs))])
    coefs = np.array(coefs, dtype=float)
    index = np.array(pairs_of, dtype=np.intp)  # (terms, slots, 2)
    coefs.setflags(write=False)
    index.setflags(write=False)
    return coefs, tuple((label, index[:, s, 0], index[:, s, 1])
                        for s, label in enumerate(slot_labels))


def mixed_pfaffian(n, factors, mask=0):
    """sum_M sign(mask, M) sum_sigma prod_s F_sigma(s)[:, a_s, b_s].

    ``factors`` are m batched antisymmetric matrices (N, 2n, 2n); M runs
    over the perfect matchings {(a_s, b_s)} of the 2m indices outside
    ``mask``, sign(mask, M) is the parity of (mask indices, a_1, b_1, ...)
    as a permutation, and sigma over the assignments of the factors to the
    pairs.  Passing one array several times (``[D] * n``) merges the
    assignments that only permute it, so the term count is
    (2m-1)!! * m! / prod_i k_i!.  Returns a complex (N,) array, the batch
    evaluated whole (every quadrature rule bounds N by ``_BLOCK_NODES``).

    Constant factors (every one a stride-0 broadcast along the points, as
    ``delta_matrices`` gives for a polynomial whose second partials are all
    constant) are expanded at row 0 only, each distinct array sliced once so
    the term table stays the same, and that value comes back as a read-only
    broadcast view.
    """
    npts = len(factors[0])
    if npts > 1 and all(f.strides[0] == 0 for f in factors):
        rows = {}
        row = mixed_pfaffian(n, [rows.setdefault(id(f), f[:1]) for f in factors], mask)
        return np.broadcast_to(row, (npts,))
    labels = tuple(next(j for j, g in enumerate(factors) if g is f) for f in factors)
    coefs, slots = _term_table(n, mask, labels)
    prod = None
    for label, a, b in slots:
        vals = factors[label][:, a, b]
        prod = vals if prod is None else prod * vals
    return prod @ coefs


# the largest imaginary residue of a density, relative to max(1, |density|),
# that counts as rounding
_IMAG_TOL = 1e-8


def _to_real(arr, what):
    scale = max(1.0, float(np.abs(arr).max()) if arr.size else 0.0)
    worst = float(np.abs(arr.imag).max()) if arr.size else 0.0
    if worst > _IMAG_TOL * scale:
        raise NumericalInconsistencyError(
            f"{what} came out non-real (imaginary residue {worst:.3e})")
    return arr.real.copy()


def ma_density(u, pts):
    """Monge-Ampere density of u at the sample points (real array).

    Computed as 2^n times the matching expansion of n copies of the delta
    matrix, from a single batched Hessian sweep.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = u.n
    dm = delta_matrices(u, pts)
    vals = (2.0 ** n) * mixed_pfaffian(n, [dm] * n)
    return _to_real(vals, "Monge-Ampere density")


def mixed_ma(fields, pts):
    """Polarized Monge-Ampere density of n fields (symmetric, multilinear).

    mixed(u, u, ..., u) equals ma_density(u).  Costs (2n-1)!! * n! terms
    per point.
    """
    fields = list(fields)
    n = fields[0].n
    if len(fields) != n:
        raise DimensionError(f"need exactly n={n} fields, got {len(fields)}")
    if any(f.n != n for f in fields):
        raise DimensionError("fields live on different spaces")
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dms = [delta_matrices(f, pts) for f in fields]
    vals = (2.0 ** n) * mixed_pfaffian(n, dms)
    return _to_real(vals, "mixed Monge-Ampere density")


# ---------------------------------------------------------------------------
# hyperhermitian Hessian

def _hessian_components(u, pts):
    """Quaternion components of H(u) at many points: (N, n, n, 4) floats.

    One delta-matrix sweep; entry (l, k) is c1 + j*c2 with c1 = 2 D[2l, 2k+1]
    and c2 = 2 D[2l+1, 2k+1], stored as (Re c1, Im c1, Re c2, -Im c2): since
    j*(a + b*i) = a*j - b*k, the k-component is -Im c2.
    """
    d = delta_matrices(u, np.atleast_2d(np.asarray(pts, dtype=float)))
    c1 = 2.0 * d[:, 0::2, 1::2]
    c2 = 2.0 * d[:, 1::2, 1::2]
    return np.stack([c1.real, c1.imag, c2.real, -c2.imag], axis=-1)


def _qmatrix(components):
    return QMatrix([[Quaternion(*q) for q in row] for row in components.tolist()])


def tau_hessians(u, pts):
    """Complex embeddings tau(H(u)) at many points: (N, 2n, 2n) Hermitian."""
    return _tau_blocks(_hessian_components(u, pts))


def moore_equivalence_residual(u, pts):
    """max |density(u) - n! Moore(H(u))| over the sample points, or NaN
    when any density or Moore value is not finite (a plain max would drop
    the NaN and report agreement).

    The two sides are computed through genuinely different pipelines
    (matchings over delta matrices vs. the cyclic Moore expansion), so this
    doubles as an internal consistency check.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    dens = ma_density(u, pts)
    moore = np.array([math.factorial(u.n) * float(moore_det(_qmatrix(h)))
                      for h in _hessian_components(u, pts)])
    if not (np.isfinite(dens).all() and np.isfinite(moore).all()):
        return math.nan
    return float(np.max(np.abs(dens - moore), initial=0.0))


# the most negative eigenvalue of tau(H) that psh_test counts as rounding
_PSH_TOL = 1e-9


class PshResult:
    """Outcome of a pointwise plurisubharmonicity scan."""

    __slots__ = ("is_psh", "min_eigenvalue", "witness")

    def __init__(self, is_psh, min_eigenvalue, witness):
        self.is_psh = bool(is_psh)
        self.min_eigenvalue = float(min_eigenvalue)
        self.witness = witness

    def __bool__(self):
        return self.is_psh

    def __repr__(self):
        return (f"PshResult(is_psh={self.is_psh}, "
                f"min_eigenvalue={self.min_eigenvalue:.6g})")


def psh_test(u, pts):
    """Check nonnegativity of the hyperhermitian Hessian on sample points.

    The Hessian is nonnegative iff its complex embedding tau(H) is positive
    semidefinite; eigenvalues are allowed to dip to -``_PSH_TOL`` before
    failing.
    Returns a PshResult with the smallest eigenvalue seen and its point.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    th = tau_hessians(u, pts)
    herm_defect = float(np.abs(th - np.conj(np.swapaxes(th, 1, 2))).max())
    if herm_defect > 1e-6 * max(1.0, float(np.abs(th).max())):
        raise NumericalInconsistencyError(
            f"Hessian embedding is not Hermitian (defect {herm_defect:.3e})")
    eigs = np.linalg.eigvalsh(0.5 * (th + np.conj(np.swapaxes(th, 1, 2))))
    idx = int(np.argmin(eigs[:, 0]))
    least = float(eigs[idx, 0])
    return PshResult(least >= -_PSH_TOL, least, pts[idx].copy())


# ---------------------------------------------------------------------------
# closed-form references for u_eps = -1/(|q|^2 + eps)

def fundamental_ma_density(n, eps, pts):
    """Density of the regularized fundamental family, in closed form:
    8^n n! eps / (|q|^2 + eps)^(2n+1)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    s = eps + np.einsum("bi,bi->b", pts, pts)
    return (8.0 ** n) * math.factorial(n) * eps / s ** (2 * n + 1)


def fundamental_mass_exact(n, eps, r):
    """Exact mass of the regularized density over the ball B(0, r).

    Returns the Fraction c with   mass = c * pi^(2n).   Uses the
    substitution t = rho^2 and an exact binomial antiderivative, so eps and
    r must be rational (Fractions or ints/floats that convert exactly).
    In closed form c = L * (r^2 / (r^2 + eps))^(2n), with L the eps -> 0
    limit ``fundamental_mass_limit_coefficient(n)``; at r = 1 the mass sits
    1 - (1 + eps)^(-2n) ~ 2n*eps below its limit.
    """
    eps = Fraction(eps)
    r = Fraction(r)
    if eps <= 0:
        raise ValueError("eps must be positive for the exact mass")

    def antideriv(t):
        # integral of t^(2n-1)/(t+eps)^(2n+1) dt via t = (t+eps) - eps
        v = t + eps
        acc = Fraction(0)
        for k in range(2 * n):
            c = Fraction(math.comb(2 * n - 1, k)) * (-eps) ** (2 * n - 1 - k)
            acc += c * v ** (k - 2 * n) / (k - 2 * n)
        return acc

    integral = antideriv(r * r) - antideriv(Fraction(0))
    # |S^(4n-1)| = 2/(2n-1)! pi^(2n), the sphere's zeroth moment
    area = sphere_moment_coefficient(4 * n, (0,) * (4 * n))
    return (area * Fraction(8 ** n * math.factorial(n), 2)
            * eps * integral)


def fundamental_mass_limit_coefficient(n):
    """eps -> 0 limit of the ball mass: 8^n n! / (2n)!  (times pi^(2n))."""
    return Fraction(8 ** n * math.factorial(n), math.factorial(2 * n))
