"""The shared matching expansion behind every top-degree density.

``mixed_pfaffian`` serves ``ma_density``, ``mixed_ma``,
``wedge_top_density`` and ``boundary_measure_density``.  The oracles are
independent of it: the exact lane (symbolic wedge of laplacians and
constant forms) for the first three, and the direct i != j sum over the
normal frame for the boundary density.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from qma.calculus import delta_matrices, nabla_matrices
from qma.currents import RegularizedCurrent
from qma.exterior import beta, perm_sign, random_strongly_positive
from qma.fields import Polynomial, normsq
from qma.monge_ampere import (_term_table, ma_density, mixed_ma, mixed_pfaffian,
                               perfect_matchings)
from qma.potential import boundary_measure_density


def _polynomials(n):
    """Random polynomials of degree <= 4 with small rational coefficients."""
    monomial = st.lists(st.integers(0, 4 * n - 1), min_size=0, max_size=4).map(
        lambda axes: tuple(axes.count(m) for m in range(4 * n)))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(monomial, coeff, min_size=1, max_size=4).map(
        lambda terms: Polynomial(n, terms))


@st.composite
def _currents(draw):
    """(n, potentials, constant, pad) with const ^ laplacians ^ beta^pad of
    top degree; the constant is strongly positive."""
    n = draw(st.sampled_from([1, 2]))
    k = draw(st.integers(0, n))
    pad = draw(st.integers(0 if k else 1, n - k))
    potentials = draw(st.lists(_polynomials(n), min_size=k, max_size=k))
    c = n - k - pad
    constant = None
    if c:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        constant = random_strongly_positive(rng, n, c)
    return n, potentials, constant, pad


def _exact_density(n, potentials, constant, pad, pts):
    """Top coefficient of the symbolic form const ^ laplacians ^ beta^pad."""
    if pad:
        bp = beta(n).wedge_power(pad)
        constant = bp if constant is None else constant ^ bp
    coeff = RegularizedCurrent(n, potentials, constant).form().coeffs.get(
        (1 << (2 * n)) - 1)
    return np.zeros(len(pts)) if coeff is None else coeff.values(pts)


def _assert_matches(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(np.imag(want), 0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(got, np.real(want), rtol=1e-10, atol=1e-10 * scale)


@settings(max_examples=40, deadline=None)
@given(_currents(), st.integers(0, 2 ** 32 - 1))
def test_densities_match_exact_lane(case, seed):
    n, potentials, constant, pad = case
    pts = np.random.default_rng(seed).standard_normal((5, 4 * n))
    want = _exact_density(n, potentials, constant, pad, pts)
    current = RegularizedCurrent(n, potentials, constant)
    _assert_matches(current.trace_density(pts, pad=pad), want)
    if len(potentials) == n:
        _assert_matches(mixed_ma(potentials, pts), want)
        u = potentials[0]
        _assert_matches(ma_density(u, pts), _exact_density(n, [u] * n, None, 0, pts))


def _boundary_oracle(phi, pts):
    """The i != j sum over the normal frame, term by term:
    2^(n-1) (n-1)! sum sign * n_{i0} grad_{j1} phi * prod delta_{ab} phi."""
    n = phi.n
    grads = phi.gradients(pts)
    v0, v1 = nabla_matrices(n)
    n0 = (grads / np.linalg.norm(grads, axis=1)[:, None]) @ v0.T
    g1 = grads @ v1.T
    dmat = delta_matrices(phi, pts)
    total = np.zeros(len(pts), dtype=complex)
    for i in range(2 * n):
        for j in range(2 * n):
            if i == j:
                continue
            rest = [m for m in range(2 * n) if m not in (i, j)]
            for pairs, _ in perfect_matchings(n - 1):
                pairs = [(rest[a], rest[b]) for a, b in pairs]
                sign = perm_sign([i, j] + [v for p in pairs for v in p])
                prod = n0[:, i] * g1[:, j]
                for a, b in pairs:
                    prod = prod * dmat[:, a, b]
                total += sign * prod
    return 2 ** (n - 1) * math.factorial(n - 1) * total


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3]).flatmap(
           lambda n: st.tuples(st.just(n), _polynomials(n))),
       st.integers(0, 2 ** 32 - 1))
def test_boundary_density_matches_pair_sum(case, seed):
    n, p = case
    phi = normsq(n) + p
    pts = np.random.default_rng(seed).standard_normal((5, 4 * n))
    # the density is defined on regular level sets only
    assume(np.linalg.norm(phi.gradients(pts), axis=1).min() > 1e-3)
    want = _boundary_oracle(phi, pts)
    scale = max(1.0, float(np.abs(want).max()))
    np.testing.assert_allclose(np.imag(want), 0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(boundary_measure_density(phi, pts), np.real(want),
                               rtol=1e-12, atol=1e-12 * scale)


@st.composite
def _broadcast_factors(draw):
    """(n, factors, mask): m <= n random antisymmetric complex matrices,
    each broadcast along N >= 2 points (stride 0), with repeated and
    distinct labels, and a constant of degree 2(n - m) on the mask."""
    n = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, n))
    fixed = draw(st.sets(st.integers(0, 2 * n - 1), min_size=2 * (n - m),
                         max_size=2 * (n - m)))
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    npts = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = {}
    for label in labels:
        if label not in mats:
            g = rng.standard_normal((2 * n, 2 * n, 2)) @ np.array([1.0, 1j])
            mats[label] = np.broadcast_to(g - g.T, (npts, 2 * n, 2 * n))
    return n, [mats[label] for label in labels], sum(1 << i for i in fixed)


@settings(max_examples=60, deadline=None)
@given(_broadcast_factors())
def test_constant_factors_equal_the_materialized_batch(case):
    n, factors, mask = case
    got = mixed_pfaffian(n, factors, mask)
    assert got.strides[0] == 0
    assert (got == got[0]).all()
    copies = {id(f): np.array(f) for f in factors}
    want = mixed_pfaffian(n, [copies[id(f)] for f in factors], mask)
    # one row sums the terms in another order than the batched product: at
    # most 4 ulps of the sum of the terms' magnitudes
    labels = tuple(next(j for j, g in enumerate(factors) if g is f) for f in factors)
    coefs, slots = _term_table(n, mask, labels)
    size = np.abs(coefs) @ np.prod([np.abs(factors[label][0, a, b])
                                    for label, a, b in slots], axis=0)
    assert (np.abs(got - want) <= 4 * np.spacing(size)).all()
