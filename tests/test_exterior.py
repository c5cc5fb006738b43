"""Exterior algebra over C^(2n): wedge, reality, positivity, pullbacks."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qma import exterior
from qma.exterior import (LIKELY_POSITIVE, NOT_POSITIVE, ExtElement, HLinearMap,
                          RationalComplex, beta, elementary_sp, indices_to_mask,
                          is_real, mask_to_indices, omega_top, perm_sign,
                          positivity_test, pullback, random_elementary_sp,
                          random_strongly_positive, rho_j, top_coefficient,
                          wedge_sign)
from qma.hamilton import QI, QMatrix, Quaternion
from qma.errors import DimensionError


def test_rational_complex_arithmetic():
    a = RationalComplex(Fraction(1, 2), Fraction(-1, 3))
    b = RationalComplex(2, 1)
    s = a + b
    assert (s.re, s.im) == (Fraction(5, 2), Fraction(2, 3))
    p = a * b
    # (1/2 - i/3)(2 + i) = (1 + 1/3) + i(1/2 - 2/3)
    assert (p.re, p.im) == (Fraction(4, 3), Fraction(-1, 6))
    m = -a
    assert (m.re, m.im) == (Fraction(-1, 2), Fraction(1, 3))


def test_mask_index_round_trip():
    for indices in [(0,), (1, 3), (0, 2, 5)]:
        mask = indices_to_mask(indices)
        assert tuple(mask_to_indices(mask)) == indices


def test_wedge_sign_and_perm_sign():
    assert perm_sign([0, 1, 2]) == 1
    assert perm_sign([1, 0, 2]) == -1
    assert perm_sign([2, 0, 1]) == 1
    # wedge_sign counts the crossings between two disjoint masks
    m01 = indices_to_mask((0, 1))
    m23 = indices_to_mask((2, 3))
    assert wedge_sign(m01, m23) == 1
    assert wedge_sign(indices_to_mask((1,)), indices_to_mask((0,))) == -1


def test_basic_wedge_algebra():
    n = 2
    w = [ExtElement.from_indices(n, (i,)) for i in range(2 * n)]
    assert (w[0] ^ w[0]).is_zero()
    ab = w[0] ^ w[1]
    ba = w[1] ^ w[0]
    assert ab == -ba
    # associativity on a random exact combination
    x = w[0] + w[2].scale(Fraction(2, 3))
    y = w[1] - w[3]
    z = w[2] + w[3]
    assert ((x ^ y) ^ z) == (x ^ (y ^ z))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_beta_power_normalization(n):
    c = top_coefficient(beta(n).wedge_power(n))
    assert complex(c) == complex(math.factorial(n))
    # and the wedge with one more beta vanishes above top degree
    assert beta(n).wedge_power(n).wedge(beta(n)).is_zero()


def test_omega_top_is_unit_top_form():
    t = omega_top(2)
    assert t.degree == 4
    assert complex(top_coefficient(t)) == 1


@pytest.mark.parametrize("n", [1, 2])
def test_rho_j_properties(n):
    # beta is rho(j)-real, and rho(j) is an involution on even degrees
    b = beta(n)
    assert rho_j(b) == b
    assert is_real(b)
    assert not is_real(b.scale(1j))
    w0 = ExtElement.from_indices(n, (0,))
    assert rho_j(rho_j(w0)) == -w0


def test_pullback_is_algebra_homomorphism():
    rng = np.random.default_rng(3)
    n, k = 2, 2
    g = HLinearMap.random(rng, n, k)
    a = random_strongly_positive(rng, n, 1)
    b = random_strongly_positive(rng, n, 1)
    lhs = pullback(a.wedge(b), g.tau)
    rhs = pullback(a, g.tau).wedge(pullback(b, g.tau))
    diff = lhs - rhs
    assert diff.norm_inf() <= 1e-10


def test_pullback_by_identity():
    n = 2
    ident = HLinearMap(QMatrix.identity(n))
    b = beta(n)
    assert ident.pullback(b) == b


def _random_element(rng, n, p, density=0.7):
    masks = [indices_to_mask(c) for c in itertools.combinations(range(2 * n), p)]
    return ExtElement(n, p, {m: complex(*rng.normal(size=2)) for m in masks
                             if rng.random() < density})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), k=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_pullback_minors_equal_the_wedge_chain(n, k, data, seed):
    # Cauchy-Binet on a complex tau against the exact lane's wedge chain,
    # which an object-dtype copy of the same tau takes
    p = data.draw(st.integers(0, 2 * n), label="degree")
    rng = np.random.default_rng(seed)
    a = _random_element(rng, n, p)
    tau = HLinearMap.random(rng, n, k).tau
    got = pullback(a, tau)
    want = pullback(a, tau.astype(object))
    assert (got.n, got.degree) == (want.n, want.degree)
    # Hadamard: |det tau[I, J]| <= prod of the row norms of tau[I, :]
    rows = np.linalg.norm(tau, axis=1)
    scale = sum(abs(c) * math.prod(rows[list(mask_to_indices(m))])
                for m, c in a.coeffs.items())
    assert (got - want).norm_inf() <= 1e-12 * max(1.0, scale)


@pytest.mark.parametrize("k,budget", [(3, 7), (2, 9)])
def test_pullback_minors_respect_the_chunk_cap(monkeypatch, k, budget):
    # chunks split the target subsets (k = 3) or group source terms (k = 2)
    rng = np.random.default_rng(5)
    a = _random_element(rng, 3, 3, density=1.0)
    tau = HLinearMap.random(rng, 3, k).tau
    whole = pullback(a, tau)
    calls = []
    det = np.linalg.det

    def counted(m):
        calls.append(len(m) * len(m[0]))
        return det(m)

    monkeypatch.setattr(exterior, "_MINOR_BUDGET", budget)
    monkeypatch.setattr(np.linalg, "det", counted)
    chunked = pullback(a, tau)
    # every (source triple, target triple) minor once, at most budget per call
    assert sum(calls) == 20 * math.comb(2 * k, 3)
    assert max(calls) <= budget and len(calls) > 1
    assert (chunked - whole).norm_inf() <= 1e-12 * max(1.0, whole.norm_inf())


def _exact_det(m):
    total = RationalComplex(0)
    for perm in itertools.permutations(range(len(m))):
        term = RationalComplex(perm_sign(perm))
        for r, c in enumerate(perm):
            term = term * m[r][c]
        total = total + term
    return total


def test_pullback_of_exact_data_stays_exact():
    # Fraction and RationalComplex entries in an object tau, exact
    # coefficients: every coefficient is the exact Cauchy-Binet sum
    rng = np.random.default_rng(2)
    n, k = 2, 2

    def q():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))

    tau = np.empty((2 * n, 2 * k), dtype=object)
    for i in range(2 * n):
        for j in range(2 * k):
            tau[i, j] = RationalComplex(q(), q()) if (i + j) % 2 else q()
    for p in range(2 * n + 1):
        combos = list(itertools.combinations(range(2 * n), p))
        a = ExtElement(n, p, {indices_to_mask(c): (RationalComplex(q(), q()) if i % 2
                                                   else q())
                              for i, c in enumerate(combos)})
        got = pullback(a, tau)
        assert all(isinstance(c, (RationalComplex, Fraction, int))
                   for c in got.coeffs.values())
        want = {}
        for cols in itertools.combinations(range(2 * k), p):
            total = RationalComplex(0)
            for mask, c in a.coeffs.items():
                rows = mask_to_indices(mask)
                total = total + c * _exact_det([[tau[r, j] for j in cols] for r in rows])
            want[indices_to_mask(cols)] = total
        assert got == ExtElement(k, p, want)
    b = ExtElement(n, 2, {indices_to_mask((0, 3)): Fraction(2, 3),
                          indices_to_mask((1, 2)): RationalComplex(1, -1)})
    assert pullback(b.wedge(b.scale(3)), tau) == pullback(b, tau).wedge(
        pullback(b.scale(3), tau))


def test_pullback_of_a_scalar_is_the_scalar():
    tau = HLinearMap.random(np.random.default_rng(0), 2, 1).tau
    one = ExtElement.scalar(2, Fraction(3, 4))
    assert pullback(one, tau) == ExtElement.scalar(1, Fraction(3, 4))
    assert pullback(one, tau.astype(object)) == ExtElement.scalar(1, Fraction(3, 4))


def test_elementary_sp_repeated_factor_vanishes():
    # eta1 = eta2 makes xi ^ xi with a rank-2 image: exactly zero
    rng = np.random.default_rng(11)
    eta = HLinearMap.random(rng, 1, 2)
    elem = elementary_sp([eta, eta])
    assert elem.is_zero(tol=1e-12)


def test_elementary_sp_unit_map_is_coordinate_plane():
    # eta = projection to the first quaternion coordinate: the element is
    # omega^0 ^ omega^1 exactly
    eta = QMatrix([[1, 0]])
    elem = elementary_sp([eta])
    expect = ExtElement.from_indices(2, (0, 1))
    assert elem == expect


def test_positivity_on_constructed_sp():
    rng = np.random.default_rng(7)
    for k in (1, 2):
        for _ in range(5):
            elem = random_strongly_positive(rng, 2, k)
            res = positivity_test(elem, samples=128, seed=13)
            assert res, f"false negative on a strongly positive element: {res}"
            assert res.min_kappa >= -1e-9


def test_positivity_rejects_negative_multiple():
    rng = np.random.default_rng(7)
    elem = random_elementary_sp(rng, 2, 1).scale(-1)
    res = positivity_test(elem, samples=128, seed=0)
    assert not res
    assert res.witness is not None


def test_positivity_rejects_non_real():
    elem = ExtElement.from_indices(2, (0, 1), coeff=1j)
    res = positivity_test(elem, samples=16, seed=0)
    assert not res


def _oracle_positivity(a, samples, seed, tol=1e-9):
    # positivity_test's sampling loop, each pullback on the exact lane
    k = a.degree // 2
    scale = a.norm_inf()
    b = a.scale(1.0 / scale)
    rng = np.random.default_rng(seed)
    min_kappa = float("inf")
    for _ in range(samples):
        g = HLinearMap.random(rng, a.n, k)
        kappa = complex(top_coefficient(pullback(b, g.tau.astype(object))))
        bound = tol * max(1.0, abs(kappa))
        if abs(kappa.imag) > bound or kappa.real < -bound:
            return NOT_POSITIVE, kappa.real * scale, g
        min_kappa = min(min_kappa, kappa.real)
    return LIKELY_POSITIVE, min_kappa * scale, None


def _indefinite(n):
    # omega^0 ^ omega^1 - 1/2 omega^2 ^ omega^3 (+ the rest of beta) is
    # rho(j)-real and pulls back to |q_0|^2 - |q_1|^2 / 2 + ... along
    # g = (q_0, q_1, ...): at n = 3 the first failing sample is the 12th
    # (seed 0) and the 41st (seed 7)
    coeffs = {indices_to_mask((0, 1)): 1, indices_to_mask((2, 3)): Fraction(-1, 2)}
    coeffs.update({indices_to_mask((2 * l, 2 * l + 1)): 1 for l in range(2, n)})
    return ExtElement(n, 2, coeffs)


@pytest.mark.parametrize("case", ["sp-n2-k1", "sp-n2-k2", "sp-n3-k2", "negative-n2",
                                  "indefinite-n2", "indefinite-n3"])
@pytest.mark.parametrize("seed", [0, 7])
def test_positivity_matches_the_exact_lane_loop(case, seed):
    rng = np.random.default_rng(seed + 100)
    kind, n, *k = case.split("-")
    n = int(n[1:])
    if kind == "sp":
        elem = random_strongly_positive(rng, n, int(k[0][1:]))
    elif kind == "negative":
        elem = random_elementary_sp(rng, n, 1).scale(-1)
    else:
        elem = _indefinite(n)
    res = positivity_test(elem, samples=64, seed=seed)
    verdict, min_kappa, witness = _oracle_positivity(elem, 64, seed)
    assert res.verdict == verdict
    assert res.min_kappa == pytest.approx(min_kappa, rel=1e-12, abs=1e-12)
    if witness is None:
        assert res.witness is None
    else:
        assert res.witness.matrix == witness.matrix
    if kind != "sp":
        assert verdict == NOT_POSITIVE


@pytest.mark.parametrize("half", [Fraction(1, 2), Fraction(-1, 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_positivity_takes_rational_complex_coefficients(half, seed):
    # omega^0 ^ omega^1 + half omega^2 ^ omega^3 at n = 2: the exact complex
    # coefficients give the verdict, minimum and witness of the Fraction ones
    masks = (indices_to_mask((0, 1)), indices_to_mask((2, 3)))
    fractions = ExtElement(2, 2, dict(zip(masks, (Fraction(1), half))))
    rational = ExtElement(2, 2, dict(zip(masks, (RationalComplex(1), RationalComplex(half)))))
    want = positivity_test(fractions, samples=64, seed=seed)
    got = positivity_test(rational, samples=64, seed=seed)
    assert got.verdict == want.verdict == (LIKELY_POSITIVE if half > 0 else NOT_POSITIVE)
    assert got.min_kappa == want.min_kappa
    assert got.samples == want.samples
    if half > 0:
        assert got.witness is None and want.witness is None
    else:
        assert got.witness.matrix == want.witness.matrix


@pytest.mark.parametrize("samples", [0, -3])
def test_positivity_refuses_an_empty_sweep(samples):
    elem = random_strongly_positive(np.random.default_rng(1), 2, 1)
    with pytest.raises(ValueError, match="at least one sample"):
        positivity_test(elem, samples=samples)


def test_beta_is_strongly_positive_combination():
    # beta_n equals the sum of the coordinate elementary elements
    n = 2
    parts = []
    for l in range(n):
        row = [[1 if c == l else 0 for c in range(n)]]
        parts.append(elementary_sp([QMatrix(row)]))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == beta(n)


def test_wedge_dimension_guards():
    with pytest.raises(DimensionError):
        ExtElement(1, 3)
    with pytest.raises(DimensionError):
        beta(1).wedge(beta(2))
