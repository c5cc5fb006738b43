"""Densities of fields with constant delta matrices, evaluated once.

A Polynomial of degree <= 2 has the same delta matrix at every point
(``calculus.constant_delta``), so ``ma_density``, ``mixed_ma`` and the
trace density of a current built from such fields are constants.
``calculus.hoisted`` turns such a density into a ``quadrature.Constant``
evaluated on one row, which the rules integrate.  These
tests pin that the one-row value is every row of a batch call, that
``block_values`` fills a Constant without building nodes, and that every
reported number keeps the bits of the per-block path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qma import currents, potential, quadrature
from qma.calculus import constant_delta, hoisted
from qma.currents import RegularizedCurrent, sigma_mass
from qma.fields import Polynomial, normsq, quadform
from qma.hamilton import random_hyperhermitian
from qma.monge_ampere import ma_density, mixed_ma
from qma.potential import boundary_mass_residual, lelong_jensen
from qma.quadrature import Constant, block_values, translate_polynomial
from test_fields import _TILTED


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=float).tobytes()


def _quadratic(rng, n, round_):
    """A positive definite quadratic on H^n with a random center and
    constant: a multiple of |q - a|^2, or a shifted hyperhermitian form."""
    d = 4 * n
    center = rng.uniform(-1.0, 1.0, size=d)
    const = float(rng.uniform(-2.0, 2.0))
    if round_:
        return translate_polynomial(normsq(n), -center) * float(rng.uniform(0.25, 4.0)) + const
    u = quadform(random_hyperhermitian(rng, n))
    lam = float(np.linalg.eigvalsh(0.5 * u.hessian(np.zeros(d))).min())
    return translate_polynomial(u + normsq(n) * (max(0.0, -lam) + 0.5), -center) + const


def _degree_two(rng, n):
    """A polynomial with random terms of degree <= 2 (not psh in general)."""
    d = 4 * n
    terms = {(0,) * d: float(rng.normal())}
    for i in range(d):
        e = [0] * d
        e[i] = 1
        terms[tuple(e)] = float(rng.normal())
        for j in range(i, d):
            if rng.random() < 0.3:
                e = [0] * d
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = float(rng.normal())
    return Polynomial(n, terms)


@st.composite
def _constant_delta_cases(draw):
    """(n, phi, v, pts): a round or ellipsoidal phi, a v of degree <= 2 and
    2 to 40 points."""
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    phi = _quadratic(rng, n, draw(st.booleans()))
    v = _degree_two(rng, n)
    pts = rng.uniform(-2.0, 2.0, size=(draw(st.integers(2, 40)), 4 * n))
    return n, phi, v, pts


def _assert_one_row_is_every_row(fn, pts):
    batch = fn(pts)
    for probe in (np.zeros((1, pts.shape[1])), pts[:1], pts[-1:]):
        one = fn(probe)
        assert one.shape == (1,)
        assert _bits(batch) == _bits(np.full(len(pts), one[0]))


@settings(max_examples=30)
@given(_constant_delta_cases())
def test_a_constant_density_on_one_row_is_every_row_of_a_batch(case):
    n, phi, v, pts = case
    assert constant_delta(phi) and constant_delta(v)
    _assert_one_row_is_every_row(lambda x: ma_density(phi, x), pts)
    _assert_one_row_is_every_row(lambda x: mixed_ma([v] + [phi] * (n - 1), x), pts)
    for potentials in ([phi], [v, phi][:n], [phi] * n):
        current = RegularizedCurrent(n, potentials)
        _assert_one_row_is_every_row(current.trace_density, pts)


def test_constant_delta_is_exactly_degree_at_most_two_polynomials():
    assert constant_delta(normsq(2))
    assert constant_delta(quadform(_TILTED[2]))
    assert constant_delta(Polynomial.constant(1, 3))
    assert not constant_delta(normsq(1) + Polynomial.coordinate(1, 0) ** 3)
    assert not constant_delta(potential.smooth_max_family(normsq(1), 1.0, 2))


@settings(max_examples=30)
@given(st.floats(-1e6, 1e6), st.integers(0, 3000))
def test_block_values_fills_a_constant_without_building_nodes(value, count):
    def refuse(lo, hi):
        raise AssertionError("a Constant built a node block")

    got = block_values(Constant(value), count, refuse)
    hidden = block_values(lambda pts: Constant(value)(pts), count,
                          lambda lo, hi: np.zeros((hi - lo, 4)))
    assert got.shape == (count,)
    assert _bits(got) == _bits(hidden)


def test_hoisted_is_a_constant_exactly_when_every_field_qualifies():
    quadratic = quadform(_TILTED[2])
    quartic = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    fn = lambda pts: ma_density(quadratic, pts)
    got = hoisted([quadratic, normsq(2)], fn)
    assert isinstance(got, Constant)
    assert _bits(np.array([got.value])) == _bits(fn(np.zeros((1, 8))))
    assert hoisted([quadratic, quartic], fn) is fn


def _per_block(monkeypatch):
    """Send every density down the per-block path, as before the hoist."""
    for module in (potential, currents):
        monkeypatch.setattr(module, "hoisted", lambda fields, fn: fn)


@pytest.mark.parametrize("phi", ["normsq", "tilted"])
def test_jensen_and_boundary_mass_keep_the_bits_of_the_per_block_path(phi, monkeypatch):
    n = 2
    phi = normsq(n) if phi == "normsq" else quadform(_TILTED[n])
    v = Polynomial.coordinate(n, 0) ** 2 + 1.5
    opts = dict(t_nodes=6, sphere_pow=7, radial_nodes=8, seed=3)

    def run():
        report = lelong_jensen(phi, v, 1.0, **opts)
        numbers = [report.boundary_term, report.interior_term, report.lhs,
                   report.rhs_spatial, report.rhs_layered, report.residual_spatial,
                   report.residual_layered, *sorted(report.errors.items())]
        residual = boundary_mass_residual(phi, 1.0, sphere_pow=7, radial_nodes=8, seed=3)
        mass = sigma_mass(RegularizedCurrent(n, [phi]), np.full(4 * n, 0.1), 0.5,
                          sphere_pow=6, radial_nodes=8, seed=3)
        return repr((numbers, residual, mass))

    hoisted = run()
    _per_block(monkeypatch)
    assert run() == hoisted


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_quadratic_jensen_run_evaluates_each_density_once(monkeypatch):
    mixed = _count_calls(monkeypatch, potential, "mixed_ma")
    ma = _count_calls(monkeypatch, potential, "ma_density")
    lelong_jensen(normsq(2), Polynomial.coordinate(2, 0) ** 2 + 1.5, 1.0)
    assert (mixed[0], ma[0]) == (1, 1)


def test_a_quartic_jensen_run_keeps_its_per_block_calls(monkeypatch):
    mixed = _count_calls(monkeypatch, potential, "mixed_ma")
    ma = _count_calls(monkeypatch, potential, "ma_density")
    sphere_pow, radial_nodes, t_nodes = 9, 12, 4
    phi = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    lelong_jensen(phi, Polynomial.coordinate(2, 0) ** 2 + 1.5, 1.0, t_nodes=t_nodes,
                  sphere_pow=sphere_pow, radial_nodes=radial_nodes)

    def blocks(pow_):
        return math.ceil(2 ** pow_ * radial_nodes / quadrature._BLOCK_NODES)

    # the interior and spatial terms on the full ray set, each layer on half
    assert ma[0] == blocks(sphere_pow)
    assert mixed[0] == blocks(sphere_pow) + t_nodes * blocks(sphere_pow - 1)


def test_sigma_mass_of_quadratic_potentials_evaluates_one_row(monkeypatch):
    rows = []
    original = currents.wedge_top_density

    def recorded(n, coeffs, dmats):
        rows.append(len(dmats[0]))
        return original(n, coeffs, dmats)

    monkeypatch.setattr(currents, "wedge_top_density", recorded)
    rng = np.random.default_rng(5)
    quadratics = [_quadratic(rng, 2, False) for _ in range(2)]
    sigma_mass(RegularizedCurrent(2, quadratics), np.zeros(8), 0.5)
    assert rows == [1]
    rows.clear()
    quartic = normsq(2) + Polynomial.coordinate(2, 0) ** 4
    sigma_mass(RegularizedCurrent(2, [quartic, quadratics[0]]), np.zeros(8), 0.5)
    assert len(rows) > 1
