"""Headline numerical contracts, one test per guarantee.

Each test covers one end-to-end claim: the complex embedding of quaternionic
linear algebra, the exact form calculus, the density and mass formulas for
the regularized fundamental solution, Lelong numbers, the boundary-measure
balance, the weak-convergence machinery, and byte-level CLI determinism.
Every test finishes by printing a one-line scorecard entry (visible with
``pytest -s``); the pass/fail verdict is the test outcome itself.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qma.calculus import FormField, d_scalar, laplace, nabla, z_field
from qma.cli import main
from qma.currents import (
    RegularizedCurrent,
    cln_ratio,
    convergence_suite,
    lelong_number,
    mollify,
)
from qma.exterior import (
    beta,
    omega_top,
    positivity_test,
    random_strongly_positive,
)
from qma.fields import GridField, Polynomial, invshift, normsq, quadform
from qma.hamilton import (
    jmatrix,
    mixed_discriminant,
    moore_det,
    random_hyperhermitian,
    random_qmatrix,
    random_quaternion,
    tau,
)
from qma.monge_ampere import ma_density, mixed_ma
from qma.potential import boundary_mass_residual, lelong_jensen
from qma.quadrature import radial_ball_integral
from test_calculus import form_at
from test_currents import beta_power_current
from test_hamilton import random_unitary
from test_monge_ampere import hyperhermitian_hessian

PI2 = math.pi**2
PI4 = math.pi**4


def _scorecard(num, name, detail):
    print(f"criterion {num:02d} [{name}]: PASS | {detail}")


def _random_cubic(rng, n):
    """Random polynomial of degree <= 3 with exact rational coefficients."""
    terms = {}
    for _ in range(10):
        exp = [0] * (4 * n)
        for _ in range(int(rng.integers(1, 4))):
            exp[int(rng.integers(0, 4 * n))] += 1
        c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c
    return Polynomial(n, {k: v for k, v in terms.items() if v})


def _psh_quadratic(rng, n):
    a = random_hyperhermitian(rng, n)
    u = quadform(a)
    lam = float(np.linalg.eigvalsh(0.5 * u.hessian(np.zeros(4 * n))).min())
    return u + normsq(n) * (max(0.0, -lam) + 0.5)


# ---------------------------------------------------------------------------


def test_criterion_01_embedding_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    dev_q = 0.0
    for _ in range(1000):
        p, q = random_quaternion(rng), random_quaternion(rng)
        dev_q = max(dev_q, float(np.abs(tau(p * q) - tau(p) @ tau(q)).max()))

    dev_m = dev_j = dev_u = 0.0
    for k in range(100):
        m = 1 + k % 3
        a, b = random_qmatrix(rng, m), random_qmatrix(rng, m)
        dev_m = max(dev_m, float(np.abs((a @ b).tau() - a.tau() @ b.tau()).max()))
        ta, jm = a.tau(), jmatrix(m)
        dev_j = max(dev_j, float(np.abs(jm @ np.conj(ta) - ta @ jm).max()))
        tu = random_unitary(rng, m).tau()
        dev_u = max(dev_u, float(np.abs(tu @ jm @ tu.T - jm).max()))

    elapsed = time.perf_counter() - t0
    assert dev_q <= 1e-10
    assert dev_m <= 1e-10
    assert dev_j <= 1e-10
    assert dev_u <= 1e-10
    assert elapsed < 5.0
    _scorecard(1, "embedding suite",
               f"max deviations: products {max(dev_q, dev_m):.2e}, "
               f"J-reality {dev_j:.2e}, symplectic {dev_u:.2e} "
               f"(bound 1e-10), {elapsed:.2f}s")


def test_criterion_02_exact_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for n in (1, 2):
        for trial in range(3):
            u, v = _random_cubic(rng, n), _random_cubic(rng, n)
            s = FormField.from_scalar(u)

            # d0^2 = d1^2 = 0 and d0 d1 = -d1 d0, on scalars and 1-forms
            assert s.d(0).d(0).is_zero()
            assert s.d(1).d(1).is_zero()
            assert (s.d(0).d(1) + s.d(1).d(0)).is_zero()
            f1 = d_scalar(v, 1)
            assert f1.d(0).d(0).is_zero()
            assert (f1.d(0).d(1) + f1.d(1).d(0)).is_zero()

            # Leibniz on 0-forms and against a 1-form (graded sign)
            for alpha in (0, 1):
                leib0 = (d_scalar(u * v, alpha)
                         - d_scalar(u, alpha).wedge(FormField.from_scalar(v))
                         - FormField.from_scalar(u).wedge(d_scalar(v, alpha)))
                assert leib0.is_zero()
            g = d_scalar(v, 0)
            leib1 = (f1.wedge(g).d(0) - f1.d(0).wedge(g) + f1.wedge(g.d(0)))
            assert leib1.is_zero()

            # wedges of second-order forms are closed, up to the top degree
            t = laplace(u)
            assert t.d(0).is_zero() and t.d(1).is_zero()
            if n == 2:
                tw = t.wedge(laplace(v))
                assert tw.d(0).is_zero() and tw.d(1).is_zero()

            # the factorization chain of the second-order operator
            pad = laplace(v) if n == 2 else None
            lhs = t.wedge(pad) if pad is not None else t
            mid = d_scalar(u, 1).wedge(pad).d(0) if pad is not None \
                else d_scalar(u, 1).d(0)
            rhs = (FormField.from_scalar(u).wedge(pad) if pad is not None
                   else FormField.from_scalar(u)).d(1).d(0)
            assert (lhs - mid).is_zero()
            assert (lhs - rhs).is_zero()
            checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _scorecard(2, "exact identity suite",
               f"{checked} random rational fields of degree <= 3, every "
               f"residue exactly zero, {elapsed:.2f}s")


def test_criterion_03_coordinate_anchors():
    for n in (1, 2):
        for j in range(2 * n):
            for alpha in (0, 1):
                for k in range(2 * n):
                    for bet in (0, 1):
                        g = nabla(z_field(n, k, bet), j, alpha)
                        want = 2 if (j, alpha) == (k, bet) else 0
                        assert g.re == want and g.im == 0
                d = nabla(normsq(n), j, alpha) - z_field(n, j, alpha).conj() * 2
                assert d.is_exact_zero()
        assert form_at(laplace(normsq(n)), np.zeros(4 * n)) == beta(n) * 8
    for n in (1, 2, 3):
        assert beta(n).wedge_power(n) == omega_top(n) * math.factorial(n)
    _scorecard(3, "coordinate anchors",
               "derivative duality, gradient and curvature of the squared "
               "norm, and volume normalization all exact for n <= 3")


def test_criterion_04_determinant_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_pure = worst_mixed = 0.0
    for n in (1, 2):
        pts = rng.standard_normal((4, 4 * n))
        for _ in range(50):
            mats = [random_hyperhermitian(rng, n) for _ in range(n)]
            fields = [quadform(a) for a in mats]

            dens = ma_density(fields[0], pts)
            h = hyperhermitian_hessian(fields[0], pts[0])
            dev = float(np.abs(dens - math.factorial(n) * float(moore_det(h))).max())
            worst_pure = max(worst_pure, dev / max(float(np.abs(dens).max()), 1e-30))

            mix = mixed_ma(fields, pts)
            hs = [hyperhermitian_hessian(u, pts[0]) for u in fields]
            want = math.factorial(n) * float(mixed_discriminant(*hs))
            dev = float(np.abs(mix - want).max())
            worst_mixed = max(worst_mixed, dev / max(float(np.abs(mix).max()), 1e-30))

    elapsed = time.perf_counter() - t0
    assert worst_pure <= 1e-9
    assert worst_mixed <= 1e-9
    assert elapsed < 10.0
    _scorecard(4, "determinant equivalence",
               f"50 random hyperhermitian quadratics per n: pure "
               f"{worst_pure:.2e}, mixed {worst_mixed:.2e} "
               f"(relative bound 1e-9), {elapsed:.2f}s")


def test_criterion_05_fundamental_pointwise():
    # points drawn uniformly in the unit ball, the domain the mass
    # criterion integrates over; far outside it the generic matching-sum
    # operator loses ~|q|^2/eps in relative precision to cancellation
    rng = np.random.default_rng(505)
    worst = 0.0
    for n in (1, 2):
        g = rng.standard_normal((200, 4 * n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * rng.random((200, 1)) ** (1.0 / (4 * n))
        s2 = np.einsum("bi,bi->b", pts, pts)
        for eps in (1.0, 1e-2, 1e-4):
            dens = ma_density(invshift(n, eps), pts)
            want = (8.0**n) * math.factorial(n) * eps / (s2 + eps) ** (2 * n + 1)
            worst = max(worst, float(np.abs(dens / want - 1.0).max()))
    assert worst <= 1e-10
    _scorecard(5, "fundamental density",
               f"200 points x n in {{1,2}} x eps in {{1,1e-2,1e-4}}: "
               f"max relative deviation {worst:.2e} (bound 1e-10)")


def test_criterion_06_fundamental_mass():
    # The ball mass of the regularized density has the closed form
    # limit * (r^2 / (r^2 + eps))^(2n)  (pinned in Fractions against
    # fundamental_mass_exact in test_monge_ampere), so at r = 1 it sits
    # 1 - (1 + eps)^(-2n) ~ 2n*eps below its eps -> 0 limit.
    t0 = time.perf_counter()
    epsilons = (1e-3, 1e-4, 1e-5)
    parts = []
    deficits = {}
    for n, limit in ((1, 4 * PI2), (2, 16 * PI4 / 3)):
        coeff = (8.0**n) * math.factorial(n)
        for eps in epsilons:
            dens = lambda rho: coeff * eps / (rho**2 + eps) ** (2 * n + 1)
            quad = radial_ball_integral(n, dens, 1.0, peak_scale=eps, nodes=64)
            closed = limit * (1.0 + eps) ** (-2 * n)
            parts.append((f"n={n} eps={eps:g} quadrature vs closed form",
                          abs(quad - closed) / closed, 1e-6))
            deficits[n, eps] = (limit - quad) / limit
        parts.append((f"n={n} eps=1e-4 mass vs limit",
                      abs(deficits[n, 1e-4]), 1e-3))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    detail = "; ".join(f"{name}: rel {rel:.3e} (bound {b:g})"
                       for name, rel, b in parts)
    assert all(rel <= b for _, rel, b in parts), (
        "fundamental-solution mass: " + detail)
    trend = "; ".join(f"n={n} deficits " + ", ".join(
        f"{deficits[n, eps]:.3e}" for eps in epsilons) for n in (1, 2))
    assert all(deficits[n, a] > deficits[n, b]
               for n in (1, 2) for a, b in zip(epsilons, epsilons[1:])), (
        "mass deficit does not shrink as eps decreases: " + trend)
    _scorecard(6, "fundamental mass", detail + "; " + trend
               + f", {elapsed:.2f}s")


def test_criterion_07_lelong_numbers():
    t0 = time.perf_counter()
    radii = [2.0**-k for k in range(6, 0, -1)]
    want = 2 * PI4 / 3

    singular = RegularizedCurrent.from_laplace(invshift(2, 0.0))
    profile, nu = lelong_number(singular, np.zeros(8), radii,
                                sphere_pow=8, radial_nodes=16)
    mean = float(np.mean(profile.values))
    flat = float(np.abs(np.asarray(profile.values) / mean - 1.0).max())
    assert flat <= 1e-2
    assert abs(nu - want) <= 1e-2 * want
    assert profile.monotone_violations() == []

    smooth = beta_power_current(2, 1)
    sprof, snu = lelong_number(smooth, np.zeros(8), radii,
                               sphere_pow=8, radial_nodes=16)
    assert abs(snu) <= 1e-5
    # the normalized mass of the smooth current vanishes like r^4
    scaled = np.asarray(sprof.values) / np.asarray(radii) ** 4
    np.testing.assert_allclose(scaled, PI4 / 12, rtol=1e-6)
    assert sprof.monotone_violations() == []

    elapsed = time.perf_counter() - t0
    _scorecard(7, "Lelong numbers",
               f"singular kernel: profile flat to {flat:.2e}, "
               f"nu = {nu:.6f} vs 2*pi^4/3 = {want:.6f}; smooth current: "
               f"nu = {snu:.2e}, profile ~ r^4; no monotonicity violations, "
               f"{elapsed:.2f}s")


def test_criterion_08_jensen_identity():
    phi = normsq(1)
    want = 4 * PI2 / 3
    report = lelong_jensen(phi, phi, 1.0)
    devs = [abs(x - want) / want for x in
            (report.lhs, report.rhs_spatial, report.rhs_layered)]
    assert max(devs) <= 1e-4

    scale = max(abs(report.boundary_term), 1.0)
    for v in (Polynomial.constant(1, 1), Polynomial.coordinate(1, 0)):
        rep = lelong_jensen(phi, v, 1.0)
        assert abs(rep.lhs) <= 1e-6 * scale
        assert abs(rep.rhs_spatial) <= 1e-6 * scale
        assert abs(rep.rhs_layered) <= 1e-6 * scale

    worst_mass = 0.0
    for r in (0.25, 0.5, 1.0):
        _, mu1, _ = boundary_mass_residual(phi, r)
        worst_mass = max(worst_mass, abs(mu1 - 4 * PI2 * r * r) / (4 * PI2 * r * r))
    assert worst_mass <= 1e-3

    _scorecard(8, "Lelong-Jensen",
               f"three expressions agree with 4*pi^2/3 to {max(devs):.2e} "
               f"(bound 1e-4); constant/linear cases vanish; boundary mass "
               f"matches 4*pi^2*r^2 to {worst_mass:.2e} (bound 1e-3)")


def test_criterion_09_property_based():
    t0 = time.perf_counter()

    # decreasing mollifications of a quartic potential: the pairings against
    # a fixed compactly supported current converge to the limit pairing
    u = Polynomial.__mul__(normsq(1), normsq(1)) * Fraction(1, 256)
    grid = GridField.sample(u, np.full(4, -1.5), 0.125, (25,) * 4)
    seq = [mollify(grid, e) for e in (0.5, 0.375, 0.25)]
    rep = convergence_suite([seq], [u], radius=0.8, sphere_pow=8,
                            radial_nodes=10, seed=9)
    assert all(d1 > d2 for d1, d2 in zip(rep.deviations, rep.deviations[1:]))
    assert rep.deviations[-1] <= 1e-3

    # mass-over-sup ratios of a random plurisubharmonic quadratic family
    rng = np.random.default_rng(909)
    ratios = [cln_ratio([_psh_quadratic(rng, 1)], 0.5, 1.0,
                        sup_samples=2048, seed=900 + t) for t in range(50)]
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) <= 1e3

    # sampled positivity never rejects a constructed strongly positive element
    trials = 0
    for j in range(20):
        n = 1 + j % 3
        k = 1 + (j // 3) % n
        elem = random_strongly_positive(rng, n, k)
        res = positivity_test(elem, samples=512, seed=200 + j)
        assert bool(res), (n, k, j)
        trials += 512

    elapsed = time.perf_counter() - t0
    _scorecard(9, "property suites",
               f"pairing deviations {', '.join(f'{d:.2e}' for d in rep.deviations)} "
               f"decreasing with final <= 1e-3; 50 CLN ratios in "
               f"[{min(ratios):.3f}, {max(ratios):.3f}]; positivity upheld on "
               f"{trials} samples, {elapsed:.2f}s")


_CLI_CONFIGS = {
    "verify": """\
[run]
command = verify
n = 1
seed = 3
""",
    "ma": """\
[run]
command = ma
n = 1

[fields]
u = normsq()
""",
    "fundamental": """\
[run]
command = fundamental
n = 1

[params]
eps = 0.1, 0.01
""",
    "lelong": """\
[run]
command = lelong
n = 1

[fields]
u = normsq()

[params]
radii = 0.25, 0.5, 1.0

[quadrature]
sphere_pow = 6
""",
    "jensen": """\
[run]
command = jensen
n = 1

[fields]
phi = normsq()
v = normsq()

[params]
r = 1.0

[quadrature]
t_nodes = 16
sphere_pow = 7
""",
    "boundary": """\
[run]
command = boundary
n = 1

[fields]
phi = normsq()

[params]
r = 1.0

[quadrature]
sphere_pow = 7
""",
    "cln": """\
[run]
command = cln
n = 1

[fields]
u = normsq()

[params]
trials = 1

[quadrature]
sphere_pow = 6
sup_samples = 1024
""",
}


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    for command, body in _CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(body)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0, (command, run)
            outputs.append({
                "csv": (out / f"{command}.csv").read_bytes(),
                "json": (out / f"{command}.json").read_bytes(),
            })
        assert outputs[0] == outputs[1], command
        # the JSON really is the full report, not an empty shell
        report = json.loads(outputs[0]["json"])
        assert report["rows"] and report["passed"] is True
    elapsed = time.perf_counter() - t0
    _scorecard(10, "CLI determinism",
               f"all 7 commands run twice: byte-identical CSV and JSON, "
               f"{elapsed:.2f}s")
