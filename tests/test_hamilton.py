"""Quaternion arithmetic, the conjugate embedding, and Moore determinants."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qma.hamilton import (MAX_MATRIX_DIM, QI, QJ, QK, QONE, QMatrix, Quaternion,
                          _cycles_decreasing_leader, _tau_blocks, is_hyperhermitian,
                          jmatrix, mixed_discriminant, moore_det, random_hyperhermitian,
                          random_qmatrix, random_quaternion, tau)
from qma.errors import DimensionError, NumericalInconsistencyError
from qma.exterior import perm_sign


def _qdot(u, v):
    """sum_i conj(u_i) * v_i, the inner product of the right quaternionic
    module H^m."""
    acc = Quaternion()
    for ui, vi in zip(u, v):
        acc = acc + ui.conjugate() * vi
    return acc


def random_unitary(rng, m):
    """Random unitary quaternionic matrix via Gram-Schmidt on the columns
    of ``random_qmatrix`` draws, for the ``_qdot`` inner product."""
    while True:
        a = random_qmatrix(rng, m)
        cols = [[a[i, j] for i in range(m)] for j in range(m)]
        ortho = []
        for v in cols:
            w = list(v)
            for u in ortho:
                coef = _qdot(u, v)
                w = [wi - ui * coef for wi, ui in zip(w, u)]
            nrm = math.sqrt(float(sum(q.norm_sq() for q in w)))
            if nrm < 1e-6:  # nearly dependent draw; retry
                break
            inv = 1.0 / nrm
            ortho.append([q * inv for q in w])
        else:
            u = QMatrix([[ortho[j][i] for j in range(m)] for i in range(m)])
            resid = u.conj_transpose() @ u - QMatrix.identity(m)
            if max(abs(float(c)) for _, _, q in resid.entries() for c in q.components) < 1e-12:
                return u


def test_hamilton_relations():
    minus_one = Quaternion(-1)
    assert QI * QI == minus_one
    assert QJ * QJ == minus_one
    assert QK * QK == minus_one
    assert QI * QJ == QK
    assert QJ * QK == QI
    assert QK * QI == QJ
    assert QJ * QI == -QK
    assert QI * QJ * QK == minus_one


def test_quaternion_exact_arithmetic():
    p = Quaternion(Fraction(1, 2), Fraction(-1, 3), 2, 0)
    q = Quaternion(1, 1, Fraction(1, 5), -3)
    s = p * q
    assert all(isinstance(c, Fraction) for c in s.components)
    # conjugation is an anti-automorphism
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()
    # norm is multiplicative (exactly, on rationals)
    assert (p * q).norm_sq() == p.norm_sq() * q.norm_sq()


def test_tau_hand_values():
    # tau(1) = I, tau(i) = diag(-i, i), and the j/k images swap the rows
    assert np.allclose(tau(QONE), np.eye(2))
    assert np.allclose(tau(QI), np.diag([-1j, 1j]))
    assert np.allclose(tau(QJ), np.array([[0, -1], [1, 0]]))
    assert np.allclose(tau(QK), np.array([[0, 1j], [1j, 0]]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tau_multiplicative_quaternions(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        p, q = random_quaternion(rng), random_quaternion(rng)
        assert np.abs(tau(p * q) - tau(p) @ tau(q)).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tau_multiplicative_matrices(m):
    rng = np.random.default_rng(10 + m)
    for _ in range(20):
        a, b = random_qmatrix(rng, m), random_qmatrix(rng, m)
        assert np.abs((a @ b).tau() - a.tau() @ b.tau()).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tau_conjugate_transpose(m):
    rng = np.random.default_rng(20 + m)
    a = random_qmatrix(rng, m, m + 1)
    assert np.abs(a.conj_transpose().tau() - a.tau().conj().T).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tau_j_conjugation(m):
    jm = jmatrix(m)
    rng = np.random.default_rng(30 + m)
    for _ in range(20):
        ta = random_qmatrix(rng, m).tau()
        # J * conj(tau(A)) = tau(A) * J
        assert np.abs(jm @ np.conj(ta) - ta @ jm).max() <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_unitary_symplectic(m):
    rng = np.random.default_rng(40 + m)
    jm = jmatrix(m)
    for _ in range(5):
        u = random_unitary(rng, m)
        tu = u.tau()
        assert np.abs(tu @ jm @ tu.T - jm).max() <= 1e-10
        assert np.abs(tu @ tu.conj().T - np.eye(2 * m)).max() <= 1e-10


def test_qmatrix_shape_guards():
    with pytest.raises(DimensionError):
        QMatrix([[1, 2], [3]])
    with pytest.raises(DimensionError):
        QMatrix([[Quaternion()] * (MAX_MATRIX_DIM + 1)])
    with pytest.raises(DimensionError):
        QMatrix([[1, 2]]) @ QMatrix([[1, 2]])


def test_qmatrix_exact_ops():
    a = QMatrix([[Fraction(1, 2), QJ], [1, QI]])
    b = QMatrix([[2, 0], [QK, Fraction(1, 3)]])
    c = (a @ b) @ b
    d = a @ (b @ b)
    assert c == d
    assert (a + b) - b == a
    assert a * 2 == QMatrix([[1, QJ * 2], [2, QI * 2]])


def test_is_hyperhermitian():
    rng = np.random.default_rng(5)
    a = random_hyperhermitian(rng, 3, exact=True)
    assert is_hyperhermitian(a)
    # breaking one off-diagonal entry breaks the property
    broken = [[a[i, j] for j in range(3)] for i in range(3)]
    broken[0][1] = broken[0][1] + QI
    assert not is_hyperhermitian(QMatrix(broken))
    # a diagonal with a non-real entry is rejected too
    assert not is_hyperhermitian(QMatrix([[QI]]))


def test_moore_det_hand_oracles():
    # 1x1: the real diagonal entry itself
    assert moore_det(QMatrix([[Fraction(7, 2)]])) == Fraction(7, 2)
    # 2x2 [[a, q], [conj(q), d]] -> a*d - |q|^2
    q = Quaternion(1, 2, -1, Fraction(1, 2))
    a = QMatrix([[3, q], [q.conjugate(), 5]])
    assert moore_det(a) == 15 - q.norm_sq()
    # identity
    assert moore_det(QMatrix.identity(3)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_moore_det_vs_tau_determinant(m):
    rng = np.random.default_rng(50 + m)
    for _ in range(10):
        a = random_hyperhermitian(rng, m)
        md = float(moore_det(a))
        dt = np.linalg.det(a.tau())
        assert abs(dt.imag) <= 1e-8 * max(1.0, abs(dt))
        assert abs(dt.real - md * md) <= 1e-8 * max(1.0, md * md)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_moore_det_sign_from_cycle_count_is_the_permutation_sign(m):
    # moore_det signs each term by (-1)^(m - number of cycles)
    for perm in itertools.permutations(range(m)):
        cycles = _cycles_decreasing_leader(perm)
        assert (-1) ** (m - len(cycles)) == perm_sign(perm)
    # on a real symmetric matrix the Moore determinant is the determinant
    rng = np.random.default_rng(70 + m)
    s = rng.integers(-3, 4, size=(m, m))
    s = s + s.T
    assert moore_det(QMatrix(s.tolist())) == round(np.linalg.det(s))


def test_moore_det_exact_rationals():
    a = QMatrix([[Fraction(2), QI + QJ], [(QI + QJ).conjugate(), Fraction(3, 2)]])
    md = moore_det(a)
    assert md == Fraction(2) * Fraction(3, 2) - 2
    assert isinstance(md, Fraction)


def _moore_reference(a):
    """moore_det's expansion on Quaternion entries in their own arithmetic
    (Fraction products on exact input), with its vector-residue check."""
    m = a.rows
    total = Quaternion()
    for perm in itertools.permutations(range(m)):
        term = None
        cycles = _cycles_decreasing_leader(perm)
        for cyc in cycles:
            factor = a[cyc[0], cyc[1 % len(cyc)]]
            for s in range(1, len(cyc)):
                factor = factor * a[cyc[s], cyc[(s + 1) % len(cyc)]]
            term = factor if term is None else term * factor
        if (m - len(cycles)) % 2:
            term = -term
        total = total + term
    vec = max(abs(float(c)) for c in (total.x1, total.x2, total.x3))
    if vec > 1e-9 * max(1.0, abs(float(total.x0))):
        raise NumericalInconsistencyError(f"vector residue {vec:.3e}")
    return total.x0


@st.composite
def _exact_moore_inputs(draw):
    """(matrix, hyperhermitian): an m x m matrix, m in 1..4, of ints in
    [-8, 8] or of k/4 and k/8 entries as random_hyperhermitian draws them;
    hyperhermitian, or that with one entry moved by a draw of the same kind."""
    m = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 4, 8]))
    num = st.integers(-8, 8).map(lambda k: k if den == 1 else Fraction(k, den))
    quat = st.builds(Quaternion, num, num, num, num)
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = Quaternion(draw(num))
        for j in range(i + 1, m):
            rows[i][j] = draw(quat)
            rows[j][i] = rows[i][j].conjugate()
    hyper = draw(st.booleans())
    if not hyper:
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[i][j] = rows[i][j] + draw(quat)
    return QMatrix(rows), hyper


@settings(max_examples=200)
@given(_exact_moore_inputs())
def test_exact_moore_det_equals_the_fraction_expansion(case):
    # the integer expansion over D**m is the Fraction expansion, and raises
    # on the same inputs
    a, hyper = case
    try:
        want = _moore_reference(a)
    except NumericalInconsistencyError:
        assert not hyper
        with pytest.raises(NumericalInconsistencyError):
            moore_det(a)
        return
    got = moore_det(a)
    assert isinstance(got, Fraction)
    assert got == want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_float_moore_det_keeps_the_quaternion_loop_bits(m):
    rng = np.random.default_rng(90 + m)
    for _ in range(10):
        a = random_hyperhermitian(rng, m)
        assert np.float64(moore_det(a)).tobytes() == np.float64(_moore_reference(a)).tobytes()


def test_mixed_discriminant_diagonal_case():
    # for diagonal real matrices the mixed discriminant is the permanent/n!
    a = QMatrix([[2, 0], [0, 3]])
    b = QMatrix([[5, 0], [0, 7]])
    # det(A, B) = (a11*b22 + a22*b11)/2
    assert mixed_discriminant(a, b) == Fraction(2 * 7 + 3 * 5, 2)


def test_mixed_discriminant_polarizes_moore():
    rng = np.random.default_rng(8)
    for m in (2, 3):
        a = random_hyperhermitian(rng, m, exact=True)
        assert mixed_discriminant(*([a] * m)) == moore_det(a)


def test_mixed_discriminant_multilinear():
    rng = np.random.default_rng(9)
    a1 = random_hyperhermitian(rng, 2, exact=True)
    a2 = random_hyperhermitian(rng, 2, exact=True)
    b = random_hyperhermitian(rng, 2, exact=True)
    lhs = mixed_discriminant(a1 + b * Fraction(3), a2)
    rhs = mixed_discriminant(a1, a2) + Fraction(3) * mixed_discriminant(b, a2)
    assert lhs == rhs
    # symmetry in the slots
    assert mixed_discriminant(a1, a2) == mixed_discriminant(a2, a1)


def test_qmatrix_tau_of_nested_lists():
    out = QMatrix([[QONE, QI]]).tau()
    assert out.shape == (2, 4)
    assert np.allclose(out[:, :2], np.eye(2))


def _tau_by_entry(x):
    # tau's 2x2 block of each entry, written out one entry at a time
    rows, cols = len(x), len(x[0])
    out = np.zeros((2 * rows, 2 * cols), dtype=complex)
    for l in range(rows):
        for m in range(cols):
            x0, x1, x2, x3 = (float(c) for c in x[l][m])
            out[2 * l:2 * l + 2, 2 * m:2 * m + 2] = [[complex(x0, -x1), complex(-x2, x3)],
                                                     [complex(x2, x3), complex(x0, x1)]]
    return out


_COMPONENTS = st.one_of(st.floats(-1e6, 1e6), st.fractions(max_denominator=50),
                        st.sampled_from([0.0, -0.0, 0]))


@given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 3),
       batch=st.integers(1, 3))
def test_tau_blocks_equal_the_entrywise_formula(data, rows, cols, batch):
    # float, Fraction and int components, signed zeros included: the same
    # bytes as the per-entry blocks, one batch row at a time, and so do
    # QMatrix.tau() and tau() of the first entry
    entry = st.lists(_COMPONENTS, min_size=4, max_size=4).map(tuple)
    matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows)
    xs = data.draw(st.lists(matrix, min_size=batch, max_size=batch))
    got = _tau_blocks(np.array(xs, dtype=object))
    assert got.shape == (batch, 2 * rows, 2 * cols)
    for x, g in zip(xs, got):
        assert g.tobytes() == _tau_by_entry(x).tobytes()
        assert _tau_blocks(x).tobytes() == g.tobytes()
        assert QMatrix([[Quaternion(*q) for q in row] for row in x]).tau().tobytes() == \
            g.tobytes()
        assert tau(Quaternion(*x[0][0])).tobytes() == g[:2, :2].copy().tobytes()

