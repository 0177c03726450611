"""The dense complex kernel behind the oracles in vicsim.oracles."""

import numpy as np
import pytest

from vicsim.oracles import (
    NotHermitian,
    NotPSD,
    dagger,
    expm,
    hermitian_eig,
    psd_sqrt,
    tensor_product,
    unvec,
    vec,
)
from util import max_abs, random_hermitian


def test_tensor_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diag():
    out = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_mixed_product_identity():
    # (a ox b)(v ox w) = (a v) ox (b w)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    lhs = tensor_product(a, b) @ np.kron(v, w)
    rhs = np.kron(a @ v, b @ w)
    assert max_abs(lhs - rhs) <= 1e-12


def test_tensor_associative_exact():
    # dyadic entries make all products exactly representable
    rng = np.random.default_rng(3)
    mats = [rng.integers(-8, 9, size=(2, 2)) / 16.0 for _ in range(3)]
    a, b, c = mats
    lhs = tensor_product(tensor_product(a, b), c)
    rhs = tensor_product(a, tensor_product(b, c))
    assert np.array_equal(lhs, rhs)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(np.trace(tensor_product(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_tensor_rejects_empty():
    with pytest.raises(ValueError):
        tensor_product(np.zeros((0, 0)), np.eye(2))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(unvec(vec(m)), m)
    # row-major convention: vec[3i + j] = m[i, j]
    assert vec(m)[3 * 1 + 2] == m[1, 2]


def test_eig_diagonal():
    spec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_eig_pauli_x():
    spec = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_trace_identity():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 4)
    spec = hermitian_eig(h)
    assert abs(spec.eigenvalues.sum() - np.trace(h).real) <= 1e-12


def test_eig_reconstruction_and_unitarity():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 9)
    w, v = hermitian_eig(h)
    assert max_abs(v @ np.diag(w) @ dagger(v) - h) <= 1e-10
    assert max_abs(dagger(v) @ v - np.eye(9)) <= 1e-10
    # residual per eigenpair
    norm = np.linalg.norm(h, 2)
    for k in range(9):
        assert np.linalg.norm(h @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * norm


def test_eig_deterministic():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 5)
    s1 = hermitian_eig(h)
    s2 = hermitian_eig(h.copy())
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0]).astype(complex)),
                       np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_zero():
    assert np.array_equal(psd_sqrt(np.zeros((3, 3), dtype=complex)), np.zeros((3, 3)))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = dagger(b) @ b
    root = psd_sqrt(m)
    assert max_abs(root @ root - m) <= 1e-9


def test_psd_sqrt_commutes():
    rng = np.random.default_rng(10)
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = dagger(b) @ b
    root = psd_sqrt(m)
    assert max_abs(root @ m - m @ root) <= 1e-9 * np.linalg.norm(m, 2)


def test_psd_sqrt_clips_roundoff_negatives():
    m = np.diag([1.0, -1e-11]).astype(complex)
    root = psd_sqrt(m)
    assert np.allclose(root, np.diag([1.0, 0.0]), atol=1e-12)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1e-3]).astype(complex))


def test_expm_zero():
    assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_expm_diagonal():
    out = expm(np.diag([0.3, -1.2]).astype(complex))
    assert np.allclose(out, np.diag(np.exp([0.3, -1.2])), atol=1e-14)


def test_expm_vs_rk4_oracle():
    # independent route: fixed-step RK4 of x' = L x, column by column
    rng = np.random.default_rng(12)
    liou = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    liou /= np.linalg.norm(liou, 2)  # gamma*t = 1 at unit norm
    t, steps = 1.0, 2000
    h = t / steps
    x = np.eye(9, dtype=complex)
    for _ in range(steps):
        k1 = liou @ x
        k2 = liou @ (x + 0.5 * h * k1)
        k3 = liou @ (x + 0.5 * h * k2)
        k4 = liou @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert max_abs(expm(liou * t) - x) <= 1e-8


def test_expm_inverse():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m *= 10.0 / np.linalg.norm(m, 2)
    assert max_abs(expm(m) @ expm(-m) - np.eye(6)) <= 1e-10


def test_expm_rejects_oversize():
    with pytest.raises(ValueError):
        expm(np.zeros((82, 82)))
