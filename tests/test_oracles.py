"""The matrix exponential behind the oracles in vicsim.oracles."""

import numpy as np

from vicsim.oracles import expm
from util import max_abs


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
