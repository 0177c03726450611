"""Shared test helpers: random states and operators, and CLI output."""

import re

import numpy as np


def random_density(rng, dim):
    """Random full-rank density matrix via a Wishart draw."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng):
    """Random physical 4x4 X-shaped density matrix.

    PSD for an X pattern means |rho14| <= sqrt(rho11 rho44) and
    |rho23| <= sqrt(rho22 rho33).
    """
    diag = rng.random(4) + 1e-3
    diag /= diag.sum()
    rho = np.diag(diag).astype(complex)
    r14 = rng.random() * np.sqrt(diag[0] * diag[3]) * np.exp(2j * np.pi * rng.random())
    r23 = rng.random() * np.sqrt(diag[1] * diag[2]) * np.exp(2j * np.pi * rng.random())
    rho[0, 3], rho[3, 0] = r14, np.conj(r14)
    rho[1, 2], rho[2, 1] = r23, np.conj(r23)
    return rho


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def max_abs(a):
    return float(np.max(np.abs(a)))


def einsum_pair_map(channel_a, channel_b, rho_pair):
    """Lambda_A ox Lambda_B on 9x9 pair matrices, as one einsum over the
    3x3x3x3 tensors T[i, k, j, l] = rho[3i+k, 3j+l], then hermitized; leading
    stack axes broadcast. The reference for bipartite.apply_pair_channel."""
    def split(m):
        m = np.asarray(m, dtype=complex)
        return m.reshape(m.shape[:-2] + (3, 3, 3, 3))

    out = np.einsum("...ijmn,...klpq,...mpnq->...ikjl",
                    split(channel_a), split(channel_b), split(rho_pair))
    out = out.reshape(out.shape[:-4] + (9, 9))
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def without_gamma_echo(out):
    """CLI stdout without compare's ``"gamma"`` echo, the one output line
    that names the unit of time."""
    return re.sub(r'\n  "gamma": [^\n]*\n', "\n", out)
