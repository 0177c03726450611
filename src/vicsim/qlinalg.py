"""Dense complex matrix kernel for small quantum systems.

Everything operates on plain complex numpy arrays; the largest objects
are 81x81 superoperators for a pair of three-level atoms. Vectorization
is row-major throughout the package:

    vec(rho)[d*i + j] = rho[i, j],  so  vec(A @ X @ B) = kron(A, B.T) @ vec(X).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

MAX_DIM = 81
HERMITIAN_TOL = 1e-10
PSD_EIGENVALUE_FLOOR = -1e-8


class NotHermitian(ValueError):
    """Matrix failed a Hermiticity precondition."""


class NotPSD(ValueError):
    """Matrix has an eigenvalue below the positive-semidefinite floor."""


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a square matrix."""
    return np.asarray(m, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; the dimension is inferred when omitted."""
    v = np.asarray(v, dtype=complex)
    if dim is None:
        dim = math.isqrt(v.size)
    return v.reshape(dim, dim)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest elementwise deviation of m from its conjugate transpose."""
    return float(np.max(np.abs(m - dagger(m))))


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger) / 2."""
    return (m + dagger(m)) / 2.0


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with (a ox b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        raise ValueError("tensor_product requires non-empty factors")
    return np.kron(a, b)


class Spectrum(NamedTuple):
    """Full spectrum of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, k] <-> eigenvalues[k]


def hermitian_eig(m: np.ndarray, tol: float = HERMITIAN_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when the input deviates from its adjoint by more
    than ``tol`` in any entry. Ordering is ascending and deterministic
    for identical inputs.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {tol:.1e}")
    w, v = np.linalg.eigh(hermitize(m))
    return Spectrum(w, v)


def psd_sqrt(m: np.ndarray, floor: float = PSD_EIGENVALUE_FLOOR) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [floor, 0) are treated as roundoff and clipped to
    zero; anything below ``floor`` raises NotPSD.
    """
    w, v = hermitian_eig(m)
    if w.size and float(w.min()) < floor:
        raise NotPSD(f"eigenvalue {w.min():.3e} below floor {floor:.1e}")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ dagger(v)
    return hermitize(root)


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy).

    Only the oracle propagators use it, so scipy is imported here rather
    than at package import.
    """
    import scipy.linalg

    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds supported maximum {MAX_DIM}")
    return scipy.linalg.expm(m)
