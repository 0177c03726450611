"""Independent oracles that cross-check the closed-form runtime.

Nothing in the runtime (library and CLI) imports this module; only tests
do. It holds the routes the closed form is checked against:

- the Lindblad generator of one atom, exponentiated (``propagate_spectral``)
  and integrated by fixed-step RK4 (``propagate_rk4``);
- the 81x81 joint generator L_A ox 1 + 1 ox L_B of the pair
  (``evolve_pair_joint``), the check on the factorized pair map;
- the general Wootters concurrence (``concurrence_wootters``), the check
  on the X-state readout.

Each calls numpy and scipy directly. Vectorization is row-major, as in
the runtime:

    vec(rho)[d*i + j] = rho[i, j],  so  vec(A @ X @ B) = kron(A, B.T) @ vec(X).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .bipartite import PAIR_DIM
from .vsystem import EXCITED, GROUND, UMBRELLA, VParams, hermitize


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring, via scipy).

    A triangular m is exponentiated through the dense similar matrix h m h,
    with h = 1 - 2 J/n (J all ones) the Householder reflection along
    (1, ..., 1), which is its own inverse. scipy's triangular branch
    divides differences of exponentials by differences of adjacent
    diagonal entries, and returns NaN when these differ by a subnormal
    amount (scipy issue 11839), as the Liouvillian's do at p = 0 with
    omega2 = 5e-324.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n < 2 or (np.any(np.triu(m, 1)) and np.any(np.tril(m, -1))):
        return scipy.linalg.expm(m)
    h = np.eye(n) - 2.0 / n
    return h @ scipy.linalg.expm(h @ m @ h) @ h


# ---------------------------------------------------------------- one atom

# Default RK4 step: DEFAULT_STEP_SCALE / (gamma * (1 + eta^2)). Keeps the
# accumulated local error far below the 1e-8 cross-validation budget.
DEFAULT_STEP_SCALE = 1e-3


class StepTooLarge(ValueError):
    """Requested integration step violates the RK4 stability guard."""


def hamiltonian(params: VParams) -> np.ndarray:
    """Free Hamiltonian omega1|1><1| + omega2|2><2| (ground level at zero)."""
    return np.diag([params.omega1, params.omega2, 0.0]).astype(complex)


def decay_terms(params: VParams) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Dissipator terms as (rate, J, K) with action rate*(2 J rho K^+ - {K^+ J, rho}).

    Diagonal terms carry the two spontaneous channels, the two cross
    terms the interference damping gamma_12.
    """
    a31 = np.zeros((3, 3), dtype=complex)
    a31[GROUND, EXCITED] = 1.0
    a32 = np.zeros((3, 3), dtype=complex)
    a32[GROUND, UMBRELLA] = 1.0
    return [
        (params.gamma1, a31, a31),
        (params.gamma2, a32, a32),
        (params.gamma12, a31, a32),
        (params.gamma12, a32, a31),
    ]


def lindblad_superoperator(
    ham: np.ndarray, terms: list[tuple[float, np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Liouvillian matrix L with vec(rho') = L @ vec(rho), row-major vec."""
    dim = ham.shape[0]
    eye = np.eye(dim, dtype=complex)
    liou = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for rate, jump, partner in terms:
        kj = partner.conj().T @ jump
        liou += rate * (2.0 * np.kron(jump, partner.conj()) - np.kron(kj, eye) - np.kron(eye, kj.T))
    return liou


def build_liouvillian(params: VParams) -> np.ndarray:
    """9x9 generator of the single-atom master equation."""
    return lindblad_superoperator(hamiltonian(params), decay_terms(params))


def default_step(params: VParams) -> float:
    return DEFAULT_STEP_SCALE / params.bright_rate


def rk4_evolve(liou: np.ndarray, rho0: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical fixed-step RK4 for vec(rho)' = L vec(rho).

    With L constant one step is the fixed matrix P = sum_{k<=4} (hL)^k / k!,
    so the n steps of size h = t/n are P^n, formed by repeated squaring.
    The result is Hermitized once; trace is preserved by construction
    since the trace functional annihilates L.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    rho0 = np.asarray(rho0, dtype=complex)
    if t == 0:
        return rho0.copy()
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt * np.linalg.norm(liou, 2) > 0.5:
        raise StepTooLarge(f"dt*|L| = {dt * np.linalg.norm(liou, 2):.3e} exceeds 0.5")
    dim = rho0.shape[0]
    steps = max(1, math.ceil(t / dt))
    hl = (t / steps) * liou
    term = np.eye(liou.shape[0], dtype=complex)
    step = term.copy()
    for k in range(1, 5):
        term = term @ hl / k
        step += term
    x = np.linalg.matrix_power(step, steps) @ rho0.reshape(-1)
    return hermitize(x.reshape(dim, dim))


def propagate_rk4(params: VParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a 3x3 state for time t by fixed-step RK4 at the default step."""
    return rk4_evolve(build_liouvillian(params), rho0, t, default_step(params))


def propagate_spectral(params: VParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve a 3x3 state for time t via the exponentiated Liouvillian."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    prop = expm(build_liouvillian(params) * t)
    rho0 = np.asarray(rho0, dtype=complex)
    return hermitize((prop @ rho0.reshape(-1)).reshape(3, 3))


# ---------------------------------------------------------------- the pair

def joint_liouvillian(params_a: VParams, params_b: VParams) -> np.ndarray:
    """81x81 generator L_A ox 1 + 1 ox L_B on the vectorized pair matrix."""
    eye = np.eye(3, dtype=complex)
    ham = np.kron(hamiltonian(params_a), eye) + np.kron(eye, hamiltonian(params_b))
    terms = [
        (rate, np.kron(jump, eye), np.kron(partner, eye))
        for rate, jump, partner in decay_terms(params_a)
    ]
    terms += [
        (rate, np.kron(eye, jump), np.kron(eye, partner))
        for rate, jump, partner in decay_terms(params_b)
    ]
    return lindblad_superoperator(ham, terms)


def evolve_pair_joint(params_a: VParams, params_b: VParams,
                      rho0: np.ndarray, t: float) -> np.ndarray:
    """Direct integration route: exponentiate the joint Liouvillian.

    Independent of the factorized channel construction; used to validate
    it.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    prop = expm(joint_liouvillian(params_a, params_b) * t)
    rho0 = np.asarray(rho0, dtype=complex)
    return hermitize((prop @ rho0.reshape(-1)).reshape(PAIR_DIM, PAIR_DIM))


# ---------------------------------------------------------------- concurrence

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real  # antidiagonal (-1, 1, 1, -1)

STATE_TRACE_TOL = 1e-8
STATE_HERMITIAN_TOL = 1e-10
STATE_EIGENVALUE_FLOOR = -1e-10


class NotAState(ValueError):
    """Input is not a normalized two-qubit density matrix."""


def _check_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise NotAState(f"expected a 4x4 matrix, got shape {rho.shape}")
    defect = float(np.max(np.abs(rho - rho.conj().T)))
    if defect > STATE_HERMITIAN_TOL:
        raise NotAState(f"Hermiticity defect {defect:.3e}")
    trace = np.trace(rho).real
    if abs(trace - 1.0) > STATE_TRACE_TOL:
        raise NotAState(f"trace {trace:.12f} is not 1")
    w = np.linalg.eigvalsh(hermitize(rho))
    if float(w.min()) < STATE_EIGENVALUE_FLOOR:
        raise NotAState(f"negative eigenvalue {w.min():.3e}")
    return rho


def concurrence_wootters(rho: np.ndarray) -> float:
    """General two-qubit concurrence via the Hermitian spin-flip form.

    C = max{0, l1 - l2 - l3 - l4} with l_k the descending square roots
    of the eigenvalues of sqrt(rho) rho_tilde sqrt(rho), where rho_tilde =
    Y conj(rho) Y is the spin flip with Y = sigma_y ox sigma_y. That
    matrix is A A^+ with A = sqrt(rho) Y conj(sqrt(rho)), so the l_k are
    read as the singular values of A: square roots of rounding-level
    eigenvalues of A A^+ would put ~1e-8 into l2..l4 of a nearly pure
    state.
    """
    rho = _check_state(rho)
    # _check_state bounds the eigenvalues below by -1e-10: clip that round-off.
    w, v = np.linalg.eigh(hermitize(rho))
    root = hermitize((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    lam = np.linalg.svd(root @ SPIN_FLIP @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
