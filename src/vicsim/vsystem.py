"""Single V-configuration atom decaying into its own vacuum reservoir.

Basis order is (|1>, |2>, |3>): two near-degenerate excited levels and
the shared ground level. Levels |1> and |3> form the qubit; |2> is the
umbrella level whose decay channel interferes with the qubit transition.
Rates follow the half-rate convention (a bare excited population decays
at 2*gamma_k):

    gamma_1 = gamma,  gamma_2 = eta**2 * gamma,  gamma_12 = p * eta * gamma,

where eta >= 0 is the dipole-strength ratio of the two transitions and
p in [0, 1] scales the interference cross-damping. p = 1 is maximal
vacuum-induced coherence, p = 0 switches interference off while keeping
the level structure intact (gamma_12 ** 2 <= gamma_1 * gamma_2 holds for
all p, so the generator stays completely positive).

Quantum jumps only feed the ground level, so one closed form propagates
every (eta, p, omega): the channel built from the 2x2 no-jump propagator
U(t) = exp(-i H_eff t) of the excited levels, H_eff = diag(omega1,
omega2) - i Gamma with the damping matrix Gamma = [[gamma_1, gamma_12],
[gamma_12, gamma_2]]. U is one formula, the same with and without
detuning: both decay rates and the eigenprojectors of H_eff are formed
from sums of non-negative terms, so no rate is lost to cancellation
however far apart the two rates are (see _no_jump_propagator). Its
t -> infinity limit is the steady state: every propagator takes
t = math.inf and returns that limit (steady_no_jump), or raises
NoConvergence where none exists. Every rate and frequency scales with
gamma, so the dimensionless gamma*t is the only time a reader needs: the
propagator of params at t is that of params.in_units_of_gamma() at gamma*t.
Gamma is singular only at p = 1 or eta = 0. At p = 1 its kernel, the
dark superposition (eta|1> - |2>)/sqrt(1 + eta^2), is decoupled from
the reservoir and traps population, while the orthogonal bright one
decays at 2*gamma*(1 + eta^2). The exponentiated Liouvillian and
fixed-step RK4 that cross-check this closed form live in vicsim.oracles,
the paper's printed closed forms for that case in vicsim.published.

Density matrices are plain complex 3x3 ndarrays; channels are 9x9
matrices acting on row-major vectorized states, vec(rho)[3*i + j] =
rho[i, j].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

EXCITED, UMBRELLA, GROUND = 0, 1, 2


class NoConvergence(ValueError):
    """The state keeps rotating forever, so it has no long-time limit."""


@dataclass(frozen=True)
class VParams:
    """Physical parameters of one V-system atom.

    gamma is the decay half-rate of the qubit transition (population
    decays at 2*gamma), eta the dipole ratio of umbrella to qubit
    transition, p the interference factor, omega1/omega2 the transition
    frequencies (equal and zero in the default rotating frame).
    """

    gamma: float = 1.0
    eta: float = 1.0
    p: float = 1.0
    omega1: float = 0.0
    omega2: float = 0.0

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.eta < 0:
            raise ValueError(f"eta must be non-negative, got {self.eta}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        # rejects a non-finite gamma or eta, and an overflowing decay rate
        if not math.isfinite(self.gamma * (1.0 + self.eta * self.eta)):
            raise ValueError(
                f"gamma*(1 + eta^2) must be finite, got gamma = {self.gamma}, eta = {self.eta}"
            )
        if not (math.isfinite(self.omega1) and math.isfinite(self.omega2)):
            raise ValueError(
                f"omega1 and omega2 must be finite, got {self.omega1}, {self.omega2}"
            )

    @property
    def gamma1(self) -> float:
        return self.gamma

    @property
    def gamma2(self) -> float:
        return self.eta**2 * self.gamma

    @property
    def gamma12(self) -> float:
        return self.p * self.eta * self.gamma

    @property
    def bright_rate(self) -> float:
        """Coherence decay rate gamma*(1 + eta^2) of the bright channel."""
        return self.gamma * (1.0 + self.eta**2)

    def in_units_of_gamma(self) -> VParams:
        """The same atom with gamma = 1 and its frequencies divided by gamma:
        its propagator at gamma*t is this atom's at t."""
        return VParams(eta=self.eta, p=self.p, omega1=self.omega1 / self.gamma,
                       omega2=self.omega2 / self.gamma)


def basis_ket(i: int) -> np.ndarray:
    v = np.zeros(3, dtype=complex)
    v[i] = 1.0
    return v


def pure_state(ket: np.ndarray) -> np.ndarray:
    """Density matrix |ket><ket| (input need not be normalized)."""
    ket = np.asarray(ket, dtype=complex)
    rho = np.outer(ket, ket.conj())
    return rho / np.trace(rho).real


def excited_state() -> np.ndarray:
    return pure_state(basis_ket(EXCITED))


def ground_state() -> np.ndarray:
    return pure_state(basis_ket(GROUND))


def superposition_state() -> np.ndarray:
    """(|1> + |3>)/sqrt(2) as a density matrix."""
    return pure_state(basis_ket(EXCITED) + basis_ket(GROUND))


def dark_vector(eta: float) -> np.ndarray:
    """Decay-free superposition (eta|1> - |2>)/sqrt(1 + eta^2)."""
    return np.array([eta, -1.0, 0.0], dtype=complex) / math.sqrt(1.0 + eta**2)


# Flat positions S.flat[9*row + col] of the 9x9 channel entries that the
# no-jump propagator U fills, in the order _channel_from_no_jump lists them.
# Excited levels e = {0, 1}; row-major vec puts rho[i, j] at 3*i + j.
_EE = (0, 1, 3, 4)
_CHANNEL_SLOTS = np.array(
    [9 * r + c for r in _EE for c in _EE]                 # rho_ee -> U rho_ee U^+
    + [9 * r + c for r in (2, 5) for c in (2, 5)]         # rho_e3 -> U rho_e3
    + [9 * r + c for r in (6, 7) for c in (6, 7)]         # rho_3e -> rho_3e U^+
    + [9 * 8 + c for c in _EE]                            # lost excited weight -> rho_33
)
_VEC_EYE2 = np.eye(2).reshape(-1)
# Below |r t| = 0.1 the 2x2 exponential uses its power series in (r t)^2:
# there the fast and slow exponentials nearly coincide and the projectors
# onto their eigenvectors blow up, so their sum would lose digits to
# cancellation, while the truncated series is good to ~1e-17.
_SERIES_BELOW = 0.1


def _channel_from_no_jump(u: np.ndarray) -> np.ndarray:
    """Assemble the 9x9 channel from the 2x2 no-jump propagator U.

    Jumps only feed the ground level, so rho_ee -> U rho_ee U^+,
    rho_e3 -> U rho_e3 and rho_33 -> rho_33 + tr rho_ee - tr(U rho_ee U^+).
    The lost weight is read off the rho_ee block's diagonal rows, so it is
    rounded as the Bell reader (``bipartite.bell_x_elements``) rounds 1 - P.
    """
    uc = u.conj()
    ee = (u[:, None, :, None] * uc[None, :, None, :]).reshape(4, 4)
    values = np.concatenate((
        ee.reshape(-1),
        u.reshape(-1),
        uc.reshape(-1),
        _VEC_EYE2 - (ee[0] + ee[3]),
    ))
    s = np.zeros((9, 9), dtype=complex)
    s.flat[_CHANNEL_SLOTS] = values
    s[8, 8] = 1.0
    return s


def _phase_overflow(phase: str, t: float) -> ValueError:
    """The error for a level phase omega * t beyond the largest float, which
    cmath.exp cannot take even when its decay factor is finite."""
    return ValueError(f"the {phase} of the no-jump propagator overflows a float at t = {t!r}")


def _no_jump_propagator(params: VParams, t: float) -> np.ndarray:
    """U(t) = exp(-i H_eff t) = exp(-A t) on the excited levels, A = Gamma + i diag(omega).

    One formula for every (eta, p, omega). Gamma = [[gamma_1, gamma_12],
    [gamma_12, gamma_2]] is the damping matrix of the excited block. The
    mean frequency is a common phase; the rest of A is m + [[d, gamma_12],
    [gamma_12, -d]] with m = (gamma_1 + gamma_2)/2 and d = (gamma_1 -
    gamma_2)/2 + i w, w = (omega1 - omega2)/2. Its eigenvalues are m +- r,
    r = sqrt(d^2 + gamma_12^2) with Re r >= 0, so

        U = exp(-(m + r) t) P_fast + exp(-(m - r) t) P_slow,
        P_fast, P_slow = [[r +- d, +-gamma_12], [+-gamma_12, r -+ d]] / (2 r).

    No entry is a difference of nearly equal numbers:
    - the fast rate m + Re r is a sum of non-negative terms;
    - the slow rate is m - Re r = (m^2 - Re(r)^2) / (m + Re r), with
      m^2 - Re(r)^2 = 2 (m^2 det Gamma + w^2 gamma_1 gamma_2) / (m^2 +
      det Gamma + w^2 + |r|^2) and det Gamma = gamma_1 gamma_2 (1 - p)(1 + p),
      all terms non-negative; for omega1 == omega2 it is det Gamma / fast,
      so p just below 1 and a tiny eta keep their small rates;
    - of r + d and r - d the smaller is gamma_12^2 over the larger;
    - near the exceptional point, |r t| < _SERIES_BELOW, the power series in
      (r t)^2 replaces the projectors.
    Rates and projectors are formed in units of s = max(m, |w|), or of
    gamma_1 where both round to 0, so no square over- or underflows.
    At t = infinity it is the limit, ``steady_no_jump(params)``.
    """
    t = float(t)  # a numpy t would make every product below warn where it overflows
    if t == math.inf:
        return steady_no_jump(params)
    g1, g2, g12, p = params.gamma1, params.gamma2, params.gamma12, params.p
    mean_w = 0.5 * params.omega1 + 0.5 * params.omega2
    half_dw = 0.5 * params.omega1 - 0.5 * params.omega2
    m = 0.5 * (g1 + g2)
    s = max(m, abs(half_dw)) or g1  # m rounds to 0 at a subnormal gamma*(1 + eta^2)
    ms, ws, gs = m / s, half_dw / s, g12 / s
    d = complex(0.5 * (g1 - g2) / s, ws)
    r2 = d * d + gs * gs
    r = cmath.sqrt(r2)
    rt = r * s * t
    if abs(rt) < _SERIES_BELOW:
        q = rt * rt
        try:
            scale = cmath.exp(complex(-m * t, -mean_w * t))
        except ValueError:  # cmath.exp rejects an infinite phase
            raise _phase_overflow("common phase (mean frequency) * t", t) from None
        cosh = scale * (1 + q / 2 * (1 + q / 12 * (1 + q / 30 * (1 + q / 56))))
        # exp(-m t) sinh(r t) / r with r in units of s; scale comes first so
        # that a t at which everything has decayed gives 0, not 0 * inf
        sinhc = scale * t * s * (1 + q / 6 * (1 + q / 20 * (1 + q / 42 * (1 + q / 72))))
        off = -sinhc * gs
        return np.array([[cosh - sinhc * d, off], [off, cosh + sinhc * d]])
    fast = m + s * r.real
    one_minus_p2 = (1.0 - p) * (1.0 + p)
    det = (g1 / s) * (g2 / s) * one_minus_p2
    slow = g2 * (g1 / fast) * 2.0 * (one_minus_p2 * ms * ms + ws * ws) / (
        ms * ms + det + ws * ws + abs(r2))
    plus, minus = r + d, r - d
    if abs(plus) >= abs(minus):
        minus = gs * gs / plus
    else:
        plus = gs * gs / minus
    turn, half_over_r = s * r.imag, 0.5 / r
    try:
        xf = cmath.exp(complex(-fast * t, -(mean_w + turn) * t)) * half_over_r
        xs = cmath.exp(complex(-slow * t, -(mean_w - turn) * t)) * half_over_r
    except ValueError:  # cmath.exp rejects an infinite phase
        if math.isinf((mean_w + turn) * t):
            raise _phase_overflow("fast mode's phase (mean frequency + splitting) * t", t) from None
        raise _phase_overflow("slow mode's phase (mean frequency - splitting) * t", t) from None
    off = gs * (xf - xs)
    return np.array([[xf * plus + xs * minus, off], [off, xf * minus + xs * plus]])


def _check_time(t: float) -> None:
    if not t >= 0.0:  # rejects NaN too
        raise ValueError(f"t must be non-negative, got {t}")


def propagate_channel(params: VParams, t: float) -> np.ndarray:
    """9x9 propagator vec(rho0) -> vec(rho(t)) for every (eta, p, omega), t = inf included."""
    _check_time(t)
    return _channel_from_no_jump(_no_jump_propagator(params, t))


def no_jump_propagators(params: VParams, ts: np.ndarray) -> np.ndarray:
    """The 2x2 no-jump propagator U(t) at each of the T times ``ts``, stacked
    as (T, 2, 2). One scalar closed form per time, so U is written once; a
    time math.inf gives U(infinity), ``steady_no_jump(params)``."""
    times = np.asarray(ts, dtype=float).reshape(-1).tolist()
    for t in times:
        _check_time(t)
    stack = np.array([_no_jump_propagator(params, t) for t in times], dtype=complex)
    return stack.reshape(-1, 2, 2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger) / 2 of a matrix or of each matrix in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def apply_channel(channel: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a vectorized propagator to a density matrix."""
    dim = rho.shape[0]
    return hermitize((channel @ rho.reshape(-1)).reshape(dim, dim))


def steady_no_jump(params: VParams, rho0: np.ndarray | None = None) -> np.ndarray:
    """U(infinity), the 2x2 no-jump propagator in the long-time limit.

    U(infinity) projects onto the excited direction that never decays:
    the kernel of Gamma, when Gamma is singular (eta = 0 or maximal
    interference) and the kernel is also an eigenvector of the level
    frequencies; otherwise it is zero. Both are decided from the
    parameters, not from a numerically computed eigenvalue. A survivor
    with nonzero frequency keeps rotating against the ground level, so
    the limit does not exist (NoConvergence): without rho0 always, with
    rho0 only when rho0 carries coherence between the survivor and the
    ground level.
    """
    # det(Gamma) = gamma^2 eta^2 (1 - p)(1 + p) is zero exactly when eta (1 - p)
    # is; the kernel (eta, -1) is an eigenvector of diag(omega1, omega2)
    # exactly when eta = 0 or omega1 = omega2.
    singular = params.eta * (1.0 - params.p) == 0.0
    if not (singular and (params.eta == 0.0 or params.omega1 == params.omega2)):
        return np.zeros((2, 2), dtype=complex)
    # the projector onto the kernel (eta, -1), divided by its squared norm
    # once, so that no square root rounds its entries
    kernel = np.array([params.eta, -1.0], dtype=complex)
    omega = params.omega2 if params.eta == 0.0 else params.omega1
    if omega != 0.0 and (rho0 is None or kernel @ rho0[:2, GROUND] != 0.0):
        raise NoConvergence(
            f"a decay-free level keeps rotating at omega = {omega}; "
            "there is no long-time limit"
        )
    return np.outer(kernel, kernel) / (1.0 + params.eta**2)


def single_atom_states(u: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """The single-atom state evolved from rho0 by each U of a (T, 2, 2) stack
    of no-jump propagators, as a (T, 3, 3) stack.

    Jumps only feed the ground level, so rho_ee -> U rho_ee U^+, rho_e3 ->
    U rho_e3, and rho_33 gains the excited weight lost, tr((1 - U^+ U)
    rho_ee): the channel of ``_channel_from_no_jump``, with no channel built.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    u_dag = u.conj().swapaxes(-1, -2)
    ee = rho0[:2, :2]
    rho = np.zeros(u.shape[:-2] + (3, 3), dtype=complex)
    rho[..., :2, :2] = u @ ee @ u_dag
    rho[..., :2, GROUND] = u @ rho0[:2, GROUND]
    rho[..., GROUND, :2] = rho[..., :2, GROUND].conj()
    # kept[i, j] = (U^+ U)[j, i], summed over the rows of U as the channel sums it
    kept = (u[..., :, :, None] * u.conj()[..., :, None, :]).sum(axis=-3)
    rho[..., GROUND, GROUND] = rho0[GROUND, GROUND] + ((np.eye(2) - kept) * ee).sum(axis=(-2, -1))
    return hermitize(rho)


def steady_state(params: VParams, rho0: np.ndarray) -> np.ndarray:
    """Long-time limit of rho0: its weight on the decay-free excited
    direction (if any) and that direction's coherence with the ground
    level survive, everything else ends on the ground level. Read from
    U(infinity) by ``single_atom_states``."""
    rho0 = np.asarray(rho0, dtype=complex)
    return single_atom_states(steady_no_jump(params, rho0)[None], rho0)[0]
