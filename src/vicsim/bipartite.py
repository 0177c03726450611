"""Two non-interacting V-atoms: Bell preparation, factorized evolution,
and projection onto the two-qubit subspace.

The pair lives in the 9-dimensional space (|1>,|2>,|3>)_A ox (|1>,|2>,|3>)_B
with index 3*i + j for |i_A j_B> (zero-based levels). Because the atoms
couple only to their own reservoirs, the joint propagator factorizes
into the tensor product of the single-atom channels (``apply_pair_channel``)
at any t, t = infinity included (``evolve_pair``); vicsim.oracles checks
it against direct integration under the joint Liouvillian L_A ox 1 + 1 ox L_B.

The two-qubit readout compresses onto the block spanned by levels
{|1>, |3>} of each atom, in the fixed basis order

    |1A 1B>, |1A 3B>, |3A 1B>, |3A 3B>,

records the pre-normalization trace (the weight not on the umbrella
levels), and renormalizes. The trace never increases at p = 0 or at
p = 1 with equal level frequencies; otherwise the umbrella level
empties into the ground level and the trace recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .vsystem import VParams, hermitize, propagate_channel, steady_no_jump

PAIR_DIM = 9
# Pair-space indices of |1A1B>, |1A3B>, |3A1B>, |3A3B>, in that basis order.
QUBIT_BLOCK = (0, 2, 6, 8)
_QUBIT_INDEX = np.array(QUBIT_BLOCK)
MIN_TRACE = 1e-14  # the smallest projected trace project_to_qubits divides by


class ZeroTrace(ValueError):
    """State carries no weight inside the projected two-qubit subspace."""


class BellKind(str, Enum):
    """The two maximally entangled initial states; readers also take their strings."""

    PSI = "psi"  # (|1A 1B> + |3A 3B>)/sqrt(2)
    PHI = "phi"  # (|1A 3B> + |3A 1B>)/sqrt(2)


def _is_psi(kind: BellKind | str) -> bool:
    """Whether ``kind`` is psi; a string is read by the (slower) BellKind lookup."""
    return (kind if type(kind) is BellKind else BellKind(kind)) is BellKind.PSI


@dataclass(frozen=True)
class TwoQubitState:
    """Projected, normalized 4x4 state plus the weight it was divided by."""

    rho: np.ndarray
    pre_norm_trace: float


def bell_state(kind: BellKind | str) -> np.ndarray:
    """Bell-state density matrix embedded in the 9-dimensional pair space.

    Its four nonzero entries are exactly 1/2, as the Bell reader
    (``bell_x_elements``) takes them, not the rounded (1/sqrt(2))^2."""
    support = [0, 8] if _is_psi(kind) else [2, 6]
    rho = np.zeros((PAIR_DIM, PAIR_DIM), dtype=complex)
    rho[np.ix_(support, support)] = 0.5
    return rho


def product_state(ket_a: int = 0, ket_b: int = 0) -> np.ndarray:
    """Separable |ket_a>_A |ket_b>_B pair state (levels zero-based)."""
    for level in (ket_a, ket_b):
        if not isinstance(level, (int, np.integer)) or level not in (0, 1, 2):
            raise ValueError(f"level must be 0, 1 or 2, got {level!r}")
    v = np.zeros(PAIR_DIM, dtype=complex)
    v[3 * ket_a + ket_b] = 1.0
    return np.outer(v, v.conj())


def apply_pair_channel(channel_a: np.ndarray, channel_b: np.ndarray,
                       rho_pair: np.ndarray) -> np.ndarray:
    """Act with Lambda_A ox Lambda_B on a 9x9 pair matrix.

    Each channel is a 9x9 map on its atom's (row, column) index pair.
    Regrouped by atom, R[3m+n, 3p+q] = rho[3m+p, 3n+q], the pair matrix
    is acted on as Lambda_A R Lambda_B^T: two matrix products. The regrouping
    is its own inverse, so it also reads the result back. Any argument may
    carry leading stack axes (one channel per time, say); they broadcast,
    and the result carries them too.
    """
    regrouped = _regroup(np.asarray(rho_pair, dtype=complex))
    out = np.asarray(channel_a, dtype=complex) @ regrouped @ np.swapaxes(channel_b, -1, -2)
    return hermitize(_regroup(out))


def _regroup(m: np.ndarray) -> np.ndarray:
    """Swap the middle two of the four level indices of each trailing 9x9
    matrix: M[3m+p, 3n+q] -> R[3m+n, 3p+q]."""
    lead = m.shape[:-2]
    return m.reshape(lead + (3, 3, 3, 3)).swapaxes(-3, -2).reshape(lead + (PAIR_DIM, PAIR_DIM))


def evolve_pair(params_a: VParams, params_b: VParams,
                rho0: np.ndarray, t: float) -> np.ndarray:
    """Factorized evolution of the pair for time t, or its limit at t = math.inf."""
    channel_a = propagate_channel(params_a, t)
    channel_b = channel_a if params_b == params_a else propagate_channel(params_b, t)
    return apply_pair_channel(channel_a, channel_b, rho0)


def qubit_block(rho_pair: np.ndarray) -> np.ndarray:
    """Unnormalized 4x4 block over levels {|1>, |3>} of each atom, of a pair
    matrix or of each matrix in a stack."""
    return np.asarray(rho_pair, dtype=complex)[..., _QUBIT_INDEX, :][..., _QUBIT_INDEX]


def project_to_qubits(rho_pair: np.ndarray) -> TwoQubitState:
    """Compress to the qubit subspace and renormalize.

    Raises ZeroTrace when the projected trace is below MIN_TRACE (the
    state lies outside the projected block). The real and imaginary parts
    are divided as floats, so each is correctly rounded, as in the Bell
    reader; a complex division rounds them differently.
    """
    block = qubit_block(rho_pair)
    trace = float(np.trace(block).real)
    if trace < MIN_TRACE:
        raise ZeroTrace(f"projected trace {trace:.3e} below {MIN_TRACE:.1e}")
    rho = (np.ascontiguousarray(block).view(float) / trace).view(complex)
    return TwoQubitState(rho=rho, pre_norm_trace=trace)


def signed_x_concurrence(rho11, rho22, rho33, rho44, rho14_abs, rho23_abs):
    """2 max(|rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)) of a
    normalized X block, each diagonal entry taken as at least 0: the
    concurrence where positive. Floats or arrays; the one X formula."""
    r11, r22, r33, r44 = np.maximum((rho11, rho22, rho33, rho44), 0.0)
    return 2.0 * np.maximum(rho14_abs - np.sqrt(r22 * r33), rho23_abs - np.sqrt(r11 * r44))


class XElements(NamedTuple):
    """The diagonal and antidiagonal magnitudes of an X-shaped qubit block,
    floats or arrays over the times. The Bell reader's are unnormalized, its
    live antidiagonal |rho14| for psi and |rho23| for phi, the other zero."""

    rho11: np.ndarray
    rho22: np.ndarray
    rho33: np.ndarray
    rho44: np.ndarray
    rho14_abs: np.ndarray
    rho23_abs: np.ndarray

    @property
    def trace(self) -> np.ndarray:
        """The pre-normalization trace of the qubit block."""
        return self.rho11 + self.rho22 + self.rho33 + self.rho44

    @property
    def signed_concurrence(self) -> np.ndarray:
        """``signed_x_concurrence`` of the block normalized by its trace."""
        return signed_x_concurrence(*np.divide(self, self.trace))


def bell_x_elements(u: np.ndarray, kind: BellKind | str) -> XElements:
    """The qubit block of a Bell pair of identical atoms at each U of a
    (T, 2, 2) stack of no-jump propagators, with no pair evolution.

    Jumps only feed the ground level |3>, so (after Bellomo, Lo Franco and
    Compagno, PRL 99, 160502 (2007)) the block is a polynomial in two
    single-atom numbers: s = |U11|^2 and P = |U11|^2 + |U21|^2, the excited
    population of an atom started in |1>:

        psi: rho11 = s^2/2, rho22 = rho33 = s (1 - P)/2,
             rho44 = (1 + (1 - P)^2)/2, |rho14| = s/2;
        phi: rho22 = rho33 = |rho23| = s/2, rho44 = 1 - P, rho11 = 0.

    The stack is ``no_jump_propagators(params, t)`` for a grid of times,
    or U(infinity) for the long-time block (``steady_bell_x_elements``).
    U(infinity) is the projector onto a real decay-free direction, or zero,
    so U11 is real and non-negative there and the live antidiagonal entry
    equals its magnitude.
    """
    s = (u[..., 0, 0] * u[..., 0, 0].conj()).real
    loss = 1.0 - (s + (u[..., 1, 0] * u[..., 1, 0].conj()).real)  # 1 - P
    half_s = 0.5 * s
    zero = np.zeros_like(s)
    if _is_psi(kind):
        side = half_s * loss
        return XElements(half_s * s, side, side, 0.5 * (1.0 + loss * loss), half_s, zero)
    return XElements(zero, half_s, half_s, loss, zero, half_s)


def steady_bell_x_elements(params: VParams, kind: BellKind | str) -> XElements:
    """``bell_x_elements`` at t = infinity: U(infinity) in the decay-free
    frame, which exists even where a decay-free level keeps rotating."""
    return bell_x_elements(steady_no_jump(params.in_decay_free_frame())[None], kind)
