"""Two non-interacting V-atoms: Bell preparation, factorized evolution,
and projection onto the two-qubit subspace.

The pair lives in the 9-dimensional space (|1>,|2>,|3>)_A ox (|1>,|2>,|3>)_B
with index 3*i + j for |i_A j_B> (zero-based levels). Because the atoms
couple only to their own reservoirs, the joint propagator factorizes
into the tensor product of the single-atom channels (``apply_pair_channel``);
vicsim.oracles checks it against direct integration under the joint
Liouvillian L_A ox 1 + 1 ox L_B.

The two-qubit readout compresses onto the block spanned by levels
{|1>, |3>} of each atom, in the fixed basis order

    |1A 1B>, |1A 3B>, |3A 1B>, |3A 3B>,

records the pre-normalization trace (the weight not on the umbrella
levels), and renormalizes. The trace never increases at p = 0 or at
p = 1 with equal level frequencies; otherwise the umbrella level
empties into the ground level and the trace recovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .vsystem import VParams, hermitize, propagate_channel, steady_channel

PAIR_DIM = 9
# Pair-space indices of |1A1B>, |1A3B>, |3A1B>, |3A3B>, in that basis order.
QUBIT_BLOCK = (0, 2, 6, 8)


class ZeroTrace(ValueError):
    """State carries no weight inside the projected two-qubit subspace."""


class BellKind(str, Enum):
    """The two maximally entangled initial states."""

    PSI = "psi"  # (|1A 1B> + |3A 3B>)/sqrt(2)
    PHI = "phi"  # (|1A 3B> + |3A 1B>)/sqrt(2)


@dataclass(frozen=True)
class TwoQubitState:
    """Projected, normalized 4x4 state plus the weight it was divided by."""

    rho: np.ndarray
    pre_norm_trace: float


def bell_state(kind: BellKind) -> np.ndarray:
    """Bell-state density matrix embedded in the 9-dimensional pair space."""
    v = np.zeros(PAIR_DIM, dtype=complex)
    if kind is BellKind.PSI:
        v[0] = v[8] = 1.0 / math.sqrt(2.0)
    else:
        v[2] = v[6] = 1.0 / math.sqrt(2.0)
    return np.outer(v, v.conj())


def product_state(ket_a: int = 0, ket_b: int = 0) -> np.ndarray:
    """Separable |ket_a>_A |ket_b>_B pair state (levels zero-based)."""
    v = np.zeros(PAIR_DIM, dtype=complex)
    v[3 * ket_a + ket_b] = 1.0
    return np.outer(v, v.conj())


def apply_pair_channel(channel_a: np.ndarray, channel_b: np.ndarray,
                       rho_pair: np.ndarray) -> np.ndarray:
    """Act with Lambda_A ox Lambda_B on a 9x9 pair matrix.

    The pair matrix reshapes to T[i, k, j, l] = rho[3i+k, 3j+l]; each
    channel is a 9x9 map on its atom's (row, column) index pair.
    """
    a4 = np.asarray(channel_a, dtype=complex).reshape(3, 3, 3, 3)
    b4 = np.asarray(channel_b, dtype=complex).reshape(3, 3, 3, 3)
    r4 = np.asarray(rho_pair, dtype=complex).reshape(3, 3, 3, 3)
    out = np.einsum("ijmn,klpq,mpnq->ikjl", a4, b4, r4)
    return hermitize(out.reshape(PAIR_DIM, PAIR_DIM))


def evolve_pair(params_a: VParams, params_b: VParams,
                rho0: np.ndarray, t: float) -> np.ndarray:
    """Factorized evolution of the pair for time t."""
    channel_a = propagate_channel(params_a, t)
    channel_b = channel_a if params_b == params_a else propagate_channel(params_b, t)
    return apply_pair_channel(channel_a, channel_b, rho0)


def steady_pair(params_a: VParams, params_b: VParams, rho0: np.ndarray) -> np.ndarray:
    """Long-time limit of the factorized pair evolution."""
    chan_a = steady_channel(params_a)
    chan_b = chan_a if params_b == params_a else steady_channel(params_b)
    return apply_pair_channel(chan_a, chan_b, rho0)


def qubit_block(rho_pair: np.ndarray) -> np.ndarray:
    """Unnormalized 4x4 block over levels {|1>, |3>} of each atom."""
    idx = np.array(QUBIT_BLOCK)
    return np.asarray(rho_pair, dtype=complex)[np.ix_(idx, idx)].copy()


def project_to_qubits(rho_pair: np.ndarray, min_trace: float = 1e-14) -> TwoQubitState:
    """Compress to the qubit subspace and renormalize.

    Raises ZeroTrace when the state lies entirely outside the projected
    block.
    """
    block = qubit_block(rho_pair)
    trace = float(np.trace(block).real)
    if trace < min_trace:
        raise ZeroTrace(f"projected trace {trace:.3e} below {min_trace:.1e}")
    return TwoQubitState(rho=block / trace, pre_norm_trace=trace)


def published_pair_elements(params: VParams, kind: BellKind, t: float) -> dict[str, float]:
    """Published closed-form matrix elements of the projected pair state.

    Values are unnormalized (the printed forms are divided by the
    projected trace only at readout). For the doubly-excited Bell state
    the published elements are rho11, rho22 = rho33 and rho14; for the
    single-excitation Bell state only rho23 is given. rho44 is never
    printed and always comes from the evolution. Transcription-faithful:
    known internal inconsistencies of the printed forms (the rho11
    normalization at t = 0, the rho22 long-time limit away from eta = 1)
    are reproduced as printed and surfaced by the compare tooling.
    """
    eta2 = params.eta**2
    x = math.exp(-params.bright_rate * t)
    if kind is BellKind.PSI:
        pref = 1.0 / (8.0 * (1.0 + eta2))
        rho11 = pref * (
            eta2**2
            + x**4
            + 2.0 * (1.0 + eta2) * x**3
            + (1.0 + eta2**2 + 4.0 * eta2) * x**2
            + 2.0 * eta2 * (1.0 + eta2) * x
        )
        rho22 = pref * (
            eta2 - x**4 - (1.0 + eta2) * x**3 + (1.0 - eta2) * x**2 + (1.0 + eta2) * x
        )
        rho14 = (eta2 + x) ** 2 / (2.0 * (1.0 + eta2) ** 2)
        return {"rho11": rho11, "rho22": rho22, "rho33": rho22, "rho14": rho14}
    rho23 = (eta2 + x) ** 2 / (2.0 * (1.0 + eta2) ** 2)
    return {"rho23": rho23}
