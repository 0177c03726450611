"""Property tests of the single-atom channel and the concurrence over the domain.

Draws cover eta in [0, 5], p with mass at 0, just below 1 and at 1,
detuned transition frequencies, and times up to 20. The profiles are
derandomized and bounded, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from vicsim.bipartite import BellKind, bell_state, evolve_pair, project_to_qubits
from vicsim.entanglement import concurrence_wootters, concurrence_x
from vicsim.vsystem import VParams, propagate_channel

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)

_P = st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, 1.0]), st.floats(0.0, 1.0))
_OMEGA = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
_TIME = st.floats(0.0, 20.0)
_PARAMS = st.builds(VParams, gamma=st.floats(0.5, 2.0), eta=st.floats(0.0, 5.0), p=_P,
                    omega1=_OMEGA, omega2=_OMEGA)


@PROFILE
@given(params=_PARAMS, t=_TIME, s=_TIME)
def test_channel_composition_law(params, t, s):
    composed = propagate_channel(params, t) @ propagate_channel(params, s)
    assert np.max(np.abs(propagate_channel(params, t + s) - composed)) <= 1e-12


def _choi(channel):
    """sum_ij |i><j| ox Lambda(|i><j|) for a row-major vectorized 3-level channel."""
    return channel.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)


@PROFILE
@given(params=_PARAMS, t=_TIME)
def test_channel_trace_preserving_and_completely_positive(params, t):
    channel = propagate_channel(params, t)
    # tr Lambda(rho) = tr rho: the diagonal rows sum to vec(1)
    trace_row = channel[[0, 4, 8], :].sum(axis=0)
    assert np.max(np.abs(trace_row - np.eye(3).reshape(-1))) <= 1e-12
    choi = _choi(channel)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


@PROFILE
@given(params=_PARAMS, kind=st.sampled_from(list(BellKind)), t=_TIME)
def test_x_concurrence_equals_wootters_on_evolved_bell_states(params, kind, t):
    rho = project_to_qubits(evolve_pair(params, params, bell_state(kind), t)).rho
    value = concurrence_x(rho)
    assert 0.0 <= value <= 1.0
    assert abs(value - concurrence_wootters(rho)) <= 1e-10
