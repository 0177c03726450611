"""Property tests of the single-atom channel and the concurrence over the domain.

Draws cover eta in [0, 5], p with mass at 0, just below 1 and at 1,
detuned transition frequencies, and times up to 20. The profiles are
derandomized and bounded, so every run checks the same examples. The
runtime is checked against the oracles of vicsim.oracles here too.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vicsim.bipartite import (
    BellKind,
    bell_state,
    bell_x_elements,
    evolve_pair,
    product_state,
    project_to_qubits,
    qubit_block,
)
from vicsim.entanglement import (
    CURVE_COLUMNS, concurrence_curve, concurrence_x, esd_time, x_branch_values,
)
from vicsim.oracles import concurrence_wootters, propagate_spectral
from vicsim.vsystem import (
    EXCITED,
    GROUND,
    UMBRELLA,
    NoConvergence,
    VParams,
    _channel_from_no_jump,
    apply_channel,
    basis_ket,
    no_jump_propagators,
    propagate_channel,
    pure_state,
    single_atom_states,
    steady_no_jump,
    steady_state,
)
from util import einsum_pair_map, random_density

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=200)
SHORT_PROFILE = settings(PROFILE, max_examples=100)  # the draws that build a curve or an oracle

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


@PROFILE
@given(params=_PARAMS, kind=st.sampled_from(list(BellKind)), t=_TIME)
@example(params=VParams(eta=0.0, p=1.0), kind=BellKind.PSI, t=3.0)
@example(params=VParams(eta=0.0, p=0.5, omega2=1.5), kind=BellKind.PHI, t=3.0)
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), kind=BellKind.PSI, t=17.0)
@example(params=VParams(eta=2.0, p=1.0 - 1e-9, omega1=0.5), kind=BellKind.PHI, t=9.0)
@example(params=VParams(eta=1.3, p=0.4, omega1=-2.0, omega2=1.0), kind=BellKind.PSI, t=0.6)
def test_bell_reader_equals_the_evolved_qubit_block(params, kind, t):
    block = qubit_block(evolve_pair(params, params, bell_state(kind), t))
    _assert_reader_is_the_block(bell_x_elements(no_jump_propagators(params, [t]), kind), block)


def _assert_reader_is_the_block(x, block):
    """The reader's one-entry elements are those of the 4x4 qubit block."""
    diagonal = np.array([x.rho11[0], x.rho22[0], x.rho33[0], x.rho44[0]])
    assert np.max(np.abs(block.diagonal() - diagonal)) <= 1e-13
    assert abs(abs(block[0, 3]) - x.rho14_abs[0]) <= 1e-13
    assert abs(abs(block[1, 2]) - x.rho23_abs[0]) <= 1e-13
    assert abs(np.trace(block).real - x.trace[0]) <= 1e-13
    # nothing else carries weight
    rest = block - np.diag(block.diagonal())
    rest[0, 3] = rest[3, 0] = rest[1, 2] = rest[2, 1] = 0.0
    assert np.max(np.abs(rest)) <= 1e-13
    # the signed concurrence is the X reader's on the normalised block
    rho = block / np.trace(block).real
    inner, outer = x_branch_values(rho)
    assert abs(x.signed_concurrence[0] - 2.0 * max(inner, outer)) <= 1e-13


def _reference_curve(params, kind, grid):
    """The oracle curve's columns, one sample at a time: the einsum pair map,
    the projection, and the concurrence after the X-form check."""
    rho0, rows = bell_state(kind), []
    for gamma_t in grid.tolist():
        chan = propagate_channel(params, gamma_t / params.gamma)
        block = qubit_block(einsum_pair_map(chan, chan, rho0))
        trace = np.trace(block).real
        rho = block / trace
        rows.append((gamma_t, concurrence_x(rho), abs(rho[0, 3]), abs(rho[1, 2]),
                     rho[1, 1].real, rho[2, 2].real, trace))
    return np.array(rows).T


@SHORT_PROFILE
@given(params=_PARAMS, kind=st.sampled_from(list(BellKind)), t_max=st.floats(0.1, 20.0),
       steps=st.integers(1, 30))
@example(params=VParams(eta=0.0, p=1.0), kind=BellKind.PSI, t_max=8.0, steps=17)
@example(params=VParams(eta=0.0, p=0.5, omega2=1.5), kind=BellKind.PHI, t_max=8.0, steps=17)
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), kind=BellKind.PSI, t_max=20.0, steps=30)
@example(params=VParams(eta=2.0, p=1.0 - 1e-9), kind=BellKind.PHI, t_max=20.0, steps=30)
@example(params=VParams(eta=1.3, p=0.0), kind=BellKind.PSI, t_max=5.0, steps=11)
@example(params=VParams(eta=1.3, p=0.0), kind=BellKind.PHI, t_max=5.0, steps=11)
@example(params=VParams(eta=1.3, p=0.4, omega1=-2.0, omega2=1.0), kind=BellKind.PSI,
         t_max=6.0, steps=25)
@example(params=VParams(eta=0.8, p=1.0, omega1=0.5), kind=BellKind.PHI, t_max=6.0, steps=25)
def test_oracle_curve_columns_equal_the_per_sample_reference(params, kind, t_max, steps):
    grid = np.linspace(0.0, t_max, steps)
    curve = concurrence_curve(params, kind, grid)
    reference = _reference_curve(params, kind, grid)
    for name, want in zip(CURVE_COLUMNS, reference):
        got = getattr(curve, name)
        assert got.dtype == float and got.shape == grid.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12, name


@PROFILE
@given(params=_PARAMS, kind=st.sampled_from(list(BellKind)))
@example(params=VParams(eta=0.0, p=0.5), kind=BellKind.PSI)
@example(params=VParams(eta=0.0, p=0.3, omega1=1.0), kind=BellKind.PHI)
@example(params=VParams(eta=0.0, p=0.3, omega2=1.5), kind=BellKind.PSI)  # no limit
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), kind=BellKind.PSI)
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), kind=BellKind.PHI)
@example(params=VParams(eta=1.3, p=1.0), kind=BellKind.PSI)
@example(params=VParams(eta=1.3, p=1.0), kind=BellKind.PHI)
@example(params=VParams(eta=1e100, p=1.0), kind=BellKind.PSI)
@example(params=VParams(eta=1e100, p=1.0), kind=BellKind.PHI)
def test_bell_reader_at_infinity_equals_the_steady_qubit_block(params, kind):
    try:
        block = qubit_block(evolve_pair(params, params, bell_state(kind), math.inf))
    except NoConvergence:
        # both routes refuse a decay-free level that keeps rotating
        with pytest.raises(NoConvergence):
            steady_no_jump(params)
        return
    _assert_reader_is_the_block(bell_x_elements(steady_no_jump(params)[None], kind), block)


@PROFILE
@given(params=_PARAMS)
@example(params=VParams(eta=0.0, p=0.3, omega2=1.5))  # no limit
@example(params=VParams(eta=0.7, p=1.0, omega1=0.4, omega2=0.4))  # no limit
@example(params=VParams(eta=0.7, p=1.0 - 1e-9))
@example(params=VParams(eta=1e100, p=1.0))
def test_the_propagators_take_t_infinity_as_the_limit(params):
    try:
        want = steady_no_jump(params)
    except NoConvergence:
        with pytest.raises(NoConvergence):
            propagate_channel(params, math.inf)
        with pytest.raises(NoConvergence):
            no_jump_propagators(params, [0.0, 1.0, math.inf])
        return
    assert np.array_equal(propagate_channel(params, math.inf), _channel_from_no_jump(want))
    assert np.array_equal(no_jump_propagators(params, [0.0, 1.0, math.inf])[2], want)


def _outcome(call, *args, **kwargs):
    """What ``call`` returns, or the repr of the error it raises."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return repr(exc)


@settings(SHORT_PROFILE, max_examples=40)  # a product start scans 1001 evolved samples
@given(params=_PARAMS, start=st.sampled_from([BellKind.PSI, BellKind.PHI, "product"]),
       p1=st.booleans())
@example(params=VParams(gamma=0.5, eta=0.0, p=0.3, omega2=1.5), start="product", p1=False)
@example(params=VParams(gamma=2.0, eta=0.7, p=1.0, omega1=0.4, omega2=0.4), start=BellKind.PSI,
         p1=True)
def test_curve_and_esd_read_gamma_t_in_units_of_gamma(params, start, p1):
    if p1:  # where the published forms apply too
        params = VParams(params.gamma, params.eta, 1.0, params.omega1, params.omega2)
    unit = VParams(eta=params.eta, p=params.p, omega1=params.omega1 / params.gamma,
                   omega2=params.omega2 / params.gamma)
    # the published forms apply at p = 1 and omega1 = omega2, and cover only the Bell starts
    published = params.p == 1.0 and params.omega1 == params.omega2 and start != "product"
    methods = ("oracle", "paper") if published else ("oracle",)
    if start == "product":
        start = product_state(0, 0)
    else:
        grid = np.linspace(0.0, 8.0, 9)
        for method in methods:
            got, want = (concurrence_curve(atom, start, grid, method) for atom in (params, unit))
            for name in CURVE_COLUMNS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (method, name)
    for method in methods:
        assert _outcome(esd_time, params, start, method=method) == _outcome(
            esd_time, unit, start, method=method), method


_SEED = st.integers(0, 2**32 - 1)


@SHORT_PROFILE
@given(params=_PARAMS, t=_TIME, seed=_SEED)
# a triangular Liouvillian with a subnormal frequency (scipy issue 11839)
@example(params=VParams(eta=0.0, p=0.0, omega2=5e-324), t=2.0, seed=0)
def test_closed_form_equals_exponentiated_liouvillian(params, t, seed):
    rho0 = random_density(np.random.default_rng(seed), 3)
    closed = apply_channel(propagate_channel(params, t), rho0)
    assert np.max(np.abs(closed - propagate_spectral(params, rho0, t))) <= 1e-12


@PROFILE
@given(params=_PARAMS, t=_TIME, seed=_SEED)
@example(params=VParams(eta=0.0, p=0.5), t=3.0, seed=0)
@example(params=VParams(eta=1e-9, p=1.0), t=7.0, seed=1)
@example(params=VParams(eta=1.3, p=0.0), t=2.0, seed=2)
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), t=17.0, seed=3)
@example(params=VParams(eta=1.3, p=0.4, omega1=-2.0, omega2=1.0), t=0.6, seed=4)
def test_single_atom_reader_equals_the_channel(params, t, seed):
    rho0 = random_density(np.random.default_rng(seed), 3)
    times = [0.0, t / 3.0, t]
    states = single_atom_states(no_jump_propagators(params, times), rho0)
    assert states.shape == (3, 3, 3)
    for rho, s in zip(states, times):
        assert np.array_equal(rho, rho.conj().T)
        assert np.max(np.abs(rho - apply_channel(propagate_channel(params, s), rho0))) <= 1e-13


def _steady_starts(rng):
    """A random state, then pure states with and without coherence between
    each excited level and the ground level."""
    kets = (basis_ket(EXCITED), basis_ket(UMBRELLA) + basis_ket(GROUND),
            basis_ket(EXCITED) + basis_ket(GROUND), basis_ket(GROUND))
    return [random_density(rng, 3)] + [pure_state(ket) for ket in kets]


@PROFILE
@given(params=_PARAMS, seed=_SEED)
@example(params=VParams(eta=0.0, p=0.3, omega2=1.5), seed=0)  # the umbrella level keeps rotating
@example(params=VParams(eta=0.0, p=0.3, omega1=1.0), seed=1)
@example(params=VParams(eta=0.7, p=1.0, omega1=0.4, omega2=0.4), seed=2)
@example(params=VParams(eta=0.7, p=1.0 - 1e-9), seed=3)
@example(params=VParams(eta=1e100, p=1.0), seed=4)
def test_steady_state_is_the_steady_channel(params, seed):
    for rho0 in _steady_starts(np.random.default_rng(seed)):
        try:
            want = apply_channel(_channel_from_no_jump(steady_no_jump(params, rho0)), rho0)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                steady_state(params, rho0)
            continue
        assert np.max(np.abs(steady_state(params, rho0) - want)) <= 1e-15


def _decay_rates(params):
    """Decay rates of the excited amplitudes, slow first, as exact-input decimals.

    They are the real parts of the eigenvalues T +- sqrt(D) of
    A = Gamma + i diag(omega), with Gamma formed from eta and gamma
    without rounding. Double precision would lose a slow rate below ~1e-16
    of |A| to cancellation, or to an underflowing eta^2 gamma; 800 digits
    keep every rate of the draws.
    """
    with localcontext() as ctx:
        ctx.prec = 800
        gamma, eta, p, w1, w2 = (Decimal(v) for v in (
            params.gamma, params.eta, params.p, params.omega1, params.omega2))
        g1, g2, g12 = gamma, eta * eta * gamma, p * eta * gamma
        a, b = (g1 - g2) / 2, (w1 - w2) / 2
        d_re, d_im = a * a - b * b + g12 * g12, 2 * a * b
        modulus = (d_re * d_re + d_im * d_im).sqrt()
        root_re = ((modulus + d_re) / 2).sqrt()
        mid = (g1 + g2) / 2
        return mid - root_re, mid + root_re


@SHORT_PROFILE
@given(params=_PARAMS, seed=_SEED)
def test_steady_state_is_the_long_time_channel(params, seed):
    rho0 = random_density(np.random.default_rng(seed), 3)
    try:
        limit = steady_state(params, rho0)
    except NoConvergence:
        assume(False)
    slow, fast = _decay_rates(params)
    # a decay-free direction survives exactly where the limit keeps one
    decay_free = params.eta * (1.0 - params.p) == 0.0 and (
        params.eta == 0.0 or params.omega1 == params.omega2)
    t = float(33 / (fast if decay_free else slow))  # amplitudes below exp(-33) ~ 5e-15
    assume(math.isfinite(t))
    late = apply_channel(propagate_channel(params, t), rho0)
    assert np.max(np.abs(late - limit)) <= 1e-12


@SHORT_PROFILE
@given(params=_PARAMS, kind=st.sampled_from(list(BellKind)), t_max=st.floats(0.1, 20.0))
def test_pre_norm_trace_never_increases_while_the_umbrella_fills(params, kind, t_max):
    curve = concurrence_curve(params, kind, np.linspace(0.0, t_max, 21))
    trace = curve.pre_norm_trace
    assert trace.min() > 0.0 and trace.max() <= 1.0 + 1e-15
    # The trace is the weight off the umbrella levels. That weight only
    # grows without cross-damping (none enters) and under maximal
    # interference with equal frequencies (the dark state holds it).
    if params.gamma12 == 0.0 or (params.p == 1.0 and params.omega1 == params.omega2):
        assert np.diff(trace).max() <= 1e-15


def test_pre_norm_trace_recovers_below_maximal_interference():
    # at 0 < p < 1 the umbrella level fills, then empties into the ground level
    curve = concurrence_curve(VParams(eta=1.0, p=0.5), BellKind.PSI, np.linspace(0.0, 20.0, 81))
    trace = curve.pre_norm_trace
    assert min(trace) < 0.97 and trace[-1] > 0.999
