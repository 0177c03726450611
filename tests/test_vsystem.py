import itertools
import math

import numpy as np
import pytest

from vicsim.bipartite import published_pair_elements
from vicsim.oracles import (
    StepTooLarge,
    build_liouvillian,
    default_step,
    propagate_rk4,
    propagate_spectral,
    rk4_evolve,
)
from vicsim.vsystem import (
    UMBRELLA,
    NoConvergence,
    VParams,
    _no_jump_propagator,
    alpha_beta,
    apply_channel,
    basis_ket,
    dark_vector,
    excited_state,
    ground_state,
    no_jump_propagators,
    propagate_channel,
    published_single_atom,
    pure_state,
    steady_state,
    superposition_state,
)
from util import max_abs, random_density


def mixed_full_support():
    """Deterministic state with weight on every level and coherence."""
    ket = np.array([0.6, 0.5 * np.exp(0.3j), 0.4 * np.exp(-0.7j)])
    psi = np.outer(ket, ket.conj())
    psi /= np.trace(psi).real
    rho = 0.7 * psi + 0.3 * np.diag([0.2, 0.3, 0.5])
    return rho.astype(complex)


# ---------------------------------------------------------------- parameters

def test_vparams_validation():
    with pytest.raises(ValueError):
        VParams(gamma=0.0)
    with pytest.raises(ValueError):
        VParams(eta=-0.1)
    with pytest.raises(ValueError):
        VParams(p=1.5)
    for bad in ({"gamma": math.inf}, {"gamma": math.nan}, {"eta": math.inf},
                {"eta": math.nan}, {"p": math.nan}, {"eta": 1e200},
                {"omega1": math.nan}, {"omega1": math.inf}, {"omega2": -math.inf}):
        with pytest.raises(ValueError):
            VParams(**bad)


def test_derived_rates_and_complete_positivity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        params = VParams(gamma=rng.random() + 0.1, eta=2 * rng.random(), p=rng.random())
        assert params.gamma1 == params.gamma
        assert params.gamma2 == pytest.approx(params.eta**2 * params.gamma)
        assert params.gamma12 == pytest.approx(params.p * params.eta * params.gamma)
        assert params.gamma12**2 <= params.gamma1 * params.gamma2 + 1e-15


# ---------------------------------------------------------------- Liouvillian

def test_ground_state_stationary():
    liou = build_liouvillian(VParams(eta=1.3, p=1.0))
    assert max_abs(liou @ ground_state().reshape(-1)) <= 1e-14


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_excited_population_rate_is_interference_independent(p):
    # d rho11 / dt = -2 gamma rho11 from |1><1|, regardless of p
    params = VParams(gamma=1.0, eta=1.2, p=p)
    deriv = build_liouvillian(params) @ excited_state().reshape(-1)
    assert abs(deriv[0] - (-2.0 * params.gamma)) <= 1e-12


def test_trace_functional_is_left_null_vector():
    trace_row = np.zeros(9)
    trace_row[[0, 4, 8]] = 1.0
    for p in (0.0, 0.7, 1.0):
        liou = build_liouvillian(VParams(eta=0.8, p=p, omega1=0.4, omega2=0.1))
        assert max_abs(trace_row @ liou) <= 1e-14


def test_liouvillian_matches_propagator_derivative():
    # central difference of expm(L dt) recovers L column by column
    from vicsim.oracles import expm

    liou = build_liouvillian(VParams(eta=1.0, p=1.0))
    dt = 1e-6
    assert max_abs((expm(liou * dt) - expm(-liou * dt)) / (2 * dt) - liou) <= 1e-8


# ---------------------------------------------------------------- propagators

def test_rk4_zero_time_is_identity():
    rho0 = mixed_full_support()
    assert np.array_equal(propagate_rk4(VParams(), rho0, 0.0), rho0)


def test_rk4_ground_stationary():
    out = propagate_rk4(VParams(eta=1.4, p=1.0), ground_state(), 2.5)
    assert max_abs(out - ground_state()) <= 1e-12


def test_rk4_matches_channel_closed_form():
    params = VParams(eta=1.0, p=1.0)
    out = propagate_rk4(params, excited_state(), 1.0)
    ref = apply_channel(propagate_channel(params, 1.0), excited_state())
    assert max_abs(out - ref) <= 1e-8


def test_rk4_power_matches_stepwise_loop():
    # P^n by repeated squaring against n explicit RK4 stages, same h = t/n
    params = VParams(eta=1.3, p=0.6)
    liou = build_liouvillian(params)
    rho0 = mixed_full_support()
    t, dt = 2.0, default_step(params)
    steps = math.ceil(t / dt)
    h = t / steps
    x = rho0.reshape(-1)
    for _ in range(steps):
        k1 = liou @ x
        k2 = liou @ (x + 0.5 * h * k1)
        k3 = liou @ (x + 0.5 * h * k2)
        k4 = liou @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert max_abs(rk4_evolve(liou, rho0, t, dt) - x.reshape(3, 3)) <= 1e-12


def test_rk4_step_guard():
    with pytest.raises(StepTooLarge):
        rk4_evolve(build_liouvillian(VParams()), excited_state(), 1.0, 10.0)


def test_spectral_zero_time():
    rho0 = mixed_full_support()
    assert max_abs(propagate_spectral(VParams(), rho0, 0.0) - rho0) <= 1e-14


def test_spectral_no_interference_decay():
    # pure amplitude decay: rho11(t) = exp(-2 gamma t)
    out = propagate_spectral(VParams(eta=1.0, p=0.0), excited_state(), 1.0)
    assert abs(out[0, 0].real - math.exp(-2.0)) <= 1e-12


def test_spectral_superposition_coherence():
    # rho13(t) = (1 + exp(-2 gamma t)) / 4 at eta = 1, maximal interference
    out = propagate_spectral(VParams(eta=1.0, p=1.0), superposition_state(), 1.0)
    assert abs(out[0, 2] - (1.0 + math.exp(-2.0)) / 4.0) <= 1e-12


def test_channel_zero_time_is_identity():
    assert max_abs(propagate_channel(VParams(eta=0.7, p=1.0), 0.0) - np.eye(9)) <= 1e-12


@pytest.mark.parametrize("eta", [0.5, 1.0, math.sqrt(2.0), 2.0])
def test_channel_long_time_trapping(eta):
    # trapped excited population eta^4/(1+eta^2)^2, cross-checked by RK4
    params = VParams(eta=eta, p=1.0)
    expected = eta**4 / (1.0 + eta**2) ** 2
    chan = apply_channel(propagate_channel(params, 50.0 / params.gamma), excited_state())
    assert abs(chan[0, 0].real - expected) <= 1e-10
    rk4 = propagate_rk4(params, excited_state(), 50.0)
    assert abs(rk4[0, 0].real - expected) <= 1e-8


def test_channel_coherence_retention_coefficient():
    # rho13 scales by (eta^2 + exp(-Gamma t)) / (1 + eta^2)
    eta = 1.7
    params = VParams(eta=eta, p=1.0)
    t = 0.8
    coef = (eta**2 + math.exp(-params.bright_rate * t)) / (1.0 + eta**2)
    out = apply_channel(propagate_channel(params, t), superposition_state())
    assert abs(out[0, 2] - 0.5 * coef) <= 1e-12


def test_channel_fallback_matches_spectral():
    # the no-jump closed form against the exponentiated Liouvillian, over
    # partial and maximal interference, eta = 0 and detuned levels
    rho0 = mixed_full_support()
    for p in (0.0, 0.3, 1.0 - 1e-9, 1.0):
        for eta in (0.0, 0.9, 2.5):
            for omega1, omega2 in ((0.0, 0.0), (0.7, -0.4)):
                params = VParams(eta=eta, p=p, omega1=omega1, omega2=omega2)
                out = apply_channel(propagate_channel(params, 1.2), rho0)
                assert max_abs(out - propagate_spectral(params, rho0, 1.2)) <= 1e-12


def test_channel_keeps_slow_rate_just_below_full_interference():
    # at p = 1 - 1e-9 the slow excited direction decays at a rate ~1e-9,
    # which a difference of the O(1) rates would lose to rounding; its
    # population after gamma*t = 1e9 is exp(-2 * rate * gamma*t)
    params = VParams(eta=2.0, p=1.0 - 1e-9)
    gamma_mat = np.array([[params.gamma1, params.gamma12], [params.gamma12, params.gamma2]])
    tr = params.gamma1 + params.gamma2
    det = params.gamma1 * params.gamma2 * (1.0 - params.p) * (1.0 + params.p)
    rate = 2.0 * det / (tr + math.sqrt(tr * tr - 4.0 * det))  # smaller root, no cancellation
    slow = np.linalg.eigh(gamma_mat)[1][:, 0]
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[:2, :2] = np.outer(slow, slow)
    rho = apply_channel(propagate_channel(params, 1e9), rho0)
    expected = math.exp(-2.0 * rate * 1e9)
    assert abs((slow @ rho[:2, :2] @ slow).real - expected) <= 1e-10 * expected


def test_channel_at_exceptional_point_matches_spectral():
    # eta = 1 and |omega1 - omega2| = 2 gamma_12 make H_eff defective; the
    # 2x2 exponential takes its series branch there and just beside it
    rho0 = mixed_full_support()
    for omega1 in (0.5, 0.5 + 1e-6, 0.55):
        params = VParams(eta=1.0, p=0.5, omega1=omega1, omega2=-0.5)
        for t in (0.3, 2.0):
            out = apply_channel(propagate_channel(params, t), rho0)
            assert max_abs(out - propagate_spectral(params, rho0, t)) <= 1e-12


@pytest.mark.parametrize("eta, t", [(1e-6, 1e11), (1e-8, 1e16), (1e-77, 33.0 / 1e-77**2)])
def test_detuned_umbrella_keeps_its_slow_rate_at_long_times(eta, t):
    # without cross-damping the umbrella population decays as exp(-2 eta^2 gamma t)
    # whatever the detuning; a slow rate formed as a difference of the O(1)
    # exponents loses it once t |H_eff| is large (or overflows delta^2)
    params = VParams(eta=eta, p=0.0, omega2=1.0)
    rho = apply_channel(propagate_channel(params, t), pure_state(basis_ket(UMBRELLA)))
    expected = math.exp(-2.0 * eta * eta * t)
    assert abs(rho[UMBRELLA, UMBRELLA].real - expected) <= 1e-12 * expected


@pytest.mark.parametrize("params, t", [
    (VParams(gamma=1.0, eta=1e-100, p=0.5, omega1=1e300, omega2=-1e300), 1e12),
    (VParams(eta=0.0, p=0.5, omega2=1e10), 1e300),
    (VParams(eta=1.0, p=0.0, omega1=1e308, omega2=1e308), 10.0),  # the series branch
])
def test_overflowing_phase_is_named(params, t):
    # a level phase omega * t beyond the largest float has no finite exp
    with pytest.raises(ValueError, match=r"phase \(mean frequency.* overflows a float at t = "):
        propagate_channel(params, t)


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_a_negative_or_nan_time_is_rejected(t):
    params = VParams(eta=0.7, p=0.5)
    with pytest.raises(ValueError, match=rf"^t must be non-negative, got {t}$"):
        propagate_channel(params, t)
    with pytest.raises(ValueError, match=rf"^t must be non-negative, got {t}$"):
        no_jump_propagators(params, [0.0, math.inf, t])


def test_in_units_of_gamma_divides_the_frequencies_by_gamma():
    params = VParams(gamma=4.0, eta=0.7, p=0.5, omega1=2.0, omega2=-1.0)
    assert params.in_units_of_gamma() == VParams(eta=0.7, p=0.5, omega1=0.5, omega2=-0.25)
    with pytest.raises(ValueError, match="^omega1 and omega2 must be finite, got inf, 0.0$"):
        VParams(gamma=1e-300, omega1=1e10).in_units_of_gamma()


def _equal_frequency_reference(params, t):
    """U(t) for omega1 == omega2 from the eigensystem of the real symmetric Gamma.

    U = exp(-i omega t) exp(-Gamma t); the slow rate is det(Gamma) / fast
    with det(Gamma) = gamma^2 eta^2 (1 - p)(1 + p).
    """
    g1, g2, g12, p = params.gamma1, params.gamma2, params.gamma12, params.p
    half_gap = 0.5 * (g1 - g2)
    fast = 0.5 * (g1 + g2) + math.hypot(half_gap, g12)
    slow = g2 * (1.0 - p) * (1.0 + p) * (g1 / fast)
    theta = 0.5 * math.atan2(g12, half_gap)  # (cos, sin) is the fast direction
    c, s = math.cos(theta), math.sin(theta)
    xf, xs = math.exp(-fast * t), math.exp(-slow * t)
    off = c * s * (xf - xs)
    u = np.array([[c * c * xf + s * s * xs, off], [off, s * s * xf + c * c * xs]], dtype=complex)
    return u * np.exp(-1j * params.omega1 * t)


def test_no_jump_propagator_matches_the_equal_frequency_eigensystem():
    grid = itertools.product(
        (0.0, 1e-8, 0.3, 1.0 / math.sqrt(3.0), 1.0, 5.0, 1e3),  # eta
        (0.0, 0.5, 1.0 - 1e-9, 1.0 - 1e-15, 1.0),  # p
        (0.0, 0.7),  # omega1 = omega2
        (0.5, 1.0, 2.0),  # gamma
        (0.0, 1e-3, 1.0, 30.0, 1e6, 1e12),  # t
    )
    for eta, p, omega, gamma, t in grid:
        params = VParams(gamma=gamma, eta=eta, p=p, omega1=omega, omega2=omega)
        error = max_abs(_no_jump_propagator(params, t) - _equal_frequency_reference(params, t))
        assert error <= 1e-15, (params, t)


def test_channel_agrees_with_spectral_at_full_interference():
    params = VParams(eta=1.3, p=1.0)
    chan = propagate_channel(params, 0.9)
    from vicsim.oracles import expm

    assert max_abs(chan - expm(build_liouvillian(params) * 0.9)) <= 1e-10


def test_channel_trace_preserving_and_completely_positive():
    params = VParams(eta=1.5, p=1.0)
    chan = propagate_channel(params, 0.6)
    # Choi matrix from the row-major superoperator: J[3k+i, 3l+j] = S[3i+j, 3k+l]
    choi = chan.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)
    eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
    assert eigs.min() >= -1e-10
    # partial trace over the output index gives the identity
    choi4 = choi.reshape(3, 3, 3, 3)
    assert max_abs(np.einsum("kili->kl", choi4) - np.eye(3)) <= 1e-12


# ---------------------------------------------------------------- invariants

def sample_states():
    rng = np.random.default_rng(21)
    return [excited_state(), superposition_state(), mixed_full_support(),
            random_density(rng, 3)]


@pytest.mark.parametrize("p", [0.0, 0.6, 1.0])
def test_physicality_over_time(p):
    params = VParams(eta=1.2, p=p)
    rho0 = mixed_full_support()
    for gamma_t in np.linspace(0.0, 50.0, 26):
        rho = apply_channel(propagate_channel(params, gamma_t / params.gamma), rho0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert max_abs(rho - rho.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_dark_population_conserved_at_full_interference():
    params = VParams(eta=1.6, p=1.0)
    dark = dark_vector(params.eta)
    rho0 = mixed_full_support()
    initial = (dark.conj() @ rho0 @ dark).real
    for gamma_t in np.linspace(0.0, 10.0, 11):
        rho = propagate_spectral(params, rho0, gamma_t / params.gamma)
        assert abs((dark.conj() @ rho @ dark).real - initial) <= 1e-10


def test_no_interference_keeps_umbrella_empty():
    # with rho22(0) = rho12(0) = 0 and p = 0 the umbrella level never populates
    params = VParams(eta=1.0, p=0.0)
    for gamma_t in np.linspace(0.0, 10.0, 21):
        rho = propagate_spectral(params, superposition_state(), gamma_t / params.gamma)
        assert abs(rho[1, 1]) <= 1e-12
        expected = 0.5 * math.exp(-2.0 * gamma_t)
        assert abs(rho[0, 0].real - expected) <= 1e-10


def test_eta_zero_reduces_to_two_level_amplitude_damping():
    params = VParams(eta=0.0, p=1.0, omega1=0.5, omega2=0.5)
    rho0 = mixed_full_support()
    for t in (0.3, 1.0, 4.0):
        rho = propagate_spectral(params, rho0, t)
        decay = math.exp(-params.gamma * t)
        assert abs(rho[0, 0] - rho0[0, 0] * decay**2) <= 1e-10
        expected13 = rho0[0, 2] * decay * np.exp(-1j * params.omega1 * t)
        assert abs(rho[0, 2] - expected13) <= 1e-10


def test_detuned_hamiltonian_rotates_coherences():
    # nonzero frequencies exercise the commutator term
    params = VParams(eta=1.0, p=0.0, omega1=2.0, omega2=0.5)
    rho0 = mixed_full_support()
    t = 0.7
    rho = propagate_spectral(params, rho0, t)
    expected13 = rho0[0, 2] * math.exp(-params.gamma * t) * np.exp(-1j * params.omega1 * t)
    assert abs(rho[0, 2] - expected13) <= 1e-12
    rk4 = propagate_rk4(params, rho0, t)
    assert max_abs(rho - rk4) <= 1e-8


def test_oracle_triangle_quick():
    # pairwise agreement of the three propagators on one generic case
    params = VParams(eta=1.3, p=1.0)
    rho0 = mixed_full_support()
    t = 2.0
    rk4 = propagate_rk4(params, rho0, t)
    spec = propagate_spectral(params, rho0, t)
    chan = apply_channel(propagate_channel(params, t), rho0)
    assert max_abs(rk4 - spec) <= 1e-8
    assert max_abs(rk4 - chan) <= 1e-8
    assert max_abs(spec - chan) <= 1e-10
    assert abs(np.trace(rk4).real - 1.0) <= 1e-10  # integrator trace drift


# ---------------------------------------------------------------- closed forms

def test_alpha_beta_sum_rule():
    for rho0 in sample_states():
        al, be = alpha_beta(rho0)
        assert abs((al + be) - (rho0[0, 0] + rho0[1, 1]).real) <= 1e-12


def test_published_trapped_population_at_unit_eta():
    params = VParams(eta=1.0, p=1.0)
    pub = published_single_atom(params, excited_state(), 1e6)
    assert abs(pub.rho11 - 0.25) <= 1e-12
    assert abs(published_single_atom(params, excited_state(), math.inf).rho11 - 0.25) <= 1e-15


def test_published_reproduces_initial_value_at_unit_eta():
    params = VParams(eta=1.0, p=1.0)
    for rho0 in sample_states():
        pub = published_single_atom(params, rho0, 0.0)
        assert abs(pub.rho11 - rho0[0, 0].real) <= 1e-12
        assert abs(pub.rho33 - rho0[2, 2].real) <= 1e-12
        assert abs(pub.rho13 - rho0[0, 2]) <= 1e-12


def test_published_agrees_with_oracle_at_unit_eta():
    # real rho12 keeps alpha/beta faithful; agreement holds on [0, 10]
    params = VParams(eta=1.0, p=1.0)
    rng = np.random.default_rng(31)
    rho0 = random_density(rng, 3)
    rho0[0, 1] = rho0[1, 0] = rho0[0, 1].real  # force real excited coherence
    rho0 /= np.trace(rho0).real
    for gamma_t in np.linspace(0.0, 10.0, 21):
        rho = propagate_spectral(params, rho0, gamma_t)
        pub = published_single_atom(params, rho0, gamma_t)
        assert abs(pub.rho11 - rho[0, 0].real) <= 1e-8
        assert abs(pub.rho33 - rho[2, 2].real) <= 1e-8
        assert abs(pub.rho13 - rho[0, 2]) <= 1e-8


def test_published_single_atom_takes_an_array_of_times():
    params = VParams(eta=0.7, p=1.0)
    times = np.linspace(0.0, 12.0, 37)
    for rho0 in sample_states():
        batched = published_single_atom(params, rho0, times)
        for i, t in enumerate(times):
            alone = published_single_atom(params, rho0, t)
            for field in ("rho11", "rho33", "rho13"):
                assert getattr(batched, field)[i] == getattr(alone, field), (field, t)


# negative, overflowing and NaN times, alone and inside an array
BAD_TIMES = [-1.0, -1000.0, math.nan, np.array([0.0, 2.0, -1.0]), np.array([1.0, math.nan])]


@pytest.mark.parametrize("t", BAD_TIMES, ids=["-1", "-1000", "nan", "array-1", "array-nan"])
def test_published_forms_take_only_non_negative_times(t):
    # as every propagator does (see test_a_negative_or_nan_time_is_rejected)
    forms = [lambda: published_single_atom(VParams(), excited_state(), t),
             lambda: published_pair_elements(VParams(), "psi", t),
             lambda: published_pair_elements(VParams(), "phi", t)]
    for form in forms:
        with pytest.raises(ValueError, match="t must be non-negative, got "):
            form()


def test_published_single_atom_is_finite_where_twice_eta_squared_overflows():
    # eta^2 = 1e308 is a float, 2 eta^2 is not
    params = VParams(eta=1e154, p=1.0)
    for rho0 in sample_states():
        pub = published_single_atom(params, rho0, np.array([0.0, 1e-300, 1.0]))
        for field in pub:
            assert np.isfinite(field).all()
    # once everything bright has decayed, the printed rho11 is beta
    pub = published_single_atom(params, excited_state(), 1.0)
    assert abs(pub.rho11 - 0.5) <= 1e-15


def test_published_long_time_deviation_reported_not_hidden():
    # away from eta = 1 the printed limit differs from the generator's:
    # published 1/3 vs oracle 4/9 at eta = sqrt(2)
    params = VParams(eta=math.sqrt(2.0), p=1.0)
    published = published_single_atom(params, excited_state(), math.inf).rho11
    oracle = steady_state(params, excited_state())[0, 0].real
    assert abs(published - 1.0 / 3.0) <= 1e-12
    assert abs(oracle - 4.0 / 9.0) <= 1e-12
    assert abs(published - oracle) == pytest.approx(1.0 / 9.0, abs=1e-12)


# ---------------------------------------------------------------- steady state

def test_steady_state_no_interference_decays_to_ground():
    out = steady_state(VParams(eta=1.0, p=0.0), excited_state())
    assert max_abs(out - ground_state()) <= 1e-12


def test_steady_state_dark_projection():
    out = steady_state(VParams(eta=1.0, p=1.0), excited_state())
    expected = np.array(
        [[0.25, -0.25, 0.0], [-0.25, 0.25, 0.0], [0.0, 0.0, 0.5]], dtype=complex
    )
    assert max_abs(out - expected) <= 1e-12
    # cross-check against long-time RK4 integration
    rk4 = propagate_rk4(VParams(eta=1.0, p=1.0), excited_state(), 50.0)
    assert max_abs(out - rk4) <= 1e-8


def test_steady_state_ground_fixed():
    out = steady_state(VParams(eta=0.8, p=1.0), ground_state())
    assert max_abs(out - ground_state()) <= 1e-14


def test_steady_state_partial_interference_matches_channel_limit():
    params = VParams(eta=1.1, p=0.4)
    out = steady_state(params, mixed_full_support())
    assert max_abs(out - ground_state()) <= 1e-10


def test_steady_state_detuned_full_interference_matches_long_time_evolution():
    # detuning couples the dark superposition to the bright one, so at
    # p = 1 nothing survives: the limit is the ground level
    params = VParams(eta=1.0, p=1.0, omega1=0.5, omega2=-0.5)
    rho0 = mixed_full_support()
    out = steady_state(params, rho0)
    assert max_abs(out - propagate_spectral(params, rho0, 300.0)) <= 1e-12
    assert max_abs(out - ground_state()) <= 1e-12


def test_steady_state_no_convergence_for_undamped_rotation():
    # eta = 0 leaves the umbrella-ground coherence undamped; a detuned
    # frequency keeps it rotating forever
    params = VParams(eta=0.0, p=0.5, omega2=0.3)
    ket = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    rho0 = np.outer(ket, ket)
    with pytest.raises(NoConvergence):
        steady_state(params, rho0)
