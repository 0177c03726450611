import math

import numpy as np
import pytest

from vicsim.bipartite import (
    BellKind,
    ZeroTrace,
    apply_pair_channel,
    bell_state,
    evolve_pair,
    product_state,
    project_to_qubits,
    published_pair_elements,
    qubit_block,
)
from vicsim.oracles import evolve_pair_joint, joint_liouvillian, rk4_evolve
from vicsim.vsystem import VParams, hermitize, propagate_channel
from util import einsum_pair_map, max_abs, random_density


def test_bell_psi_pattern():
    rho = bell_state(BellKind.PSI)
    expected = np.zeros((9, 9), dtype=complex)
    for i in (0, 8):
        for j in (0, 8):
            expected[i, j] = 0.5
    assert max_abs(rho - expected) <= 1e-15


def test_bell_phi_pattern():
    rho = bell_state(BellKind.PHI)
    expected = np.zeros((9, 9), dtype=complex)
    for i in (2, 6):
        for j in (2, 6):
            expected[i, j] = 0.5
    assert max_abs(rho - expected) <= 1e-15


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_bell_is_normalized_and_pure(kind):
    rho = bell_state(kind)
    assert abs(np.trace(rho) - 1.0) <= 1e-15
    assert abs(np.trace(rho @ rho) - 1.0) <= 1e-15


@pytest.mark.parametrize("levels", [(-1, 0), (0, 3), (3, 0)], ids=repr)
def test_product_state_rejects_levels_outside_the_atom(levels):
    bad = next(level for level in levels if level not in (0, 1, 2))
    with pytest.raises(ValueError, match=f"level must be 0, 1 or 2, got {bad}"):
        product_state(*levels)


def test_evolve_zero_time():
    params = VParams(eta=1.2, p=1.0)
    rho0 = bell_state(BellKind.PSI)
    assert max_abs(evolve_pair(params, params, rho0, 0.0) - rho0) <= 1e-12


def test_double_ground_is_fixed():
    params = VParams(eta=0.9, p=1.0)
    rho0 = product_state(2, 2)
    assert max_abs(evolve_pair(params, params, rho0, 7.0) - rho0) <= 1e-12


def test_long_time_coherence_element():
    # unnormalized doubly-excited coherence settles at 1/8 for eta = 1,
    # cross-checked by direct joint-generator integration
    params = VParams(eta=1.0, p=1.0)
    evolved = evolve_pair(params, params, bell_state(BellKind.PSI), 50.0)
    assert abs(qubit_block(evolved)[0, 3].real - 0.125) <= 1e-10
    joint = evolve_pair_joint(params, params, bell_state(BellKind.PSI), 50.0)
    assert abs(qubit_block(joint)[0, 3].real - 0.125) <= 1e-9


def test_factorization_against_joint_generator():
    rng = np.random.default_rng(42)
    for _ in range(5):
        rho0 = random_density(rng, 9)
        params_a = VParams(eta=2 * rng.random(), p=rng.random())
        params_b = VParams(eta=2 * rng.random(), p=1.0)
        t = 0.2 + 2 * rng.random()
        via_channels = evolve_pair(params_a, params_b, rho0, t)
        via_joint = evolve_pair_joint(params_a, params_b, rho0, t)
        assert max_abs(via_channels - via_joint) <= 1e-10


def test_joint_generator_rk4_route():
    # third route: RK4 on the 81-dimensional vectorized pair
    params_a = VParams(eta=0.7, p=0.4)
    params_b = VParams(eta=1.3, p=1.0)
    rng = np.random.default_rng(43)
    rho0 = random_density(rng, 9)
    t = 0.9
    dt = 1e-3 / max(params_a.bright_rate, params_b.bright_rate)
    via_rk4 = rk4_evolve(joint_liouvillian(params_a, params_b), rho0, t, dt)
    via_channels = evolve_pair(params_a, params_b, rho0, t)
    assert max_abs(via_rk4 - via_channels) <= 1e-8


def test_projection_of_initial_bell():
    projected = project_to_qubits(bell_state(BellKind.PSI))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = expected[0, 3] = expected[3, 0] = 0.5
    assert max_abs(projected.rho - expected) <= 1e-15
    assert projected.pre_norm_trace == pytest.approx(1.0, abs=1e-15)


def test_projection_rejects_umbrella_only_state():
    with pytest.raises(ZeroTrace):
        project_to_qubits(product_state(1, 0))  # |2A 1B> lies outside the block


def test_projected_trace_long_time():
    # Tr = (a^4 + 2a^2(1-a) + (1-a)^2 + 1)/2 with a = eta^2/(1+eta^2);
    # 65/81 at eta = sqrt(2)
    params = VParams(eta=math.sqrt(2.0), p=1.0)
    projected = project_to_qubits(evolve_pair(params, params, bell_state(BellKind.PSI), 50.0))
    assert projected.pre_norm_trace == pytest.approx(65.0 / 81.0, abs=1e-10)


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_projected_trace_monotone_nonincreasing(kind):
    params = VParams(eta=1.4, p=1.0)
    last = 1.0 + 1e-12
    for gamma_t in np.arange(0.0, 10.01, 0.1):
        projected = project_to_qubits(
            evolve_pair(params, params, bell_state(kind), gamma_t / params.gamma)
        )
        assert projected.pre_norm_trace <= last + 1e-12
        assert projected.pre_norm_trace <= 1.0 + 1e-10
        last = projected.pre_norm_trace


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_projected_state_stays_x_form(kind):
    params = VParams(eta=0.8, p=1.0)
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = True
    mask[np.arange(4), np.arange(4)[::-1]] = True
    for gamma_t in np.linspace(0.0, 10.0, 21):
        rho = project_to_qubits(
            evolve_pair(params, params, bell_state(kind), gamma_t / params.gamma)
        ).rho
        assert max_abs(rho[~mask]) <= 1e-12


def test_single_excitation_symmetry():
    # identical atoms keep rho22 = rho33 along the whole curve
    params = VParams(eta=1.1, p=1.0)
    for gamma_t in np.linspace(0.0, 8.0, 17):
        rho = project_to_qubits(
            evolve_pair(params, params, bell_state(BellKind.PHI), gamma_t)
        ).rho
        assert abs(rho[1, 1] - rho[2, 2]) <= 1e-12


def test_heterogeneous_params_supported():
    params_a = VParams(eta=0.5, p=1.0)
    params_b = VParams(eta=1.5, p=1.0)
    rho0 = bell_state(BellKind.PSI)
    out = evolve_pair(params_a, params_b, rho0, 1.3)
    ref = evolve_pair_joint(params_a, params_b, rho0, 1.3)
    assert max_abs(out - ref) <= 1e-10


def test_steady_pair_matches_long_time_evolution():
    params = VParams(eta=1.2, p=1.0)
    rho0 = bell_state(BellKind.PSI)
    limit = evolve_pair(params, params, rho0, math.inf)
    late = evolve_pair(params, params, rho0, 60.0 / params.gamma)
    assert max_abs(limit - late) <= 1e-10


# ------------------------------------------------------------ published forms

@pytest.mark.parametrize("eta", [0.5, 1.0, math.sqrt(2.0), 2.0])
def test_published_coherence_element_matches_oracle_for_all_eta(eta):
    params = VParams(eta=eta, p=1.0)
    for gamma_t in np.linspace(0.0, 10.0, 21):
        block = qubit_block(evolve_pair(params, params, bell_state(BellKind.PSI), gamma_t))
        pub = published_pair_elements(params, BellKind.PSI, gamma_t)
        assert abs(pub["rho14"] - abs(block[0, 3])) <= 1e-8


def test_published_coherence_at_start():
    pub = published_pair_elements(VParams(eta=1.0, p=1.0), BellKind.PSI, 0.0)
    assert pub["rho14"] == pytest.approx(0.5, abs=1e-15)


def test_published_population_misprint_is_flagged_value():
    # the printed doubly-excited population evaluates to 1 at t = 0
    # (bracket 16 over prefactor 16) where 1/2 is required; kept verbatim
    pub = published_pair_elements(VParams(eta=1.0, p=1.0), BellKind.PSI, 0.0)
    assert pub["rho11"] == pytest.approx(1.0, abs=1e-15)
    block = qubit_block(bell_state(BellKind.PSI))
    assert block[0, 0].real == pytest.approx(0.5, abs=1e-15)


def test_published_single_excitation_element_with_oracle_trace():
    # at eta = 1 the long-time element over the oracle trace 3/4 is 1/6,
    # giving concurrence 1/3
    params = VParams(eta=1.0, p=1.0)
    projected = project_to_qubits(evolve_pair(params, params, bell_state(BellKind.PHI), 50.0))
    assert projected.pre_norm_trace == pytest.approx(0.75, abs=1e-10)
    pub = published_pair_elements(params, BellKind.PHI, 50.0)
    normalized = pub["rho23"] / projected.pre_norm_trace
    assert normalized == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert 2.0 * normalized == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_published_population_mismatch_away_from_unit_eta():
    # printed long-time rho22 is eta^2/(8(1+eta^2)) = 1/12 at eta = sqrt(2),
    # the generator gives 2/27; both values are real and must stay distinct
    params = VParams(eta=math.sqrt(2.0), p=1.0)
    pub = published_pair_elements(params, BellKind.PSI, 60.0)
    block = qubit_block(evolve_pair(params, params, bell_state(BellKind.PSI), 60.0))
    assert pub["rho22"] == pytest.approx(1.0 / 12.0, abs=1e-10)
    assert block[1, 1].real == pytest.approx(2.0 / 27.0, abs=1e-10)


# ------------------------------------------------------------------ stacks

def test_stacked_pair_map_equals_its_per_time_calls():
    params_a, params_b = VParams(eta=0.7, p=1.0), VParams(eta=1.3, p=0.4, omega1=0.2)
    times = np.linspace(0.0, 6.0, 11)
    chan_a = np.stack([propagate_channel(params_a, t) for t in times])
    chan_b = np.stack([propagate_channel(params_b, t) for t in times])
    rho0 = random_density(np.random.default_rng(5), 9)
    stacked = apply_pair_channel(chan_a, chan_b, rho0)
    assert stacked.shape == (len(times), 9, 9)
    for i in range(len(times)):
        assert max_abs(stacked[i] - apply_pair_channel(chan_a[i], chan_b[i], rho0)) <= 1e-15
    # one channel broadcasts against a stack of the other atom's
    mixed = apply_pair_channel(chan_a[3], chan_b, rho0)
    for i in range(len(times)):
        assert max_abs(mixed[i] - apply_pair_channel(chan_a[3], chan_b[i], rho0)) <= 1e-15


def _random_maps(rng, shape):
    return rng.normal(size=shape + (9, 9)) + 1j * rng.normal(size=shape + (9, 9))


def test_pair_map_equals_the_einsum_reference_on_random_channels():
    # two matrix products on the regrouped pair against one einsum over the
    # 3x3x3x3 tensors; the entries are O(1) sums of 81 products
    rng = np.random.default_rng(21)
    for _ in range(20):
        chan_a, chan_b = _random_maps(rng, ()), _random_maps(rng, ())
        rho = random_density(rng, 9)
        assert max_abs(apply_pair_channel(chan_a, chan_b, rho)
                       - einsum_pair_map(chan_a, chan_b, rho)) <= 1e-13
    # stacks broadcast against stacks, single channels and single states
    chan_a, chan_b = _random_maps(rng, (4, 1)), _random_maps(rng, (3,))
    rhos = np.stack([random_density(rng, 9) for _ in range(3)])
    for args, shape in [((chan_a, chan_b, rhos[0]), (4, 3)), ((chan_a[0, 0], chan_b, rhos), (3,)),
                        ((chan_a, chan_b[1], rhos), (4, 3)), ((chan_a[2], chan_b, rhos), (3,))]:
        got = apply_pair_channel(*args)
        assert got.shape == shape + (9, 9)
        assert max_abs(got - einsum_pair_map(*args)) <= 1e-13


def test_stacked_hermitize_and_qubit_block_equal_their_per_matrix_calls():
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(2, 5, 9, 9)) + 1j * rng.normal(size=(2, 5, 9, 9))
    herm, block = hermitize(stack), qubit_block(stack)
    assert block.shape == (2, 5, 4, 4)
    for index in np.ndindex(2, 5):
        assert np.array_equal(herm[index], hermitize(stack[index]))
        assert np.array_equal(block[index], qubit_block(stack[index]))


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_published_pair_elements_take_an_array_of_times(kind):
    params = VParams(eta=0.45, gamma=2.0, p=1.0)
    times = np.linspace(0.0, 25.0, 101)
    batched = published_pair_elements(params, kind, times)
    for i, t in enumerate(times):
        alone = published_pair_elements(params, kind, t)
        assert alone.keys() == batched.keys()
        for key, value in alone.items():
            assert batched[key][i] == value, (key, t)


@pytest.mark.parametrize("eta", [1e77, 1e100, 1.3e154])
def test_published_pair_elements_stay_finite_at_the_largest_eta(eta):
    # (1 + eta^2)^2 overflows a float from eta ~ 1.2e77, so every term is
    # divided by 1 + eta^2 first
    params = VParams(eta=eta, p=1.0)
    psi = published_pair_elements(params, BellKind.PSI, np.array([0.0, 1.0]))
    phi = published_pair_elements(params, BellKind.PHI, np.array([0.0, 1.0]))
    # at t = 0 as printed: rho11 = (1 + eta^2)/2, rho22 = 0, rho14 = rho23 = 1/2;
    # decayed: rho11 = eta^4 / (8 (1 + eta^2)), rho22 = eta^2 / (8 (1 + eta^2))
    assert psi["rho11"].tolist() == pytest.approx([eta * eta / 2.0, eta * eta / 8.0], rel=1e-15)
    assert psi["rho22"].tolist() == pytest.approx([0.0, 0.125], rel=1e-15, abs=1e-300)
    assert psi["rho14"].tolist() == phi["rho23"].tolist() == pytest.approx([0.5, 0.5], rel=1e-15)
