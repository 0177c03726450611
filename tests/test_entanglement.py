import contextlib
import io
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vicsim.bipartite import (
    BellKind,
    bell_state,
    bell_x_elements,
    evolve_pair,
    product_state,
    project_to_qubits,
    signed_x_concurrence,
)
from vicsim.cli import main
from vicsim.entanglement import (
    CURVE_COLUMNS,
    ESD_HORIZON,
    ESD_THRESHOLD,
    METHODS,
    EsdResult,
    NotXForm,
    _scan_for_death,
    _signed_point,
    _x_elements,
    concurrence_curve,
    concurrence_x,
    esd_time,
    steady_concurrence,
)
from vicsim.oracles import NotAState, concurrence_wootters
from vicsim.published import UnsupportedParams, _branch, published_pair_elements
from vicsim.vsystem import VParams, no_jump_propagators, propagate_channel
from util import random_density, random_unitary, random_x_state

SQRT2 = math.sqrt(2.0)


def projected_bell(kind):
    return project_to_qubits(bell_state(kind)).rho


# ------------------------------------------------------------------- Wootters

@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_wootters_maximal_on_bell(kind):
    assert concurrence_wootters(projected_bell(kind)) == pytest.approx(1.0, abs=1e-12)


def test_wootters_zero_on_maximally_mixed():
    assert concurrence_wootters(np.eye(4, dtype=complex) / 4.0) == 0.0


def test_wootters_long_time_value():
    # 24/65 at eta = sqrt(2): the "almost 40 percent" survival level
    params = VParams(eta=SQRT2, p=1.0)
    rho = project_to_qubits(evolve_pair(params, params, bell_state(BellKind.PSI), 50.0)).rho
    assert concurrence_wootters(rho) == pytest.approx(24.0 / 65.0, abs=1e-6)


def test_wootters_rejects_non_state():
    with pytest.raises(NotAState):
        concurrence_wootters(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(NotAState):
        bad = np.diag([0.7, 0.5, 0.0, -0.2]).astype(complex)
        concurrence_wootters(bad)
    with pytest.raises(NotAState, match="Hermiticity"):
        lopsided = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        lopsided[0, 1] = 0.1  # trace 1, but not Hermitian
        concurrence_wootters(lopsided)


def test_wootters_bounded_and_unitary_invariant():
    rng = np.random.default_rng(50)
    for _ in range(25):
        rho = random_density(rng, 4)
        c = concurrence_wootters(rho)
        assert -1e-12 <= c <= 1.0 + 1e-12
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence_wootters(rotated) - c) <= 1e-10


# ------------------------------------------------------------------ X formula

def test_x_maximal_on_bell():
    assert concurrence_x(projected_bell(BellKind.PHI)) == pytest.approx(1.0, abs=1e-12)


def test_x_long_time_value():
    params = VParams(eta=SQRT2, p=1.0)
    rho = project_to_qubits(evolve_pair(params, params, bell_state(BellKind.PHI), 50.0)).rho
    assert concurrence_x(rho) == pytest.approx(4.0 / 7.0, abs=1e-6)


def test_x_rejects_non_x_pattern():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(NotXForm):
        concurrence_x(rho)


def test_x_agrees_with_wootters_on_random_x_states():
    rng = np.random.default_rng(51)
    for _ in range(100):
        rho = random_x_state(rng)
        assert abs(concurrence_x(rho) - concurrence_wootters(rho)) <= 1e-12


def test_branch_values_signs():
    x = _x_elements(projected_bell(BellKind.PSI))
    # each branch alone: the other's antidiagonal magnitude set to -inf
    inner = signed_x_concurrence(*x._replace(rho23_abs=-math.inf)) / 2.0
    outer = signed_x_concurrence(*x._replace(rho14_abs=-math.inf)) / 2.0
    assert inner == pytest.approx(0.5, abs=1e-15)
    assert outer == pytest.approx(-0.5, abs=1e-15)


# --------------------------------------------------------------------- curves

def test_curve_starts_maximally_entangled():
    grid = np.linspace(0.0, 5.0, 11)
    for kind in (BellKind.PSI, BellKind.PHI):
        curve = concurrence_curve(VParams(eta=1.7, p=1.0), kind, grid)
        assert curve.concurrence[0] == pytest.approx(1.0, abs=1e-12)


def test_curve_tail_values():
    grid = np.linspace(0.0, 50.0, 51)
    tail = concurrence_curve(VParams(eta=1.0, p=1.0), BellKind.PSI, grid).concurrence[-1]
    assert tail == pytest.approx(0.16, abs=1e-9)
    tail0 = concurrence_curve(VParams(eta=1.0, p=0.0), BellKind.PSI, grid).concurrence[-1]
    assert tail0 <= 1e-6


def test_curve_grid_validation():
    params = VParams()
    with pytest.raises(ValueError):
        concurrence_curve(params, BellKind.PSI, np.array([]))
    with pytest.raises(ValueError):
        concurrence_curve(params, BellKind.PSI, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        concurrence_curve(params, BellKind.PSI, np.array([-1.0, 0.0]))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("grid", [1.0, [[0.0, 1.0], [2.0, 3.0]], [[0.0, 1.0, 2.0]]],
                         ids=["scalar", "2x2", "1x3"])
def test_curve_grid_must_be_one_dimensional(grid, method):
    message = f"time grid must be one-dimensional, got shape {np.shape(grid)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        concurrence_curve(VParams(), BellKind.PSI, grid, method)


@pytest.mark.parametrize("method", METHODS)
def test_curve_grid_repeating_infinity_is_not_increasing(method):
    with pytest.raises(ValueError, match="strictly increasing"):
        concurrence_curve(VParams(), BellKind.PSI, [0.0, math.inf, math.inf], method)


def test_curve_published_mode_matches_oracle_at_unit_eta():
    grid = np.linspace(0.0, 10.0, 41)
    params = VParams(eta=1.0, p=1.0)
    for kind in (BellKind.PSI, BellKind.PHI):
        oracle = concurrence_curve(params, kind, grid, method="oracle")
        published = concurrence_curve(params, kind, grid, method="paper")
        worst = np.max(np.abs(oracle.concurrence - published.concurrence))
        assert worst <= 1e-8


def test_curve_published_mode_deviation_is_a_number_at_root_two():
    # away from eta = 1 the published elements disagree; report, don't assert small
    grid = np.linspace(0.0, 10.0, 41)
    params = VParams(eta=SQRT2, p=1.0)
    oracle = concurrence_curve(params, BellKind.PSI, grid, method="oracle")
    published = concurrence_curve(params, BellKind.PSI, grid, method="paper")
    worst = np.max(np.abs(oracle.concurrence - published.concurrence))
    assert math.isfinite(worst)
    assert worst > 1e-6  # documented disagreement, must not silently vanish


def test_curve_published_mode_requires_full_interference():
    with pytest.raises(UnsupportedParams):
        concurrence_curve(VParams(p=0.5), BellKind.PSI, np.array([0.0, 1.0]), method="paper")


def test_published_modes_require_degenerate_upper_levels():
    # the printed forms know no level splitting: at omega1 = -omega2 = 2 they
    # would read a psi limit of 0.125 where the oracle decays to 0
    split = VParams(omega1=2.0, omega2=-2.0)
    with pytest.raises(UnsupportedParams, match="^published closed forms require omega1 = omega2$"):
        concurrence_curve(split, BellKind.PSI, np.array([0.0, 5.0, 40.0]), method="paper")
    with pytest.raises(UnsupportedParams, match="omega1 = omega2"):
        esd_time(split, BellKind.PSI, method="paper")
    # p is checked first, and its message stays
    with pytest.raises(UnsupportedParams, match="^published closed forms require p = 1$"):
        esd_time(VParams(p=0.5, omega1=2.0, omega2=-2.0), BellKind.PHI, method="paper")


@pytest.mark.parametrize("kind", list(BellKind))
@pytest.mark.parametrize("eta", [0.3, 1.0, SQRT2, 3.0])
def test_paper_curve_at_a_common_frequency_is_the_rotating_frame_curve(kind, eta):
    # a common frequency omega1 = omega2 is a choice of frame, so it stays valid
    grid = np.linspace(0.0, 12.0, 49)
    want = concurrence_curve(VParams(eta=eta), kind, grid, method="paper")
    for omega in (0.7, -3.0):
        got = concurrence_curve(VParams(eta=eta, omega1=omega, omega2=omega), kind, grid, "paper")
        for name in CURVE_COLUMNS:
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-15, name


# ------------------------------------------------------------- steady values

def test_steady_concurrence_reference_points():
    assert steady_concurrence(VParams(eta=1.0, p=1.0), BellKind.PHI) == pytest.approx(
        1.0 / 3.0, abs=1e-12
    )
    assert steady_concurrence(VParams(eta=SQRT2, p=1.0), BellKind.PSI) == pytest.approx(
        24.0 / 65.0, abs=1e-12
    )
    assert steady_concurrence(VParams(eta=1.0, p=0.0), BellKind.PSI) <= 1e-15
    assert steady_concurrence(VParams(eta=1.0, p=0.0), BellKind.PHI) <= 1e-15


def test_steady_concurrence_monotone_in_eta():
    # a = eta^2/(1+eta^2) in {0.2, 0.5, 2/3, 0.8}
    etas = [0.5, 1.0, SQRT2, 2.0]
    phi_expected = [1.0 / 21.0, 1.0 / 3.0, 4.0 / 7.0, 16.0 / 21.0]
    for kind in (BellKind.PSI, BellKind.PHI):
        values = [steady_concurrence(VParams(eta=e, p=1.0), kind) for e in etas]
        assert all(b > a for a, b in zip(values, values[1:]))
        if kind is BellKind.PHI:
            assert values == pytest.approx(phi_expected, abs=1e-12)


def _exact_steady_concurrence(eta2, kind):
    """Long-time concurrence at p = 1 of a Bell start, exact in the
    rational eta^2: a^3 / (a^4/2 + a^2 (1 - a) + (1 + (1 - a)^2)/2) for psi
    and a^2 / (a^2 + 1 - a) for phi, a = eta^2 / (1 + eta^2)."""
    a = eta2 / (1 + eta2)
    if kind is BellKind.PSI:
        return a**3 / (a**4 / 2 + a**2 * (1 - a) + (1 + (1 - a) ** 2) / 2)
    return a**2 / (a**2 + 1 - a)


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_steady_concurrence_equals_the_exact_form(kind):
    for n in range(1, 40):
        for d in (1, 2, 3, 4, 7, 10):
            eta = math.sqrt(n / d)
            want = _exact_steady_concurrence(Fraction(n, d), kind)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["steady", "--eta", repr(eta), "--p", "1", "--bell", kind.value]) == 0
            for got in (steady_concurrence(VParams(eta=eta), kind),
                        json.loads(out.getvalue())["concurrence_infinity"]):
                assert abs(Fraction(got) - want) <= Fraction(2e-15) * want, (n, d, got)


# Decay-free levels that keep rotating: a common frequency at p = 1, and the
# umbrella level at eta = 0 with split levels. U(t) has no limit there, but
# the Bell block, read from |U11|^2 and |U21|^2 alone, has.
ROTATING_SURVIVORS = {
    "p1-common-omega": (VParams(eta=1.0, p=1.0, omega1=0.7, omega2=0.7),
                        {BellKind.PSI: 0.16, BellKind.PHI: 1.0 / 3.0}),
    "eta0-split-omega": (VParams(eta=0.0, omega1=0.5, omega2=-0.5),
                         {BellKind.PSI: 0.0, BellKind.PHI: 0.0}),
}


@pytest.mark.parametrize("kind", list(BellKind))
@pytest.mark.parametrize("case", list(ROTATING_SURVIVORS))
def test_a_rotating_survivor_leaves_the_bell_limit_defined(case, kind):
    params, limits = ROTATING_SURVIVORS[case]
    late = concurrence_curve(params, kind, np.array([0.0, 40.0])).concurrence[-1]
    got = steady_concurrence(params, kind)
    assert abs(got - late) <= 1e-12 and abs(got - limits[kind]) <= 1e-12
    result = esd_time(params, kind)
    if limits[kind] > 0.0:
        assert result.kind == "asymptotic_positive"
        assert abs(result.concurrence_limit - limits[kind]) <= 1e-12
    else:
        assert result == EsdResult("asymptotic_zero")


@pytest.mark.parametrize("kind", list(BellKind))
@pytest.mark.parametrize("case", list(ROTATING_SURVIVORS))
def test_a_rotating_survivor_has_every_reader_answer_at_t_infinity(case, kind):
    params, _ = ROTATING_SURVIVORS[case]
    assert esd_time(params, bell_state(kind)) == esd_time(params, kind)
    assert esd_time(params, product_state(0, 0)) == EsdResult("vanishes_at", gamma_t_death=0.0)
    # the published forms take a common frequency only
    methods = METHODS if params.omega1 == params.omega2 else ("oracle",)
    for method in methods:
        curve = concurrence_curve(params, kind, [0.0, 40.0, math.inf], method)
        assert abs(curve.concurrence[-1] - steady_concurrence(params, kind)) <= 1e-12, method


# eta at which the long-time concurrence is one half: phi's from
# a^2 + a - 1 = 0, psi's by bisection on steady_concurrence
HALF_CROSSINGS = {BellKind.PHI: math.sqrt((1.0 + math.sqrt(5.0)) / 2.0),
                  BellKind.PSI: 1.7109215054931406}


@pytest.mark.parametrize("kind", [BellKind.PSI, BellKind.PHI])
def test_long_time_concurrence_crosses_one_half(kind):
    eta = HALF_CROSSINGS[kind]
    assert abs(steady_concurrence(VParams(eta=eta), kind) - 0.5) <= 2 * math.ulp(0.5)
    below, above = eta - 1e-6, eta + 1e-6
    assert steady_concurrence(VParams(eta=below), kind) < 0.5
    assert steady_concurrence(VParams(eta=above), kind) > 0.5
    # the exact form crosses within the same bracket
    assert _exact_steady_concurrence(Fraction(below) ** 2, kind) < Fraction(1, 2)
    assert _exact_steady_concurrence(Fraction(above) ** 2, kind) > Fraction(1, 2)


# ----------------------------------------------------------------------- ESD

def test_esd_survives_with_interference():
    result = esd_time(VParams(eta=SQRT2, p=1.0), BellKind.PSI)
    assert result.kind == "asymptotic_positive"
    assert result.concurrence_limit == pytest.approx(24.0 / 65.0, abs=1e-9)


def test_esd_asymptotic_decay_without_interference():
    # single-excitation state decays like exp(-2 gamma t): no finite death
    result = esd_time(VParams(eta=1.0, p=0.0), BellKind.PHI)
    assert result == EsdResult("asymptotic_zero")


def test_esd_product_state_dead_at_start():
    result = esd_time(VParams(eta=1.0, p=1.0), product_state(0, 0))
    assert result.kind == "vanishes_at"
    assert result.gamma_t_death == 0.0


@pytest.mark.parametrize("eta", [0.0, 1.0, 1e7, 1e154])
@pytest.mark.parametrize("ket_a, ket_b", [(0, 0), (0, 2), (2, 0), (2, 2)])
def test_esd_every_product_start_vanishes_at_zero(ket_a, ket_b, eta):
    # a separable start stays separable under local channels, whether its
    # branch resolves below -ESD_THRESHOLD, is exactly 0 or underflows
    result = esd_time(VParams(eta=eta), product_state(ket_a, ket_b))
    assert result == EsdResult("vanishes_at", gamma_t_death=0.0)


def test_esd_finite_death_matches_closed_form():
    # weight c^2 = 0.8 on the doubly-excited branch dies at
    # gamma t = -(1/2) ln(1 - s/c) with s/c = 1/2
    c, s = math.sqrt(0.8), math.sqrt(0.2)
    ket = np.zeros(9, dtype=complex)
    ket[0], ket[8] = c, s
    rho0 = np.outer(ket, ket.conj())
    result = esd_time(VParams(eta=1.0, p=0.0), rho0)
    assert result.kind == "vanishes_at"
    assert result.gamma_t_death == pytest.approx(0.5 * math.log(2.0), abs=1e-8)


@pytest.mark.parametrize(
    "kind, eta, p",
    [
        (BellKind.PSI, 0.0, 0.0),
        (BellKind.PSI, 0.9, 0.35),
        (BellKind.PSI, 2.0, 0.5),
        (BellKind.PHI, 1.0, 0.2),
        (BellKind.PSI, 0.0, 1.0),
        (BellKind.PSI, SQRT2, 1.0),
    ],
)
def test_esd_bell_answer_matches_the_scan(kind, eta, p):
    # an explicit start takes the sampled scan, the Bell start its exact limit
    params = VParams(eta=eta, p=p)
    assert esd_time(params, bell_state(kind)) == esd_time(params, kind)


def test_esd_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        esd_time(VParams(), BellKind.PSI, method="bogus")


def test_esd_published_mode_requires_full_interference():
    with pytest.raises(UnsupportedParams):
        esd_time(VParams(p=0.5, eta=0.3), BellKind.PSI, method="paper")


def test_esd_published_mode_rejects_explicit_start():
    # the published forms cover only the Bell starts; the oracle takes the rest
    with pytest.raises(ValueError, match="oracle method only"):
        esd_time(VParams(), product_state(0, 0), method="paper")


@pytest.mark.parametrize("shape", [(4, 4), (3, 3)])
def test_esd_rejects_an_explicit_start_that_is_not_a_pair_state(shape):
    # a 4x4 qubit block is the likeliest mistake; the pair map takes only 9x9
    with pytest.raises(ValueError, match=rf"^an explicit start must be a 9x9 pair state, "
                                         rf"got shape \({shape[0]}, {shape[1]}\)$"):
        esd_time(VParams(), np.eye(shape[0]) / shape[0])


def _evolved_paper_point(params, kind, gamma_t):
    """The published elements at gamma_t, normalised by the trace of the evolved
    pair, with the evolved rho22 and rho33 where the forms print none."""
    t = gamma_t / params.gamma
    projected = project_to_qubits(evolve_pair(params, params, bell_state(kind), t))
    rho, trace = projected.rho, projected.pre_norm_trace
    elements = {"rho14_abs": abs(rho[0, 3]), "rho23_abs": abs(rho[1, 2]),
                "rho22": rho[1, 1].real, "rho33": rho[2, 2].real, "pre_norm_trace": trace}
    signed, published = _branch(published_pair_elements(params, kind, t), kind, trace)
    elements.update(published)
    return signed, elements


_CURVE_KEYS = ("rho14_abs", "rho23_abs", "rho22", "rho33", "pre_norm_trace")


@pytest.mark.parametrize("kind", list(BellKind))
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0 / math.sqrt(3.0), 1.0, 2.5])
def test_paper_curve_matches_the_evolved_readout(eta, gamma, kind):
    # the batched readout takes its trace from U; the reference evolves the pair
    params = VParams(gamma=gamma, eta=eta, p=1.0)
    for steps in (2, 21, 773):
        grid = np.linspace(0.0, 10.0, steps)
        curve = concurrence_curve(params, kind, grid, method="paper")
        assert curve.gamma_t.tolist() == grid.tolist()
        assert CURVE_COLUMNS == ("gamma_t", "concurrence") + _CURVE_KEYS
        for i, gamma_t in enumerate(grid.tolist()):
            signed, elements = _evolved_paper_point(params, kind, gamma_t)
            assert abs(curve.concurrence[i] - max(0.0, signed)) <= 1e-12
            for key in _CURVE_KEYS:
                assert abs(getattr(curve, key)[i] - elements[key]) <= 1e-12, (gamma_t, key)


def _evolved_paper_esd(params, kind):
    """esd under the published forms, every sample normalised by the evolved trace."""
    signed_at = np.vectorize(lambda gamma_t: _evolved_paper_point(params, kind, gamma_t)[0],
                             otypes=[float])
    limit = max(0.0, float(signed_at(ESD_HORIZON)))
    if limit > 10.0 * ESD_THRESHOLD:
        return EsdResult("asymptotic_positive", concurrence_limit=limit)
    return _scan_for_death(signed_at)


_EDGE = 1.0 / math.sqrt(3.0)  # psi's published limit is proportional to eta^2 (3 eta^2 - 1)
_PAPER_ESD_CASES = [
    (BellKind.PSI, eta, gamma)
    for eta, gamma in [
        (0.0, 1.0), (0.0, 2.0), (0.02, 1.0), (0.05, 0.5), (0.1, 2.0), (0.15, 1.0),
        (0.2, 0.5), (0.25, 1.0), (0.3, 1.0), (0.3, 2.0), (0.35, 0.5), (0.4, 1.0),
        (0.45, 2.0), (0.5, 1.0), (0.55, 0.5), (_EDGE - 1e-3, 1.0), (_EDGE - 1e-3, 2.0),
        (_EDGE + 1e-3, 1.0), (_EDGE + 1e-3, 0.5), (0.7, 1.0), (1.0, 2.0), (SQRT2, 1.0),
        (3.0, 0.5),
    ]
] + [
    (BellKind.PHI, eta, gamma)
    for eta, gamma in [(0.0, 1.0), (0.05, 2.0), (0.3, 1.0), (_EDGE, 0.5), (1.0, 1.0),
                       (2.5, 2.0)]
]


@pytest.mark.parametrize("kind, eta, gamma", _PAPER_ESD_CASES)
def test_esd_published_scan_matches_the_evolved_scan(kind, eta, gamma):
    # the trace-free published branch decides exactly as the normalised one;
    # the limit's trace comes from U, the reference's from the evolved pair
    params = VParams(gamma=gamma, eta=eta, p=1.0)
    got, want = esd_time(params, kind, method="paper"), _evolved_paper_esd(params, kind)
    assert (got.kind, got.gamma_t_death) == (want.kind, want.gamma_t_death)
    if want.concurrence_limit is None:
        assert got.concurrence_limit is None
    else:
        assert abs(got.concurrence_limit - want.concurrence_limit) <= 1e-15


def test_paper_method_evolves_nothing(monkeypatch):
    def evolved(*args, **kwargs):
        raise AssertionError("the paper method evolved the pair")

    # every binding, in every vicsim module that imports them
    for name in ("evolve_pair", "apply_pair_channel", "propagate_channel"):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("vicsim") and hasattr(module, name):
                monkeypatch.setattr(module, name, evolved)
    runs = [["curve", "--method", "paper", "--eta", eta, "--bell", bell, "--steps", "50"]
            for eta in ("0.3", "2") for bell in ("psi", "phi")]
    # a scanned death, both positive limits and a limit below the threshold
    runs += [["esd", "--method", "paper", "--eta", eta, "--bell", bell]
             for eta, bell in (("0.3", "psi"), ("1", "psi"), ("1", "phi"), ("0", "psi"))]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, (argv, err.getvalue())


def test_long_time_bell_answers_build_no_pair(monkeypatch):
    def paired(*args, **kwargs):
        raise AssertionError("a long-time Bell answer built the 9x9 pair")

    # every binding, in every vicsim module that imports them
    for name in ("evolve_pair", "apply_pair_channel", "project_to_qubits", "propagate_channel"):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("vicsim") and hasattr(module, name):
                monkeypatch.setattr(module, name, paired)
    # survivors at p = 1, limits below the threshold, and eta = 0
    params = [("1", "1"), ("0.3", "1"), ("2", "0.5"), ("0", "1"), ("1", "0.999999999")]
    runs = [[command, "--eta", eta, "--p", p, "--bell", bell]
            for command in ("steady", "esd") for eta, p in params for bell in ("psi", "phi")]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, (argv, err.getvalue())
    for eta, p in params:
        for kind in BellKind:
            steady_concurrence(VParams(eta=float(eta), p=float(p)), kind)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_psi_without_umbrella_follows_yu_eberly(p):
    # eta = 0 is two-level amplitude damping of (|11> + |33>)/sqrt(2), whose
    # concurrence exp(-4 gamma t) vanishes only asymptotically (Yu and Eberly,
    # PRL 93, 140404 (2004))
    params = VParams(eta=0.0, p=p)
    curve = concurrence_curve(params, BellKind.PSI, np.linspace(0.0, 50.0, 501))
    for gamma_t, concurrence in zip(curve.gamma_t.tolist(), curve.concurrence.tolist()):
        assert abs(concurrence - math.exp(-4.0 * gamma_t)) <= 1e-12
    assert esd_time(params, BellKind.PSI) == EsdResult("asymptotic_zero")


_P = st.one_of(st.sampled_from([0.0, 1.0 - 1e-9, 1.0]), st.floats(0.0, 1.0))
_OMEGA = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kind=st.sampled_from(list(BellKind)), eta=st.floats(0.0, 5.0), p=_P,
       omega1=_OMEGA, omega2=_OMEGA, gamma_t=st.floats(0.0, 30.0))
def test_bell_branch_is_a_product_of_single_atom_factors(kind, eta, p, omega1, omega2, gamma_t):
    # psi: |U11|^2 P_e / tr, phi: |U11|^2 / tr, with U the no-jump propagator
    params = VParams(eta=eta, p=p, omega1=omega1, omega2=omega2)
    signed, *_, pre_norm_trace = _signed_point(params, bell_state(kind), gamma_t)
    chan = propagate_channel(params, gamma_t / params.gamma).real
    u11_sq, excited = chan[0, 0], chan[0, 0] + chan[4, 0]
    factor = u11_sq * excited if kind is BellKind.PSI else u11_sq
    exact = factor / pre_norm_trace
    assert exact >= 0.0
    assert abs(signed - exact) <= 1e-12


# ------------------------------------------------------------------ Bell kinds

_KIND_TIMES = np.linspace(0.0, 3.0, 7)
# Each reader of a Bell kind, as a function of the kind alone.
_READS_A_KIND = {
    "bell_state": bell_state,
    "bell_x_elements": lambda kind: bell_x_elements(
        no_jump_propagators(VParams(eta=SQRT2), _KIND_TIMES), kind),
    "published_pair_elements": lambda kind: published_pair_elements(VParams(eta=SQRT2), kind,
                                                                    _KIND_TIMES),
    "concurrence_curve": lambda kind: concurrence_curve(VParams(eta=SQRT2, p=0.5), kind,
                                                       _KIND_TIMES).columns(),
    "concurrence_curve-paper": lambda kind: concurrence_curve(VParams(eta=SQRT2), kind,
                                                             _KIND_TIMES, "paper").columns(),
    "steady_concurrence": lambda kind: steady_concurrence(VParams(eta=SQRT2), kind),
    "esd_time": lambda kind: esd_time(VParams(eta=SQRT2), kind),
    "esd_time-paper": lambda kind: esd_time(VParams(eta=0.3), kind, method="paper"),
}


def _bits(value):
    """The exact bits of a result: arrays by their bytes, through tuples and dicts."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    return repr(value)


@pytest.mark.parametrize("kind", list(BellKind))
@pytest.mark.parametrize("reader", list(_READS_A_KIND))
def test_a_bell_kind_string_reads_as_its_kind(reader, kind):
    # BellKind is a str enum: "psi" must not fall through to phi's branch
    read = _READS_A_KIND[reader]
    assert _bits(read(kind.value)) == _bits(read(kind))
    with pytest.raises(ValueError):
        read("bogus")
