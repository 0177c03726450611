"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Tolerances are pinned here and nowhere looser.
"""

import json
import math

import numpy as np
import pytest

from vicsim.bipartite import (
    BellKind,
    bell_state,
    evolve_pair,
    project_to_qubits,
    qubit_block,
)
from vicsim.cli import main
from vicsim.entanglement import concurrence_x, steady_concurrence
from vicsim.oracles import (
    concurrence_wootters,
    evolve_pair_joint,
    propagate_rk4,
    propagate_spectral,
)
from vicsim.vsystem import (
    VParams,
    apply_channel,
    dark_vector,
    excited_state,
    propagate_channel,
    steady_state,
)
from util import max_abs, random_density, random_unitary, random_x_state

SQRT2 = math.sqrt(2.0)
ETA_GRID = [0.5, 1.0, SQRT2, 2.0]


def check(number, description, body):
    try:
        body()
    except AssertionError:
        print(f"[criterion {number:02d}] FAIL  {description}")
        raise
    print(f"[criterion {number:02d}] PASS  {description}")


def generic_state():
    ket = np.array([0.6, 0.5 * np.exp(0.3j), 0.4 * np.exp(-0.7j)])
    psi = np.outer(ket, ket.conj())
    psi /= np.trace(psi).real
    return (0.7 * psi + 0.3 * np.diag([0.2, 0.3, 0.5])).astype(complex)


def test_criterion_01_initial_maximal_entanglement():
    def body():
        for kind in (BellKind.PSI, BellKind.PHI):
            rho = project_to_qubits(bell_state(kind)).rho
            assert abs(concurrence_wootters(rho) - 1.0) <= 1e-12
            assert abs(concurrence_x(rho) - 1.0) <= 1e-12

    check(1, "C(0) = 1 +- 1e-12 for both Bell states", body)


def test_criterion_02_phi_survival_level():
    def body():
        a = 2.0 / 3.0  # eta^2/(1+eta^2) at eta = sqrt(2)
        closed_form = a**2 / (a**2 + 1.0 - a)
        value = steady_concurrence(VParams(eta=SQRT2, p=1.0), BellKind.PHI)
        assert abs(value - closed_form) <= 1e-6
        assert abs(closed_form - 4.0 / 7.0) <= 1e-15
        assert 0.55 <= value <= 0.60  # "almost 60 percent" survival band

    check(2, "steady Phi concurrence = 4/7 at eta = sqrt(2), in [0.55, 0.60]", body)


def test_criterion_03_psi_survival_level():
    def body():
        a = 2.0 / 3.0
        closed_form = 2.0 * a**3 / ((a**2 + 1.0 - a) ** 2 + 1.0)
        value = steady_concurrence(VParams(eta=SQRT2, p=1.0), BellKind.PSI)
        assert abs(value - closed_form) <= 1e-6
        assert abs(closed_form - 24.0 / 65.0) <= 1e-15
        assert 0.35 <= value <= 0.40  # "almost 40 percent" survival band

    check(3, "steady Psi concurrence = 24/65 at eta = sqrt(2), in [0.35, 0.40]", body)


def test_criterion_04_unit_eta_anchors():
    def body():
        params = VParams(eta=1.0, p=1.0)
        rho_inf = steady_state(params, excited_state())
        assert abs(rho_inf[0, 0].real - 0.25) <= 1e-8
        projected = project_to_qubits(
            evolve_pair(params, params, bell_state(BellKind.PSI), 60.0)
        ).rho
        ratio = abs(projected[0, 3]) / math.sqrt(
            projected[1, 1].real * projected[2, 2].real
        )
        assert abs(ratio - 2.0) <= 1e-8
        assert abs(steady_concurrence(params, BellKind.PHI) - 1.0 / 3.0) <= 1e-8
        assert abs(steady_concurrence(params, BellKind.PSI) - 0.16) <= 1e-8

    check(4, "eta = 1 anchors: rho11(inf) = 1/4, ratio = 2, C(inf) = 1/3 and 0.16", body)


def test_criterion_05_no_interference_baseline():
    def body():
        params = VParams(eta=1.0, p=0.0)
        for gamma_t in np.linspace(0.0, 10.0, 101):
            rho = apply_channel(propagate_channel(params, gamma_t), excited_state())
            assert abs(rho[0, 0].real - math.exp(-2.0 * gamma_t)) <= 1e-10
        for kind in (BellKind.PSI, BellKind.PHI):
            projected = project_to_qubits(
                evolve_pair(params, params, bell_state(kind), 10.0)
            ).rho
            assert concurrence_x(projected) <= 1e-6

    check(5, "p = 0: pure exp(-2 gamma t) decay and entanglement gone by gamma t = 10", body)


def test_criterion_06_propagator_triangle():
    def body():
        rho0 = generic_state()
        for eta in ETA_GRID:
            params = VParams(eta=eta, p=1.0)
            previous_t = 0.0
            rho_rk4 = rho0
            for gamma_t in (0.1, 1.0, 5.0, 10.0):
                rho_rk4 = propagate_rk4(params, rho_rk4, gamma_t - previous_t)
                previous_t = gamma_t
                rho_spec = propagate_spectral(params, rho0, gamma_t)
                rho_chan = apply_channel(propagate_channel(params, gamma_t), rho0)
                assert max_abs(rho_rk4 - rho_spec) <= 1e-8
                assert max_abs(rho_rk4 - rho_chan) <= 1e-8
                assert max_abs(rho_spec - rho_chan) <= 1e-8

    check(6, "RK4, exponential and closed-form propagators agree to 1e-8", body)


def test_criterion_07_factorization_theorem():
    def body():
        rng = np.random.default_rng(1234)
        for case in range(20):
            rho0 = random_density(rng, 9)
            params_a = VParams(eta=2.0 * rng.random(),
                               p=1.0 if case % 2 == 0 else rng.random())
            params_b = (
                params_a
                if case % 4 < 2
                else VParams(eta=2.0 * rng.random(), p=rng.random())
            )
            t = 0.1 + 3.0 * rng.random()
            via_channels = evolve_pair(params_a, params_b, rho0, t)
            via_joint = evolve_pair_joint(params_a, params_b, rho0, t)
            assert max_abs(via_channels - via_joint) <= 1e-10

    check(7, "channel tensor product equals joint-generator evolution (20 cases)", body)


def test_criterion_08_physicality_suite():
    def body():
        rho0 = generic_state()
        for p in (0.0, 1.0):
            params = VParams(eta=1.3, p=p)
            dark = dark_vector(params.eta)
            dark_population = (dark.conj() @ rho0 @ dark).real
            for gamma_t in np.linspace(0.0, 10.0, 101):
                rho = apply_channel(propagate_channel(params, gamma_t), rho0)
                assert abs(np.trace(rho).real - 1.0) <= 1e-10
                assert max_abs(rho - rho.conj().T) <= 1e-10
                assert np.linalg.eigvalsh(rho).min() >= -1e-10
                if p == 1.0:
                    assert abs((dark.conj() @ rho @ dark).real - dark_population) <= 1e-10
        params = VParams(eta=1.3, p=1.0)
        for kind in (BellKind.PSI, BellKind.PHI):
            for gamma_t in np.linspace(0.0, 10.0, 101):
                pair = evolve_pair(params, params, bell_state(kind), gamma_t)
                assert abs(np.trace(pair).real - 1.0) <= 1e-10
                assert np.linalg.eigvalsh(pair).min() >= -1e-10
                assert project_to_qubits(pair).pre_norm_trace <= 1.0 + 1e-10

    check(8, "trace, Hermiticity, positivity, dark-state and projection bounds", body)


def test_criterion_09_concurrence_consistency():
    def body():
        rng = np.random.default_rng(99)
        for _ in range(1000):
            rho = random_x_state(rng)
            assert abs(concurrence_x(rho) - concurrence_wootters(rho)) <= 1e-12
        for _ in range(100):
            rho = random_density(rng, 4)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence_wootters(rotated) - concurrence_wootters(rho)) <= 1e-10

    check(9, "X formula vs general concurrence (1000), local-unitary invariance (100)", body)


def test_criterion_10_closed_form_audit(capsys):
    def compare_report(eta):
        code = main(["compare", "--eta", repr(eta), "--steps", "200"])
        out = capsys.readouterr().out
        assert code == 0
        return json.loads(out)

    def body():
        report = compare_report(1.0)
        single = report["single_atom"]
        for block in (single["excited"], single["superposition"]):
            assert all(dev <= 1e-8 for dev in block.values())
        assert single["rho11_infinity"]["deviation"] <= 1e-8
        psi = report["pair_psi"]
        for key in ("rho14", "rho22", "rho33", "rho11_half_printed"):
            assert psi[key] <= 1e-8
        assert report["pair_phi"]["rho23"] <= 1e-8
        assert abs(psi["rho11_printed_at_t0"] - 1.0) <= 1e-12  # misprint flagged

        report = compare_report(SQRT2)
        assert abs(report["single_atom"]["rho11_infinity"]["deviation"] - 1.0 / 9.0) <= 1e-9
        assert report["pair_psi"]["rho22"] > 1e-6
        assert report["pair_psi"]["rho33"] > 1e-6
        assert report["pair_psi"]["rho11_half_printed"] > 1e-6
        for eta in ETA_GRID:
            report = compare_report(eta)
            assert report["pair_psi"]["rho14"] <= 1e-8
            assert report["pair_phi"]["rho23"] <= 1e-8

    # keep the pass/fail line visible despite capsys capturing
    try:
        body()
    except AssertionError:
        with capsys.disabled():
            print("[criterion 10] FAIL  closed-form audit matches documented deviations")
        raise
    with capsys.disabled():
        print("[criterion 10] PASS  closed-form audit matches documented deviations")
