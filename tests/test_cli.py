import importlib.util
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import vicsim.bipartite
import vicsim.cli
import vicsim.vsystem
from vicsim.bipartite import (
    BellKind,
    apply_pair_channel,
    bell_state,
    evolve_pair,
    project_to_qubits,
    qubit_block,
)
from vicsim.cli import COMMANDS, OPTIONS, main
from vicsim.entanglement import EsdResult, concurrence_x
from vicsim.published import COMPARE_CHUNK, published_pair_elements, published_single_atom
from vicsim.vsystem import (
    VParams,
    apply_channel,
    excited_state,
    propagate_channel,
    superposition_state,
)
from util import without_gamma_echo

SQRT2 = "1.4142135623730951"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------------------ csv

CSV_EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, sys.float_info.max,
                   math.inf, -math.inf, math.nan)


@pytest.mark.parametrize("value", CSV_EDGE_VALUES + tuple(map(np.float64, CSV_EDGE_VALUES)),
                         ids=repr)
def test_row_format_equals_the_per_value_format(value):
    # CSV rows are formatted with one "%.12e,..." % row; the bytes must be
    # those of the per-value f"{v:.12e}" they replace
    assert "%.12e" % value == f"{value:.12e}"
    assert "%.12e,%.12e" % (value, value) == f"{value:.12e},{value:.12e}"


# ---------------------------------------------------------------------- curve

def test_curve_header_rows_and_start(capsys):
    code, out, _ = run_cli(capsys, "curve", "--steps", "200", "--t-max", "10")
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == "gamma_t,concurrence,rho14_abs,rho23_abs,rho22,rho33,pre_norm_trace"
    assert len(rows) == 200
    assert rows[0][0] == 0.0
    assert abs(rows[0][1] - 1.0) <= 1e-12


def test_curve_psi_tail_survival(capsys):
    code, out, _ = run_cli(capsys, "curve", "--eta", SQRT2, "--bell", "psi",
                           "--t-max", "10", "--steps", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(rows[-1][1] - 24.0 / 65.0) <= 1e-6


def test_curve_phi_tail_survival(capsys):
    code, out, _ = run_cli(capsys, "curve", "--eta", SQRT2, "--bell", "phi",
                           "--steps", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(rows[-1][1] - 4.0 / 7.0) <= 1e-6


def test_curve_no_interference_tail_vanishes(capsys):
    code, out, _ = run_cli(capsys, "curve", "--p", "0", "--bell", "psi", "--steps", "100")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[-1][1] <= 1e-6


def test_curve_deterministic_output(capsys):
    args = ("curve", "--eta", "0.8", "--steps", "50")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_gamma_only_rescales_physical_time(capsys):
    # the time axis is gamma*t, so the emitted curve is gamma-independent
    _, unit, _ = run_cli(capsys, "curve", "--gamma", "1.0", "--steps", "40")
    _, scaled, _ = run_cli(capsys, "curve", "--gamma", "2.5", "--steps", "40")
    assert unit == scaled


def test_curve_roundtrip_concurrence(capsys):
    # emitted concurrence must be recomputable from the emitted elements
    for bell in ("psi", "phi"):
        code, out, _ = run_cli(capsys, "curve", "--eta", "1.3", "--bell", bell,
                               "--steps", "60")
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            _, conc, r14, r23, r22, r33, _ = row
            inner = r14 - math.sqrt(max(r22, 0.0) * max(r33, 0.0))
            # the doubly-excited population vanishes identically for phi,
            # so the second branch reduces to |rho23|
            recomputed = 2.0 * max(0.0, inner, r23 if bell == "phi" else 0.0)
            assert abs(recomputed - conc) <= 1e-9


def test_curve_writes_file(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "curve", "--steps", "10", "--output", str(out_path))
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("gamma_t,") and text.endswith("\n")
    assert len(text.strip().split("\n")) == 11


def test_curve_paper_method(capsys):
    code, out, _ = run_cli(capsys, "curve", "--eta", "1", "--method", "paper",
                           "--steps", "50")
    assert code == 0
    _, rows = parse_csv(out)
    assert abs(rows[0][1] - 1.0) <= 1e-12


# --------------------------------------------------------------------- single

def test_single_excited_trapping(capsys):
    code, out, _ = run_cli(capsys, "single", "--initial", "excited", "--eta", "1",
                           "--steps", "100")
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == "gamma_t,rho11,rho22,rho33,rho13_re,rho13_im"
    assert abs(rows[-1][1] - 0.25) <= 1e-6


def test_single_no_interference_pure_decay(capsys):
    code, out, _ = run_cli(capsys, "single", "--initial", "excited", "--p", "0",
                           "--steps", "100")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert abs(row[1] - math.exp(-2.0 * row[0])) <= 1e-10


def test_single_ground_constant(capsys):
    code, out, _ = run_cli(capsys, "single", "--initial", "ground", "--steps", "20")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert row[3] == 1.0 and row[1] == 0.0


def test_single_rejects_unknown_initial(capsys):
    code, _, err = run_cli(capsys, "single", "--initial", "sideways")
    assert code == 2
    assert err.strip().startswith("error:")


def test_single_rejects_paper_method(capsys):
    code, _, err = run_cli(capsys, "single", "--method", "paper")
    assert code == 2
    assert err.strip().startswith("error:")
    assert err.count("\n") == 1


# --------------------------------------------------------------------- steady

def test_steady_psi_ratio_at_unit_eta(capsys):
    code, out, _ = run_cli(capsys, "steady", "--bell", "psi", "--eta", "1")
    assert code == 0
    report = json.loads(out)
    assert abs(report["ratio_rho14_over_sqrt_rho22_rho33"] - 2.0) <= 1e-9
    assert abs(report["ratio_published_formula"] - 2.0) <= 1e-12


def test_steady_psi_ratio_discrepancy_reported_side_by_side(capsys):
    code, out, _ = run_cli(capsys, "steady", "--bell", "psi", "--eta", SQRT2)
    assert code == 0
    report = json.loads(out)
    assert abs(report["ratio_rho14_over_sqrt_rho22_rho33"] - 3.0) <= 1e-9
    assert abs(report["ratio_published_formula"] - 8.0 / 3.0) <= 1e-12


def test_steady_published_ratio_stays_finite_at_the_largest_eta(capsys):
    # 4 eta^2 overflows here; 4 eta^2 / (1 + eta^2) is 4
    code, out, _ = run_cli(capsys, "steady", "--bell", "psi", "--eta", "1e154")
    assert code == 0
    assert json.loads(out)["ratio_published_formula"] == 4.0


def test_non_finite_report_value_is_a_diagnostic(capsys, monkeypatch):
    monkeypatch.setattr(vicsim.cli, "esd_time", lambda *args, **kwargs: EsdResult(
        "asymptotic_positive", concurrence_limit=math.nan))
    code, out, err = run_cli(capsys, "esd")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_steady_phi_concurrence(capsys):
    code, out, _ = run_cli(capsys, "steady", "--bell", "phi", "--eta", "1")
    assert code == 0
    report = json.loads(out)
    assert abs(report["concurrence_infinity"] - 1.0 / 3.0) <= 1e-9
    assert report["ratio_rho14_over_sqrt_rho22_rho33"] is None


def test_steady_key_order_deterministic(capsys):
    _, first, _ = run_cli(capsys, "steady", "--eta", "0.7")
    _, second, _ = run_cli(capsys, "steady", "--eta", "0.7")
    assert first == second
    keys = list(json.loads(first).keys())
    assert keys == [
        "eta", "p", "bell", "concurrence_infinity",
        "ratio_rho14_over_sqrt_rho22_rho33", "ratio_published_formula",
        "pre_norm_trace_infinity", "rho_infinity",
    ]


def test_long_time_answers_are_correctly_rounded(capsys):
    # U(infinity) is formed without a square root, so these exact values
    # come out to the last bit
    _, out, _ = run_cli(capsys, "steady", "--eta", "1", "--bell", "psi")
    report = json.loads(out)
    assert report["concurrence_infinity"] == 0.16
    assert report["pre_norm_trace_infinity"] == 0.78125
    _, out, _ = run_cli(capsys, "esd", "--eta", "1", "--bell", "phi")
    assert json.loads(out)["concurrence_limit"] == 0.3333333333333333


def test_steady_rho_matrix_shape(capsys):
    _, out, _ = run_cli(capsys, "steady", "--eta", "1")
    rho = json.loads(out)["rho_infinity"]
    assert len(rho) == 4 and all(len(row) == 4 for row in rho)
    assert all(len(entry) == 2 for row in rho for entry in row)


def _steady_report_9x9(params, bell):
    """The steady report read through the 9x9 pair evolved to t = infinity: the pair
    map, the projection and the X-form concurrence."""
    kind = BellKind(bell)
    projected = project_to_qubits(evolve_pair(params, params, bell_state(kind), math.inf))
    rho = projected.rho
    ratio = ratio_published = None
    if kind is BellKind.PSI:
        denom = math.sqrt(max(rho[1, 1].real, 0.0) * max(rho[2, 2].real, 0.0))
        ratio = float(abs(rho[0, 3]) / denom) if denom > 1e-15 else None
        ratio_published = 4.0 * (params.eta**2 / (1.0 + params.eta**2))
    return {
        "eta": params.eta,
        "p": params.p,
        "bell": bell,
        "concurrence_infinity": concurrence_x(rho),
        "ratio_rho14_over_sqrt_rho22_rho33": ratio,
        "ratio_published_formula": ratio_published,
        "pre_norm_trace_infinity": projected.pre_norm_trace,
        "rho_infinity": [[[rho[i, j].real, rho[i, j].imag] for j in range(4)] for i in range(4)],
    }


def _flat_numbers(value):
    if isinstance(value, list):
        return [x for item in value for x in _flat_numbers(item)]
    return [value]


STEADY_ETAS = (0.0, 1e-9, 0.3, 1.0 / math.sqrt(3.0), 1.0, math.sqrt(2.0), 2.5, 1e100)
STEADY_PS = (0.0, 0.5, 1.0 - 1e-9, 1.0)


@pytest.mark.parametrize("bell", ["psi", "phi"])
@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_steady_report_matches_the_9x9_pair_route(capsys, bell, gamma):
    # 2 x 2 x 8 x 4 = 128 configs; a value above 1 within 1e-13 relative
    for eta, p in itertools.product(STEADY_ETAS, STEADY_PS):
        code, out, err = run_cli(capsys, "steady", "--eta", repr(eta), "--p", repr(p),
                                 "--gamma", repr(gamma), "--bell", bell)
        assert code == 0, err
        got = json.loads(out)
        want = _steady_report_9x9(VParams(gamma=gamma, eta=eta, p=p), bell)
        assert list(got) == list(want)
        for key in want:
            for a, b in zip(_flat_numbers(got[key]), _flat_numbers(want[key]), strict=True):
                if isinstance(b, str) or b is None:
                    assert a == b, (eta, p, key)
                else:
                    assert abs(a - b) <= 1e-13 * max(1.0, abs(b)), (eta, p, key, a, b)


# -------------------------------------------------------------------- compare

def test_compare_closes_at_unit_eta(capsys):
    code, out, _ = run_cli(capsys, "compare", "--eta", "1", "--steps", "100")
    assert code == 0
    report = json.loads(out)
    single = report["single_atom"]
    for block in (single["excited"], single["superposition"]):
        for dev in block.values():
            assert dev <= 1e-8
    assert single["rho11_infinity"]["deviation"] <= 1e-8
    psi = report["pair_psi"]
    for key in ("rho14", "rho22", "rho33", "rho11_half_printed"):
        assert psi[key] <= 1e-8
    assert report["pair_phi"]["rho23"] <= 1e-8
    # the misprinted normalization is flagged, not folded into deviations
    assert psi["rho11_printed_at_t0"] == pytest.approx(1.0, abs=1e-12)
    assert psi["rho11_required_at_t0"] == 0.5


def test_compare_reports_discrepancies_at_root_two(capsys):
    code, out, _ = run_cli(capsys, "compare", "--eta", SQRT2, "--steps", "100")
    assert code == 0  # reporting tool, not a gate
    report = json.loads(out)
    inf = report["single_atom"]["rho11_infinity"]
    assert abs(inf["deviation"] - 1.0 / 9.0) <= 1e-9
    assert abs(inf["published"] - 1.0 / 3.0) <= 1e-12
    assert abs(inf["oracle"] - 4.0 / 9.0) <= 1e-9
    psi = report["pair_psi"]
    assert psi["rho14"] <= 1e-8
    assert psi["rho22"] > 1e-6 and psi["rho33"] > 1e-6
    assert psi["rho11_half_printed"] > 1e-6


def test_compare_half_eta_only_coherence_element_matches(capsys):
    code, out, _ = run_cli(capsys, "compare", "--eta", "0.5", "--steps", "100")
    assert code == 0
    psi = json.loads(out)["pair_psi"]
    assert psi["rho14"] <= 1e-8
    assert psi["rho22"] > 1e-6


def test_compare_reads_one_propagator_per_time(capsys, monkeypatch):
    calls = []
    no_jump = vicsim.vsystem._no_jump_propagator

    def counted(params, t):
        calls.append(t)
        return no_jump(params, t)

    def refused(*args, **kwargs):
        raise AssertionError("compare built a 9x9 channel or a pair state")

    monkeypatch.setattr(vicsim.vsystem, "_no_jump_propagator", counted)
    # every 9x9 channel is assembled by _channel_from_no_jump
    for module, name in ((vicsim.vsystem, "_channel_from_no_jump"),
                         (vicsim.cli, "propagate_channel"),
                         (vicsim.bipartite, "apply_pair_channel")):
        monkeypatch.setattr(module, name, refused)
    code, _, err = run_cli(capsys, "compare", "--eta", "0.5", "--steps", "17")
    assert code == 0, err
    assert len(calls) == len(set(calls)) == 17


def test_compare_at_an_eta_whose_square_nearly_overflows(capsys):
    # eta^2 = 1e308: the published rho11 doubled eta^2 before dividing it
    code, out, err = run_cli(capsys, "compare", "--eta", "1e154", "--steps", "3")
    assert code == 0, err

    def reject(name):
        raise AssertionError(f"non-finite {name} in the report")

    def finite(token):
        assert math.isfinite(float(token)), token
        return float(token)

    single = json.loads(out, parse_constant=reject, parse_float=finite)["single_atom"]
    assert set(single["excited"]) == set(single["superposition"]) == {"rho11", "rho33", "rho13"}


def _per_time_compare(params, times):
    """The audit read one time at a time: the deviations compare reports."""
    singles = {"excited": excited_state(), "superposition": superposition_state()}
    psi0, phi0 = bell_state(BellKind.PSI), bell_state(BellKind.PHI)
    worst = {
        "excited": dict.fromkeys(("rho11", "rho33", "rho13"), 0.0),
        "superposition": dict.fromkeys(("rho11", "rho33", "rho13"), 0.0),
        "psi": dict.fromkeys(("rho14", "rho22", "rho33", "rho11_half_printed"), 0.0),
        "phi": {"rho23": 0.0},
    }

    def note(section, key, deviation):
        worst[section][key] = max(worst[section][key], deviation)

    for t in times:
        chan = propagate_channel(params, t)
        for name, rho0 in singles.items():
            rho = apply_channel(chan, rho0)
            pub = published_single_atom(params, rho0, t)
            note(name, "rho11", abs(pub.rho11 - rho[0, 0].real))
            note(name, "rho33", abs(pub.rho33 - rho[2, 2].real))
            note(name, "rho13", abs(pub.rho13 - rho[0, 2]))
        psi = qubit_block(apply_pair_channel(chan, chan, psi0))
        pub = published_pair_elements(params, BellKind.PSI, t)
        note("psi", "rho14", abs(pub["rho14"] - abs(psi[0, 3])))
        note("psi", "rho22", abs(pub["rho22"] - psi[1, 1].real))
        note("psi", "rho33", abs(pub["rho33"] - psi[2, 2].real))
        note("psi", "rho11_half_printed", abs(pub["rho11"] / 2.0 - psi[0, 0].real))
        phi = qubit_block(apply_pair_channel(chan, chan, phi0))
        pub = published_pair_elements(params, BellKind.PHI, t)
        note("phi", "rho23", abs(pub["rho23"] - abs(phi[1, 2])))
    return worst


@pytest.mark.parametrize("eta, gamma", itertools.product(
    (0.0, 0.5, 1.0 / math.sqrt(3.0), 1.0, math.sqrt(2.0), 3.0), (0.5, 1.0, 2.0)))
def test_compare_matches_the_per_time_audit(capsys, eta, gamma):
    params = VParams(gamma=gamma, eta=eta, p=1.0)
    for steps in (2, 17, COMPARE_CHUNK - 1, COMPARE_CHUNK, COMPARE_CHUNK + 1, 3 * COMPARE_CHUNK + 5):
        code, out, _ = run_cli(capsys, "compare", "--eta", repr(eta), "--gamma", repr(gamma),
                               "--steps", str(steps))
        assert code == 0
        report = json.loads(out)
        got = {
            "excited": report["single_atom"]["excited"],
            "superposition": report["single_atom"]["superposition"],
            "psi": {key: report["pair_psi"][key] for key in
                    ("rho14", "rho22", "rho33", "rho11_half_printed")},
            "phi": report["pair_phi"],
        }
        want = _per_time_compare(params, np.linspace(0.0, 10.0, steps) / gamma)
        for section, values in want.items():
            assert list(got[section]) == list(values)
            for key, value in values.items():
                assert abs(got[section][key] - value) <= 1e-15, (steps, section, key)


def test_compare_temporaries_stay_bounded(capsys):
    # a chunk of COMPARE_CHUNK times at a time: the whole 50-chunk grid at once
    # would stack ~11 MB of propagators, states and deviations
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "compare", "--steps", str(50 * COMPARE_CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 5e6


def test_compare_requires_full_interference(capsys):
    code, _, err = run_cli(capsys, "compare", "--p", "0.5")
    assert code == 2
    assert "p = 1" in err


# ------------------------------------------------------------------------ esd

def test_esd_asymptotic_positive(capsys):
    code, out, _ = run_cli(capsys, "esd", "--bell", "psi", "--eta", SQRT2)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "asymptotic_positive"
    assert abs(report["concurrence_limit"] - 24.0 / 65.0) <= 1e-6


def test_esd_asymptotic_zero(capsys):
    code, out, _ = run_cli(capsys, "esd", "--bell", "phi", "--p", "0")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "asymptotic_zero"
    assert "gamma_t_death" not in report and "concurrence_limit" not in report


def test_esd_product_state_hook(capsys):
    code, out, _ = run_cli(capsys, "esd", "--initial", "product")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "vanishes_at"
    assert report["gamma_t_death"] == 0.0


def test_esd_product_report_names_the_evolved_start(capsys):
    # --bell names a start the product run never evolves, so no report echoes it
    reports = [run_cli(capsys, "esd", "--initial", "product", "--bell", bell, "--eta", "0.5")
               for bell in ("psi", "phi")]
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert list(report) == ["eta", "p", "initial", "kind", "gamma_t_death"]
    assert report["initial"] == "product"


def test_esd_product_state_rejects_paper_method(capsys):
    code, out, err = run_cli(capsys, "esd", "--initial", "product", "--method", "paper")
    assert code == 2 and out == ""
    assert err == ("error: published forms cover only the Bell starts: "
                   "an explicit start supports the oracle method only\n")


@pytest.mark.parametrize("args", [("curve", "--method", "paper"), ("esd", "--method", "paper"),
                                  ("compare",)], ids=" ".join)
def test_the_published_domain_is_stated_once(capsys, args):
    # published.check_published is the one statement of p = 1, for every command form
    code, out, err = run_cli(capsys, *args, "--p", "0.5")
    assert (code, out, err) == (2, "", "error: published closed forms require p = 1\n")


def test_a_study_wide_method_is_checked_by_the_commands_own_row(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("method = paper\n")
    code, out, err = run_cli(capsys, "single", "--config", str(config))
    assert (code, out, err) == (2, "", "error: method must be oracle, got 'paper'\n")
    code, out, err = run_cli(capsys, "steady", "--config", str(config))
    assert (code, err) == (0, "") and json.loads(out)["bell"] == "psi"


DOMAIN_P = ("0", "0.25", "0.5", "0.75", "0.99", "0.999999999", "1")
DOMAIN_ETA = ("0", "0.5", "1", "2", "3")


@pytest.mark.parametrize("bell", ["psi", "phi"])
def test_steady_and_esd_answer_over_the_domain(capsys, bell):
    # below maximal interference (and at eta = 0) every excitation ends on
    # the ground level however slow the decay, so nothing stays entangled
    for p in DOMAIN_P:
        for eta in DOMAIN_ETA:
            common = ("--p", p, "--eta", eta, "--bell", bell)
            code, out, err = run_cli(capsys, "steady", *common)
            assert code == 0, (common, err)
            conc = json.loads(out)["concurrence_infinity"]
            code, out, err = run_cli(capsys, "esd", *common)
            assert code == 0, (common, err)
            kind = json.loads(out)["kind"]
            # a Bell start never dies in finite time (Yu-Eberly at eta = 0)
            assert kind != "vanishes_at", common
            if float(p) < 1.0 and float(eta) > 0.0:
                assert conc == 0.0, common
                assert kind != "asymptotic_positive", common


# --------------------------------------------------------------------- config

def test_config_file_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults for this study\neta = 0.5\nbell = phi\nsteps = 40\n")
    code, out, _ = run_cli(capsys, "steady", "--config", str(config))
    assert code == 0
    assert json.loads(out)["eta"] == 0.5
    # flags override the file
    code, out, _ = run_cli(capsys, "steady", "--config", str(config), "--eta", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["eta"] == 1.0
    assert report["bell"] == "phi"


def test_config_file_is_closed_after_reading(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("eta = 0.5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, "steady", "--config", str(config))
    assert code == 0, err
    assert [str(w.message) for w in caught] == []


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("flux_capacitance = 1.21\n")
    code, _, err = run_cli(capsys, "steady", "--config", str(config))
    assert code == 2
    assert "unknown key" in err


# The flags each command takes: the shared ones and those it reads.
SHARED = ("--gamma", "--eta", "--p", "--output", "--config")
TAKES = {command: SHARED + flags for command, flags in {
    "curve": ("--bell", "--t-max", "--steps", "--method"),
    "single": ("--initial", "--t-max", "--steps", "--method"),
    "steady": ("--bell",),
    "compare": ("--t-max", "--steps"),
    "esd": ("--bell", "--method", "--initial"),
}.items()}


def _steps(command):
    """A short grid, for a command that reads one."""
    return ("--steps", "5") if "--steps" in TAKES[command] else ()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_an_empty_config_value_leaves_the_default(tmp_path, capsys, command):
    # every key empty, and eta set and then emptied: a run as with no file
    keys = [option.flag[2:].replace("-", "_") for option in OPTIONS if option.in_config]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} =\n" for key in keys) + "eta = 0.5\neta = # unset\n")
    want = run_cli(capsys, command, *_steps(command))
    assert run_cli(capsys, command, *_steps(command), "--config", str(config)) == want
    assert want[0] == 0 and want[2] == ""


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command):
    config = tmp_path / "run.cfg"
    config.write_text("eta = 0.5\n")
    initial = {option.flag: option for option in COMMANDS[command].options()}.get("--initial")
    valid = {"--gamma": "2", "--eta": "0.5", "--p": "1", "--bell": "phi", "--t-max": "3",
             "--steps": "4", "--method": "oracle",
             "--initial": initial.choices[-1] if initial else "product",
             "--output": str(tmp_path / "out"), "--config": str(config), "--format": "csv"}
    assert {option.flag for option in COMMANDS[command].options()} == set(TAKES[command])
    # --format is gone: every command writes the one format it always wrote
    for flag in [option.flag for option in OPTIONS] + ["--format"]:
        code, out, err = run_cli(capsys, command, flag, valid[flag])
        if flag in TAKES[command]:
            assert (code, err) == (0, ""), flag
        else:
            assert (code, out, err) == (2, "", f"error: unrecognized arguments: {flag} "
                                                f"{valid[flag]}\n"), flag


@pytest.mark.parametrize(
    "args",
    [
        ("curve", "--steps", "1"),
        ("curve", "--t-max", "0"),
        ("curve", "--p", "1.5"),
        ("curve", "--eta", "-1"),
        ("curve", "--format", "csv"),
        ("steady", "--format", "json"),
        ("curve", "--method", "paper", "--p", "0.5"),
        ("curve", "--eta", "nan"),
        ("curve", "--eta", "inf"),
        ("curve", "--gamma", "inf"),
        ("curve", "--gamma", "nan"),
        ("curve", "--p", "nan"),
        ("curve", "--t-max", "inf"),
        ("curve", "--t-max", "nan"),
        ("curve", "--p", "1", "--eta", "1e200"),
        ("esd", "--eta", "nan"),
        ("steady", "--eta", "nan"),
        ("single", "--gamma", "1e300", "--eta", "1e10"),
    ],
)
def test_invalid_config_single_line_diagnostic(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert err.startswith("error:")
    assert err.strip() and err.count("\n") == 1


@pytest.mark.parametrize("command", ["curve", "single", "compare"])
def test_unallocatable_grid_is_a_diagnostic(capsys, command):
    # 1e17 samples need 8e17 bytes, beyond any 64-bit address space, so the
    # allocation fails at once and touches no memory
    code, out, err = run_cli(capsys, command, "--steps", "100000000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: steps = 100000000000000000 is too many")
    assert err.count("\n") == 1


# Each command form that reads a gamma*t: t-max, or the esd scan horizon gamma*t = 50.
TIME_FORMS = [("curve",), ("curve", "--method", "paper"), ("single",), ("compare",),
              ("esd", "--initial", "product"), ("esd", "--method", "paper")]
# the smallest subnormal, subnormal, tiny, moderate and the largest gamma of the default eta
INVARIANCE_GAMMAS = ("5e-324", "1e-320", "1e-300", "0.7", "3.1", "1e300")


@pytest.mark.parametrize("form", TIME_FORMS + [("steady",), ("esd",)], ids=" ".join)
def test_the_cli_is_gamma_invariant(capsys, form):
    # --gamma sets the unit: every output is in gamma*t or dimensionless
    _, want, _ = run_cli(capsys, *form, "--gamma", "1", *_steps(form[0]))
    for gamma in INVARIANCE_GAMMAS:
        code, out, err = run_cli(capsys, *form, "--gamma", gamma, *_steps(form[0]))
        assert (code, err) == (0, ""), gamma
        assert without_gamma_echo(out) == without_gamma_echo(want), gamma


@pytest.mark.parametrize("command", ["curve", "single", "steady", "compare", "esd"])
@pytest.mark.parametrize("target", ["missing-directory", "directory", "empty"])
def test_unwritable_output_is_a_diagnostic(tmp_path, capsys, command, target):
    # only "-" is stdout; an empty path is no file (a config-file "output =" unsets the key)
    path = {"missing-directory": str(tmp_path / "missing" / "out.txt"),
            "directory": str(tmp_path), "empty": ""}[target]
    code, out, err = run_cli(capsys, command, *_steps(command), "--output", path)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vicsim", "curve", "--steps", "5", "--t-max", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("gamma_t,")
    bad = subprocess.run(
        [sys.executable, "-m", "vicsim", "curve", "--bell", "omega"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2


def test_parser_reused_across_calls_matches_fresh_processes(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("eta = 0.5\nbell = phi\n")
    runs = [
        ("steady", "--eta", "2", "--p", "0.5"),
        ("steady", "--p", "1.5"),
        ("steady", "--bell", "omega"),
        ("steady", "--config", str(config)),
        ("steady", "--eta", "2", "--p", "0.5"),
    ]
    results = [run_cli(capsys, *args) for args in runs]
    assert results[0] == results[-1]
    for (code, out, err), bad in zip(results[1:3], runs[1:3]):
        assert code == 2 and out == "", bad
        assert err.startswith("error:") and err.count("\n") == 1, bad
    for args, result in zip(runs[:-1], results):
        proc = subprocess.run([sys.executable, "-m", "vicsim", *args],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == result, args


RUNTIME_MODULES = ("vicsim", "vicsim.cli", "vicsim.vsystem", "vicsim.bipartite",
                   "vicsim.entanglement", "vicsim.published")


def test_cli_import_leaves_scipy_out():
    # the runtime is numpy-only; scipy serves only the oracle cross-checks in
    # vicsim.oracles, which no runtime module imports, and mpmath only the
    # arbitrary-precision reference of the tests
    probe = ("import sys, {}; "
             "print(sorted({{'mpmath', 'scipy', 'vicsim.oracles'}} & set(sys.modules)))")
    procs = [subprocess.Popen([sys.executable, "-c", probe.format(module)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for module in RUNTIME_MODULES]
    for module, proc in zip(RUNTIME_MODULES, procs):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out.strip() == "[]", module
    import vicsim.oracles  # noqa: F401  (the oracles still import, scipy and all)

    assert importlib.util.find_spec("vicsim.qlinalg") is None


def test_only_the_published_module_knows_the_printed_forms():
    # loaded without the package's re-exports, the oracle dynamics leave
    # vicsim.published out, and the CLI binds no printed form
    probe = ("import sys, types; package = types.ModuleType('vicsim'); "
             f"package.__path__ = {list(vicsim.__path__)!r}; sys.modules['vicsim'] = package; "
             "import vicsim.vsystem, vicsim.bipartite; "
             "print(sorted(name for name in sys.modules if name.startswith('vicsim')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['vicsim', 'vicsim.bipartite', 'vicsim.vsystem']"
    assert [name for name in vars(vicsim.cli) if name.startswith("published_")] == []
