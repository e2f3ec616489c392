import copy
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavitymix.bogoliubov import first_order_map, static_coefficients
from cavitymix.experiment import circular_report
from cavitymix.gaussian import negativity_grid
from cavitymix.profiles import QuadratureError, SinusoidalProfile
from cavitymix.scenarios import (
    ResultTable,
    ScenarioError,
    load_scenario,
    run_scenario,
)
from conftest import SCENARIO_DIR


def write(tmp_path, text, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_sample_scenarios_load(tmp_path):
    kinds = {
        "evolve_resonant.yaml": "evolve",
        "catalog_low_band.yaml": "resonance_catalog",
        "negativity_ridge.yaml": "negativity_sweep",
        "desktop_linear.yaml": "experiment_plan",
        "desktop_circular.yaml": "experiment_plan",
    }
    for name, kind in kinds.items():
        scenario = load_scenario(SCENARIO_DIR / name)
        assert scenario.kind == kind
        assert len(scenario.source_digest) == 64


def test_evolve_scenario_matches_direct_map():
    scenario = load_scenario(SCENARIO_DIR / "evolve_resonant.yaml")
    table = run_scenario(scenario)
    assert tuple(table.columns) == ("m", "n", "re_a_hat", "im_a_hat", "re_b_hat", "im_b_hat")
    n_max = scenario.cavity.n_max
    assert len(table) == n_max**2
    labels = [(m, n) for m in range(1, n_max + 1) for n in range(1, n_max + 1)]
    assert list(zip(table.columns["m"], table.columns["n"])) == labels
    coeffs = static_coefficients(scenario.cavity)
    map_ = first_order_map(coeffs, scenario.profile)
    a, b = map_.a_hat.ravel(), map_.b_hat.ravel()
    for name, expected in (
        ("re_a_hat", a.real), ("im_a_hat", a.imag), ("re_b_hat", b.real), ("im_b_hat", b.imag)
    ):
        assert np.array_equal(table.columns[name], expected), name
    a12 = map_.a_entry(1, 2)
    row = labels.index((1, 2))
    assert table.columns["re_a_hat"][row] == a12.real
    assert table.columns["im_a_hat"][row] == a12.imag


def test_nmax_override(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "evolve_resonant.yaml", n_max=3)
    assert scenario.cavity.n_max == 3
    table = run_scenario(scenario)
    assert len(table) == 9
    with pytest.raises(ScenarioError, match="--nmax: experiment_plan scenarios have no cavity"):
        load_scenario(SCENARIO_DIR / "desktop_linear.yaml", n_max=5)
    # The override is checked against the file's own n_max field, and blamed.
    for n_max, bound in ((1, ">= 2"), (5000, "<= 1000")):
        with pytest.raises(ScenarioError) as err:
            load_scenario(SCENARIO_DIR / "evolve_resonant.yaml", n_max=n_max)
        assert err.value.diagnostics == [f"--nmax: must be {bound}, got {n_max}"]


def test_sweep_scenario_row_layout():
    scenario = load_scenario(SCENARIO_DIR / "negativity_ridge.yaml")
    table = run_scenario(scenario)
    assert tuple(table.columns) == ("omega_c", "delta_tau", "negativity")
    assert len(table) == 27 * 10
    omegas = sorted(set(table.columns["omega_c"].tolist()))
    assert len(omegas) == 27
    assert all(value >= 0.0 for value in table.columns["negativity"])
    grid = negativity_grid(
        static_coefficients(scenario.cavity), scenario.pair, scenario.squeezing, scenario.h0,
        scenario.omega_c_values, scenario.delta_tau_values,
    )
    row = 0
    for j, omega_c in enumerate(scenario.omega_c_values):  # omega_c outer, delta_tau inner
        for i, dtau in enumerate(scenario.delta_tau_values):
            assert table.columns["omega_c"][row] == omega_c
            assert table.columns["delta_tau"][row] == dtau
            assert table.columns["negativity"][row] == grid[i, j]
            row += 1


def test_catalog_scenario_rows(tmp_path):
    scenario = load_scenario(SCENARIO_DIR / "catalog_low_band.yaml")
    table = run_scenario(scenario)
    header = ("kind", "m", "n", "omega_r", "coefficient", "growth_per_h0")
    assert tuple(table.columns) == header
    kinds = set(table.columns["kind"])
    assert kinds == {"mode_mixing", "particle_creation"}
    # no resonance of a 1 m massless cavity lies below 0.1: the header alone
    path = write(
        tmp_path,
        "kind: resonance_catalog\n"
        "cavity: {length: 1.0, mu0: 0.0}\n"
        "sweep: {max_omega: 0.1}\n",
    )
    empty = run_scenario(load_scenario(path))
    assert len(empty) == 0
    assert empty.render().splitlines()[3:] == [",".join(header)]


def test_plan_scenario_single_row():
    scenario = load_scenario(SCENARIO_DIR / "desktop_linear.yaml")
    table = run_scenario(scenario)
    assert len(table) == 1
    flat = {name: values[0] for name, values in table.columns.items()}
    assert flat["omega_c_si"] == pytest.approx(4.238216e6, rel=1e-5)
    # linear motion has no rotation figures: NaN cells, not missing ones
    assert math.isnan(flat["rpm"]) and math.isnan(flat["centripetal_acceleration"])
    row = dict(zip(table.columns, table.render().splitlines()[4].split(",")))
    assert row["rigidity_ok"] == "1"
    circular = load_scenario(SCENARIO_DIR / "desktop_circular.yaml")
    rpm = run_scenario(circular).columns["rpm"][0]
    assert rpm == circular_report(circular.experiment).rpm


def test_render_format(tmp_path):
    floats = [0.1, 1.0 / 3.0, -0.0, math.nan, math.inf]
    table = ResultTable(
        columns={
            "a": [1, 2, 3, 4, 5],
            "b": np.array(floats),
            "kind": ["mode_mixing", "x", "y", "z", "w"],
            "ok": np.array([True, False, True, False, True]),
        },
        scenario_digest="f" * 64,
        generated="2026-08-19T00:00:00+00:00",
    )
    assert len(table) == 5
    text = table.render()
    lines = text.splitlines()
    assert lines[0].startswith("# cavitymix ")
    assert lines[1] == "# scenario sha256: " + "f" * 64
    assert lines[2] == "# generated: 2026-08-19T00:00:00+00:00"
    assert lines[3] == "a,b,kind,ok"
    assert lines[4] == "1,0.10000000000000001,mode_mixing,1"
    # 17 significant digits round-trip exactly
    assert float(lines[5].split(",")[1]) == 1.0 / 3.0
    assert lines[5:] == ["2,0.33333333333333331,x,0", "3,-0,y,1", "4,nan,z,0", "5,inf,w,1"]
    assert [line.split(",")[1] for line in lines[4:]] == [format(x, ".17g") for x in floats]
    out = tmp_path / "t.csv"
    table.write(out)
    assert out.read_text(encoding="utf-8") == text


def test_render_stamps_utc_time_to_the_second():
    table = ResultTable(columns={"a": [1]}, scenario_digest="0" * 64)
    stamp = table.render().splitlines()[2]
    assert re.fullmatch(r"# generated: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp), stamp


def test_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ResultTable(columns={"a": [1.0], "b": []}, scenario_digest="0" * 64)
    with pytest.raises(ValueError, match="unequal length"):
        ResultTable(
            columns={"a": np.zeros(3), "b": [1.0, 2.0], "c": np.zeros(3)},
            scenario_digest="0" * 64,
        )


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "absent.yaml")
    path = write(tmp_path, "kind: [unclosed\n")
    with pytest.raises(ScenarioError, match="parse error"):
        load_scenario(path)
    # Each parse error is one diagnostic line, also one that is not at a line and column.
    (tmp_path / "bytes.yaml").write_bytes(b"kind: \xff\n")
    for name in ("scn.yaml", "bytes.yaml"):
        with pytest.raises(ScenarioError) as err:
            load_scenario(tmp_path / name)
        (diagnostic,) = err.value.diagnostics
        assert "YAML parse error" in diagnostic and "\n" not in diagnostic, diagnostic
    path = write(tmp_path, "- just\n- a list\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(path)


def test_repeated_keys_are_refused_at_any_depth(tmp_path):
    nested = EVOLVE.replace("tauf: 5.0}", "tauf: 5.0, h0: 1.5}")
    top = EVOLVE + "cavity: {length: 2.0, n_max: 4}\n"
    for text, line, key in ((nested, 3, "h0"), (top, 4, "cavity")):
        with pytest.raises(ScenarioError) as err:
            load_scenario(write(tmp_path, text))
        (diagnostic,) = err.value.diagnostics
        assert re.fullmatch(
            rf".*: YAML parse error at line {line}, column \d+: found duplicate key '{key}'",
            diagnostic,
        ), diagnostic
    # A merge key may repeat, and a mapping may override what it merges.
    merged = "kind: resonance_catalog\ncavity: {<<: {length: 2.0}, <<: {mu0: 0.0}, length: 1.0}\n"
    scenario = load_scenario(write(tmp_path, merged + "sweep: {max_omega: 5.0}\n"))
    assert scenario.cavity.length == 1.0


def test_unknown_kind_and_block(tmp_path):
    path = write(tmp_path, "kind: telepathy\n")
    with pytest.raises(ScenarioError, match="kind"):
        load_scenario(path)
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n"
        "extra: {}\n",
    )
    with pytest.raises(ScenarioError, match="unknown top-level block"):
        load_scenario(path)


def test_rigidity_diagnostic_cites_bound(tmp_path):
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 2.5, omega_c: 3.0, tauf: 5.0}\n",
    )
    with pytest.raises(ScenarioError, match=r"rigidity bound \|h\| < 2") as err:
        load_scenario(path)
    assert any("sup|h| = 2.5" in line for line in err.value.diagnostics)


def test_missing_state_block_has_field_path(tmp_path):
    path = write(
        tmp_path,
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "sweep:\n"
        "  h0: 1.0e-3\n"
        "  omega_c: [3.0, 3.2]\n"
        "  delta_tau: [5.0, 10.0]\n",
    )
    with pytest.raises(ScenarioError, match="state") as err:
        load_scenario(path)
    assert err.value.diagnostics[0].startswith("state:")


def test_state_and_sweep_validation(tmp_path):
    base = (
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "state: {pair: [1, 9], squeezing: -1.0}\n"
        "sweep:\n"
        "  h0: 3.0\n"
        "  omega_c: [-1.0]\n"
        "  delta_tau: [0.0]\n"
    )
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, base))
    text = "\n".join(err.value.diagnostics)
    assert "state.pair" in text
    assert "state.squeezing" in text
    assert "sweep.h0" in text and "rigidity" in text
    assert "sweep.omega_c" in text
    assert "sweep.delta_tau" in text


def test_range_mapping_validation(tmp_path):
    path = write(
        tmp_path,
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "state: {pair: [1, 2], squeezing: 0.5}\n"
        "sweep:\n"
        "  h0: 1.0e-3\n"
        "  omega_c: {start: 3.0, stop: 3.3}\n"
        "  delta_tau: {start: 5.0, stop: 50.0, count: 0}\n",
    )
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    text = "\n".join(err.value.diagnostics)
    assert "sweep.omega_c" in text and "count" in text
    assert "sweep.delta_tau.count" in text


def test_range_mapping_expands_to_linspace(tmp_path):
    path = write(
        tmp_path,
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "state: {pair: [1, 2], squeezing: 0.5}\n"
        "sweep:\n"
        "  h0: 1.0e-3\n"
        "  omega_c: {start: 3.0, stop: 3.2, count: 5}\n"
        "  delta_tau: [4.0, 8.0]\n",
    )
    scenario = load_scenario(path)
    assert np.allclose(scenario.omega_c_values, np.linspace(3.0, 3.2, 5))
    assert np.allclose(scenario.delta_tau_values, [4.0, 8.0])


def test_catalog_requires_max_omega(tmp_path):
    path = write(tmp_path, "kind: resonance_catalog\ncavity: {length: 1.0}\nsweep: {}\n")
    with pytest.raises(ScenarioError, match="max_omega"):
        load_scenario(path)


def test_experiment_scenario_validation(tmp_path):
    path = write(
        tmp_path,
        "kind: experiment_plan\n"
        "experiment:\n"
        "  lx: 0.01\n"
        "  ly: 0.01\n"
        "  lz: 0.01\n"
        "  motion: {type: warp, amplitude: 1.0e-6}\n",
    )
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    text = "\n".join(err.value.diagnostics)
    assert "experiment.motion.type" in text
    assert "experiment.wavelength" in text


def test_output_block(tmp_path):
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n"
        "output: {path: custom.csv, format: csv}\n",
    )
    assert load_scenario(path).output_path == "custom.csv"
    bare = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n",
        name="bare.yaml",
    )
    assert load_scenario(bare).output_path == "bare.csv"
    bad = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n"
        "output: {format: json}\n",
        name="bad.yaml",
    )
    with pytest.raises(ScenarioError, match="output.format"):
        load_scenario(bad)


def test_profile_variants_round_trip(tmp_path):
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: piecewise_constant\n"
        "  segments: [[1.0, 0.01], [2.0, -0.005]]\n",
    )
    scenario = load_scenario(path)
    assert scenario.profile.evaluate(1.5) == -0.005
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: sampled\n"
        "  tau: [0.0, 1.0, 2.0]\n"
        "  h: [0.0, 0.01, 0.0]\n",
        name="sampled.yaml",
    )
    assert load_scenario(path).profile.evaluate(0.5) == pytest.approx(0.005)
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: windowed_sinusoid\n"
        "  h0: 0.01\n"
        "  omega_c: 3.0\n"
        "  window_time: 1.0\n"
        "  tauf: 6.0\n",
        name="windowed.yaml",
    )
    assert load_scenario(path).profile.evaluate(0.0) == pytest.approx(0.0, abs=1e-15)
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: ramp\n"
        "  h0: 0.01\n"
        "  ramp_time: 1.0\n"
        "  tauf: 6.0\n",
        name="ramp.yaml",
    )
    assert load_scenario(path).profile.evaluate(3.0) == pytest.approx(0.01)
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile: {variant: sawtooth, h0: 0.01}\n",
        name="unknown.yaml",
    )
    with pytest.raises(ScenarioError, match="profile.variant"):
        load_scenario(path)


def test_e_notation_numbers_load_as_floats(tmp_path):
    # YAML 1.1 reads 1e-3 and 1e1 (no dot, unsigned exponent) as strings.
    text = "kind: evolve\ncavity: {length: 1.0, n_max: 4}\nprofile: {variant: sinusoidal, %s}\n"
    short = load_scenario(write(tmp_path, text % "h0: 1e-3, omega_c: 3.0, tauf: 1e1"))
    full = load_scenario(write(tmp_path, text % "h0: 1.0e-3, omega_c: 3.0, tauf: 10.0", "b.yaml"))
    assert short.profile == full.profile
    assert (short.profile.h0, short.profile.tauf) == (1.0e-3, 10.0)


def test_profile_construction_error_is_diagnosed(tmp_path):
    path = write(
        tmp_path,
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: ramp\n"
        "  h0: 0.01\n"
        "  ramp_time: 4.0\n"
        "  tauf: 6.0\n",
    )
    with pytest.raises(ScenarioError, match="profile:"):
        load_scenario(path)


def test_run_scenario_digest_flows_into_table():
    scenario = load_scenario(SCENARIO_DIR / "desktop_linear.yaml")
    table = run_scenario(scenario)
    assert table.scenario_digest == scenario.source_digest


def test_sweep_pair_must_fit_truncation(tmp_path):
    path = write(
        tmp_path,
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "state: {pair: [1, 6], squeezing: 0.5}\n"
        "sweep:\n"
        "  h0: 1.0e-3\n"
        "  omega_c: [3.0]\n"
        "  delta_tau: [5.0]\n",
    )
    with pytest.raises(ScenarioError, match="truncation"):
        load_scenario(path)


SWEEP = (
    "kind: negativity_sweep\n"
    "cavity: {length: 1.0, n_max: 4}\n"
    "state: {pair: [1, 2], squeezing: 0.5}\n"
    "sweep:\n"
    "  h0: 1.0e-3\n"
    "  omega_c: OMEGA_C\n"
    "  delta_tau: DELTA_TAU\n"
)
PLAN = (
    "kind: experiment_plan\n"
    "experiment:\n"
    "  wavelength: 600.0e-9\n"
    "  lx: 0.01\n"
    "  ly: 0.01\n"
    "  lz: 0.01\n"
    "  motion: {type: linear, amplitude: 1.0e-6}\n"
)


EVOLVE = (
    "kind: evolve\n"
    "cavity: {length: 1.0, n_max: 4}\n"
    "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n"
)


def windowed(omega_c, window_time, tauf):
    return (
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        f"profile: {{variant: windowed_sinusoid, h0: 0.001, omega_c: {omega_c}, "
        f"window_time: {window_time}, tauf: {tauf}}}\n"
    )


def catalog(cavity):
    return f"kind: resonance_catalog\ncavity: {cavity}\nsweep: {{max_omega: 5.0}}\n"


def sweep(omega_c, delta_tau):
    return SWEEP.replace("OMEGA_C", omega_c).replace("DELTA_TAU", delta_tau)


@pytest.mark.parametrize(
    "text, field, fragment",
    [
        (catalog("{length: 1.0, mu0: abc}"), "cavity.mu0", ""),
        (catalog("{length: 1.0, n_max: 2.5}"), "cavity.n_max", ""),
        (catalog("{length: 1.0, n_max: '6'}"), "cavity.n_max", ""),
        (sweep("{start: a, stop: 3.0, count: 3}", "[5.0]"), "sweep.omega_c.start", ""),
        (sweep("[3.0]", "{start: 1.0, stop: [2], count: 3}"), "sweep.delta_tau.stop", ""),
        (sweep("[[3.0, 3.1]]", "[5.0]"), "sweep.omega_c", ""),
        (PLAN + "  pair: 3\n", "experiment.pair", ""),
        (PLAN + "  pair: [1, x]\n", "experiment.pair", ""),
        (PLAN + "  transverse: 7\n", "experiment.transverse", ""),
        (SWEEP.replace("pair: [1, 2]", "pair: [0, 1]"), "state.pair", "outside 1..n_max = 4"),
        (SWEEP.replace("pair: [1, 2]", "pair: [2, 2]"), "state.pair", "distinct"),
        (SWEEP.replace("h0: 1.0e-3", "h0: .nan"), "sweep.h0", ""),
        (sweep("[.nan]", "[5.0]"), "sweep.omega_c", ""),
        (SWEEP.replace("squeezing: 0.5", "squeezing: .inf"), "state.squeezing", ""),
        (PLAN.replace("amplitude: 1.0e-6", "amplitude: .nan"), "experiment.motion.amplitude", ""),
        (EVOLVE.replace("omega_c: 3.0", "omega_c: .nan"), "profile.omega_c", ""),
        (catalog("{length: 1.0, mu0: .nan}"), "cavity.mu0", ""),
        (EVOLVE.replace("h0: 0.001", "h0: true"), "profile.h0", ""),
        (catalog("{length: 1.0, nmax: 40}"), "cavity.nmax", ""),
        (EVOLVE.replace("tauf: 5.0", "tauf: 5.0, phse: 1.0"), "profile.phse", ""),
        (SWEEP.replace("squeezing: 0.5", "squeezing: 0.5, squeezng: 2.0"), "state.squeezng", ""),
        (SWEEP.replace("h0: 1.0e-3", "h0: 1.0e-3\n  extra: 1"), "sweep.extra", ""),
        (EVOLVE.replace(", tauf: 5.0", ""), "profile.tauf", ""),
        (SWEEP.replace("squeezing: 0.5", "squeezing: 1000"), "state.squeezing", ""),
        (catalog("{length: .inf}"), "cavity.length", ""),
        (catalog("{length: 1.0e-300}"), "cavity", ""),
        (sweep(f"{{start: 3.0, stop: 3.3, count: {10**39}}}", "[5.0]"), "sweep.omega_c.count", ""),
        (catalog(f"{{length: 1.0, n_max: {10**21}}}"), "cavity.n_max", ""),
        (windowed("1.0e+300", "1.0e+10", "1.0e+11"), "profile", "drive phase"),
        (EVOLVE.replace("tauf: 5.0", "tau0: -1.0e+308, tauf: 1.0e+308"), "profile", "length"),
        (
            "kind: evolve\ncavity: {length: 1.0, n_max: 4}\n"
            "profile: {variant: piecewise_constant, segments: [1, 2]}\n",
            "profile.segments",
            "must be a non-empty list of [duration, h] pairs",
        ),
    ],
    ids=[
        "mu0-text",
        "n_max-fraction",
        "n_max-string",
        "range-start-text",
        "range-stop-list",
        "range-nested-list",
        "plan-pair-scalar",
        "plan-pair-text",
        "plan-transverse-scalar",
        "sweep-pair-zero",
        "sweep-pair-equal",
        "sweep-h0-nan",
        "range-list-nan",
        "squeezing-inf",
        "plan-amplitude-nan",
        "profile-omega_c-nan",
        "mu0-nan",
        "profile-h0-bool",
        "cavity-unknown-nmax",
        "profile-unknown-phse",
        "state-unknown-squeezng",
        "sweep-unknown-extra",
        "profile-missing-tauf",
        "squeezing-overflow",
        "length-inf",
        "length-spectrum-overflow",
        "range-count-huge",
        "n_max-huge",
        "windowed-drive-phase-overflow",
        "profile-interval-length-overflow",
        "segments-not-pairs",
    ],
)
def test_bad_field_values_are_diagnosed(tmp_path, text, field, fragment):
    # `fragment` pins the message where the field alone is the block name.
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert any(
        line.startswith(f"{field}: ") and fragment in line for line in err.value.diagnostics
    ), err.value


SHIPPED = [yaml.safe_load(p.read_text(encoding="utf-8")) for p in sorted(SCENARIO_DIR.glob("*.yaml"))]
# Numbers spread evenly in magnitude over the float range, where the run-time
# guards against overflow sit; plain floats cluster near zero.
LOG_UNIFORM = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, 300.0),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    LOG_UNIFORM,
    st.text(max_size=3),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def _field_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _field_paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one or two fields replaced by junk or removed."""
    data = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    paths = list(_field_paths(data))
    for _ in range(draw(st.integers(1, 2))):
        *parents, key = draw(st.sampled_from(paths))
        node = data
        for parent in parents:
            node = node.get(parent) if isinstance(node, dict) else None
        if isinstance(node, dict) and key in node:
            if draw(st.booleans()):
                node[key] = draw(VALUES)
            else:
                del node[key]
    return data


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=mutated_scenarios())
@example(data=yaml.safe_load(windowed("3.0", "1.0e-300", "1.0e+10")))  # window phase
@example(data=yaml.safe_load(EVOLVE.replace("omega_c: 3.0", "omega_c: 1.0e+308")))  # integral
@example(data=yaml.safe_load(PLAN.replace("lx: 0.01", "lx: 1.0e+5")))  # elongation cap
def test_any_mapping_loads_or_is_diagnosed(tmp_path, data):
    path = write(tmp_path, yaml.safe_dump(data))
    try:
        scenario = load_scenario(path)
    except ScenarioError as err:
        assert err.diagnostics
        return
    assert scenario.kind in {"evolve", "resonance_catalog", "negativity_sweep", "experiment_plan"}
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # numpy warns before the check
            run_scenario(scenario)
    except QuadratureError:
        pass
