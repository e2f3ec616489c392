import subprocess
import sys

import pytest

from cavitymix import cli
from cavitymix.gaussian import SymplecticPairingError
from cavitymix.profiles import QuadratureError
from conftest import REPO_ROOT, SCENARIO_DIR, child_env


def run_cli(*args, cwd):
    result = subprocess.run(
        [sys.executable, "-m", "cavitymix", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=child_env(),
    )
    if "No module named cavitymix" in result.stderr:
        pytest.fail(
            "test environment fault: the child interpreter could not import "
            f"cavitymix from {REPO_ROOT / 'src'}:\n{result.stderr}",
            pytrace=False,
        )
    return result


def strip_timestamp(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# generated")
    )


def test_run_evolve_scenario(tmp_path):
    result = run_cli(
        "run", str(SCENARIO_DIR / "evolve_resonant.yaml"), "--out", "ev.csv", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert "evolve" in result.stdout and "36 rows" in result.stdout
    lines = (tmp_path / "ev.csv").read_text().splitlines()
    assert lines[0].startswith("# cavitymix")
    assert lines[3] == "m,n,re_a_hat,im_a_hat,re_b_hat,im_b_hat"
    assert len(lines) == 4 + 36


def test_validate_reports_ok(tmp_path):
    result = run_cli("validate", str(SCENARIO_DIR / "negativity_ridge.yaml"), cwd=tmp_path)
    assert result.returncode == 0
    assert result.stdout.startswith("ok")
    assert not (tmp_path / "negativity_ridge.csv").exists()


def test_rigidity_violation_exits_one(tmp_path):
    scenario = tmp_path / "too_fast.yaml"
    scenario.write_text(
        "kind: evolve\n"
        "cavity: {length: 1.0}\n"
        "profile: {variant: sinusoidal, h0: 2.5, omega_c: 3.0, tauf: 5.0}\n",
        encoding="utf-8",
    )
    result = run_cli("validate", str(scenario), cwd=tmp_path)
    assert result.returncode == 1
    assert "rigidity bound |h| < 2" in result.stderr
    assert "sup|h| = 2.5" in result.stderr
    # run refuses identically
    result = run_cli("run", str(scenario), cwd=tmp_path)
    assert result.returncode == 1


def test_missing_state_block_exits_one(tmp_path):
    scenario = tmp_path / "sweep.yaml"
    scenario.write_text(
        "kind: negativity_sweep\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "sweep:\n"
        "  h0: 1.0e-3\n"
        "  omega_c: [3.0]\n"
        "  delta_tau: [5.0]\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(scenario), cwd=tmp_path)
    assert result.returncode == 1
    assert "error: state:" in result.stderr


def test_bad_field_value_exits_one_without_traceback(tmp_path):
    scenario = tmp_path / "bad_mass.yaml"
    scenario.write_text(
        "kind: evolve\n"
        "cavity: {length: 1.0, mu0: abc}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 3.0, tauf: 5.0}\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(scenario), cwd=tmp_path)
    assert result.returncode == 1
    assert "error: cavity.mu0:" in result.stderr
    assert "Traceback" not in result.stderr


def test_reruns_are_deterministic(tmp_path):
    scenario = str(SCENARIO_DIR / "negativity_ridge.yaml")
    first = run_cli("run", scenario, "--out", "a.csv", cwd=tmp_path)
    second = run_cli("run", scenario, "--out", "b.csv", cwd=tmp_path)
    assert first.returncode == 0 and second.returncode == 0
    a = strip_timestamp((tmp_path / "a.csv").read_text())
    b = strip_timestamp((tmp_path / "b.csv").read_text())
    assert a == b


def test_unreachable_tolerance_exits_two(tmp_path):
    result = run_cli(
        "run",
        str(SCENARIO_DIR / "evolve_resonant.yaml"),
        "--out",
        "ev.csv",
        "--tol",
        "1e-30",
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "numerical failure" in result.stderr
    assert "quadrature" in result.stderr


def test_sweep_unreachable_tolerance_exits_two(tmp_path):
    result = run_cli(
        "run", str(SCENARIO_DIR / "negativity_ridge.yaml"), "--out", "nr.csv", "--tol", "1e-30",
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert "numerical failure (profiles quadrature)" in result.stderr
    assert not (tmp_path / "nr.csv").exists()


def test_overflowing_drive_exits_two_without_warnings(tmp_path):
    scenario = tmp_path / "fast_drive.yaml"
    scenario.write_text(
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 6}\n"
        "profile: {variant: sinusoidal, h0: 0.001, omega_c: 1.0e+308, tauf: 50.0}\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(scenario), "--out", "ev.csv", cwd=tmp_path)
    assert result.returncode == 2
    assert "numerical failure" in result.stderr
    assert "Warning" not in result.stderr
    assert not (tmp_path / "ev.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
def test_bad_tolerance_exits_one(tmp_path, tol):
    result = run_cli(
        "run", str(SCENARIO_DIR / "evolve_resonant.yaml"), "--out", "ev.csv", f"--tol={tol}",
        cwd=tmp_path,
    )
    assert result.returncode == 1
    assert "error: --tol: " in result.stderr
    assert not (tmp_path / "ev.csv").exists()


def test_nmax_flag_shrinks_output(tmp_path):
    result = run_cli(
        "run",
        str(SCENARIO_DIR / "evolve_resonant.yaml"),
        "--out",
        "small.csv",
        "--nmax",
        "3",
        cwd=tmp_path,
    )
    assert result.returncode == 0
    lines = (tmp_path / "small.csv").read_text().splitlines()
    assert len(lines) == 4 + 9


def test_unwritable_output_path_exits_one_without_traceback(tmp_path):
    result = run_cli(
        "run", str(SCENARIO_DIR / "evolve_resonant.yaml"), "--out", "missing/ev.csv",
        cwd=tmp_path,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: --out: ")
    assert "Traceback" not in result.stderr
    scenario = tmp_path / "catalog.yaml"
    scenario.write_text(
        "kind: resonance_catalog\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "sweep: {max_omega: 10.0}\n"
        "output: {path: missing/catalog.csv}\n",
        encoding="utf-8",
    )
    result = run_cli("run", str(scenario), cwd=tmp_path)
    assert result.returncode == 1
    assert result.stderr.startswith("error: output.path: ")
    assert "Traceback" not in result.stderr


def test_default_output_path_from_output_block(tmp_path):
    result = run_cli("run", str(SCENARIO_DIR / "catalog_low_band.yaml"), cwd=tmp_path)
    assert result.returncode == 0
    assert (tmp_path / "catalog_low_band.csv").exists()


def test_experiment_csv_carries_si_frequency(tmp_path):
    result = run_cli(
        "run", str(SCENARIO_DIR / "desktop_linear.yaml"), "--out", "plan.csv", cwd=tmp_path
    )
    assert result.returncode == 0
    lines = (tmp_path / "plan.csv").read_text().splitlines()
    header = lines[3].split(",")
    values = lines[4].split(",")
    omega = float(values[header.index("omega_c_si")])
    assert omega == pytest.approx(4.2e6, rel=0.02)
    growth = float(values[header.index("growth_rate")])
    assert growth == pytest.approx(6e2, rel=0.15)


def test_usage_error_is_not_success(tmp_path):
    result = run_cli("explode", cwd=tmp_path)
    assert result.returncode != 0
    # the parser itself refused the command, not a failing import
    assert "invalid choice" in result.stderr and "explode" in result.stderr


def test_bad_option_value_exits_one(tmp_path):
    result = run_cli(
        "run", str(SCENARIO_DIR / "evolve_resonant.yaml"), "--nmax", "abc", cwd=tmp_path
    )
    assert result.returncode == 1
    assert "--nmax" in result.stderr
    assert "numerical failure" not in result.stderr


@pytest.mark.parametrize("n_max, bound", [("1", ">= 2"), ("5000", "<= 1000")])
def test_nmax_out_of_bounds_blames_the_option(tmp_path, n_max, bound):
    result = run_cli(
        "run", str(SCENARIO_DIR / "evolve_resonant.yaml"), "--nmax", n_max, cwd=tmp_path
    )
    assert result.returncode == 1
    assert result.stderr == f"error: --nmax: must be {bound}, got {n_max}\n"
    assert not (tmp_path / "evolve_resonant.csv").exists()


def test_repeated_key_exits_one_without_traceback(tmp_path):
    scenario = tmp_path / "twice.yaml"
    scenario.write_text(
        "kind: evolve\n"
        "cavity: {length: 1.0, n_max: 4}\n"
        "profile:\n"
        "  variant: sinusoidal\n"
        "  h0: 1.0e-3\n"
        "  omega_c: 3.0\n"
        "  tauf: 5.0\n"
        "  h0: 1.5\n",
        encoding="utf-8",
    )
    for command in ("validate", "run"):
        result = run_cli(command, str(scenario), cwd=tmp_path)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert "line 8, column 3: found duplicate key 'h0'" in lines[0]
        assert "Traceback" not in result.stderr
    assert not (tmp_path / "twice.csv").exists()


def test_missing_subcommand_exits_one_and_help_exits_zero(tmp_path):
    assert run_cli(cwd=tmp_path).returncode == 1
    assert run_cli("--help", cwd=tmp_path).returncode == 0


@pytest.mark.parametrize(
    "error, where",
    [(SymplecticPairingError, "gaussian spectrum"), (QuadratureError, "profiles quadrature")],
)
def test_numerical_failure_exits_two(tmp_path, monkeypatch, capsys, error, where):
    def fail(scenario, tol):
        raise error("injected")

    monkeypatch.setattr(cli, "run_scenario", fail)
    out = tmp_path / "never.csv"
    assert cli.main(["run", str(SCENARIO_DIR / "desktop_linear.yaml"), "--out", str(out)]) == 2
    assert f"numerical failure ({where}): injected" in capsys.readouterr().err
    assert not out.exists()


def test_other_runtime_errors_propagate(monkeypatch):
    def fail(scenario, tol):
        raise RuntimeError("not numerical")

    monkeypatch.setattr(cli, "run_scenario", fail)
    with pytest.raises(RuntimeError, match="not numerical"):
        cli.main(["run", str(SCENARIO_DIR / "desktop_linear.yaml")])
