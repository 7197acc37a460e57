"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import pmdkit
from pmdkit import TransientModel, analytics, cli, scenario_to_config, stdnorm
from pmdkit.cli import main

from conftest import REFERENCE_CONFIGS, make_scenario


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.cfg"
    path.write_text(scenario_to_config(make_scenario("exponential", "rational")))
    return str(path)


@pytest.fixture
def fig3_path(tmp_path):
    path = tmp_path / "fig3.cfg"
    path.write_text(scenario_to_config(make_scenario("reciprocal", "rational")))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pmd-curve ---------------------------------------------------------------


def test_pmd_curve_row_count_and_schema(tmp_path, capsys, fig1_path):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys,
        ["pmd-curve", "--scenario", fig1_path, "--theta-min", "0.1", "--theta-max", "1.5",
         "--steps", "2", "--M-list", "5,10,25", "--out", str(out)],
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=pmd-curve-v1"
    header_idx = lines.index("theta,M,L_theta,q_theta,Q")
    data = lines[header_idx + 1 :]
    assert len(data) == 2 * 3  # steps x |M list|
    # resolved scenario is embedded as comments
    assert any(line.startswith("# mu.family = rational") for line in lines)
    # 17-significant-digit serialization
    first = data[0].split(",")
    assert first[0] == format(0.1, ".17g")


def test_pmd_curve_is_byte_identical_across_runs(tmp_path, capsys, fig1_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["pmd-curve", "--scenario", fig1_path, "--theta-min", "0.1", "--theta-max", "1.5",
            "--steps", "50", "--M-list", "5,25"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize(
    "bad_args",
    [
        ["--theta-min", "0.5", "--theta-max", "0.1", "--steps", "10"],
        ["--theta-min", "0.1", "--theta-max", "1.5", "--steps", "1"],
        ["--theta-min", "0.1", "--theta-max", "1.5", "--steps", "10", "--M-list", "5,x"],
        # log q = log q0 = -inf: Q would print as nan
        ["--theta-min", "0.1", "--theta-max", "1.5", "--steps", "10", "--set", "mu.c=1e308"],
    ],
)
def test_pmd_curve_usage_errors(tmp_path, capsys, fig1_path, bad_args):
    out = tmp_path / "c.csv"
    argv = ["pmd-curve", "--scenario", fig1_path, "--out", str(out)]
    if "--M-list" not in bad_args:
        argv += ["--M-list", "5"]
    code, stdout, err = run_cli(capsys, argv + bad_args)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# --- optimize ----------------------------------------------------------------


def test_optimize_report_fields(capsys, fig1_path):
    code, out, _ = run_cli(capsys, ["optimize", "--scenario", fig1_path])
    assert code == 0
    assert "# schema=optimize-v1" in out
    fields = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line and not line.startswith("#")
    )
    assert float(fields["b_residual"]) <= 1e-10
    assert float(fields["fixed_point_residual"]) <= 1e-8
    assert fields["boundary"] == "false"
    assert 0.1 < float(fields["theta_star"]) < 1.5


def test_optimize_reports_boundary_flag(capsys, fig3_path):
    code, out, _ = run_cli(capsys, ["optimize", "--scenario", fig3_path])
    assert code == 0
    assert "boundary=true" in out
    assert "theta_star=0.1" in out


def test_optimize_unsupported_family_exits_3(tmp_path, capsys):
    scenario = dataclasses.replace(
        make_scenario("reciprocal"), transient=TransientModel("budget_floor", A=1.5)
    )
    path = tmp_path / "floor.cfg"
    path.write_text(scenario_to_config(scenario))
    code, _, err = run_cli(capsys, ["optimize", "--scenario", str(path)])
    assert code == 3
    assert "budget_floor" in err


def test_optimize_report_is_deterministic(capsys, fig1_path):
    _, first, _ = run_cli(capsys, ["optimize", "--scenario", fig1_path])
    _, second, _ = run_cli(capsys, ["optimize", "--scenario", fig1_path])
    assert first == second


# --- min-sensors ---------------------------------------------------------------


def test_min_sensors_reference_run(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, ["min-sensors", "--scenario", fig1_path, "--delta", "0.05", "--m-max", "100"]
    )
    assert code == 0
    assert "M_min=19" in out
    assert "Q_at_M_min=" in out
    assert "Q_at_M_min_minus_1=" in out
    assert any(line.startswith("scan M=") for line in out.splitlines())


def test_min_sensors_trivial_delta(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, ["min-sensors", "--scenario", fig1_path, "--delta", "0.9999", "--m-max", "10"]
    )
    assert code == 0
    assert "M_min=1" in out


def test_min_sensors_infeasible_exits_4(capsys, fig1_path):
    code, _, err = run_cli(
        capsys, ["min-sensors", "--scenario", fig1_path, "--delta", "1e-12", "--m-max", "10"]
    )
    assert code == 4
    assert "Q_at_cap=" in err


# --- simulate -------------------------------------------------------------------


def test_simulate_deterministic_and_shard_invariant(capsys, fig1_path):
    argv = ["simulate", "--scenario", fig1_path, "--theta", "0.7", "--runs", "20000",
            "--seed", "11"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
    _, sharded, _ = run_cli(capsys, argv + ["--shards", "4"])
    p_hat = next(l for l in first.splitlines() if l.startswith("p_hat="))
    assert p_hat in sharded


def test_simulate_rejects_overlong_transient(capsys, fig3_path):
    # theta = 0.05 stretches L past the window; theta = 100 is above theta_max = 1.5
    for theta, message in (("0.05", "window"), ("100", "theta must lie in")):
        code, out, err = run_cli(
            capsys,
            ["simulate", "--scenario", fig3_path, "--theta", theta, "--runs", "10", "--seed", "1"],
        )
        assert code == 2
        assert message in err and "p_hat" not in out


@pytest.mark.parametrize("h", ["nan", "inf"])
def test_simulate_refuses_non_finite_threshold(capsys, fig1_path, h):
    code, out, err = run_cli(
        capsys,
        ["simulate", "--scenario", fig1_path, "--theta", "0.7", "--runs", "1000", "--seed", "1",
         "--set", f"det.h={h}"],
    )
    assert code == 2
    assert "h_override" in err and "p_hat" not in out


# --- validate -------------------------------------------------------------------


def test_validate_passes_on_reference_scenario(capsys, fig1_path):
    # many sensors or a steep profile bend q sharply, and a tiny alpha puts
    # q near 1; a correct scenario must still pass every check
    for overrides in ([], ["--set", "det.M=1000"], ["--set", "mu.k=1000"],
                      ["--set", "det.alpha=1e-8"]):
        code, out, _ = run_cli(
            capsys, ["validate", "--scenario", fig1_path, "--runs", "20000", *overrides]
        )
        assert code == 0
        for name in (
            "mills_positivity",
            "derivative_consistency",
            "jensen_allocation",
            "mc_pmd_agreement",
            "false_alarm_calibration",
        ):
            assert f"PASS {name}" in out
        assert "result=ok" in out


@pytest.mark.parametrize("lo,hi", [(-30.0, np.inf), (-38.0, -30.0), (-np.inf, -38.0)])
def test_mills_check_fails_on_a_sign_flip_in_any_regime(monkeypatch, lo, hi):
    # mills_margin switches formula at -30 and -38; the check must probe each
    real = stdnorm.mills_margin

    def flipped(x):
        arr = np.asarray(x)
        return np.where((arr >= lo) & (arr < hi), -real(arr), real(arr))

    monkeypatch.setattr(stdnorm, "mills_margin", flipped)
    ok, _ = cli._check_mills(make_scenario("exponential", "rational"))
    assert not ok


def perturb_slot_miss(monkeypatch, factor):
    real = analytics.slot_miss
    monkeypatch.setattr(analytics, "slot_miss", lambda scenario, theta: dataclasses.replace(
        real(scenario, theta), dq_dtheta=factor * real(scenario, theta).dq_dtheta))


def perturb_log_pmd_derivative(monkeypatch, factor):
    real = analytics.log_pmd_derivative
    monkeypatch.setattr(analytics, "log_pmd_derivative",
                        lambda scenario, theta: factor * real(scenario, theta))


@pytest.mark.parametrize("perturb", [perturb_slot_miss, perturb_log_pmd_derivative])
@pytest.mark.parametrize("transient,mean", REFERENCE_CONFIGS)
def test_derivative_check_catches_a_small_error(monkeypatch, perturb, transient, mean):
    scenario = make_scenario(transient, mean)
    assert cli._check_derivatives(scenario)[0]
    perturb(monkeypatch, 1.0 + 1e-4)
    assert not cli._check_derivatives(scenario)[0]


def test_validate_perturbed_derivative_fails_with_exit_5(capsys, monkeypatch, fig1_path):
    perturb_slot_miss(monkeypatch, 1.0 + 1e-4)
    code, out, _ = run_cli(capsys, ["validate", "--scenario", fig1_path, "--runs", "2000"])
    assert code == 5
    assert "FAIL derivative_consistency" in out
    assert "result=failed" in out


def test_validate_tampered_threshold_fails_with_exit_5(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys,
        ["validate", "--scenario", fig1_path, "--runs", "5000", "--set", "det.h=2.0"],
    )
    assert code == 5
    assert "FAIL false_alarm_calibration" in out
    assert "result=failed" in out


def test_validate_rejects_nonconvex_profile_before_running(capsys, fig1_path):
    # a refused run count surfaces only in the Monte Carlo check, yet
    # nothing may reach stdout before the error
    for overrides, message in ((["--set", "mu.k=-5"], "k"), (["--runs", "0"], "runs")):
        code, out, err = run_cli(capsys, ["validate", "--scenario", fig1_path, *overrides])
        assert code == 2
        assert out == ""
        assert message in err


def test_pmd_curve_supports_budget_floor_scenarios(tmp_path, capsys):
    # the simulator-semantics transient is plottable: L column holds the
    # floored integer values
    scenario = dataclasses.replace(
        make_scenario("reciprocal"), transient=TransientModel("budget_floor", A=1.5)
    )
    path = tmp_path / "floor.cfg"
    path.write_text(scenario_to_config(scenario))
    out = tmp_path / "floor.csv"
    code, _, _ = run_cli(
        capsys,
        ["pmd-curve", "--scenario", str(path), "--theta-min", "0.1", "--theta-max", "1.5",
         "--steps", "30", "--M-list", "25", "--out", str(out)],
    )
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "theta"))]
    l_values = {float(line.split(",")[2]) for line in lines}
    assert l_values <= {float(k) for k in range(16)}


def test_validate_passes_on_boundary_family_scenario(capsys, fig3_path):
    code, out, _ = run_cli(capsys, ["validate", "--scenario", fig3_path, "--runs", "20000"])
    assert code == 0
    assert "result=ok" in out


# --- shared plumbing ---------------------------------------------------------------


def test_unknown_override_key_rejected(capsys, fig1_path):
    code, _, err = run_cli(capsys, ["optimize", "--scenario", fig1_path, "--set", "nope=1"])
    assert code == 2
    assert "unknown key" in err


def test_missing_scenario_file(capsys, tmp_path, fig1_path):
    # a missing, a directory or a non-UTF-8 scenario, and an --out that is
    # a directory: each is a one-line usage error that names the path
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("mu.family = rational  # \xe9\n".encode("latin-1"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    curve = ["pmd-curve", "--scenario", fig1_path, "--theta-min", "0.1", "--theta-max", "1.5",
             "--steps", "2", "--M-list", "5", "--out", str(out_dir)]
    for argv, path in (
        (["optimize", "--scenario", str(tmp_path / "nope.cfg")], "nope.cfg"),
        (["optimize", "--scenario", str(tmp_path)], str(tmp_path)),
        (["optimize", "--scenario", str(latin1)], "latin1.cfg"),
        (curve, str(out_dir)),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and path in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig1.cfg", "latin1.cfg", "out"]


def test_module_entry_point(fig1_path):
    # the child imports the pmdkit this process imported, installed or not
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pmdkit.__file__))}
    result = subprocess.run(
        [sys.executable, "-m", "pmdkit", "optimize", "--scenario", fig1_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "theta_star=" in result.stdout
