"""End-to-end CLI behavior: outputs, determinism, exit codes."""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmdkit
from pmdkit import analytics, cli, scenario_to_config, stdnorm
from pmdkit.cli import main
from pmdkit.model import CONFIG_KEYS

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
        # an infinite end would make the grid nan before any domain check
        ["--theta-min", "0.1", "--theta-max", "inf", "--steps", "10"],
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


def test_optimize_budget_floor_config_exits_2(capsys, fig3_path):
    # the family was removed in 0.6.0; the config error names the families left
    code, out, err = run_cli(
        capsys, ["optimize", "--scenario", fig3_path, "--set", "L.family=budget_floor"]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "reciprocal" in err


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


def test_simulate_refuses_overflowing_mean_shift(capsys, fig1_path):
    # M * mu.c overflows, so every slot cut is -inf and p_hat would print as 0
    code, out, err = run_cli(
        capsys,
        ["simulate", "--scenario", fig1_path, "--theta", "0.7", "--runs", "100", "--seed", "1",
         "--set", "mu.c=1e308"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_validate_slightly_high_threshold_fails_calibration(capsys, fig1_path):
    # h 2 % above calibration moves fig1's per-slot false-alarm rate from
    # 0.100 to about 0.096: caught at the z threshold of 3, missed at 30
    h = 1.02 * make_scenario("exponential", "rational").detector.h
    code, out, _ = run_cli(capsys, ["validate", "--scenario", fig1_path, "--set", f"det.h={h!r}"])
    assert code == 5
    line = next(l for l in out.splitlines() if l.startswith("FAIL false_alarm_calibration "))
    assert 3.0 < float(line.split("z=")[1].split()[0]) < 30.0


def test_jensen_check_passes_on_generated_pools(bench_pools_1_3):
    for item in bench_pools_1_3:
        ok, detail = cli._check_jensen(item.scenario)
        assert ok, (item.name, detail)


def test_jensen_check_catches_a_small_log_space_error(monkeypatch, bench_pools_1_3):
    # in the deep tail every miss underflows to 0, so only log space can
    # see the allocation path drift 1e-6 (relative) above the closed form
    scenario = next(item.scenario for item in bench_pools_1_3 if item.deep_tail)
    assert analytics.slot_miss(scenario, scenario.theta_min).q_theta == 0.0
    assert cli._check_jensen(scenario)[0]
    real = stdnorm.log_cdf
    monkeypatch.setattr(stdnorm, "log_cdf", lambda x: (1.0 - 1e-6) * real(x))
    assert not cli._check_jensen(scenario)[0]


def test_validate_rejects_nonconvex_profile_before_running(capsys, fig1_path):
    # a refused run count surfaces only in the Monte Carlo check, yet
    # nothing may reach stdout before the error
    for overrides, message in ((["--set", "mu.k=-5"], "k"), (["--runs", "0"], "runs")):
        code, out, err = run_cli(capsys, ["validate", "--scenario", fig1_path, *overrides])
        assert code == 2
        assert out == ""
        assert message in err


def test_validate_passes_on_boundary_family_scenario(capsys, fig3_path):
    code, out, _ = run_cli(capsys, ["validate", "--scenario", fig3_path, "--runs", "20000"])
    assert code == 0
    assert "result=ok" in out


# --- shared plumbing ---------------------------------------------------------------


def test_unknown_override_key_rejected(capsys, fig1_path):
    code, _, err = run_cli(capsys, ["optimize", "--scenario", fig1_path, "--set", "nope=1"])
    assert code == 2
    assert "unknown key" in err


def test_flag_errors_are_one_error_line(capsys, fig1_path):
    # argparse's own refusals keep the contract: exit 2, one error: line
    for argv in (
        ["min-sensors", "--scenario", fig1_path, "--delta", "abc", "--m-max", "5"],
        ["simulate", "--scenario", fig1_path, "--theta", "0.7", "--runs", "1.5", "--seed", "1"],
        ["optimize"],
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: pmdkit") and err.count("\n") == 1


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


# --- exit-code contract -----------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
NUMBER_EXTREMES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "abc")
COUNT_EXTREMES = ("0", "-1", "1.5", "abc")
# each subcommand's own flags, drawn from typical values (first) and extreme
# ones; --steps and --m-max stay cheap, --runs and --shards stay fixed
SUBCOMMAND_FLAGS = {
    "pmd-curve": {"--theta-min": ("0.2",) + NUMBER_EXTREMES, "--theta-max": ("1.0",) + NUMBER_EXTREMES,
                  "--steps": ("5", "2") + COUNT_EXTREMES},
    "optimize": {},
    "min-sensors": {"--delta": ("0.05", "1e-6") + NUMBER_EXTREMES, "--m-max": ("100", "1") + COUNT_EXTREMES},
    "simulate": {"--theta": ("0.7",) + NUMBER_EXTREMES},
    "validate": {},
}
FIXED_ARGS = {
    "pmd-curve": ["--M-list", "5,25"],
    "simulate": ["--runs", "200", "--seed", "1"],
    "validate": ["--runs", "200"],
}
TYPICAL = {
    "mu.family": "exponential", "mu.c": "0.1", "mu.k": "10.0", "L.family": "reciprocal",
    "L.A": "1.5", "L.a": "15.0", "det.alpha": "0.1", "det.M": "25", "det.K": "15",
    "det.h": "6.4", "theta.min": "0.1", "theta.max": "1.5", "gamma_convention": "raw",
}
EXTREMES = ("0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "abc", "budget_floor")


@pytest.fixture(scope="module")
def scenario_paths(tmp_path_factory):
    work = tmp_path_factory.mktemp("contract")
    latin1 = work / "latin1.cfg"
    latin1.write_bytes("# café\n".encode("latin-1") + (ROOT / "scenarios" / "fig1.cfg").read_bytes())
    paths = {f"fig{i}": str(ROOT / "scenarios" / f"fig{i}.cfg") for i in range(1, 5)}
    paths.update(missing=str(work / "missing.cfg"), directory=str(work), not_utf8=str(latin1))
    return paths, str(work / "curve.csv")


overrides = st.lists(
    st.sampled_from(CONFIG_KEYS).flatmap(
        lambda key: st.sampled_from((TYPICAL[key],) + EXTREMES).map(lambda value: f"{key}={value}")
    ),
    max_size=3,
)


invocations = st.sampled_from(sorted(SUBCOMMAND_FLAGS)).flatmap(
    lambda command: st.tuples(st.just(command), st.fixed_dictionaries(
        {flag: st.sampled_from(values) for flag, values in SUBCOMMAND_FLAGS[command].items()}
    ))
)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(invocation=invocations,
       path=st.sampled_from(("fig1", "fig2", "fig3", "fig4", "missing", "directory", "not_utf8")),
       sets=overrides)
def test_every_invocation_keeps_the_exit_code_contract(scenario_paths, invocation, path, sets):
    # README's exit codes: 0 ok, 2 usage/config/file, 3 optimize, 4 sizing,
    # 5 validate FAIL; 2-4 write an error: line and no stdout
    paths, out_csv = scenario_paths
    command, flags = invocation
    argv = [command, "--scenario", paths[path], *FIXED_ARGS.get(command, [])]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")  # "=" keeps a value such as -1 from reading as a flag
    argv += ["--out", out_csv] if command == "pmd-curve" else []
    for item in sets:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code in (2, 3, 4):
        assert out == "", (argv, out)
    if code not in (0, 5):
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    if code == 5:
        assert "FAIL " in out, (argv, out)
