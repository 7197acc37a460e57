"""Command-line interface.

Subcommands: pmd-curve, optimize, min-sensors, simulate, validate.
Scenarios come from flat key-value config files, optionally overridden
with repeated ``--set key=value`` flags (last writer wins). Every output
carries the fully resolved scenario as ``#`` comment lines, outputs are
deterministic for identical invocations, and files are written atomically
(temp file then rename).

Exit codes: 0 ok, 2 usage, config or file error, 3 optimizer failure,
4 sizing infeasible at the cap, 5 validation failure (2-4 print no stdout).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import analytics, montecarlo, optimize, sizing, stdnorm
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleAtCapError,
    MonotonicityError,
    NumericalError,
    PmdkitError,
    TransientExceedsWindowError,
)
from .model import (
    AttackScenario,
    parse_config_text,
    scenario_from_mapping,
    scenario_to_config,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OPTIMIZE = 3
EXIT_SIZING = 4
EXIT_VALIDATION = 5

_VALIDATE_SEED = 20240801  # fixed so validate output is byte-stable


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _load_scenario(path: str, overrides: list[str]) -> AttackScenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario {path!r} is not UTF-8: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        # route through the parser so unknown keys are rejected uniformly
        mapping.update(parse_config_text(f"{key} = {value}"))
    return scenario_from_mapping(mapping)


def _header_lines(scenario: AttackScenario, schema: str) -> list[str]:
    lines = [f"# schema={schema}"]
    lines += [f"# {line}" for line in scenario_to_config(scenario).splitlines()]
    return lines


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".pmdkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# --- subcommands ----------------------------------------------------------


def _cmd_pmd_curve(args) -> int:
    scenario = _load_scenario(args.scenario, args.set)
    if args.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {args.steps}")
    if not args.theta_min < args.theta_max:
        raise ConfigError("--theta-min must be < --theta-max")
    # before the grid is built, so an infinite end cannot turn it into nan
    for theta in (args.theta_min, args.theta_max):
        analytics._check_theta(theta, scenario.theta_min, scenario.theta_max)
    try:
        m_list = [int(part) for part in args.m_list.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--M-list must be comma-separated integers: {args.m_list!r}") from exc
    if not m_list or any(m < 1 for m in m_list):
        raise ConfigError(f"--M-list must contain positive integers: {args.m_list!r}")

    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    lines = _header_lines(scenario, "pmd-curve-v1")
    lines.append(f"# theta_grid = {_fmt(args.theta_min)},{_fmt(args.theta_max)},{args.steps}")
    lines.append(f"# M_list = {','.join(str(m) for m in m_list)}")
    lines.append("theta,M,L_theta,q_theta,Q")
    for m in m_list:
        scenario_m = sizing.scenario_with_sensors(scenario, m)
        curve = analytics.pmd_curve(scenario_m, thetas)
        for i in range(thetas.size):
            lines.append(
                f"{_fmt(curve.theta[i])},{m},{_fmt(curve.L[i])},"
                f"{_fmt(curve.q_theta[i])},{_fmt(curve.Q[i])}"
            )
    _write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(m_list) * thetas.size} rows to {args.out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    scenario = _load_scenario(args.scenario, args.set)
    try:
        critical = optimize.solve(scenario)
    except (NumericalError, TransientExceedsWindowError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZE
    for line in _header_lines(scenario, "optimize-v1"):
        print(line)
    print(f"theta_star={_fmt(critical.theta_star)}")
    print(f"Q_star={_fmt(critical.Q_star)}")
    print(f"b_residual={_fmt(critical.b_residual)}")
    print(f"fixed_point_residual={_fmt(critical.fixed_point_residual)}")
    print(f"boundary={'true' if critical.boundary else 'false'}")
    print(f"iterations={critical.iterations}")
    print(f"method={critical.method}")
    return EXIT_OK


def _cmd_min_sensors(args) -> int:
    scenario = _load_scenario(args.scenario, args.set)
    try:
        result = sizing.min_sensors(scenario, args.delta, args.m_max)
    except InfeasibleAtCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"Q_at_cap={_fmt(exc.q_at_cap)}", file=sys.stderr)
        return EXIT_SIZING
    except (MonotonicityError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZING
    for line in _header_lines(scenario, "min-sensors-v1"):
        print(line)
    print(f"delta={_fmt(result.delta)}")
    print(f"M_min={result.M_min}")
    print(f"Q_at_M_min={_fmt(result.Q_at_M_min)}")
    if result.Q_at_M_min_minus_1 is not None:
        print(f"Q_at_M_min_minus_1={_fmt(result.Q_at_M_min_minus_1)}")
    for m, q in result.scan:
        print(f"scan M={m} Q_star={_fmt(q)}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, args.set)
    config = montecarlo.SimConfig(
        scenario=scenario,
        theta=args.theta,
        runs=args.runs,
        seed=args.seed,
        shards=args.shards,
    )
    estimate = montecarlo.simulate_pmd(config)
    for line in _header_lines(scenario, "simulate-v1"):
        print(line)
    print(f"theta={_fmt(args.theta)}")
    print(f"runs={estimate.runs}")
    print(f"seed={args.seed}")
    print(f"shards={args.shards}")
    print(f"p_hat={_fmt(estimate.p_hat)}")
    print(f"stderr={_fmt(estimate.stderr)}")
    print(f"ci95_low={_fmt(estimate.ci95[0])}")
    print(f"ci95_high={_fmt(estimate.ci95[1])}")
    return EXIT_OK


# --- validation battery ---------------------------------------------------


# every mills_margin regime, both sides of its cutoffs -30 and -38, and the tails
_MILLS_PROBES = (-1e4, -100.0, -38.0001, -38.0, -34.0, -30.0001, -30.0, -12.0, 0.0, 12.0, 38.0)


def _check_mills(scenario: AttackScenario) -> tuple[bool, str]:
    u0 = scenario.detector.x_star - math.sqrt(scenario.detector.M) * scenario.mean.c
    worst = float(np.min(stdnorm.mills_margin(np.array(_MILLS_PROBES + (u0,)))))
    return worst > 0.0, f"min_margin={worst:.6e}"


def _richardson_slope(f, theta: np.ndarray, h: float) -> np.ndarray:
    """Richardson-extrapolated central difference (4 D(h/2) - D(h)) / 3 of f."""
    y = f(np.concatenate((theta - h, theta - 0.5 * h, theta + 0.5 * h, theta + h)))
    far_lo, near_lo, near_hi, far_hi = np.split(y, 4)
    return (4.0 * (near_hi - near_lo) / h - (far_hi - far_lo) / (2.0 * h)) / 3.0


def _check_derivatives(scenario: AttackScenario) -> tuple[bool, str]:
    grid = np.linspace(scenario.theta_min, scenario.theta_max, 27)[1:-1]
    h = 3e-3 * (scenario.theta_max - scenario.theta_min)

    def rel(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)))

    # dq against q times the slope of log q: log q stays resolved where q is near 0 or 1
    misses = [analytics.slot_miss(scenario, theta) for theta in grid]
    log_q_slope = _richardson_slope(lambda t: analytics._kernel(scenario, t).log_q, grid, h)
    worst = rel(np.array([m.dq_dtheta for m in misses]),
                np.array([m.q_theta for m in misses]) * log_q_slope)
    r_slope = _richardson_slope(lambda t: analytics.pmd_curve(scenario, t).r, grid, h)
    dr = np.array([analytics.log_pmd_derivative(scenario, theta) for theta in grid])
    worst = max(worst, rel(dr, r_slope))
    return worst <= 1e-5, f"max_rel_err={worst:.6e}"


def _check_jensen(scenario: AttackScenario) -> tuple[bool, str]:
    """No split of the slot's resources over the sensors misses more often
    than the equal one. The log miss of the equal split and of 2000 random
    splits, summed per sensor, is compared with the kernel's log q(theta),
    relative to |log q|, so a miss that underflows still counts."""
    rng = np.random.Generator(np.random.Philox(key=_VALIDATE_SEED))
    det = scenario.detector
    worst = -math.inf
    for theta in (scenario.theta_min, 0.5 * (scenario.theta_min + scenario.theta_max)):
        share = scenario.gamma(theta)
        raw = rng.exponential(size=(2000, det.M))
        raw *= det.M * share / raw.sum(axis=1, keepdims=True)
        shift = scenario.allocation_shift(np.vstack((np.full(det.M, share), raw)))
        log_miss = stdnorm.log_cdf(det.x_star - shift / math.sqrt(det.M))
        log_q = float(analytics._kernel(scenario, theta).log_q)
        worst = max(worst, float(np.max(log_miss - log_q)) / max(-log_q, 1e-300))
    return worst <= 1e-12, f"max_excess_over_equal_split={worst:.6e}"


def _within_three_sigma(simulate, scenario: AttackScenario, theta: float, runs: int,
                        seed: int, target: float) -> tuple[bool, str]:
    """Whether simulate's estimate lies within 3 sigma of target, allowing
    one retry at seed + 1."""
    for attempt in (0, 1):
        est = simulate(
            montecarlo.SimConfig(scenario=scenario, theta=theta, runs=runs, seed=seed + attempt)
        )
        sigma = max(est.stderr, math.sqrt(target * (1.0 - target) / runs), 1e-300)
        z = abs(est.p_hat - target) / sigma
        if z <= 3.0:
            return True, f"z={z:.3f}{' (retry)' if attempt else ''}"
    return False, f"z={z:.3f} after retry"


def _check_mc_agreement(scenario: AttackScenario, runs: int) -> tuple[bool, str]:
    theta = 0.5 * (scenario.theta_min + scenario.theta_max)
    target = analytics.pmd(scenario, theta, transient_slots=scenario.transient_slots(theta)).Q
    return _within_three_sigma(montecarlo.simulate_pmd, scenario, theta, runs,
                               _VALIDATE_SEED, target)


def _check_false_alarm(scenario: AttackScenario, runs: int) -> tuple[bool, str]:
    return _within_three_sigma(montecarlo.simulate_false_alarm, scenario, 0.0, runs,
                               _VALIDATE_SEED + 2, scenario.detector.alpha)


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario, args.set)
    checks = [
        ("mills_positivity", lambda: _check_mills(scenario)),
        ("derivative_consistency", lambda: _check_derivatives(scenario)),
        ("jensen_allocation", lambda: _check_jensen(scenario)),
        ("mc_pmd_agreement", lambda: _check_mc_agreement(scenario, args.runs)),
        ("false_alarm_calibration", lambda: _check_false_alarm(scenario, max(args.runs, 100_000))),
    ]
    lines = _header_lines(scenario, "validate-v1")
    all_ok = True
    for name, check in checks:
        ok, detail = check()
        all_ok &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    lines.append(f"result={'ok' if all_ok else 'failed'}")
    print("\n".join(lines))  # after every check, so a refused argument prints nothing
    return EXIT_OK if all_ok else EXIT_VALIDATION


# --- parser ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors (a bad or missing flag, a value that does
    not parse) end, like every other usage error, in one error: line and
    exit code 2, returned by main rather than raised as SystemExit."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario key (repeatable; last writer wins)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pmdkit",
        description="Missed-detection analysis of a multi-sensor Shewhart "
        "detector under transient resource-constrained attacks. "
        "No environment variables are required.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmd-curve", help="write a CSV of Q over a theta grid for several M")
    _add_scenario_args(p)
    p.add_argument("--theta-min", type=float, required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--M-list", dest="m_list", required=True, help="comma-separated sensor counts")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_pmd_curve)

    p = sub.add_parser("optimize", help="find the adversary's worst-case spend rate")
    _add_scenario_args(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("min-sensors", help="smallest M with worst-case PMD <= delta")
    _add_scenario_args(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(func=_cmd_min_sensors)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of the PMD")
    _add_scenario_args(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate", help="run the property battery for a scenario")
    _add_scenario_args(p)
    p.add_argument("--runs", type=int, default=20_000, help="Monte Carlo runs per check")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PmdkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
