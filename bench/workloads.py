"""The three benchmark workloads: inputs, operations and output checks.

Each workload is closed loop with a single client: the next operation
starts when the previous one returns. Operations run in cycles over a
fixed pool of inputs (``cycle_len`` operations per cycle) and a run
always ends on a whole cycle, so every run at one seed does the same mix
of work and the deep-tail failure share is the same from run to run.

``prepare()`` builds the inputs from the seed and ``warm_up(call)`` runs
one fixed operation; both belong to set-up. ``op(i, call)`` makes the
library calls of operation i through ``call`` (see tracing.py) and
returns a small digest of their results. ``check(i,
digest)`` runs after the timed phase and raises on a wrong answer.
``expected_failure(i)`` marks the generator's deep-tail inputs, which
today's closed forms cannot evaluate.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gen
from pmdkit import analytics, cli, model, montecarlo, optimize, sizing
from pmdkit.errors import InfeasibleAtCapError, NumericalError

NPROC = len(os.sched_getaffinity(0))
FIGS = ("fig1", "fig2", "fig3", "fig4")


class CheckFailed(Exception):
    """An operation's output disagrees with the reference it is checked against."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def load_fig(root: Path, fig: str) -> model.AttackScenario:
    return model.parse_scenario((root / "scenarios" / f"{fig}.cfg").read_text(encoding="utf-8"))


# --- analytic-sweep ----------------------------------------------------------

GRID_POINTS = 200
M_SHARES = (0.2, 0.4, 0.6, 0.8, 1.0)     # pmd_curve sensor counts, as shares of M
SIZING_QUERIES = ((0.05, 100), (1e-6, 10_000))
THETA_AGREE = 1e-6                       # |theta* solve - golden| / domain width
Q_GRID_SLACK = 1e-9                      # relative slack for Q* >= max over the grid


class AnalyticSweep:
    """One analyst query per operation, on one generated scenario.

    The query is what demos 01-03 do by hand: Q(theta) curves for five
    sensor counts, the worst-case solve, the golden-section cross-check
    and two sizing questions. No Monte Carlo code runs.
    """

    name = "analytic-sweep"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.seed = seed
        self.pool_size = 8 if smoke else 128
        self._refs: dict = {}

    def prepare(self) -> None:
        self.pool = gen.generate(self.seed, self.pool_size)
        self.grids = []
        self.variants = []
        for item in self.pool:
            s = item.scenario
            m = s.detector.M
            counts = sorted({max(1, round(share * m)) for share in M_SHARES})
            self.variants.append([sizing.scenario_with_sensors(s, k) for k in counts])
            self.grids.append(np.linspace(s.theta_min, s.theta_max, GRID_POINTS))
        self.cycle_len = len(self.pool)

    def expected_failure(self, i: int) -> bool:
        return self.pool[i % self.cycle_len].deep_tail

    def warm_up(self, call) -> None:
        self.op(0, call)

    def op(self, i: int, call):
        k = i % self.cycle_len
        scenario = self.pool[k].scenario
        grid = self.grids[k]
        curves = [call("analytics.pmd_curve", analytics.pmd_curve, v, grid) for v in self.variants[k]]
        solved = call("optimize.solve", optimize.solve, scenario)
        golden = call("optimize.maximize_unimodal", optimize.maximize_unimodal, scenario)
        answers = []
        for delta, m_max in SIZING_QUERIES:
            try:
                result = call("sizing.min_sensors", sizing.min_sensors, scenario, delta, m_max)
                answers.append((result.M_min, result.Q_at_M_min, result.Q_at_M_min_minus_1))
            except InfeasibleAtCapError as exc:
                answers.append(("infeasible", exc.q_at_cap, None))
        return (
            solved.theta_star, solved.Q_star, solved.boundary,
            golden.theta_star, float(np.max(curves[-1].Q)), tuple(answers),
        )

    def _worst(self, k: int, m: int) -> float:
        key = (k, m)
        if key not in self._refs:
            scenario = sizing.scenario_with_sensors(self.pool[k].scenario, m)
            self._refs[key] = optimize.worst_case_pmd(scenario).Q
        return self._refs[key]

    def check(self, i: int, digest) -> None:
        k = i % self.cycle_len
        scenario = self.pool[k].scenario
        theta_star, q_star, boundary, golden_theta, grid_max, answers = digest
        width = scenario.theta_max - scenario.theta_min
        if not boundary:
            _require(
                abs(theta_star - golden_theta) <= THETA_AGREE * width,
                f"solve theta*={theta_star!r} vs maximize_unimodal {golden_theta!r}",
            )
        _require(
            q_star >= grid_max * (1.0 - Q_GRID_SLACK),
            f"Q*={q_star!r} below the grid maximum {grid_max!r}",
        )
        for (delta, m_max), (m_min, q_at, q_below) in zip(SIZING_QUERIES, answers):
            if m_min == "infeasible":
                _require(self._worst(k, m_max) > delta, f"infeasible at {m_max} but Q <= delta")
                continue
            q_recomputed = self._worst(k, m_min)
            _require(q_recomputed == q_at, f"Q(M_min={m_min}) recomputed {q_recomputed!r} != {q_at!r}")
            _require(q_recomputed <= delta, f"Q(M_min={m_min})={q_recomputed!r} > delta={delta}")
            if m_min > 1:
                q_prev = self._worst(k, m_min - 1)
                _require(q_prev == q_below and q_prev > delta, f"Q(M_min-1)={q_prev!r} <= delta")


# --- mc-oracle ----------------------------------------------------------------

# a quarter of one simulator block each: the arrays stay near cache size,
# so the draw rate, not memory traffic from other tenants, sets op time
PMD_RUNS = 1024
FALSE_ALARM_SLOTS = 16384
Z_BOUND = 6.0              # |z| limit for every estimate against its closed form


def binomial_z(p_hat: float, p: float, runs: int) -> float:
    """z-score of a success count against Binomial(runs, p).

    The variance gets +1 so that p near 0 or 1 (a single stray success
    against p = 1e-9, say) does not produce an unbounded z.
    """
    return (p_hat * runs - p * runs) / math.sqrt(runs * p * (1.0 - p) + 1.0)


class McOracle:
    """One Monte Carlo validation point per operation.

    Points are the four reference figures plus generated scenarios. The
    closed-form layers run once per scenario during set-up to place each
    point at its worst-case theta*; a deep-tail scenario, which the solver
    cannot handle today, is placed at theta_min instead.
    """

    name = "mc-oracle"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.n_generated = 8 if smoke else 124
        self.figs = FIGS[:2] if smoke else FIGS
        self._shard_refs: dict = {}

    def prepare(self) -> None:
        points = [(fig, load_fig(self.root, fig), False) for fig in self.figs]
        points += [(g.name, g.scenario, g.deep_tail) for g in gen.generate(self.seed, self.n_generated)]
        self.points = []
        seeds = np.random.SeedSequence([self.seed, 0x3C]).generate_state(len(points), np.uint64)
        for (name, scenario, deep), sim_seed in zip(points, seeds):
            try:
                theta = optimize.solve(scenario).theta_star
            except NumericalError:
                theta = scenario.theta_min
            pmd_cfg = montecarlo.SimConfig(scenario=scenario, theta=theta, runs=PMD_RUNS, seed=int(sim_seed))
            fa_cfg = montecarlo.SimConfig(scenario=scenario, theta=0.0, runs=FALSE_ALARM_SLOTS, seed=int(sim_seed) + 1)
            self.points.append((name, deep, pmd_cfg, fa_cfg))
        self.cycle_len = len(self.points)

    def expected_failure(self, i: int) -> bool:
        return self.points[i % self.cycle_len][1]

    def warm_up(self, call) -> None:
        self.op(0, call)

    def op(self, i: int, call):
        _, _, pmd_cfg, fa_cfg = self.points[i % self.cycle_len]
        miss = call("montecarlo.simulate_pmd", montecarlo.simulate_pmd, pmd_cfg)
        alarm = call("montecarlo.simulate_false_alarm", montecarlo.simulate_false_alarm, fa_cfg)
        return miss.p_hat, alarm.p_hat

    def _references(self, k: int):
        if k not in self._shard_refs:
            _, _, pmd_cfg, _ = self.points[k]
            scenario, theta = pmd_cfg.scenario, pmd_cfg.theta
            slots = math.floor(float(scenario.transient.value(theta)))
            target = analytics.pmd(scenario, theta, transient_slots=slots).Q
            sharded = montecarlo.SimConfig(
                scenario=scenario, theta=theta, runs=pmd_cfg.runs, seed=pmd_cfg.seed, shards=NPROC
            )
            self._shard_refs[k] = (target, montecarlo.simulate_pmd(sharded).p_hat)
        return self._shard_refs[k]

    def check(self, i: int, digest) -> None:
        k = i % self.cycle_len
        p_miss, p_alarm = digest
        _, _, pmd_cfg, fa_cfg = self.points[k]
        target, p_sharded = self._references(k)
        z = binomial_z(p_miss, target, pmd_cfg.runs)
        _require(abs(z) <= Z_BOUND, f"miss estimate z={z:.2f} against closed form {target!r}")
        alpha = fa_cfg.scenario.detector.alpha
        z = binomial_z(p_alarm, alpha, fa_cfg.runs)
        _require(abs(z) <= Z_BOUND, f"false-alarm estimate z={z:.2f} against alpha={alpha!r}")
        _require(p_miss == p_sharded, f"p_hat {p_miss!r} at shards=1 vs {p_sharded!r} at shards={NPROC}")


# --- cli-cold -----------------------------------------------------------------

COMMANDS = ("pmd-curve", "optimize", "min-sensors", "simulate", "validate")
CURVE_M_LIST = "5,10,15,20,25"
SIZING_ARGS = ("--delta", "0.05", "--m-max", "100")
SIMULATE_RUNS = 2000       # start-up outweighs this much sampling
VALIDATE_RUNS = 2000


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _fields(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines()
                if "=" in line and not line.startswith(("#", "scan ")))


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class CliCold:
    """One ``python -m pmdkit <cmd>`` subprocess per operation.

    A cycle runs each of the five subcommands once, in a seeded order, each
    on a seeded reference figure; over four cycles every figure meets
    every subcommand.
    """

    name = "cli-cold"

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.work = root / ".bench_work"
        self.env = cli_env(root)
        self._refs: dict = {}

    def prepare(self) -> None:
        self.work.mkdir(exist_ok=True)
        rng = np.random.default_rng([self.seed, 0xC11])
        self.order = [COMMANDS[j] for j in rng.permutation(len(COMMANDS))]
        self.fig_offset = {cmd: int(rng.integers(len(FIGS))) for cmd in COMMANDS}
        self.scenarios = {fig: load_fig(self.root, fig) for fig in FIGS}
        self.simulate_seed = int(rng.integers(1, 2**31))
        self.cycle_len = len(COMMANDS)

    def expected_failure(self, i: int) -> bool:
        return False

    def warm_up(self, call) -> None:
        # a fixed command, so that set-up cost does not depend on the seeded order
        call("cli.optimize", subprocess.run,
             [sys.executable, "-m", "pmdkit", "optimize", "--scenario", "scenarios/fig1.cfg"],
             cwd=self.root, env=self.env, capture_output=True, timeout=120, check=True)

    def argv(self, i: int) -> list[str]:
        cmd = self.order[i % self.cycle_len]
        cycle = i // self.cycle_len
        fig = FIGS[(cycle + self.fig_offset[cmd]) % len(FIGS)]
        scenario = self.scenarios[fig]
        args = [cmd, "--scenario", f"scenarios/{fig}.cfg"]
        if cmd == "pmd-curve":
            out = self.work / "curve.csv"
            args += ["--theta-min", _fmt(scenario.theta_min), "--theta-max", _fmt(scenario.theta_max),
                     "--steps", "200", "--M-list", CURVE_M_LIST, "--out", str(out)]
        elif cmd == "min-sensors":
            args += list(SIZING_ARGS)
        elif cmd == "simulate":
            frac = (cycle * 0.6180339887498949 + self.seed * 0.1) % 1.0
            theta = scenario.theta_min + frac * (scenario.theta_max - scenario.theta_min)
            args += ["--theta", _fmt(theta), "--runs", str(SIMULATE_RUNS),
                     "--seed", str(self.simulate_seed + cycle), "--shards", "1"]
        elif cmd == "validate":
            args += ["--runs", str(VALIDATE_RUNS)]
        return args

    def op(self, i: int, call):
        args = self.argv(i)
        proc = call(f"cli.{args[0]}", subprocess.run, [sys.executable, "-m", "pmdkit", *args],
                    cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120)
        csv = None
        if args[0] == "pmd-curve" and proc.returncode == 0:
            csv = (self.work / "curve.csv").read_text(encoding="utf-8")
        return proc.returncode, proc.stdout, proc.stderr, csv

    def check(self, i: int, digest) -> None:
        code, stdout, stderr, csv = digest
        args = self.argv(i)
        cmd, fig = args[0], Path(args[2]).stem
        _require(code == 0, f"{cmd} exited {code}: {stderr.strip()[-200:]}")
        text = csv if cmd == "pmd-curve" else stdout
        _require(f"# schema={cmd}-v1" in text.splitlines(), f"{cmd}: no '# schema=' line")
        scenario = self.scenarios[fig]
        fields = _fields(stdout)
        if cmd == "pmd-curve":
            rows = [line.split(",") for line in text.splitlines()
                    if line and not line.startswith(("#", "theta,"))]
            expect = []
            theta = np.linspace(scenario.theta_min, scenario.theta_max, 200)
            for m in (int(x) for x in CURVE_M_LIST.split(",")):
                curve = self._ref(("curve", fig, m), analytics.pmd_curve,
                                  sizing.scenario_with_sensors(scenario, m), theta)
                expect += [[curve.theta[j], m, curve.L[j], curve.q_theta[j], curve.Q[j]]
                           for j in range(theta.size)]
            got = [[float(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4])] for r in rows]
            _require(got == expect, "pmd-curve rows differ from analytics.pmd_curve")
        elif cmd == "optimize":
            ref = self._ref(("optimize", fig), optimize.solve, scenario)
            _require(
                float(fields["theta_star"]) == ref.theta_star and float(fields["Q_star"]) == ref.Q_star
                and int(fields["iterations"]) == ref.iterations
                and fields["boundary"] == ("true" if ref.boundary else "false"),
                "optimize fields differ from optimize.solve",
            )
        elif cmd == "min-sensors":
            ref = self._ref(("sizing", fig), sizing.min_sensors, scenario, float(SIZING_ARGS[1]), int(SIZING_ARGS[3]))
            scan = [line.split()[1:] for line in stdout.splitlines() if line.startswith("scan ")]
            _require(
                int(fields["M_min"]) == ref.M_min and float(fields["Q_at_M_min"]) == ref.Q_at_M_min
                and [(int(m[2:]), float(q[7:])) for m, q in scan] == list(ref.scan),
                "min-sensors fields differ from sizing.min_sensors",
            )
        elif cmd == "simulate":
            config = montecarlo.SimConfig(scenario=scenario, theta=float(args[args.index("--theta") + 1]),
                                          runs=SIMULATE_RUNS, seed=int(args[args.index("--seed") + 1]))
            ref = montecarlo.simulate_pmd(config)
            _require(float(fields["p_hat"]) == ref.p_hat and float(fields["stderr"]) == ref.stderr,
                     "simulate fields differ from montecarlo.simulate_pmd")
        else:
            _require(fields.get("result") == "ok", "validate did not print result=ok")
            ref = self._ref(("validate", fig), run_inproc, args)[1]
            _require(stdout == ref, "validate output differs from the in-process run")

    def _ref(self, key, fn, *args):
        if key not in self._refs:
            self._refs[key] = fn(*args)
        return self._refs[key]


def run_inproc(args: list[str]) -> tuple[int, str]:
    """cli.main in this process, with its stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (AnalyticSweep, McOracle, CliCold)}
