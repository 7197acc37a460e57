"""Per-layer timings, each taken from outside by calling the layer's
public functions on the reference scenarios.

Most rows use fig1 at theta = 0.7 (or the fig pair named), so that they
line up with the ad-hoc baseline in ROADMAP.md; NOTES.md reconciles the
two. Every timing is the median of several batches, each batch long
enough that timer resolution does not matter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as wl
from pmdkit import analytics, model, montecarlo, optimize, sizing, stdnorm

STDNORM_ELEMENTS = 1_000_000
CURVE_POINTS = (200, 100_000)
THETA = 0.7
MC_RUNS = 100_000            # matches the ROADMAP baseline's simulate_pmd call
MC_SLOTS = 262_144           # four single-slot blocks
TIGHT_SIZING = (1e-6, 10_000)

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pmdkit; "
    "print(time.perf_counter() - t, pmdkit.__file__)"
)


def per_call_s(fn, *args, batch_s=0.04, repeats=5):
    """Median seconds per call over `repeats` batches of about batch_s each."""
    n, spent = 1, 0.0
    while spent < batch_s / 4:
        start = perf_counter()
        for _ in range(n):
            fn(*args)
        spent = perf_counter() - start
        if spent < batch_s / 4:
            n *= 4
    n = max(1, round(n * batch_s / max(spent, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((perf_counter() - start) / n)
    return statistics.median(samples)


def child_import_s(root: Path) -> float:
    """Seconds a fresh interpreter spends in ``import pmdkit`` from root/src."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=wl.cli_env(root),
                         capture_output=True, text=True, timeout=60, check=True).stdout.split()
    if not Path(out[1]).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"pmdkit imported from {out[1]}, not from {root / 'src'}")
    return float(out[0])


def _wall_s(argv, root: Path) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=root, env=wl.cli_env(root), capture_output=True, timeout=120, check=True)
    return perf_counter() - start


def _layer_cli_args(root: Path) -> dict[str, list[str]]:
    fig = "scenarios/fig1.cfg"
    return {
        "pmd-curve": ["pmd-curve", "--scenario", fig, "--theta-min", "0.1", "--theta-max", "1.5",
                      "--steps", "200", "--M-list", wl.CURVE_M_LIST,
                      "--out", str(root / ".bench_work" / "layer-curve.csv")],
        "optimize": ["optimize", "--scenario", fig],
        "min-sensors": ["min-sensors", "--scenario", fig, *wl.SIZING_ARGS],
        "simulate": ["simulate", "--scenario", fig, "--theta", str(THETA),
                     "--runs", str(wl.SIMULATE_RUNS), "--seed", "42", "--shards", "1"],
        "validate": ["validate", "--scenario", fig, "--runs", str(wl.VALIDATE_RUNS)],
    }


def measure(root: Path, quick: bool = False) -> tuple[dict, dict]:
    """All layer metrics as {name: (value, unit)}, plus notes on their bases."""
    reps = 1 if quick else 5
    batch = 0.005 if quick else 0.04
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict = {}

    def timed(fn, *args):
        return per_call_s(fn, *args, batch_s=batch, repeats=reps)

    figs = {f: wl.load_fig(root, f) for f in wl.FIGS}
    fig1 = figs["fig1"]

    # stdnorm: the Mills check's 1e6 low-discrepancy points in [-12, 12]
    n = 10_000 if quick else STDNORM_ELEMENTS
    x = -12.0 + 24.0 * (np.arange(1, n + 1) * 0.6180339887498949 % 1.0)
    p = (np.arange(n) + 0.5) / n
    for name, fn, arg in (("cdf", stdnorm.cdf, x), ("log_cdf", stdnorm.log_cdf, x),
                          ("quantile", stdnorm.quantile, p), ("mills_margin", stdnorm.mills_margin, x)):
        metrics[f"stdnorm.{name}.ns_per_elem"] = (timed(fn, arg) / n * 1e9, "ns")
    metrics["stdnorm.cdf.scalar_us"] = (timed(stdnorm.cdf, 0.3) * 1e6, "us")
    notes["stdnorm"] = {"elements": n, "computed_bytes_moved_per_call": 16 * n,
                        "state_array_bytes": 8 * n}

    # model
    fig1_text = (root / "scenarios" / "fig1.cfg").read_text(encoding="utf-8")
    metrics["model.parse_scenario_us"] = (timed(model.parse_scenario, fig1_text) * 1e6, "us")
    metrics["model.mean_value.scalar_us"] = (timed(fig1.mean.value, THETA / 25) * 1e6, "us")

    # analytics
    for name, fn in (("slot_miss", analytics.slot_miss), ("pmd", analytics.pmd),
                     ("log_pmd_derivative", analytics.log_pmd_derivative)):
        metrics[f"analytics.{name}.us"] = (timed(fn, fig1, THETA) * 1e6, "us")
    split = np.full(fig1.detector.M, THETA / fig1.detector.M)
    metrics["analytics.allocation_miss.us"] = (timed(analytics.allocation_miss, fig1, split) * 1e6, "us")
    for points in CURVE_POINTS:
        grid = np.linspace(fig1.theta_min, fig1.theta_max, points)
        metrics[f"analytics.pmd_curve.n{points}.ns_per_point"] = (
            timed(analytics.pmd_curve, fig1, grid) / points * 1e9, "ns")

    # optimize: interior maxima on fig1/2, boundary maxima on fig3/4
    interior = [timed(optimize.solve, figs[f]) for f in ("fig1", "fig2")]
    boundary = [timed(optimize.solve, figs[f]) for f in ("fig3", "fig4")]
    metrics["optimize.solve.interior_us"] = (statistics.mean(interior) * 1e6, "us")
    metrics["optimize.solve.boundary_us"] = (statistics.mean(boundary) * 1e6, "us")
    iterations = [optimize.solve(figs[f]).iterations for f in ("fig1", "fig2")]
    metrics["optimize.solve.iterations"] = (statistics.mean(iterations), "count")
    metrics["optimize.maximize_unimodal.us"] = (timed(optimize.maximize_unimodal, fig1) * 1e6, "us")
    metrics["optimize.maximize_unimodal.iterations"] = (
        optimize.maximize_unimodal(fig1).iterations, "count")

    # sizing
    metrics["sizing.min_sensors.ms"] = (timed(sizing.min_sensors, fig1, *wl.SIZING_QUERIES[0]) * 1e3, "ms")
    metrics["sizing.min_sensors_tight.ms"] = (timed(sizing.min_sensors, fig1, *TIGHT_SIZING) * 1e3, "ms")
    metrics["sizing.M_evaluated"] = (len(sizing.min_sensors(fig1, *wl.SIZING_QUERIES[0]).scan), "count")
    metrics["sizing.M_evaluated_tight"] = (len(sizing.min_sensors(fig1, *TIGHT_SIZING).scan), "count")

    # montecarlo
    runs = 8192 if quick else MC_RUNS
    slots = 65536 if quick else MC_SLOTS
    rate = {}
    for shards in (1, wl.NPROC):
        config = montecarlo.SimConfig(scenario=fig1, theta=THETA, runs=runs, seed=7, shards=shards)
        rate[shards] = runs / per_call_s(montecarlo.simulate_pmd, config, batch_s=0.0, repeats=max(reps - 2, 1))
    metrics["montecarlo.simulate_pmd.shards1.runs_per_s"] = (rate[1], "1/s")
    metrics["montecarlo.simulate_pmd.shards_nproc.runs_per_s"] = (rate[wl.NPROC], "1/s")
    metrics["montecarlo.shard_speedup"] = (rate[wl.NPROC] / rate[1], "x")
    notes["montecarlo"] = {"runs": runs, "nproc": wl.NPROC, "speedup_base": "shards=1 runs/s",
                           "speedup_of": f"shards={wl.NPROC} runs/s", "slots": slots}
    fa = montecarlo.SimConfig(scenario=fig1, theta=0.0, runs=slots, seed=7)
    metrics["montecarlo.simulate_false_alarm.slots_per_s"] = (
        slots / per_call_s(montecarlo.simulate_false_alarm, fa, batch_s=0.0, repeats=reps), "1/s")
    metrics["montecarlo.simulate_allocation.slots_per_s"] = (
        slots / per_call_s(montecarlo.simulate_allocation, fa, split, batch_s=0.0, repeats=reps), "1/s")

    # cli: interpreter, import, then each subcommand as a subprocess and in-process
    cli_reps = 1 if quick else 3
    (root / ".bench_work").mkdir(exist_ok=True)
    metrics["cli.interpreter_ms"] = (statistics.median(
        _wall_s([sys.executable, "-c", "pass"], root) for _ in range(reps)) * 1e3, "ms")
    metrics["cli.import_ms"] = (statistics.median(child_import_s(root) for _ in range(reps)) * 1e3, "ms")
    for cmd, args in _layer_cli_args(root).items():
        metrics[f"cli.{cmd}.wall_ms"] = (statistics.median(
            _wall_s([sys.executable, "-m", "pmdkit", *args], root) for _ in range(cli_reps)) * 1e3, "ms")
        metrics[f"cli.{cmd}.inproc_ms"] = (
            per_call_s(wl.run_inproc, args, batch_s=0.0, repeats=cli_reps) * 1e3, "ms")
    return metrics, notes
