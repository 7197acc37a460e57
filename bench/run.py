"""Benchmark harness for pmdkit.

Run from the root of a checkout:

    python3 bench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

A run sets up its workload (see ``setup_s`` below), runs operations in
whole cycles until ``--seconds`` have passed, then checks every
operation's output. With ``--trace 0`` it reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced cycles of the
workload, reports per-layer self time, call counts and the tracing
overhead, then times every layer from outside (layers.py). The last line
of standard output is the result object; the line before it is a detail
record with provenance, failures by type and the tail percentile used.
Both, and the spans of a traced run, are also written to .bench_work/.

``--smoke`` runs one cycle of each workload at a small size, traced, with
every check on, plus a quick pass over the layer timings, and exits 1 if
anything fails. See NOTES.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

LAYERS = ("stdnorm", "model", "analytics", "optimize", "sizing", "montecarlo", "cli")
SETUP_REPS = 5
TAIL_BEYOND = 10     # op_tail_ms is the latency with this many samples above it


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small traced cycle of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def run_phase(workload, seconds: float, modes):
    """Operations back to back, in whole cycles, for at least `seconds`.

    `modes` is a list of (call, tracer or None). Successive cycles rotate
    through the modes, and the phase ends after an equal number of cycles
    in each, so a traced and an untraced mode see the same stretch of
    machine time. Returns each mode's records and wall seconds.
    """
    records = [[] for _ in modes]
    walls = [0.0] * len(modes)
    deadline = perf_counter() + seconds
    i = cycle = 0
    while True:
        call, tracer = modes[cycle % len(modes)]
        cycle_start = perf_counter()
        for _ in range(workload.cycle_len):
            t0 = tracer.begin_op(i) if tracer else perf_counter_ns()
            try:
                digest, error = workload.op(i, call), None
            except Exception as exc:  # a failed operation is counted, not fatal
                digest, error = None, (type(exc).__name__, str(exc)[:200])
            elapsed = perf_counter_ns() - t0
            if tracer:
                tracer.end_op(t0)
            records[cycle % len(modes)].append((i, elapsed, digest, error))
            i += 1
        walls[cycle % len(modes)] += perf_counter() - cycle_start
        cycle += 1
        if cycle % len(modes) == 0 and perf_counter() >= deadline:
            return records, walls


def check_phase(workload, records):
    """Latencies of passing operations, failures by type, unexpected failures."""
    latencies, failures, unexpected = [], Counter(), []
    for i, elapsed, digest, error in records:
        if error is None:
            try:
                workload.check(i, digest)
            except Exception as exc:  # any exception in a check fails that operation
                error = (f"check:{type(exc).__name__}", str(exc)[:200])
        if error is None:
            latencies.append(elapsed / 1e6)
            continue
        failures[error[0]] += 1
        if not workload.expected_failure(i):
            unexpected.append({"op": i, "type": error[0], "message": error[1]})
    return latencies, failures, unexpected


def tail(latencies):
    """(value, percentile, samples): the latency with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (1.0 - TAIL_BEYOND / n), n


def peak_rss_mb(workload_name: str) -> float:
    # cli-cold's work happens in children; RUSAGE_CHILDREN reports the largest
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    import pmdkit

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "pmdkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pmdkit": pmdkit.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def set_up(workload, root: Path, reps: int):
    """Set the workload up `reps` times; seconds per repetition.

    One repetition is what a fresh harness pays before its first timed
    operation: ``import pmdkit`` (timed in a fresh interpreter, since this
    process has imported it already), input generation and a warm-up
    operation.
    """
    import layers
    from tracing import plain_call

    samples = []
    for _ in range(reps):
        import_s = layers.child_import_s(root)
        start = perf_counter()
        workload.prepare()
        workload.warm_up(plain_call)
        samples.append(import_s + perf_counter() - start)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def trace_metrics(summary: dict, overhead_pct: float) -> dict:
    out = {
        "trace.op_ms": metric(summary["op_us"] / 1e3, "ms"),
        "trace.overhead_pct": metric(overhead_pct, "%"),
        "trace.harness.self_pct": metric(100.0 * summary["harness_self_us_per_op"] / summary["op_us"], "%"),
    }
    for layer, row in summary["layers"].items():
        out[f"trace.{layer}.self_pct"] = metric(row["self_pct"], "%")
        out[f"trace.{layer}.calls_per_op"] = metric(row["calls_per_op"], "count")
    return out


def run(args, root: Path):
    import layers
    import workloads as wl
    from tracing import Tracer, plain_call

    workload = wl.WORKLOADS[args.workload](root, args.seed, smoke=False)
    setup_samples = set_up(workload, root, SETUP_REPS if not args.trace else 1)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup_samples,
              "cycle_len": workload.cycle_len}
    metrics = {}
    if not args.trace:
        (records,), (wall,) = run_phase(workload, args.seconds, [(plain_call, None)])
        rss = peak_rss_mb(args.workload)
        latencies, failures, unexpected = check_phase(workload, records)
        value, pct, n = tail(latencies)
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(len(latencies) / wall, "1/s"),
            "op_p50_ms": metric(statistics.median(latencies), "ms"),
            "op_tail_ms": metric(value, "ms"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
        detail.update(wall_s=wall, tail_percentile=pct, tail_samples=n)
    else:
        tracer = Tracer()
        (records, traced), (wall, traced_wall) = run_phase(
            workload, args.seconds, [(plain_call, None), (tracer.call, tracer)])
        latencies, failures, unexpected = check_phase(workload, records)
        traced_latencies, traced_failures, traced_unexpected = check_phase(workload, traced)
        failures += traced_failures
        unexpected += traced_unexpected
        records += traced
        plain_rate = len(latencies) / wall
        traced_rate = len(traced_latencies) / traced_wall
        summary = tracer.summary(LAYERS)
        metrics.update(trace_metrics(summary, 100.0 * (1.0 - traced_rate / plain_rate)))
        layer_metrics, notes = layers.measure(root)
        metrics.update({name: metric(v, u) for name, (v, u) in layer_metrics.items()})
        detail.update(trace_summary=summary, untraced_ops_per_s=plain_rate,
                      traced_ops_per_s=traced_rate, layer_notes=notes)
        (root / ".bench_work").mkdir(exist_ok=True)
        tracer.dump(root / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.json")
    detail.update(attempted=len(records), failures_by_type=dict(failures),
                  unexpected_failures=unexpected[:20], provenance=provenance(root, args.seed))
    result = {"correct": not unexpected, "attempted": len(records),
              "failed": sum(failures.values()), "metrics": metrics}
    return result, detail


def expected_metric_names(root: Path, trace: int) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def smoke(root: Path, seed: int) -> int:
    """One traced cycle of every workload at a small size; 0 if all is well."""
    import layers
    import workloads as wl
    from tracing import Tracer

    ok = True
    emitted = set()
    for name, cls in wl.WORKLOADS.items():
        workload = cls(root, seed, smoke=True)
        workload.prepare()
        tracer = Tracer()
        (records,), _ = run_phase(workload, 0.0, [(tracer.call, tracer)])
        latencies, failures, unexpected = check_phase(workload, records)
        ok &= bool(latencies) and not unexpected
        emitted |= set(trace_metrics(tracer.summary(LAYERS), 0.0))
        print(json.dumps({"smoke": name, "ops": len(records), "passed": len(latencies),
                          "failures_by_type": dict(failures), "unexpected": unexpected}))
    layer_metrics, _ = layers.measure(root, quick=True)
    names = set(expected_metric_names(root, 1))
    emitted |= set(layer_metrics)
    missing = sorted(names - emitted)
    extra = sorted(emitted - names)
    ok &= not missing and not extra
    print(json.dumps({"smoke": "layers", "metrics": len(layer_metrics),
                      "missing": missing, "extra": extra}))
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "pmdkit" / "__init__.py").is_file():
        print(f"error: no pmdkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # deep-tail inputs make numpy warn about log(0); the failures are counted
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    if args.smoke:
        return smoke(root, args.seed)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, detail = run(args, root)
    expected = expected_metric_names(root, args.trace)
    if sorted(result["metrics"]) != sorted(expected):
        print(f"error: emitted metrics {sorted(result['metrics'])} != BENCHMARK.json {expected}",
              file=sys.stderr)
        return 3
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (work / f"{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
