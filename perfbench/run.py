"""vemoclap benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 45 --trace 0

Run from a checkout's root (any working directory works). The run:

1. pins BLAS to BLAS_THREADS threads, before numpy loads;
2. writes the workload's seeded inputs (containers, manifest, stats,
   checkpoint) into a fresh directory under perfbench/.work/ from a child
   process, so generation costs the measured process neither time nor
   peak memory;
3. times the set-up several times (SETUP_REPEATS) and reports the median;
4. runs rounds of the workload (see workloads.py) while --seconds last;
5. checks every output and counts failed operations;
6. prints a JSON environment record, a human-readable summary and, as the
   last line, {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 wraps the program's
public functions (see tracing.py), alternates untraced and traced rounds
to measure the tracing overhead, writes the spans to perfbench/.traces/
and reports the per-layer metrics for one set-up plus one average round.

Without the package sources next to it the run fails before printing a
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

from tracing import AUTOGRAD_OPS, Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
TRACE_ROOT = os.path.join(HERE, ".traces")

# One BLAS thread (nproc is 2 on the reference box): steadier under
# neighbours than two, and the same for every commit compared.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed at least SETUP_REPEATS[0] and at most SETUP_REPEATS[1]
# times, until SETUP_SECONDS have been spent, and the median is reported.
SETUP_REPEATS = (5, 50)
SETUP_SECONDS = 2.0

E2E_METRICS = {
    "videos_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _pin_blas() -> dict:
    env = {}
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
        env[var] = str(BLAS_THREADS)
    return env


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def generate(work_dir: str, plan, seed: int, workload: str) -> dict:
    """Write the workload's inputs from a child process; return its spec."""
    from dataclasses import asdict

    from inputs import PAPER

    cmd = [sys.executable, os.path.join(HERE, "inputs.py"), "--out", work_dir,
           "--seed", str(seed), "--workload", workload]
    if plan != PAPER:
        cmd += ["--plan", json.dumps(asdict(plan))]
    subprocess.run(cmd, env=_child_env(), check=True, timeout=170)
    with open(os.path.join(work_dir, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it (the maximum when there are few samples)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _timed_round(w, outcome) -> tuple[float, int]:
    """Run one round; returns (wall seconds, work count or 0 on failure)."""
    w.prepare_round()
    outcome.attempted += w.round_ops()
    t0 = time.perf_counter()
    try:
        work = w.round()
    except Exception as exc:  # count the round's operations as failed, keep measuring
        elapsed = time.perf_counter() - t0
        outcome.fail(w.round_ops(), f"{w.name} round: {type(exc).__name__}: {exc}")
        return elapsed, 0
    elapsed = time.perf_counter() - t0
    w.check_round()
    return elapsed, work


def measure(w, outcome, seconds: float) -> dict:
    """End-to-end run: repeated set-up, then rounds while time is left."""
    setup_s = []
    while len(setup_s) < SETUP_REPEATS[0] or (
        sum(setup_s) < SETUP_SECONDS and len(setup_s) < SETUP_REPEATS[1]
    ):
        w.release()
        t0 = time.perf_counter()
        w.setup()
        setup_s.append(time.perf_counter() - t0)
    w.check_setup()
    rounds = []  # (busy seconds, work)
    start = time.perf_counter()
    while len(rounds) < w.min_rounds or time.perf_counter() - start < seconds:
        wall, work = _timed_round(w, outcome)
        rounds.append((w.busy_seconds(wall), work))
    w.finish()
    done = [r for r in rounds if r[1]]
    rate = median([work / s for s, work in done]) if done else 0.0
    if hasattr(w, "latencies_ns"):
        lat_ms = [ns / 1e6 for ns in w.latencies_ns]
    else:
        lat_ms = [s * 1e3 for s, _ in done]
    values = {
        "videos_per_s": rate,
        "request_ms_p50": median(lat_ms) if lat_ms else 0.0,
        "request_ms_p99": percentile(lat_ms, 99) if lat_ms else 0.0,
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = {
        "rounds": len(rounds),
        "round_s": [round(s, 4) for s, _ in rounds],
        "work_per_round": [work for _, work in rounds],
        "work_unit": w.unit,
        "latency_samples": len(lat_ms),
        "setup_samples_s": [round(s, 4) for s in setup_s],
    }
    return {"metrics": values, "summary": summary}


def measure_traced(w, outcome, seconds: float, trace_path: str) -> dict:
    """Traced run: one traced set-up, then untraced/traced round pairs."""
    tracer = Tracer()
    with tracer.installed():
        root = tracer.open("bench.setup")
        try:
            w.setup()
        finally:
            tracer.close(root)
    w.check_setup()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(_timed_round(w, outcome)[0])
        w.prepare_round()
        outcome.attempted += w.round_ops()
        ok = False
        with tracer.installed():
            root = tracer.open("bench.round")
            try:
                w.round()
                ok = True
            except Exception as exc:  # count the round's operations as failed, keep measuring
                outcome.fail(w.round_ops(), f"{w.name} traced round: {type(exc).__name__}: {exc}")
            finally:
                tracer.close(root)
        traced.append((tracer.spans[root][2] - tracer.spans[root][1]) * 1e-9)
        if ok:
            w.check_round()
        pair = plain[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    w.finish()
    tracer.write(trace_path)
    return per_layer(tracer, len(traced), median(traced) - median(plain))


def _time(layer: str, field: str):
    """Busy (field "s") or self ("self_s") seconds of a traced layer."""
    return (f"{layer}.{field}", "s", ("span", layer, field))


def _calls(layer: str):
    return (f"{layer}.calls", "count", ("span", layer, "calls"))


# Per-layer metrics: (metric name, unit, source). A source is
# ("span", layer, field) for calls / s / self_s of a traced function, or
# ("counter", name) for a count computed inside the wrappers.
LAYER_METRICS = [
    _calls("container.read_container"),
    _time("container.read_container", "s"),
    ("container.read_container.bytes", "bytes", ("counter", "container.read_container.bytes")),
    _time("container.write_blocks", "s"),
    ("container.write_blocks.bytes", "bytes", ("counter", "container.write_blocks.bytes")),
    _time("model.load_checkpoint", "s"),
    *(
        _time(f"dataset.{fn}", "s")
        for fn in ("sample_indices", "select_frames", "normalize_features", "compute_stats")
    ),
    *(
        _calls(f"model.{fn}") if field == "calls" else _time(f"model.{fn}", field)
        for fn in ("forward", "cross_attention")
        for field in ("calls", "s", "self_s")
    ),
    *(
        metric
        for op in AUTOGRAD_OPS
        for metric in (_calls(f"autograd.{op}"), _time(f"autograd.{op}", "s"))
    ),
    _time("autograd.Graph.backward", "s"),
    ("autograd.tape_entries_per_step", "count", ("counter", "tape_entries_per_step")),
    ("autograd.matmul_calls_per_step", "count", ("counter", "matmul_calls_per_step")),
    ("autograd.matmul.flops", "flop", ("counter", "autograd.matmul.flops")),
    ("autograd.matmul.bytes", "bytes", ("counter", "autograd.matmul.bytes")),
    *(
        _time(f"training.{fn}", "s")
        for fn in ("adam_step", "cross_entropy", "evaluate", "predict_label")
    ),
    _time("training.train", "self_s"),
    _calls("rng.SplitMix64.random"),
    _time("rng.SplitMix64.random", "s"),
    _calls("rng.SplitMix64.derive"),
    ("trace.overhead_s", "s", ("counter", "trace.overhead_s")),
    ("trace.wall_s", "s", ("counter", "trace.wall_s")),
    ("trace.self_sum_s", "s", ("counter", "trace.self_sum_s")),
    ("env.src_lines", "count", ("counter", "env.src_lines")),
]


def per_layer(tracer, rounds: int, overhead_s: float) -> dict:
    weights = {"bench.setup": 1.0, "bench.round": 1.0 / rounds}
    agg = aggregate(tracer.spans, weights)
    counters = {}
    for root, w in weights.items():
        for key, value in tracer.counters.get(root, {}).items():
            counters[key] = counters.get(key, 0.0) + w * value
    steps = counters.get("autograd.backward_calls", 0.0)
    counters["tape_entries_per_step"] = counters.get("autograd.tape_entries", 0.0) / steps if steps else 0.0
    counters["matmul_calls_per_step"] = (
        counters.get("autograd.matmul.training_calls", 0.0) / steps if steps else 0.0
    )
    counters["trace.overhead_s"] = overhead_s
    counters["trace.wall_s"] = agg["trace"]["wall_s"]
    counters["trace.self_sum_s"] = agg["trace"]["self_sum_s"]
    counters["env.src_lines"] = src_lines()
    values = {}
    for name, unit, source in LAYER_METRICS:
        if source[0] == "counter":
            value = counters.get(source[1], 0.0)
        else:
            value = agg.get(source[1], {}).get(source[2], 0.0)
        values[name] = (value, unit)
    return {"per_layer": values, "layers": {k: v for k, v in agg.items() if k != "trace"},
            "traced_rounds": rounds}


def src_lines() -> int:
    pkg = os.path.join(SRC, "vemoclap")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(blas_env: dict) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas_version = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "blas_env": blas_env,
        "numpy": np.__version__,
        "blas": blas_version,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "decode_cache": "warm: the page cache is not dropped, so decode times are warm-cache",
    }


def run(workload: str, seed: int, seconds: float, trace: bool, plan=None) -> dict:
    """Generate inputs, measure, check; returns the result object."""
    from inputs import PAPER
    from workloads import WORKLOADS, Outcome

    plan = plan or PAPER
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    outcome = Outcome()
    try:
        spec = generate(os.path.join(work_dir, "inputs"), plan, seed, workload)
        w = WORKLOADS[workload](spec, plan, work_dir, outcome)
        if trace:
            trace_path = os.path.join(TRACE_ROOT, f"{workload}-seed{seed}.spans.csv.gz")
            found = measure_traced(w, outcome, seconds, trace_path)
            metrics = found.pop("per_layer")
            wall, self_sum = metrics["trace.wall_s"][0], metrics["trace.self_sum_s"][0]
            if not abs(wall - self_sum) <= 1e-6 * wall:
                outcome.fail(1, f"span self times sum to {self_sum} s, traced wall is {wall} s")
            found["spans_file"] = os.path.relpath(trace_path, ROOT)
        else:
            found = measure(w, outcome, seconds)
            metrics = {k: (v, E2E_METRICS[k]) for k, v in found.pop("metrics").items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "details": found,
        "problems": outcome.problems,
        "result": {
            "correct": outcome.failed == 0 and not outcome.problems,
            "attempted": outcome.attempted,
            # A check can flag an operation more than once.
            "failed": min(outcome.failed, outcome.attempted),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vemoclap benchmark")
    ap.add_argument("--workload", required=True, choices=("train_paper", "predict_single"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vemoclap", "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    blas_env = _pin_blas()
    sys.path[:0] = [SRC, HERE]

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment(blas_env)}, sort_keys=True))
    print(json.dumps({"details": out["details"], "problems": out["problems"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
