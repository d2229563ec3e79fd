"""Benchmark of the tsp-qsearch command-line pipeline.

    python3 benchmark/run.py --workload circuit-run-n4 --seed 1 --seconds 15 --trace 0

Load: one process, one client, closed loop.  Each operation is one or
more in-process calls to ``tsp_qsearch.cli.main`` (the users' entry
point; interpreter start-up stays out of per-op time), issued when the
previous one has finished and been checked against ``reference.py``.

``--trace 0`` times untraced ops and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced ops, reports per-layer
metrics from the traced ones plus the tracing overhead, and writes the
spans to ``benchmark/out/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a run header and a readable table.  METRICS.md documents
every metric.
"""

from __future__ import annotations

import os

# One client, one thread: keep BLAS from starting threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import blocks
import speed
import tracing
from workloads import WORKLOADS, CircuitWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "tsp_qsearch"

SETUP_REPS = 5
SETUP_PROBES = 5
WARMUP_OPS = 2
# p90 needs at least 10 samples beyond it; the loop runs past --seconds until it has them.
MIN_SAMPLES = 100
TRACED_MIN_SAMPLES = 20
LOOP_CAP_S = 140.0
PROFILE_REPS = 3

END_TO_END = {
    "norm_ops_per_s": "1/s",
    "norm_latency_p50_ms": "ms",
    "norm_latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed in the table beside END_TO_END, not gated: they swing with the host.
RAW = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "probe_slowdown": "ratio",
    "raw_setup_s": "s",
}

PER_LAYER = {
    "cli.self_ms": "ms",
    "cli.bytes_written": "B",
    "cli.share": "ratio",
    "core.ms": "ms",
    "core.calls": "count",
    "core.share": "ratio",
    "circuits.build_ms": "ms",
    "circuits.gates_built": "count",
    "circuits.metrics_ms": "ms",
    "circuits.text_ms": "ms",
    "circuits.share": "ratio",
    "simulator.run_ms": "ms",
    "simulator.us_per_gate": "us",
    "simulator.gates_applied": "count",
    "simulator.x_gate_frac": "ratio",
    "simulator.bytes_touched": "B",
    "simulator.readout_ms": "ms",
    "simulator.sample_ms": "ms",
    "simulator.state_bytes": "B",
    "simulator.share": "ratio",
    **{name: ("ms" if name.endswith("_ms") else "us" if name.endswith("us_per_gate") else "count")
       for name in blocks.profile_names()},
    "matrix_model.ms": "ms",
    "matrix_model.iterations": "count",
    "matrix_model.us_per_iteration": "us",
    "matrix_model.share": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
}

# glibc sysconf names for the data cache sizes.
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    midpoints: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    traced_bytes: list[int] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def set_up(workload_cls, workdir: Path, seed: int, probes: speed.Speed):
    """Seconds to import the package afresh, write the inputs and run the warm-up ops.

    Returns the median over SETUP_REPS repetitions, normalised by the
    speed probe run just before each, the raw median, and the workload
    of the last repetition.  numpy is imported by the benchmark itself
    before this, so the time is the package's own.
    """
    raw, normalised = [], []
    for _ in range(SETUP_REPS):
        factor = probes.reference / statistics.median(probes.probe() for _ in range(SETUP_PROBES))
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        workload = workload_cls(importlib.import_module(PACKAGE + ".cli"), workdir, seed)
        for i in range(WARMUP_OPS):
            workload.execute(i)
        raw.append(time.perf_counter() - start)
        normalised.append(raw[-1] * factor)
    return statistics.median(normalised), statistics.median(raw), workload


def attempt(workload, i: int, tally: Tally, recorder=None) -> None:
    """Run and check op i; a failed or mis-checked op is counted, never raised."""
    tally.attempted += 1
    try:
        if recorder is None:
            start = time.perf_counter()
            seconds, stdout, codes = workload.execute(i)
            tally.latencies.append(seconds)
            tally.midpoints.append(start + seconds / 2)
        else:
            recorder.op = i
            with recorder.span("op"):
                seconds, stdout, codes = workload.execute(i, recorder)
            tally.traced.append(seconds)
            tally.traced_bytes.append(workload.bytes_written(stdout))
        errors = [f"exit codes {codes}"] if any(codes) else workload.check(i, stdout)
    except Exception as exc:  # the run must go on; the op counts as failed
        errors = [f"{type(exc).__name__}: {exc}"]
    if errors:
        tally.failed += 1
        if tally.failed <= 3:
            print(f"op {i} failed: {'; '.join(errors[:3])}", file=sys.stderr)


def loop(workload, seconds: float, tally: Tally, recorder=None, probes=None) -> None:
    """Closed loop for `seconds`; with a recorder, odd ops are traced and even ops are not.

    With `probes`, the speed probe runs between ops.
    """
    need = MIN_SAMPLES if recorder is None else TRACED_MIN_SAMPLES
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        have = len(tally.latencies if recorder is None else tally.traced)
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and have >= need):
            return
        if recorder is not None and i % 2:
            restore = tracing.instrument(workload.cli, recorder)
            try:
                attempt(workload, i, tally, recorder)
            finally:
                restore()
        else:
            if probes is not None:
                probes.maybe_probe()
            attempt(workload, i, tally)
        i += 1


def latency_metrics(prefix: str, seconds: list[float], ok: int) -> dict[str, float]:
    ms = [1e3 * s for s in seconds]
    return {
        f"{prefix}ops_per_s": ok / sum(seconds),
        f"{prefix}latency_p50_ms": statistics.median(ms),
        f"{prefix}latency_p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def end_to_end(tally: Tally, probes: speed.Speed, setup: tuple[float, float]) -> tuple[dict[str, float], dict[str, float]]:
    """Gated metrics (op times normalised by the speed probe) and raw ones."""
    ok = tally.attempted - tally.failed
    factors = [probes.factor(t) for t in tally.midpoints]
    normalised = [s * f for s, f in zip(tally.latencies, factors)]
    gated = {
        **latency_metrics("norm_", normalised, ok),
        "setup_s": setup[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        **latency_metrics("", tally.latencies, ok),
        "probe_slowdown": statistics.median(probes.seconds) / probes.reference,
        "raw_setup_s": setup[1],
    }
    return gated, raw


def per_layer(recorder: tracing.Recorder, tally: Tally, profile: dict[str, float]) -> dict[str, float]:
    summaries = tracing.op_summaries(recorder)

    def med(key):
        return statistics.median(s.get(key, 0.0) for s in summaries)

    def share(layer):
        return sum(s.get(layer, 0.0) for s in summaries) / sum(s["op"] for s in summaries)

    def per(numerator, denominator, scale):
        return scale * numerator / denominator if denominator else 0.0

    gates = med("gates")
    iterations = med("iterations")
    metrics = {
        "cli.self_ms": 1e3 * med("cli"),
        "cli.bytes_written": statistics.median(tally.traced_bytes),
        "core.ms": 1e3 * med("core"),
        "core.calls": med("core.calls"),
        "circuits.build_ms": 1e3 * med("circuits.build"),
        "circuits.gates_built": med("gates_built"),
        "circuits.metrics_ms": 1e3 * med("circuits.metrics"),
        "circuits.text_ms": 1e3 * med("circuits.circuit_to_text"),
        "simulator.run_ms": 1e3 * med("simulator.run"),
        "simulator.us_per_gate": per(med("simulator.run"), gates, 1e6),
        "simulator.gates_applied": gates,
        "simulator.x_gate_frac": per(med("x_gates"), gates, 1.0),
        "simulator.bytes_touched": med("bytes"),
        "simulator.readout_ms": 1e3 * med("simulator.main_distribution"),
        "simulator.sample_ms": 1e3 * med("simulator.sample"),
        "simulator.state_bytes": med("state_bytes"),
        "matrix_model.ms": 1e3 * med("matrix_model"),
        "matrix_model.iterations": iterations,
        "matrix_model.us_per_iteration": per(med("matrix_model"), iterations, 1e6),
        "trace.overhead_frac": statistics.median(tally.traced) / statistics.median(tally.latencies) - 1,
        "trace.ops": len(summaries),
        **profile,
    }
    for layer in ("cli", *tracing.LAYERS):
        metrics[f"{layer}.share"] = share(layer)
    return {name: metrics[name] for name in PER_LAYER}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cache_sizes() -> dict[str, int | None]:
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
    except (OSError, AttributeError):
        return dict.fromkeys(_SC_CACHE)
    return {name: (libc.sysconf(code) if libc.sysconf(code) > 0 else None) for name, code in _SC_CACHE.items()}


def header(args, tally: Tally) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "package_version": importlib.import_module(PACKAGE).__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cache_bytes": cache_sizes(),
        "setup_reps": SETUP_REPS,
        "warmup_ops": WARMUP_OPS,
        "attempted": tally.attempted,
        "untraced_samples": len(tally.latencies),
        "traced_samples": len(tally.traced),
    }


def run(args, workdir: Path) -> dict:
    workload_cls = WORKLOADS[args.workload]
    probes = speed.Speed(workload_cls.probe_parts)
    *setup, workload = set_up(workload_cls, workdir, args.seed, probes)
    tally = Tally()
    raw = {}
    if not args.trace:
        loop(workload, args.seconds, tally, probes=probes)
        metrics, raw = end_to_end(tally, probes, tuple(setup))
    else:
        recorder = tracing.Recorder()
        loop(workload, args.seconds, tally, recorder)
        profile = blocks.empty()
        if isinstance(workload, CircuitWorkload):
            tally.attempted += 1
            profile, errors = blocks.profile(
                importlib.import_module(PACKAGE), workload.n, workload.dataset(0)[0],
                workload.q1, workload.steps, PROFILE_REPS,
            )
            if errors:
                tally.failed += 1
                print(f"block profile failed: {'; '.join(errors)}", file=sys.stderr)
        recorder.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(recorder, tally, profile)

    units = PER_LAYER if args.trace else END_TO_END
    print("run header: " + json.dumps(header(args, tally), sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {units[name]}")
    for name, value in raw.items():
        print(f"  {name:<34} {value:>16.6f} {RAW[name]} (not gated)")
    print(f"  {'failed_frac':<34} {tally.failed / tally.attempted:>16.6f} ratio ({tally.failed}/{tally.attempted})")
    if not args.trace:
        p90 = raw["latency_p90_ms"]
        beyond = sum(1e3 * s > p90 for s in tally.latencies)
        print(f"  latency samples {len(tally.latencies)}, {beyond} beyond p90")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
