#!/usr/bin/env python3
"""Benchmark for sigcount: Monte Carlo throughput and ``estimate`` latency.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_oversampled --seed 1 --seconds 10 --trace 0

``--trace 0`` times the CLI end to end with tracing off. ``--trace 1``
replays the same inputs in-process through sigcount's public functions, with
a span around each call, and reports per-layer figures. Both modes check the
operations' outputs against such a replay. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it,
starting with ``#``, give the same figures for reading together with the
environment the run saw.

The benchmark imports sigcount from this checkout's ``src`` directory and
exits non-zero without a result when that directory is missing. It leaves
the BLAS thread variables as it finds them. See ``bench/README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "sigcount" / "__init__.py").is_file():
    sys.exit(f"error: no sigcount sources under {SRC}; run the benchmark from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402
from workloads import LAYERS, WORKLOADS, call_cli  # noqa: E402

#: Fresh interpreters started per run to time ``import sigcount``.
SETUP_REPEATS = 7

#: A replay costs as much as the timed operation, so the untraced run replays
#: every REPLAY_EVERY-th operation exactly, starting with the first. Every
#: operation must still parse and counts toward the workload's pooled checks;
#: the traced run replays all of them.
REPLAY_EVERY = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)
    tracer: Tracer | None = None


def time_import(repeats: int) -> float:
    """Median wall time of a fresh interpreter running ``import sigcount``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import sigcount"], env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def environment(workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    return {
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workers": workload.workers,
        "pool_workers": workload.pool_workers,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def attempt(op) -> tuple[float, object]:
    """Run one operation's CLI calls; return the wall time and the stdouts.

    A call that raises or exits with 2 or 3 makes the operation fail; the
    outcome is then the exception.
    """
    start = perf_counter()
    try:
        outs = [call_cli(argv) for argv in op.argvs]
    except Exception as exc:  # any crash of the program is a failed operation
        traceback.print_exc()
        return perf_counter() - start, exc
    elapsed = perf_counter() - start
    codes = [code for code, _ in outs if code not in (0, 1)]
    if codes:
        return elapsed, RuntimeError(f"sigcount exited {codes[0]}")
    return elapsed, [text for _, text in outs]


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 when no operation succeeded and b stayed 0."""
    return a / b if b else 0.0


def verdicts(workload, results: list) -> list[bool]:
    """An operation passes when its result exists and meets the workload's expectations."""
    valid = [r for r in results if r is not None]
    expected = iter(workload.expected_ok(valid))
    return [r is not None and next(expected) for r in results]


def run_e2e(workload, seed: int, seconds: float, workdir: str, setup_repeats: int) -> Result:
    setup_s = time_import(setup_repeats)
    ops = workload.ops(seed, workdir)
    attempt(next(ops))  # untimed warm-up: first-call page faults and BLAS thread start
    records = []
    start = perf_counter()
    while len(records) < workload.min_ops or perf_counter() - start < seconds:
        op = next(ops)
        records.append((op, *attempt(op)))
    rss = peak_rss_mb()

    null = NullTracer()
    replays = {}  # estimate_file repeats one operation; it is replayed once
    replayed = 0
    results = []
    for i, (op, _, outcome) in enumerate(records):
        try:
            got = None if isinstance(outcome, Exception) else workload.parse(op, outcome)
            if got is not None and (op in replays or i % REPLAY_EVERY == 0):
                if op not in replays:
                    replays[op] = workload.replay(op, null)
                replayed += 1
                got = got if got == replays[op] else None
            results.append(got)
        except Exception:  # unparseable output or a crash in the reference replay
            traceback.print_exc()
            results.append(None)
    failed = verdicts(workload, results).count(False)

    latencies_ms = np.array([elapsed for _, elapsed, _ in records]) * 1e3
    trials = sum(op.trials for op, _, _ in records)
    p50, p90 = np.percentile(latencies_ms, [50, 90])
    metrics = {
        "trials_per_s": (trials / (latencies_ms.sum() / 1e3), "1/s"),
        "op_ms_p50": (float(p50), "ms"),
        "op_ms_p90": (float(p90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "ops": (len(records), "count"),
        "ops_checked_by_replay": (replayed, "count"),
        "trials": (trials, "count"),
        "ops_failed_frac": (failed / len(records), "frac"),
    }
    return Result(len(records), failed, metrics, notes)


def run_trace(workload, seed: int, seconds: float, workdir: str) -> Result:
    tracer, null = Tracer(), NullTracer()
    ops = workload.ops(seed, workdir)
    workload.replay(next(ops), null)  # untimed warm-up
    library_s = 0.0
    replay_s = {tracer: 0.0, null: 0.0}
    results = []
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        op = next(ops)
        reference, got = None, {}
        try:
            t0 = perf_counter()
            reference = workload.library(op)
            library_s += perf_counter() - t0
            # Alternate which replay runs first so neither always finds warm caches.
            for tr in (null, tracer) if len(results) % 2 == 0 else (tracer, null):
                t0 = perf_counter()
                with tr.span("bench.op"):
                    got[tr] = workload.replay(op, tr)
                replay_s[tr] += perf_counter() - t0
        except Exception:  # a crash in the program fails this operation
            traceback.print_exc()
        ok = len(got) == 2 and reference == got[tracer] == got[null]
        results.append(got[tracer] if ok else None)
    failed = verdicts(workload, results).count(False)

    metrics = layer_metrics(tracer, LAYERS)
    spectra = metrics["core.validate_spectrum.calls"][0]
    for counter in ("core.zero_eigenvalues", "estimators.wk_degenerate_trials"):
        metrics[counter] = (tracer.counts[counter] / spectra if spectra else 0.0, "count")
    efficiency = _ratio(replay_s[tracer], workload.pool_workers * library_s)
    metrics["montecarlo.pool_efficiency"] = (efficiency if workload.uses_montecarlo else 0.0, "ratio")
    metrics["trace.overhead_ms"] = ((replay_s[tracer] - replay_s[null]) * 1e3, "ms")
    notes = {
        "ops": (len(results), "count"),
        "library_s": (library_s, "s"),
        "traced_replay_s": (replay_s[tracer], "s"),
        "untraced_replay_s": (replay_s[null], "s"),
        "trace_overhead_frac": (_ratio(replay_s[tracer] - replay_s[null], replay_s[null]), "frac"),
        "ops_failed_frac": (failed / len(results), "frac"),
    }
    return Result(len(results), failed, metrics, notes, tracer)


def run(workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> Result:
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
        if trace:
            return run_trace(workload, seed, seconds, workdir)
        return run_e2e(workload, seed, seconds, workdir, setup_repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment(workload), sort_keys=True)}")
    for name, (value, unit) in {**result.notes, **result.metrics}.items():
        print(f"# {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
