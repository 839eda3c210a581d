#!/usr/bin/env python3
"""Fast self-test of the benchmark at a tiny run length.

    python3 bench/selftest.py

Runs scaled-down copies of the four workloads for one operation each, once
untraced and once traced, and checks that

1. every metric BENCHMARK.json names is emitted with its unit, end-to-end
   metrics are positive, and every layer a workload runs records calls;
2. no span's self time is negative or longer than the span;
3. no operation fails. In the traced run this means the library entry point,
   the traced replay and the untraced replay gave equal results; in the
   untraced run, that the CLI's output equals the replay and passes the
   workload's own checks.

Prints each problem and exits 1 if there is one, else exits 0.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
from tracing import self_times
from workloads import WORKLOADS

TRIAL_LAYERS = {
    "snapshots.generate_snapshots",
    "covariance.sample_covariance",
    "covariance.hermitian_eigenvalues",
    "core.validate_spectrum",
}
ESTIMATOR_LAYERS = {
    "estimators.estimate_new",
    "estimators.estimate_wk_aic",
    "estimators.estimate_wk_mdl",
}

#: The layers each workload's replay must call.
APPLIES = {
    "mc_oversampled": TRIAL_LAYERS | ESTIMATOR_LAYERS,
    "mc_undersampled": TRIAL_LAYERS | ESTIMATOR_LAYERS,
    "clt": TRIAL_LAYERS | {"asymptotics.clt_statistics"},
    "estimate_file": (TRIAL_LAYERS - {"snapshots.generate_snapshots"})
    | ESTIMATOR_LAYERS | {"cli.load_input_file"},
}

TINY = {
    "mc_oversampled": dataclasses.replace(WORKLOADS["mc_oversampled"], trials=2),
    "mc_undersampled": dataclasses.replace(
        WORKLOADS["mc_undersampled"], grid=((200, 50),), trials=4, band=(200, 50, 1, 0.5),
    ),
    "clt": dataclasses.replace(WORKLOADS["clt"], n=10, m=20),
    "estimate_file": dataclasses.replace(WORKLOADS["estimate_file"], n=32, m=128, min_ops=3),
}


def check(name: str, workload, spec: dict) -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        label = f"{name} trace={int(trace)}"
        result = run.run(workload, seed=1, seconds=0, trace=trace, setup_repeats=1)
        want = {metric["name"]: metric["unit"] for metric in spec[section]}
        got = {metric: unit for metric, (_, unit) in result.metrics.items()}
        if got != want:
            problems.append(f"{label}: metrics {sorted(got.items() ^ want.items())} differ from BENCHMARK.json")
        if result.failed:
            problems.append(f"{label}: {result.failed} of {result.attempted} operations failed")
        if not trace:
            problems += [
                f"{label}: {metric} = {value}" for metric, (value, _) in result.metrics.items() if value <= 0
            ]
            continue
        problems += [
            f"{label}: no calls into {layer}"
            for layer in sorted(APPLIES[name]) if result.metrics[f"{layer}.calls"][0] == 0
        ]
        if workload.uses_montecarlo and result.metrics["montecarlo.pool_efficiency"][0] <= 0:
            problems.append(f"{label}: montecarlo.pool_efficiency not measured")
        for (span, start, end, _), own in zip(result.tracer.spans, self_times(result.tracer.spans)):
            if not 0.0 <= own <= end - start:
                problems.append(f"{label}: span {span} has self time {own} of {end - start}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, workload in TINY.items():
        problems += check(name, workload, spec)
        print(f"{name}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
