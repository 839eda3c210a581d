"""The benchmark's four workloads: program inputs, replay and output checks.

Each workload turns the benchmark seed into a stream of operations. An
operation is what a user runs: one or two ``sigcount`` CLI calls, given as
argv, plus (for ``estimate_file``) the snapshot file they read. The program
receives nothing else; the ``--seed`` it gets is derived from the benchmark
seed and the operation's index.

For every operation a workload can also

* ``parse`` the CLI's stdout into a comparable result,
* ``replay`` the same inputs in-process through sigcount's public functions,
  one span per call when given a ``Tracer``, producing the same kind of
  result, and
* run its ``library`` entry point (``run_experiment``, ``run_clt_check`` or
  the CLI's ``main``) untraced, for the traced run's reference timing.

The results of the three must be equal. This module imports sigcount, so
``run.py`` puts the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import math
import os
import random
from collections import Counter
from dataclasses import dataclass

import numpy as np

import sigcount as sc
from sigcount.cli import load_input_file, main as cli_main

LAYERS = (
    "snapshots.generate_snapshots",
    "covariance.sample_covariance",
    "covariance.hermitian_eigenvalues",
    "core.validate_spectrum",
    "estimators.estimate_new",
    "estimators.estimate_wk_aic",
    "estimators.estimate_wk_mdl",
    "asymptotics.clt_statistics",
    "cli.load_input_file",
)

#: CLI estimator name -> (span name, public function, id printed by the CLI).
ESTIMATORS = {
    "new": ("estimators.estimate_new", sc.estimate_new, sc.EstimatorId.NEW_RMT_AIC),
    "aic": ("estimators.estimate_wk_aic", sc.estimate_wk_aic, sc.EstimatorId.WK_AIC),
    "mdl": ("estimators.estimate_wk_mdl", sc.estimate_wk_mdl, sc.EstimatorId.WK_MDL),
}

#: Population signal eigenvalues (noise variance 1) used by every workload.
SIGNALS = (10.0, 3.0)


@dataclass(frozen=True)
class Op:
    """One user operation: the CLI calls it makes and the trials they complete."""

    argvs: tuple[tuple[str, ...], ...]
    trials: int
    seed: int = 0
    path: str = ""


def call_cli(argv) -> tuple[int, str]:
    """Run ``sigcount <argv>`` in this process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects a bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _seeds(name: str, seed: int):
    """Program seeds for operations 0, 1, ... of one workload run."""
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.getrandbits(63)


def _spectrum(tr, snapshots):
    cov = tr.call("covariance.sample_covariance", sc.sample_covariance, snapshots)
    eigs = tr.call("covariance.hermitian_eigenvalues", sc.hermitian_eigenvalues, cov)
    spectrum = tr.call(
        "core.validate_spectrum", sc.validate_spectrum,
        eigs, snapshots.n, snapshots.m, snapshots.beta,
    )
    if tr.enabled:
        tr.count("core.zero_eigenvalues", int(np.count_nonzero(spectrum.eigenvalues == 0.0)))
    return spectrum


def _estimate(tr, spectrum, name: str):
    span, fn, _ = ESTIMATORS[name]
    result = tr.call(span, fn, spectrum)
    if tr.enabled and name != "new" and all(v == math.inf for _, v in result.criterion_values):
        tr.count("estimators.wk_degenerate_trials", 1)
    return result


@dataclass(frozen=True)
class Simulate:
    """``sigcount simulate`` batteries over a grid, checked against a replay.

    ``band`` is (n, m, k, p): over a whole run, NEW must report k on at least
    a share p of the trials at grid point (n, m), as the acceptance battery
    requires.
    """

    name: str
    grid: tuple[tuple[int, int], ...]
    trials: int
    workers: int
    pool_workers: int
    band: tuple[int, int, int, float]
    estimators: tuple[str, ...] = ("new", "aic", "mdl")
    min_ops: int = 1
    uses_montecarlo: bool = True

    def ops(self, seed: int, workdir: str):
        grid = ",".join(f"{n}:{m}" for n, m in self.grid)
        for program_seed in _seeds(self.name, seed):
            argv = (
                "simulate", "--signals", ",".join(f"{v:g}" for v in SIGNALS),
                "--grid", grid, "--estimators", ",".join(self.estimators),
                "--trials", str(self.trials), "--workers", str(self.workers),
                "--seed", str(program_seed),
            )
            yield Op((argv,), self.trials * len(self.grid), seed=program_seed)

    def parse(self, op: Op, stdouts: list[str]) -> dict:
        probs: dict[tuple, dict[int, float]] = {}
        for row in csv.DictReader(io.StringIO(stdouts[0])):
            key = (int(row["n"]), int(row["m"]), row["estimator"])
            probs.setdefault(key, {})[int(row["k"])] = float(row["probability"])
        tallies = {}
        for (n, m, est), by_k in probs.items():
            if sorted(by_k) != list(range(min(n, m))):
                raise ValueError(f"{n}:{m} {est}: k column is not 0..{min(n, m) - 1}")
            counts = {k: round(p * self.trials) for k, p in by_k.items()}
            if any(counts[k] / self.trials != p for k, p in by_k.items()):
                raise ValueError(f"{n}:{m} {est}: probabilities are not counts / trials")
            tallies[(n, m, est)] = {k: c for k, c in counts.items() if c}
        return tallies

    def replay(self, op: Op, tr) -> dict:
        # Trial streams follow montecarlo's documented keying:
        # (master seed, grid point index * trials + trial).
        tallies = {}
        for g, (n, m) in enumerate(self.grid):
            scenario = sc.ScenarioSpec(SIGNALS, 1.0, n, m)
            counts = {name: Counter() for name in self.estimators}
            for t in range(self.trials):
                snapshots = tr.call(
                    "snapshots.generate_snapshots", sc.generate_snapshots,
                    scenario, sc.SeedPolicy(op.seed, g * self.trials + t),
                )
                spectrum = _spectrum(tr, snapshots)
                for name in self.estimators:
                    counts[name][_estimate(tr, spectrum, name).k_hat] += 1
            for name in self.estimators:
                tallies[(n, m, ESTIMATORS[name][2].value)] = dict(counts[name])
        return tallies

    def library(self, op: Op) -> dict:
        plan = sc.ExperimentPlan(
            scenario=sc.ScenarioSpec(SIGNALS, 1.0, *self.grid[0]),
            grid=self.grid,
            trials=self.trials,
            master_seed=op.seed,
            estimators=tuple(ESTIMATORS[name][2] for name in self.estimators),
        )
        return {
            (s.n, s.m, s.estimator_id.value): {k: c for k, c in s.counts.items() if c}
            for s in sc.run_experiment(plan, workers=self.pool_workers)
        }

    def expected_ok(self, results: list[dict]) -> list[bool]:
        n, m, k, p_min = self.band
        key = (n, m, sc.EstimatorId.NEW_RMT_AIC.value)
        hits = sum(r[key].get(k, 0) for r in results)
        ok = bool(results) and hits >= p_min * self.trials * len(results)
        return [ok] * len(results)


@dataclass(frozen=True)
class Clt:
    """``sigcount clt-check`` for each beta in turn, as one operation.

    clt-check's own PASS/FAIL (exit 1) is a statistical outcome of the draw,
    not a failure of the program; the check is that the printed moments equal
    the replay's exactly.
    """

    name: str
    n: int
    m: int
    trials: int
    betas: tuple[int, ...] = (1, 2)
    min_ops: int = 1
    workers: int = 1
    pool_workers: int = 1
    uses_montecarlo: bool = True

    def ops(self, seed: int, workdir: str):
        for program_seed in _seeds(self.name, seed):
            argvs = tuple(
                ("clt-check", "--n", str(self.n), "--m", str(self.m), "--beta", str(beta),
                 "--trials", str(self.trials), "--seed", str(program_seed))
                for beta in self.betas
            )
            yield Op(argvs, self.trials * len(self.betas), seed=program_seed)

    def parse(self, op: Op, stdouts: list[str]) -> dict:
        moments = {}
        for beta, text in zip(self.betas, stdouts):
            fields = {
                key.strip(): value.strip()
                for key, value in (line.split(":", 1) for line in text.splitlines() if ":" in line)
            }
            moments[beta] = (
                ast.literal_eval(fields["empirical mean"]),
                ast.literal_eval(fields["empirical cov"]),
            )
        return moments

    def replay(self, op: Op, tr) -> dict:
        moments = {}
        for beta in self.betas:
            scenario = sc.ScenarioSpec((), 1.0, self.n, self.m, beta)
            samples = np.empty((self.trials, 2))
            for t in range(self.trials):
                snapshots = tr.call(
                    "snapshots.generate_snapshots", sc.generate_snapshots,
                    scenario, sc.SeedPolicy(op.seed, t),
                )
                samples[t] = tr.call(
                    "asymptotics.clt_statistics", sc.clt_statistics, _spectrum(tr, snapshots)
                )
            moments[beta] = (
                samples.mean(axis=0).tolist(),
                np.cov(samples, rowvar=False, ddof=1).tolist(),
            )
        return moments

    def library(self, op: Op) -> dict:
        moments = {}
        for beta in self.betas:
            report = sc.run_clt_check(self.n, self.m, beta, self.trials, op.seed)
            moments[beta] = (report.empirical_mean.tolist(), report.empirical_cov.tolist())
        return moments

    def expected_ok(self, results: list[dict]) -> list[bool]:
        return [True] * len(results)


def typical_spectrum(n: int, m: int, signals) -> np.ndarray:
    """The descending spectrum a unit-noise (n, m) sample covariance tends to.

    Signals map to their spiked limits l (1 + c / (l - 1)), c = n/m; the other
    n - k values are Marchenko-Pastur quantiles at (i + 1/2) / (n - k).
    """
    c = n / m
    if c >= 1 or any(lam <= 1 + math.sqrt(c) for lam in signals):
        raise ValueError("needs m > n and every signal above the detection threshold")
    lo, hi = (1 - math.sqrt(c)) ** 2, (1 + math.sqrt(c)) ** 2
    x = np.linspace(lo, hi, 20001)
    density = np.sqrt(np.maximum((hi - x) * (x - lo), 0.0)) / (2 * math.pi * c * x)
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2 * np.diff(x))])
    bulk = np.interp((np.arange(n - len(signals)) + 0.5) / (n - len(signals)), cdf / cdf[-1], x)
    spikes = [lam * (1 + c / (lam - 1)) for lam in signals]
    return np.concatenate([spikes, bulk[::-1]])


@dataclass(frozen=True)
class Estimate:
    """A closed loop of ``sigcount estimate <file>`` calls by one client.

    The file holds X = sqrt(m) U diag(sqrt(l)) V^T, with l from
    ``typical_spectrum`` and U, V random orthonormal factors drawn from the
    seed. Its sample covariance is U diag(l) U^T, so every seed gives a file on
    which NEW must find exactly k_eff signals. A plain Gaussian draw would not:
    NEW over-counts on about 1.5% of seeds at 256x1024, and a per-call check
    against k_eff would then fail at random.
    """

    name: str
    n: int
    m: int
    min_ops: int = 100
    workers: int = 1
    pool_workers: int = 1
    uses_montecarlo: bool = False

    def ops(self, seed: int, workdir: str):
        rng = np.random.default_rng(next(_seeds(self.name, seed)))
        u, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        v, _ = np.linalg.qr(rng.standard_normal((self.m, self.n)))
        x = (u * np.sqrt(self.m * typical_spectrum(self.n, self.m, SIGNALS))) @ v.T
        path = os.path.join(workdir, "snapshots.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"snapshots,n={self.n},m={self.m},beta=1\n")
            for row in x:
                f.write(",".join(map(repr, row.tolist())) + "\n")
        op = Op((("estimate", path),), 1, path=path)
        while True:
            yield op

    def parse(self, op: Op, stdouts: list[str]) -> dict:
        return {row["estimator_id"]: int(row["k_hat"]) for row in csv.DictReader(io.StringIO(stdouts[0]))}

    def replay(self, op: Op, tr) -> dict:
        loaded = tr.call("cli.load_input_file", load_input_file, op.path)
        spectrum = _spectrum(tr, loaded)
        return {
            ESTIMATORS[name][2].value: _estimate(tr, spectrum, name).k_hat
            for name in ("new", "aic", "mdl")
        }

    def library(self, op: Op) -> dict:
        code, stdout = call_cli(op.argvs[0])
        if code != 0:
            raise RuntimeError(f"sigcount estimate exited {code}")
        return self.parse(op, [stdout])

    def expected_ok(self, results: list[dict]) -> list[bool]:
        c = self.n / self.m
        k_eff = sum(1 for lam in SIGNALS if lam > 1 + math.sqrt(c))
        return [r[sc.EstimatorId.NEW_RMT_AIC.value] == k_eff for r in results]


WORKLOADS = {
    # Criterion-2 regime, m = 4n, serial. The three estimators' per-k window
    # loops take most of each trial (about 3 of 3.5 ms at 64:256), so a change
    # to the estimators shows here first.
    "mc_oversampled": Simulate(
        name="mc_oversampled",
        grid=((64, 256), (128, 512), (256, 1024)),
        trials=3, workers=1, pool_workers=1, band=(256, 1024, 2, 0.90),
    ),
    # The paper's headline regime, m < n: k_eff = 1, the WK criteria are
    # degenerate and covariance plus eigensolve take most of a trial. The
    # timed CLI calls are serial: with 2 workers at the default BLAS thread
    # count the same 10-trial call took anywhere from 1.9 s to 27.8 s on a
    # 2-core machine, too erratic to time. The traced run times the same
    # trials through a 2-worker pool as montecarlo.pool_efficiency instead.
    "mc_undersampled": Simulate(
        name="mc_undersampled",
        grid=((1000, 250),),
        trials=2, workers=1, pool_workers=2, band=(1000, 250, 1, 0.80),
    ),
    # Noise-only moment CLT for beta = 1 then 2. No estimator runs, so an
    # estimator change must leave it unchanged; beta = 2 takes the complex
    # covariance and eigensolve path. 1000 trials is clt-check's minimum.
    "clt": Clt(name="clt", n=100, m=200, trials=1000),
    # The only workload that reaches the cli layer and times single calls:
    # parsing the 5 MB file takes most of each call.
    "estimate_file": Estimate(name="estimate_file", n=256, m=1024),
}
