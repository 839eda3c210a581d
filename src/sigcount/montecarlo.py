"""Seeded trial batteries over (n, m) grids with per-estimator tallies.

Every trial draws its snapshots from a stream keyed by the plan's master
seed and a global trial index (grid_point_index * trials + t), so results
are reproducible regardless of worker count or execution order, and adding
grid points never perturbs the streams of earlier points.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import clt_statistics, q_matrix
from .core import ConvergenceFailure, EstimatorId, ScenarioSpec
from .covariance import snapshot_spectrum
from .estimators import ESTIMATORS
from .snapshots import SeedPolicy, generate_snapshots

__all__ = [
    "ExperimentPlan",
    "TrialSummary",
    "run_experiment",
    "detection_probability",
    "CltCheckReport",
    "run_clt_check",
]

ALL_ESTIMATORS = (EstimatorId.NEW_RMT_AIC, EstimatorId.WK_AIC, EstimatorId.WK_MDL)


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of (n, m) points, each run for `trials` seeded trials.

    ``scenario`` acts as a template: its signal eigenvalues, noise variance
    and beta are kept while (n, m) are replaced at every grid point.
    """

    scenario: ScenarioSpec
    grid: tuple[tuple[int, int], ...]
    trials: int
    master_seed: int
    estimators: tuple[EstimatorId, ...] = ALL_ESTIMATORS

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple((int(n), int(m)) for n, m in self.grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        SeedPolicy(self.master_seed)  # raises unless master_seed is a 64-bit unsigned int
        if not self.estimators:
            raise ValueError("at least one estimator must be selected")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("estimators must be distinct")
        for n, m in self.grid:
            # Raises if a grid point cannot host the template scenario.
            self.scenario_at(n, m)

    def scenario_at(self, n: int, m: int) -> ScenarioSpec:
        return replace(self.scenario, n=n, m=m)


@dataclass(frozen=True)
class TrialSummary:
    """Empirical distribution of one estimator's k-hat at one grid point."""

    n: int
    m: int
    estimator_id: EstimatorId
    counts: dict[int, int]
    trials: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.trials:
            raise ValueError("counts must sum to the number of trials")
        bound = min(self.n, self.m)
        if any(not 0 <= k < bound for k in self.counts):
            raise ValueError(f"k-hat keys must lie in [0, {bound})")


def detection_probability(summary: TrialSummary, target_k: int) -> float:
    """Fraction of trials in which the estimator reported ``target_k``."""
    return summary.counts.get(target_k, 0) / summary.trials


def _tally_trials(
    scenario: ScenarioSpec,
    estimators: tuple[EstimatorId, ...],
    master_seed: int,
    first_index: int,
    count: int,
) -> dict[EstimatorId, Counter]:
    tallies: dict[EstimatorId, Counter] = {est: Counter() for est in estimators}
    for trial in range(first_index, first_index + count):
        try:
            # Nested so the snapshots are freed before the next trial draws its own.
            spectrum = snapshot_spectrum(
                generate_snapshots(scenario, SeedPolicy(master_seed, trial))
            )
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"n={scenario.n}, m={scenario.m}, trial={trial}: {exc}"
            ) from exc
        for est in estimators:
            tallies[est][ESTIMATORS[est](spectrum).k_hat] += 1
    return tallies


def _chunks(start: int, total: int, pieces: int) -> list[tuple[int, int]]:
    size, extra = divmod(total, pieces)
    out, cursor = [], start
    for i in range(pieces):
        width = size + (1 if i < extra else 0)
        if width:
            out.append((cursor, width))
            cursor += width
    return out


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[TrialSummary]:
    """Run the full battery and aggregate k-hat tallies.

    Trials are independent; with ``workers`` > 1 they are split across
    processes and the per-chunk tallies merged by commutative addition, so
    the output is identical for any worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    per_point: list[dict[EstimatorId, Counter]] = []
    if workers == 1:
        for g, (n, m) in enumerate(plan.grid):
            per_point.append(
                _tally_trials(
                    plan.scenario_at(n, m), plan.estimators, plan.master_seed,
                    g * plan.trials, plan.trials,
                )
            )
    else:
        # Imported here: serial runs never need the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = []
            for g, (n, m) in enumerate(plan.grid):
                scenario = plan.scenario_at(n, m)
                futures.append(
                    [
                        pool.submit(
                            _tally_trials, scenario, plan.estimators,
                            plan.master_seed, first, count,
                        )
                        for first, count in _chunks(g * plan.trials, plan.trials, workers)
                    ]
                )
            for point_futures in futures:
                merged: dict[EstimatorId, Counter] = {est: Counter() for est in plan.estimators}
                for fut in point_futures:
                    for est, tally in fut.result().items():
                        merged[est] += tally
                per_point.append(merged)

    summaries = []
    for (n, m), tallies in zip(plan.grid, per_point):
        for est in plan.estimators:
            summaries.append(
                TrialSummary(
                    n=n, m=m, estimator_id=est,
                    counts=dict(sorted(tallies[est].items())), trials=plan.trials,
                )
            )
    return summaries


@dataclass(frozen=True)
class CltCheckReport:
    """Empirical vs. predicted moments of the noise-only CLT statistic pair.

    The mean band is 4 sqrt(Q_ii / trials) around zero; the covariance band
    is 10% of each predicted entry.
    """

    n: int
    m: int
    beta: int
    trials: int
    empirical_mean: np.ndarray
    empirical_cov: np.ndarray
    predicted_cov: np.ndarray
    mean_tolerance: np.ndarray

    @property
    def mean_ok(self) -> bool:
        return bool(np.all(np.abs(self.empirical_mean) <= self.mean_tolerance))

    @property
    def cov_ok(self) -> bool:
        return bool(
            np.all(np.abs(self.empirical_cov - self.predicted_cov) <= 0.10 * np.abs(self.predicted_cov))
        )

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.cov_ok


def run_clt_check(n: int, m: int, beta: int, trials: int, master_seed: int) -> CltCheckReport:
    """Simulate signal-free trials and compare the centered moment pair to theory."""
    scenario = ScenarioSpec((), 1.0, n, m, beta)
    samples = np.empty((trials, 2))
    for trial in range(trials):
        snapshots = generate_snapshots(scenario, SeedPolicy(master_seed, trial))
        samples[trial] = clt_statistics(snapshot_spectrum(snapshots))
    q = q_matrix(n / m, beta)
    return CltCheckReport(
        n=n, m=m, beta=beta, trials=trials,
        empirical_mean=samples.mean(axis=0),
        empirical_cov=np.cov(samples, rowvar=False, ddof=1),
        predicted_cov=q,
        mean_tolerance=4.0 * np.sqrt(np.diag(q) / trials),
    )
