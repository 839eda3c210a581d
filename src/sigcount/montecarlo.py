"""Seeded trial batteries over (n, m) grids with per-estimator tallies.

Every trial runs through one loop, `_trial_spectra`, which draws its
snapshots from a stream keyed by the master seed and a global trial index
(grid_point_index * trials + t). A job is a contiguous range of those
indices within one grid point. `run_experiment` splits each point's trials
into at most ``workers`` such ranges and adds their ``np.bincount``
tallies, so results are identical for any worker count or execution order,
and adding grid points never perturbs the streams of earlier points. A job
draws and multiplies into arrays it allocates once, and runs every check
`snapshot_spectrum` runs.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .asymptotics import clt_statistics, q_matrix
from .core import ConvergenceFailure, EstimatorId, SampleSpectrum, ScenarioSpec, _integer
from .covariance import _product_buffers, _spectrum
from .estimators import ESTIMATORS, _criteria
from .snapshots import SeedPolicy, _draw, _draw_buffers

__all__ = [
    "ExperimentPlan",
    "TrialSummary",
    "run_experiment",
    "detection_probability",
    "CltCheckReport",
    "run_clt_check",
]

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
    estimators: tuple[EstimatorId, ...] = tuple(ESTIMATORS)

    def __post_init__(self) -> None:
        grid = tuple((_integer("grid n", n), _integer("grid m", m)) for n, m in self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "trials", _integer("trials", self.trials))
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


def _trial_spectra(
    scenario: ScenarioSpec, master_seed: int, trials: range
) -> Iterator[SampleSpectrum]:
    """Spectra of the given global trials; a ConvergenceFailure names its trial."""
    x, part = _draw_buffers(scenario)
    product, scratch = _product_buffers(x, min(scenario.n, scenario.m))
    for trial in trials:
        try:
            _draw(scenario, SeedPolicy(master_seed, trial), x, part)
            spectrum = _spectrum(x, scenario.beta, product, scratch)
        except ConvergenceFailure as exc:
            raise ConvergenceFailure(
                f"n={scenario.n}, m={scenario.m}, trial={trial}: {exc}"
            ) from exc
        yield spectrum


def _tally_trials(plan: ExperimentPlan, trials: range) -> np.ndarray:
    """One ``np.bincount`` row of k-hat per estimator over a range of global trials.

    The range lies within one grid point, which its start identifies. Rows
    have length min(n, m), so the tallies of any split of the trials add up.
    """
    n, m = plan.grid[trials.start // plan.trials]
    spectra = _trial_spectra(plan.scenario_at(n, m), plan.master_seed, trials)
    k_hats = [
        [np.argmin(criteria[est]) for est in plan.estimators]
        for criteria in map(_criteria, spectra)
    ]
    return np.stack([np.bincount(column, minlength=min(n, m)) for column in zip(*k_hats)])


def run_experiment(plan: ExperimentPlan, workers: int = 1) -> list[TrialSummary]:
    """Run the full battery and aggregate k-hat tallies.

    Each grid point's trials run as min(workers, trials) contiguous, non-empty
    ranges of global trial indices, in this process or in a process pool.
    Adding a point's range tallies gives the same output for any worker count.
    """
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    t, w = plan.trials, min(workers, plan.trials)
    jobs = [
        range(g * t + i * t // w, g * t + (i + 1) * t // w)
        for g in range(len(plan.grid))
        for i in range(w)
    ]
    if workers == 1:
        tallies = list(map(_tally_trials, repeat(plan), jobs))
    else:
        # Imported here: serial runs never need the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_tally_trials, repeat(plan), jobs))
    return [
        TrialSummary(
            n=n, m=m, estimator_id=est,
            counts={k: int(c) for k, c in enumerate(row) if c}, trials=t,
        )
        for g, (n, m) in enumerate(plan.grid)
        for est, row in zip(plan.estimators, sum(tallies[g * w:(g + 1) * w]))
    ]


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
    """Simulate signal-free trials and compare the centered moment pair to theory.

    Raises:
        ValueError: trials < 2, which leaves the empirical covariance
            undefined, or an (n, m, beta) that `ScenarioSpec` rejects.
        TypeError: trials, n or m is not an integer.
    """
    trials = _integer("trials", trials)
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    scenario = ScenarioSpec((), 1.0, n, m, beta)
    spectra = _trial_spectra(scenario, master_seed, range(trials))
    samples = np.reshape([clt_statistics(spectrum) for spectrum in spectra], (trials, 2))
    q = q_matrix(n / m, beta)
    return CltCheckReport(
        n=n, m=m, beta=beta, trials=trials,
        empirical_mean=samples.mean(axis=0),
        empirical_cov=np.cov(samples, rowvar=False, ddof=1),
        predicted_cov=q,
        mean_tolerance=4.0 * np.sqrt(np.diag(q) / trials),
    )
