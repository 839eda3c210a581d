import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from sigcount import (
    CltCheckReport,
    ConvergenceFailure,
    EstimatorId,
    ExperimentPlan,
    SampleSpectrum,
    ScenarioSpec,
    SeedPolicy,
    SnapshotMatrix,
    TrialSummary,
    UnsupportedField,
    detection_probability,
    generate_snapshots,
    hermitian_eigenvalues,
    q_matrix,
    run_clt_check,
    run_experiment,
    sample_covariance,
    validate_spectrum,
)
from sigcount.montecarlo import _tally_trials, _trial_spectra


def small_plan(**overrides):
    base = dict(
        scenario=ScenarioSpec((8.0,), 1.0, 16, 32),
        grid=((16, 32), (12, 24)),
        trials=8,
        master_seed=77,
        estimators=(EstimatorId.NEW_RMT_AIC, EstimatorId.WK_MDL),
    )
    base.update(overrides)
    return ExperimentPlan(**base)


# Each size field, by the call that receives it; the SeedPolicy rule applies
# to all of them.
SIZED_CALLS = {
    "ScenarioSpec.n": ("n", lambda v: ScenarioSpec((), 1.0, v, 20)),
    "ScenarioSpec.m": ("m", lambda v: ScenarioSpec((), 1.0, 10, v)),
    "ScenarioSpec.beta": ("beta", lambda v: ScenarioSpec((), 1.0, 10, 20, v)),
    "SampleSpectrum.n": ("n", lambda v: SampleSpectrum([2.0, 1.0], v, 10)),
    "SampleSpectrum.m": ("m", lambda v: SampleSpectrum([2.0, 1.0], 2, v)),
    "SampleSpectrum.beta": ("beta", lambda v: SampleSpectrum([2.0, 1.0], 2, 10, v)),
    "SnapshotMatrix.n": ("n", lambda v: SnapshotMatrix(np.ones((2, 3)), v, 3, 1)),
    "SnapshotMatrix.m": ("m", lambda v: SnapshotMatrix(np.ones((2, 3)), 2, v, 1)),
    "SnapshotMatrix.beta": ("beta", lambda v: SnapshotMatrix(np.ones((2, 3)), 2, 3, v)),
    "ExperimentPlan.grid n": ("grid n", lambda v: small_plan(grid=((v, 32),))),
    "ExperimentPlan.grid m": ("grid m", lambda v: small_plan(grid=((16, v),))),
    "ExperimentPlan.trials": ("trials", lambda v: small_plan(trials=v)),
    "run_experiment": ("workers", lambda v: run_experiment(small_plan(), workers=v)),
    "run_clt_check": ("trials", lambda v: run_clt_check(10, 20, 1, v, 7)),
}

BAD_SIZES = [8.9, 2.0, np.float64(3.0), True, "7", None]


@pytest.mark.parametrize("call", sorted(SIZED_CALLS))
@pytest.mark.parametrize("value", BAD_SIZES, ids=repr)
def test_sizes_must_be_integers(monkeypatch, call, value):
    def no_draws(*args):
        raise AssertionError("drew snapshots")

    monkeypatch.setattr("sigcount.montecarlo._draw", no_draws)
    field, make = SIZED_CALLS[call]
    with pytest.raises(TypeError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        make(value)


def test_numpy_integer_sizes_become_ints():
    plan = small_plan(grid=((np.int64(16), np.uint16(32)),), trials=np.int32(8))
    assert plan == small_plan(grid=((16, 32),), trials=8)
    assert all(type(v) is int for v in (*plan.grid[0], plan.trials, plan.scenario_at(*plan.grid[0]).n))
    assert run_experiment(plan, workers=np.int8(1)) == run_experiment(plan)
    spectrum = SampleSpectrum([2.0, 1.0], np.int64(2), np.uint16(10), np.int8(2))
    beta = ScenarioSpec((), 1.0, 10, 20, np.int16(2)).beta
    snaps = SnapshotMatrix(np.ones((2, 3)), np.int64(2), np.uint16(3), np.int8(1))
    assert all(type(v) is int for v in (spectrum.n, spectrum.m, spectrum.beta, beta, snaps.n, snaps.m, snaps.beta))


class TestExperimentPlan:
    def test_scenario_at_swaps_dimensions_only(self):
        plan = small_plan()
        scen = plan.scenario_at(12, 24)
        assert (scen.n, scen.m) == (12, 24)
        assert scen.signal_eigenvalues == (8.0,)
        assert scen.noise_variance == 1.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            small_plan(grid=())

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            small_plan(trials=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError):
            small_plan(master_seed=seed)

    def test_rejects_duplicate_estimators(self):
        with pytest.raises(ValueError):
            small_plan(estimators=(EstimatorId.WK_AIC, EstimatorId.WK_AIC))

    def test_rejects_no_estimators(self):
        with pytest.raises(ValueError):
            small_plan(estimators=())

    def test_rejects_grid_point_too_small_for_signals(self):
        # One signal requires n >= 2 at every grid point.
        with pytest.raises(ValueError):
            small_plan(grid=((16, 32), (1, 4)))


class TestTrialSummary:
    def test_counts_must_sum_to_trials(self):
        with pytest.raises(ValueError):
            TrialSummary(16, 32, EstimatorId.WK_AIC, {0: 3}, trials=5)

    def test_keys_must_lie_in_search_range(self):
        with pytest.raises(ValueError):
            TrialSummary(4, 8, EstimatorId.WK_AIC, {4: 5}, trials=5)

    def test_detection_probability(self):
        summary = TrialSummary(16, 32, EstimatorId.WK_AIC, {0: 6, 2: 2}, trials=8)
        assert detection_probability(summary, 0) == 0.75
        assert detection_probability(summary, 2) == 0.25
        assert detection_probability(summary, 1) == 0.0


class TestRunExperiment:
    def test_deterministic(self):
        plan = small_plan()
        assert run_experiment(plan) == run_experiment(plan)

    def test_summary_layout(self):
        plan = small_plan()
        summaries = run_experiment(plan)
        assert [(s.n, s.m, s.estimator_id) for s in summaries] == [
            (16, 32, EstimatorId.NEW_RMT_AIC),
            (16, 32, EstimatorId.WK_MDL),
            (12, 24, EstimatorId.NEW_RMT_AIC),
            (12, 24, EstimatorId.WK_MDL),
        ]
        assert all(s.trials == 8 for s in summaries)

    def test_grid_prefix_stability(self):
        # Extending the grid must not disturb earlier grid points, because
        # trial streams are keyed by the global trial index.
        short = run_experiment(small_plan(grid=((16, 32),)))
        long = run_experiment(small_plan(grid=((16, 32), (12, 24))))
        assert long[:2] == short

    def test_worker_count_does_not_change_results(self):
        plan = small_plan(grid=((16, 32), (12, 24), (24, 8)), trials=9)
        serial = run_experiment(plan, workers=1)
        parallel = run_experiment(plan, workers=2)
        assert serial == parallel
        # More workers than trials: each point runs as one range per trial.
        few = replace(plan, trials=3)
        assert run_experiment(few, workers=5) == run_experiment(few, workers=1)

    @settings(max_examples=25, deadline=None)
    @given(point=st.integers(0, 1), cuts=st.sets(st.integers(1, 7)))
    def test_range_tallies_add_up(self, point, cuts):
        # Any partition of one point's trials into contiguous ranges tallies
        # the same as the whole range.
        plan = small_plan()
        first = point * plan.trials
        bounds = [first, *sorted(first + c for c in cuts), first + plan.trials]
        parts = [_tally_trials(plan, range(a, b)) for a, b in zip(bounds, bounds[1:])]
        whole = _tally_trials(plan, range(first, first + plan.trials))
        np.testing.assert_array_equal(sum(parts), whole)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_experiment(small_plan(), workers=0)

    @pytest.mark.parametrize(
        "run,context",
        [
            (lambda: run_experiment(small_plan(grid=((16, 32), (24, 8)))), "n=16, m=32"),
            (lambda: run_clt_check(10, 20, 1, trials=4, master_seed=3), "n=10, m=20"),
        ],
        ids=["run_experiment", "run_clt_check"],
    )
    def test_convergence_failure_carries_trial_context(self, monkeypatch, run, context):
        def boom(_):
            raise ConvergenceFailure("deliberate failure")

        monkeypatch.setattr("sigcount.covariance._solve", boom)
        with pytest.raises(ConvergenceFailure, match=rf"{context}, trial=0.*deliberate"):
            run()

    def test_easy_scenario_detected_every_trial(self):
        plan = ExperimentPlan(
            scenario=ScenarioSpec((50.0,), 1.0, 8, 128),
            grid=((8, 128),),
            trials=16,
            master_seed=5,
            estimators=(EstimatorId.NEW_RMT_AIC,),
        )
        (summary,) = run_experiment(plan)
        assert detection_probability(summary, 1) == 1.0


# At 3,000 trials and level 1e-3, a WK probability off by 0.03 either way
# fails with power 0.70 (WK_AIC at m = 40, p = 0.768), 0.91 (WK_AIC at
# m = 10) and over 0.97 (WK_MDL); NEW, near 1, fails at a shift of 0.02
# with power over 0.99. The seed and level were fixed before the first run.
@pytest.mark.parametrize("m,beta", [(10, 2), (40, 1)])
def test_noise_only_n2_tallies_match_the_exact_oracle(m, beta):
    trials, level = 3000, 1e-3
    plan = ExperimentPlan(ScenarioSpec((), 1.0, 2, m, beta=beta), ((2, m),), trials, master_seed=5150)
    exact = oracle.noise_only_n2_probabilities(m, beta)
    for summary in run_experiment(plan):
        p_values = oracle.binomial_p_values(trials, exact[summary.estimator_id])
        assert p_values[summary.counts.get(0, 0)] > level, (summary, exact[summary.estimator_id])
    # The stated power, for the column where it is lowest.
    p = exact[EstimatorId.WK_AIC]
    caught = oracle.binomial_p_values(trials, p) <= level
    power = min(np.exp(oracle.binomial_log_pmf(trials, p + d))[caught].sum() for d in (-0.03, 0.03))
    assert power > 0.69


@st.composite
def trial_scenarios(draw):
    """Scenarios with m < n, m = n and m = 1, real and complex."""
    n = draw(st.integers(1, 20))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, 2 * n)))
    signals = draw(st.lists(st.floats(1.5, 100.0), max_size=min(3, n - 1)))
    beta = draw(st.sampled_from([1, 2]))
    return ScenarioSpec(tuple(sorted(signals, reverse=True)), 1.0, n, m, beta)


class TestTrialSpectra:
    @settings(max_examples=100, deadline=None)
    @given(
        scenario=trial_scenarios(),
        master_seed=st.integers(0, 2**32 - 1),
        first=st.integers(0, 50),
    )
    @example(scenario=ScenarioSpec((), 1.0, 9, 1, 1), master_seed=0, first=0)
    @example(scenario=ScenarioSpec((), 1.0, 9, 1, 2), master_seed=0, first=0)
    @example(scenario=ScenarioSpec((4.0,), 1.0, 12, 5, 2), master_seed=1, first=3)
    @example(scenario=ScenarioSpec((4.0,), 1.0, 8, 8, 2), master_seed=2, first=0)
    def test_matches_public_chain(self, scenario, master_seed, first):
        # Three trials, so the reused buffers carry one trial into the next.
        n, m, beta = scenario.n, scenario.m, scenario.beta
        trials = range(first, first + 3)
        for trial, got in enumerate(_trial_spectra(scenario, master_seed, trials), first):
            snapshots = generate_snapshots(scenario, SeedPolicy(master_seed, trial))
            assert (got.n, got.m, got.beta) == (n, m, beta)
            if m >= n:
                chain = validate_spectrum(
                    hermitian_eigenvalues(sample_covariance(snapshots)), n, m, beta
                )
                np.testing.assert_array_equal(got.eigenvalues, chain.eigenvalues)
            else:
                want = oracle.reference_spectrum(snapshots)
                np.testing.assert_allclose(
                    got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-10 * want.eigenvalues[0]
                )

    @pytest.mark.parametrize("beta,bound", [(1, 2.0), (2, 3.25)])
    @pytest.mark.parametrize("n,m", [(1000, 250), (256, 1024)])
    def test_trials_allocate_no_snapshot_sized_temporaries(self, n, m, beta, bound):
        # Peak traced memory over ten trials, in units of one snapshot matrix.
        # The arrays a chunk reuses take 1.3 units for beta=1 and 2.8 for
        # beta=2. Fresh temporaries in every trial took 3.0 and 4.0, and any
        # one more real n x m temporary would cross the bound.
        plan = ExperimentPlan(ScenarioSpec((10.0, 3.0), 1.0, n, m, beta), ((n, m),), 10, 3)
        tracemalloc.start()
        try:
            run_experiment(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n * m * np.dtype(complex if beta == 2 else float).itemsize) < bound


class TestCltCheck:
    @pytest.mark.parametrize("trials", [0, 1, -1])
    def test_needs_two_trials(self, monkeypatch, trials):
        # Rejected before any trial is drawn, and without numpy warnings.
        def no_draws(*args):
            raise AssertionError("drew snapshots")

        monkeypatch.setattr("sigcount.montecarlo._draw", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trials must be >= 2"):
                run_clt_check(10, 20, 1, trials, 3)

    def test_quaternion_snapshots_unsupported(self):
        with pytest.raises(UnsupportedField):
            run_clt_check(10, 20, 4, trials=4, master_seed=3)

    def test_report_shapes_and_predictions(self):
        report = run_clt_check(10, 20, 1, trials=32, master_seed=3)
        assert report.empirical_mean.shape == (2,)
        assert report.empirical_cov.shape == (2, 2)
        np.testing.assert_array_equal(report.predicted_cov, q_matrix(0.5, 1))
        np.testing.assert_allclose(
            report.mean_tolerance, 4.0 * np.sqrt(np.diag(q_matrix(0.5, 1)) / 32)
        )

    def test_deterministic(self):
        a = run_clt_check(10, 20, 2, trials=16, master_seed=9)
        b = run_clt_check(10, 20, 2, trials=16, master_seed=9)
        np.testing.assert_array_equal(a.empirical_mean, b.empirical_mean)
        np.testing.assert_array_equal(a.empirical_cov, b.empirical_cov)

    def test_report_logic_all_within_bands(self):
        report = CltCheckReport(
            n=10, m=20, beta=1, trials=100,
            empirical_mean=np.array([0.01, -0.02]),
            empirical_cov=np.array([[1.05, 2.9], [2.9, 9.5]]),
            predicted_cov=np.array([[1.0, 3.0], [3.0, 10.0]]),
            mean_tolerance=np.array([0.1, 0.4]),
        )
        assert report.mean_ok and report.cov_ok and report.passed

    def test_report_logic_mean_out_of_band(self):
        report = CltCheckReport(
            n=10, m=20, beta=1, trials=100,
            empirical_mean=np.array([0.5, 0.0]),
            empirical_cov=np.array([[1.0, 3.0], [3.0, 10.0]]),
            predicted_cov=np.array([[1.0, 3.0], [3.0, 10.0]]),
            mean_tolerance=np.array([0.1, 0.4]),
        )
        assert not report.mean_ok
        assert report.cov_ok
        assert not report.passed

    def test_report_logic_cov_out_of_band(self):
        report = CltCheckReport(
            n=10, m=20, beta=1, trials=100,
            empirical_mean=np.array([0.0, 0.0]),
            empirical_cov=np.array([[1.2, 3.0], [3.0, 10.0]]),
            predicted_cov=np.array([[1.0, 3.0], [3.0, 10.0]]),
            mean_tolerance=np.array([0.1, 0.4]),
        )
        assert not report.cov_ok
        assert not report.passed
