import numpy as np
import pytest

from sigcount import (
    CltCheckReport,
    ConvergenceFailure,
    EstimatorId,
    ExperimentPlan,
    ScenarioSpec,
    TrialSummary,
    detection_probability,
    q_matrix,
    run_clt_check,
    run_experiment,
)


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

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_experiment(small_plan(), workers=0)

    def test_convergence_failure_carries_trial_context(self, monkeypatch):
        def boom(_):
            raise ConvergenceFailure("deliberate failure")

        monkeypatch.setattr("sigcount.covariance.hermitian_eigenvalues", boom)
        with pytest.raises(ConvergenceFailure, match=r"n=16, m=32, trial=0.*deliberate"):
            run_experiment(small_plan(grid=((16, 32), (24, 8))))

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


class TestCltCheck:
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
