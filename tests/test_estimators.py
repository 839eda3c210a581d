import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from helpers import spectrum_from
from sigcount import (
    ESTIMATORS,
    EstimatorId,
    ScenarioSpec,
    SeedPolicy,
    estimate_new,
    estimate_wk_aic,
    estimate_wk_mdl,
    generate_snapshots,
    hermitian_eigenvalues,
    sample_covariance,
    validate_spectrum,
    window_statistics,
)
from sigcount.estimators import _criteria

# Frozen against a 50-digit independent evaluation of the criterion
# formulas on the spectrum [4, 2, 1] with n=3, m=10.
AIC_432 = (9.249040789635498, 12.355660713127669, 16.0)
MDL_432 = (4.624520394817749, 6.934293089048949, 9.210340371976183)
NEW_432_BETA1 = (2.326530612244898, 6.08641975308642, 10.0)
NEW_432_BETA2 = (2.010204081632653, 5.783950617283951, 10.5)


def seeded_spectrum(signals, n, m, seed=0, beta=1, sigma2=1.0):
    spec = ScenarioSpec(tuple(signals), sigma2, n, m, beta=beta)
    snaps = generate_snapshots(spec, SeedPolicy(seed))
    return validate_spectrum(hermitian_eigenvalues(sample_covariance(snaps)), n, m, beta)


class TestWindowMoments:
    def test_hand_case(self):
        mean, t, log_ratio = window_statistics(spectrum_from([4.0, 1.0], m=10))
        assert mean[0] == 2.5
        assert t[0] * mean[0] ** 2 == pytest.approx(8.5, rel=1e-15)
        assert log_ratio[0] == pytest.approx(math.log(2.0 / 2.5), rel=1e-15)
        assert t[0] == 8.5 / 6.25

    def test_window_drops_leading_eigenvalues(self):
        mean, _, log_ratio = window_statistics(spectrum_from([9.0, 4.0, 1.0], m=10))
        assert mean.shape == log_ratio.shape == (3,)
        assert mean[1] == pytest.approx(2.5, rel=1e-15)
        assert log_ratio[1] == pytest.approx(math.log(2.0 / 2.5), rel=1e-14)

    def test_zero_in_window_kills_geo_mean(self):
        mean, _, log_ratio = window_statistics(spectrum_from([4.0, 0.0], m=1))
        assert log_ratio[0] == -math.inf
        assert mean[0] == 2.0

    def test_all_zero_window_has_infinite_t(self):
        mean, t, _ = window_statistics(spectrum_from([4.0, 0.0, 0.0], m=3))
        assert mean[1] == 0.0
        assert t[1] == math.inf

    def test_t_at_least_one(self):
        # mean-square over squared-mean is >= 1 for any non-negative window.
        for seed in range(5):
            spectrum = seeded_spectrum([8.0], n=12, m=6, seed=seed)
            assert np.all(window_statistics(spectrum)[1] >= 1.0 - 1e-12)


class TestFrozenCriteria:
    def test_wk_aic_values(self):
        result = estimate_wk_aic(spectrum_from([4.0, 2.0, 1.0], m=10))
        got = [v for _, v in result.criterion_values]
        np.testing.assert_allclose(got, AIC_432, rtol=1e-12)
        assert result.k_hat == 0
        assert result.estimator_id is EstimatorId.WK_AIC

    def test_wk_mdl_values(self):
        result = estimate_wk_mdl(spectrum_from([4.0, 2.0, 1.0], m=10))
        got = [v for _, v in result.criterion_values]
        np.testing.assert_allclose(got, MDL_432, rtol=1e-12)
        assert result.k_hat == 0
        assert result.estimator_id is EstimatorId.WK_MDL

    def test_new_values_real(self):
        result = estimate_new(spectrum_from([4.0, 2.0, 1.0], m=10, beta=1))
        got = [v for _, v in result.criterion_values]
        np.testing.assert_allclose(got, NEW_432_BETA1, rtol=1e-12)
        assert result.k_hat == 0
        assert result.estimator_id is EstimatorId.NEW_RMT_AIC

    def test_new_values_complex(self):
        result = estimate_new(spectrum_from([4.0, 2.0, 1.0], m=10, beta=2))
        got = [v for _, v in result.criterion_values]
        np.testing.assert_allclose(got, NEW_432_BETA2, rtol=1e-12)
        assert result.k_hat == 0


class TestEstimatorBehaviour:
    def test_flat_spectrum_reports_zero_signals(self):
        spectrum = spectrum_from(np.full(6, 2.0), m=20)
        for estimate in ESTIMATORS.values():
            assert estimate(spectrum).k_hat == 0

    @pytest.mark.parametrize("gamma", [1e-300, 1e-3, 1e3, 1e300])
    def test_scale_invariance(self, gamma):
        base = seeded_spectrum([10.0, 3.0], n=16, m=64, seed=3)
        scaled = validate_spectrum(base.eigenvalues * gamma, 16, 64, 1)
        for estimate in ESTIMATORS.values():
            r0, r1 = estimate(base), estimate(scaled)
            assert r0.k_hat == r1.k_hat
            np.testing.assert_allclose(
                [v for _, v in r0.criterion_values],
                [v for _, v in r1.criterion_values],
                rtol=1e-8,
            )

    @pytest.mark.parametrize("n,m", [(5, 3), (3, 9)])
    def test_search_range_is_min_n_m(self, n, m):
        spectrum = seeded_spectrum([], n=n, m=m, seed=1)
        for estimate in ESTIMATORS.values():
            result = estimate(spectrum)
            ks = [k for k, _ in result.criterion_values]
            assert ks == list(range(min(n, m)))

    def test_rank_deficient_wk_degenerates_to_zero(self):
        # With m < n every window holds a zero eigenvalue, the log-ratio is
        # -inf, all criteria are +inf and the tie breaks to k = 0.
        spectrum = seeded_spectrum([25.0], n=8, m=4, seed=6)
        for estimate in (estimate_wk_aic, estimate_wk_mdl):
            result = estimate(spectrum)
            assert result.k_hat == 0
            assert all(math.isinf(v) for _, v in result.criterion_values)

    def test_rank_deficient_new_stays_finite(self):
        spectrum = seeded_spectrum([25.0], n=8, m=4, seed=6)
        result = estimate_new(spectrum)
        assert all(math.isfinite(v) for _, v in result.criterion_values)

    def test_all_zero_spectrum(self):
        spectrum = spectrum_from([0.0, 0.0, 0.0], m=2)
        for estimate in ESTIMATORS.values():
            result = estimate(spectrum)
            assert result.k_hat == 0
            assert all(math.isinf(v) for _, v in result.criterion_values)

    def test_depends_only_on_spectrum(self):
        # Feeding the same eigenvalues through a fresh SampleSpectrum gives
        # identical results; the estimators never look at raw snapshots.
        spectrum = seeded_spectrum([10.0, 3.0], n=10, m=40, seed=2)
        rebuilt = validate_spectrum(np.array(spectrum.eigenvalues), 10, 40, 1)
        for estimate in ESTIMATORS.values():
            assert estimate(spectrum) == estimate(rebuilt)

    def test_detects_planted_signals_in_easy_regime(self):
        spectrum = seeded_spectrum([50.0, 20.0], n=32, m=512, seed=4)
        assert estimate_new(spectrum).k_hat == 2
        assert estimate_wk_aic(spectrum).k_hat == 2
        assert estimate_wk_mdl(spectrum).k_hat == 2


@st.composite
def oracle_spectra(draw):
    """Seeded sample spectra with m < n, m = n and m = 1, optionally zero-tailed."""
    n = draw(st.integers(2, 24))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, 4 * n)))
    beta = draw(st.sampled_from([1, 2]))
    signals = draw(st.lists(st.floats(1.5, 100.0), max_size=min(3, n - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    eigs = seeded_spectrum(sorted(signals, reverse=True), n, m, seed, beta).eigenvalues.copy()
    zeros = draw(st.integers(0, n))
    eigs[n - zeros:] = 0.0
    return validate_spectrum(eigs, n, m, beta)


ORACLE_PAIRS = [
    (estimate_new, oracle.new_criteria),
    (estimate_wk_aic, oracle.wk_aic_criteria),
    (estimate_wk_mdl, oracle.wk_mdl_criteria),
]


class TestAgainstPerKOracle:
    @settings(max_examples=150, deadline=None)
    @given(spectrum=oracle_spectra())
    @example(spectrum=spectrum_from([0.0, 0.0, 0.0], m=2))
    @example(spectrum=spectrum_from([0.0, 0.0, 0.0], m=2, beta=2))
    @example(spectrum=spectrum_from([5.0, 2.0, 1.0, 0.0, 0.0], m=5))
    @example(spectrum=spectrum_from([5.0, 2.0, 1.0], m=1))
    @example(spectrum=spectrum_from([5.0, 2.0, 1.0, 0.5], m=2, beta=2))
    def test_matches_oracle(self, spectrum):
        for estimate, reference in ORACLE_PAIRS:
            result = estimate(spectrum)
            want = reference(spectrum)
            got = [v for _, v in result.criterion_values]
            assert [k for k, _ in result.criterion_values] == list(range(len(want)))
            assert all(type(v) is float for v in got)
            assert result.k_hat == oracle.argmin_k(want)
            assert [v if math.isinf(v) else 0.0 for v in got] == [
                v if math.isinf(v) else 0.0 for v in want
            ]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        mean, t, _ = window_statistics(spectrum)
        moments = [oracle.window_moments(spectrum, k) for k in range(mean.size)]
        np.testing.assert_allclose(mean, [w.mean for w in moments], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(t, [w.t for w in moments], rtol=1e-9, atol=0.0)


@st.composite
def fused_spectra(draw):
    """Seeded spectra at scales 1e-300, 1 and 1e300, zero-tailed or all zero, labelled beta 1, 2 or 4."""
    n = draw(st.integers(1, 24))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, 4 * n)))
    signals = draw(st.lists(st.floats(1.5, 100.0), max_size=min(3, n - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    eigs = seeded_spectrum(sorted(signals, reverse=True), n, m, seed).eigenvalues.copy()
    eigs *= draw(st.sampled_from([1e-300, 1.0, 1e300]))
    zeros = draw(st.integers(0, n))
    eigs[n - zeros:] = 0.0
    return validate_spectrum(eigs, n, m, draw(st.sampled_from([1, 2, 4])))


class TestFusedCriteria:
    @settings(max_examples=200, deadline=None)
    @given(spectrum=fused_spectra())
    @example(spectrum=spectrum_from([0.0, 0.0, 0.0], m=2, beta=4))
    @example(spectrum=spectrum_from([5e300, 2e300, 1e300, 0.0, 0.0], m=3))
    def test_matches_each_public_estimator(self, spectrum):
        # The Monte Carlo tallies take np.argmin of these arrays directly.
        criteria = _criteria(spectrum)
        assert set(criteria) == set(ESTIMATORS)
        for est, estimate in ESTIMATORS.items():
            result = estimate(spectrum)
            got = criteria[est]
            assert got.dtype == np.float64
            assert np.argmin(got) == result.k_hat
            assert got.tobytes() == np.array([v for _, v in result.criterion_values]).tobytes()
