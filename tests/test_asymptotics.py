import math

import numpy as np
import pytest

from helpers import spectrum_from
from sigcount import (
    DomainError,
    HermitianMatrix,
    SampleSpectrum,
    ScenarioSpec,
    bulk_edge,
    clt_statistics,
    detection_threshold,
    effective_num_signals,
    hermitian_eigenvalues,
    identifiability_check,
    q_matrix,
    spiked_limit,
    two_source_eigenvalues,
)


def _domain_table():
    """Bad inputs for every closed-form formula, one pytest.param each.

    The three formulas of (sigma2, c) get each bad (sigma2, c) pair. The
    others get a valid call with each float argument made NaN, then
    infinite, in turn.
    """
    sigma2_c = {
        "detection_threshold": detection_threshold,
        "bulk_edge": bulk_edge,
        "spiked_limit": lambda sigma2, c: spiked_limit(10.0, sigma2, c),
    }
    bad_pairs = [
        (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
        (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    ]
    valid_calls = {
        "q_matrix": (q_matrix, (1.0,)),
        "identifiability_check": (identifiability_check, (1.0, 1.0, 0.0, 1.0, 4, 8)),
        "two_source_eigenvalues": (two_source_eigenvalues, (1.0, 1.0, 1.0, 1.0, 0.0, 1.0)),
    }
    table = [
        pytest.param(formula, pair, id=f"{pair[0]}-{pair[1]}-{name}")
        for name, formula in sigma2_c.items() for pair in bad_pairs
    ]
    for name, (formula, valid) in valid_calls.items():
        for i, value in enumerate(valid):
            if isinstance(value, float):
                for bad in (math.nan, math.inf):
                    args = valid[:i] + (bad,) + valid[i + 1:]
                    table.append(pytest.param(formula, args, id=f"{name}-arg{i}-{bad}"))
    return table


DOMAIN_TABLE = _domain_table()


class TestQMatrix:
    def test_real_case_c_one(self):
        np.testing.assert_allclose(q_matrix(1.0, beta=1), [[2.0, 8.0], [8.0, 36.0]])

    def test_complex_case_c_one(self):
        np.testing.assert_allclose(q_matrix(1.0, beta=2), [[1.0, 4.0], [4.0, 18.0]])

    def test_quaternion_case_c_one(self):
        np.testing.assert_allclose(q_matrix(1.0, beta=4), [[0.5, 2.0], [2.0, 9.0]])

    def test_real_case_c_quarter(self):
        np.testing.assert_allclose(
            q_matrix(0.25, beta=1), [[0.5, 1.25], [1.25, 3.375]]
        )

    def test_positive_definite_over_c(self):
        for c in np.geomspace(0.01, 10.0, 25):
            eigs = np.linalg.eigvalsh(q_matrix(float(c)))
            assert eigs.min() > 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            q_matrix(0.0)
        with pytest.raises(DomainError):
            q_matrix(-1.0)
        with pytest.raises(DomainError):
            q_matrix(1.0, beta=3)


class TestMomentClt:
    def test_real_centering(self):
        # All-zero 100:200 spectrum: the statistics are minus the centerings
        # n = 100 and n (1 + c) + (2/beta - 1) c = 150.5 at c = 0.5.
        stats = clt_statistics(SampleSpectrum(np.zeros(100), 100, 200, beta=1))
        assert stats == (-100.0, -(100 * 1.5 + 0.5))

    def test_complex_centering_drops_correction(self):
        stats = clt_statistics(SampleSpectrum(np.zeros(100), 100, 200, beta=2))
        assert stats == (-100.0, -150.0)

    def test_clt_statistics_hand_case(self):
        # sum = 4, sum of squares = 6; centerings are 3 and 3*1.5 + 0.5 = 5.
        stats = clt_statistics(spectrum_from([2.0, 1.0, 1.0], m=6))
        assert stats == (1.0, 1.0)


class TestThresholds:
    def test_detection_threshold(self):
        assert detection_threshold(1.0, 4.0) == 3.0
        assert detection_threshold(2.0, 0.25) == 3.0

    def test_bulk_edge(self):
        assert bulk_edge(1.0, 4.0) == 9.0
        assert bulk_edge(2.0, 0.25) == 4.5

    @pytest.mark.parametrize("formula,args", DOMAIN_TABLE)
    def test_domain_is_finite_positive(self, formula, args):
        with pytest.raises(DomainError):
            formula(*args)

    @pytest.mark.parametrize("lambda_j", [math.nan, math.inf])
    def test_spiked_limit_rejects_nonfinite_eigenvalue(self, lambda_j):
        with pytest.raises(DomainError):
            spiked_limit(lambda_j, 1.0, 1.0)


class TestSpikedLimit:
    def test_above_threshold(self):
        pred = spiked_limit(10.0, 1.0, 4.0)
        np.testing.assert_allclose(pred.limit, 130.0 / 9.0, rtol=1e-15)
        assert pred.above_threshold

    def test_at_threshold_sticks_to_bulk(self):
        pred = spiked_limit(3.0, 1.0, 4.0)
        assert pred.limit == 9.0
        assert not pred.above_threshold

    def test_below_threshold(self):
        pred = spiked_limit(1.5, 1.0, 4.0)
        assert pred.limit == 9.0

    def test_continuous_at_threshold(self):
        just_above = spiked_limit(3.0 + 1e-9, 1.0, 4.0)
        assert just_above.above_threshold
        assert abs(just_above.limit - 9.0) < 1e-6

    def test_monotone_above_threshold(self):
        limits = [spiked_limit(lam, 1.0, 4.0).limit for lam in np.linspace(3.01, 30.0, 40)]
        assert all(b > a for a, b in zip(limits, limits[1:]))

    def test_limit_never_below_bulk_edge(self):
        for lam in np.linspace(1.0, 30.0, 60):
            assert spiked_limit(float(lam), 1.0, 4.0).limit >= 9.0 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spiked_limit(10.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            spiked_limit(0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            spiked_limit(10.0, 1.0, 0.0)


class TestEffectiveNumSignals:
    def test_oversampled_counts_both(self):
        spec = ScenarioSpec((10.0, 3.0), 1.0, 64, 256)
        assert detection_threshold(1.0, 64 / 256) == 1.5
        assert effective_num_signals(spec) == 2

    def test_undersampled_counts_one(self):
        spec = ScenarioSpec((10.0, 3.0), 1.0, 64, 16)
        assert detection_threshold(1.0, 4.0) == 3.0
        assert effective_num_signals(spec) == 1

    def test_threshold_is_strict(self):
        # An eigenvalue exactly at the threshold does not count.
        spec = ScenarioSpec((3.0,), 1.0, 4, 1)
        assert effective_num_signals(spec) == 0

    def test_signal_free(self):
        assert effective_num_signals(ScenarioSpec((), 1.0, 8, 8)) == 0


class TestTwoSourceEigenvalues:
    def test_orthogonal_sources(self):
        assert two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, 0.0, 1.0) == (2.0, 2.0)

    def test_half_overlap(self):
        lam1, lam2 = two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, 0.5, 1.0)
        np.testing.assert_allclose([lam1, lam2], [2.5, 1.5], rtol=1e-15)

    def test_fully_coherent(self):
        lam1, lam2 = two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        np.testing.assert_allclose([lam1, lam2], [3.0, 1.0], rtol=1e-15)

    def test_unequal_powers_orthogonal(self):
        lam1, lam2 = two_source_eigenvalues(2.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        np.testing.assert_allclose([lam1, lam2], [3.0, 2.0], rtol=1e-15)

    def test_against_explicit_construction(self):
        # Build sigma2 I + p1 v1 v1' + p2 v2 v2' in dimension 6 and compare
        # the solver's top two eigenvalues with the closed form.
        rng = np.random.default_rng(91)
        for _ in range(200):
            p1, p2 = rng.uniform(0.2, 5.0, size=2)
            norm1, norm2 = rng.uniform(0.5, 2.0, size=2)
            rho = rng.uniform(0.0, 0.999)
            sigma2 = rng.uniform(0.2, 3.0)
            v1 = np.zeros(6)
            v1[0] = norm1
            v2 = np.zeros(6)
            v2[0] = rho * norm2
            v2[1] = math.sqrt(1.0 - rho * rho) * norm2
            r = sigma2 * np.eye(6) + p1 * np.outer(v1, v1) + p2 * np.outer(v2, v2)
            solved = hermitian_eigenvalues(HermitianMatrix(r))[:2]
            closed = two_source_eigenvalues(p1, p2, norm1, norm2, rho * norm1 * norm2, sigma2)
            np.testing.assert_allclose(solved, closed, rtol=1e-8)

    def test_small_root_nearly_coherent(self):
        # With p = 1 and unit norms the roots are sigma2 + 1 +- rho, so
        # lambda_2 - sigma2 = 1 - rho, which is exact in floating point here.
        rho, sigma2 = 1.0 - 1e-8, 1e-12
        _, lam2 = two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, rho, sigma2)
        assert abs((lam2 - sigma2) - (1.0 - rho)) <= 1e-14 * (1.0 - rho)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            two_source_eigenvalues(0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            two_source_eigenvalues(1.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, -0.1, 1.0)
        with pytest.raises(DomainError):
            two_source_eigenvalues(1.0, 1.0, 1.0, 1.0, 1.5, 1.0)


class TestIdentifiability:
    def test_boundary_case_fails(self):
        # p norm^2 (1 - inner/norm) = 0.5 equals sigma2 sqrt(n/m) = 0.5.
        assert not identifiability_check(1.0, 1.0, 0.5, 1.0, 64, 256)

    def test_more_snapshots_make_it_pass(self):
        assert identifiability_check(1.0, 1.0, 0.5, 1.0, 64, 1024)

    def test_matches_threshold_condition_for_unit_norms(self):
        # For ||v|| = 1 the displayed condition is exactly "the smaller
        # population eigenvalue clears the detection threshold".
        rng = np.random.default_rng(23)
        for _ in range(1000):
            p = rng.uniform(0.05, 10.0)
            rho = rng.uniform(0.0, 0.999)
            sigma2 = rng.uniform(0.1, 4.0)
            n = int(rng.integers(4, 400))
            m = int(rng.integers(4, 400))
            _, lam2 = two_source_eigenvalues(p, p, 1.0, 1.0, rho, sigma2)
            expected = lam2 > detection_threshold(sigma2, n / m)
            assert identifiability_check(p, 1.0, rho, sigma2, n, m) == expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            identifiability_check(-1.0, 1.0, 0.5, 1.0, 4, 4)
        with pytest.raises(DomainError):
            identifiability_check(1.0, 0.0, 0.0, 1.0, 4, 4)
        with pytest.raises(DomainError):
            identifiability_check(1.0, 1.0, 0.5, 1.0, 0, 4)
