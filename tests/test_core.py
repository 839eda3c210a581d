import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sigcount import (
    CLAMP_RTOL,
    EstimatorId,
    NegativeEigenvalue,
    NonFiniteInput,
    SampleSpectrum,
    ScenarioSpec,
    UnsupportedField,
    validate_spectrum,
)


class TestScenarioSpec:
    def test_basic_construction(self):
        spec = ScenarioSpec((10.0, 3.0), 1.0, 8, 32)
        assert spec.k == 2
        assert spec.beta == 1
        assert spec.signal_eigenvalues == (10.0, 3.0)

    def test_population_eigenvalues_descending_with_noise_tail(self):
        spec = ScenarioSpec((10.0, 3.0), 2.0, 5, 20)
        np.testing.assert_array_equal(
            spec.population_eigenvalues(), [10.0, 3.0, 2.0, 2.0, 2.0]
        )

    def test_signal_free_scenario(self):
        spec = ScenarioSpec((), 1.0, 4, 16)
        assert spec.k == 0
        np.testing.assert_array_equal(spec.population_eigenvalues(), np.ones(4))

    def test_int_signals_coerced_to_float(self):
        spec = ScenarioSpec((10, 3), 1.0, 8, 32)
        assert spec.signal_eigenvalues == (10.0, 3.0)
        assert all(isinstance(v, float) for v in spec.signal_eigenvalues)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            ScenarioSpec((10.0,), 0.0, 8, 32)
        with pytest.raises(ValueError):
            ScenarioSpec((10.0,), -1.0, 8, 32)

    def test_rejects_unsorted_signals(self):
        with pytest.raises(ValueError):
            ScenarioSpec((3.0, 10.0), 1.0, 8, 32)

    def test_rejects_signal_at_or_below_noise(self):
        with pytest.raises(ValueError):
            ScenarioSpec((1.0,), 1.0, 8, 32)
        with pytest.raises(ValueError):
            ScenarioSpec((0.5,), 1.0, 8, 32)

    def test_rejects_too_many_signals(self):
        with pytest.raises(ValueError):
            ScenarioSpec((10.0, 9.0, 8.0), 1.0, 3, 32)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            ScenarioSpec((math.inf,), 1.0, 8, 32)
        with pytest.raises(NonFiniteInput):
            ScenarioSpec((math.nan,), 1.0, 8, 32)

    def test_rejects_bad_beta(self):
        with pytest.raises(UnsupportedField):
            ScenarioSpec((10.0,), 1.0, 8, 32, beta=3)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            ScenarioSpec((), 1.0, 0, 32)
        with pytest.raises(ValueError):
            ScenarioSpec((), 1.0, 8, 0)


class TestSampleSpectrum:
    def test_owns_a_readonly_copy(self):
        source = np.array([3.0, 2.0, 1.0])
        spectrum = SampleSpectrum(source, 3, 10)
        source[0] = 99.0
        assert spectrum.eigenvalues[0] == 3.0
        with pytest.raises(ValueError):
            spectrum.eigenvalues[0] = 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SampleSpectrum(np.array([3.0, 2.0]), 3, 10)

    def test_rejects_increasing_order(self):
        with pytest.raises(ValueError):
            SampleSpectrum(np.array([1.0, 2.0]), 2, 10)

    def test_rejects_negative(self):
        with pytest.raises(NegativeEigenvalue):
            SampleSpectrum(np.array([1.0, -0.5]), 2, 10)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInput):
            SampleSpectrum(np.array([1.0, math.nan]), 2, 10)

    def test_rejects_bad_beta(self):
        with pytest.raises(UnsupportedField):
            SampleSpectrum(np.array([1.0]), 1, 10, beta=5)


# Malformed spectra and the exception both validate_spectrum and a direct
# SampleSpectrum raise for them: (eigenvalues, n, m, beta, exception).
MALFORMED = [
    pytest.param([1.0, 2.0], 3, 10, 1, ValueError, id="wrong_length"),
    pytest.param([], 0, 10, 1, ValueError, id="empty_n0"),
    pytest.param([1.0], 1, 0, 1, ValueError, id="m0"),
    pytest.param([1.0], 1, 10, 5, UnsupportedField, id="beta5"),
    pytest.param([math.nan, 1.0], 2, 10, 1, NonFiniteInput, id="nan_first"),
    pytest.param([1.0, math.nan], 2, 10, 1, NonFiniteInput, id="nan_last"),
    pytest.param([math.inf, 1.0], 2, 10, 1, NonFiniteInput, id="inf_first"),
    pytest.param([1.0, math.inf], 2, 10, 1, NonFiniteInput, id="inf_last"),
    pytest.param([1.0, -math.inf], 2, 10, 1, NonFiniteInput, id="minus_inf_last"),
    pytest.param([5.0, -1e-3], 2, 10, 1, NegativeEigenvalue, id="negative_beyond_clamp"),
]


class TestValidateSpectrum:
    @pytest.mark.parametrize("eigs,n,m,beta,exc", MALFORMED)
    def test_rejects_as_sample_spectrum_does(self, eigs, n, m, beta, exc):
        for build in (validate_spectrum, SampleSpectrum):
            with pytest.raises(ValueError) as excinfo:
                build(np.array(eigs, dtype=float), n, m, beta)
            assert type(excinfo.value) is exc, build.__name__

    def test_sorts_descending(self):
        spectrum = validate_spectrum([1.0, 3.0, 2.0], 3, 10)
        np.testing.assert_array_equal(spectrum.eigenvalues, [3.0, 2.0, 1.0])

    def test_clamps_roundoff_to_exact_zero(self):
        # Solver junk on rank-deficient covariances shows up at ~1e-13 of
        # the top eigenvalue, on both sides of zero.
        spectrum = validate_spectrum([5.0, 3e-13, -2e-13], 3, 2)
        assert spectrum.eigenvalues[1] == 0.0
        assert spectrum.eigenvalues[2] == 0.0

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(NegativeEigenvalue):
            validate_spectrum([5.0, -1e-3], 2, 10)

    def test_all_zero_spectrum_is_valid(self):
        spectrum = validate_spectrum([0.0, 0.0], 2, 10)
        np.testing.assert_array_equal(spectrum.eigenvalues, [0.0, 0.0])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            validate_spectrum([1.0, 2.0], 3, 10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_spectrum([], 0, 10)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            validate_spectrum([math.inf, 1.0], 2, 10)

    def test_single_eigenvalue(self):
        spectrum = validate_spectrum([4.0], 1, 3)
        assert spectrum.n == 1
        assert spectrum.eigenvalues[0] == 4.0

    @given(
        top=st.sampled_from([1.0, 0.0]),
        scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300]),
        data=st.data(),
    )
    def test_permutation_invariant(self, top, scale, data):
        # Entries at most the top one: a bulk, exact zeros and round-off
        # negatives within CLAMP_RTOL of it, all scaled together.
        rest = data.draw(st.lists(st.one_of(
            st.floats(0.0, top),
            st.just(0.0),
            st.floats(-CLAMP_RTOL * top, 0.0),
        ), max_size=30))
        eigs = np.array([top, *rest]) * scale
        permuted = np.array(data.draw(st.permutations(eigs.tolist())))
        expected = validate_spectrum(eigs, eigs.size, 10).eigenvalues
        got = validate_spectrum(permuted, eigs.size, 10).eigenvalues
        assert got.tobytes() == expected.tobytes()


def test_estimator_id_str_matches_value():
    assert str(EstimatorId.NEW_RMT_AIC) == "NEW_RMT_AIC"
    assert str(EstimatorId.WK_AIC) == "WK_AIC"
    assert str(EstimatorId.WK_MDL) == "WK_MDL"
