import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from sigcount import (
    ConvergenceFailure,
    HermitianMatrix,
    NonFiniteInput,
    ScenarioSpec,
    SeedPolicy,
    SnapshotMatrix,
    generate_snapshots,
    hermitian_eigenvalues,
    sample_covariance,
    snapshot_spectrum,
    validate_spectrum,
)


def brute_force_covariance(x: np.ndarray) -> np.ndarray:
    """(1/m) sum_t x_t x_t' written as explicit loops; the oracle route."""
    n, m = x.shape
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for t in range(m):
                acc += x[i, t] * np.conj(x[j, t])
            out[i, j] = acc / m
    return out


class TestSampleCovariance:
    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_brute_force(self, beta):
        for n, m in [(5, 7), (7, 5)]:
            spec = ScenarioSpec((5.0,), 1.0, n, m, beta=beta)
            snaps = generate_snapshots(spec, SeedPolicy(11))
            got = sample_covariance(snaps).entries
            want = brute_force_covariance(snaps.data)
            if beta == 1:
                want = want.real
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_exactly_self_adjoint(self):
        spec = ScenarioSpec((), 1.0, 6, 10, beta=2)
        r = sample_covariance(generate_snapshots(spec, SeedPolicy(4))).entries
        np.testing.assert_array_equal(r, r.conj().T)

    def test_positive_semidefinite(self):
        spec = ScenarioSpec((3.0,), 1.0, 8, 4)
        r = sample_covariance(generate_snapshots(spec, SeedPolicy(5)))
        eigs = np.linalg.eigvalsh(r.entries)
        assert eigs.min() > -1e-10


class TestHermitianMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_complex_symmetric_but_not_hermitian(self):
        # Symmetric with a complex off-diagonal entry is not self-adjoint.
        a = np.array([[1.0, 1.0 + 1.0j], [1.0 + 1.0j, 1.0]])
        with pytest.raises(ValueError):
            HermitianMatrix(a)

    def test_accepts_hermitian_complex(self):
        a = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        assert HermitianMatrix(a).entries.shape[0] == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteInput):
            HermitianMatrix(np.array([[1.0, 0.0], [0.0, bad]]))

    def test_accepts_symmetric_entries_whose_squares_overflow(self):
        assert HermitianMatrix(np.array([[1e200, 5e199], [5e199, 1e200]])).entries.shape[0] == 2

    def test_rejects_asymmetric_entries_whose_squares_overflow(self):
        with pytest.raises(ValueError, match="not self-adjoint"):
            HermitianMatrix(np.array([[1e200, 5e199], [0.0, 1e200]]))

    def test_entries_readonly(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 7.0


class TestHermitianEigenvalues:
    def test_diagonal_matrix_exact(self):
        eigs = hermitian_eigenvalues(HermitianMatrix(np.diag([1.0, 4.0, 2.0])))
        np.testing.assert_array_equal(eigs, [4.0, 2.0, 1.0])

    def test_two_by_two_analytic(self):
        eigs = hermitian_eigenvalues(HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(eigs, [3.0, 1.0], rtol=0, atol=1e-12)

    def test_two_source_covariance(self):
        # Unit-norm steering vectors with inner product 0.5, unit powers,
        # unit noise floor: top eigenvalues 2.5 and 1.5, bulk at 1.
        v1 = np.array([1.0, 0.0, 0.0, 0.0])
        v2 = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0, 0.0])
        r = np.eye(4) + np.outer(v1, v1) + np.outer(v2, v2)
        eigs = hermitian_eigenvalues(HermitianMatrix(r))
        np.testing.assert_allclose(eigs, [2.5, 1.5, 1.0, 1.0], rtol=0, atol=1e-10)

    def test_descending_order(self):
        spec = ScenarioSpec((6.0,), 1.0, 10, 30)
        r = sample_covariance(generate_snapshots(spec, SeedPolicy(2)))
        eigs = hermitian_eigenvalues(r)
        assert np.all(np.diff(eigs) <= 0)

    def test_similarity_invariance(self):
        # An orthogonal change of basis must not move the spectrum.
        rng = np.random.default_rng(17)
        a = rng.standard_normal((6, 6))
        sym = (a + a.T) / 2.0
        sym = sym @ sym.T + np.eye(6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = q @ sym @ q.T
        rotated = (rotated + rotated.T) / 2.0
        base = hermitian_eigenvalues(HermitianMatrix(sym))
        moved = hermitian_eigenvalues(HermitianMatrix(rotated))
        np.testing.assert_allclose(base, moved, rtol=1e-8)

    def test_eigenvalue_sum_matches_trace(self):
        spec = ScenarioSpec((4.0, 2.0), 1.0, 12, 24)
        r = sample_covariance(generate_snapshots(spec, SeedPolicy(9)))
        eigs = hermitian_eigenvalues(r)
        assert abs(eigs.sum() - np.trace(r.entries)) < 1e-9 * abs(np.trace(r.entries))

    def test_rank_deficient_covariance_has_exact_zero_modes(self):
        # m < n: the SCM has rank m, so validate_spectrum must deliver
        # exactly n - m zeros after round-off clamping.
        spec = ScenarioSpec((), 1.0, 6, 3)
        r = sample_covariance(generate_snapshots(spec, SeedPolicy(13)))
        spectrum = validate_spectrum(hermitian_eigenvalues(r), 6, 3, 1)
        assert int(np.sum(spectrum.eigenvalues == 0.0)) == 3
        assert np.all(spectrum.eigenvalues[:3] > 0)

    def test_lapack_failure_becomes_convergence_failure(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        with pytest.raises(ConvergenceFailure):
            hermitian_eigenvalues(HermitianMatrix(np.eye(3)))

    def test_trace_residual_check(self, monkeypatch):
        def wrong(_):
            return np.array([0.0, 0.0, 100.0])

        monkeypatch.setattr(np.linalg, "eigvalsh", wrong)
        with pytest.raises(ConvergenceFailure):
            hermitian_eigenvalues(HermitianMatrix(np.eye(3)))


def seeded_snapshots(n, m, beta=1, seed=0, signals=()):
    return generate_snapshots(ScenarioSpec(tuple(signals), 1.0, n, m, beta=beta), SeedPolicy(seed))


@st.composite
def snapshot_matrices(draw):
    """Seeded snapshots with m < n, m = n and m = 1, real and complex."""
    n = draw(st.integers(1, 24))
    m = draw(st.one_of(st.just(1), st.just(n), st.integers(1, 2 * n)))
    beta = draw(st.sampled_from([1, 2]))
    signals = draw(st.lists(st.floats(1.5, 100.0), max_size=min(3, n - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return seeded_snapshots(n, m, beta, seed, sorted(signals, reverse=True))


class TestSnapshotSpectrum:
    @settings(max_examples=150, deadline=None)
    @given(snapshots=snapshot_matrices())
    @example(snapshots=seeded_snapshots(24, 1, beta=1))
    @example(snapshots=seeded_snapshots(24, 1, beta=2))
    @example(snapshots=seeded_snapshots(12, 12, beta=2, signals=(5.0,)))
    @example(snapshots=seeded_snapshots(24, 8, beta=1, signals=(10.0, 3.0)))
    def test_matches_full_covariance_oracle(self, snapshots):
        n, m = snapshots.n, snapshots.m
        got = snapshot_spectrum(snapshots)
        want = oracle.reference_spectrum(snapshots)
        assert (got.n, got.m, got.beta) == (want.n, want.m, want.beta)
        np.testing.assert_allclose(
            got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-10 * want.eigenvalues[0]
        )
        if m < n:
            # Gaussian snapshots have full rank m.
            assert np.count_nonzero(got.eigenvalues == 0.0) == n - m
        else:
            chain = validate_spectrum(
                hermitian_eigenvalues(sample_covariance(snapshots)), n, m, snapshots.beta
            )
            np.testing.assert_array_equal(got.eigenvalues, chain.eigenvalues)

    @pytest.mark.parametrize("n,m", [(4, 8), (8, 4)], ids=["covariance", "gram"])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_overflow_raises_non_finite(self, n, m, beta):
        # Finite snapshots whose product overflows: an error, and no numpy
        # RuntimeWarning (the suite turns those into errors).
        huge = SnapshotMatrix(seeded_snapshots(n, m, beta).data * 1e160, n, m, beta)
        with pytest.raises(NonFiniteInput):
            snapshot_spectrum(huge)


class TestAdoptedCovariance:
    """`sample_covariance` adopts its product without `HermitianMatrix`'s checks, which would pass."""

    @pytest.mark.parametrize("n,m", [(12, 6), (12, 12), (6, 12)], ids=["m<n", "m=n", "m>n"])
    @pytest.mark.parametrize("beta", [1, 2])
    def test_passes_the_full_check_and_is_read_only(self, n, m, beta):
        entries = sample_covariance(seeded_snapshots(n, m, beta, signals=(5.0,))).entries
        HermitianMatrix(entries)  # the skipped check passes
        np.testing.assert_array_equal(entries, entries.conj().T)
        assert not entries.flags.writeable

    def test_peak_memory_below_one_and_a_half_products(self):
        # A copy and the asymmetry check's temporaries made 4.0x.
        snaps = seeded_snapshots(400, 200)
        sample_covariance(snaps)  # warm-up
        tracemalloc.start()
        try:
            entries = sample_covariance(snaps).entries
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * entries.nbytes
