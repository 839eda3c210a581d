import tracemalloc

import numpy as np
import pytest

import oracle
from sigcount import (
    ExperimentPlan,
    ScenarioSpec,
    SeedPolicy,
    SnapshotMatrix,
    UnsupportedField,
    generate_snapshots,
    run_clt_check,
)

# Each caller builds its streams from one seed; none may draw from a bad one.
SEEDED_CALLS = {
    "SeedPolicy": lambda seed, trial: SeedPolicy(seed, trial),
    "ExperimentPlan": lambda seed, trial: ExperimentPlan(ScenarioSpec((), 1.0, 4, 8), ((4, 8),), 2, seed),
    "run_clt_check": lambda seed, trial: run_clt_check(10, 20, 1, 3, seed),
}

BAD_SEEDS = [
    (1.5, 0, "master_seed"),
    (2.0, 0, "master_seed"),
    (np.float64(3.0), 0, "master_seed"),
    (True, 0, "master_seed"),
    ("7", 0, "master_seed"),
    (None, 0, "master_seed"),
    (7, 1.5, "trial_index"),
    (7, False, "trial_index"),
    (7, "0", "trial_index"),
]


class TestSeedPolicy:
    def test_same_policy_same_stream(self):
        a = SeedPolicy(123, 7).rng().standard_normal(16)
        b = SeedPolicy(123, 7).rng().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_trial_index_changes_stream(self):
        a = SeedPolicy(123, 0).rng().standard_normal(16)
        b = SeedPolicy(123, 1).rng().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_master_seed_changes_stream(self):
        a = SeedPolicy(123, 0).rng().standard_normal(16)
        b = SeedPolicy(124, 0).rng().standard_normal(16)
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            SeedPolicy(-1)
        with pytest.raises(ValueError):
            SeedPolicy(2**64)

    def test_rejects_negative_trial_index(self):
        with pytest.raises(ValueError):
            SeedPolicy(1, -1)

    @pytest.mark.parametrize(
        "call,seed,trial,field",
        [
            (call, *bad)
            for call in SEEDED_CALLS
            for bad in BAD_SEEDS
            # ExperimentPlan and run_clt_check number their own trials.
            if bad[2] == "master_seed" or call == "SeedPolicy"
        ],
    )
    def test_rejects_non_integers_before_drawing(self, monkeypatch, call, seed, trial, field):
        def no_draws(*args):
            raise AssertionError("drew snapshots")

        monkeypatch.setattr("sigcount.snapshots._draw", no_draws)
        monkeypatch.setattr("sigcount.montecarlo._draw", no_draws)
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SEEDED_CALLS[call](seed, trial)

    def test_numpy_integers_draw_the_same_stream(self):
        policy = SeedPolicy(np.uint64(7), np.int64(2))
        assert policy == SeedPolicy(7, 2)
        assert type(policy.master_seed) is int and type(policy.trial_index) is int
        np.testing.assert_array_equal(
            policy.rng().standard_normal(16), SeedPolicy(7, 2).rng().standard_normal(16)
        )


class TestGenerateSnapshots:
    def test_real_shape_and_dtype(self):
        spec = ScenarioSpec((10.0,), 1.0, 6, 9, beta=1)
        snaps = generate_snapshots(spec, SeedPolicy(3))
        assert snaps.data.shape == (6, 9)
        assert not np.iscomplexobj(snaps.data)

    def test_complex_shape_and_dtype(self):
        spec = ScenarioSpec((10.0,), 1.0, 6, 9, beta=2)
        snaps = generate_snapshots(spec, SeedPolicy(3))
        assert snaps.data.shape == (6, 9)
        assert np.iscomplexobj(snaps.data)

    def test_deterministic(self):
        spec = ScenarioSpec((10.0, 3.0), 1.0, 8, 12)
        a = generate_snapshots(spec, SeedPolicy(42, 5))
        b = generate_snapshots(spec, SeedPolicy(42, 5))
        np.testing.assert_array_equal(a.data, b.data)

    def test_distinct_trials_distinct_data(self):
        spec = ScenarioSpec((), 1.0, 4, 4)
        a = generate_snapshots(spec, SeedPolicy(42, 0))
        b = generate_snapshots(spec, SeedPolicy(42, 1))
        assert not np.array_equal(a.data, b.data)

    def test_rows_carry_population_variance(self):
        # Row i is a length-m draw with variance lambda_i; with m large the
        # sample variance should land close to the population value.
        spec = ScenarioSpec((100.0,), 1.0, 3, 40_000, beta=1)
        snaps = generate_snapshots(spec, SeedPolicy(7))
        top_var = snaps.data[0].var()
        noise_var = snaps.data[2].var()
        assert 90.0 < top_var < 110.0
        assert 0.9 < noise_var < 1.1

    def test_complex_rows_unit_second_moment(self):
        spec = ScenarioSpec((), 2.0, 2, 40_000, beta=2)
        snaps = generate_snapshots(spec, SeedPolicy(8))
        second = np.mean(np.abs(snaps.data[0]) ** 2)
        assert 1.9 < second < 2.1

    @pytest.mark.parametrize("beta", [1, 2])
    def test_matches_out_of_place_reference(self, beta):
        # Same draw order and the same arithmetic, so the same bits.
        spec = ScenarioSpec((10.0, 3.0), 0.5, 7, 5, beta=beta)
        snaps = generate_snapshots(spec, SeedPolicy(42, 3))
        np.testing.assert_array_equal(snaps.data, oracle.reference_snapshots(spec, SeedPolicy(42, 3)))
        assert not snaps.data.flags.writeable

    def test_peak_memory_below_one_and_a_half_arrays(self):
        # The draw is adopted without a copy (a copy makes 2.0x).
        spec = ScenarioSpec((10.0, 3.0), 1.0, 400, 400)
        generate_snapshots(spec, SeedPolicy(1))  # warm-up
        tracemalloc.start()
        try:
            snaps = generate_snapshots(spec, SeedPolicy(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * snaps.data.nbytes

    def test_quaternion_synthesis_unsupported(self):
        spec = ScenarioSpec((10.0,), 1.0, 4, 8, beta=4)
        with pytest.raises(UnsupportedField):
            generate_snapshots(spec, SeedPolicy(1))


class TestSnapshotMatrix:
    def test_shape_checked(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(np.zeros((2, 3)), n=3, m=2, beta=1)

    def test_real_data_required_for_beta_1(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(np.zeros((2, 3), dtype=complex), n=2, m=3, beta=1)

    def test_complex_data_required_for_beta_2(self):
        with pytest.raises(ValueError):
            SnapshotMatrix(np.zeros((2, 3)), n=2, m=3, beta=2)

    def test_beta_4_rejected(self):
        with pytest.raises(UnsupportedField):
            SnapshotMatrix(np.zeros((2, 3)), n=2, m=3, beta=4)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_rejects_empty_dimension(self, shape):
        with pytest.raises(ValueError, match="n and m must be positive"):
            SnapshotMatrix(np.empty(shape), *shape, beta=1)

    def test_data_is_readonly_copy(self):
        source = np.ones((2, 3))
        snaps = SnapshotMatrix(source, n=2, m=3, beta=1)
        source[0, 0] = 5.0
        assert snaps.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            snaps.data[0, 0] = 2.0
