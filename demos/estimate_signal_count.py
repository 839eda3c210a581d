"""Walk through one complete estimation: synthesize, decompose, decide.

Two signals with population eigenvalues 10 and 3 sit in unit-variance white
noise across 64 sensors. We draw 256 snapshots, form the sample covariance,
and let all three estimators read off the signal count from its eigenvalues.
The per-k criterion tables show why each estimator stops where it does.
"""

import numpy as np

from sigcount import (
    ESTIMATORS,
    ScenarioSpec,
    SeedPolicy,
    detection_threshold,
    generate_snapshots,
    snapshot_spectrum,
)

SEED = 20240814


def main():
    scenario = ScenarioSpec((10.0, 3.0), 1.0, n=64, m=256)
    print(f"scenario: signals {scenario.signal_eigenvalues}, noise variance "
          f"{scenario.noise_variance}, n={scenario.n}, m={scenario.m}")
    threshold = detection_threshold(scenario.noise_variance, scenario.n / scenario.m)
    print(f"detection threshold at this aspect ratio: {threshold:.3f}")
    print()

    snapshots = generate_snapshots(scenario, SeedPolicy(SEED))
    spectrum = snapshot_spectrum(snapshots)

    print("five largest sample eigenvalues:",
          np.array2string(spectrum.eigenvalues[:5], precision=3))
    print("five smallest:", np.array2string(spectrum.eigenvalues[-5:], precision=3))
    print()

    for estimator_id, estimate in ESTIMATORS.items():
        result = estimate(spectrum)
        print(f"{estimator_id}: k_hat = {result.k_hat}")
        shown = result.criterion_values[:5]
        for k, value in shown:
            marker = "  <-- minimum" if k == result.k_hat else ""
            print(f"    k={k}: {value:12.3f}{marker}")
        print()


if __name__ == "__main__":
    main()
