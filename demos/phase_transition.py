"""Watch a spike cross the detectability phase transition.

At aspect ratio c = n/m = 4 the theory says a population eigenvalue below
sigma2 (1 + sqrt(c)) = 3 is invisible: the top sample eigenvalue sticks to
the bulk edge sigma2 (1 + sqrt(c))^2 = 9 no matter how the spike moves. Above
3 the top sample eigenvalue separates and tracks the closed-form limit. We
sweep the spike through the transition and compare simulation to prediction.
"""

import numpy as np

from sigcount import (
    ScenarioSpec,
    SeedPolicy,
    bulk_edge,
    detection_threshold,
    generate_snapshots,
    snapshot_spectrum,
    spiked_limit,
)

SEED = 515
N, M = 600, 150
TRIALS = 8


def mean_top_eigenvalue(lam: float) -> float:
    tops = []
    for trial in range(TRIALS):
        scenario = ScenarioSpec((lam,), 1.0, N, M)
        snaps = generate_snapshots(scenario, SeedPolicy(SEED, trial))
        tops.append(float(snapshot_spectrum(snaps).eigenvalues[0]))
    return float(np.mean(tops))


def main():
    c = N / M
    print(f"n={N}, m={M}, c={c:g}; threshold={detection_threshold(1.0, c):g}, "
          f"bulk edge={bulk_edge(1.0, c):g}")
    print()
    print(f"{'spike':>7} {'predicted l1':>13} {'simulated l1':>13} {'separated?':>11}")
    for lam in (1.5, 2.0, 2.5, 3.0, 3.5, 4.5, 6.0, 10.0):
        pred = spiked_limit(lam, 1.0, c)
        sim = mean_top_eigenvalue(lam)
        print(f"{lam:7.2f} {pred.limit:13.3f} {sim:13.3f} "
              f"{'yes' if pred.above_threshold else 'no':>11}")
    print()
    print("below the threshold every row shows the same ~9, the bulk edge;")
    print("past it the top eigenvalue escapes the bulk and follows the formula.")


if __name__ == "__main__":
    main()
