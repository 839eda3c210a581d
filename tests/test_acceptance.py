"""End-to-end acceptance battery.

Every test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so a plain pytest run shows the verdict per criterion. Heavy
Monte Carlo batteries are shared through module-scoped fixtures; the whole
module runs in under a minute on one CPU.
"""

import math
import time

import numpy as np
import pytest

from sigcount import (
    ESTIMATORS,
    EstimatorId,
    ExperimentPlan,
    HermitianMatrix,
    ScenarioSpec,
    SeedPolicy,
    detection_probability,
    detection_threshold,
    effective_num_signals,
    generate_snapshots,
    hermitian_eigenvalues,
    identifiability_check,
    run_clt_check,
    run_experiment,
    sample_covariance,
    snapshot_spectrum,
    two_source_eigenvalues,
    validate_spectrum,
    window_statistics,
)
from sigcount.cli import main as cli_main

MASTER_SEED = 1729
TRIALS = 1000


def report(capsys, label, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}{suffix}")


@pytest.fixture(scope="module")
def oversampled_grid():
    """P(k_hat) for the new estimator on (n, 4n) grids, 1000 trials each."""
    plan = ExperimentPlan(
        scenario=ScenarioSpec((10.0, 3.0), 1.0, 64, 256),
        grid=((64, 256), (128, 512), (256, 1024)),
        trials=TRIALS,
        master_seed=MASTER_SEED,
        estimators=(EstimatorId.NEW_RMT_AIC,),
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def undersampled():
    """New and MDL estimators at n=256, m=64 where only one signal is detectable."""
    plan = ExperimentPlan(
        scenario=ScenarioSpec((10.0, 3.0), 1.0, 256, 64),
        grid=((256, 64),),
        trials=TRIALS,
        master_seed=MASTER_SEED,
        estimators=(EstimatorId.NEW_RMT_AIC, EstimatorId.WK_MDL),
    )
    return run_experiment(plan)


def test_criterion_1_keff_exactness(capsys):
    over = ScenarioSpec((10.0, 3.0), 1.0, 64, 256)
    under = ScenarioSpec((10.0, 3.0), 1.0, 64, 16)
    start = time.perf_counter()
    for _ in range(1000):
        k_over = effective_num_signals(over)
        k_under = effective_num_signals(under)
    per_call = (time.perf_counter() - start) / 2000
    ok = (
        k_over == 2
        and k_under == 1
        and detection_threshold(1.0, 0.25) == 1.5
        and detection_threshold(1.0, 4.0) == 3.0
        and per_call < 1e-3
    )
    report(capsys, "criterion 1, k_eff exactness", ok,
           f"k_eff={k_over}/{k_under}, {per_call * 1e6:.1f} us per call")
    assert ok


def test_criterion_2_consistency_oversampled(oversampled_grid, capsys):
    probs = [detection_probability(s, 2) for s in oversampled_grid]
    final_ok = probs[-1] >= 0.90
    monotone_ok = True
    for a, b in zip(oversampled_grid, oversampled_grid[1:]):
        pa, pb = detection_probability(a, 2), detection_probability(b, 2)
        se = math.sqrt(pa * (1 - pa) / TRIALS + pb * (1 - pb) / TRIALS)
        if pb < pa - 2 * se:
            monotone_ok = False
    ok = final_ok and monotone_ok
    detail = "P(k=2 | n=64,128,256) = " + ", ".join(f"{p:.3f}" for p in probs)
    report(capsys, "criterion 2, new-estimator consistency at m=4n", ok, detail)
    assert ok


def test_criterion_3_effective_consistency_undersampled(undersampled, capsys):
    new_summary = next(s for s in undersampled if s.estimator_id is EstimatorId.NEW_RMT_AIC)
    p_one = detection_probability(new_summary, 1)
    ok = p_one >= 0.80
    report(capsys, "criterion 3, new-estimator k_eff consistency at m=n/4", ok,
           f"P(k=1) = {p_one:.3f}")
    assert ok


def test_criterion_4_mdl_degeneracy(undersampled, capsys):
    mdl_summary = next(s for s in undersampled if s.estimator_id is EstimatorId.WK_MDL)
    p_zero = detection_probability(mdl_summary, 0)
    ok = p_zero >= 0.99
    report(capsys, "criterion 4, MDL degeneracy at m < n", ok, f"P(k=0) = {p_zero:.3f}")
    assert ok


def test_criterion_5_spiked_limit_convergence(capsys):
    n, m, trials = 1000, 250, 20
    results = {}
    for lam, target in ((10.0, 130.0 / 9.0), (3.0, 9.0)):
        tops = []
        for trial in range(trials):
            spec = ScenarioSpec((lam,), 1.0, n, m)
            snaps = generate_snapshots(spec, SeedPolicy(MASTER_SEED, trial))
            tops.append(float(snapshot_spectrum(snaps).eigenvalues[0]))
        mean = float(np.mean(tops))
        results[lam] = (mean, target, abs(mean - target) / target)
    ok = all(rel <= 0.05 for _, _, rel in results.values())
    detail = "; ".join(
        f"lam={lam:g}: mean l1={mean:.3f} vs {target:.3f} ({rel:.1%})"
        for lam, (mean, target, rel) in results.items()
    )
    report(capsys, "criterion 5, spiked-limit convergence", ok, detail)
    assert ok


def test_criterion_6_moment_clt(capsys):
    reports = {beta: run_clt_check(100, 200, beta, 5000, MASTER_SEED) for beta in (1, 2)}
    ok = all(r.passed for r in reports.values())
    detail = "; ".join(
        f"beta={beta}: mean_ok={r.mean_ok}, cov_ok={r.cov_ok}" for beta, r in reports.items()
    )
    report(capsys, "criterion 6, noise-only moment CLT", ok, detail)
    assert ok


def test_criterion_7_two_source_oracle_equivalence(capsys):
    rng = np.random.default_rng(814)
    worst = 0.0
    for _ in range(200):
        p1, p2 = rng.uniform(0.2, 5.0, size=2)
        norm1, norm2 = rng.uniform(0.5, 2.0, size=2)
        rho = rng.uniform(0.0, 0.999)
        sigma2 = rng.uniform(0.2, 3.0)
        v1 = np.zeros(4)
        v1[0] = norm1
        v2 = np.zeros(4)
        v2[0] = rho * norm2
        v2[1] = math.sqrt(1.0 - rho * rho) * norm2
        r = sigma2 * np.eye(4) + p1 * np.outer(v1, v1) + p2 * np.outer(v2, v2)
        solved = hermitian_eigenvalues(HermitianMatrix(r))[:2]
        closed = two_source_eigenvalues(p1, p2, norm1, norm2, rho * norm1 * norm2, sigma2)
        worst = max(worst, float(np.max(np.abs(solved - np.array(closed)) / np.array(closed))))
    ok = worst <= 1e-8
    report(capsys, "criterion 7, closed-form vs solver on 200 two-source covariances",
           ok, f"worst relative gap {worst:.2e}")
    assert ok


def _random_spectra():
    """A spread of seeded sample spectra, both over- and undersampled."""
    cases = [
        ((10.0, 3.0), 16, 64, 1), ((10.0, 3.0), 32, 8, 1), ((50.0,), 24, 96, 2),
        ((), 12, 30, 1), ((6.0, 4.0, 2.5), 20, 80, 1), ((8.0,), 10, 5, 2),
    ]
    spectra = []
    for seed, (signals, n, m, beta) in enumerate(cases):
        spec = ScenarioSpec(signals, 1.0, n, m, beta=beta)
        snaps = generate_snapshots(spec, SeedPolicy(MASTER_SEED, seed))
        eigs = hermitian_eigenvalues(sample_covariance(snaps))
        spectra.append(validate_spectrum(eigs, n, m, beta))
    return spectra


def test_criterion_8_property_suites(capsys, tmp_path):
    failures = []
    spectra = _random_spectra()

    # Scale invariance of k_hat under gamma in {1e-300, 1e-3, 1, 1e3, 1e300}.
    for spectrum in spectra:
        for estimate in ESTIMATORS.values():
            base = estimate(spectrum).k_hat
            for gamma in (1e-300, 1e-3, 1.0, 1e3, 1e300):
                scaled = validate_spectrum(
                    spectrum.eigenvalues * gamma, spectrum.n, spectrum.m, spectrum.beta
                )
                if estimate(scaled).k_hat != base:
                    failures.append(f"scale invariance at gamma={gamma}")

    # The window statistic never drops below 1.
    for spectrum in spectra:
        t = window_statistics(spectrum)[1]
        for k in np.flatnonzero(t < 1.0 - 1e-12):
            failures.append(f"t < 1 at k={k}")

    # Identifiability formula agrees with the eigenvalue-threshold condition
    # for unit-norm steering vectors, on 1000 randomized inputs.
    rng = np.random.default_rng(415)
    for _ in range(1000):
        p = rng.uniform(0.05, 10.0)
        rho = rng.uniform(0.0, 0.999)
        sigma2 = rng.uniform(0.1, 4.0)
        n = int(rng.integers(4, 400))
        m = int(rng.integers(4, 400))
        _, lam2 = two_source_eigenvalues(p, p, 1.0, 1.0, rho, sigma2)
        want = lam2 > detection_threshold(sigma2, n / m)
        if identifiability_check(p, 1.0, rho, sigma2, n, m) != want:
            failures.append("identifiability consistency")
            break

    # Simulation output is byte-identical across worker counts.
    args = [
        "simulate", "--signals", "10,3", "--grid", "16:64,12:6",
        "--trials", "24", "--seed", str(MASTER_SEED),
    ]
    w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    rc1 = cli_main(args + ["--workers", "1", "--output", str(w1)])
    rc2 = cli_main(args + ["--workers", "2", "--output", str(w2)])
    if rc1 != 0 or rc2 != 0 or w1.read_bytes() != w2.read_bytes():
        failures.append("worker-count byte identity")

    ok = not failures
    report(capsys, "criterion 8, property suites", ok,
           "all properties held" if ok else "; ".join(sorted(set(failures))))
    assert ok, failures
