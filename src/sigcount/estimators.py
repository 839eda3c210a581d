"""Signal-count estimators operating on a sample eigenvalue spectrum.

Three estimators share the same contract: scan candidate signal counts
k = 0, ..., min(n, m) - 1, score each k from the statistics of the noise
window l_{k+1}, ..., l_n, and return the smallest k attaining the minimum
score. :func:`window_statistics` computes those statistics for every k in one
pass of suffix sums over the spectrum divided by its largest eigenvalue, so
k_hat does not change when the spectrum is scaled across the float range.

``estimate_wk_aic`` and ``estimate_wk_mdl`` are the classical information
criteria built on the geometric/arithmetic mean ratio of the window. Every
window holds l_n, so both degenerate (all criteria +inf, k_hat 0) exactly
when the smallest eigenvalue is 0. ``estimate_new`` scores the window by how
far its mean-square-to-squared-mean ratio sits from the value random matrix
theory predicts for pure noise at aspect ratio n/m, which keeps it
calibrated when m is comparable to or smaller than n.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DetectionResult, EstimatorId, SampleSpectrum

__all__ = [
    "window_statistics",
    "estimate_wk_aic",
    "estimate_wk_mdl",
    "estimate_new",
    "ESTIMATORS",
]


def window_statistics(spectrum: SampleSpectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Statistics of the windows l_{k+1}, ..., l_n for k = 0, ..., min(n, m) - 1.

    Returns three arrays indexed by k: the window mean; t_k, the mean square
    over the squared mean (+inf when the window is all zero); and
    log(g/a), the log of the geometric over the arithmetic mean (-inf for
    every k when l_n is 0).
    """
    eigs = spectrum.eigenvalues
    n, k_count = spectrum.n, min(spectrum.n, spectrum.m)
    # x lies in [0, 1], so its squares cannot overflow at any scale of the
    # spectrum; the sums accumulate from l_n, the small end.
    scale = eigs[0] if eigs[0] > 0.0 else 1.0
    x = eigs / scale

    def suffix_sum(a: np.ndarray) -> np.ndarray:
        return np.cumsum(a[::-1])[::-1][:k_count]

    size = np.arange(n, n - k_count, -1, dtype=float)
    s1, s2 = suffix_sum(x), suffix_sum(x * x)
    mean = s1 / size
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(s1 > 0.0, size * s2 / (s1 * s1), np.inf)
    if eigs[-1] == 0.0:
        log_ratio = np.full(k_count, -np.inf)
    else:
        log_ratio = suffix_sum(np.log(x)) / size - np.log(mean)
    return mean * scale, t, log_ratio


def _criteria(spectrum: SampleSpectrum) -> dict[EstimatorId, np.ndarray]:
    """Every estimator's criterion over 0 <= k < min(n, m), from one `window_statistics` pass."""
    n, m, beta = spectrum.n, spectrum.m, spectrum.beta
    _, t, log_ratio = window_statistics(spectrum)
    k = np.arange(t.size)
    # -(n-k) m log(g/a), the WK goodness of fit; +inf when l_n is 0.
    fit = -(n - k) * m * log_ratio
    c = n / m
    q = n * (t - (1.0 + c)) - (2.0 / beta - 1.0) * c
    return {
        EstimatorId.NEW_RMT_AIC: (beta / 4.0) * (m / n) ** 2 * q**2 + 2.0 * (k + 1),
        EstimatorId.WK_AIC: 2.0 * fit + 2.0 * k * (2 * n - k),
        EstimatorId.WK_MDL: fit + 0.5 * k * (2 * n - k) * math.log(m),
    }


def _result(spectrum: SampleSpectrum, estimator_id: EstimatorId) -> DetectionResult:
    """The first k attaining the minimum of one criterion, with every criterion value."""
    criteria = _criteria(spectrum)[estimator_id]
    k_hat = int(np.argmin(criteria))
    return DetectionResult(k_hat, tuple(enumerate(criteria.tolist())), estimator_id)


def estimate_wk_aic(spectrum: SampleSpectrum) -> DetectionResult:
    """AIC form of the classical arithmetic/geometric mean estimator.

    Minimizes -2 (n-k) m log(g(k)/a(k)) + 2 k (2n - k) over
    0 <= k < min(n, m). A window touching a zero eigenvalue of a
    rank-deficient covariance scores +inf, so singular spectra report 0.
    """
    return _result(spectrum, EstimatorId.WK_AIC)


def estimate_wk_mdl(spectrum: SampleSpectrum) -> DetectionResult:
    """MDL form: -(n-k) m log(g(k)/a(k)) + (1/2) k (2n - k) log m."""
    return _result(spectrum, EstimatorId.WK_MDL)


def estimate_new(spectrum: SampleSpectrum) -> DetectionResult:
    """Random-matrix calibrated AIC estimator of the signal count.

    For each k the noise-window statistic t_{n,k} is compared with the pure
    noise prediction 1 + n/m; the standardized gap

        q_k = n [t_{n,k} - (1 + n/m)] - (2/beta - 1) (n/m)

    is asymptotically N(0, (4/beta)(n/m)^2) under a noise-only window, and the
    criterion (beta/4)(m/n)^2 q_k^2 + 2 (k + 1) is its AIC-penalized square.
    Remains well defined for m < n, where the classical criteria degenerate.
    An all-zero window scores +inf.
    """
    return _result(spectrum, EstimatorId.NEW_RMT_AIC)


#: Dispatch table used by the simulation harness and the command line.
ESTIMATORS = {
    EstimatorId.NEW_RMT_AIC: estimate_new,
    EstimatorId.WK_AIC: estimate_wk_aic,
    EstimatorId.WK_MDL: estimate_wk_mdl,
}
