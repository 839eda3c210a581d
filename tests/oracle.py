"""Slow reference implementations that the property tests hold the library to.

`reference_spectrum` always solves the full n x n sample covariance, where
the library solves the m x m Gram matrix when m < n. The per-k estimator
criteria give each candidate k a fresh slice of the spectrum and its own
moments, in the spectrum's own units, where the library computes every k at
once from suffix sums.
"""

import math
from dataclasses import dataclass

import numpy as np

from sigcount import SampleSpectrum, SnapshotMatrix, validate_spectrum


def reference_spectrum(snapshots: SnapshotMatrix) -> SampleSpectrum:
    """Eigenvalues of the full n x n matrix X X' / m, whatever m is."""
    x = snapshots.data
    eigs = np.linalg.eigvalsh(x @ x.conj().T / snapshots.m)
    return validate_spectrum(eigs, snapshots.n, snapshots.m, snapshots.beta)


@dataclass(frozen=True)
class WindowMoments:
    """Moments of the n - k smallest sample eigenvalues.

    ``t`` is mean_square / mean**2 (+inf when the window mean is 0) and
    ``geo_mean`` is 0 whenever the window contains a zero eigenvalue.
    """

    k: int
    mean: float
    mean_square: float
    geo_mean: float
    t: float


def window_moments(spectrum: SampleSpectrum, k: int) -> WindowMoments:
    """Moments of eigenvalues l_{k+1}, ..., l_n for candidate signal count k."""
    window = spectrum.eigenvalues[k:]
    mean = float(window.mean())
    mean_square = float((window * window).mean())
    if np.any(window == 0.0):
        geo_mean = 0.0
    else:
        geo_mean = float(np.exp(np.log(window).mean()))
    t = mean_square / (mean * mean) if mean > 0.0 else math.inf
    return WindowMoments(k=k, mean=mean, mean_square=mean_square, geo_mean=geo_mean, t=t)


def _wk_log_ratio(moments: WindowMoments) -> float:
    """log(g(k) / a(k)); -inf when the window holds a zero eigenvalue."""
    if moments.geo_mean == 0.0 or moments.mean == 0.0:
        return -math.inf
    return math.log(moments.geo_mean / moments.mean)


def wk_aic_criteria(spectrum: SampleSpectrum) -> list[float]:
    n, m = spectrum.n, spectrum.m
    criteria = []
    for k in range(min(n, m)):
        ratio = _wk_log_ratio(window_moments(spectrum, k))
        if ratio == -math.inf:
            criteria.append(math.inf)
        else:
            criteria.append(-2.0 * (n - k) * m * ratio + 2.0 * k * (2 * n - k))
    return criteria


def wk_mdl_criteria(spectrum: SampleSpectrum) -> list[float]:
    n, m = spectrum.n, spectrum.m
    criteria = []
    for k in range(min(n, m)):
        ratio = _wk_log_ratio(window_moments(spectrum, k))
        if ratio == -math.inf:
            criteria.append(math.inf)
        else:
            criteria.append(-(n - k) * m * ratio + 0.5 * k * (2 * n - k) * math.log(m))
    return criteria


def new_criteria(spectrum: SampleSpectrum) -> list[float]:
    n, m, beta = spectrum.n, spectrum.m, spectrum.beta
    c = n / m
    criteria = []
    for k in range(min(n, m)):
        moments = window_moments(spectrum, k)
        if moments.mean == 0.0:
            criteria.append(math.inf)
            continue
        q_k = n * (moments.t - (1.0 + c)) - (2.0 / beta - 1.0) * c
        criteria.append((beta / 4.0) * (m / n) ** 2 * q_k**2 + 2.0 * (k + 1))
    return criteria


def argmin_k(criteria: list[float]) -> int:
    """Smallest k attaining the minimum; the all-inf case goes to 0."""
    return min(range(len(criteria)), key=lambda k: (criteria[k], k))
