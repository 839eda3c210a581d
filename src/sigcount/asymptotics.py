"""Closed-form large-matrix predictions for sample covariance spectra.

Everything here is deterministic arithmetic in the aspect ratio c = n/m:
the joint CLT for the first two spectral moments of a noise-only sample
covariance, the almost-sure limits of spiked sample eigenvalues, the
effective number of detectable signals, and the two-source identifiability
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SampleSpectrum, ScenarioSpec, VALID_BETAS

__all__ = [
    "SpikedPrediction",
    "q_matrix",
    "clt_statistics",
    "spiked_limit",
    "detection_threshold",
    "bulk_edge",
    "effective_num_signals",
    "two_source_eigenvalues",
    "identifiability_check",
]


def q_matrix(c: float, beta: int = 1) -> np.ndarray:
    """Limit covariance of the centered pair (sum l_i, sum l_i^2).

    Equals (2/beta) [[c, 2c(c+1)], [2c(c+1), 2c(2c^2 + 5c + 2)]]; symmetric
    positive definite for every finite c > 0.
    """
    _check_positive(c=c)
    if beta not in VALID_BETAS:
        raise DomainError(f"beta must be one of {VALID_BETAS}, got {beta}")
    off = 2.0 * c * (c + 1.0)
    return (2.0 / beta) * np.array([[c, off], [off, 2.0 * c * (2.0 * c**2 + 5.0 * c + 2.0)]])


def clt_statistics(spectrum: SampleSpectrum) -> tuple[float, float]:
    """Centered moment pair (sum l_i - n, sum l_i^2 - n(1+c) - (2/beta - 1)c).

    For a noise-only unit-variance spectrum this pair is asymptotically
    N(0, Q) with Q from :func:`q_matrix` at c = n/m.
    """
    eigs, n, c = spectrum.eigenvalues, spectrum.n, spectrum.n / spectrum.m
    second = n * (1.0 + c) + (2.0 / spectrum.beta - 1.0) * c
    return (float(eigs.sum()) - float(n), float((eigs * eigs).sum()) - second)


def _check_positive(**values: float) -> None:
    # Written as not (x > 0) so that NaN fails too.
    for name, x in values.items():
        if not (x > 0) or not math.isfinite(x):
            raise DomainError(f"{name} must be finite and > 0, got {x}")


def _check_nonnegative(**values: float) -> None:
    for name, x in values.items():
        if not (x >= 0) or not math.isfinite(x):
            raise DomainError(f"{name} must be finite and >= 0, got {x}")


def detection_threshold(sigma2: float, c: float) -> float:
    """Population eigenvalue level sigma2 (1 + sqrt(c)) separating detectable spikes.

    Raises:
        DomainError: unless sigma2 and c are finite and > 0.
    """
    _check_positive(sigma2=sigma2, c=c)
    return sigma2 * (1.0 + math.sqrt(c))


def bulk_edge(sigma2: float, c: float) -> float:
    """Almost-sure limit sigma2 (1 + sqrt(c))^2 of the largest noise eigenvalue.

    Raises:
        DomainError: unless sigma2 and c are finite and > 0.
    """
    _check_positive(sigma2=sigma2, c=c)
    return sigma2 * (1.0 + math.sqrt(c)) ** 2


@dataclass(frozen=True)
class SpikedPrediction:
    """Almost-sure limit of one sample eigenvalue under a spiked covariance."""

    population_eigenvalue: float
    limit: float
    above_threshold: bool


def spiked_limit(lambda_j: float, sigma2: float, c: float) -> SpikedPrediction:
    """Limit of the j-th sample eigenvalue for population eigenvalue lambda_j.

    Above the detection threshold sigma2 (1 + sqrt(c)) the sample eigenvalue
    separates to lambda_j (1 + sigma2 c / (lambda_j - sigma2)); at or below it
    the sample eigenvalue sticks to the bulk edge sigma2 (1 + sqrt(c))^2. The
    two branches agree at the threshold.

    Raises:
        DomainError: unless sigma2, c and lambda_j are finite, sigma2 and c
            are > 0, and lambda_j >= sigma2.
    """
    _check_positive(sigma2=sigma2, c=c)
    if not (lambda_j >= sigma2) or not math.isfinite(lambda_j):
        raise DomainError(f"lambda_j must be finite and >= sigma2={sigma2}, got {lambda_j}")
    above = lambda_j > detection_threshold(sigma2, c)
    if above:
        limit = lambda_j * (1.0 + sigma2 * c / (lambda_j - sigma2))
    else:
        limit = bulk_edge(sigma2, c)
    return SpikedPrediction(population_eigenvalue=lambda_j, limit=limit, above_threshold=above)


def effective_num_signals(spec: ScenarioSpec) -> int:
    """Signals strictly above the detection threshold sigma2 (1 + sqrt(n/m)).

    Only these are asymptotically distinguishable from noise using sample
    eigenvalues alone; eigenvalues exactly at the threshold do not count.
    """
    threshold = detection_threshold(spec.noise_variance, spec.n / spec.m)
    return int(sum(1 for lam in spec.signal_eigenvalues if lam > threshold))


def two_source_eigenvalues(
    p1: float,
    p2: float,
    norm1: float,
    norm2: float,
    inner: float,
    sigma2: float,
) -> tuple[float, float]:
    """Top two population eigenvalues of p1 v1 v1' + p2 v2 v2' + sigma2 I.

    Takes source powers p1, p2, the norms of the two steering vectors, and
    the magnitude of their inner product. The discriminant is evaluated with
    hypot to stay stable when the two rank-one terms nearly balance. The
    small root comes from the product of the roots (Vieta),
    (lambda_1 - sigma2)(lambda_2 - sigma2) = p1 p2 (|v1|^2 |v2|^2 - inner^2),
    so it keeps full relative accuracy for nearly coherent sources.

    Raises:
        DomainError: any input NaN or infinite, non-positive powers/norms,
            negative inner product magnitude or sigma2, or
            inner > norm1 * norm2 (Cauchy-Schwarz).
    """
    _check_positive(p1=p1, p2=p2, norm1=norm1, norm2=norm2)
    _check_nonnegative(inner=inner, sigma2=sigma2)
    if inner > norm1 * norm2 * (1.0 + 1e-15):
        raise DomainError(
            f"inner product {inner} exceeds norm1*norm2={norm1 * norm2} (Cauchy-Schwarz)"
        )
    d1 = p1 * norm1**2
    d2 = p2 * norm2**2
    half_sum = (d1 + d2) / 2.0
    half_disc = math.hypot(d1 - d2, 2.0 * math.sqrt(p1 * p2) * inner) / 2.0
    big = half_sum + half_disc
    norms = norm1 * norm2
    # inner may exceed norms by the round-off the Cauchy-Schwarz check allows.
    small = p1 * max(norms - inner, 0.0) * (p2 * (norms + inner) / big)
    return (sigma2 + big, sigma2 + small)


def identifiability_check(
    p: float,
    norm: float,
    inner: float,
    sigma2: float,
    n: int,
    m: int,
) -> bool:
    """Can two equal-power, equal-norm sources both be detected asymptotically?

    True iff p norm^2 (1 - inner/norm) > sigma2 sqrt(n/m). For unit-norm
    steering vectors this is exactly the condition that the smaller of the
    two population eigenvalues clears the detection threshold.

    Raises:
        DomainError: any input NaN, infinite or negative, norm = 0, or
            n, m < 1.
    """
    _check_nonnegative(p=p, inner=inner, sigma2=sigma2)
    _check_positive(norm=norm)
    if n < 1 or m < 1:
        raise DomainError(f"n and m must be >= 1, got n={n}, m={m}")
    return p * norm**2 * (1.0 - inner / norm) > sigma2 * math.sqrt(n / m)
