"""Shared domain types: scenarios, sample spectra, detection results.

`SampleSpectrum` is the one place a spectrum is checked. `validate_spectrum`
only repairs raw eigensolver output (sorts it and snaps round-off to exact
zeros) and leaves every check to the `SampleSpectrum` it constructs.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonFiniteInput",
    "NegativeEigenvalue",
    "UnsupportedField",
    "ConvergenceFailure",
    "DomainError",
    "VALID_BETAS",
    "CLAMP_RTOL",
    "EstimatorId",
    "ScenarioSpec",
    "SampleSpectrum",
    "DetectionResult",
    "validate_spectrum",
]

#: Field indicator: 1 real, 2 complex, 4 quaternion (formula evaluation only).
VALID_BETAS = (1, 2, 4)

#: Relative tolerance (vs. the largest eigenvalue) below which round-off
#: eigenvalues of a rank-deficient covariance are snapped to exactly zero.
CLAMP_RTOL = 1e-10


class NonFiniteInput(ValueError):
    """An input array contains NaN or infinity."""


class NegativeEigenvalue(ValueError):
    """An eigenvalue is negative beyond round-off tolerance (non-PSD input)."""


class UnsupportedField(ValueError):
    """Operation does not support the requested field indicator beta."""


class ConvergenceFailure(RuntimeError):
    """Eigenvalue iteration failed to reach tolerance."""


class DomainError(ValueError):
    """Arguments violate the mathematical domain of a formula."""


class EstimatorId(enum.Enum):
    """Identifiers for the three signal-count estimators."""

    NEW_RMT_AIC = "NEW_RMT_AIC"
    WK_AIC = "WK_AIC"
    WK_MDL = "WK_MDL"

    def __str__(self) -> str:
        return self.value


def _integer(name: str, value) -> int:
    """``value`` as a Python int; TypeError naming ``name`` unless it is an integer.

    ``operator.index`` takes Python and numpy integers but also bool, which
    would silently count as 0 or 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_beta(beta: int) -> int:
    if beta not in VALID_BETAS:
        raise UnsupportedField(f"beta must be one of {VALID_BETAS}, got {beta!r}")
    return int(beta)


@dataclass(frozen=True)
class ScenarioSpec:
    """Population covariance description used to synthesize snapshots.

    The population covariance is diag(lambda_1, ..., lambda_k, sigma2, ...,
    sigma2): ``signal_eigenvalues`` holds the k eigenvalues strictly above the
    noise floor, the remaining n - k equal ``noise_variance``.
    """

    signal_eigenvalues: tuple[float, ...]
    noise_variance: float
    n: int
    m: int
    beta: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "signal_eigenvalues", tuple(float(v) for v in self.signal_eigenvalues)
        )
        sig = self.signal_eigenvalues
        if not all(math.isfinite(v) for v in sig) or not math.isfinite(self.noise_variance):
            raise NonFiniteInput("scenario eigenvalues must be finite")
        if self.noise_variance <= 0:
            raise ValueError(f"noise_variance must be > 0, got {self.noise_variance}")
        if any(a < b for a, b in zip(sig, sig[1:])):
            raise ValueError("signal_eigenvalues must be sorted non-increasing")
        if any(v <= self.noise_variance for v in sig):
            raise ValueError(
                "every signal eigenvalue must exceed the noise variance "
                f"{self.noise_variance}, got {sig}"
            )
        for name in ("n", "m", "beta"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got n={self.n}, m={self.m}")
        if len(sig) >= self.n:
            raise ValueError(
                f"need fewer signals than sensors: k={len(sig)} >= n={self.n}"
            )
        _check_beta(self.beta)

    @property
    def k(self) -> int:
        """Number of signal eigenvalues."""
        return len(self.signal_eigenvalues)

    def population_eigenvalues(self) -> np.ndarray:
        """All n population eigenvalues, descending."""
        out = np.full(self.n, self.noise_variance)
        out[: self.k] = self.signal_eigenvalues
        return out


@dataclass(frozen=True)
class SampleSpectrum:
    """Descending eigenvalues of a sample covariance matrix.

    Construction is the one check of a spectrum and repairs nothing: it
    rejects a length other than n, n or m below 1, an unsupported beta, and
    eigenvalues that are not finite, are negative or are not sorted
    non-increasing. Build one from raw eigensolver output with
    :func:`validate_spectrum`, which sorts and clamps round-off first.

    Raises:
        TypeError: n, m or beta is not an integer.
        ValueError: wrong length, n or m below 1, or unsorted eigenvalues.
        UnsupportedField: beta is not in ``VALID_BETAS``.
        NonFiniteInput: an eigenvalue is NaN or infinite.
        NegativeEigenvalue: an eigenvalue is negative.
    """

    eigenvalues: np.ndarray
    n: int
    m: int
    beta: int = 1

    def __post_init__(self) -> None:
        for name in ("n", "m", "beta"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        eigs = np.array(self.eigenvalues, dtype=float, copy=True)
        eigs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigs)
        if eigs.ndim != 1 or eigs.size != self.n:
            raise ValueError(f"expected {self.n} eigenvalues, got shape {eigs.shape}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got n={self.n}, m={self.m}")
        _check_beta(self.beta)
        if not np.all(np.isfinite(eigs)):
            raise NonFiniteInput("eigenvalues contain NaN or infinity")
        if np.any(eigs < 0):
            raise NegativeEigenvalue(
                f"eigenvalue {eigs.min()} is negative; input covariance is not PSD"
            )
        if np.any(np.diff(eigs) > 0):
            raise ValueError("eigenvalues must be sorted non-increasing")


@dataclass(frozen=True)
class DetectionResult:
    """Estimated signal count with the per-k criterion values behind it."""

    k_hat: int
    criterion_values: tuple[tuple[int, float], ...]
    estimator_id: EstimatorId


def validate_spectrum(eigs, n: int, m: int, beta: int = 1) -> SampleSpectrum:
    """Build a SampleSpectrum from raw eigensolver output.

    Repairs only: flattens, sorts descending and snaps every entry within
    ``CLAMP_RTOL`` of the largest eigenvalue to exact zero, so that the zero
    modes of a rank-deficient covariance come out as true zeros. The checks
    are `SampleSpectrum`'s, so a negative entry beyond that tolerance raises
    `NegativeEigenvalue` there.

    Args:
        eigs: n eigenvalues in any order.
        n: sensor count; must equal len(eigs).
        m: snapshot count the covariance was formed from.
        beta: field indicator in {1, 2, 4}.

    Raises:
        ValueError, UnsupportedField, NonFiniteInput, NegativeEigenvalue: as
            raised by `SampleSpectrum` for the repaired eigenvalues.
    """
    arr = np.sort(np.asarray(eigs, dtype=float).reshape(-1))[::-1]
    # NaN sorts first and +inf next; neither may set the tolerance.
    top = arr[0] if arr.size and np.isfinite(arr[0]) else 0.0
    tol = CLAMP_RTOL * max(top, 0.0)
    return SampleSpectrum(np.where(np.abs(arr) <= tol, 0.0, arr), n, m, beta)
