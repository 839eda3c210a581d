"""From snapshots to a validated sample spectrum.

`snapshot_spectrum` is the one route: it returns the eigenvalues of the
sample covariance (1/m) X X' as a `SampleSpectrum`. When m >= n it forms the
n x n covariance. When m < n that matrix has rank at most m, so it solves the
m x m Gram matrix (1/m) X' X instead, whose eigenvalues are the nonzero ones,
and appends the other n - m as exact zeros. Both routes run the same
LAPACK-failure and trace-residual checks in `hermitian_eigenvalues`, and both
raise `NonFiniteInput` when the snapshots or their product are not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConvergenceFailure, NonFiniteInput, SampleSpectrum, validate_spectrum
from .snapshots import SnapshotMatrix

__all__ = ["HermitianMatrix", "sample_covariance", "hermitian_eigenvalues", "snapshot_spectrum"]

#: Relative Frobenius tolerance for accepting a matrix as self-adjoint.
HERMITIAN_RTOL = 1e-12

#: Relative trace-residual budget for the eigenvalue solve.
TRACE_RTOL = 1e-9


@dataclass(frozen=True)
class HermitianMatrix:
    """Self-adjoint matrix wrapper; rejects input that is not Hermitian or not finite."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        # Checked first: with an inf entry the asymmetry below is NaN, and
        # NaN > tol is False.
        if not np.all(np.isfinite(a)):
            raise NonFiniteInput("matrix entries must be finite")
        # Scaled by the largest entry so that the squares in the norms cannot
        # overflow; the floor keeps the reciprocal finite.
        scaled = a * (1.0 / max(np.abs(a).max(initial=0.0), 1e-300))
        norm = np.linalg.norm(scaled)
        scaled -= scaled.conj().T
        skew = np.linalg.norm(scaled)
        if skew > HERMITIAN_RTOL * max(norm, 1e-300):
            raise ValueError(
                f"matrix is not self-adjoint: relative asymmetry {skew / max(norm, 1e-300):.3e}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)


def sample_covariance(snapshots: SnapshotMatrix) -> HermitianMatrix:
    """(1/m) X X' with X the snapshot matrix and ' the conjugate transpose.

    Symmetry is forced exactly by averaging with the adjoint, so downstream
    checks never see round-off asymmetry.

    Raises:
        NonFiniteInput: the snapshots hold NaN or infinity, or their product
            overflows the float range.
    """
    x = snapshots.data
    # Overflow shows up as inf entries, which HermitianMatrix rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        r = (x @ x.conj().T) / snapshots.m
        r = (r + r.conj().T) / 2.0
    return HermitianMatrix(entries=r)


def hermitian_eigenvalues(matrix: HermitianMatrix) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, real and sorted descending.

    Backed by LAPACK's symmetric/Hermitian solver. The returned spectrum is
    checked against the trace; a residual beyond tolerance means the solve
    cannot be trusted.

    Raises:
        ConvergenceFailure: the iteration did not converge, or the eigenvalue
            sum disagrees with the trace beyond ``TRACE_RTOL``.
    """
    try:
        eigs = np.linalg.eigvalsh(matrix.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    trace = float(np.trace(matrix.entries).real)
    residual = abs(float(eigs.sum()) - trace)
    if residual > TRACE_RTOL * abs(trace) + 1e-12:
        raise ConvergenceFailure(
            f"eigenvalue sum off trace by {residual:.3e} (trace {trace:.6e})"
        )
    return eigs[::-1].copy()


def snapshot_spectrum(snapshots: SnapshotMatrix) -> SampleSpectrum:
    """Validated eigenvalues of the sample covariance (1/m) X X'.

    With m >= n this is exactly ``validate_spectrum(hermitian_eigenvalues(
    sample_covariance(snapshots)), n, m, beta)``. With m < n it solves the
    m x m Gram matrix (1/m) X' X, which has the same nonzero eigenvalues and
    the same trace, and pads with n - m exact zeros.

    Raises:
        NonFiniteInput: the snapshots or their product are not finite.
        ConvergenceFailure: as raised by `hermitian_eigenvalues`.
    """
    n, m = snapshots.n, snapshots.m
    if m >= n:
        eigs = hermitian_eigenvalues(sample_covariance(snapshots))
    else:
        x = snapshots.data
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (x.conj().T @ x) / m
        eigs = np.concatenate([hermitian_eigenvalues(HermitianMatrix(gram)), np.zeros(n - m)])
    return validate_spectrum(eigs, n, m, snapshots.beta)
