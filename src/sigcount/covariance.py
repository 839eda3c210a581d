"""From snapshots to a validated sample spectrum.

`snapshot_spectrum` is the one route: it returns the eigenvalues of the
sample covariance (1/m) X X' as a `SampleSpectrum`. When m >= n it forms the
n x n covariance. When m < n that matrix has rank at most m, so it solves the
m x m Gram matrix (1/m) X' X instead, whose eigenvalues are the nonzero ones,
and appends the other n - m as exact zeros. `_product` forms the product
self-adjoint by construction, in fresh arrays or in ones the Monte Carlo
loop reuses. This route and `sample_covariance` adopt it without the copy
and asymmetry check `HermitianMatrix(...)` runs on a caller's matrix, but
keep `_product`'s finite check and `_solve`'s convergence and trace checks.
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

    Raises:
        NonFiniteInput: the snapshots hold NaN or infinity, or their product
            overflows the float range.
    """
    x = snapshots.data
    matrix = object.__new__(HermitianMatrix)
    object.__setattr__(matrix, "entries", _product(x, *_product_buffers(x, snapshots.n)))
    matrix.entries.flags.writeable = False
    return matrix


def hermitian_eigenvalues(matrix: HermitianMatrix) -> np.ndarray:
    """All eigenvalues of a self-adjoint matrix, real and sorted descending.

    Backed by LAPACK's symmetric/Hermitian solver. The returned spectrum is
    checked against the trace; a residual beyond tolerance means the solve
    cannot be trusted.

    Raises:
        ConvergenceFailure: the iteration did not converge, or the eigenvalue
            sum disagrees with the trace beyond ``TRACE_RTOL``.
    """
    return _solve(matrix.entries)


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
    x = snapshots.data
    return _spectrum(x, snapshots.beta, *_product_buffers(x, min(x.shape)))


def _product_buffers(x: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh arrays for `_product`: the side x side product and, for complex X, a flat scratch."""
    if not np.iscomplexobj(x):
        return np.empty((side, side)), None
    return np.empty((side, side), dtype=complex), np.empty(max(x.size, side * side), dtype=complex)


def _product(x: np.ndarray, out: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """(1/m) X X' into ``out``, or the Gram matrix (1/m) X' X when ``out`` is m x m, m < n.

    Real X times its own transpose goes to syrk, exactly symmetric. Complex X
    writes conj(X) into ``scratch``, which then holds the covariance's adjoint.
    """
    n, m = x.shape
    gram = out.shape[0] != n
    xh = x.T if scratch is None else np.conjugate(x, out=scratch[: x.size].reshape(n, m)).T
    # Overflow shows up as inf entries, rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(*((xh, x) if gram else (x, xh)), out=out)
        out /= m
        if scratch is not None and not gram:
            out += np.conjugate(out.T, out=scratch[: n * n].reshape(n, n))
            out /= 2.0
    if not np.isfinite(out).all():
        raise NonFiniteInput("matrix entries must be finite")
    return out


def _solve(entries: np.ndarray) -> np.ndarray:
    """`hermitian_eigenvalues` of a self-adjoint array."""
    try:
        eigs = np.linalg.eigvalsh(entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue iteration failed to converge: {exc}") from exc
    trace = float(np.trace(entries).real)
    residual = abs(float(eigs.sum()) - trace)
    if residual > TRACE_RTOL * abs(trace) + 1e-12:
        raise ConvergenceFailure(
            f"eigenvalue sum off trace by {residual:.3e} (trace {trace:.6e})"
        )
    return eigs[::-1].copy()


def _spectrum(x: np.ndarray, beta: int, out: np.ndarray, scratch: np.ndarray | None) -> SampleSpectrum:
    """`snapshot_spectrum` of the snapshot array ``x``, formed in the given buffers."""
    n, m = x.shape
    eigs = _solve(_product(x, out, scratch))
    if m < n:
        eigs = np.concatenate([eigs, np.zeros(n - m)])
    return validate_spectrum(eigs, n, m, beta)
