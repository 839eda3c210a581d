"""Seeded Gaussian snapshot generation.

Each trial owns an independent stream keyed by (master_seed, trial_index),
so results never depend on execution order or thread scheduling. Normal
variates come from numpy's PCG64 generator (ziggurat transform), the one
generator used throughout this package. An array the package builds is
adopted: checked and locked, not copied. `_draw` fills a fresh one for
`generate_snapshots`, or in the Monte Carlo loop one reused for a range of
trials. An array a caller passes to `SnapshotMatrix(...)` is copied first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScenarioSpec, UnsupportedField, _integer

__all__ = ["SeedPolicy", "SnapshotMatrix", "generate_snapshots"]


@dataclass(frozen=True)
class SeedPolicy:
    """Derives a reproducible random stream from (master_seed, trial_index)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "trial_index"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned int, got {self.master_seed}")
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be >= 0, got {self.trial_index}")

    def rng(self) -> np.random.Generator:
        """Fresh generator; a pure function of (master_seed, trial_index)."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.trial_index,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class SnapshotMatrix:
    """n x m matrix whose columns are snapshots: a read-only copy of ``data``, or an adopted array the package built."""

    data: np.ndarray
    n: int
    m: int
    beta: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", np.array(self.data, copy=True))
        self._check()

    def _check(self) -> None:
        for name in ("n", "m", "beta"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.n < 1 or self.m < 1:
            raise ValueError(f"n and m must be positive, got n={self.n}, m={self.m}")
        self.data.flags.writeable = False
        if self.data.shape != (self.n, self.m):
            raise ValueError(f"expected shape ({self.n}, {self.m}), got {self.data.shape}")
        if self.beta == 1 and np.iscomplexobj(self.data):
            raise ValueError("beta=1 snapshots must be real-valued")
        if self.beta == 2 and not np.iscomplexobj(self.data):
            raise ValueError("beta=2 snapshots must be complex-valued")
        if self.beta not in (1, 2):
            raise UnsupportedField(f"snapshot matrices exist only for beta in (1, 2), got {self.beta}")


def _adopt(data: np.ndarray, n: int, m: int, beta: int) -> SnapshotMatrix:
    """``SnapshotMatrix(data, n, m, beta)`` around ``data`` itself; the caller locks a view's base."""
    snapshots = object.__new__(SnapshotMatrix)
    snapshots.__dict__.update(data=data, n=n, m=m, beta=beta)
    snapshots._check()
    return snapshots


def generate_snapshots(spec: ScenarioSpec, seed: SeedPolicy) -> SnapshotMatrix:
    """Draw the n x m snapshot matrix for a scenario.

    Columns are i.i.d. zero-mean Gaussian vectors with diagonal covariance
    diag(lambda_1, ..., lambda_k, sigma2, ..., sigma2). Every consumer in this
    package is eigenvalue-only, and the eigenvalue distribution of the sample
    covariance is invariant under rotations of the population covariance, so
    the diagonal form loses nothing.

    For beta=2 each standard entry has independent real and imaginary parts
    of variance 1/2, giving E|z|^2 = 1 before scaling. The drawn array is
    adopted, read-only and uncopied.

    Raises:
        UnsupportedField: spec.beta is 4 (no quaternion synthesis).
    """
    return _adopt(_draw(spec, seed, *_draw_buffers(spec)), spec.n, spec.m, spec.beta)


def _draw_buffers(spec: ScenarioSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh arrays for `_draw`: the snapshots and, for beta=2, a real part; rejects beta=4."""
    if spec.beta not in (1, 2):
        raise UnsupportedField(f"snapshot generation supports beta in (1, 2), got {spec.beta}")
    shape = (spec.n, spec.m)
    if spec.beta == 1:
        return np.empty(shape), None
    return np.empty(shape, dtype=complex), np.empty(shape)


def _draw(spec: ScenarioSpec, seed: SeedPolicy, out: np.ndarray, part: np.ndarray | None) -> np.ndarray:
    """Fill ``out`` in the draw order and steps of ``scale * ((re + 1j * im) / sqrt(2))``."""
    rng = seed.rng()
    if spec.beta == 1:
        rng.standard_normal(out=out)
    else:
        out.real = rng.standard_normal(out=part)
        out.imag = rng.standard_normal(out=part)
        out /= np.sqrt(2.0)
    out *= np.sqrt(spec.population_eigenvalues())[:, np.newaxis]
    return out
