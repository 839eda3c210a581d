"""Slow reference implementations that the property tests hold the library to.

`reference_spectrum` always solves the full n x n sample covariance, where
the library solves the m x m Gram matrix when m < n. The per-k estimator
criteria give each candidate k a fresh slice of the spectrum and its own
moments, in the spectrum's own units, where the library computes every k at
once from suffix sums. `reference_load` parses an input file one cell at a
time with Python's ``float()``, where the library makes one ``np.loadtxt``
call for the whole body. `reference_snapshots` draws with out-of-place
arithmetic, where the library fills and scales arrays in place.
"""

import math
from dataclasses import dataclass

import numpy as np

from sigcount import SampleSpectrum, ScenarioSpec, SeedPolicy, SnapshotMatrix, validate_spectrum
from sigcount.cli import InputFormatError, _parse_header


def reference_spectrum(snapshots: SnapshotMatrix) -> SampleSpectrum:
    """Eigenvalues of the full n x n matrix X X' / m, whatever m is."""
    x = snapshots.data
    eigs = np.linalg.eigvalsh(x @ x.conj().T / snapshots.m)
    return validate_spectrum(eigs, snapshots.n, snapshots.m, snapshots.beta)


def reference_snapshots(spec: ScenarioSpec, seed: SeedPolicy) -> np.ndarray:
    """The snapshot array of `generate_snapshots`, each step a new array."""
    rng = seed.rng()
    scale = np.sqrt(spec.population_eigenvalues())[:, np.newaxis]
    if spec.beta == 1:
        return scale * rng.standard_normal((spec.n, spec.m))
    re = rng.standard_normal((spec.n, spec.m))
    im = rng.standard_normal((spec.n, spec.m))
    return scale * ((re + 1j * im) / np.sqrt(2.0))


def reference_load(path: str) -> SampleSpectrum | SnapshotMatrix:
    """`load_input_file` with a per-cell ``float()`` loop over the body rows.

    A bad file raises the InputFormatError (line number and message) that the
    library must raise. ``float()`` also takes digit-group underscores and
    non-ASCII digits, which the library rejects. Complex entries are built
    with ``complex(re, im)``, which keeps the bits of both parts.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].strip():
        raise InputFormatError(1, "empty file, expected a header line")
    kind, n, m, beta = _parse_header(lines[0])
    body = [(i + 1, line) for i, line in enumerate(lines) if i > 0 and line.strip()]
    if kind == "eigenvalues":
        width, expected = 1, "one value per line"
    else:
        width = m if beta == 1 else 2 * m
        expected = f"{width} values per row"
        if len(body) != n:
            raise InputFormatError(len(lines), f"expected {n} snapshot rows, file holds {len(body)}")
    rows = []
    for line_no, line in body:
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise InputFormatError(line_no, f"could not parse {line.strip()!r} as numbers") from None
        if len(row) != width:
            raise InputFormatError(line_no, f"expected {expected}, got {len(row)}")
        rows.append(row)

    if kind == "eigenvalues":
        if len(rows) != n:
            raise InputFormatError(len(lines), f"expected {n} eigenvalues, file holds {len(rows)}")
        return validate_spectrum([row[0] for row in rows], n, m, beta)
    if beta == 2:
        rows = [[complex(row[j], row[j + 1]) for j in range(0, width, 2)] for row in rows]
    return SnapshotMatrix(data=np.array(rows), n=n, m=m, beta=beta)


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
