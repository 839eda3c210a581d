"""Slow reference implementations that the property tests hold the library to.

`reference_spectrum` always solves the full n x n sample covariance, where
the library solves the m x m Gram matrix when m < n. The per-k estimator
criteria give each candidate k a fresh slice of the spectrum and its own
moments, in the spectrum's own units, where the library computes every k at
once from suffix sums. `reference_load` parses an input file one cell at a
time with Python's ``float()``, where the library makes one ``np.loadtxt``
call for the whole body; both end a line at LF, CRLF or CR and nowhere else.
`reference_snapshots` draws with out-of-place arithmetic, where the library
fills and scales arrays in place.

`noise_only_n2_probabilities` samples nothing: it gives each estimator's
exact P(k_hat = 0) at n = 2 under noise only, by quadrature. Its values at
beta = 4, which no simulation draws yet, are the targets for quaternion
trials: NEW 0.99439, WK_AIC 0.95303 and WK_MDL 0.97595 at m = 10, and NEW
0.98821, WK_AIC 0.96253 and WK_MDL 0.99942 at m = 40. The Wishart moments
also show that the centering of `clt_statistics`, n (1 + c) + (2/beta - 1) c
with c = n/m, is the exact mean of the sum of squared eigenvalues at every
finite n for beta = 1 and 2, not only its limit.
"""

import math
from dataclasses import dataclass

import numpy as np

from sigcount import EstimatorId, SampleSpectrum, ScenarioSpec, SeedPolicy, SnapshotMatrix, validate_spectrum
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
        lines = f.read().split("\n")  # CRLF and CR arrive as LF
    if lines[-1] == "":  # the text after the last line end
        lines.pop()
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
            # float() alone keeps \x1c-\x1f at a cell's edge; loadtxt, like
            # str.strip, takes every Unicode space off.
            row = [float(cell.strip()) for cell in line.split(",")]
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


def noise_only_n2_probabilities(m: int, beta: int) -> dict[EstimatorId, float]:
    """Exact P(k_hat = 0) of each estimator at n = 2 under noise only.

    At n = 2 the spectrum divided by l_1 is (1, r) with r = l_2 / l_1, and
    with u = (1 - r) / (1 + r) the k = 0 window has t_0 = 1 + u^2 and
    g/a = sqrt(1 - u^2), while the k = 1 window has t_1 = 1 and g/a = 1. So
    each estimator picks k = 0 exactly when u^2 <= v for its own v:

    - NEW: u^2 (u^2 - A) <= B with A = c (1 + 2/beta), B = 8 / (beta m^2);
    - WK_AIC: -2 m log(1 - u^2) <= 6;
    - WK_MDL: -m log(1 - u^2) <= (3/2) log m.

    Under noise r has density (1 - r)^beta r^a (1 + r)^-(beta + 2a + 2) up to
    a constant, with a = beta (m - 1)/2 - 1: the beta-Laguerre density of
    (l_1, l_2) with the scale integrated out. P(k_hat = 0) is its mass on
    [r*, 1], r* = (1 - sqrt v) / (1 + sqrt v), in Gauss-Legendre quadrature
    on [0, r*] and [r*, 1]. At 200 nodes the values move by under 1e-14
    against 400 nodes, and by under 1e-14 against the Beta((beta + 1)/2,
    a + 1) distribution function at v, which u^2 follows.
    """
    c = 2 / m
    a = beta * (m - 1) / 2 - 1
    big_a, big_b = c * (1 + 2 / beta), 8 / (beta * m * m)
    bounds = {
        EstimatorId.NEW_RMT_AIC: (big_a + math.sqrt(big_a * big_a + 4 * big_b)) / 2,
        EstimatorId.WK_AIC: -math.expm1(-3 / m),
        EstimatorId.WK_MDL: -math.expm1(-1.5 * math.log(m) / m),
    }
    x, w = np.polynomial.legendre.leggauss(200)

    def mass(lo: float, hi: float) -> float:
        r = (hi - lo) / 2 * x + (hi + lo) / 2
        log_density = beta * np.log1p(-r) + a * np.log(r) - (beta + 2 * a + 2) * np.log1p(r)
        return (hi - lo) / 2 * float(np.sum(w * np.exp(log_density)))

    probabilities = {}
    for est, v in bounds.items():
        root = math.sqrt(min(v, 1.0))
        r_star = (1 - root) / (1 + root)
        kept = mass(r_star, 1.0)
        probabilities[est] = kept / (mass(0.0, r_star) + kept)
    return probabilities


def binomial_log_pmf(trials: int, p: float) -> np.ndarray:
    """log P(K = k) for K ~ Binomial(trials, p), k = 0..trials.

    ``math.lgamma`` gives each log binomial coefficient to about 1e-12; the
    exact ``math.comb`` integers take 0.5 s at 3,000 trials.
    """
    k = np.arange(trials + 1)
    top = math.lgamma(trials + 1)
    log_comb = np.array([top - math.lgamma(j + 1) - math.lgamma(trials - j + 1) for j in range(trials + 1)])
    return log_comb + k * math.log(p) + (trials - k) * math.log1p(-p)


def binomial_p_values(trials: int, p: float) -> np.ndarray:
    """The exact two-sided binomial test's p-value for every count 0..trials.

    The p-value of a count is the chance under p of any count no more
    likely than it, with a 1e-7 relative tolerance for ties.
    """
    log_pmf = binomial_log_pmf(trials, p)
    ordered = np.sort(log_pmf)
    below = np.cumsum(np.exp(ordered))
    return below[np.searchsorted(ordered, log_pmf + 1e-7, side="right") - 1]
