"""Command line frontend: estimate | simulate | keff | limits | clt-check.

Exit codes: 0 success, 1 statistical failure (clt-check only), 2 a file could
not be read, parsed or written, 3 an invalid value, including values outside
the float range that make the eigensolve fail. Each failure prints one
``error: ...`` line on standard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys
from itertools import chain, islice
from typing import NoReturn, TextIO

import numpy as np

from .asymptotics import (
    bulk_edge,
    detection_threshold,
    effective_num_signals,
    spiked_limit,
)
from .core import (
    ConvergenceFailure,
    EstimatorId,
    SampleSpectrum,
    ScenarioSpec,
    UnsupportedField,
    VALID_BETAS,
    validate_spectrum,
)
from .covariance import snapshot_spectrum
from .estimators import ESTIMATORS
from .montecarlo import ExperimentPlan, run_clt_check, run_experiment
from .snapshots import SnapshotMatrix, _adopt

__all__ = [
    "main",
    "DEFAULT_SEED",
    "InputFormatError",
    "load_input_file",
    "write_eigenvalue_file",
    "write_snapshot_file",
]

#: Fixed default so bare invocations are reproducible; override with --seed.
DEFAULT_SEED = 1729

_ESTIMATOR_ALIASES = {
    "new": EstimatorId.NEW_RMT_AIC,
    "aic": EstimatorId.WK_AIC,
    "mdl": EstimatorId.WK_MDL,
}


class InputFormatError(Exception):
    """Unparseable input file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# file formats

def _parse_header(line: str) -> tuple[str, int, int, int]:
    """(kind, n, m, beta), each value checked before any body line is read."""
    tokens = [t.strip() for t in line.strip().split(",")]
    kind = tokens[0].lower()
    if kind not in ("eigenvalues", "snapshots"):
        raise InputFormatError(1, f"unknown header {tokens[0]!r}; expected 'eigenvalues' or 'snapshots'")
    fields = {}
    for token in tokens[1:]:
        if "=" not in token:
            raise InputFormatError(1, f"malformed header field {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in ("n", "m", "beta"):
            raise InputFormatError(1, f"unknown header field {token!r}")
        if key in fields:
            raise InputFormatError(1, f"duplicate header field {token!r}")
        if not re.fullmatch(r"[+-]?[0-9]+", value.strip()):
            raise InputFormatError(1, f"non-integer header field {token!r}")
        fields[key] = int(value)
    missing = {"n", "m", "beta"} - fields.keys()
    if missing:
        raise InputFormatError(1, f"header missing {sorted(missing)}")
    n, m, beta = fields["n"], fields["m"], fields["beta"]
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be positive, got n={n}, m={m}")
    betas = (1, 2) if kind == "snapshots" else VALID_BETAS
    if beta not in betas:
        raise UnsupportedField(f"beta must be one of {betas} in a {kind} file, got {beta}")
    return kind, n, m, beta


def _first_error(path: str, kind: str, n: int, width: int) -> NoReturn:
    """Raise the InputFormatError of the first fault in a file whose body did not load.

    Lines are numbered as `load_input_file` reads them, so each number is
    the one an editor shows. The first pass counts lines and rows, since a
    snapshot file with the wrong row count reports that before any bad line.
    The second parses blocks of 4096 numbered rows with ``np.loadtxt``; only
    a block that fails is parsed line by line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        total, rows = 0, -1  # the header is no row
        for total, line in enumerate(f, 1):
            rows += bool(line.strip())
        noun = "eigenvalues" if kind == "eigenvalues" else "snapshot rows"
        count_error = InputFormatError(total, f"expected {n} {noun}, file holds {rows}")
        if kind == "snapshots" and rows != n:
            raise count_error
        expected = "one value per line" if kind == "eigenvalues" else f"{width} values per row"
        f.seek(0)
        numbered = ((i, line) for i, line in enumerate(f, 1) if i > 1 and line.strip())
        while block := list(islice(numbered, 4096)):
            try:
                parsed = np.loadtxt([text for _, text in block], delimiter=",", comments=None, ndmin=2)
                if parsed.shape[1] == width:
                    continue
            except ValueError:
                pass
            for line_no, text in block:
                try:
                    got = np.loadtxt([text], delimiter=",", comments=None, ndmin=1).size
                except ValueError:
                    raise InputFormatError(line_no, f"could not parse {text.strip()!r} as numbers") from None
                if got != width:
                    raise InputFormatError(line_no, f"expected {expected}, got {got}")
    raise count_error  # every row parses at its width, so only the eigenvalue count is wrong


def load_input_file(path: str) -> SampleSpectrum | SnapshotMatrix:
    """Read an eigenvalue or snapshot file, auto-detected from the header.

    The header gives ``n``, ``m`` and ``beta`` once each. A cell is a decimal
    or scientific-notation number, ``inf`` or ``nan``, with optional whitespace
    around it; blank lines are skipped. Digit-group underscores (``1_000``) and
    non-ASCII digits are rejected. A line ends at LF, CRLF or CR and nowhere
    else, so the other characters that ``str.splitlines`` cuts at, such as a
    form feed, are whitespace at a cell's edge and an error inside a cell.

    The file is read once: the header is checked, then the non-blank lines
    stream through one ``np.loadtxt`` call into an array that a snapshot
    matrix keeps uncopied; loading and the eigensolve peak near 1.3 times
    that array. A body that does not load is read again by `_first_error` to
    name its first bad line. A byte that is not UTF-8 decodes to a lone
    surrogate, which no header field or cell accepts, so it too is named.

    Raises InputFormatError for structural problems; validation errors from
    the domain constructors pass through unchanged.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        header = f.readline()
        if not header.strip():
            raise InputFormatError(1, "empty file, expected a header line")
        kind, n, m, beta = _parse_header(header)
        width = 1 if kind == "eigenvalues" else m * beta
        body = (line for line in f if line.strip())
        first = next(body, None)  # loadtxt warns on empty input, which holds too few rows
        try:
            data = first and np.loadtxt(chain([first], body), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape != (n, width):
        _first_error(path, kind, n, width)
    if kind == "eigenvalues":
        return validate_spectrum(data[:, 0], n, m, beta)
    data.flags.writeable = False  # before any view, so no writable alias is left
    if beta == 2:  # each adjacent (re, im) float64 pair is one complex128, bits kept
        data = data.view(np.complex128)
    return _adopt(data, n, m, beta)


def write_eigenvalue_file(path: str, spectrum: SampleSpectrum) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"eigenvalues,n={spectrum.n},m={spectrum.m},beta={spectrum.beta}\n")
        for value in spectrum.eigenvalues:
            f.write(f"{float(value)!r}\n")


def write_snapshot_file(path: str, snapshots: SnapshotMatrix) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"snapshots,n={snapshots.n},m={snapshots.m},beta={snapshots.beta}\n")
        data = snapshots.data
        if snapshots.beta == 2:  # the loader's view in reverse: one re,im pair per entry
            data = np.ascontiguousarray(data, dtype=np.complex128).view(np.float64)
        for row in data:
            f.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _parse_estimators(text: str) -> tuple[EstimatorId, ...]:
    names = [name.strip().lower() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError("no estimators selected")
    unknown = [name for name in names if name not in _ESTIMATOR_ALIASES]
    if unknown:
        raise ValueError(f"unknown estimators {unknown}; choose from new, aic, mdl")
    return tuple(_ESTIMATOR_ALIASES[name] for name in names)


def _parse_signals(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_grid(text: str) -> tuple[tuple[int, int], ...]:
    points = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        n_text, sep, m_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"grid point {chunk!r} is not of the form n:m")
        points.append((int(n_text), int(m_text)))
    if not points:
        raise ValueError("grid is empty")
    return tuple(points)


def cmd_estimate(args: argparse.Namespace, out: TextIO) -> int:
    estimators = _parse_estimators(args.estimators)
    loaded = load_input_file(args.input)
    spectrum = snapshot_spectrum(loaded) if isinstance(loaded, SnapshotMatrix) else loaded
    results = [ESTIMATORS[est](spectrum) for est in estimators]
    writer = csv.writer(out, lineterminator="\n")
    header = ["estimator_id", "k_hat"]
    if args.verbose:
        header += [f"crit_k{k}" for k, _ in results[0].criterion_values]
    writer.writerow(header)
    for result in results:
        row = [result.estimator_id.value, result.k_hat]
        if args.verbose:
            row += [repr(float(value)) for _, value in result.criterion_values]
        writer.writerow(row)
    return 0


def cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    grid = _parse_grid(args.grid)
    scenario = ScenarioSpec(
        signal_eigenvalues=_parse_signals(args.signals),
        noise_variance=args.sigma2,
        n=grid[0][0],
        m=grid[0][1],
        beta=args.beta,
    )
    plan = ExperimentPlan(
        scenario=scenario,
        grid=grid,
        trials=args.trials,
        master_seed=args.seed,
        estimators=_parse_estimators(args.estimators),
    )
    out.write("n,m,estimator,k,probability,stderr\n")
    for summary in run_experiment(plan, workers=args.workers):
        side, trials = min(summary.n, summary.m), summary.trials
        p = np.array([summary.counts.get(k, 0) for k in range(side)]) / trials
        se = np.sqrt(p * (1.0 - p) / trials)
        prefix = f"{summary.n},{summary.m},{summary.estimator_id.value}"
        out.write("".join(
            f"{prefix},{k},{pk!r},{sk!r}\n" for k, (pk, sk) in enumerate(zip(p.tolist(), se.tolist()))
        ))
    return 0


def cmd_keff(args: argparse.Namespace, out: TextIO) -> int:
    spec = ScenarioSpec(
        signal_eigenvalues=_parse_signals(args.signals),
        noise_variance=args.sigma2,
        n=args.n,
        m=args.m,
    )
    threshold = detection_threshold(spec.noise_variance, spec.n / spec.m)
    print(f"threshold={threshold:g}, k_eff={effective_num_signals(spec)}", file=out)
    return 0


def cmd_limits(args: argparse.Namespace, out: TextIO) -> int:
    if args.c is not None:
        c = args.c
    elif args.n is not None and args.m is not None:
        if args.n < 1 or args.m < 1:
            raise ValueError(f"--n and --m must be >= 1, got n={args.n}, m={args.m}")
        c = args.n / args.m
    else:
        raise ValueError("provide either --c or both --n and --m")
    predictions = [spiked_limit(lam, args.sigma2, c) for lam in _parse_signals(args.signals)]
    edge = bulk_edge(args.sigma2, c)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lambda", "limit", "above_threshold", "bulk_edge"])
    for pred in predictions:
        writer.writerow(
            [repr(float(pred.population_eigenvalue)), repr(float(pred.limit)),
             str(pred.above_threshold).lower(), repr(float(edge))]
        )
    return 0


def cmd_clt_check(args: argparse.Namespace, out: TextIO) -> int:
    if args.trials < 1000:
        raise ValueError(f"clt-check needs at least 1000 trials, got {args.trials}")
    report = run_clt_check(args.n, args.m, args.beta, args.trials, args.seed)
    print(f"n={report.n} m={report.m} beta={report.beta} trials={report.trials}", file=out)
    print(f"empirical mean     : {report.empirical_mean.tolist()}", file=out)
    print(f"mean tolerance (4s): {report.mean_tolerance.tolist()}", file=out)
    print(f"empirical cov      : {report.empirical_cov.tolist()}", file=out)
    print(f"predicted cov      : {report.predicted_cov.tolist()}", file=out)
    print(f"mean check : {'pass' if report.mean_ok else 'FAIL'}", file=out)
    print(f"cov check  : {'pass' if report.cov_ok else 'FAIL'} (10% bands)", file=out)
    print("PASS" if report.passed else "FAIL", file=out)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--signals", default="", help="signal eigenvalues, e.g. '10,3'")
    parser.add_argument("--sigma2", type=float, default=1.0, help="noise variance (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigcount",
        description="Estimate the number of signals in white noise from sample covariance eigenvalues.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="run estimators on an eigenvalue or snapshot file")
    p_est.add_argument("input", help="input file (header: 'eigenvalues,...' or 'snapshots,...')")
    p_est.add_argument("--estimators", default="new,aic,mdl")
    p_est.add_argument("--verbose", action="store_true", help="append per-k criterion values")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo detection probabilities over an (n, m) grid")
    _add_scenario_flags(p_sim)
    p_sim.add_argument("--beta", type=int, default=1, choices=(1, 2),
                       help="field indicator: 1 real, 2 complex")
    p_sim.add_argument("--grid", required=True, help="grid points 'n1:m1,n2:m2,...'")
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--estimators", default="new,aic,mdl")
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes (results identical)")
    p_sim.set_defaults(func=cmd_simulate)

    p_keff = sub.add_parser("keff", help="effective number of detectable signals")
    _add_scenario_flags(p_keff)
    p_keff.add_argument("--n", type=int, required=True)
    p_keff.add_argument("--m", type=int, required=True)
    p_keff.set_defaults(func=cmd_keff)

    p_lim = sub.add_parser("limits", help="asymptotic sample-eigenvalue limits for given signals")
    _add_scenario_flags(p_lim)
    p_lim.add_argument("--c", type=float, default=None, help="aspect ratio n/m")
    p_lim.add_argument("--n", type=int, default=None)
    p_lim.add_argument("--m", type=int, default=None)
    p_lim.set_defaults(func=cmd_limits)

    p_clt = sub.add_parser("clt-check", help="empirical check of the noise-only moment CLT")
    p_clt.add_argument("--n", type=int, default=100)
    p_clt.add_argument("--m", type=int, default=200)
    p_clt.add_argument("--beta", type=int, default=1, choices=(1, 2))
    p_clt.add_argument("--trials", type=int, default=5000)
    p_clt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_clt.set_defaults(func=cmd_clt_check)

    for p in sub.choices.values():
        p.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only place errors become exit codes.

    The subcommand writes into a buffer that reaches ``--output`` (or
    standard output) only when it returns 0 or 1, so a failed run leaves an
    existing output file untouched.
    """
    args = build_parser().parse_args(argv)
    buffer = io.StringIO()
    try:
        code = args.func(args, buffer)
        if args.output is None:
            sys.stdout.write(buffer.getvalue())
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as f:
                f.write(buffer.getvalue())
    except OSError as exc:
        return _fail(str(exc), 2)
    except InputFormatError as exc:
        return _fail(f"{args.input}: {exc}", 2)
    # DomainError, NonFiniteInput, NegativeEigenvalue and UnsupportedField
    # are ValueErrors too.
    except (ValueError, ConvergenceFailure) as exc:
        return _fail(str(exc), 3)
    return code


if __name__ == "__main__":
    sys.exit(main())
