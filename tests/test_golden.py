"""Seeded CLI output pinned in golden files.

Each case runs ``sigcount.cli.main`` in-process and compares its standard
output with ``tests/golden/<name>.txt``. Integers, text, layout and infinities
must match exactly; other floats must match to a relative ``FLOAT_RTOL``,
because the BLAS thread count moves their last bits. A change that alters
seeded output on purpose regenerates every file with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from sigcount import ScenarioSpec, SeedPolicy, generate_snapshots, validate_spectrum
from sigcount.cli import main, write_eigenvalue_file, write_snapshot_file

GOLDEN = pathlib.Path(__file__).parent / "golden"

FLOAT_RTOL = 1e-12

SIMULATE = ["simulate", "--signals", "10,3", "--grid", "64:256,200:50", "--trials", "100", "--seed", "7"]

#: (golden file, argv); ``{...}`` names an input file that `write_inputs` makes.
CASES = [
    ("simulate", SIMULATE),
    ("simulate", SIMULATE + ["--workers", "2"]),
    ("simulate_beta2", ["simulate", "--beta", "2", "--signals", "10,3", "--grid", "32:64", "--trials", "100", "--seed", "7"]),
    ("clt_check_beta1", ["clt-check", "--n", "40", "--m", "80", "--trials", "1000", "--seed", "7"]),
    ("clt_check_beta2", ["clt-check", "--n", "40", "--m", "80", "--beta", "2", "--trials", "1000", "--seed", "7"]),
    ("estimate_eigenvalues", ["estimate", "--verbose", "{eigenvalues}"]),
    ("estimate_real_snapshots", ["estimate", "--verbose", "{real_snapshots}"]),
    ("estimate_complex_snapshots", ["estimate", "--verbose", "{complex_snapshots}"]),
    ("keff", ["keff", "--signals", "10,3,1.2", "--n", "100", "--m", "400"]),
    ("limits", ["limits", "--signals", "10,3,1.2", "--n", "100", "--m", "400"]),
]

# A number token: sign, digits, fraction, exponent, or inf/nan.
NUMBER = re.compile(r"(-?(?:inf|nan|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?))")


def write_inputs(directory: pathlib.Path) -> dict[str, str]:
    """The input files of the ``estimate`` cases, written into ``directory``.

    The eigenvalue file has m < n, so it holds exact zeros and the
    Wax-Kailath criteria are infinite; the snapshot files are seeded draws.
    """
    paths = {name: str(directory / f"{name}.txt") for name in ("eigenvalues", "real_snapshots", "complex_snapshots")}
    values = [9.5, 4.25, 2.1, 1.7, 1.3, 0.9, 0.6, 0.3] + [0.0] * 4
    write_eigenvalue_file(paths["eigenvalues"], validate_spectrum(np.array(values), 12, 8, 1))
    for name, beta in (("real_snapshots", 1), ("complex_snapshots", 2)):
        spec = ScenarioSpec((10.0, 3.0), 1.0, 16, 64, beta=beta)
        write_snapshot_file(paths[name], generate_snapshots(spec, SeedPolicy(7)))
    return paths


def run(argv: list[str], inputs: dict[str, str]) -> str:
    """Standard output of ``sigcount`` run in this process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.format(**inputs) for arg in argv])
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def assert_matches(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    assert len(got_lines) == len(want_lines), f"{len(got_lines)} lines, golden has {len(want_lines)}"
    for line_no, (got_line, want_line) in enumerate(zip(got_lines, want_lines), 1):
        got_parts, want_parts = NUMBER.split(got_line), NUMBER.split(want_line)
        # Odd indices hold numbers, even ones the text between them; a number
        # with a point or an exponent is a float, and inf and nan have neither.
        same = len(got_parts) == len(want_parts) and all(
            g == w or (
                i % 2 == 1 and re.search(r"[.eE]", w) is not None
                and math.isclose(float(g), float(w), rel_tol=FLOAT_RTOL, abs_tol=0.0)
            )
            for i, (g, w) in enumerate(zip(got_parts, want_parts))
        )
        assert same, f"line {line_no}:\n  got    {got_line!r}\n  golden {want_line!r}"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize(
    "name, argv", CASES, ids=[f"{name}{'-workers2' if '--workers' in argv else ''}" for name, argv in CASES]
)
def test_output_matches_golden(inputs, name, argv):
    assert_matches(run(argv, inputs), (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))


@pytest.mark.parametrize("got, want", [
    ("a,1,0.5\n", "a,1,0.5000000000001\n"),  # floats: relative 1e-12
    ("a,1,inf\n", "a,1,inf\n"),
])
def test_comparison_accepts(got, want):
    assert_matches(got, want)


@pytest.mark.parametrize("got, want", [
    ("a,1,0.5\n", "a,1,0.500000000001\n"),  # beyond 1e-12
    ("a,2,0.5\n", "a,1,0.5\n"),  # integers exactly
    ("a,1,inf\n", "a,1,1e308\n"),
    ("a,1,-inf\n", "a,1,inf\n"),
    ("a,1,nan\n", "a,1,0.0\n"),
    ("b,1,0.5\n", "a,1,0.5\n"),  # text exactly
    ("a,1, 0.5\n", "a,1,0.5\n"),  # layout exactly
    ("a,1,0.5\n", "a,1,0.5\na\n"),
])
def test_comparison_rejects(got, want):
    with pytest.raises(AssertionError):
        assert_matches(got, want)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        files = write_inputs(pathlib.Path(scratch))
        for name, argv in dict(reversed(CASES)).items():  # the first run of each file
            (GOLDEN / f"{name}.txt").write_text(run(argv, files), encoding="utf-8")
            print(f"wrote {GOLDEN / name}.txt", file=sys.stderr)
