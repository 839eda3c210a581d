import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sigcount import (
    ESTIMATORS,
    SampleSpectrum,
    ScenarioSpec,
    SeedPolicy,
    SnapshotMatrix,
    generate_snapshots,
    hermitian_eigenvalues,
    sample_covariance,
    snapshot_spectrum,
    validate_spectrum,
)
from sigcount.cli import (
    DEFAULT_SEED,
    InputFormatError,
    load_input_file,
    main,
    write_eigenvalue_file,
    write_snapshot_file,
)


def make_spectrum(seed=7, n=16, m=64, beta=1, signals=(10.0, 3.0)):
    spec = ScenarioSpec(tuple(signals), 1.0, n, m, beta=beta)
    snaps = generate_snapshots(spec, SeedPolicy(seed))
    eigs = hermitian_eigenvalues(sample_covariance(snaps))
    return snaps, validate_spectrum(eigs, n, m, beta)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestFileFormats:
    def test_eigenvalue_file_round_trip(self, tmp_path):
        _, spectrum = make_spectrum()
        path = str(tmp_path / "eigs.txt")
        write_eigenvalue_file(path, spectrum)
        loaded = load_input_file(path)
        assert isinstance(loaded, SampleSpectrum)
        np.testing.assert_array_equal(loaded.eigenvalues, spectrum.eigenvalues)
        assert (loaded.n, loaded.m, loaded.beta) == (16, 64, 1)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_snapshot_file_round_trip(self, tmp_path, beta):
        snaps, _ = make_spectrum(beta=beta)
        path = str(tmp_path / "snaps.txt")
        write_snapshot_file(path, snaps)
        loaded = load_input_file(path)
        assert isinstance(loaded, SnapshotMatrix)
        np.testing.assert_array_equal(loaded.data, snaps.data)

    def test_eigenvalues_accepted_in_any_order(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("eigenvalues,n=3,m=10,beta=1\n1.0\n3.0\n2.0\n")
        loaded = load_input_file(str(path))
        np.testing.assert_array_equal(loaded.eigenvalues, [3.0, 2.0, 1.0])

    def test_header_fields_accepted_in_any_order(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("eigenvalues,beta=1,m=10,n=2\n1.0\n2.0\n")
        loaded = load_input_file(str(path))
        assert (loaded.n, loaded.m) == (2, 10)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_text("eigenvalues,n=2,m=10,beta=1\n\n2.0\n\n1.0\n\n")
        loaded = load_input_file(str(path))
        np.testing.assert_array_equal(loaded.eigenvalues, [2.0, 1.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(InputFormatError, match="line 1"):
            load_input_file(str(path))

    def test_unknown_header_kind(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("spectra,n=2,m=10,beta=1\n1.0\n2.0\n")
        with pytest.raises(InputFormatError, match="line 1"):
            load_input_file(str(path))

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=2,m=10\n1.0\n2.0\n")
        with pytest.raises(InputFormatError, match="beta"):
            load_input_file(str(path))

    def test_non_integer_header_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=two,m=10,beta=1\n1.0\n2.0\n")
        with pytest.raises(InputFormatError, match="line 1"):
            load_input_file(str(path))

    def test_bad_value_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=3,m=10,beta=1\n1.0\nbogus\n2.0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_input_file(str(path))

    def test_wrong_eigenvalue_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=3,m=10,beta=1\n1.0\n2.0\n")
        with pytest.raises(InputFormatError, match="expected 3"):
            load_input_file(str(path))

    def test_wrong_snapshot_row_width(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("snapshots,n=2,m=3,beta=1\n1.0,2.0,3.0\n1.0,2.0\n")
        with pytest.raises(InputFormatError, match="line 3"):
            load_input_file(str(path))

    def test_bad_last_line_found_in_blocks(self, tmp_path, monkeypatch):
        # A bad line is searched for in blocks of rows; only the failing
        # block goes line by line, not the whole body.
        path = tmp_path / "eigs.txt"
        path.write_text("eigenvalues,n=20000,m=40000,beta=1\n" + "1.5\n" * 19999 + "bogus\n")
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        with pytest.raises(InputFormatError) as got:
            load_input_file(str(path))
        assert str(got.value) == "line 20001: could not parse 'bogus' as numbers"
        assert len(calls) < 5000  # 1 stream + 5 blocks + 3616 lines

    def test_non_utf8_byte_named_by_line(self, capsys, tmp_path):
        # Past the first 8 KB, where a decode error would report an offset
        # into the decoder's chunk rather than a line.
        path = tmp_path / "eigs.txt"
        path.write_bytes(b"eigenvalues,n=3001,m=4000,beta=1\n" + b"1.25\n" * 3000 + b"\xff2.0\n")
        code, out, err = run_cli(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if "error: " in line] == [
            f"error: {path}: line 3002: could not parse '\\udcff2.0' as numbers"
        ]

    def test_form_feed_ends_no_line_before_a_bad_one(self, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_bytes(b"eigenvalues,n=3,m=4,beta=1\n1.0\x0c\n2.0\nbogus\n")
        with pytest.raises(InputFormatError) as got:
            load_input_file(str(path))
        assert str(got.value) == "line 4: could not parse 'bogus' as numbers"

    def test_form_feed_inside_a_line_splits_no_values(self, capsys, tmp_path):
        path = tmp_path / "eigs.txt"
        path.write_bytes(b"eigenvalues,n=2,m=4,beta=1\n3.0\x0c1.0\n")
        code, out, err = run_cli(capsys, "estimate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 2: could not parse '3.0\\x0c1.0' as numbers\n"

    def test_form_feed_at_a_cell_edge_splits_no_row(self, tmp_path):
        path = tmp_path / "snaps.txt"
        path.write_bytes(b"snapshots,n=1,m=2,beta=1\n1.0\x0c,2.0\n")
        np.testing.assert_array_equal(load_input_file(str(path)).data, [[1.0, 2.0]])

    def test_complex_snapshot_interleaving(self, tmp_path):
        # beta=2 rows hold m (re, im) pairs.
        path = tmp_path / "snaps.txt"
        path.write_text("snapshots,n=1,m=2,beta=2\n1.0,2.0,3.0,-4.0\n")
        loaded = load_input_file(str(path))
        np.testing.assert_array_equal(loaded.data, [[1.0 + 2.0j, 3.0 - 4.0j]])


# Values at the edges of float64: signed zeros, subnormals, the largest
# finite magnitudes and the non-finite values.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, math.inf, -math.inf, math.nan]

# Spellings that both float() and loadtxt read, each as a function of the value.
CELL_FORMS = [
    repr,
    lambda v: format(v, ".17e"),
    lambda v: format(v, "g").upper(),
    lambda v: f"  {v!r}\t",
]


@st.composite
def input_files(draw):
    """(text, body_lines) of a valid eigenvalue or snapshot file.

    body_lines holds the index into the file's lines of each non-blank body
    line. Blank and whitespace-only lines fall anywhere after the header.
    """
    kind = draw(st.sampled_from(["eigenvalues", "snapshots"]))
    n, m, beta = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.sampled_from([1, 2]))
    width = 1 if kind == "eigenvalues" else m * beta
    drawn = st.floats(min_value=0.0) if kind == "eigenvalues" else st.floats()
    values = st.one_of(st.sampled_from(EDGE_VALUES), drawn)
    lines, body_lines = [f"{kind},n={n},m={m},beta={beta}"], []
    for _ in range(n):
        lines += draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=2))
        cells = draw(st.lists(values, min_size=width, max_size=width))
        form = draw(st.sampled_from(CELL_FORMS))
        body_lines.append(len(lines))
        lines.append(",".join(form(v) for v in cells))
    lines += draw(st.lists(st.sampled_from(["", " "]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, body_lines


# Characters that str.splitlines cuts at and an input file's lines do not
# end at: whitespace at a cell's edge, an error inside a cell.
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Where one goes in a file: (template, the line named, or None when the file
# loads bit-identically to the template without it).
SPLITLINES_ONLY_PLACED = {
    "inside a cell": ("snapshots,n=2,m=2,beta=1\n-0.0,5e-324\n-4,3{mark}e0\n", 3),
    "cell edge": ("snapshots,n=2,m=2,beta=1\n{mark}-0.0,5e-324{mark}\n-4 {mark},{mark}3e0\n", None),
    "blank line": ("snapshots,n=2,m=2,beta=1\n-0.0,5e-324\n{mark}\n \t{mark} \n-4,3e0\n", None),
    "header": ("snapshots{mark},n=2,{mark}m=2 {mark},beta=1{mark}\n-0.0,5e-324\n-4,3e0\n", None),
}

CORRUPTIONS = {
    "bad cell": lambda line: "x1," + line,
    "empty cell": lambda line: line + ", ,1.0",
    "trailing comma": lambda line: line + ",",
    "short row": lambda line: line.rpartition(",")[0],
    "long row": lambda line: line + ",1.0",
    "comment mark": lambda line: line + "#",
}


def load_outcome(loader, path):
    """What a loader makes of a file: its result's bits, or its error."""
    try:
        got = loader(path)
    except Exception as exc:
        return type(exc), str(exc)
    data = got.eigenvalues if isinstance(got, SampleSpectrum) else got.data
    return type(got), (got.n, got.m, got.beta), data.dtype, data.shape, data.tobytes()


class TestLoaderMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=input_files())
    def test_valid_files_load_bit_identically(self, tmp_path_factory, case):
        text, _ = case
        path = tmp_path_factory.mktemp("valid") / "input.txt"
        path.write_bytes(text.encode())
        want = load_outcome(oracle.reference_load, str(path))
        assert load_outcome(load_input_file, str(path)) == want
        # Negative or non-finite eigenvalues fail validation in both.
        assert want[0] is not InputFormatError

    @settings(max_examples=200, deadline=None)
    @given(case=input_files(), corruption=st.sampled_from(sorted(CORRUPTIONS)), data=st.data())
    def test_corrupt_files_fail_on_the_oracle_line(self, tmp_path_factory, case, corruption, data):
        text, body_lines = case
        newline = "\r\n" if text.endswith("\r\n") else "\n"
        lines = text.split(newline)
        target = data.draw(st.sampled_from(body_lines))
        lines[target] = CORRUPTIONS[corruption](lines[target])
        path = tmp_path_factory.mktemp("corrupt") / "input.txt"
        path.write_bytes(newline.join(lines).encode())
        with pytest.raises(InputFormatError) as want:
            oracle.reference_load(str(path))
        with pytest.raises(InputFormatError) as got:
            load_input_file(str(path))
        assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))

    @pytest.mark.parametrize("place", sorted(SPLITLINES_ONLY_PLACED))
    @pytest.mark.parametrize("mark", SPLITLINES_ONLY, ids=ascii)
    def test_splitlines_only_characters_end_no_line(self, capsys, tmp_path, mark, place):
        template, bad_line = SPLITLINES_ONLY_PLACED[place]
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(template.format(mark="").encode())
        marked.write_bytes(template.format(mark=mark).encode())
        got = load_outcome(load_input_file, str(marked))
        assert got == load_outcome(oracle.reference_load, str(marked))
        if bad_line is None:
            assert got == load_outcome(load_input_file, str(plain))
            return
        code, out, err = run_cli(capsys, "estimate", str(marked))
        assert (code, out) == (2, "")
        assert err == f"error: {marked}: line {bad_line}: could not parse {'-4,3' + mark + 'e0'!r} as numbers\n"

    @pytest.fixture(scope="class")
    def snapshot_file(self, tmp_path_factory):
        n, m = 256, 1024
        path = str(tmp_path_factory.mktemp("memory") / "snaps.txt")
        write_snapshot_file(path, SnapshotMatrix(np.random.default_rng(7).standard_normal((n, m)), n, m, 1))
        return path

    @pytest.mark.parametrize("spectrum", [False, True], ids=["load", "load_and_spectrum"])
    def test_peak_memory_below_one_and_a_half_arrays(self, snapshot_file, spectrum):
        # loadtxt fills one array, which the SnapshotMatrix keeps without a
        # copy (a copy makes 2.0x); the eigensolve's product buffer stays
        # below the loader's own peak.
        tracemalloc.start()
        try:
            loaded = load_input_file(snapshot_file)
            if spectrum:
                snapshot_spectrum(loaded)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * loaded.data.nbytes

    @pytest.mark.parametrize("beta", [1, 2])
    def test_loaded_snapshots_have_no_writable_alias(self, tmp_path, beta):
        snaps, _ = make_spectrum(n=4, m=3, beta=beta, signals=(10.0,))
        path = str(tmp_path / "snaps.txt")
        write_snapshot_file(path, snaps)
        data = load_input_file(path).data
        np.testing.assert_array_equal(data, snaps.data)
        assert data.dtype == snaps.data.dtype
        while isinstance(data, np.ndarray):  # the complex view, then the float array it views
            assert not data.flags.writeable
            data = data.base

    # Rows 2-4097, 4098-8193 and 8194-9001 make the blocks that a bad line
    # is searched in; each edge is hit from both sides.
    @pytest.mark.parametrize("bad_line", [2, 4096, 4097, 4098, 8193, 9001])
    @pytest.mark.parametrize("corruption", ["bad cell", "long row"])
    def test_bad_line_at_block_edges_matches_the_oracle(self, tmp_path, bad_line, corruption):
        lines = ["eigenvalues,n=9000,m=9000,beta=1"] + ["1.5"] * 9000 + ["", "  "]
        lines[bad_line - 1] = CORRUPTIONS[corruption](lines[bad_line - 1])
        path = tmp_path / "eigs.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputFormatError) as want:
            oracle.reference_load(str(path))
        with pytest.raises(InputFormatError) as got:
            load_input_file(str(path))
        assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
        assert got.value.line == bad_line

    def test_row_count_reported_before_a_bad_cell(self, tmp_path):
        path = tmp_path / "snaps.txt"
        path.write_text("snapshots,n=3,m=2,beta=1\n1.0,2.0\nx1,2.0\n\n")
        with pytest.raises(InputFormatError) as want:
            oracle.reference_load(str(path))
        with pytest.raises(InputFormatError) as got:
            load_input_file(str(path))
        assert (got.value.line, str(got.value)) == (want.value.line, str(want.value))
        assert str(got.value) == "line 4: expected 3 snapshot rows, file holds 2"

    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "\uff11.5"])
    def test_python_only_number_forms_rejected(self, tmp_path, cell):
        # float() reads these; the file format does not.
        path = tmp_path / "eigs.txt"
        path.write_text(f"eigenvalues,n=2,m=10,beta=1\n1.0\n{cell}\n", encoding="utf-8")
        assert isinstance(oracle.reference_load(str(path)), SampleSpectrum)
        with pytest.raises(InputFormatError, match="line 3"):
            load_input_file(str(path))

    @settings(max_examples=100, deadline=None)
    @given(
        beta=st.sampled_from([1, 2]),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        # Text keeps neither the sign nor the payload of a NaN, so the only
        # NaN drawn is EDGE_VALUES' canonical one.
        values=st.lists(
            st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False)), min_size=32, max_size=32
        ),
    )
    def test_written_snapshot_files_load_bit_identically(self, tmp_path_factory, beta, shape, values):
        n, m = shape
        parts = np.array(values[: n * m * beta]).reshape(n, m * beta)
        data = parts.view(np.complex128) if beta == 2 else parts
        path = str(tmp_path_factory.mktemp("written") / "snaps.txt")
        write_snapshot_file(path, SnapshotMatrix(data, n, m, beta))
        loaded = load_input_file(path)
        assert loaded.data.dtype == data.dtype
        assert loaded.data.tobytes() == data.tobytes()


class TestEstimateCommand:
    def test_runs_all_estimators_by_default(self, capsys, tmp_path):
        _, spectrum = make_spectrum()
        path = str(tmp_path / "eigs.txt")
        write_eigenvalue_file(path, spectrum)
        code, out, _ = run_cli(capsys, "estimate", path)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["estimator_id", "k_hat"]
        assert [r[0] for r in rows] == ["NEW_RMT_AIC", "WK_AIC", "WK_MDL"]

    def test_matches_in_process_results(self, capsys, tmp_path):
        snaps, spectrum = make_spectrum(seed=21)
        path = str(tmp_path / "snaps.txt")
        write_snapshot_file(path, snaps)
        code, out, _ = run_cli(capsys, "estimate", path)
        assert code == 0
        _, rows = parse_csv(out)
        want = {str(est): fn(spectrum).k_hat for est, fn in ESTIMATORS.items()}
        assert {r[0]: int(r[1]) for r in rows} == want

    def test_estimator_subset(self, capsys, tmp_path):
        _, spectrum = make_spectrum()
        path = str(tmp_path / "eigs.txt")
        write_eigenvalue_file(path, spectrum)
        code, out, _ = run_cli(capsys, "estimate", path, "--estimators", "mdl")
        _, rows = parse_csv(out)
        assert code == 0
        assert len(rows) == 1
        assert rows[0][0] == "WK_MDL"

    def test_verbose_appends_criterion_columns(self, capsys, tmp_path):
        _, spectrum = make_spectrum(n=6, m=12)
        path = str(tmp_path / "eigs.txt")
        write_eigenvalue_file(path, spectrum)
        code, out, _ = run_cli(capsys, "estimate", path, "--verbose")
        header, rows = parse_csv(out)
        assert code == 0
        assert header == ["estimator_id", "k_hat"] + [f"crit_k{k}" for k in range(6)]
        for row in rows:
            values = [float(v) for v in row[2:]]
            best = int(row[1])
            assert values[best] == min(values)

    def test_output_flag_writes_file(self, capsys, tmp_path):
        _, spectrum = make_spectrum()
        src = str(tmp_path / "eigs.txt")
        dst = tmp_path / "out.csv"
        write_eigenvalue_file(src, spectrum)
        code, out, _ = run_cli(capsys, "estimate", src, "--output", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text().startswith("estimator_id,k_hat")

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error" in err

    def test_malformed_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=2,m=10,beta=1\n1.0\nnope\n")
        code, _, err = run_cli(capsys, "estimate", str(path))
        assert code == 2
        assert "line 3" in err

    def test_negative_eigenvalue_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=2,m=10,beta=1\n1.0\n-5.0\n")
        code, _, err = run_cli(capsys, "estimate", str(path))
        assert code == 3
        assert "error" in err

    def test_unsupported_beta_is_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("eigenvalues,n=2,m=10,beta=3\n1.0\n2.0\n")
        code, _, _ = run_cli(capsys, "estimate", str(path))
        assert code == 3

    def test_unknown_estimator_is_exit_3(self, capsys, tmp_path):
        _, spectrum = make_spectrum()
        path = str(tmp_path / "eigs.txt")
        write_eigenvalue_file(path, spectrum)
        code, _, err = run_cli(capsys, "estimate", path, "--estimators", "wavelet")
        assert code == 3
        assert "wavelet" in err


class TestSimulateCommand:
    def test_csv_schema_and_distribution(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--signals", "10", "--grid", "8:32",
            "--trials", "25", "--seed", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "m", "estimator", "k", "probability", "stderr"]
        assert len(rows) == 3 * 8  # three estimators, k in [0, min(8, 32))
        by_est = {}
        for n, m, est, k, p, se in rows:
            assert (n, m) == ("8", "32")
            by_est.setdefault(est, []).append(float(p))
            assert 0.0 <= float(se) <= 0.5
        for probs in by_est.values():
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        args = [
            "simulate", "--signals", "10,3", "--grid", "12:48,10:5",
            "--trials", "20", "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--output", str(a))[0] == 0
        assert run_cli(capsys, *args, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invariance(self, capsys, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "wN.csv"
        # The second pair has more workers than trials.
        for trials, workers in (("15", "2"), ("3", "5")):
            args = [
                "simulate", "--signals", "8", "--grid", "10:40,8:4",
                "--trials", trials, "--seed", "2",
            ]
            assert run_cli(capsys, *args, "--workers", "1", "--output", str(a))[0] == 0
            assert run_cli(capsys, *args, "--workers", workers, "--output", str(b))[0] == 0
            assert a.read_bytes() == b.read_bytes()

    def test_default_seed_is_fixed(self, capsys):
        args = ["simulate", "--signals", "6", "--grid", "6:24", "--trials", "10"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_grid_is_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--signals", "10", "--grid", "64x256", "--trials", "5"
        )
        assert code == 3
        assert "error" in err

    def test_empty_grid_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--signals", "10", "--grid", ",", "--trials", "5"
        )
        assert code == 3

    def test_signal_below_noise_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--signals", "0.5", "--grid", "8:32", "--trials", "5"
        )
        assert code == 3

    def test_nonpositive_trials_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--signals", "10", "--grid", "8:32", "--trials", "0"
        )
        assert code == 3

    def test_huge_noise_variance_runs_clean(self, capsys):
        # The covariance entries (~1e200) are finite, but their squares are not.
        code, out, err = run_cli(
            capsys, "simulate", "--grid", "4:8", "--sigma2", "1e200", "--trials", "2"
        )
        assert code == 0
        assert out.startswith("n,m,estimator,")
        assert err == ""

    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "-1"), ("--seed", str(2**64)), ("--workers", "0")],
        ids=["negative_seed", "seed_above_64_bits", "zero_workers"],
    )
    def test_invalid_seed_or_workers_is_exit_3(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "simulate", "--signals", "10", "--grid", "8:32", "--trials", "5",
            flag, value,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestKeffCommand:
    def test_oversampled(self, capsys):
        code, out, _ = run_cli(
            capsys, "keff", "--signals", "10,3", "--n", "64", "--m", "256"
        )
        assert code == 0
        assert out.strip() == "threshold=1.5, k_eff=2"

    def test_undersampled(self, capsys):
        code, out, _ = run_cli(
            capsys, "keff", "--signals", "10,3", "--n", "64", "--m", "16"
        )
        assert code == 0
        assert out.strip() == "threshold=3, k_eff=1"

    def test_invalid_scenario_is_exit_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "keff", "--signals", "0.5", "--n", "64", "--m", "16"
        )
        assert code == 3


class TestLimitsCommand:
    def test_values_and_flags(self, capsys):
        code, out, _ = run_cli(capsys, "limits", "--signals", "10,3", "--c", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "limit", "above_threshold", "bulk_edge"]
        assert [r[0] for r in rows] == ["10.0", "3.0"]
        np.testing.assert_allclose(float(rows[0][1]), 130.0 / 9.0)
        assert rows[0][2] == "true"
        assert float(rows[1][1]) == 9.0
        assert rows[1][2] == "false"
        assert all(float(r[3]) == 9.0 for r in rows)

    def test_n_m_equivalent_to_c(self, capsys):
        _, via_c, _ = run_cli(capsys, "limits", "--signals", "10", "--c", "0.25")
        _, via_nm, _ = run_cli(capsys, "limits", "--signals", "10", "--n", "64", "--m", "256")
        assert via_c == via_nm

    def test_missing_shape_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "limits", "--signals", "10")
        assert code == 3
        assert "--c" in err

    def test_signal_below_noise_floor_is_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "limits", "--signals", "0.5", "--c", "1")
        assert code == 3


class TestCltCheckCommand:
    def test_too_few_trials_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "clt-check", "--trials", "100")
        assert code == 3
        assert "1000" in err

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "clt-check", "--n", "50", "--m", "100",
            "--trials", "1000", "--seed", "3",
        )
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_invalid_beta_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["clt-check", "--beta", "4"])
        assert excinfo.value.code == 2


# Every failing invocation: its exit code, nothing on stdout, one error line on
# stderr and an existing --output file left as it was. {missing} names a file
# in a directory that does not exist, so it cannot be written.
CONTRACT = [
    (("estimate", "{eigs}", "--output", "{missing}"), 2),
    (("simulate", "--grid", "4:8", "--trials", "2", "--output", "{missing}"), 2),
    (("keff", "--n", "4", "--m", "8", "--output", "{missing}"), 2),
    (("limits", "--c", "1", "--output", "{missing}"), 2),
    (("clt-check", "--n", "4", "--m", "8", "--trials", "1000", "--output", "{missing}"), 2),
    (("estimate", "{not_utf8}"), 2),
    (("estimate", "{duplicate_field}"), 2),
    (("estimate", "{unknown_field}"), 2),
    (("estimate", "{underscore_header}"), 2),
    (("estimate", "{non_ascii_header}"), 2),
    (("estimate", "{huge}"), 3),
    (("estimate", "{inf_part}"), 3),
    (("estimate", "{no_rows}"), 3),
    (("estimate", "{negative_n}"), 3),
    (("estimate", "{zero_n}"), 3),
    (("estimate", "{zero_n_no_body}"), 3),
    (("estimate", "{zero_m}"), 3),
    (("estimate", "{quaternion_snapshots}"), 3),
    (("estimate", "{quaternion_snapshots_wide}"), 3),
    (("estimate", "{beta_3}"), 3),
    (("estimate", "{eigs}", "--estimators", "wavelet"), 3),
    # The estimator list is checked before the file is read.
    (("estimate", "{malformed}", "--estimators", "bogus"), 3),
    (("estimate", "{no_body}"), 2),
    (("simulate", "--grid", "4:8", "--sigma2", "1e308", "--trials", "2"), 3),
    (("simulate", "--grid", "8:32", "--trials", "0"), 3),
    (("simulate", "--grid", "4:8", "--trials", "2", "--beta", "4"), 2),
    (("keff", "--n", "4", "--m", "8", "--sigma2", "nan"), 3),
    (("keff", "--n", "4", "--m", "8", "--beta", "2"), 2),
    (("limits", "--c", "nan"), 3),
    (("limits", "--c", "inf"), 3),
    (("limits", "--sigma2", "nan", "--c", "1"), 3),
    (("limits", "--n", "5", "--m", "0"), 3),
    (("limits", "--c", "1", "--beta", "2"), 2),
    (("clt-check", "--n", "0", "--trials", "1000"), 3),
]


@pytest.mark.parametrize("argv,code", CONTRACT, ids=[" ".join(a) for a, _ in CONTRACT])
def test_exit_code_contract(capsys, tmp_path, argv, code):
    snaps, spectrum = make_spectrum()
    texts = {
        "not_utf8": b"eigenvalues,n=2,m=10,beta=1\n1.0\n\xff2.0\n",
        "duplicate_field": b"eigenvalues,n=3,m=10,beta=1,n=2\n1.0\n2.0\n",
        "unknown_field": b"eigenvalues,n=2,m=10,beta=1,bogus=7\n1.0\n2.0\n",
        "inf_part": b"snapshots,n=1,m=2,beta=2\n1,2,3,inf\n",
        "no_rows": b"snapshots,n=0,m=3,beta=1\n",
        # Header values are checked before the body, which here would
        # otherwise fail to parse (exit 2).
        "negative_n": b"eigenvalues,n=-1,m=3,beta=1\n",
        "zero_n": b"eigenvalues,n=0,m=3,beta=1\n1.0\n",
        "zero_n_no_body": b"eigenvalues,n=0,m=3,beta=1\n",
        "zero_m": b"snapshots,n=1,m=0,beta=1\n1\n",
        "quaternion_snapshots": b"snapshots,n=1,m=2,beta=4\n1,2\n",
        "quaternion_snapshots_wide": b"snapshots,n=1,m=2,beta=4\n1,2,3,4\n",
        "beta_3": b"eigenvalues,n=2,m=10,beta=3\n1.0\n2.0\n",
        "underscore_header": b"eigenvalues,n=0_2,m=1_0,beta=1\n1.0\n2.0\n",
        "non_ascii_header": "eigenvalues,n=\uff12,m=10,beta=1\n1.0\n2.0\n".encode(),
        "malformed": b"eigenvalues,n=2,m=10,beta=1\n1.0\nnope\n",
        # loadtxt warns on empty input.
        "no_body": b"snapshots,n=2,m=3,beta=1\n",
    }
    files = {name: str(tmp_path / f"{name}.txt") for name in ("eigs", "huge", *texts)}
    files["missing"] = str(tmp_path / "missing" / "out.csv")
    write_eigenvalue_file(files["eigs"], spectrum)
    # Finite in the file, but the covariance overflows to inf.
    write_snapshot_file(files["huge"], SnapshotMatrix(snaps.data * 1e160, 16, 64, 1))
    for name, text in texts.items():
        with open(files[name], "wb") as f:
            f.write(text)
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"earlier output\n")
    argv = [arg.format(**files) for arg in argv]
    if "--output" not in argv:
        argv += ["--output", str(existing)]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse rejects a bad argv this way
            got = exc.code
    out, err = capsys.readouterr()

    assert got == code
    assert [str(w.message) for w in caught] == []
    assert out == ""
    assert [line for line in err.splitlines() if "error: " in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err
    assert existing.read_bytes() == b"earlier output\n"
    assert not (tmp_path / "missing").exists()


def test_missing_subcommand_is_parser_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
