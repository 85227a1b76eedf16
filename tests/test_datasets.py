import csv
import io
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (reference_csv_text, reference_load_csv_windows,
                      traced_peak)
from prismflow import datasets
from prismflow.datasets import (Dataset, DiagnosticSpec,
                                gen_bimodal_frequency, gen_sines,
                                gen_velocity_mixture_diagnostic,
                                load_csv_windows, normalize, save_csv_windows,
                                velocity_energy_gap)
from prismflow.errors import (ConfigError, ContractViolation, ParseError)
from prismflow.numcore import RngStream
from prismflow.sampler import export_samples


class TestGenSines:
    def test_shape_and_range(self):
        ds = gen_sines(10, 24, 3)
        assert ds.windows.shape == (10, 24, 3)
        assert ds.windows.min() >= -1.0 and ds.windows.max() <= 1.0
        assert ds.labels is None

    def test_reproducible(self):
        a = gen_sines(4, 8, 1, rng=RngStream(3))
        b = gen_sines(4, 8, 1, rng=RngStream(3))
        np.testing.assert_array_equal(a.windows, b.windows)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            gen_sines(0, 8, 1)


class TestGenBimodalFrequency:
    def test_each_window_is_a_pure_tone_at_its_label(self):
        ds = gen_bimodal_frequency(50, 64, 1, 2, 8, RngStream(1))
        spec = np.abs(np.fft.rfft(ds.windows[:, :, 0], axis=1)) ** 2
        peak = spec.argmax(axis=1)
        np.testing.assert_array_equal(peak, np.where(ds.labels == 0, 2, 8))
        # a pure tone has all energy in its own bin
        total = spec.sum(axis=1)
        top = spec[np.arange(50), peak]
        np.testing.assert_allclose(top / total, 1.0, atol=1e-12)

    def test_both_regimes_present(self):
        ds = gen_bimodal_frequency(200, 64, 1, 2, 8, RngStream(0))
        assert 0 < ds.labels.sum() < 200

    def test_aliased_frequency_rejected(self):
        with pytest.raises(ConfigError):
            gen_bimodal_frequency(10, 16, 1, 2, 8)
        with pytest.raises(ConfigError):
            gen_bimodal_frequency(10, 64, 1, 4, 4)


class TestVelocityDiagnostic:
    def test_velocity_is_exactly_two_valued(self):
        spec = DiagnosticSpec(separation=2.0, n=100)
        x0, x1, signs = gen_velocity_mixture_diagnostic(spec, RngStream(2))
        u = x1 - x0
        expected = np.broadcast_to(signs[:, None, None] * 2.0, u.shape)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_energy_gap_oracle(self):
        # mean ||u||^2 is exactly c^2; the squared mean vanishes with n
        spec = DiagnosticSpec(separation=2.0, n=5000)
        x0, x1, _ = gen_velocity_mixture_diagnostic(spec, RngStream(0))
        mean_sq, sq_mean = velocity_energy_gap(x0, x1)
        assert mean_sq == pytest.approx(4.0, abs=1e-12)
        assert sq_mean <= mean_sq
        assert mean_sq - sq_mean == pytest.approx(4.0, abs=0.2)

    def test_bad_weights(self):
        with pytest.raises(ConfigError):
            DiagnosticSpec(weights=(0.7, 0.7))


class TestCsvRoundTrip:
    def test_blocks_round_trip(self, tmp_path):
        w = RngStream(5).generator().standard_normal((3, 6, 2))
        path = str(tmp_path / "w.csv")
        save_csv_windows(w, path)
        back = load_csv_windows(path, seq_len=6, mode="blocks")
        np.testing.assert_array_equal(back.windows, w)

    def test_sliding_window_count(self, tmp_path):
        path = str(tmp_path / "long.csv")
        save_csv_windows(np.arange(10.0).reshape(1, 10, 1), path)
        ds = load_csv_windows(path, seq_len=4, stride=2)
        assert ds.windows.shape == (4, 4, 1)
        np.testing.assert_array_equal(ds.windows[1, :, 0], [2, 3, 4, 5])

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError, match=r"3: column 2"):
            load_csv_windows(str(path), seq_len=2, mode="blocks")
        # a quoted cell over two lines, in the header or in a data row,
        # moves every later row down a line
        for text, where in [('"a\nb"\n1\nx\n', ":4: column 1"),
                            ('a,b\n"1\n",2\n3,4\n5,x\n', ":5: column 2")]:
            path.write_text(text)
            with pytest.raises(ParseError, match=where):
                load_csv_windows(str(path), mode="blocks")

    def test_ragged_cells_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="expected 2 cells"):
            load_csv_windows(str(path), seq_len=2, mode="blocks")

    def test_mixed_block_lengths_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a\n1.0\n2.0\n\n3.0\n")
        with pytest.raises(ParseError, match="mixed lengths"):
            load_csv_windows(str(path), mode="blocks")

    def test_missing_file(self):
        with pytest.raises(ContractViolation):
            load_csv_windows("/does/not/exist.csv", seq_len=4)

    def test_too_short_for_window(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a\n1.0\n2.0\n")
        with pytest.raises(ContractViolation):
            load_csv_windows(str(path), seq_len=5)


def outcome(load, path, **kwargs):
    """What a reader makes of a file: the windows' shape and bytes, or the
    error's type and message."""
    try:
        w = load(path, **kwargs).windows
    except (ParseError, ContractViolation, ConfigError) as exc:
        return type(exc).__name__, str(exc)
    return w.dtype, w.shape, w.tobytes()


SPECIAL = [0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308,
           -1e308, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 1 / 3]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def window_arrays(draw):
    n = draw(st.integers(1, 4))
    s = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    flat = draw(st.lists(VALUES, min_size=n * s * d, max_size=n * s * d))
    return np.array(flat, dtype=np.float64).reshape(n, s, d)


# cells as people write them: plain, padded, signed, integer, exponent,
# spelled-out non-finite; any of them may be quoted on one line
NUMERIC_CELLS = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.sampled_from([" 1.5", "2 ", "\t-3", "+4", "7", "1e-3", "1E3", "nan",
                     "-inf", "Infinity", "1_0"]))
BAD_CELLS = st.sampled_from(["abc", "", " ", " x ", "\t", "1.0x", "--1",
                             "\u00b5s"])
SEPARATORS = st.sampled_from(["", ",", " ", " , ,", ",,", "\t"])


@st.composite
def csv_texts(draw):
    """A header and blocks of rows, some ragged or with a bad cell, with
    blank-ish separator lines; half of the files quote some cells, and
    their channel names and quoted cells may hold a comma or a newline (a
    quoted field over two lines, and so over two pieces at a slice of a
    few bytes)."""
    quoted = draw(st.booleans())
    d = draw(st.integers(1, 3))
    choices = ["a", "b c", "\u00e9"] + (["x,y", "l1\nl2"] if quoted else [])
    names = draw(st.lists(st.sampled_from(choices),
                          min_size=d, max_size=d))
    head = io.StringIO()
    csv.writer(head, lineterminator="").writerow(names)
    lines = [head.getvalue()]
    block = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 5))):  # blocks
        for _ in range(block + draw(st.sampled_from([0, 0, 0, 1]))):
            cells = draw(st.lists(NUMERIC_CELLS, min_size=d, max_size=d))
            fault = draw(st.sampled_from([None] * 8 + ["ragged", "cell"]))
            if fault == "ragged":
                cells = cells + ["1.0"] if draw(st.booleans()) else cells[:-1]
            elif fault == "cell":
                cells[draw(st.integers(0, d - 1))] = draw(BAD_CELLS)
            if quoted:  # a quoted cell may end in a newline: two lines
                cells = [draw(st.sampled_from(['{}', '"{}"', '"{}\n"']))
                         .format(c) for c in cells]
            lines.append(",".join(cells))
        lines.extend(draw(st.lists(SEPARATORS, min_size=1, max_size=2)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestCsvMatchesReference:
    """The bulk reader and writer against the row-by-row reference
    versions in conftest, at the real slice size and at tiny ones that put
    slice boundaries inside every file."""

    @settings(max_examples=40, deadline=None)
    @given(windows=window_arrays(), slice_lines=st.sampled_from([1, 2, 5, 8192]))
    def test_writer_bytes_and_read_back(self, tmp_path_factory, windows,
                                        slice_lines):
        path = str(tmp_path_factory.mktemp("csv") / "w.csv")
        with mock.patch.multiple(datasets, _SLICE_LINES=slice_lines,
                                 _SLICE_BYTES=slice_lines):
            save_csv_windows(windows, path)
            with open(path, "rb") as fh:
                assert fh.read() == reference_csv_text(windows).encode()
            back = load_csv_windows(path, mode="blocks").windows
        want = reference_load_csv_windows(path, mode="blocks").windows
        assert back.tobytes() == want.tobytes() and back.shape == want.shape
        keep = ~np.isnan(windows)
        assert back[keep].tobytes() == windows[keep].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(text=csv_texts(), slice_lines=st.sampled_from([1, 2, 3, 8192]),
           seq_len=st.integers(1, 4), stride=st.integers(1, 3))
    def test_parsed_text(self, tmp_path_factory, text, slice_lines, seq_len,
                         stride):
        path = str(tmp_path_factory.mktemp("csv") / "t.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        for kwargs in ({"mode": "blocks"},
                       {"mode": "sliding", "seq_len": seq_len,
                        "stride": stride}):
            with mock.patch.multiple(datasets, _SLICE_LINES=slice_lines,
                                 _SLICE_BYTES=slice_lines):
                got = outcome(load_csv_windows, path, **kwargs)
            assert got == outcome(reference_load_csv_windows, path, **kwargs)

    def test_window_longer_than_a_slice(self, tmp_path):
        windows = RngStream(9).generator().standard_normal(
            (2, datasets._SLICE_LINES + 3, 2))
        path = str(tmp_path / "long.csv")
        save_csv_windows(windows, path)
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv_text(windows).encode()
        for kwargs in ({"mode": "blocks"},
                       {"mode": "sliding", "seq_len": 100, "stride": 37}):
            assert (outcome(load_csv_windows, path, **kwargs)
                    == outcome(reference_load_csv_windows, path, **kwargs))


# fields made only of the numeric alphabet (digits, signs, '.', 'e', 'E'):
# floats as repr and %.17g write them and hand-picked good ones; the bad
# ones are hand-picked or random strings of the alphabet, most of which
# float() rejects
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
NUMERIC_FIELDS = st.one_of(
    FINITE.map(repr), FINITE.map("%.17g".__mod__),
    st.sampled_from(["0", "-0", "+1", "1.", ".5", "+.5e+2", "1E-3", "007",
                     "1e400", "-1e-400"]))
BAD_FIELDS = st.one_of(
    st.sampled_from(["1e", "--1", ".", "+", "-", "e", "1-2", "1e+", "1.2.3"]),
    st.text(alphabet="0123456789+-.eE", min_size=1, max_size=6))


@st.composite
def numeric_texts(draw):
    """A header and lines of the numeric alphabet only: rows of D fields,
    some with a bad or empty cell or a cell too many or too few,
    comma-only lines, empty lines between blocks, at the start and at the
    end, and maybe no final newline."""
    d = draw(st.integers(1, 3))
    lines = [",".join(f"c{i}" for i in range(d))]
    lines += [""] * draw(st.integers(0, 2))
    block = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(1, 5))):  # blocks
        for _ in range(block + draw(st.sampled_from([0, 0, 0, 1]))):
            cells = draw(st.lists(NUMERIC_FIELDS, min_size=d, max_size=d))
            fault = draw(st.sampled_from([None] * 24 + [
                "bad", "empty", "ragged", "commas"]))
            if fault == "bad":
                cells[draw(st.integers(0, d - 1))] = draw(BAD_FIELDS)
            elif fault == "empty":
                cells[draw(st.integers(0, d - 1))] = ""
            elif fault == "ragged":
                cells = cells + ["1"] if draw(st.booleans()) else cells[:-1]
            elif fault == "commas":
                cells = [""] * draw(st.integers(1, 3))
            lines.append(",".join(cells))
        lines += [""] * draw(st.integers(1, 2))
    lines += [""] * draw(st.integers(0, 2))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestNumericCsv:
    """Files of the numeric alphabet, which numpy's C reader parses once
    their body is longer than one piece: the same windows and the same
    errors as the row-by-row reference."""

    @settings(max_examples=150, deadline=None)
    @given(text=numeric_texts(),
           slice_bytes=st.sampled_from([1, 2, 3, 1 << 16]),
           seq_len=st.integers(1, 4), stride=st.integers(1, 3))
    def test_matches_reference(self, tmp_path_factory, text, slice_bytes,
                               seq_len, stride):
        path = str(tmp_path_factory.mktemp("csv") / "n.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        for kwargs in ({"mode": "blocks"},
                       {"mode": "sliding", "seq_len": seq_len,
                        "stride": stride}):
            with mock.patch.object(datasets, "_SLICE_BYTES", slice_bytes):
                got = outcome(load_csv_windows, path, **kwargs)
            assert got == outcome(reference_load_csv_windows, path, **kwargs)

    @staticmethod
    def python_float_raises():
        """Make the Python path's float conversion fail, so that a file
        loads only when it took numpy's C reader."""
        return mock.patch.object(
            datasets, "float", create=True,
            side_effect=AssertionError("parsed cell by cell"))

    def test_bench_sized_file_takes_the_c_reader(self, tmp_path):
        windows = RngStream(16).generator().standard_normal((2000, 64, 1))
        path = str(tmp_path / "big.csv")
        save_csv_windows(windows, path)
        with open(path, "rb+") as fh:  # and with no final newline
            fh.truncate(os.path.getsize(path) - 1)
        with self.python_float_raises():
            ds = load_csv_windows(path, mode="blocks")
        assert ds.windows.tobytes() == windows.tobytes()
        # a nan cell is outside the alphabet: the same file, cell by cell
        windows[1000, 3, 0] = np.nan
        save_csv_windows(windows, path)
        with self.python_float_raises(), \
                pytest.raises(AssertionError, match="cell by cell"):
            load_csv_windows(path, mode="blocks")

    def test_file_within_one_piece_takes_the_c_reader(self, tmp_path):
        path = str(tmp_path / "small.csv")
        windows = np.arange(64.0).reshape(4, 16, 1)
        save_csv_windows(windows, path)
        assert os.path.getsize(path) < datasets._SLICE_BYTES
        with self.python_float_raises():
            ds = load_csv_windows(path, mode="blocks")
        assert ds.windows.tobytes() == windows.tobytes()
        windows[2, 5, 0] = np.nan
        save_csv_windows(windows, path)
        with self.python_float_raises(), \
                pytest.raises(AssertionError, match="cell by cell"):
            load_csv_windows(path, mode="blocks")

    @pytest.mark.parametrize("name", ["w.csv.gz", "w.bz2", "w.xz"])
    def test_name_numpy_opens_as_compressed_loads_as_text(self, tmp_path,
                                                          name):
        """numpy opens a name with a compression suffix as a compressed
        file; a numeric file of such a name still loads as the text it
        holds."""
        path = str(tmp_path / name)
        windows = RngStream(17).generator().standard_normal((200, 64, 1))
        save_csv_windows(windows, path)
        assert os.path.getsize(path) > 2 * datasets._SLICE_BYTES
        ds = load_csv_windows(path, mode="blocks")
        assert ds.windows.tobytes() == windows.tobytes()

    @pytest.mark.parametrize("header,row,cells", [("a,b", "1", 1),
                                                  ("a", "1,2", 2)])
    def test_rows_of_one_other_width_are_refused(self, tmp_path, header, row,
                                                 cells):
        """numpy reads a file whose rows all have the same wrong width
        without complaint; its shape gives it away."""
        path = tmp_path / "wide.csv"
        path.write_text(f"{header}\n" + f"{row}\n" * 8)
        with mock.patch.object(datasets, "_SLICE_BYTES", 4), \
                pytest.raises(ParseError,
                              match=f"wide\\.csv:2: expected {3 - cells} "
                                    f"cells, got {cells}$"):
            load_csv_windows(str(path), mode="blocks")

    def test_bad_cell_is_named_by_the_python_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n" + "1,2\n" * 40_000 + "3,1e\n")
        with pytest.raises(ParseError,
                           match=r"bad\.csv:40002: column 2: non-numeric "
                                 r"cell '1e'$"):
            load_csv_windows(str(path), mode="blocks")


class TestCsvContract:
    def test_unknown_load_mode_is_refused_before_reading(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown load mode 'rows'"):
            load_csv_windows(str(tmp_path / "missing.csv"), mode="rows")

    def test_invalid_utf8_names_file_and_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"c0\n0.5\n\xff\xfe\n")
        with pytest.raises(ParseError, match=r"bad\.csv: not valid UTF-8 at "
                                             r"byte 7"):
            load_csv_windows(str(path), mode="blocks")

    @pytest.mark.parametrize("slice_bytes", [1, 4, 1 << 16])
    def test_first_bad_byte_is_found_before_bad_rows(self, tmp_path,
                                                     slice_bytes):
        """Whatever pieces the file is read in, the first byte that is not
        UTF-8 is named by its offset in the file, even after a bad row."""
        path = tmp_path / "bad.csv"
        path.write_bytes(b"c0\r\nx\n0.5\n\xc3\xa9\n1\n\xe2\x82\n2\n\xff\n")
        with mock.patch.object(datasets, "_SLICE_BYTES", slice_bytes):
            with pytest.raises(ParseError, match=r"bad\.csv: not valid UTF-8 "
                                                 r"at byte 15$"):
                load_csv_windows(str(path), mode="blocks")

    def test_error_shows_the_cell_as_written(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("a,b\n1,2\n x ,2\n")
        with pytest.raises(ParseError,
                           match=r"3: column 1: non-numeric cell ' x '$"):
            load_csv_windows(str(path), mode="blocks")

    def test_crlf_quoted_cells_and_comma_separator_lines(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_bytes(b'"a","b"\r\n"0.5",1\r\n 2 ,"3"\r\n , \r\n'
                         b'4,5\r\n6,7\r\n,\r\n')
        ds = load_csv_windows(str(path), mode="blocks")
        np.testing.assert_array_equal(ds.windows,
                                      [[[0.5, 1], [2, 3]], [[4, 5], [6, 7]]])

    @pytest.mark.parametrize("text,line", [("a" * 200_000 + "\n1\n", 1),
                                           ('"a"\n' + "1" * 200_000, 2),
                                           ("a\r\n" + "1" * 200_000 + "\r\n",
                                            2)],
                             ids=["header", "quoted_cell", "crlf_cell"])
    def test_cell_over_csv_field_limit_is_parse_error(self, tmp_path, text,
                                                      line):
        path = tmp_path / "long_cell.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"csv:{line}: field larger"):
            load_csv_windows(str(path), mode="blocks")

    def test_long_unquoted_number_reads_as_float_does(self, tmp_path):
        path = tmp_path / "long_cell.csv"
        path.write_text("a\n" + "1" * 200_000 + "\n")
        assert load_csv_windows(str(path), mode="blocks").windows[0, 0, 0] \
            == float("1" * 200_000)

    def test_plain_load_holds_the_values_and_a_few_pieces(self, tmp_path):
        """A 2.5 MB file of 128,000 lines: the reader holds the values
        (1 MB) and the text and cell strings of a piece or two of the
        file, not the whole file or a list of its lines."""
        path = str(tmp_path / "big.csv")
        windows = RngStream(15).generator().standard_normal((2000, 64, 1))
        save_csv_windows(windows, path)
        ds, peak = traced_peak(load_csv_windows, path, mode="blocks")
        assert ds.windows.tobytes() == windows.tobytes()
        assert peak < windows.nbytes + 2 * 2**20

    def test_c_read_holds_no_decoded_piece(self, tmp_path):
        """While numpy's C reader runs, the loader holds the line flags of
        the body (one byte a line) and less than a piece of the file more:
        the row reader that took the header, and its decoded piece, are
        gone (they held about 400 KiB more)."""
        path = str(tmp_path / "big.csv")
        windows = RngStream(15).generator().standard_normal((2000, 64, 1))
        save_csv_windows(windows, path)
        held, read = [], datasets._numeric_values

        def spy(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return read(*args)

        with mock.patch.object(datasets, "_numeric_values", spy):
            ds, _ = traced_peak(load_csv_windows, path, mode="blocks")
        assert ds.windows.tobytes() == windows.tobytes()
        lines = 2000 * 65  # 64 rows a window and a blank line between
        assert len(held) == 1 and held[0] < lines + datasets._SLICE_BYTES

    @pytest.mark.parametrize("cell", ['"{}"', " {} "],
                             ids=["quoted", "padded"])
    def test_row_path_holds_the_values_and_a_few_slices(self, tmp_path,
                                                         cell):
        """A file of 128,000 lines that numpy's C reader does not take:
        the row path holds the values and a slice of rows or a piece or two
        of the file at a time, not the whole text."""
        path = tmp_path / "big.csv"
        windows = RngStream(18).generator().standard_normal((2000, 64, 1))
        rows = ("\n".join(cell.format(repr(v)) for v in w.ravel().tolist())
                for w in windows)
        path.write_text("c0\n" + "\n\n".join(rows) + "\n")
        ds, peak = traced_peak(load_csv_windows, str(path), mode="blocks")
        want = reference_load_csv_windows(str(path), mode="blocks").windows
        assert ds.windows.tobytes() == want.tobytes()
        assert peak < windows.nbytes + 4 * 2**20

    @pytest.mark.parametrize("seq_len,stride", [(0, 1), (2, 0), (2, -1),
                                                (2.5, 1), (2, 2.5)])
    def test_sliding_needs_positive_length_and_stride(self, tmp_path,
                                                      seq_len, stride):
        """Both are checked before the file is read, so a malformed file
        reports the setting."""
        key = "stride" if seq_len == 2 else "seq_len"
        path = str(tmp_path / "long.csv")
        save_csv_windows(np.arange(10.0).reshape(1, 10, 1), path)
        bad = tmp_path / "bad.csv"
        bad.write_text("c0\n1.0\nx\n")
        for p in (path, str(bad)):
            with pytest.raises(ConfigError, match=f"^{key} must be "):
                load_csv_windows(p, seq_len=seq_len, stride=stride)


class TestNormalization:
    def test_maps_to_unit_interval(self):
        w = RngStream(7).generator().standard_normal((5, 8, 3)) * 4.0 + 2.0
        nd = normalize(Dataset(w))
        assert nd.windows.min() == pytest.approx(-1.0)
        assert nd.windows.max() == pytest.approx(1.0)

    def test_constant_channel_passthrough(self):
        w = np.ones((4, 6, 1)) * 3.0
        nd = normalize(Dataset(w))
        np.testing.assert_array_equal(nd.windows, w)
        assert nd.norm_scale[0] == 1.0

    def test_round_trip(self, tmp_path):
        w = RngStream(8).generator().standard_normal((5, 8, 2))
        nd = normalize(Dataset(w))
        path = str(tmp_path / "back.csv")
        export_samples(nd.windows, path, nd.norm_shift, nd.norm_scale)
        back = load_csv_windows(path, mode="blocks")
        np.testing.assert_allclose(back.windows, w, atol=1e-12)
