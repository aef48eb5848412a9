"""Property tests for the CLI's CSV layer: the bulk ``mcse --input`` reader
against the line-by-line reader it replaced, and the column-wise
``write_csv`` against row-by-row ``format_value`` serialization."""

import contextlib
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcmc_confidence import cli
from mcmc_confidence.cli import format_value, main, write_csv


def reference_read_single_column(path: str) -> np.ndarray:
    """The line-by-line reader the bulk reader replaced: the oracle for it.
    A byte-order mark at the start of the file is not part of line 1."""
    values = []
    isfinite = math.isfinite
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            token = raw.strip().split(",")[0]
            if token == "":
                continue
            try:
                value = float(token)
            except ValueError:
                if lineno == 1:  # header row
                    continue
                raise ValueError(f"{path}:{lineno}: cannot parse {token!r} as a number")
            if not isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite value {token!r}")
            values.append(value)
    return np.asarray(values, dtype=float)


def reference_write_csv(path: str, header, columns) -> None:
    """Row-by-row serialization, each cell through ``format_value``."""
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(format_value(column[i]) for column in columns) + "\n")


# reader -----------------------------------------------------------------------

_PADDING = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x0b", "\x0c", " \t "])

_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.10g}"),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "-0", "+1.5", ".5", "5.", "1e-400", "5e-324", "1E3", "2.5e+2"]),
)

_NON_FINITE_TEXT = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "iNf", "1e400", "-1e400"])

# parsed by float() but not by the bulk parser, or by neither
_ODD_TEXT = st.sampled_from(["1_000", "\u0661\u0662", "0x10", "1d3", "1 2", "--1", "#1", "abc", "value", "\ufeff1",
                             "nan(1)", "1e", "-", '"1"', "1\x00"])


def _field(text_strategy):
    return st.builds(lambda pad1, text, pad2: pad1 + text + pad2, _PADDING, text_strategy, _PADDING)


_EXTRA_COLUMNS = st.sampled_from(["", ",2", ",x,y", ", 3 ,", ","])

_NUMBER_LINE = st.builds(lambda f, extra: f + extra, _field(_NUMBER_TEXT), _EXTRA_COLUMNS)

# lines the bulk parser takes as they are
_CLEAN_LINE = st.one_of(_NUMBER_LINE, _NUMBER_LINE, _NUMBER_LINE, st.just(""))

_LINE = st.one_of(
    _CLEAN_LINE,
    _PADDING,
    st.builds(lambda pad, extra: pad + extra, _PADDING, st.sampled_from([",5", ",", ", ,"])),
    _field(_NON_FINITE_TEXT),
    _field(_ODD_TEXT),
)

_HEADER = st.sampled_from([None, "value", "x,y", "\ufeffvalue", "", "  ", "#", "1.5", "nan", "\ufeff2"])

_ENDING = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def input_files(draw):
    """Text of an input file: optional header, then lines with mixed endings.

    Half the files hold only lines the bulk parser accepts, so both of the
    reader's paths are exercised.
    """
    lines = draw(st.lists(draw(st.sampled_from([_CLEAN_LINE, _LINE])), max_size=25))
    header = draw(_HEADER)
    if header is not None:
        lines = [header] + lines
    endings = draw(st.lists(_ENDING, min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        endings = [endings[0]] * len(endings) if endings else endings
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and draw(st.booleans()):
        text = text[: -len(endings[-1])]  # no newline at end of file
    return text


def _outcome(reader, path):
    try:
        values = reader(path)
    except ValueError as exc:
        return ("error", type(exc), str(exc))
    assert values.dtype == np.float64 and values.ndim == 1
    return ("values", values.view(np.int64).tolist())


def _write(tmp_dir, data: bytes) -> str:
    path = os.path.join(tmp_dir, "input.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@pytest.fixture(scope="module")
def io_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("csv_io"))


@settings(max_examples=300)
@given(text=input_files())
@example(text="")
@example(text="value\n")
@example(text="value")
@example(text="\n\n")
@example(text="\ufeff1.5\n2\n")
@example(text="1\r\n2\r\n  \r\n")
@example(text="1\r2\r3")
@example(text="\n1\n2\n")
@example(text="value\n1\n2\nfoo\n3\n")
@example(text="1\n2\n1e400\n")
def test_bulk_reader_matches_line_reader(io_dir, text):
    path = _write(io_dir, text.encode("utf-8"))
    expected = _outcome(reference_read_single_column, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may escape the reader
        actual = _outcome(cli._read_single_column, path)
    assert actual == expected


@pytest.mark.parametrize("data", [
    b"1\n2\n\xff\n3\n",
    b"\xff\xfe1\n2\n",
    b"value\n" + b"1.25\n" * 5000 + b"\x80\n",
])
def test_bulk_reader_matches_line_reader_on_undecodable_bytes(io_dir, data):
    path = _write(io_dir, data)
    assert _outcome(cli._read_single_column, path) == _outcome(reference_read_single_column, path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_bulk_reader_matches_line_reader_across_buffer_boundaries(io_dir, ending):
    # enough lines of varied length that line endings straddle every read-buffer edge
    values = np.random.default_rng(3).standard_normal(30_000) * np.geomspace(1e-30, 1e30, 30_000)
    text = "value,other" + ending + "".join(f"{v!r},{i}{ending}" for i, v in enumerate(values.tolist()))
    path = _write(io_dir, text.encode("utf-8"))
    got = cli._read_single_column(path)
    assert got.view(np.int64).tolist() == values.view(np.int64).tolist()
    assert got.view(np.int64).tolist() == reference_read_single_column(path).view(np.int64).tolist()


def _run_mcse(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@settings(max_examples=100)
@given(text=input_files())
@example(text="")
@example(text="value\n")
@example(text="value\n" + "".join(f"{v}\n" for v in range(1, 20)) + "oops\n")
@example(text="".join(f"{v}\r\n" for v in range(1, 20)) + "-inf\r\n")
def test_mcse_input_exit_code_and_messages_match_line_reader(io_dir, text):
    path = _write(io_dir, text.encode("utf-8"))
    argv = ["mcse", "--input", path, "--batch", "3"]
    actual = _run_mcse(argv)
    saved = cli._read_single_column
    cli._read_single_column = reference_read_single_column
    try:
        expected = _run_mcse(argv)
    finally:
        cli._read_single_column = saved
    assert actual == expected


# writer -----------------------------------------------------------------------

_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                   1.7976931348623157e308, 0.1, 1 / 3, 123456789012.5, 1e16, 1e-5]

_FLOAT_COLUMNS = st.one_of(
    st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS))).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
)

_INT_COLUMNS = st.one_of(
    st.lists(st.integers(-2**63, 2**63 - 1)).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 2**64 - 1)).map(lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.integers(-2**31, 2**31 - 1)).map(lambda v: np.array(v, dtype=np.int32)),
)

_OTHER_COLUMNS = st.one_of(
    st.lists(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                       st.integers(-2**63, 2**63 - 1).map(np.int64), st.floats().map(np.float64),
                       st.booleans().map(np.bool_))),
    st.lists(st.one_of(st.none(), st.integers(), st.floats())).map(lambda v: np.array(v, dtype=object)),
)

_COLUMN = st.one_of(_FLOAT_COLUMNS, _INT_COLUMNS, _OTHER_COLUMNS)


@st.composite
def column_sets(draw):
    kinds = draw(st.lists(_COLUMN, min_size=1, max_size=5))
    n = min(len(c) for c in kinds)
    return [c[:n] for c in kinds]


def _same_bytes(io_dir, columns):
    header = [f"c{k}" for k in range(len(columns))]
    got, want = os.path.join(io_dir, "got.csv"), os.path.join(io_dir, "want.csv")
    write_csv(got, header, columns)
    reference_write_csv(want, header, columns)
    with open(got, "rb") as a, open(want, "rb") as b:
        return a.read() == b.read()


@settings(max_examples=200)
@given(columns=column_sets())
@example(columns=[np.full(cli._WRITE_CHUNK_ROWS, math.nan), np.arange(cli._WRITE_CHUNK_ROWS)])
@example(columns=[np.full(3, math.nan, dtype=np.float32), [None, math.nan, np.float64("nan")]])
@example(columns=[np.array([]), np.array([], dtype=np.int64), [], np.array([], dtype=bool)])
def test_column_writer_matches_row_writer(io_dir, columns):
    assert _same_bytes(io_dir, columns)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("chunks", [1, 2])
def test_column_writer_matches_row_writer_at_chunk_edges(io_dir, offset, chunks):
    n = chunks * cli._WRITE_CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    x[rng.integers(0, n, 5)] = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    columns = [np.arange(1, n + 1), x, rng.integers(-2**62, 2**62, n), rng.random(n) < 0.5,
               [None if i % 7 == 0 else int(i) * 10**12 for i in range(n)]]
    assert _same_bytes(io_dir, columns)
    with open(os.path.join(io_dir, "got.csv"), "rb") as fh:
        assert fh.read().count(b"\n") == n + 1


def test_column_writer_header_only_and_length_check(io_dir):
    path = os.path.join(io_dir, "empty.csv")
    write_csv(path, ["a", "b"], [np.array([]), np.array([], dtype=np.int64)])
    with open(path, "rb") as fh:
        assert fh.read() == b"a,b\n"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, ["a", "b"], [np.arange(3), np.arange(4.0)])


@pytest.mark.parametrize("text", [
    "value\n1.5\n  \n2.5\n\t\n",
    "  \n1\n2\n",
    "\xa0\n1\n2\n",
    "1\r\n2\r\n \r\n",
    "value\n1\n2\n\x0c",
])
def test_whitespace_only_lines_do_not_fall_back_to_the_line_reader(io_dir, text):
    # the bulk pass rejects these files; what the reader returns is still the line reader's result
    path = _write(io_dir, text.encode("utf-8"))
    assert _outcome(cli._read_single_column, path) == _outcome(reference_read_single_column, path)
