"""The CSV codec of latticekit.tabular: reader error texts, and the codec
against the per-cell writer and per-line reader in tests/oracles.py.

Every expected error text is the one the per-line reader gives. A
field-count or parse error on any line wins over a non-finite value on an
earlier line, because the rows are parsed before any value is checked.
"""

import math
import os
import struct
import tempfile

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticekit.errors import ConfigError
from latticekit.tabular import (
    _read_columns,
    atomic_write_text,
    columns_csv,
    read_dataset,
    read_expansion,
    read_noise_spectrum,
    residuals_csv,
    write_columns,
)

POPULATION = (("t_s", "N"), ("t_s", "N", "sigma"))


def _write(path, text):
    # newline="" keeps CRLF and lone CR as written
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("text, message", [
    ("t,N\n0,1\n", "line 1: expected header t_s,N or t_s,N,sigma, got 't,N'"),
    ("", "empty file"),
    ("t_s,N\n\n  \n", "no data rows"),
    ("t_s,N\n\n0,1\n \n1,2,3\n", "line 5: expected 2 fields, got 3"),
    ("t_s,N\n0,1\n\n1,abc\n", "line 4: cannot parse row '1,abc'"),
    ("t_s,N\n\n0,1\n\t\n1,nan\n", "line 5: non-finite value in '1,nan'"),
    # the later parse error wins over the earlier non-finite value
    ("t_s,N\nnan,1\n1,2\n2,3\nabc,4\n", "line 5: cannot parse row 'abc,4'"),
    ("t_s,N\n0,inf\n\n1,2,3\n", "line 4: expected 2 fields, got 3"),
    # the first of two bad lines is named
    ("t_s,N\n0,1,2\n1,abc\n", "line 2: expected 2 fields, got 3"),
    ("t_s,N\n0,1e999\n1,-inf\n", "line 2: non-finite value in '0,1e999'"),
    # a short and a long line hold as many cells as two good ones
    ("t_s,N\n0\n1,2,3\n", "line 2: expected 2 fields, got 1"),
], ids=["header", "empty", "no-rows", "fields", "parse", "non-finite",
        "parse-after-non-finite", "fields-after-non-finite", "first-bad-line",
        "first-non-finite", "compensating-field-counts"])
def test_reader_error_text(tmp_path, text, message):
    path = _write(tmp_path / "data.csv", text)
    with pytest.raises(ConfigError) as info:
        read_dataset(str(path), "population")
    assert str(info.value) == f"{path}: {message}"


def test_reader_names_an_unreadable_file(tmp_path):
    path = tmp_path / "missing.csv"
    with pytest.raises(ConfigError) as info:
        read_noise_spectrum(str(path))
    assert str(info.value).startswith(f"cannot read spectrum file {path}: ")


def test_readers_accept_crlf_padding_and_blank_lines(tmp_path):
    path = _write(
        tmp_path / "data.csv",
        " t_s , T_uK \r\n\r\n 0 ,1_0\r\n  \r\n0.5,\t8.5 \r\n",
    )
    dataset = read_dataset(str(path), "temperature")
    assert dataset.t == (0.0, 0.5)
    assert dataset.value == (10.0, 8.5)
    assert dataset.sigma == (1.0, 1.0)  # unweighted


def test_three_column_readers(tmp_path):
    population = _write(tmp_path / "n.csv", "t_s,N,sigma\n0,4,0.5\n1,3,0.25\n")
    dataset = read_dataset(str(population), "population")
    assert dataset.sigma == (0.5, 0.25)
    expansion = _write(tmp_path / "e.csv", "t_ms,sigma_um,amplitude\n1,40,7\n2,50,6\n")
    series = read_expansion(str(expansion))
    assert series.times == (1 * 1e-3, 2 * 1e-3)
    assert series.sigma == (40 * 1e-6, 50 * 1e-6)
    assert series.amplitude == (7.0, 6.0)
    spectrum = _write(tmp_path / "s.csv", "freq_hz,S_rel_per_hz\n10,1e-12\n20,2e-12\n")
    assert read_noise_spectrum(str(spectrum)) == ((10.0, 20.0), (1e-12, 2e-12))


def test_write_columns_refuses_nan_and_ragged_columns(tmp_path):
    path = str(tmp_path / "out.csv")
    with pytest.raises(ValueError, match="column N holds nan"):
        write_columns(path, ("t_s", "N"), ([0.0, 1.0], [1.0, math.nan]))
    with pytest.raises(ValueError, match="equal length"):
        write_columns(path, ("t_s", "N"), ([0.0, 1.0], [1.0]))
    assert not os.listdir(tmp_path)


# ---------------------------------------------------------------------------
# the codec against the oracles

def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every bit pattern but nan, which write_columns refuses, plus the edges
finite_or_inf = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1e-308, 1.7976931348623157e308,
                     math.inf, -math.inf, 0.1, 123456789.0, 1234567890.0]),
).filter(lambda v: not math.isnan(v))


@settings(max_examples=300)
@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.tuples(*[finite_or_inf] * width), max_size=12)
))
def test_writer_matches_the_per_cell_oracle(rows):
    width = len(rows[0]) if rows else 2
    header = tuple(f"c{i}" for i in range(width))
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in header]
    expected = oracles.columns_csv(header, columns)
    assert columns_csv(header, columns) == expected
    as_numpy = [np.array(c, dtype=np.float64) for c in columns]
    assert oracles.columns_csv(header, as_numpy) == expected
    assert columns_csv(header, as_numpy) == expected


@settings(max_examples=200)
@given(st.lists(finite_or_inf, max_size=12))
def test_residuals_match_the_per_cell_oracle(values):
    expected = oracles.residuals_csv(values)
    assert residuals_csv(values) == expected
    assert residuals_csv(np.array(values, dtype=np.float64)) == expected


def test_writer_edge_cells():
    columns = ([-0.0, 5e-324, math.inf, 1e308], [-math.inf, 1e-308, 0.1, 2.0])
    assert columns_csv(("a", "b"), columns) == (
        "a,b\n-0,-inf\n4.94065646e-324,1e-308\ninf,0.1\n1e+308,2\n"
    )


cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "1", "-2.5", " 3 ", "\t4", "1_0", "1__0", "_1", "",
                     " ", "nan", "-inf", "inf", "1e999", "-1e999", "1e-400",
                     "abc", "0x10", "1e5", "+7", "NaN", "Infinity", "١"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
separators = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x85", "\u2028",
                              "\n\n", "\n \n", "\n\x0c\n"])


@st.composite
def csv_texts(draw):
    header = draw(st.sampled_from(["t_s,N", "t_s,N,sigma", " t_s , N ", "t_s,T_uK"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([2, 2, 2, 3, 1, 4]))
        line = ",".join(draw(st.lists(cells, min_size=width, max_size=width)))
        if draw(st.booleans()) and draw(st.booleans()):
            line += ","  # a trailing comma adds an empty field
        lines.append(line)
    text = lines[0]
    for line in lines[1:]:
        text += draw(separators) + line
    return text + draw(st.sampled_from(["", "\n", "\r\n"]))


def _outcome(read, path):
    try:
        return read(path, POPULATION, "population")
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=400)
@given(csv_texts())
@example("t_s,N\n0\n1,2,3\n")
def test_reader_matches_the_per_line_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(os.path.join(tmp, "data.csv"), text)
        expected = _outcome(oracles.read_rows, path)
        got = _outcome(_read_columns, path)
    if isinstance(expected, str):
        assert got == expected
    else:
        _header, rows = expected
        assert got == [list(c) for c in zip(*rows)]


def test_atomic_write_steps_over_a_stale_temporary_file(tmp_path):
    # the temporary file a crashed run left, whose pid this process reuses
    stale = tmp_path / f"tmp{os.getpid()}_0.tmp"
    stale.write_text("half a table")
    target = tmp_path / "out.txt"
    for text in ("first\n", "second\n"):
        atomic_write_text(str(target), text)
        assert target.read_text() == text
    assert stale.read_text() == "half a table"  # never opened, never removed
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([stale.name, "out.txt"])


def test_atomic_write_failure_names_the_path_and_removes_its_file(tmp_path):
    target = tmp_path / "out.txt"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError) as info:
        atomic_write_text(str(target), "text\n")
    assert info.value.filename == str(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
