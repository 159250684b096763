"""CSV I/O for trajectories, datasets, noise spectra and expansion series.

Files carry mandatory single-line headers whose column names state the
units. atomic_write_text is the one write path: every table and report a
command writes goes through a temporary file plus rename, so a crashed run
never leaves a half-written file behind, and an OSError names the requested
path.

This module is the one CSV codec, and it handles a table in one pass, not
one Python call per cell: a write formats the whole table with one %
template over one flat tuple of its cells; a read checks every line's field
count, then parses the whole body with one map(float, ...) and checks it is
finite. A cell is whatever float() accepts. Only a read that fails walks the
lines again, to name the first bad one. The codec is plain Python, and so
are the records it reads into (fitting.Dataset, heating.NoiseSpectrum and
protocols.ExpansionSeries hold tuples of floats): no read or write loads
numpy.
"""

import math
import os
from itertools import count, repeat

from .errors import ConfigError

TRAJECTORY_DIGITS = 9

# a new file for writing only; binary, so Windows translates no newline
_CREATE_NEW = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
               | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0))

DATASET_HEADERS = {
    "population": ("t_s", "N"),
    "temperature": ("t_s", "T_uK"),
}


def atomic_write_text(path, text):
    """Write text to path as UTF-8, through a temporary file in the same
    directory that is renamed over path, so path holds the old or the new
    text and never a part of it.

    The temporary file is named from the process id; one that exists already
    (left by a crashed run whose pid was reused, or another thread's) is
    stepped over, never opened. It is created like open() creates a file,
    with mode 0o666 less the umask. An OSError names the requested path, not
    the temporary file, which is removed.
    """
    data = text.encode("utf-8")
    head = os.path.join(os.path.dirname(path), f"tmp{os.getpid()}_")
    tmp = None
    try:
        for attempt in count():
            try:
                fd = os.open(f"{head}{attempt}.tmp", _CREATE_NEW, 0o666)
            except FileExistsError:  # a crashed run's file, or another thread's
                continue
            tmp = f"{head}{attempt}.tmp"
            break
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def format_value(value, sig_digits=None):
    """One table or report cell: true/false, a float to sig_digits significant
    digits (round-trip repr when None), anything else through str."""
    if isinstance(value, float):
        if sig_digits is not None:
            return format(value, f".{sig_digits}g")
        return repr(float(value))
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def columns_csv(header, columns):
    """CSV text of equal-length float columns under header, each cell to
    TRAJECTORY_DIGITS significant digits. One % formats the whole table:
    the template is the header plus one line of %.9g cells (the bytes of
    format(v, ".9g")) per row, and the tuple holds every cell in row order.
    Like zip, it stops at the shortest column."""
    width, length = len(columns), min(map(len, columns), default=0)
    cells = [None] * (width * length)
    for i, column in enumerate(columns):
        cells[i::width] = column[:length]
    row = ",".join([f"%.{TRAJECTORY_DIGITS}g"] * len(header)) + "\n"
    template = ",".join(header).replace("%", "%%") + "\n" + row * length
    return template % tuple(cells)


def residuals_csv(residuals):
    """index,residual CSV text of a fit's residuals, each as its round-trip
    repr."""
    rows = map("%d,%r\n".__mod__, enumerate(map(float, residuals)))
    return "index,residual\n" + "".join(rows)


def write_columns(path, header, columns):
    """Write equal-length nan-free sequences of floats as CSV under the given
    header names, each to TRAJECTORY_DIGITS significant digits."""
    length = len(columns[0])
    if any(len(c) != length for c in columns):
        raise ValueError("columns must have equal length")
    for name, c in zip(header, columns):
        if any(map(math.isnan, c)):
            raise ValueError(f"column {name} holds nan; refusing to write it")
    atomic_write_text(path, columns_csv(header, columns))


def _read_columns(path, headers, source_kind):
    """Columns (lists of finite floats) of a CSV whose header is one of
    headers, one column per header name.

    Blank lines are skipped. The field counts are checked, and every cell
    goes through float(), in one pass over the whole body; only when that
    pass fails are the lines walked again, to name the first bad one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {source_kind} file {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise ConfigError(
            f"{path}: line 1: expected header {expected}, got {lines[0]!r}"
        )
    body = list(filter(str.strip, lines[1:]))
    if not body:
        raise ConfigError(f"{path}: no data rows")
    width = len(header)
    cells = None
    if set(map(str.count, body, repeat(","))) == {width - 1}:
        try:
            cells = list(map(float, ",".join(body).split(",")))
        except ValueError:
            pass
    if cells is None or not all(map(math.isfinite, cells)):
        raise ConfigError(_first_bad_line(path, lines, width))
    return [cells[i::width] for i in range(width)]


def _first_bad_line(path, lines, width):
    """The error text of a body that failed the one-pass read. A field count
    or a cell float() refuses, on any line, wins over a non-finite value on
    an earlier one, because every row is parsed before any value is checked."""
    numbered = [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    for lineno, line in numbered:
        cells = line.split(",")
        if len(cells) != width:
            return f"{path}: line {lineno}: expected {width} fields, got {len(cells)}"
        try:
            list(map(float, cells))
        except ValueError:
            return f"{path}: line {lineno}: cannot parse row {line!r}"
    lineno, line = next(
        (n, line) for n, line in numbered
        if not all(map(math.isfinite, map(float, line.split(","))))
    )
    return f"{path}: line {lineno}: non-finite value in {line!r}"


def read_dataset(path, kind):
    """Read a `t_s,N` or `t_s,T_uK` series (optional third sigma column)
    into a fitting.Dataset."""
    from .fitting import Dataset

    names = DATASET_HEADERS[kind]
    columns = _read_columns(path, (names, names + ("sigma",)), kind)
    return Dataset(*columns)  # t, value and the optional sigma


def read_noise_spectrum(path):
    """Read a one-sided relative-intensity PSD, header freq_hz,S_rel_per_hz,
    into a heating.NoiseSpectrum."""
    from .heating import NoiseSpectrum

    columns = _read_columns(path, (("freq_hz", "S_rel_per_hz"),), "spectrum")
    return NoiseSpectrum(*columns)


def read_expansion(path):
    """Read an expansion series, header t_ms,sigma_um,amplitude, into a
    protocols.ExpansionSeries."""
    from .protocols import ExpansionSeries

    columns = _read_columns(path, (("t_ms", "sigma_um", "amplitude"),), "expansion")
    t_ms, sigma_um, amplitude = columns
    return ExpansionSeries(
        times=[t * 1e-3 for t in t_ms],
        sigma=[s * 1e-6 for s in sigma_um],
        amplitude=amplitude,
    )


def write_expansion(path, series):
    write_columns(
        path,
        ("t_ms", "sigma_um", "amplitude"),
        ([t * 1e3 for t in series.times], [s * 1e6 for s in series.sigma],
         series.amplitude),
    )
