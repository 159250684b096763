"""CSV I/O for trajectories, datasets, noise spectra and expansion series.

Files carry mandatory single-line headers whose column names state the
units. Writes go through a temporary file plus rename, so a crashed run
never leaves a half-written table behind. Reading rows, writing columns and
reading the noise spectrum are plain Python; numpy loads only when a fit
dataset or an expansion series is built.
"""

import math
import os
from itertools import chain

from .errors import ConfigError

TRAJECTORY_DIGITS = 9

DATASET_HEADERS = {
    "population": ("t_s", "N"),
    "temperature": ("t_s", "T_uK"),
}


def atomic_write_text(path, text):
    """Write text to path via a temporary file in the same directory.

    An OSError names the requested path, not the random temporary file.
    tempfile is imported here, so commands that write no file never load it.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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


def write_columns(path, header, columns, sig_digits=None):
    """Write equal-length nan-free sequences of floats as CSV under the given
    header names."""
    length = len(columns[0])
    if any(len(c) != length for c in columns):
        raise ValueError("columns must have equal length")
    for name, c in zip(header, columns):
        if any(map(math.isnan, c)):
            raise ValueError(f"column {name} holds nan; refusing to write it")
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format_value(v, sig_digits) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_rows(path, headers, source_kind):
    """Header and rows (lists of finite floats) of a CSV whose header is one
    of headers."""
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
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: cannot parse row {line!r}"
            ) from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        # one pass over all cells; the failing line is located only on error
        linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
        lineno = next(
            n for n, row in zip(linenos, rows) if not all(map(math.isfinite, row))
        )
        raise ConfigError(
            f"{path}: line {lineno}: non-finite value in {lines[lineno - 1]!r}"
        )
    return header, rows


def read_dataset(path, kind):
    """Read a `t_s,N` or `t_s,T_uK` series (optional third sigma column)
    into a fitting.Dataset."""
    import numpy as np

    from .fitting import Dataset

    if kind not in DATASET_HEADERS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    columns = DATASET_HEADERS[kind]
    header, rows = _read_rows(path, (columns, columns + ("sigma",)), kind)
    data = np.asarray(rows, dtype=float)
    sigma = data[:, 2] if len(header) == 3 else None
    return Dataset(t=data[:, 0], value=data[:, 1], sigma=sigma)


def read_noise_spectrum(path):
    """Read a one-sided relative-intensity PSD, header freq_hz,S_rel_per_hz,
    into a heating.NoiseSpectrum."""
    from .heating import NoiseSpectrum

    _header, rows = _read_rows(path, (("freq_hz", "S_rel_per_hz"),), "spectrum")
    freq_hz, s_rel_per_hz = zip(*rows)
    return NoiseSpectrum(freq_hz=freq_hz, s_rel_per_hz=s_rel_per_hz)


def read_expansion(path):
    """Read an expansion series, header t_ms,sigma_um,amplitude, into a
    protocols.ExpansionSeries."""
    import numpy as np

    from .protocols import ExpansionSeries

    _header, rows = _read_rows(
        path, (("t_ms", "sigma_um", "amplitude"),), "expansion"
    )
    data = np.asarray(rows, dtype=float)
    return ExpansionSeries(
        times=data[:, 0] * 1e-3,
        sigma=data[:, 1] * 1e-6,
        amplitude=data[:, 2],
    )


def write_expansion(path, series):
    write_columns(
        path,
        ("t_ms", "sigma_um", "amplitude"),
        (series.times * 1e3, series.sigma * 1e6, series.amplitude),
        sig_digits=TRAJECTORY_DIGITS,
    )
