"""CSV readers and writers for trajectories, datasets and spectra.

Files carry mandatory single-line headers whose column names state the
units. Writes go through a temporary file plus rename, so a crashed run
never leaves a half-written table behind.
"""

import os
import tempfile

import numpy as np

from .constants import CONST
from .errors import ConfigError
from .fitting import Dataset
from .heating import NoiseSpectrum
from .protocols import ExpansionSeries

TRAJECTORY_DIGITS = 9

DATASET_HEADERS = {
    "population": ("t_s", "N"),
    "temperature": ("t_s", "T_uK"),
}


def atomic_write_text(path, text):
    """Write text to path via a temporary file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    """Write equal-length columns as CSV under the given header names."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    length = columns[0].size
    if any(c.size != length for c in columns):
        raise ValueError("columns must have equal length")
    lines = [",".join(header)]
    for i in range(length):
        lines.append(",".join(format_value(c[i], sig_digits) for c in columns))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_rows(path, expected_columns, source_kind):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {source_kind} file {path}: {exc}") from None
    if not lines:
        raise ConfigError(f"{path}: empty file")
    header = tuple(cell.strip() for cell in lines[0].split(","))
    allowed = [expected_columns, expected_columns + ("sigma",)]
    if header not in allowed:
        raise ConfigError(
            f"{path}: line 1: expected header {','.join(expected_columns)}"
            f" (optionally plus ',sigma'), got {lines[0]!r}"
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
    return header, np.asarray(rows, dtype=float)


def read_dataset(path, kind) -> Dataset:
    """Read a `t_s,N` or `t_s,T_uK` series (optional third sigma column)."""
    if kind not in DATASET_HEADERS:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    header, rows = _read_rows(path, DATASET_HEADERS[kind], kind)
    sigma = rows[:, 2] if len(header) == 3 else None
    try:
        return Dataset(t=rows[:, 0], value=rows[:, 1], sigma=sigma, kind=kind)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_dataset(path, dataset: Dataset):
    header = list(DATASET_HEADERS[dataset.kind])
    columns = [dataset.t, dataset.value]
    if dataset.sigma is not None and not np.all(dataset.sigma == 1.0):
        header.append("sigma")
        columns.append(dataset.sigma)
    write_columns(path, header, columns, sig_digits=TRAJECTORY_DIGITS)


def read_noise_spectrum(path) -> NoiseSpectrum:
    """Read a one-sided relative-intensity PSD, header freq_hz,S_rel_per_hz."""
    _header, rows = _read_rows(path, ("freq_hz", "S_rel_per_hz"), "spectrum")
    try:
        return NoiseSpectrum(freq_hz=rows[:, 0], s_rel_per_hz=rows[:, 1])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_noise_spectrum(path, spectrum: NoiseSpectrum):
    write_columns(
        path,
        ("freq_hz", "S_rel_per_hz"),
        (spectrum.freq_hz, spectrum.s_rel_per_hz),
        sig_digits=TRAJECTORY_DIGITS,
    )


def read_expansion(path) -> ExpansionSeries:
    """Read an expansion series, header t_ms,sigma_um,amplitude."""
    _header, rows = _read_rows(path, ("t_ms", "sigma_um", "amplitude"), "expansion")
    times = rows[:, 0] * 1e-3
    return ExpansionSeries(
        times=times,
        sigma=rows[:, 1] * 1e-6,
        amplitude=rows[:, 2],
        fall=0.5 * CONST.g * times**2,
    )


def write_expansion(path, series: ExpansionSeries):
    write_columns(
        path,
        ("t_ms", "sigma_um", "amplitude"),
        (series.times * 1e3, series.sigma * 1e6, series.amplitude),
        sig_digits=TRAJECTORY_DIGITS,
    )
