"""Regenerate the committed test fixtures.

Run from the repository root:

    python tests/fixtures/generate.py

decay_noisy.csv: the `simulate --model decay` trajectory (20 points over
4 s at the reference parameters) with 3% multiplicative Gaussian noise,
seed 20240901. tof_noisy.csv: a synthetic ballistic-expansion series
(1e6 atoms, 123 uK, 40 um initial width, 8 flight times between 0.5 and
6 ms) with 1% width noise, same seed. psd_noisy.csv: a relative-intensity
noise spectrum, 48 log-spaced frequencies from 100 Hz to 2 MHz (both
parametric resonances of the reference trap lie inside) with a 1/sqrt(f)
slope around 1e-13 /Hz and 20% uniform scatter, same seed.
temperature_noisy.csv: the `simulate --model temperature` trajectory (12
points over 4 s) with 0.5% multiplicative noise, same seed, written the way
a hand-edited file may look: CRLF line endings, space-padded header and
cells, a tab and blank or whitespace-only lines. Every write is
deterministic, so re-running this script must reproduce the committed bytes.
"""

import math
import os
import sys
import tempfile

import numpy as np

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))
SEED = 20240901


def make_decay(path):
    from latticekit.cli import main
    from latticekit.tabular import read_dataset, write_columns

    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "decay_clean.csv")
        code = main([
            "simulate", "--model", "decay", "--out", clean,
            "--sim.n_points", "20", "--sim.t_max_s", "4.0",
        ])
        if code != 0:
            raise SystemExit(f"simulate failed with exit code {code}")
        dataset = read_dataset(clean, "population")
    rng = np.random.default_rng(SEED)
    value = np.asarray(dataset.value)
    noisy = value * (1.0 + 0.03 * rng.standard_normal(value.size))
    write_columns(path, ("t_s", "N"), (dataset.t, noisy))


def make_tof(path):
    from latticekit.protocols import synthesize_expansion
    from latticekit.tabular import write_expansion

    times = np.linspace(0.5e-3, 6e-3, 8)
    series = synthesize_expansion(1e6, 123e-6, 40e-6, times, 0.01, SEED)
    write_expansion(path, series)


def make_psd(path):
    from latticekit.tabular import write_columns

    rng = np.random.default_rng(SEED)
    freq = np.logspace(2.0, math.log10(2e6), 48)
    density = 1e-13 * (freq / 1e3) ** -0.5 * (1.0 + 0.2 * rng.random(freq.size))
    write_columns(path, ("freq_hz", "S_rel_per_hz"), (freq.tolist(), density.tolist()))


def make_temperature(path):
    from latticekit.cli import main
    from latticekit.tabular import read_dataset

    with tempfile.TemporaryDirectory() as tmp:
        clean = os.path.join(tmp, "temperature_clean.csv")
        code = main([
            "simulate", "--model", "temperature", "--out", clean,
            "--sim.n_points", "12", "--sim.t_max_s", "4.0",
        ])
        if code != 0:
            raise SystemExit(f"simulate failed with exit code {code}")
        dataset = read_dataset(clean, "temperature")
    rng = np.random.default_rng(SEED)
    value = np.asarray(dataset.value)
    noisy = value * (1.0 + 0.005 * rng.standard_normal(value.size))
    lines = [" t_s , T_uK "]
    for i, (t, value) in enumerate(zip(dataset.t, noisy.tolist())):
        if i % 4 == 3:
            lines.append("" if i % 8 == 3 else "  \t")
        lines.append(f" {t:.9g} ,  {value:.9g}" if i % 2 else f"{t:.9g},\t{value:.9g} ")
    with open(path, "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n".join(lines) + "\n")


def main_script():
    make_decay(os.path.join(FIXTURE_DIR, "decay_noisy.csv"))
    make_tof(os.path.join(FIXTURE_DIR, "tof_noisy.csv"))
    make_psd(os.path.join(FIXTURE_DIR, "psd_noisy.csv"))
    make_temperature(os.path.join(FIXTURE_DIR, "temperature_noisy.csv"))
    print("fixtures written to", FIXTURE_DIR)


if __name__ == "__main__":
    sys.exit(main_script())
