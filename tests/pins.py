"""The pinned outputs of the command variants, and the script that prints them.

Each run is one or more command lines run in order in a fresh directory,
`{tmp}`; `{fixtures}` is tests/fixtures. The pin of a run is the exit code of
its last command and the sha256 of everything the commands print to stdout
and stderr and of every file the directory holds afterwards. tests/pins.json
holds the committed pins, and the pin tests in tests/test_cli.py compare each
run against it. Regenerate the table from the repository root with

    PYTHONPATH=src python tests/pins.py > tests/pins.json

so that a moved pin shows up as a diff of tests/pins.json; a change that
moves one must say which and why.

The outputs depend on no BLAS kernel, so a pin moves only with the code. A
re-pin keeps every 10-digit report line byte for byte; a value printed with
repr (a `.csv` file, the residuals) may move by at most 1e-12 of itself, and
a residual by at most 1e-12 of |model|/sigma at its row, because it is the
difference of two nearly equal numbers.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
PINS_PATH = os.path.join(HERE, "pins.json")

RUNS = {
    "bound": ["bound --out {tmp}/out.txt"],
    "bound-psd": ["bound --psd {fixtures}/psd_noisy.csv --out {tmp}/out.txt"],
    "cavity": ["cavity --out {tmp}/out.txt"],
    # eps * xi = 100 * 2.81 >= 1: the cooling law leaves its domain
    "exit-3-simulate-temperature": [
        "simulate --model temperature --out {tmp}/out.csv --evap.epsilon 100"
    ],
    "exit-4-fit-decay": [
        "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.max_iterations 1"
    ],
    # exp(-gamma t) underflows past t = 0, so the gamma and xi columns of J
    # are 0 and J^T J is singular at the optimum
    "exit-4-fit-decay-singular": [
        "fit --kind decay --data {fixtures}/decay_noisy.csv --fit.guess_gamma_per_s 1e4"
    ],
    # a malformed command line prints its usage line and one error line
    "exit-2-fit-decay-without-data": ["fit --kind decay"],
    "exit-2-simulate-bogus-model": ["simulate --model bogus"],
    "exit-2-tof-without-out": ["tof"],
    "exit-2-unknown-command": ["bogus"],
    "fit-decay": ["fit --kind decay --data {fixtures}/decay_noisy.csv --out {tmp}/fit.txt"],
    "fit-temperature": [
        "simulate --model temperature --out {tmp}/data.csv",
        "fit --kind temperature --data {tmp}/data.csv --out {tmp}/fit.txt",
    ],
    # CRLF line endings, padded cells and blank lines in the input
    "fit-temperature-crlf": [
        "fit --kind temperature --data {fixtures}/temperature_noisy.csv --out {tmp}/fit.txt"
    ],
    "fit-tof": ["fit --kind tof --data {fixtures}/tof_noisy.csv --out {tmp}/fit.txt"],
    "help": ["--help"],
    "help-simulate": ["simulate --help"],
    "ramp-collision-gated": [
        "ramp --ramp.rethermalization collision-gated --out {tmp}/out.txt"
    ],
    "ramp-instant": ["ramp --ramp.rethermalization instant --out {tmp}/out.txt"],
    "ramp-off": ["ramp --ramp.rethermalization off --out {tmp}/out.txt"],
    # quasi-static at the ramp's first step, not at its last
    "ramp-quasi-static-breaks": ["ramp --ramp.duration_ms 3 --out {tmp}/out.txt"],
    "tof": ["tof --out {tmp}/out.csv"],
    "trap": ["trap --out {tmp}/out.txt"],
}
for _model in ("decay", "temperature", "combined"):
    RUNS[f"simulate-{_model}"] = [f"simulate --model {_model} --out {{tmp}}/out.csv"]
    RUNS[f"simulate-{_model}-2001"] = [
        f"simulate --model {_model} --out {{tmp}}/out.csv --sim.n_points 2001"
    ]


def _sha256(raw):
    return hashlib.sha256(raw).hexdigest()


def pin(name, tmp):
    """Run RUNS[name] in the empty directory tmp and return its pin."""
    from latticekit.cli import main

    def run(line):
        return main([a.format(tmp=tmp, fixtures=FIXTURES) for a in line.split()])

    *setup, last = RUNS[name]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for line in setup:
            if run(line) != 0:
                raise RuntimeError(f"{name}: {line!r} failed")
        code = run(last)
    result = {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
    }
    for entry in sorted(os.listdir(tmp)):
        with open(os.path.join(tmp, entry), "rb") as fh:
            result[entry] = _sha256(fh.read())
    return result


def load_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    table = {}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = pin(name, tmp)
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
