"""Property test of the CLI exit-code contract over random config overrides.

Every command variant, given one to three overrides drawn from the schema,
must return 0, 2, 3 or 4 without raising (RuntimeWarnings are errors under
the pytest settings), and a successful run must not report nan.
"""

import contextlib
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticekit.cli import main
from latticekit.config import SCHEMA
from latticekit.ramp import RETHERMALIZATION_MODES

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

SPECIAL_VALUES = ("nan", "inf", "-inf", "0", "-1", "abc", "")

# These keys set the run time of a command (grid points, ramp steps, flight
# times, fit iterations), not the validity of its result, so they are drawn
# from a small range instead of scaled by up to 1e3.
SIZE_KEYS = ("sim.n_points", "ramp.steps", "tof.n_times", "fit.max_iterations")

CONTRACT_CODES = {0, 2, 3, 4}


@pytest.fixture(scope="module")
def variants(tmp_path_factory):
    """Every command variant, with the data files the fits and --psd read."""
    root = tmp_path_factory.mktemp("cli_property")
    temperature = str(root / "temperature.csv")
    psd = root / "psd.csv"
    out = str(root / "out.csv")
    assert main(["simulate", "--model", "temperature", "--out", temperature]) == 0
    psd.write_text("freq_hz,S_rel_per_hz\n100,1e-13\n1000000,1e-13\n")
    data = {
        "decay": os.path.join(FIXTURES, "decay_noisy.csv"),
        "temperature": temperature,
        "tof": os.path.join(FIXTURES, "tof_noisy.csv"),
    }
    return [
        ["cavity"],
        ["trap"],
        ["ramp"],
        ["bound"],
        ["bound", "--psd", str(psd)],
        ["tof", "--out", out],
        *(["simulate", "--model", model, "--out", out]
          for model in ("decay", "temperature", "combined")),
        *(["fit", "--kind", kind, "--data", path] for kind, path in data.items()),
    ]


def _scaled(default):
    """default times +-10^U(-3, 3), formatted for its schema type."""
    factor = st.builds(
        lambda sign, power: sign * 10.0**power,
        st.sampled_from((1.0, -1.0)),
        st.floats(-3.0, 3.0),
    )
    if isinstance(default, int):
        return factor.map(lambda f: str(int(default * f)))
    return factor.map(lambda f: repr(default * f))


@st.composite
def overrides(draw):
    key = draw(st.sampled_from(sorted(SCHEMA)))
    _typ, default = SCHEMA[key]
    if key in SIZE_KEYS:
        value = str(draw(st.integers(-2, 4096)))
    elif isinstance(default, str):
        value = draw(st.sampled_from(RETHERMALIZATION_MODES + SPECIAL_VALUES))
    else:
        value = draw(st.sampled_from(SPECIAL_VALUES) | _scaled(default))
    return ["--" + key, value]


def nan_lines(report):
    """Report lines showing nan."""
    return [line for line in report.splitlines() if re.search(r"\bnan\b", line)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_cli_exit_codes_hold_for_random_overrides(variants, data):
    argv = data.draw(st.sampled_from(variants))
    for pair in data.draw(st.lists(overrides(), min_size=1, max_size=3)):
        argv = argv + pair
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in CONTRACT_CODES, (argv, stderr.getvalue())
    if code == 0:
        assert not nan_lines(stdout.getvalue()), (argv, stdout.getvalue())
