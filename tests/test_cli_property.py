"""Property test of the CLI exit-code contract over random config overrides.

Every command variant, given one to three overrides drawn from the schema,
must return 0, 2, 3 or 4 without raising (RuntimeWarnings are errors under
the pytest settings), a successful run must not report nan, and the table a
successful simulate or tof writes must read back through the reader of fit.
A single override names its key's domain exactly when the value lies outside
it, and then exits 2.
"""

import contextlib
import io
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticekit.cli import main
from latticekit.config import SCHEMA
from latticekit.evaporation import RETHERMALIZATION_MODES
from latticekit.tabular import read_dataset, read_expansion

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
    _typ, default, _domain = SCHEMA[key]
    if key in SIZE_KEYS:
        value = str(draw(st.integers(-2, 4096)))
    elif isinstance(default, str):
        value = draw(st.sampled_from(RETHERMALIZATION_MODES + SPECIAL_VALUES))
    else:
        value = draw(st.sampled_from(SPECIAL_VALUES) | _scaled(default))
    return ["--" + key, value]


def outside_domain(key, raw):
    """Whether raw parses as a finite value of key's type outside its domain."""
    typ, _default, domain = SCHEMA[key]
    if domain is None or not raw.strip():
        return False
    try:
        value = typ(raw)
    except ValueError:
        return False
    if typ is str:
        return value not in RETHERMALIZATION_MODES
    if typ is float and not math.isfinite(value):
        return False
    if domain == "in [0, 1]":
        return not 0 <= value <= 1
    op, limit = domain.split()
    return not (value > float(limit) if op == ">" else value >= float(limit))


def nan_lines(report):
    """Report lines showing nan."""
    return [line for line in report.splitlines() if re.search(r"\bnan\b", line)]


def assert_reads_back(argv):
    """The table a successful simulate or tof run wrote reads back through
    the reader of fit, so every cell is one the reader's cell rule takes."""
    out = argv[argv.index("--out") + 1]
    if argv[0] == "tof":
        read_expansion(out)
        return
    read_dataset(out, "population" if argv[argv.index("--model") + 1] == "decay"
                 else "temperature")


@settings(max_examples=300)
@given(data=st.data())
def test_cli_exit_codes_hold_for_random_overrides(variants, data):
    argv = data.draw(st.sampled_from(variants))
    pairs = data.draw(st.lists(overrides(), min_size=1, max_size=3))
    for pair in pairs:
        argv = argv + pair
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in CONTRACT_CODES, (argv, stderr.getvalue())
    if code == 0:
        assert not nan_lines(stdout.getvalue()), (argv, stdout.getvalue())
        if "--out" in argv:
            assert_reads_back(argv)
    if len(pairs) == 1:
        [(flag, raw)] = pairs
        key = flag[2:]
        named = f"error: {key} must be {SCHEMA[key][2]}, got " in stderr.getvalue()
        assert named == outside_domain(key, raw), (argv, stderr.getvalue())
        if named:
            assert code == 2, argv


# tables at the edges the random overrides seldom reach, with their exit codes
EDGE_TABLES = [
    (["simulate", "--model", "combined", "--heating.gamma_tot_per_s", "170"], 0),  # T to 1e297
    # N underflows to 0, which the decay fit refuses, so no table is written
    (["simulate", "--model", "decay", "--sim.t_max_s", "4000"], 3),
    (["tof", "--tof.sigma0_um", "1e150"], 0),
]


@pytest.mark.parametrize(("argv", "code"),
                         [pytest.param(*edge, id=" ".join(edge[0])) for edge in EDGE_TABLES])
def test_written_tables_read_back(tmp_path, capsys, argv, code):
    out = tmp_path / "out.csv"
    argv = argv + ["--out", str(out)]
    assert main(argv) == code
    if code == 0:
        assert_reads_back(argv)
    else:
        assert capsys.readouterr().err == (
            "model domain error: N underflows to 0 by t = 1260.0 s; lower sim.t_max_s below it\n"
        )
        assert not out.exists()


DECAY_FIT_KEYS = (
    "fit.guess_gamma_per_s", "fit.guess_beta_cm3_per_s", "sample.rho_peak_per_cm3",
)


@settings(max_examples=200)
@given(powers=st.tuples(*(st.floats(-6.0, 6.0) for _ in DECAY_FIT_KEYS)))
def test_decay_fit_contract_holds_over_its_starting_point(powers):
    # each key is its default times 10^U(-6, 6); a starting point far from
    # the optimum overflows numpy inside the fit, which must surface as one
    # stderr line and a contract code, never as a warning or a nan report
    argv = ["fit", "--kind", "decay", "--data",
            os.path.join(FIXTURES, "decay_noisy.csv")]
    for key, power in zip(DECAY_FIT_KEYS, powers):
        argv += ["--" + key, repr(SCHEMA[key][1] * 10.0**power)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in CONTRACT_CODES, (argv, stderr.getvalue())
    assert stderr.getvalue().count("\n") <= 1, (argv, stderr.getvalue())
    if code == 0:
        assert not nan_lines(stdout.getvalue()), (argv, stdout.getvalue())
