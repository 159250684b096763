"""The hand-written command-line parser against the argparse parser it replaced.

tests/oracles.py keeps the argparse parser and the override pairing that
latticekit.cli used before its command table. Both read command lines drawn
from one alphabet: the commands, a bogus command, every flag, each choice
and a bogus one, full and tail config keys, negative numbers, a bare
positional, `--` and a `--flag=value` token. A missing trailing value and
repeated flags come from the draw. For every line both must accept, print
help (exit 0) or refuse (exit 2); when both accept, the command, the flag
values and the override pairs must be equal. DIFFERENCES names each
deliberate departure from argparse, and deliberate_difference finds the
first one the new parser meets on a line.
"""

import contextlib
import io
import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from oracles import argparse_command_line

from latticekit.cli import COMMANDS, parse_command_line

HELP = ("-h", "--help")

# each deliberate difference: a command line, how argparse read it and how
# parse_command_line reads it; ("exit", code) for help or a refusal, else
# (command, flag values, override pairs)
_CAVITY = {"config": None, "out": None}
DIFFERENCES = {
    # argparse sets option-like tokens before the command aside and pairs
    # them with tokens after it; the command must come first
    "option before the command": (
        ["--round_trip_length_mm", "cavity", "194"],
        ("cavity", _CAVITY, [("round_trip_length_mm", "194")]),
        ("exit", 2),
    ),
    # a flag takes its value as the next token only; `--out=o.txt` is read
    # as a config key named `out=o.txt`, which has no value here
    "--flag=value": (
        ["cavity", "--out=o.txt"],
        ("cavity", dict(_CAVITY, out="o.txt"), []),
        ("exit", 2),
    ),
    # each --name takes the next token as its value, even one that argparse
    # reads as an option (a flag's value starting with `-` that is not a
    # negative number, or an override's value that is a flag of the command)
    "value that argparse reads as an option": (
        ["cavity", "--out", "-x"],
        ("exit", 2),
        ("cavity", dict(_CAVITY, out="-x"), []),
    ),
    # argparse reads every token after `--` as a positional; here `--` is
    # text like any other token
    "tokens after --": (
        ["cavity", "--", "x", "--out", "o.txt"],
        ("cavity", _CAVITY, [("", "x"), ("out", "o.txt")]),
        ("cavity", dict(_CAVITY, out="o.txt"), [("", "x")]),
    ),
    # argparse pairs the overrides after it has read the whole line, so a
    # later -h answers help; here the stray token is refused where it stands
    "help after a stray token": (
        ["cavity", "x", "--help"],
        ("exit", 0),
        ("exit", 2),
    ),
}


def _reads_as_option(token):
    """Whether argparse reads token as an option rather than a positional,
    in a parser with no option that looks like a negative number."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and not re.fullmatch(r"-\d+|-\d*\.\d+", token))


def _is_own_option(token, flags):
    """Whether argparse reads token as one of the command's own options."""
    return token.startswith("-h") or token.split("=", 1)[0] in (*flags, "--help")


def deliberate_difference(argv):
    """The name of the first deliberate difference from argparse that
    parse_command_line meets on argv, walking it as that parser does."""
    if not argv or argv[0] in HELP:
        return None
    if _reads_as_option(argv[0]):
        return "option before the command"
    if argv[0] not in COMMANDS:
        return None
    flags = {"--config": False, "--out": False, **COMMANDS[argv[0]][2]}
    rest = argv[1:]
    for i in range(0, len(rest), 2):
        flag, value = rest[i], (rest[i + 1] if i + 1 < len(rest) else None)
        if flag in HELP:
            return None
        if "--" in (flag, value):
            return "tokens after --"
        if not flag.startswith("--"):
            return "help after a stray token" if set(HELP) & set(rest[i:]) else None
        if "=" in flag and _is_own_option(flag, flags):
            return "--flag=value"
        if value is None:
            return None
        if _reads_as_option(value) if flag in flags else _is_own_option(value, flags):
            return "value that argparse reads as an option"
        if type(flags.get(flag)) is tuple and value not in flags[flag]:
            return None
    return None


def outcome(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            command, flags, overrides = parse(list(argv))
        except SystemExit as exc:
            return ("exit", exc.code)
    return (command, flags if isinstance(flags, dict) else vars(flags), overrides)


@pytest.mark.parametrize("name", sorted(DIFFERENCES))
def test_each_deliberate_difference_from_argparse(name):
    argv, old, new = DIFFERENCES[name]
    assert outcome(argparse_command_line, argv) == old
    assert outcome(parse_command_line, argv) == new
    assert deliberate_difference(argv) == name


COMMAND_TOKENS = (*COMMANDS, "bogus")
FLAG_TOKENS = ("--config", "--out", "--model", "--kind", "--data", "--psd")
KEY_TOKENS = ("--sim.n_points", "--n_points", "--evap.epsilon", "--round_trip_length_mm")
VALUE_TOKENS = ("decay", "temperature", "combined", "tof", "bogus",
                "5", "-1", "-0.5", "-inf", "x", "--", "--out=o.txt")
ALPHABET = COMMAND_TOKENS + FLAG_TOKENS + HELP + KEY_TOKENS + VALUE_TOKENS


@st.composite
def command_lines(draw):
    """A command (or any token) and then flag-value pairs mixed with single
    tokens, in any order. The command's required flags are drawn with a
    valid or a bogus value nine times in ten, so that most lines parse."""
    head = draw(st.sampled_from(COMMAND_TOKENS[:-1]) | st.sampled_from(ALPHABET))
    items = []
    for flag, spec in COMMANDS.get(head, (None, None, {}))[2].items():
        if spec and draw(st.integers(0, 9)):
            choices = spec if type(spec) is tuple else ("x",)
            items.append((flag, draw(st.sampled_from((*choices, "bogus")))))
    items += draw(st.lists(
        st.tuples(st.sampled_from(FLAG_TOKENS + KEY_TOKENS), st.sampled_from(VALUE_TOKENS))
        | st.tuples(st.sampled_from(ALPHABET)),
        max_size=5,
    ))
    return [head] + [token for item in draw(st.permutations(items)) for token in item]


@settings(max_examples=1000)
@given(argv=st.just([]) | command_lines())
def test_parser_agrees_with_argparse(argv):
    new = outcome(parse_command_line, argv)
    old = outcome(argparse_command_line, argv)
    assert new[0] != "exit" or new[1] in (0, 2), (argv, new)
    if new == old:
        return
    name = deliberate_difference(argv)
    assert name in DIFFERENCES, (argv, old, new)
    event(name)
    if name == "option before the command":
        assert new == ("exit", 2), (argv, new)
    if name == "help after a stray token":
        assert (old, new) == (("exit", 0), ("exit", 2)), (argv, old, new)
