# tests/test_cli_parser.py
"""The option-table parser against the argparse parser it replaced: on every
valid argument list the two give the same attribute values."""
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from oracles import argparse_parser  # noqa: E402

from dpsmap import cli  # noqa: E402

TABLE = cli.build_parser()
ORACLE = argparse_parser()
# a token argparse reads as a negative number rather than as a flag
NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")

# argparse takes a token starting with "-" for a flag, so such text is
# drawn only where argparse reads it as a value: after "="
TEXT = st.text(max_size=12).filter(lambda text: text != "--")
POSITIONAL = TEXT.filter(lambda text: not text.startswith("-"))
VALUES = {int: st.integers().map(str),
          float: st.one_of(st.floats(allow_nan=False).map(repr), st.integers().map(str)),
          str: TEXT}


@st.composite
def valid_argv(draw):
    """A subcommand, a subset of its flags in any order, each written
    ``--flag value`` or ``--flag=value``, and its positionals between them."""
    name = draw(st.sampled_from(list(TABLE)))
    spec = TABLE[name]
    groups = []
    for flag in draw(st.lists(st.sampled_from(list(spec.flags)), unique=True)):
        kind = spec.flags[flag].kind
        if kind is bool:
            groups.append([f"--{flag}"])
            continue
        value = draw(st.sampled_from(kind) if isinstance(kind, tuple) else VALUES[kind])
        spaced = (draw(st.booleans())
                  and (not value.startswith("-") or NEGATIVE.fullmatch(value)))
        groups.append([f"--{flag}", value] if spaced else [f"--{flag}={value}"])
    count = len(spec.positionals)
    slots = draw(st.lists(st.integers(0, len(groups)), min_size=count, max_size=count))
    values = draw(st.lists(POSITIONAL, min_size=count, max_size=count))
    # inserted last slot first, so the positionals keep their order
    for slot, value in reversed(list(zip(sorted(slots), values))):
        groups.insert(slot, [value])
    return [name] + [token for group in groups for token in group]


@settings(max_examples=150, deadline=None, database=None)
@given(valid_argv())
def test_table_parser_matches_argparse(argv):
    assert vars(cli.parse_args(TABLE, argv)) == vars(ORACLE.parse_args(argv))
