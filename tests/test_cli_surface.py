"""The CLI's parser surface, pinned by tests/golden/cli_surface.json.

The golden records what a user can type and what each flag means:
every flag's option strings, dest, default, choices, ``required``,
metavar, help, nargs, action and type, each parser's mutually exclusive
groups, and the subcommands in order with their help. It does not
record the rendered ``--help`` text, whose layout argparse owns and
which varies across Python versions. Flags are keyed by name, so the
order a subcommand declares them in is not part of the surface.

Regenerate with ``pytest tests/test_cli_surface.py --update-golden``.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import _USAGE_HINT, build_parser

GOLDEN_SURFACE = Path(__file__).parent / "golden" / "cli_surface.json"


def _subparsers(parser: argparse.ArgumentParser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _flag(action: argparse.Action) -> dict:
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": repr(action.default),
        "choices": (None if action.choices is None
                    else list(action.choices)),
        "required": action.required,
        "metavar": action.metavar,
        "help": action.help,
        "nargs": action.nargs,
        "action": type(action).__name__,
        "type": getattr(action.type, "__name__", action.type),
    }


def _parser_surface(parser: argparse.ArgumentParser) -> dict:
    return {
        "prog": parser.prog,
        "description": parser.description,
        "flags": {"/".join(action.option_strings) or action.dest:
                  _flag(action) for action in parser._actions},
        "exclusive_groups": [
            {"required": group.required,
             "flags": sorted("/".join(action.option_strings)
                             for action in group._group_actions)}
            for group in parser._mutually_exclusive_groups],
    }


def cli_surface(parser: argparse.ArgumentParser) -> dict:
    """The parser's surface as plain JSON data (see the module doc)."""
    sub = _subparsers(parser)
    return {
        "global": _parser_surface(parser),
        "subcommands": [{"name": choice.dest, "help": choice.help}
                        for choice in sub._choices_actions],
        "subcommand_parsers": {name: _parser_surface(subparser)
                               for name, subparser in sub.choices.items()},
    }


@pytest.fixture(scope="module")
def golden_surface(request):
    surface = cli_surface(build_parser())
    if request.config.getoption("--update-golden"):
        GOLDEN_SURFACE.write_text(
            json.dumps(surface, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if not GOLDEN_SURFACE.exists():
        pytest.fail("tests/golden/cli_surface.json missing; regenerate "
                    "with `pytest tests/test_cli_surface.py "
                    "--update-golden`")
    return json.loads(GOLDEN_SURFACE.read_text(encoding="utf-8"))


def test_parser_matches_golden_surface(golden_surface):
    surface = json.loads(json.dumps(cli_surface(build_parser())))
    assert surface["subcommands"] == golden_surface["subcommands"]
    assert surface["global"] == golden_surface["global"]
    for name, expected in golden_surface["subcommand_parsers"].items():
        assert surface["subcommand_parsers"][name] == expected, name
    assert surface == golden_surface


def test_usage_hint_lists_the_parser_subcommands_in_order():
    listed = re.fullmatch(r"usage: repro-pipeline \[options\] \{(.*)\} \.\.\. "
                          r"\(see repro-pipeline --help\)", _USAGE_HINT)
    assert listed is not None, _USAGE_HINT
    assert listed.group(1).split(",") == list(
        _subparsers(build_parser()).choices)
