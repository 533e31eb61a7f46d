"""Command-line front end.

Subcommands cover the whole pipeline: index a snapshot, rank bug reports,
blend rankings with smell values, evaluate and compare techniques, run the
relative-risk analysis, search the configuration space, and convert foreign
benchmark layouts. Every command is deterministic; reports embed or sit next
to a provenance manifest. Exit codes: 0 success, 1 internal error, 2 usage
or input error.

Each process runs one command, so start-up is paid per command: this module
holds only the parser, the run-config handling and main, main builds only
the subparser of the command it runs, and each command's body is a module
of smelloc.commands that main imports on dispatch.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Iterable, Sequence

from . import log
from .commands import STAT_METRICS, UsageError, require_file
from .stopwords import read_json


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for config-search's per-system sweeps (default 1)",
    )
    common.add_argument(
        "--run-config",
        default=None,
        help="JSON file of default flag values; explicit flags win",
    )
    common.add_argument("--verbose", action="store_true", help="log at INFO level")
    return common


def _index_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extensions", nargs="+", default=[".java"])
    p.add_argument("--stopwords")


def _rank_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--technique", required=True, help="vsm, rvsm, or external:<name>")
    p.add_argument("--bugs", required=True)
    p.add_argument("--snapshot")
    p.add_argument("--index")
    p.add_argument("--scores", help="score file for external techniques")
    p.add_argument("--bug", help="single bug id (default: all)")
    p.add_argument("--stopwords")
    p.add_argument("--out", required=True)


def _combine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", required=True)
    p.add_argument("--smells", required=True)
    p.add_argument("--bugs")
    p.add_argument(
        "--config",
        default="g1,a1,s1",
        help="granularity,aggregator,selector triple (default g1,a1,s1)",
    )
    p.add_argument("--selectors", help="selector-set JSON from the risk command")
    p.add_argument("--alpha", type=float)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--metric", choices=STAT_METRICS, default="map")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)


def _evaluate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rankings", required=True)
    p.add_argument("--bugs", required=True)
    p.add_argument("--compare", help="baseline ranking dump for paired statistics")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", required=True)


def _risk_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smells", required=True)
    p.add_argument("--modules", help="text file with one module id per line")
    p.add_argument("--snapshot", help="derive the universe from a source tree")
    p.add_argument("--bugs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--selectors-out")


def _config_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--systems", nargs="+", required=True, help="system descriptor JSON files")
    p.add_argument("--technique", required=True)
    p.add_argument("--selectors", help="selector-set JSON (default: derived from the data)")
    p.add_argument("--include-single-type", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)


def _convert_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bugrepo", required=True)
    p.add_argument("--strip-prefix", default="")
    p.add_argument("--out", required=True)


# Each command's help line and the function that adds its own flags, in the
# order -h lists them.
_COMMANDS = {
    "index": ("build a TF-IDF index cache", _index_flags),
    "rank": ("rank modules per bug report", _rank_flags),
    "combine": ("blend scores with smells", _combine_flags),
    "evaluate": ("score rankings against gold sets", _evaluate_flags),
    "risk": ("relative-risk table and selectors", _risk_flags),
    "config-search": ("evaluate every smell configuration", _config_search_flags),
    "convert": ("convert an XML bug repository to bug-report JSON", _convert_flags),
}


class _OneCommandParser(argparse.ArgumentParser):
    """The top level over one command's subparser. Its own errors, such as
    unrecognized arguments, print the full parser's usage line."""

    def error(self, message):
        build_parser().error(message)


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The CLI's parser. When argv starts with a command's name, only that
    command's subparser is built, which parses argv and reports its errors
    as the full parser does; otherwise (-h, an unknown command) every
    command's is."""
    one = bool(argv) and argv[0] in _COMMANDS
    parser = (_OneCommandParser if one else argparse.ArgumentParser)(
        prog="smelloc",
        description="Smell-aware re-ranking for bug localization",
    )
    common = _common_flags()
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )
    for name in [argv[0]] if one else _COMMANDS:
        help_text, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, parents=[common], help=help_text))
    return parser


def _flag_dests(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    return {a.dest: a for a in command._actions if a.option_strings}


def _run_config_defaults(
    path: str,
    command: argparse.ArgumentParser,
    commands: Iterable[argparse.ArgumentParser],
) -> dict:
    """The run config's values for the command's flags, converted and checked.

    Keys name flags without the leading dashes (``"alpha"``, ``"selectors-out"``).
    A key that names a flag of another command only is ignored, so one file
    can serve several commands; a key that names no flag of any command is
    an error, so a misspelt key is not dropped silently. A switch takes true
    or false; any other flag takes one string or number, read as if typed
    after the flag.
    """
    cfg = read_json(require_file(path, "run config"))
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: run config must be a JSON object")
    actions = _flag_dests(command)
    known = {dest for other in commands for dest in _flag_dests(other)}
    defaults = {}
    for key, value in cfg.items():
        where = f"{path}: key {key!r}"
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            if dest not in known:
                raise UsageError(f"{where} names no flag of any command")
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"{where}: expected true or false, got {value!r}")
            defaults[action.dest] = value
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"{where}: expected a string or a number, got {value!r}")
        try:
            converted = action.type(str(value)) if action.type else str(value)
        except (TypeError, ValueError):
            raise UsageError(
                f"{where}: invalid value {value!r} for {action.option_strings[0]}"
            ) from None
        if action.choices is not None and converted not in action.choices:
            raise UsageError(f"{where}: {value!r} is not one of {list(action.choices)}")
        defaults[action.dest] = converted if action.nargs is None else [converted]
    return defaults


def _apply_run_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Parse argv again with the run config's values as the command's defaults.

    argparse then applies its own rule: a default holds only for a flag the
    command line leaves out, so explicit flags win. The parser built here
    has every command, since a key of another command's flag is allowed.
    """
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    command = commands[args.command]
    command.set_defaults(
        **_run_config_defaults(args.run_config, command, commands.values())
    )
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        if args.run_config:
            args = _apply_run_config(args, argv)
        if args.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        # The manifest records the command line parsed here, however main
        # was called.
        args.argv = argv
        log.configure(args.verbose)
        command = import_module(
            f".commands.{args.command.replace('-', '_')}", __package__
        )
        return command.run(args)
    except (ValueError, OSError) as exc:  # UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
