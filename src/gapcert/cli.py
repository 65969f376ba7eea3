"""Command-line entry point.

One subcommand per task (`certify`, `limit-map`, `transversality`, `sdp`,
`holder`, `splitting`, `stability`), plus `sweep` to run several
configurations in one process, `reproduce-paper` for the built-in worked
examples and `report` to pretty-print a saved report.  Exit codes: 0 when
every verdict is Certified/Pass, 1 when any task is Refuted/Fail/Error,
2 on configuration problems.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .config import TASK_NAMES, load_config
from .errors import ConfigError
from .report import (
    Report,
    exit_code,
    format_report,
    load_report,
    reproduce_paper,
    run,
    write_report,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcert",
        description="Certify singular-value gap domination for free-group "
        "representations and validate the induced boundary maps.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name in TASK_NAMES:
        sub = subparsers.add_parser(
            name, help=f"run the {name} task from a configuration file"
        )
        _add_run_flags(sub, config_required=True)
        sub.set_defaults(handler=_make_task_handler(name))

    sweep = subparsers.add_parser(
        "sweep",
        help="run each configuration's own tasks in one process; configs of "
        "one representation share its certificates and limit-plane walks",
    )
    sweep.add_argument(
        "configs", nargs="+", metavar="CONFIG", help="configuration JSON paths"
    )
    sweep.add_argument(
        "--out-dir",
        default=None,
        help="write each report here, as NAME-report.json for config NAME.json",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress the summaries on stdout"
    )
    sweep.set_defaults(handler=_handle_sweep)

    reproduce = subparsers.add_parser(
        "reproduce-paper",
        help="re-run the built-in worked examples and check their outcomes",
    )
    _add_output_flags(reproduce)
    reproduce.set_defaults(handler=_handle_reproduce)

    pretty = subparsers.add_parser(
        "report", help="pretty-print a previously saved report"
    )
    pretty.add_argument("path", help="path of a saved report JSON document")
    pretty.set_defaults(handler=_handle_pretty)

    return parser


def _add_run_flags(sub: argparse.ArgumentParser, config_required: bool) -> None:
    sub.add_argument(
        "--config", required=config_required, help="configuration JSON path"
    )
    sub.add_argument(
        "--seed", type=int, default=None, help="override the configured seed"
    )
    sub.add_argument(
        "--task",
        action="append",
        choices=TASK_NAMES,
        default=None,
        metavar="NAME",
        help="additional task to run after this subcommand's own "
        "(repeatable; order preserved)",
    )
    _add_output_flags(sub)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write the report JSON here")
    sub.add_argument(
        "--quiet", action="store_true", help="suppress the summary on stdout"
    )


def _make_task_handler(task: str):
    def handler(args: argparse.Namespace) -> int:
        config = load_config(args.config)
        _check_out(args.out)
        tasks = [task]
        for extra in args.task or ():
            if extra not in tasks:
                tasks.append(extra)
        config = config.with_overrides(seed=args.seed, tasks=tuple(tasks))
        report = run(config)
        _emit(report, args)
        return exit_code(report)

    return handler


def _handle_sweep(args: argparse.Namespace) -> int:
    # every config is loaded before the first runs, so a bad one costs no work
    configs = [load_config(path) for path in args.configs]
    names = [
        os.path.splitext(os.path.basename(path))[0] + "-report.json"
        for path in args.configs
    ]
    if args.out_dir is not None:
        if len(set(names)) < len(names):
            raise ConfigError("sweep --out-dir needs configs of distinct file names")
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make --out-dir {args.out_dir!r}: {exc}") from exc
    code = 0
    for path, name, config in zip(args.configs, names, configs):
        report = run(config)
        if args.out_dir is not None:
            write_report(report, os.path.join(args.out_dir, name))
        if not args.quiet:
            print(f"== {path}")
            print(format_report(report.payload()))
        code = max(code, exit_code(report))
    return code


def _handle_reproduce(args: argparse.Namespace) -> int:
    _check_out(args.out)
    report = reproduce_paper()
    _emit(report, args)
    return exit_code(report)


def _handle_pretty(args: argparse.Namespace) -> int:
    print(format_report(load_report(args.path)))
    return 0


def _check_out(path: Optional[str]) -> None:
    # before the run, so a report that cannot be written costs no work
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write --out {path!r}: no such directory")


def _emit(report: Report, args: argparse.Namespace) -> None:
    if args.out:
        write_report(report, args.out)
    if not args.quiet:
        print(format_report(report.payload()))


if __name__ == "__main__":
    sys.exit(main())
