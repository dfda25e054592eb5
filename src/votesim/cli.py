"""Command-line scenario runner.

    votesim run <config.yaml> [--seed N] [--out DIR] [--trace]
    votesim diff <report_a.json> <report_b.json>
    votesim list-scenarios

`run` accepts either a path or the name of a bundled scenario. Exit codes:
0 success / empty diff, 1 nonempty diff, 2 invalid or unreadable config,
unreadable report, an `--out` that cannot be a directory, or usage.
"""

import argparse
import json
import os
import sys

from .config import ConfigInvalid, bundled_scenarios, load_config
from .engine import run_engine
from .report import build_report, diff_reports, metrics_chunks, report_chunks


def _resolve_config(name_or_path: str) -> str:
    if os.path.exists(name_or_path):
        return name_or_path
    bundled = bundled_scenarios()
    if name_or_path in bundled:
        return bundled[name_or_path]
    raise ConfigInvalid(
        f"{name_or_path}: no such file or bundled scenario "
        f"(bundled: {', '.join(sorted(bundled))})")


def cmd_run(args) -> int:
    config = load_config(_resolve_config(args.config))
    if args.seed is not None:
        config.seed = args.seed
    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file, or a path under one
        print(f"output error: {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    engine = run_engine(config)
    report = build_report(engine)
    base = os.path.join(out_dir, f"{config.name}-seed{config.seed}")
    report_path = f"{base}.report.json"
    # piece by piece, so the whole text is never held or encoded at once
    with open(report_path, "w") as f:
        f.writelines(report_chunks(report))
    with open(f"{base}.metrics.tsv", "w") as f:
        f.writelines(metrics_chunks(report))
    if args.trace:
        with open(f"{base}.trace.log", "w") as f:
            f.writelines(engine.sim.iter_trace_text())
    tally = report["tally"]
    print(f"scenario={config.name} seed={config.seed} "
          f"counted={report['votes']['counted']} "
          f"winner={tally['winner']} margin={tally['margin']} "
          f"manipulated={report['winner_flip']['manipulated']} "
          f"complaints={report['complaints']['total']}")
    print(f"report written to {report_path}")
    return 0


def cmd_diff(args) -> int:
    reports = []
    for path in (args.a, args.b):
        try:
            with open(path, encoding="utf-8") as f:
                reports.append(json.load(f))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            print(f"report error: {path}: {getattr(exc, 'strerror', None) or exc}",
                  file=sys.stderr)
            return 2
    delta = diff_reports(*reports)
    for path, left, right in delta:
        print(f"{path}: {json.dumps(left)} != {json.dumps(right)}")
    if not delta:
        print("reports identical")
        return 0
    return 1


def cmd_list(_args) -> int:
    for name in sorted(bundled_scenarios()):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votesim",
        description="Deterministic election-attack scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its report")
    p_run.add_argument("config", help="config path or bundled scenario name")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the full event trace")
    p_run.set_defaults(func=cmd_run)

    p_diff = sub.add_parser("diff", help="structured delta of two reports")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.set_defaults(func=cmd_diff)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
