"""Command-line front end.

Subcommands share a common flag set (--config, --out, --quiet). Each one runs
its harness check, writes its output files, prints one line per check item,
and exits with 0 on pass, 1 on failure, 2 when a check was inconclusive
because a diagnostic limit (truncation, tolerance sweep) was hit.  A rejected
configuration or a run refused for its memory footprint exits with 1 and an
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness as hn

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}


def cmd_hartree(cfg, out: Path, quiet: bool) -> hn.Report:
    report, table = hn.hartree_check(cfg)
    (out / "hartree.csv").write_text(table)
    return report


def cmd_nbody(cfg, out: Path, quiet: bool) -> hn.Report:
    return _convergence(cfg, out, quiet, fit=False)


def cmd_rate(cfg, out: Path, quiet: bool) -> hn.Report:
    return _convergence(cfg, out, quiet, fit=True)


def _convergence(cfg, out: Path, quiet: bool, fit: bool) -> hn.Report:
    run, report = hn.convergence_check(cfg, fit, quiet)
    hn.save_records(run.records, out / "records.csv")
    hn.save_manifest(run, out / "manifest.json")
    return report


def cmd_bogoliubov(cfg, out: Path, quiet: bool) -> hn.Report:
    report, table = hn.bogoliubov_check(cfg)
    (out / "bogoliubov.csv").write_text(table)
    return report


def cmd_fock_check(cfg, out: Path, quiet: bool) -> hn.Report:
    report = hn.cross_validate(cfg, quiet=quiet)
    with open(out / "fock_check.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def cmd_laguerre(cfg, out: Path, quiet: bool) -> hn.Report:
    report, table = hn.laguerre_check(cfg)
    (out / "laguerre.csv").write_text(table)
    return report


COMMANDS = {
    "hartree": cmd_hartree,
    "nbody": cmd_nbody,
    "rate": cmd_rate,
    "bogoliubov": cmd_bogoliubov,
    "fock-check": cmd_fock_check,
    "laguerre": cmd_laguerre,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="meanfieldlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON experiment config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = hn.ExperimentConfig.from_json(args.config) if args.config else hn.ExperimentConfig()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = COMMANDS[args.command](cfg, out, args.quiet)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["fail"]
    if not args.quiet:
        for item in report.items:
            print(f"  {item.name}: {item.status} (measured {item.measured:.3e}, "
                  f"threshold {item.threshold:.3e})")
        print(f"{args.command}: {report.status}")
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
