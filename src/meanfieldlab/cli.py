"""Command-line front end.

Subcommands share a common flag set (--config, --out, --quiet).  Each one runs
its harness check, which returns a report and its output files as text;
``main`` writes those files only after the check returns, so a refused run
writes none.  It then prints one line per check item and exits with 0 on
pass, 1 on failure, 2 when a check was inconclusive because a diagnostic
limit (truncation, tolerance sweep) was hit.  A rejected configuration exits
with 1 and an ``error:`` line on stderr; a run refused before it allocates,
because its working set would exceed the budget (``grid.CapacityError``),
exits with 3 ("refused") and an ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness as hn
from .grid import CapacityError

EXIT_CODES = {"pass": 0, "fail": 1, "inconclusive": 2, "refused": 3}


# Each entry looks its check up in ``hn`` when it runs, so a wrapper installed
# on the harness module after import (a tracer, a test's counter) is the one called.
COMMANDS = {
    "hartree": lambda cfg, quiet: hn.hartree_check(cfg),
    "nbody": lambda cfg, quiet: hn.convergence_check(cfg, False, quiet),
    "rate": lambda cfg, quiet: hn.convergence_check(cfg, True, quiet),
    "bogoliubov": lambda cfg, quiet: hn.bogoliubov_check(cfg),
    "fock-check": lambda cfg, quiet: hn.cross_validate(cfg, quiet),
    "laguerre": lambda cfg, quiet: hn.laguerre_check(cfg),
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
        report, files = COMMANDS[args.command](cfg, args.quiet)
        for name, text in files.items():
            (out / name).write_text(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["refused" if isinstance(exc, CapacityError) else "fail"]
    if not args.quiet:
        for item in report.items:
            print(f"  {item.name}: {item.status} (measured {item.measured:.3e}, "
                  f"threshold {item.threshold:.3e})")
        print(f"{args.command}: {report.status}")
    return EXIT_CODES[report.status]


if __name__ == "__main__":
    sys.exit(main())
