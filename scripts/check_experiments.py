"""Fail when the regenerated paper tables drift from EXPERIMENTS.md.

EXPERIMENTS.md records the tables ``repro.harness.report`` prints at the
100000/40000 sizing, from its ``## Table 1`` section on.  This script
checks that every table row of a fresh report still appears there,
verbatim, and that the report prints as many rows as are recorded (a
dropped section or table fails too)::

    python -m repro.harness.report --measure 100000 --warmup 40000 \\
        > report.md
    python scripts/check_experiments.py report.md

Only table rows are compared (``|---|`` separators aside): the report's
header and verdict prose are not EXPERIMENTS.md's.  The exit status is 1,
with the missing rows listed, when any row is missing, the row counts
differ, or the report holds no table row at all.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Sequence

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

#: A markdown table separator row, such as ``|---|:--|``.
_SEPARATOR = re.compile(r"^\|[\s:|-]+\|$")


def table_rows(text: str) -> List[str]:
    """The markdown table rows of *text*, separators excluded."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("|") and not _SEPARATOR.match(line):
            rows.append(line)
    return rows


def recorded_rows(experiments: str) -> List[str]:
    """The table rows of EXPERIMENTS.md's report sections: those from
    ``## Table 1`` on (the verdict summary above them is not the
    report's)."""
    _, found, sections = experiments.partition("\n## Table 1 ")
    return table_rows(sections) if found else []


def main(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 1:
        print("usage: check_experiments.py REPORT", file=sys.stderr)
        return 2
    rows = table_rows(Path(args[0]).read_text(encoding="utf-8"))
    if not rows:
        print("the report holds no table row", file=sys.stderr)
        return 1
    recorded = recorded_rows(EXPERIMENTS.read_text(encoding="utf-8"))
    known = set(recorded)
    missing = [row for row in rows if row not in known]
    for row in missing:
        print(f"not in EXPERIMENTS.md: {row}", file=sys.stderr)
    if missing:
        print(f"{len(missing)} of {len(rows)} table rows drifted",
              file=sys.stderr)
    if len(rows) != len(recorded):
        print(f"the report has {len(rows)} table rows, EXPERIMENTS.md "
              f"records {len(recorded)}", file=sys.stderr)
    if missing or len(rows) != len(recorded):
        return 1
    print(f"all {len(rows)} table rows match EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
