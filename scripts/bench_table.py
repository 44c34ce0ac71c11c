"""The measured numbers of one BENCH_<n>.json, as a markdown table.

    python scripts/bench_table.py BENCH_39.json

reads a file that `scripts/bench_pairs.py` wrote and prints a title line
naming the file, the commit of its change tree, the loop seconds of a run
and the `env:` line of the change tree's runs, and two tables of the change
tree's numbers:
- per workload and end-to-end metric the file holds: the median with its
  unit, [q1, q3], and the two verdicts of `bench_pairs.compare`,
  `gain_rule_met` and `within_bound`;
- per step batch: the step's peak RSS, its peak RSS at glibc's mmap
  threshold, the peak RSS after the model build, forward and backward
  seconds as recorded, and the first 8 hex digits of its SHA-256. A field
  the file holds as None (a checkout whose step script did not print it)
  prints as `n/a`.
README.md holds this output for its newest BENCH file, between two marker
comments that name the file, and a test checks that it is this output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

STEP_COLUMNS = ("peak_rss_mb", "mmap_threshold_peak_rss_mb", "build_peak_rss_mb", "forward_s",
                "backward_s")


def _num(value: float) -> str:
    """Four significant digits, or every digit before the point."""
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def table(path: Path) -> str:
    """The markdown table of the BENCH file at `path`, without a final newline."""
    report = json.loads(path.read_text())
    commit = report["trees"]["change"]["commit"]
    envs = sorted({env for w in report["workloads"].values() for env in w["change"]["env"]})
    lines = [f"`{path.name}`: the change tree "
             + (f"at commit `{commit}`" if commit else "with no recorded commit")
             + f", {report['seconds']:g} s per workload run"
             + "".join(f", `{env}`" for env in envs) + "."]
    if report["workloads"]:
        lines += ["", "| workload | metric | median | [q1, q3] | gain_rule_met | within_bound |",
                  "| --- | --- | --- | --- | --- | --- |"]
        for workload, w in report["workloads"].items():
            for name, m in w["metrics"].items():
                q1, q3 = m["change"]["q1_q3"]
                lines.append(f"| {workload} | {name} | {_num(m['change']['median'])} {m['unit']} "
                             f"| [{_num(q1)}, {_num(q3)}] | {_yes(m['gain_rule_met'])} "
                             f"| {_yes(m['within_bound'])} |")
    if report["steps"]:
        lines += ["", "| step batch | " + " | ".join(STEP_COLUMNS) + " | sha256 |",
                  "| --- " * (len(STEP_COLUMNS) + 2) + "|"]
        for batch, step in report["steps"].items():
            change = step["change"]
            lines.append(f"| {batch} | " + " | ".join(str(change[c]) if change[c] is not None
                                                      else "n/a" for c in STEP_COLUMNS)
                         + f" | `{change['sha256'][:8]}` |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("bench", type=Path, help="a BENCH_<n>.json that scripts/bench_pairs.py wrote")
    print(table(p.parse_args(argv).bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
