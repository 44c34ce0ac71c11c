"""Paired benchmark runs of two checkouts, written to one BENCH_<n>.json.

    python scripts/bench_pairs.py --base ../parent --change . \
        --workload detect-hires --out BENCH_18.json

runs `perfbench/run.py --trace 0` for each workload in both checkouts, once
per seed (1..N), alternating which checkout goes first (the base on odd
seeds), so slow drift of the machine falls on both sides alike. Each run is
a fresh child process from the root of its checkout, as the benchmark runs
it. `--workload` may be repeated; each workload gets `--seeds` pairs, 10 by
default: the fewest that can meet the gain rule.

`--step-batch B` (repeatable) also runs one paper training step,
`scripts/step_memory.py --batch B`, once in each checkout: a fresh child
each, from the root of its checkout with its own `src` on PYTHONPATH, one
OpenBLAS thread and pinned to the CPU the benchmark pins to, alternating
which goes first. Each tree's step then runs once more with
`MALLOC_MMAP_THRESHOLD_=131072`, so that glibc returns each freed block
above 128 KB to the system at once: the first run's peak less this one's
is about the freed heap glibc kept at the peak. With `--tiny` the step
runs at a tiny shape instead of the paper's.

The file holds, per workload and end-to-end metric of BENCHMARK.json, each
tree's values, median and [q1, q3], the per-pair ratio change / base, how
many pairs improved (moved in the metric's better direction) and which
share of pairs that is, and two verdicts (see `compare`): `gain_rule_met`,
whether a claimed gain would stand, and `within_bound`, whether the change
stays within the metric's regression bound. It prints one line per
workload and metric with both. Per tree it holds the `env:` line of its
runs and its `git rev-parse HEAD` with a dirty flag.
Per step batch it holds each tree's peak RSS, the peak RSS after the model
build (None where that tree's script does not print it), forward and
backward seconds, the SHA-256 of its logits and gradients, and the peak RSS
of the run at the mmap threshold (`mmap_threshold_peak_rss_mb`). Per run,
workload and step alike, it holds `others_busy`: the busy share of the
ticks the CPUs other than the run's pinned one counted while it ran, and
`pinned_steal`: the steal share of the pinned CPU's ticks, the time the
hypervisor ran something else on it. Both come from /proc/stat before and
after the run (None where /proc/stat cannot be read). A busy second CPU
moved `train-desk` `items_per_s` by about 10 %. The exit
code is nonzero if a run printed no result or failed a gate, or if the two
trees' steps gave different SHA-256s.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

TREES = ("base", "change")

# the tiny shape tests/test_step_memory.py runs scripts/step_memory.py at
TINY_STEP = ["--cuboid-len", "8", "--cuboid-size", "16", "--filters", "4,8", "--hidden", "8"]
STEP_FIELDS = ("peak_rss_mb", "build_peak_rss_mb", "forward_s", "backward_s", "sha256")
# glibc's mmap threshold of a step's second run (MALLOC_MMAP_THRESHOLD_)
MMAP_THRESHOLD = 131072
# a claimed gain needs at least this many pairs
GAIN_PAIRS = 10
PROC_STAT = Path("/proc/stat")


def pinned_cpu() -> int:
    """The CPU each run is pinned to, as perfbench/run.py pins itself."""
    return max(os.sched_getaffinity(0))


def cpu_ticks() -> dict | None:
    """{CPU index: (busy ticks, ticks, steal ticks)} from the `cpuN` lines of
    /proc/stat, or None where it cannot be read. Busy is every tick but idle
    and iowait."""
    try:
        lines = PROC_STAT.read_text().splitlines()
    except OSError:
        return None
    ticks = {}
    for line in lines:
        fields = line.split()
        if fields and re.fullmatch("cpu[0-9]+", fields[0]):
            # user nice system idle iowait irq softirq steal
            counts = [int(f) for f in fields[1:9]]
            ticks[int(fields[0][3:])] = (sum(counts) - counts[3] - counts[4], sum(counts),
                                         counts[7])
    return ticks


def others_busy(before: dict | None, after: dict | None, pin: int) -> float | None:
    """The busy share of the ticks every CPU but `pin` counted between two
    cpu_ticks readings; None if either is None or those CPUs counted none."""
    if before is None or after is None:
        return None
    cpus = (before.keys() & after.keys()) - {pin}
    busy = sum(after[c][0] - before[c][0] for c in cpus)
    total = sum(after[c][1] - before[c][1] for c in cpus)
    return round(busy / total, 4) if total > 0 else None


def pinned_steal(before: dict | None, after: dict | None, pin: int) -> float | None:
    """The steal share of the ticks CPU `pin` counted between two cpu_ticks
    readings; None if either is None or lacks `pin`, or it counted none."""
    if before is None or after is None or pin not in before.keys() & after.keys():
        return None
    total = after[pin][1] - before[pin][1]
    return round((after[pin][2] - before[pin][2]) / total, 4) if total > 0 else None


def busy_around(run, *args):
    """run(*args), and the others_busy and pinned_steal shares while it ran."""
    before = cpu_ticks()
    out = run(*args)
    after, pin = cpu_ticks(), pinned_cpu()
    return out, others_busy(before, after, pin), pinned_steal(before, after, pin)


def git_state(tree: Path, given: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"path": str(given), "commit": head,
            "dirty": None if status is None else bool(status)}


def run_once(tree: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One `perfbench/run.py` run: its env line, result JSON and exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((line.removeprefix("env: ") for line in lines if line.startswith("env: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {tree}: {workload} seed {seed} printed no result "
                         f"(exit {proc.returncode})") from None
    return {"env": env, "returncode": proc.returncode, "result": result}


def run_step(tree: Path, batch: int, tiny: bool, mmap_threshold: int | None = None) -> dict:
    """One `scripts/step_memory.py --batch B` run of `tree`: the fields of
    STEP_FIELDS from the JSON line it prints. It runs with glibc's mmap
    threshold set to `mmap_threshold` bytes, or with glibc's own (the
    variable removed) for None."""
    cmd = [sys.executable, "scripts/step_memory.py", "--batch", str(batch)] + (
        TINY_STEP if tiny else [])
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    if mmap_threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = str(mmap_threshold)
    cpu = pinned_cpu()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {tree}: step at batch {batch} printed no result "
                         f"(exit {proc.returncode})") from None
    # a checkout older than build_peak_rss_mb does not print it: None
    return {field: result.get(field) for field in STEP_FIELDS}


def pair_steps(trees: dict, batches: list[int], tiny: bool) -> dict:
    out = {}
    for k, batch in enumerate(batches):
        first = TREES if k % 2 == 0 else TREES[::-1]
        runs, busy, steal = {}, {}, {}
        for name in first:
            runs[name], busy[name], steal[name] = busy_around(run_step, trees[name], batch, tiny)
            runs[name]["mmap_threshold_peak_rss_mb"] = run_step(
                trees[name], batch, tiny, MMAP_THRESHOLD)["peak_rss_mb"]
            print(f"step batch {batch} {name}: peak_rss_mb {runs[name]['peak_rss_mb']}, "
                  f"at MALLOC_MMAP_THRESHOLD_={MMAP_THRESHOLD} "
                  f"{runs[name]['mmap_threshold_peak_rss_mb']}, "
                  f"after the build {runs[name]['build_peak_rss_mb']}, "
                  f"others busy {busy[name]}, steal {steal[name]}", flush=True)
        out[str(batch)] = {"order": list(first), **{t: runs[t] for t in TREES},
                           "same_sha256": runs["base"]["sha256"] == runs["change"]["sha256"],
                           "others_busy": {t: busy[t] for t in TREES},
                           "pinned_steal": {t: steal[t] for t in TREES}}
    return out


def summary(values: list[float]) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"values": values, "median": statistics.median(values),
            "q1_q3": [float(q1), float(q3)]}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    """The pairs of one end-to-end metric of BENCHMARK.json and its verdicts.

    A pair is won when the change moved in the metric's better direction;
    a tie counts for neither side. `gain_rule_met`: there are at least
    GAIN_PAIRS pairs, the change won at least 9 of each 10 of them, and its
    median is better than the base's by more than the base's q3 - q1.
    `within_bound`: the change's median is worse than the base's by no more
    than the metric's relative `bound`.
    """
    higher = metric["better"] == "higher"
    ratios = [c / b for b, c in zip(base, change)]
    won = sum(r > 1 if higher else r < 1 for r in ratios)
    sides = {"base": summary(base), "change": summary(change)}
    q1, q3 = sides["base"]["q1_q3"]
    gain = sides["change"]["median"] - sides["base"]["median"]
    if not higher:
        gain = -gain
    return {
        "unit": metric["unit"], "better": metric["better"], **sides,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "pairs_improved": won,
        "pairs": len(ratios),
        "won_fraction": won / len(ratios),
        "gain_rule_met": (len(ratios) >= GAIN_PAIRS and 10 * won >= 9 * len(ratios)
                          and gain > q3 - q1),
        "bound": metric["bound"],
        "within_bound": gain >= -metric["bound"] * sides["base"]["median"],
    }


def verdict_line(workload: str, name: str, m: dict) -> str:
    base, change = m["base"], m["change"]
    return (f"{workload} {name}: median {base['median']:.6g} -> {change['median']:.6g} "
            f"(base q1-q3 {base['q1_q3'][0]:.6g}-{base['q1_q3'][1]:.6g}), "
            f"median ratio {m['median_ratio']:.4g}, won {m['pairs_improved']}/{m['pairs']}, "
            f"gain rule {'met' if m['gain_rule_met'] else 'not met'}, "
            f"{'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']:g}")


def pair_workload(trees: dict, workload: str, seeds: list[int], seconds: float,
                  tiny: bool, metrics: list[dict]) -> dict:
    runs = {name: [] for name in TREES}
    busy = {name: [] for name in TREES}
    steal = {name: [] for name in TREES}
    order = []
    for seed in seeds:
        first = TREES if seed % 2 else TREES[::-1]
        order.append(list(first))
        for name in first:
            run, others, stolen = busy_around(run_once, trees[name], workload, seed, seconds,
                                              tiny)
            runs[name].append(run)
            busy[name].append(others)
            steal[name].append(stolen)
            value = run["result"]["metrics"]["items_per_s"]["value"]
            print(f"{workload} seed {seed} {name}: items_per_s {value:.6g}, "
                  f"others busy {others}, steal {stolen}", flush=True)

    out = {"seeds": seeds, "order": order, "metrics": {}}
    for m in metrics:
        name = m["name"]
        vals = {t: [r["result"]["metrics"][name]["value"] for r in runs[t]] for t in TREES}
        out["metrics"][name] = compare(m, vals["base"], vals["change"])
        print(verdict_line(workload, name, out["metrics"][name]), flush=True)
    for t in TREES:
        out[t] = {
            "env": sorted({r["env"].rsplit(" seed=", 1)[0] for r in runs[t]}),
            "failed": [r["result"]["failed"] for r in runs[t]],
            "attempted": [r["result"]["attempted"] for r in runs[t]],
            "returncodes": [r["returncode"] for r in runs[t]],
            "others_busy": busy[t],
            "pinned_steal": steal[t],
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", type=Path, required=True, help="checkout measured as the base")
    p.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    p.add_argument("--workload", action="append", default=[],
                   help="benchmark workload; repeat for several")
    p.add_argument("--step-batch", type=int, action="append", default=[], metavar="B",
                   help="also run scripts/step_memory.py --batch B in both checkouts; "
                        "repeat for several")
    p.add_argument("--seeds", type=int, default=GAIN_PAIRS,
                   help="pairs per workload (seeds 1..N)")
    p.add_argument("--seconds", type=float, default=15.0, help="loop seconds per run")
    p.add_argument("--tiny", action="store_true",
                   help="tiny shapes (smoke test); a --step-batch pair then passes "
                        "--cuboid-len/--cuboid-size, so both checkouts' "
                        "scripts/step_memory.py must take those flags")
    p.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    if not args.workload and not args.step_batch:
        p.error("give at least one --workload or --step-batch")
    if any(b < 1 for b in args.step_batch):
        p.error("--step-batch must be >= 1")
    if not args.out.parent.is_dir():  # refused before the runs, not after them
        p.error(f"--out: no directory {args.out.parent}")

    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.seeds + 1))
    report = {
        "command": " ".join(["scripts/bench_pairs.py", *(argv if argv is not None
                                                         else sys.argv[1:])]),
        "seconds": args.seconds, "tiny": args.tiny,
        "ratio": "change / base, per seed",
        "trees": {t: git_state(trees[t], getattr(args, t)) for t in TREES},
        "workloads": {w: pair_workload(trees, w, seeds, args.seconds, args.tiny,
                                       spec["end_to_end"])
                      for w in args.workload},
        "steps": pair_steps(trees, args.step_batch, args.tiny),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    ok = all(code == 0 and not failed
             for w in report["workloads"].values() for t in TREES
             for code, failed in zip(w[t]["returncodes"], w[t]["failed"]))
    for batch, step in report["steps"].items():
        if not step["same_sha256"]:
            print(f"error: the step at batch {batch} gave different SHA-256s", file=sys.stderr)
            ok = False
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
