"""Paired benchmark runs of two checkouts, written to one BENCH_<n>.json.

    python scripts/bench_pairs.py --base ../parent --change . \
        --workload detect-hires --seeds 5 --out BENCH_18.json

runs `perfbench/run.py --trace 0` for each workload in both checkouts, once
per seed (1..N), alternating which checkout goes first (the base on odd
seeds), so slow drift of the machine falls on both sides alike. Each run is
a fresh child process from the root of its checkout, as the benchmark runs
it. `--workload` may be repeated; each workload gets `--seeds` pairs.

`--step-batch B` (repeatable) also runs one paper training step,
`scripts/step_memory.py --batch B`, once in each checkout: a fresh child
each, from the root of its checkout with its own `src` on PYTHONPATH, one
OpenBLAS thread and pinned to the CPU the benchmark pins to, alternating
which goes first. With `--tiny` the step runs at a tiny shape instead of
the paper's.

The file holds, per workload and end-to-end metric of BENCHMARK.json, each
tree's values, median and [q1, q3], the per-pair ratio change / base and
how many pairs improved (moved in the metric's better direction); per tree,
the `env:` line of its runs and its `git rev-parse HEAD` with a dirty flag.
Per step batch it holds each tree's peak RSS, forward and backward seconds
and the SHA-256 of its logits and gradients. The exit code is nonzero if a
run printed no result or failed a gate, or if the two trees' steps gave
different SHA-256s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

TREES = ("base", "change")

# the shape the CI smoke run of scripts/step_memory.py uses
TINY_STEP = ["--input", "3x8x16x16", "--filters", "4,8", "--hidden", "8"]
STEP_FIELDS = ("peak_rss_mb", "forward_s", "backward_s", "sha256")


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


def run_step(tree: Path, batch: int, tiny: bool) -> dict:
    """One `scripts/step_memory.py --batch B` run of `tree`: the fields of
    STEP_FIELDS from the JSON line it prints."""
    cmd = [sys.executable, "scripts/step_memory.py", "--batch", str(batch)] + (
        TINY_STEP if tiny else [])
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    cpu = max(os.sched_getaffinity(0))  # as perfbench/run.py pins its runs
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: {tree}: step at batch {batch} printed no result "
                         f"(exit {proc.returncode})") from None
    return {field: result[field] for field in STEP_FIELDS}


def pair_steps(trees: dict, batches: list[int], tiny: bool) -> dict:
    out = {}
    for k, batch in enumerate(batches):
        first = TREES if k % 2 == 0 else TREES[::-1]
        runs = {}
        for name in first:
            runs[name] = run_step(trees[name], batch, tiny)
            print(f"step batch {batch} {name}: peak_rss_mb {runs[name]['peak_rss_mb']}",
                  flush=True)
        out[str(batch)] = {"order": list(first), **{t: runs[t] for t in TREES},
                           "same_sha256": runs["base"]["sha256"] == runs["change"]["sha256"]}
    return out


def summary(values: list[float]) -> dict:
    q1, q3 = np.percentile(values, [25, 75])
    return {"values": values, "median": statistics.median(values),
            "q1_q3": [float(q1), float(q3)]}


def pair_workload(trees: dict, workload: str, seeds: list[int], seconds: float,
                  tiny: bool, metrics: list[dict]) -> dict:
    runs = {name: [] for name in TREES}
    order = []
    for seed in seeds:
        first = TREES if seed % 2 else TREES[::-1]
        order.append(list(first))
        for name in first:
            run = run_once(trees[name], workload, seed, seconds, tiny)
            runs[name].append(run)
            value = run["result"]["metrics"]["items_per_s"]["value"]
            print(f"{workload} seed {seed} {name}: items_per_s {value:.6g}", flush=True)

    out = {"seeds": seeds, "order": order, "metrics": {}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {t: [r["result"]["metrics"][name]["value"] for r in runs[t]] for t in TREES}
        ratios = [c / b for b, c in zip(vals["base"], vals["change"])]
        out["metrics"][name] = {
            "unit": m["unit"], "better": m["better"],
            **{t: summary(vals[t]) for t in TREES},
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "pairs_improved": sum(r > 1 if higher else r < 1 for r in ratios),
            "pairs": len(ratios),
        }
    for t in TREES:
        out[t] = {
            "env": sorted({r["env"].rsplit(" seed=", 1)[0] for r in runs[t]}),
            "failed": [r["result"]["failed"] for r in runs[t]],
            "attempted": [r["result"]["attempted"] for r in runs[t]],
            "returncodes": [r["returncode"] for r in runs[t]],
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
    p.add_argument("--seeds", type=int, default=5, help="pairs per workload (seeds 1..N)")
    p.add_argument("--seconds", type=float, default=15.0, help="loop seconds per run")
    p.add_argument("--tiny", action="store_true", help="tiny shapes (smoke test)")
    p.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    if not args.workload and not args.step_batch:
        p.error("give at least one --workload or --step-batch")
    if any(b < 1 for b in args.step_batch):
        p.error("--step-batch must be >= 1")

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
