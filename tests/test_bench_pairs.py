"""scripts/bench_pairs.py with `run_once` replaced by a fake benchmark: the
pair order, the per-pair ratios, the count of improved pairs and the gain
and bound verdicts; and its training-step runs, with `run_step` faked and
once for real at a tiny shape. scripts/bench_table.py on a file the faked
runs wrote, and on the BENCH file whose table README.md holds."""

import importlib.util
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _script("bench_pairs")
bench_table = _script("bench_table")


def _trees(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for tree in (base, change):
        tree.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change)
    return base, change


def _fake(calls, failed_at=None):
    """items_per_s 100*seed on the base and 150*seed on the change; peak RSS
    and set-up time higher on the change for odd seeds only."""
    def run_once(tree, workload, seed, seconds, tiny):
        side = tree.name
        calls.append((workload, seed, side))
        change = side == "change"
        worse = change and seed % 2
        values = {"items_per_s": (150 if change else 100) * seed,
                  "peak_rss_mb": 110.0 if worse else 100.0,
                  "setup_s": 2.0 if worse else (0.5 if change else 1.0)}
        failed = int((seed, side) == failed_at)
        return {"env": f"nproc=2 cpus=[1] seed={seed}", "returncode": failed,
                "result": {"failed": failed, "attempted": 3,
                           "metrics": {k: {"value": v} for k, v in values.items()}}}
    return run_once


def test_pairs_alternate_and_ratios_count(tmp_path, monkeypatch):
    base, change = _trees(tmp_path)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake(calls))
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "4",
                             "--workload", "train-desk", "--out", str(out)]) == 0
    assert [(seed, side) for _, seed, side in calls] == [
        (1, "base"), (1, "change"), (2, "change"), (2, "base"),
        (3, "base"), (3, "change"), (4, "change"), (4, "base")]
    report = json.loads(out.read_text())
    assert report["trees"]["base"]["path"] == str(base)
    desk = report["workloads"]["train-desk"]
    assert desk["order"] == [["base", "change"], ["change", "base"]] * 2
    assert desk["base"]["env"] == ["nproc=2 cpus=[1]"]
    items = desk["metrics"]["items_per_s"]
    assert items["base"]["values"] == [100, 200, 300, 400]
    assert items["base"]["median"] == 250 and items["base"]["q1_q3"] == [175.0, 325.0]
    assert items["ratios"] == [1.5] * 4 and items["median_ratio"] == 1.5
    assert (items["pairs_improved"], items["pairs"]) == (4, 4)
    rss = desk["metrics"]["peak_rss_mb"]  # lower is better; worse on odd seeds, tied on even
    assert rss["ratios"] == [1.1, 1.0, 1.1, 1.0] and rss["pairs_improved"] == 0
    setup = desk["metrics"]["setup_s"]  # better on even seeds only
    assert setup["ratios"] == [2.0, 0.5, 2.0, 0.5] and setup["pairs_improved"] == 2


def test_verdicts_are_written_and_printed(tmp_path, monkeypatch, capsys):
    base, change = _trees(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", _fake([]))
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "4",
                             "--workload", "train-desk", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["train-desk"]["metrics"]
    items, rss, setup = (metrics[k] for k in ("items_per_s", "peak_rss_mb", "setup_s"))
    # medians 250 -> 375, the base's q3 - q1 is 150: every pair won, yet no gain
    assert items["won_fraction"] == 1.0 and not items["gain_rule_met"]
    assert items["within_bound"] and items["bound"] == 0.25
    # 105 MB against 100 MB is 5 % worse, within the 25 % bound; ties win nothing
    assert rss["won_fraction"] == 0.0 and rss["within_bound"]
    assert setup["won_fraction"] == 0.5 and setup["within_bound"]
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("train-desk ") and "median" in line]
    assert len(lines) == 3
    assert lines[0] == ("train-desk items_per_s: median 250 -> 375 (base q1-q3 175-325), "
                        "median ratio 1.5, won 4/4, gain rule not met, within bound 0.25")


HIGHER = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}


def test_gain_rule_needs_nine_of_ten_and_a_gap_past_the_spread():
    base = [100.0 + k for k in range(10)]  # median 104.5, q3 - q1 = 4.5
    nine = [v + 6 for v in base[:9]] + [base[9]]  # median 109.5; the last pair a tie
    assert bench_pairs.compare(HIGHER, base, nine)["won_fraction"] == 0.9
    assert bench_pairs.compare(HIGHER, base, nine)["gain_rule_met"]
    eight = [v + 6 for v in base[:8]] + [base[8] - 1, base[9]]
    assert not bench_pairs.compare(HIGHER, base, eight)["gain_rule_met"]
    small = [v + 4 for v in base]  # every pair won, a gap of 4 within the spread
    verdict = bench_pairs.compare(HIGHER, base, small)
    assert verdict["pairs_improved"] == 10 and not verdict["gain_rule_met"]
    # lower is better: the same gap downwards is a gain, upwards a loss
    assert bench_pairs.compare(LOWER, base, [v - 5 for v in base])["gain_rule_met"]
    assert not bench_pairs.compare(LOWER, base, [v + 5 for v in base])["gain_rule_met"]
    # nine pairs are too few, however clear the gain
    verdict = bench_pairs.compare(HIGHER, base[:9], [v + 50 for v in base[:9]])
    assert verdict["won_fraction"] == 1.0 and not verdict["gain_rule_met"]


def test_seeds_default_to_ten_pairs(tmp_path, monkeypatch):
    base, change = _trees(tmp_path)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake(calls))
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--workload", "train-desk", "--out", str(tmp_path / "b.json")]) == 0
    assert sorted({seed for _, seed, _ in calls}) == list(range(1, 11))


@pytest.mark.parametrize("metric,factor,within", [
    (HIGHER, 0.8, True), (HIGHER, 0.7, False), (HIGHER, 2.0, True),
    (LOWER, 1.2, True), (LOWER, 1.3, False), (LOWER, 0.5, True)])
def test_within_bound_compares_medians(metric, factor, within):
    base = [10.0, 20.0, 30.0]
    change = [25.0 * factor, 20.0 * factor, 1.0 * factor]  # median 20 * factor
    assert bench_pairs.compare(metric, base, change)["within_bound"] is within


def test_failed_gate_gives_exit_1(tmp_path, monkeypatch):
    base, change = _trees(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", _fake([], failed_at=(2, "change")))
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "2",
                             "--workload", "detect-hires", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["workloads"]["detect-hires"]["change"]["failed"] == [0, 1]


def _fake_step(calls, sha_of=lambda side, batch: "same", build=80.0):
    """Peak RSS 100 + batch MB, 10 MB less at an mmap threshold."""
    def run_step(tree, batch, tiny, mmap_threshold=None):
        calls.append((batch, tree.name, tiny, mmap_threshold))
        return {"peak_rss_mb": 100.0 + batch - (10 if mmap_threshold else 0),
                "build_peak_rss_mb": build, "forward_s": 1.0, "backward_s": 2.0,
                "sha256": sha_of(tree.name, batch)}
    return run_step


def test_steps_alternate_and_record_each_tree(tmp_path, monkeypatch, capsys):
    """Each tree's step runs twice in a row, the second time at the mmap
    threshold, whose peak is recorded and printed beside the first's."""
    base, change = _trees(tmp_path)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_step", _fake_step(calls))
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--tiny",
                             "--step-batch", "2", "--step-batch", "10",
                             "--out", str(out)]) == 0
    assert calls == [(batch, side, True, threshold)
                     for batch, sides in [(2, ("base", "change")), (10, ("change", "base"))]
                     for side in sides for threshold in (None, 131072)]
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    step = report["steps"]["10"]
    assert step["order"] == ["change", "base"] and step["same_sha256"]
    assert step["base"] == {"peak_rss_mb": 110.0, "build_peak_rss_mb": 80.0, "forward_s": 1.0,
                            "backward_s": 2.0, "sha256": "same",
                            "mmap_threshold_peak_rss_mb": 100.0}
    assert ("step batch 10 base: peak_rss_mb 110.0, at MALLOC_MMAP_THRESHOLD_=131072 100.0, "
            "after the build 80.0") in capsys.readouterr().out


def test_steps_with_other_bytes_give_exit_1(tmp_path, monkeypatch):
    base, change = _trees(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_step",
                        _fake_step([], lambda side, batch: side if batch == 10 else "same"))
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change),
                             "--step-batch", "2", "--step-batch", "10", "--out", str(out)]) == 1
    steps = json.loads(out.read_text())["steps"]
    assert steps["2"]["same_sha256"] and not steps["10"]["same_sha256"]


def test_tiny_step_of_one_checkout_against_itself(tmp_path):
    """The real scripts/step_memory.py, in a fresh child per tree."""
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(ROOT), "--change", str(ROOT), "--tiny",
                             "--step-batch", "2", "--out", str(out)]) == 0
    step = json.loads(out.read_text())["steps"]["2"]
    assert step["same_sha256"] and len(step["base"]["sha256"]) == 64
    assert set(step["base"]) == set(bench_pairs.STEP_FIELDS) | {"mmap_threshold_peak_rss_mb"}
    assert 0 < step["base"]["build_peak_rss_mb"] <= step["base"]["peak_rss_mb"]
    assert step["base"]["mmap_threshold_peak_rss_mb"] > 0


def test_step_of_a_checkout_without_the_build_peak_reads_none(tmp_path, monkeypatch):
    """A checkout whose step_memory.py prints no build_peak_rss_mb, such as a
    base older than it, is recorded with None there."""
    line = json.dumps({"peak_rss_mb": 1.0, "forward_s": 0.1, "backward_s": 0.2, "sha256": "x"})
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 0, line + "\n", ""))
    step = bench_pairs.run_step(tmp_path, 2, tiny=True)
    assert step == {"peak_rss_mb": 1.0, "build_peak_rss_mb": None, "forward_s": 0.1,
                    "backward_s": 0.2, "sha256": "x"}


@pytest.mark.parametrize("threshold,inherited", [(None, None), (None, "4096"),
                                                  (131072, None), (131072, "4096")])
def test_step_sets_the_mmap_threshold_it_is_given(tmp_path, monkeypatch, threshold, inherited):
    """The child gets MALLOC_MMAP_THRESHOLD_ only as given, whatever the
    parent's environment holds."""
    if inherited is None:
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    else:
        monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", inherited)
    envs = []
    line = json.dumps({"peak_rss_mb": 1.0, "sha256": "x"})

    def run(cmd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    bench_pairs.run_step(tmp_path, 2, tiny=True, mmap_threshold=threshold)
    assert envs[0].get("MALLOC_MMAP_THRESHOLD_") == (None if threshold is None
                                                     else str(threshold))


def test_nothing_to_run_is_refused(tmp_path):
    base, change = _trees(tmp_path)
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", str(base), "--change", str(change),
                          "--out", str(tmp_path / "BENCH_1.json")])


def test_out_in_a_missing_directory_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    base, change = _trees(tmp_path)
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", _fake(calls))
    monkeypatch.setattr(bench_pairs, "run_step", _fake_step(calls))
    out = tmp_path / "missing" / "BENCH_1.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "1",
                          "--workload", "train-desk", "--step-batch", "1", "--out", str(out)])
    assert exit_.value.code == 2 and not calls
    assert f"--out: no directory {out.parent}" in capsys.readouterr().err


STAT = """cpu  30 0 20 100 10 0 0 0 0 0
cpu0 10 0 5 50 5 0 0 0 0 0
cpu1 20 0 15 50 5 0 0 4 0 0
intr 1 2 3
ctxt 99
"""


def test_cpu_ticks_read_each_cpu_line(tmp_path, monkeypatch):
    """Busy ticks are all but idle and iowait, steal the 8th count; the
    summary `cpu` line and other lines are skipped."""
    stat = tmp_path / "stat"
    stat.write_text(STAT)
    monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
    assert bench_pairs.cpu_ticks() == {0: (15, 70, 0), 1: (39, 94, 4)}
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "missing")
    assert bench_pairs.cpu_ticks() is None


def test_others_busy_leaves_out_the_pinned_cpu():
    before = {0: (10, 100), 1: (10, 100), 2: (0, 100)}
    after = {0: (60, 200), 1: (100, 200), 2: (10, 200)}
    # CPUs 0 and 2: 50 + 10 busy of 100 + 100 ticks; CPU 1's 90 of 100 left out
    assert bench_pairs.others_busy(before, after, pin=1) == 0.3
    assert bench_pairs.others_busy(before, after, pin=2) == 0.7
    assert bench_pairs.others_busy(before, before, pin=1) is None  # no tick counted
    assert bench_pairs.others_busy({1: (0, 0)}, {1: (5, 9)}, pin=1) is None  # one CPU only
    assert bench_pairs.others_busy(None, after, pin=1) is None
    assert bench_pairs.others_busy(before, None, pin=1) is None


def test_pinned_steal_reads_the_pinned_cpu_only():
    before = {0: (10, 100, 0), 1: (10, 100, 5)}
    after = {0: (60, 200, 50), 1: (100, 200, 25)}
    # CPU 1: 20 of its 100 ticks stolen; CPU 0's 50 left out
    assert bench_pairs.pinned_steal(before, after, pin=1) == 0.2
    assert bench_pairs.pinned_steal(before, after, pin=0) == 0.5
    assert bench_pairs.pinned_steal(before, before, pin=1) is None  # no tick counted
    assert bench_pairs.pinned_steal(before, after, pin=2) is None  # no such CPU line
    assert bench_pairs.pinned_steal(None, after, pin=1) is None
    assert bench_pairs.pinned_steal(before, None, pin=1) is None


def test_others_busy_is_recorded_per_run(tmp_path, monkeypatch):
    """Each workload run and each step run gets the shares read around it:
    here the n-th run's readings are 100 ticks apart on CPU 0, n * 10 of
    them busy, and 10 apart on the pinned CPU 1, n of them stolen."""
    base, change = _trees(tmp_path)
    readings = iter(range(100))

    def ticks():
        k = next(readings)
        n = k // 2  # the run this reading is taken before (even k) or after
        busy = sum(10 * j for j in range(n)) + (10 * n if k % 2 else 0)
        return {0: (busy, 100 * k, 0), 1: (0, 10 * k, busy // 10)}

    monkeypatch.setattr(bench_pairs, "run_once", _fake([]))
    monkeypatch.setattr(bench_pairs, "run_step", _fake_step([]))
    monkeypatch.setattr(bench_pairs, "cpu_ticks", ticks)
    monkeypatch.setattr(bench_pairs, "pinned_cpu", lambda: 1)
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "2",
                             "--workload", "train-desk", "--step-batch", "2",
                             "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    desk = report["workloads"]["train-desk"]
    # runs 0-3: seed 1 base then change, seed 2 change then base; 4-5 the step's
    assert desk["base"]["others_busy"] == [0.0, 0.3]
    assert desk["change"]["others_busy"] == [0.1, 0.2]
    assert report["steps"]["2"]["others_busy"] == {"base": 0.4, "change": 0.5}
    assert desk["base"]["pinned_steal"] == [0.0, 0.3]
    assert desk["change"]["pinned_steal"] == [0.1, 0.2]
    assert report["steps"]["2"]["pinned_steal"] == {"base": 0.4, "change": 0.5}


def test_others_busy_without_proc_stat_reads_none(tmp_path, monkeypatch):
    base, change = _trees(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", _fake([]))
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "missing")
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "2",
                             "--workload", "train-desk", "--out", str(out)]) == 0
    desk = json.loads(out.read_text())["workloads"]["train-desk"]
    assert desk["base"]["others_busy"] == desk["change"]["others_busy"] == [None, None]
    assert desk["base"]["pinned_steal"] == desk["change"]["pinned_steal"] == [None, None]


def test_table_reads_what_the_faked_run_writes(tmp_path, monkeypatch, capsys):
    """bench_table.py prints the change side of the file bench_pairs.py
    writes, so a field renamed in one fails here; a step of a checkout
    that printed no build peak reads n/a."""
    base, change = _trees(tmp_path)
    monkeypatch.setattr(bench_pairs, "run_once", _fake([]))
    monkeypatch.setattr(bench_pairs, "run_step", _fake_step([], build=None))
    monkeypatch.setattr(bench_pairs, "git_state",
                        lambda tree, given: {"path": str(given), "commit": None, "dirty": None})
    out = tmp_path / "BENCH_1.json"
    assert bench_pairs.main(["--base", str(base), "--change", str(change), "--seeds", "4",
                             "--workload", "train-desk", "--step-batch", "2",
                             "--out", str(out)]) == 0
    capsys.readouterr()
    assert bench_table.main([str(out)]) == 0
    assert capsys.readouterr().out == (
        "`BENCH_1.json`: the change tree with no recorded commit, 15 s per workload run, "
        "`nproc=2 cpus=[1]`.\n"
        "\n"
        "| workload | metric | median | [q1, q3] | gain_rule_met | within_bound |\n"
        "| --- | --- | --- | --- | --- | --- |\n"
        "| train-desk | items_per_s | 375 1/s | [262.5, 487.5] | no | yes |\n"
        "| train-desk | peak_rss_mb | 105 MB | [100, 110] | no | yes |\n"
        "| train-desk | setup_s | 1.25 s | [0.5, 2] | no | yes |\n"
        "\n"
        "| step batch | peak_rss_mb | mmap_threshold_peak_rss_mb | build_peak_rss_mb | forward_s "
        "| backward_s | sha256 |\n"
        "| --- | --- | --- | --- | --- | --- | --- |\n"
        "| 2 | 102.0 | 92.0 | n/a | 1.0 | 2.0 | `same` |\n")


def test_readme_holds_the_table_of_the_bench_file_it_names(capsys):
    """README.md's measured numbers are bench_table.py's output for the
    BENCH file its marker comments name, byte for byte."""
    readme = (ROOT / "README.md").read_text()
    tables = re.findall(r"<!-- bench_table (\S+) -->\n(.*?)<!-- end bench_table \1 -->", readme,
                        re.DOTALL)
    assert len(tables) == 1
    name, held = tables[0]
    assert bench_table.main([str(ROOT / name)]) == 0
    assert held == capsys.readouterr().out
