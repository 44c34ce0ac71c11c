"""The strokebench benchmark workloads, run in the child process `run.py` starts.

Each workload sets up (`--trace 0`: several times, reporting the median), then
runs its operation in a closed loop from one process for `--seconds` (at least
once), checks its correctness gates and prints the metrics. `--trace 1` sets
up once, runs the loop untraced for a reference, then again with every public
function wrapped (see tracing.py), and prints the per-layer metrics.

- train-desk: `model.train` on the README quick-start detection recipe.
- train-paper: one `model.train` epoch of the paper architecture at batch 2.
- detect-hires: `model.detect` over 1280x720 clips with a desk-shape
  detector trained in set-up, then mAP and global IoU on its output.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from strokebench import annotations, frames, metrics, model, synth
from strokebench.nn.layers import default_architecture
from tracing import Tracer

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
DESK_SAMPLES = 12  # synth train strokes per class: 40 train, 10 val cuboids


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY only proves the harness runs."""

    desk_frame: int = 32
    desk_input: tuple = (3, 16, 32, 32)
    desk_filters: tuple = (8, 16)
    desk_hidden: int = 64
    desk_epochs: int = 8                   # val acc reaches 1.0 by epoch 5
    detector_epochs: int = 5               # at batch 5: 1.0 by epoch 4
    paper_frame: int = 120
    paper_input: tuple = (3, 98, 120, 120)
    paper_filters: tuple = (30, 60, 80)
    paper_hidden: int = 500
    hires: tuple = (720, 1280)


FULL = Scale()
TINY = Scale(desk_frame=16, desk_input=(3, 8, 16, 16), desk_filters=(4, 8),
             desk_hidden=16, desk_epochs=16, detector_epochs=16,
             paper_frame=24, paper_input=(3, 12, 24, 24), paper_filters=(4, 4, 4),
             paper_hidden=8, hires=(36, 64))


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str


class SkipCounter(logging.StreamHandler):
    """Echoes strokebench's log records and counts skipped samples."""

    def __init__(self):
        super().__init__(sys.stderr)
        self.skipped = 0

    def emit(self, record):
        if record.getMessage().endswith("sample skipped"):
            self.skipped += 1
        super().emit(record)


def prepare(root: Path, detection: bool):
    """`strokebench prepare` on a corpus: (train items, val items, sources)."""
    labels = (model.DETECTION_LABELS if detection
              else annotations.default_taxonomy().labels)
    items = {}
    sources = {}
    for split in ("train", "validation"):
        rows = []
        for xml in sorted((root / split).glob("*.xml")):
            ann = annotations.parse_annotations(xml.read_bytes())
            sources[ann.video_id] = frames.open_rgbv(xml.with_suffix(".rgbv"))
            for seg in ann.ground_truth:
                label = annotations.STROKE_LABEL if detection else seg.label
                rows.append(model.DatasetItem(
                    ann.video_id, annotations.Segment(seg.begin, seg.end, label),
                    labels.index(label)))
            if detection:
                for seg in annotations.infer_negative_segments(ann):
                    rows.append(model.DatasetItem(ann.video_id, seg,
                                                  labels.index(seg.label)))
        items[split] = rows
    return items["train"], items["validation"], sources


def build(input_shape, filters, hidden, seed) -> model.ModelParams:
    arch = default_architecture(input_shape, filters=filters, hidden=hidden, n_classes=2)
    return model.build_model(2, arch, seed=seed, input_shape=input_shape)


def params_digest(net: model.ModelParams) -> str:
    h = hashlib.sha256()
    for name, arr in net.params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Op:
    """One measured operation: wall seconds, items done, samples or
    proposals attempted and failed, and an output that reruns must repeat."""

    seconds: float
    items: int
    attempted: int
    failed: int
    output: object


class Workload:
    name = ""
    item_name = ""
    setup_repeats = 5  # setup_s is the median of these

    def __init__(self, scale: Scale, seed: int, skips: SkipCounter):
        self.scale, self.seed, self.skips = scale, seed, skips

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def run_once(self) -> Op:
        raise NotImplementedError

    def gates(self, ops: list[Op]) -> list[Gate]:
        raise NotImplementedError

    def traced_model(self) -> model.ModelParams:
        """The model whose layers the per-layer metrics name."""
        raise NotImplementedError


class TrainWorkload(Workload):
    item_name = "train_samples_per_s"

    def model_shape(self):
        raise NotImplementedError

    def train_config(self) -> model.TrainConfig:
        raise NotImplementedError

    def traced_model(self):
        return build(*self.model_shape(), self.seed)

    def run_once(self) -> Op:
        net = build(*self.model_shape(), self.seed)
        cfg = self.train_config()
        skipped = self.skips.skipped
        t0 = time.perf_counter()
        best, history = model.train(net, self.train_items, self.val_items,
                                    self.sources, cfg)
        seconds = time.perf_counter() - t0
        self.best = best
        return Op(seconds, cfg.epochs * len(self.train_items),
                  len(self.train_items) + len(self.val_items),
                  self.skips.skipped - skipped, (history, params_digest(best)))

    def gates(self, ops):
        same = all(op.output == ops[0].output for op in ops)
        return [Gate("reruns bit-identical", same, f"{len(ops)} runs")]


class TrainDesk(TrainWorkload):
    name = "train-desk"

    def setup(self, root):
        s = self.scale
        synth.generate_corpus(root, synth.SynthConfig(
            classes=2, train_per_class=DESK_SAMPLES, frame_size=s.desk_frame,
            seed=self.seed))
        self.train_items, self.val_items, self.sources = prepare(root, detection=True)

    def model_shape(self):
        s = self.scale
        return s.desk_input, s.desk_filters, s.desk_hidden

    def train_config(self):
        s = self.scale
        return model.TrainConfig(epochs=s.desk_epochs, batch_size=10, lr=0.01,
                                 seed=self.seed, cuboid_len=s.desk_input[1],
                                 cuboid_size=s.desk_input[2])

    def gates(self, ops):
        acc = min(max(h.val_acc for h in op.output[0]) for op in ops)
        return [Gate("val_acc >= 0.90", acc >= 0.90, f"val_acc {acc}")] + super().gates(ops)


class TrainPaper(TrainWorkload):
    name = "train-paper"

    def setup(self, root):
        s = self.scale
        # frames at the cuboid size, so resize_bilinear takes its identity path
        synth.generate_corpus(root, synth.SynthConfig(
            classes=2, train_per_class=1, val_per_class=1, test_per_class=1,
            strokes_per_video=1, frame_size=s.paper_frame, seed=self.seed))
        self.train_items, self.val_items, self.sources = prepare(root, detection=False)
        self.ckpt_dir = root

    def model_shape(self):
        s = self.scale
        return s.paper_input, s.paper_filters, s.paper_hidden

    def train_config(self):
        s = self.scale
        return model.TrainConfig(epochs=1, batch_size=2, seed=self.seed,
                                 cuboid_len=s.paper_input[1],
                                 cuboid_size=s.paper_input[2])

    def gates(self, ops):
        losses = [h.train_loss for op in ops for h in op.output[0]]
        finite = all(math.isfinite(x) for x in losses)
        acc = max(h.val_acc for h in ops[-1].output[0])
        best = self.best
        first, second = self.ckpt_dir / "best.ckpt", self.ckpt_dir / "again.ckpt"
        model.save_checkpoint(best, first)
        loaded = model.load_checkpoint(first)
        model.save_checkpoint(loaded, second)
        same = (first.read_bytes() == second.read_bytes()
                and params_digest(loaded) == params_digest(best))
        return [Gate("losses finite", finite,
                     f"{len(losses)} losses, last {losses[-1]}; val_acc {acc}"),
                Gate("checkpoint round-trip byte-exact", same,
                     f"{first.stat().st_size} bytes")] + super().gates(ops)


class DetectHires(Workload):
    name = "detect-hires"
    item_name = "detect_frames_per_s"
    setup_repeats = 3  # each set-up trains a detector for about 8 s

    def setup(self, root):
        s = self.scale
        synth.generate_corpus(root / "desk", synth.SynthConfig(
            classes=2, train_per_class=DESK_SAMPLES, frame_size=s.desk_frame,
            seed=self.seed))
        train_items, val_items, sources = prepare(root / "desk", detection=True)
        cfg = model.TrainConfig(epochs=s.detector_epochs, batch_size=5, lr=0.01,
                                seed=self.seed, cuboid_len=s.desk_input[1],
                                cuboid_size=s.desk_input[2])
        net = build(s.desk_input, s.desk_filters, s.desk_hidden, self.seed)
        best, history = model.train(net, train_items, val_items, sources, cfg)
        self.detector_val_acc = max(h.val_acc for h in history)
        model.save_checkpoint(best, root / "detector.ckpt")
        self.detector = model.load_checkpoint(root / "detector.ckpt")

        clips = root / "hires"
        subprocess.run([sys.executable, str(HERE / "hires.py"), str(clips),
                        str(self.seed), *map(str, s.hires)], check=True)
        self.videos = []
        for xml in sorted(clips.glob("*.xml")):
            ann = annotations.parse_annotations(xml.read_bytes())
            src = frames.open_rgbv(xml.with_suffix(".rgbv"))
            proposals = annotations.generate_window_proposals(src.frame_count)
            self.videos.append((ann, src, proposals))

    def traced_model(self):
        return self.detector

    def run_once(self) -> Op:
        seconds = 0.0
        covered = attempted = failed = 0
        detections = {}
        for ann, src, proposals in self.videos:
            attempted += len(proposals)
            t0 = time.perf_counter()
            try:
                found = model.detect(self.detector, src)
            except Exception:  # counted as failed proposals; the loop goes on
                traceback.print_exc()
                found = []
                failed += len(proposals)
            else:
                covered += sum(p.length for p in proposals)
            seconds += time.perf_counter() - t0
            detections[ann.video_id] = found
        return Op(seconds, covered, attempted, failed, detections)

    def gates(self, ops):
        dets = ops[-1].output
        ds = metrics.DetectionSet()
        for ann, src, _ in self.videos:
            xml = annotations.write_predictions(ann.video_id, dets[ann.video_id],
                                                src.frame_count, src.fps)
            preds = annotations.parse_annotations(xml).predictions
            ds.add_video(ann.video_id, preds, ann.ground_truth)
        mean_ap = metrics.average_precision(ds, 0.5)
        giou = metrics.global_iou(ds)
        same = all(op.output == dets for op in ops)
        return [Gate("map >= 0.5", mean_ap >= 0.5, f"map {mean_ap} global_iou {giou}"),
                Gate("detector val_acc >= 0.90", self.detector_val_acc >= 0.90,
                     f"val_acc {self.detector_val_acc}"),
                Gate("passes identical", same, f"{len(ops)} passes")]


WORKLOADS = {w.name: w for w in (TrainDesk, TrainPaper, DetectHires)}


def loop(workload: Workload, seconds: float) -> list[Op]:
    """Closed loop: the next operation starts when the last one ends."""
    ops = []
    end = time.perf_counter() + seconds
    while not ops or time.perf_counter() < end:
        ops.append(workload.run_once())
    return ops


def environment(seed: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} cpus={sorted(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas['name']}-{blas['version']} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} seed={seed}")


def release_setup_memory() -> None:
    """Hand the heap memory set-up freed back to the OS before the loop.

    glibc keeps freed heap pages, and how much of detector training it kept
    resident varied from run to run (peak RSS 155 or 191 MB on detect-hires),
    so peak_rss_mb measured set-up's leftovers rather than the loop.
    """
    gc.collect()
    libc = ctypes.CDLL(None)
    if hasattr(libc, "malloc_trim"):  # glibc only
        libc.malloc_trim.argtypes = [ctypes.c_size_t]
        libc.malloc_trim.restype = ctypes.c_int
        libc.malloc_trim(0)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="tiny shapes (harness smoke test)")
    p.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    skips = SkipCounter()
    logging.getLogger("strokebench").addHandler(skips)
    workload = WORKLOADS[args.workload](TINY if args.tiny else FULL, args.seed, skips)
    print(f"env: {environment(args.seed)} workload={args.workload} trace={args.trace}")
    if args.trace:
        return traced(workload, args, spec)
    return untraced(workload, args, spec)


def untraced(workload: Workload, args, spec) -> int:
    setups = []
    for _ in range(workload.setup_repeats):
        root = fresh_dir(args.work)
        t0 = time.perf_counter()
        workload.setup(root)
        setups.append(time.perf_counter() - t0)
        release_setup_memory()
    ops = loop(workload, args.seconds)
    gates = workload.gates(ops)
    values = {
        "items_per_s": statistics.median(op.items / op.seconds for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    print(f"ops: {len(ops)} in the loop; {workload.item_name} per op: "
          + " ".join(f"{op.items / op.seconds:.4g}" for op in ops))
    print("setup_s per set-up: " + " ".join(f"{s:.4g}" for s in setups))
    print(f"{workload.item_name} (items_per_s): {values['items_per_s']:.6g} 1/s")
    return report(ops, gates, values, spec["end_to_end"])


def traced(workload: Workload, args, spec) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(fresh_dir(args.work))
        release_setup_memory()
        tracer.pause()
        reference = loop(workload, args.seconds)
        tracer.start(workload.traced_model())
        ops = loop(workload, args.seconds)
        gates = workload.gates(ops)
    finally:
        tracer.uninstall()
    same = all(op.output == reference[0].output for op in ops)
    gates.append(Gate("traced outputs equal untraced", same,
                      f"{len(reference)} untraced, {len(ops)} traced ops"))
    root = "model.detect" if isinstance(workload, DetectHires) else "model.train"
    values = {m["name"]: tracer.layer_metric(m["name"]) for m in spec["per_layer"]
              if not m["name"].startswith("trace.")}
    values["trace.overhead_frac"] = (statistics.median(op.seconds for op in ops)
                                     / statistics.median(op.seconds for op in reference) - 1)
    values["trace.coverage_frac"] = tracer.coverage(root)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.dump(out / f"{args.workload}-seed{args.seed}.spans.json")
    return report(reference + ops, gates, values, spec["per_layer"])


def report(ops: list[Op], gates: list[Gate], values: dict, listed: list[dict]) -> int:
    names = [m["name"] for m in listed]
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} do not "
                           "match BENCHMARK.json")
    for g in gates:
        print(f"gate {'PASS' if g.ok else 'FAIL'}: {g.name} ({g.detail})")
    attempted = sum(op.attempted for op in ops) + len(gates)
    failed = sum(op.failed for op in ops) + sum(not g.ok for g in gates)
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    for m in listed:
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
