"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from strokebench.annotations import (Segment, default_taxonomy,
                                     generate_window_proposals,
                                     infer_negative_segments, parse_annotations,
                                     superclass_of, write_predictions)
from strokebench.cli import main
from strokebench.metrics import (DetectionSet, aggregate, average_precision, confusion,
                                 global_iou)
from strokebench.model import build_model, forward, load_checkpoint, save_checkpoint
from strokebench.nn import ops
from strokebench.nn.gradcheck import max_rel_error, run_all
from strokebench.nn.layers import conv3d, flatten, linear, maxpool3d, relu
from strokebench.nn.optim import NesterovSGD
from strokebench.synth import SynthConfig, generate_corpus

from oracles import accuracy, average_precision_bruteforce, conv3d_naive, cross_entropy_direct


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_gradient_integrity():
    with criterion("gradient integrity: all backward passes < 1e-6 rel. error"):
        t0 = time.monotonic()
        results = run_all(trials=20, seed=0)
        elapsed = time.monotonic() - t0
        assert set(results) == {"conv3d", "maxpool3d", "linear", "relu",
                                "softmax_cross_entropy"}
        for kind, err in results.items():
            assert err < 1e-6, f"{kind}: {err:.3e}"
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"


def test_convolution_oracle():
    with criterion("convolution oracle: 50 random shapes vs naive loops < 1e-10"):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, c, f = (int(v) for v in rng.integers(1, 3, 3))
            kt, kh, kw = (int(v) for v in rng.integers(1, 4, 3))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            t = kt + int(rng.integers(0, 4))
            h = kh + int(rng.integers(0, 4))
            w = kw + int(rng.integers(0, 4))
            x = rng.standard_normal((n, c, t, h, w))
            wt = rng.standard_normal((f, c, kt, kh, kw))
            b = rng.standard_normal(f)
            for s in range(n):  # the one sample the kernel takes
                got = ops.conv3d_forward(x[s:s + 1], wt, b, stride, pad)
                ref = conv3d_naive(x[s:s + 1], wt, b, stride, pad)
                assert got.shape == ref.shape
                assert max_rel_error(got, ref) < 1e-10
        assert time.monotonic() - t0 < 60.0


def test_loss_correctness():
    with criterion("loss: ln 2 on uniform 2-logits; each sample's loss = direct formula"):
        loss, grad = ops.softmax_cross_entropy(np.array([0.0, 0.0]), 0)
        assert abs(loss - np.log(2)) < 1e-12
        assert np.allclose(grad, [-0.5, 0.5], atol=1e-12)
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 12))
            logits = rng.standard_normal((n, k)) * 5
            classes = rng.integers(0, k, n)
            for i in range(n):
                loss, _ = ops.softmax_cross_entropy(logits[i], int(classes[i]))
                direct, _ = cross_entropy_direct(logits[i:i + 1], classes[i:i + 1])
                assert abs(loss - direct) < 1e-9


def test_optimizer_correctness():
    with criterion("optimizer: hand-derived Nesterov trace; plain-SGD reduction"):
        params = {"w": np.array([1.0])}
        opt = NesterovSGD(params, lr=0.1, momentum=0.5, weight_decay=0.0)
        opt.step(params, {"w": np.array([1.0])})
        assert abs(params["w"].item() - 0.85) < 1e-12
        opt.step(params, {"w": np.array([1.0])})
        assert abs(params["w"].item() - 0.675) < 1e-12

        rng = np.random.default_rng(3)
        theta0 = rng.standard_normal(32)
        params = {"w": theta0.copy()}
        manual = theta0.copy()
        opt = NesterovSGD(params, lr=0.01, momentum=0.0, weight_decay=0.0)
        for _ in range(10):
            g = rng.standard_normal(32)
            opt.step(params, {"w": g})
            manual -= 0.01 * g
            assert np.array_equal(params["w"], manual)


def test_data_rules():
    with criterion("data rules: negative blocks 0/1/2 and proposal counts 0/3/4"):
        from strokebench.annotations import VideoAnnotation

        def negatives_for_gap(gap):
            ann = VideoAnnotation("v", 100_000, 120.0,
                                  [Segment(0, 100, "A"),
                                   Segment(100 + gap, 100 + gap + 50, "B")])
            return len(infer_negative_segments(ann, 200))

        assert negatives_for_gap(199) == 0
        assert negatives_for_gap(250) == 1
        assert negatives_for_gap(400) == 2
        assert len(generate_window_proposals(149, 150, 150)) == 0
        assert len(generate_window_proposals(450, 150, 150)) == 3
        assert len(generate_window_proposals(600, 150, 150)) == 4


def _random_detection_instance(rng):
    videos = {}
    for vid in ("a", "b")[: int(rng.integers(1, 3))]:
        gts, pos = [], 0
        for _ in range(int(rng.integers(0, 6))):
            pos += int(rng.integers(1, 60))
            end = pos + int(rng.integers(1, 80))
            gts.append((pos, end))
            pos = end
        preds = []
        for _ in range(int(rng.integers(0, 9))):
            b = int(rng.integers(0, 300))
            preds.append((b, b + int(rng.integers(1, 90)),
                          float(np.round(rng.random(), 3))))
        videos[vid] = (preds, gts)
    return videos


def _to_detection_set(videos):
    ds = DetectionSet()
    for vid, (preds, gts) in videos.items():
        ds.add_video(vid, [Segment(b, e, "Stroke", s) for b, e, s in preds],
                     [Segment(b, e, "Stroke") for b, e in gts])
    return ds


def test_metric_oracles():
    with criterion("metrics: AP = brute-force oracle on 1000 instances; "
                   "global IoU hand cases; split divergence"):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 1000:
            videos = _random_detection_instance(rng)
            if sum(len(g) for _, g in videos.values()) == 0:
                continue
            thr = float(rng.choice([0.3, 0.5, 0.7]))
            got = average_precision(_to_detection_set(videos), thr)
            ref = average_precision_bruteforce(videos, thr)
            assert abs(got - ref) < 1e-12
            checked += 1

        one_video = _to_detection_set({"v": ([(0, 100, 0.9)], [(50, 150)])})
        assert abs(global_iou(one_video) - 1 / 3) < 1e-12
        two_videos = _to_detection_set({
            "v1": ([(0, 100, 0.9)], [(50, 150)]),
            "v2": ([(0, 50, 0.9)], [(50, 100)]),
        })
        assert abs(global_iou(two_videos) - 0.2) < 1e-12

        gt = [(0, 150)]
        whole = _to_detection_set({"v": ([(0, 150, 0.9)], gt)})
        halves = _to_detection_set({"v": ([(0, 75, 0.9), (75, 150, 0.8)], gt)})
        # both halves sit below a 0.6 threshold, so AP strictly collapses
        assert average_precision(whole, 0.6) == 1.0
        assert average_precision(halves, 0.6) == 0.0
        assert global_iou(whole) == global_iou(halves)


def test_taxonomy_identity():
    with criterion("taxonomy: aggregated-diagonal accuracy = mapped-list accuracy, "
                   "1000 random instances"):
        tax = default_taxonomy()
        labels = tax.labels
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            pred = [labels[i] for i in rng.integers(0, 20, n)]
            truth = [labels[i] for i in rng.integers(0, 20, n)]
            cm = confusion(pred, truth, labels)
            for level in ("global", "type", "hand", "type_hand"):
                mapped = accuracy([superclass_of(tax, p, level) for p in pred],
                                  [superclass_of(tax, t, level) for t in truth])
                assert aggregate(cm, tax, level).diagonal_accuracy() == mapped


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    # 2 classes x 12 train strokes in 8 videos of 3 strokes each; every inner
    # 300-frame gap yields one 200-frame negative: 24 + 16 = 40 train samples
    root = tmp_path_factory.mktemp("desk") / "corpus"
    cfg = SynthConfig(classes=2, train_per_class=12, val_per_class=3, test_per_class=3,
                      frame_size=32, stroke_len=150, gap_len=300, strokes_per_video=3,
                      seed=11)
    generate_corpus(root, cfg)
    return root


DESK_TRAIN_FLAGS = ["--seed", "11", "--batch", "10",
                    "--lr", "0.01", "--momentum", "0.5", "--weight-decay", "0.005",
                    "--cuboid-len", "16", "--cuboid-size", "32",
                    "--filters", "8,16", "--hidden", "64"]


def test_end_to_end_desk_scale(desk_corpus, tmp_path, capsys):
    with criterion("end-to-end: train acc >= 0.95, val acc >= 0.90, "
                   "detection mAP >= 0.5, < 10 min"):
        t0 = time.monotonic()
        out = tmp_path / "run"
        base = ["--task", "detection", "--data", str(desk_corpus), "--out", str(out)]
        assert main(["prepare", *base]) == 0
        rows = (out / "detection_train_index.csv").read_text().strip().split("\n")[1:]
        assert 35 <= len(rows) <= 45  # "~40 samples"
        assert main(["train", *base, "--epochs", "15", *DESK_TRAIN_FLAGS]) == 0

        hist = (out / "detection_history.csv").read_text().strip().split("\n")[1:]
        train_accs = [float(r.split(",")[2]) for r in hist]
        val_accs = [float(r.split(",")[3]) for r in hist]
        assert len(hist) <= 50
        assert max(train_accs) >= 0.95, max(train_accs)
        assert max(val_accs) >= 0.90, max(val_accs)

        assert main(["infer", *base]) == 0
        capsys.readouterr()
        assert main(["eval", *base]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        mean_ap = float(lines[0].split(": ")[1])
        giou = float(lines[1].split(": ")[1])
        assert mean_ap >= 0.5, mean_ap
        assert 0.0 <= giou <= 1.0
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"
        print(f"  (mAP={mean_ap}, global IoU={giou}, {elapsed:.0f}s)", end=" ")


def test_deterministic_training_runs(desk_corpus, tmp_path, capsys):
    with criterion("determinism: two seeded runs are byte-identical"):
        artifacts = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            base = ["--task", "detection", "--data", str(desk_corpus), "--out", str(out)]
            assert main(["prepare", *base]) == 0
            assert main(["train", *base, "--epochs", "3", *DESK_TRAIN_FLAGS]) == 0
            artifacts.append(((out / "detection_model.ckpt").read_bytes(),
                              (out / "detection_history.csv").read_bytes()))
        capsys.readouterr()
        assert artifacts[0][0] == artifacts[1][0]
        assert artifacts[0][1] == artifacts[1][1]


def test_round_trips(tmp_path):
    with criterion("round-trips: annotation XML and checkpoint identities"):
        rng = np.random.default_rng(6)
        for _ in range(200):
            segs, pos = [], 0
            for _ in range(int(rng.integers(0, 7))):
                pos += int(rng.integers(0, 80))
                length = int(rng.integers(1, 400))
                segs.append(Segment(pos, pos + length, f"label {rng.integers(0, 20)}",
                                    float(np.round(rng.random(), 6))))
                pos += length
            data = write_predictions("vid", segs, 0, 120.0)
            assert parse_annotations(data).segments == segs

        for seed in range(5):
            n_classes = int(rng.integers(2, 8))
            arch = [conv3d(3, 4, (3, 3, 3), 1, 1), relu(), maxpool3d((2, 2, 2)), flatten(),
                    linear(4 * 2 * 4 * 4, 8), relu(), linear(8, n_classes)]
            m = build_model(n_classes, arch, seed=seed, input_shape=(3, 4, 8, 8))
            p = tmp_path / f"rt{seed}.ckpt"
            save_checkpoint(m, p)
            original = p.read_bytes()
            back = load_checkpoint(p)
            x = rng.random((2, 3, 4, 8, 8)).astype(np.float32)
            for cuboid in x:
                assert np.array_equal(forward(m, cuboid), forward(back, cuboid))
            save_checkpoint(back, p)
            assert p.read_bytes() == original
