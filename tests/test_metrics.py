import numpy as np
import pytest

from strokebench.annotations import Segment, default_taxonomy, superclass_of
from strokebench.errors import MetricError, TaxonomyError
from strokebench.metrics import (ConfusionMatrix, DetectionSet, aggregate, _covered,
                                 average_precision, confusion, global_iou, tiou)

from oracles import accuracy, average_precision_bruteforce, global_iou_frame_sets

TIOU = 0.5  # the paper's mAP threshold, the default of --map-tiou


def _ds(videos):
    """videos: {vid: ([(b, e, score)...], [(b, e)...])}"""
    ds = DetectionSet()
    for vid, (preds, gts) in videos.items():
        ds.add_video(
            vid,
            [Segment(b, e, "Stroke", s) for b, e, s in preds],
            [Segment(b, e, "Stroke") for b, e in gts],
        )
    return ds


class TestAccuracy:
    """The reference accuracy of `oracles`, which TestAggregate and the
    acceptance suite check `diagonal_accuracy` against."""

    def test_identical(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy(["a", "a"], ["b", "b"]) == 0.0

    def test_three_of_five(self):
        assert accuracy(list("abcde"), list("abcxy")) == 0.6

    def test_length_mismatch(self):
        with pytest.raises(MetricError, match="length mismatch"):
            accuracy(["a"], ["a", "b"])


class TestConfusion:
    def test_diagonal(self):
        cm = confusion(["A", "A", "B"], ["A", "A", "B"], ["A", "B"])
        assert np.array_equal(cm.counts, [[2, 0], [0, 1]])

    def test_all_a_predicted_b(self):
        cm = confusion(["B"] * 4, ["A"] * 4, ["A", "B"])
        assert cm.counts[0, 1] == 4

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        labels = list("abcdef")
        for _ in range(20):
            n = int(rng.integers(1, 60))
            pred = [labels[i] for i in rng.integers(0, 6, n)]
            truth = [labels[i] for i in rng.integers(0, 6, n)]
            cm = confusion(pred, truth, labels)
            assert cm.total == n
            for i, lab in enumerate(labels):
                assert cm.counts[i].sum() == truth.count(lab)

    def test_unknown_label_rejected(self):
        with pytest.raises(MetricError, match="not in label list"):
            confusion(["z"], ["a"], ["a"])


class TestAggregate:
    def test_two_fine_labels_one_super(self):
        tax = default_taxonomy()
        fine = ["Offensive Forehand Hit", "Offensive Backhand Hit"]
        cm = ConfusionMatrix(fine, np.array([[3, 1], [0, 2]], dtype=np.int64))
        agg = aggregate(cm, tax, "type")
        assert agg.labels == ["Offensive"]
        assert agg.counts.tolist() == [[6]]

    def test_global_is_identity(self):
        tax = default_taxonomy()
        labels = tax.labels[:4]
        cm = ConfusionMatrix(labels, np.arange(16, dtype=np.int64).reshape(4, 4))
        agg = aggregate(cm, tax, "global")
        assert agg.labels == labels
        assert np.array_equal(agg.counts, cm.counts)

    def test_level_shapes_and_totals(self):
        tax = default_taxonomy()
        rng = np.random.default_rng(1)
        cm = ConfusionMatrix(tax.labels, rng.integers(0, 9, (20, 20)).astype(np.int64))
        for level, size in (("type", 3), ("hand", 2), ("type_hand", 6)):
            agg = aggregate(cm, tax, level)
            assert agg.counts.shape == (size, size)
            assert agg.total == cm.total

    def test_diagonal_accuracy_matches_mapped_lists(self):
        tax = default_taxonomy()
        rng = np.random.default_rng(2)
        labels = tax.labels
        for _ in range(50):
            n = int(rng.integers(1, 80))
            pred = [labels[i] for i in rng.integers(0, 20, n)]
            truth = [labels[i] for i in rng.integers(0, 20, n)]
            cm = confusion(pred, truth, labels)
            for level in ("global", "type", "hand", "type_hand"):
                mapped_acc = accuracy([superclass_of(tax, p, level) for p in pred],
                                      [superclass_of(tax, t, level) for t in truth])
                assert aggregate(cm, tax, level).diagonal_accuracy() == mapped_acc

    def test_unknown_level_rejected_by_the_taxonomy(self):
        tax = default_taxonomy()
        cm = ConfusionMatrix(tax.labels[:2], np.ones((2, 2), dtype=np.int64))
        with pytest.raises(TaxonomyError, match="unknown level 'side'"):
            aggregate(cm, tax, "side")


class TestTiou:
    def test_half_open_overlap(self):
        assert abs(tiou(Segment(0, 100, "x"), Segment(50, 150, "y")) - 1 / 3) < 1e-12

    def test_identical_is_one(self):
        assert tiou(Segment(5, 10, "x"), Segment(5, 10, "y")) == 1.0

    def test_disjoint_is_zero(self):
        assert tiou(Segment(0, 10, "x"), Segment(10, 20, "y")) == 0.0

    def test_symmetry_and_identity_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = Segment(int(rng.integers(0, 50)), int(rng.integers(51, 100)), "a")
            b = Segment(int(rng.integers(0, 50)), int(rng.integers(51, 100)), "b")
            assert tiou(a, b) == tiou(b, a)
            assert (tiou(a, b) == 1.0) == ((a.begin, a.end) == (b.begin, b.end))


class TestAveragePrecision:
    def test_perfect_detector(self):
        ds = _ds({"v": ([(0, 100, 0.9), (200, 300, 0.8)], [(0, 100), (200, 300)])})
        assert average_precision(ds, TIOU) == 1.0

    def test_no_predictions(self):
        ds = _ds({"v": ([], [(0, 100)])})
        assert average_precision(ds, TIOU) == 0.0

    def test_no_ground_truth_rejected(self):
        ds = _ds({"v": ([(0, 100, 0.5)], [])})
        with pytest.raises(MetricError, match="without ground truth"):
            average_precision(ds, TIOU)

    def test_duplicate_hit_and_miss(self):
        videos = {"v": ([(0, 100, 0.9), (0, 100, 0.8), (500, 600, 0.7)],
                        [(0, 100), (200, 300)])}
        got = average_precision(_ds(videos), TIOU)
        ref = average_precision_bruteforce(videos, 0.5)
        assert abs(got - ref) < 1e-12
        # 1 TP at rank 1 out of 2 GT, then only FPs: AP = 0.5
        assert abs(got - 0.5) < 1e-12

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            videos = {}
            for vid in ("a", "b")[: int(rng.integers(1, 3))]:
                gts = []
                pos = 0
                for _ in range(int(rng.integers(0, 6))):
                    pos += int(rng.integers(1, 60))
                    end = pos + int(rng.integers(1, 80))
                    gts.append((pos, end))
                    pos = end
                preds = []
                for _ in range(int(rng.integers(0, 9))):
                    b = int(rng.integers(0, 300))
                    e = b + int(rng.integers(1, 90))
                    preds.append((b, e, float(np.round(rng.random(), 3))))
                videos[vid] = (preds, gts)
            if sum(len(g) for _, g in videos.values()) == 0:
                continue
            thr = float(rng.choice([0.3, 0.5, 0.7]))
            got = average_precision(_ds(videos), thr)
            ref = average_precision_bruteforce(videos, thr)
            assert abs(got - ref) < 1e-12

    def test_score_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        videos = {"v": ([(int(b), int(b) + 50, float(s)) for b, s in
                         zip(rng.integers(0, 500, 8), rng.random(8))],
                        [(0, 50), (100, 150), (300, 350)])}
        base = average_precision(_ds(videos), TIOU)
        squashed = {"v": ([(b, e, s / (1 + s)) for b, e, s in videos["v"][0]],
                          videos["v"][1])}
        assert abs(average_precision(_ds(squashed), TIOU) - base) < 1e-12

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        ds = _ds({"v": ([(0, 100, 0.9)], [(0, 100)])})
        with pytest.raises(MetricError, match="threshold"):
            average_precision(ds, threshold)

    def test_threshold_one_needs_exact_match(self):
        assert average_precision(_ds({"v": ([(0, 100, 0.9)], [(0, 100)])}), 1.0) == 1.0
        assert average_precision(_ds({"v": ([(0, 99, 0.9)], [(0, 100)])}), 1.0) == 0.0

    def test_ap_within_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            videos = {"v": ([(int(b), int(b) + 30, float(s)) for b, s in
                             zip(rng.integers(0, 400, 5), rng.random(5))],
                            [(50, 80), (200, 230)])}
            ap = average_precision(_ds(videos), TIOU)
            assert 0.0 <= ap <= 1.0


@pytest.mark.parametrize("spans, frames", [
    ([], 0),
    ([(0, 10)], 10),
    ([(0, 10), (10, 20)], 20),        # abutting
    ([(20, 30), (0, 10)], 20),        # disjoint, out of begin order
    ([(0, 30), (5, 10), (12, 18)], 30),  # nested inside the first
    ([(0, 10), (5, 25), (20, 22)], 25),  # chained overlaps
], ids=["empty", "one", "abutting", "unsorted", "nested", "chained"])
def test_covered_counts_union_frames(spans, frames):
    assert _covered([Segment(b, e, "x") for b, e in spans]) == frames


class TestGlobalIou:
    def test_hand_case_one_third(self):
        ds = _ds({"v": ([(0, 100, 0.9)], [(50, 150)])})
        assert abs(global_iou(ds) - 1 / 3) < 1e-12

    def test_abutting_predictions_count_as_union(self):
        ds = _ds({"v": ([(0, 75, 0.9), (75, 150, 0.8)], [(0, 150)])})
        assert global_iou(ds) == 1.0

    def test_micro_average_across_videos(self):
        ds = _ds({
            "v1": ([(0, 100, 0.9)], [(50, 150)]),   # I=50, U=150
            "v2": ([(0, 50, 0.9)], [(50, 100)]),    # I=0,  U=100
        })
        assert abs(global_iou(ds) - 50 / 250) < 1e-12

    def test_empty_everything_rejected(self):
        ds = _ds({"v": ([], [])})
        with pytest.raises(MetricError, match="undefined"):
            global_iou(ds)

    def test_matches_frame_set_oracle_on_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            videos = {}
            for vid in ("a", "b", "c", "d")[: int(rng.integers(1, 5))]:
                gts = []
                pos = 0
                for _ in range(int(rng.integers(0, 5))):
                    pos += int(rng.integers(0, 40))  # 0: abuts the previous one
                    end = pos + int(rng.integers(1, 60))
                    gts.append((pos, end))
                    pos = end
                preds = []
                for _ in range(int(rng.integers(0, 7))):
                    b = int(rng.integers(0, 250))
                    e = b + int(rng.integers(1, 70))
                    preds.append((b, e, 0.5))
                    if rng.random() < 0.3:  # a second window abutting the first
                        preds.append((e, e + int(rng.integers(1, 40)), 0.5))
                videos[vid] = (preds, gts)
            if not any(p or g for p, g in videos.values()):
                with pytest.raises(MetricError, match="undefined"):
                    global_iou(_ds(videos))
                continue
            assert global_iou(_ds(videos)) == global_iou_frame_sets(videos)

    def test_split_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b = int(rng.integers(0, 100))
            e = b + int(rng.integers(2, 200))
            cut = int(rng.integers(b + 1, e))
            gt = [(b - 20 if b >= 20 else b, e + 30)]
            whole = _ds({"v": ([(b, e, 0.9)], gt)})
            split = _ds({"v": ([(b, cut, 0.9), (cut, e, 0.8)], gt)})
            assert abs(global_iou(whole) - global_iou(split)) < 1e-12


def test_splitting_a_detection_hurts_map_but_not_global_iou():
    # One perfect detection vs. the same frames as two half-windows. Each half
    # covers exactly half the ground truth, so both can only fall below the
    # matching threshold when it exceeds 0.5; at 0.6 AP collapses to 0 while
    # the frame-wise overlap is untouched.
    gt = [(0, 150)]
    whole = {"v": ([(0, 150, 0.9)], gt)}
    split = {"v": ([(0, 75, 0.9), (75, 150, 0.8)], gt)}
    assert average_precision(_ds(whole), 0.6) == 1.0
    assert average_precision(_ds(split), 0.6) == 0.0
    assert global_iou(_ds(whole)) == global_iou(_ds(split)) == 1.0


def test_splitting_hurts_map_at_default_threshold_too():
    # At the default 0.5 the larger piece of any split still matches, but when
    # the false-positive piece outranks it, AP strictly drops: 1.0 -> 0.5.
    gt = [(0, 150)]
    whole = {"v": ([(0, 150, 0.9)], gt)}
    split = {"v": ([(0, 50, 0.9), (50, 150, 0.8)], gt)}
    assert average_precision(_ds(whole), TIOU) == 1.0
    assert average_precision(_ds(split), TIOU) == 0.5
    assert global_iou(_ds(whole)) == global_iou(_ds(split)) == 1.0
