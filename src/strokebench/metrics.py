"""Evaluation: accuracy, hierarchical confusion matrices, temporal-IoU average
precision and global frame-wise IoU.

AP follows the PASCAL convention: predictions ranked by descending score (ties
by video id, then begin), greedily matched per video to the unmatched ground
truth with the highest temporal IoU (IoU ties to the earliest begin), true
positive iff that IoU clears the threshold; the PR curve is integrated with
the precision envelope over all points. Global IoU instead pools predicted
and ground-truth frame sets per video and micro-averages intersection over
union across videos, so it is insensitive to how detections are split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annotations import LEVELS, Segment, Taxonomy, superclass_of
from .errors import MetricError


def accuracy(pred: list[str], truth: list[str]) -> float:
    if len(pred) != len(truth):
        raise MetricError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if not truth:
        raise MetricError("cannot compute accuracy of zero samples")
    return sum(p == t for p, t in zip(pred, truth)) / len(truth)


@dataclass
class ConfusionMatrix:
    """Rows are truth, columns prediction, in `labels` order."""

    labels: list[str]
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def diagonal_accuracy(self) -> float:
        if self.total == 0:
            raise MetricError("empty confusion matrix")
        return int(np.trace(self.counts)) / self.total

    def to_csv(self) -> str:
        lines = ["truth\\pred," + ",".join(self.labels)]
        for label, row in zip(self.labels, self.counts):
            lines.append(label + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def confusion(pred: list[str], truth: list[str], labels: list[str]) -> ConfusionMatrix:
    if len(pred) != len(truth):
        raise MetricError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for p, t in zip(pred, truth):
        if t not in index:
            raise MetricError(f"truth label {t!r} not in label list")
        if p not in index:
            raise MetricError(f"predicted label {p!r} not in label list")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(list(labels), counts)


def aggregate(cm: ConfusionMatrix, tax: Taxonomy, level: str) -> ConfusionMatrix:
    """Sum cells whose labels map to the same super-label pair; totals are
    preserved. Super-labels appear in first-appearance order of cm.labels."""
    if level not in LEVELS:
        raise MetricError(f"unknown level {level!r}; know {LEVELS}")
    mapped = [superclass_of(tax, lab, level) for lab in cm.labels]
    out_labels: list[str] = []
    for m in mapped:
        if m not in out_labels:
            out_labels.append(m)
    index = {lab: i for i, lab in enumerate(out_labels)}
    counts = np.zeros((len(out_labels), len(out_labels)), dtype=np.int64)
    for i, mi in enumerate(mapped):
        for j, mj in enumerate(mapped):
            counts[index[mi], index[mj]] += cm.counts[i, j]
    return ConfusionMatrix(out_labels, counts)


def tiou(a: Segment, b: Segment) -> float:
    inter = max(0, min(a.end, b.end) - max(a.begin, b.begin))
    union = a.length + b.length - inter
    return inter / union


@dataclass
class DetectionSet:
    """Per video: scored predictions plus unscored ground truth."""

    videos: dict[str, tuple[list[Segment], list[Segment]]] = field(default_factory=dict)

    def add_video(self, video_id: str, predictions: list[Segment],
                  ground_truth: list[Segment]) -> None:
        if video_id in self.videos:
            raise MetricError(f"duplicate video id {video_id!r}")
        for p in predictions:
            if p.score is None:
                raise MetricError(f"{video_id}: prediction [{p.begin}, {p.end}) has no score")
        for g in ground_truth:
            if g.score is not None:
                raise MetricError(f"{video_id}: ground truth [{g.begin}, {g.end}) carries a score")
        self.videos[video_id] = (list(predictions), list(ground_truth))

    @property
    def n_ground_truth(self) -> int:
        return sum(len(gts) for _, gts in self.videos.values())


def match_detections(ds: DetectionSet, threshold: float) -> list[bool]:
    """True/false-positive flags in final ranking order (descending score,
    ties by video id then begin). A ground truth is consumed only by the
    true positive that matches it."""
    ranked = sorted(
        ((vid, p) for vid, (preds, _) in ds.videos.items() for p in preds),
        key=lambda vp: (-vp[1].score, vp[0], vp[1].begin, vp[1].end),
    )
    open_gts = {vid: sorted(gts, key=lambda s: s.begin)
                for vid, (_, gts) in ds.videos.items()}
    flags = []
    for vid, pred in ranked:
        best, best_iou = None, 0.0
        for gt in open_gts[vid]:  # begin order, so strict > keeps the earliest tie
            iou = tiou(pred, gt)
            if iou > best_iou:
                best, best_iou = gt, iou
        if best is not None and best_iou >= threshold:
            open_gts[vid].remove(best)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _envelope_ap(flags: list[bool], n_gt: int) -> float:
    if not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_gt
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate(([0.0], recall[:-1]))
    return float(np.sum((recall - prev) * envelope))


def check_threshold(threshold: float) -> None:
    if not 0 < threshold <= 1:
        raise MetricError(f"temporal-IoU threshold {threshold} is not in (0, 1]")


def average_precision(ds: DetectionSet, threshold: float = 0.5) -> float:
    check_threshold(threshold)
    n_gt = ds.n_ground_truth
    if n_gt == 0:
        raise MetricError("average precision undefined without ground truth")
    return _envelope_ap(match_detections(ds, threshold), n_gt)


def mean_average_precision(per_class: dict[str, DetectionSet],
                           threshold: float = 0.5) -> float:
    """Unweighted mean AP over classes that have ground truth; classes with no
    ground truth are excluded rather than counted as zero."""
    aps = [average_precision(ds, threshold)
           for ds in per_class.values() if ds.n_ground_truth > 0]
    if not aps:
        raise MetricError("no class has ground truth")
    return sum(aps) / len(aps)


def _merged_intervals(segments: list[Segment]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for s in sorted(segments, key=lambda s: s.begin):
        if merged and s.begin <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s.end)
        else:
            merged.append([s.begin, s.end])
    return [(b, e) for b, e in merged]


def _interval_overlap(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> int:
    total, i, j = 0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def global_iou(ds: DetectionSet) -> float:
    """Frame-wise |P∩G| / |P∪G| with numerator and denominator pooled over all
    videos; detection count plays no role."""
    inter = union = 0
    for preds, gts in ds.videos.values():
        p = _merged_intervals(preds)
        g = _merged_intervals(gts)
        p_len = sum(e - b for b, e in p)
        g_len = sum(e - b for b, e in g)
        i = _interval_overlap(p, g)
        inter += i
        union += p_len + g_len - i
    if union == 0:
        raise MetricError("global IoU undefined: no predicted or ground-truth frames")
    return inter / union
