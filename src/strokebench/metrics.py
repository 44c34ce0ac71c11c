"""Evaluation: a confusion matrix per taxonomy level with its diagonal
accuracy, temporal-IoU average precision and global frame-wise IoU.

AP follows the PASCAL convention: predictions ranked by descending score (ties
by video id, then begin), greedily matched per video to the unmatched ground
truth with the highest temporal IoU (IoU ties to the earliest begin), true
positive iff that IoU clears the threshold; the PR curve is integrated with
the precision envelope over all points. Detection has one class, stroke, so
the mAP that `eval` reports is that class's AP. Global IoU instead pools
predicted and ground-truth frame sets per video and micro-averages
intersection over union across videos, so it is insensitive to how
detections are split; per video |P∪G| is one union sweep and |P∩G| is
|P| + |G| - |P∪G|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annotations import Segment, Taxonomy, superclass_of
from .errors import MetricError


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
    mapped = [superclass_of(tax, lab, level) for lab in cm.labels]
    out_labels = list(dict.fromkeys(mapped))
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


def average_precision(ds: DetectionSet, threshold: float) -> float:
    check_threshold(threshold)
    n_gt = ds.n_ground_truth
    if n_gt == 0:
        raise MetricError("average precision undefined without ground truth")
    return _envelope_ap(match_detections(ds, threshold), n_gt)


def _covered(segments: list[Segment]) -> int:
    """Frames in the union of the half-open segments, from one sweep by begin."""
    total = reach = 0
    for s in sorted(segments, key=lambda s: s.begin):
        lo = max(s.begin, reach)
        if s.end > lo:
            total += s.end - lo
            reach = s.end
    return total


def global_iou(ds: DetectionSet) -> float:
    """Frame-wise |P∩G| / |P∪G| with numerator and denominator pooled over all
    videos; detection count plays no role."""
    inter = union = 0
    for preds, gts in ds.videos.values():
        both = _covered(preds + gts)
        inter += _covered(preds) + _covered(gts) - both
        union += both
    if union == 0:
        raise MetricError("global IoU undefined: no predicted or ground-truth frames")
    return inter / union
