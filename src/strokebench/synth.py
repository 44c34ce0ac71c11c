"""Deterministic synthetic corpus for end-to-end runs and tests.

Each video alternates black gaps with stroke segments in which a bright
square patch moves across the frame; the patch's color channel and motion
direction are functions of the class index, so classes are separable by a
spatio-temporal model but not by any single frame's histogram alone (motion
direction needs the temporal axis). Everything (patch positions included) is
a pure function of the seed, so regenerating a corpus is byte-identical.

Layout under the output root: <split>/<video_id>.rgbv plus
<split>/<video_id>.xml for split in train/validation/test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotations import Segment, Taxonomy, default_taxonomy, render_annotation_xml
from .errors import ConfigError
from .frames import check_fps, write_rgbv
from .nn.rng import SplitMix64, derive_seed

SPLITS = ("train", "validation", "test")
_SPLIT_SALT = {"train": 1, "validation": 2, "test": 3}


@dataclass
class SynthConfig:
    classes: int = 2
    train_per_class: int = 10
    val_per_class: int = 3
    test_per_class: int = 3
    frame_size: int = 32
    stroke_len: int = 150
    gap_len: int = 300
    strokes_per_video: int = 3
    fps: float = 120.0
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if min(self.train_per_class, self.val_per_class, self.test_per_class) < 1:
            raise ConfigError("per-class sample counts must be >= 1")
        if self.frame_size < 8:
            raise ConfigError(f"frame size must be >= 8, got {self.frame_size}")
        if self.stroke_len < 1 or self.gap_len < 1 or self.strokes_per_video < 1:
            raise ConfigError("stroke/gap lengths and strokes per video must be >= 1")
        check_fps(self.fps, ConfigError)


def _class_velocity(class_index: int, n_classes: int) -> tuple[float, float]:
    angle = 2.0 * math.pi * class_index / n_classes
    speed = 2.0
    return speed * math.cos(angle), speed * math.sin(angle)


def _render_stroke(frames: np.ndarray, seg: Segment, class_index: int,
                   n_classes: int, rng: SplitMix64) -> None:
    size = frames.shape[1]
    side = max(2, size // 4)
    x0 = rng.below(size)
    y0 = rng.below(size)
    dx, dy = _class_velocity(class_index, n_classes)
    channel = class_index % 3
    for i, t in enumerate(range(seg.begin, seg.end)):
        px = int(round(x0 + dx * i)) % size
        py = int(round(y0 + dy * i)) % size
        xs = (np.arange(side) + px) % size
        ys = (np.arange(side) + py) % size
        frames[t][np.ix_(ys, xs, [channel])] = 255


def _video_plan(class_sequence: list[int], cfg: SynthConfig):
    """Segments for one video holding class_sequence strokes, with a gap
    before, between and after the strokes."""
    segs = []
    pos = cfg.gap_len
    for cls in class_sequence:
        segs.append((Segment(pos, pos + cfg.stroke_len, ""), cls))
        pos += cfg.stroke_len + cfg.gap_len
    return segs, pos  # pos == total frame count


def generate_corpus(out_dir, cfg: SynthConfig, tax: Taxonomy | None = None) -> dict[str, int]:
    """Write the corpus; returns segments written per split."""
    tax = tax or default_taxonomy()
    if cfg.classes > len(tax.labels):
        raise ConfigError(
            f"requested {cfg.classes} classes but the taxonomy has {len(tax.labels)} labels"
        )
    labels = tax.labels[: cfg.classes]
    out_dir = Path(out_dir)
    counts = {}
    per_split = {"train": cfg.train_per_class, "validation": cfg.val_per_class,
                 "test": cfg.test_per_class}
    for split in SPLITS:
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        # round-robin class order, chunked into videos
        total = cfg.classes * per_split[split]
        sequence = [i % cfg.classes for i in range(total)]
        chunks = [sequence[i : i + cfg.strokes_per_video]
                  for i in range(0, total, cfg.strokes_per_video)]
        written = 0
        for vidx, chunk in enumerate(chunks):
            video_id = f"{split}{vidx:03d}"
            rng = SplitMix64(derive_seed(cfg.seed, _SPLIT_SALT[split], vidx))
            plan, frame_count = _video_plan(chunk, cfg)
            frames = np.zeros((frame_count, cfg.frame_size, cfg.frame_size, 3),
                              dtype=np.uint8)
            segments = []
            for seg, cls in plan:
                _render_stroke(frames, seg, cls, cfg.classes, rng)
                segments.append(Segment(seg.begin, seg.end, labels[cls]))
                written += 1
            write_rgbv(split_dir / f"{video_id}.rgbv", frames, cfg.fps)
            xml = render_annotation_xml(video_id, segments, frame_count, cfg.fps)
            (split_dir / f"{video_id}.xml").write_bytes(xml)
        counts[split] = written
    return counts
