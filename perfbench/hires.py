"""Write the detect-hires test videos: 150-frame RGBV clips at HD size.

Run as its own process (`python hires.py OUT_DIR SEED HEIGHT WIDTH`) so
the whole-clip buffers that `frames.write_rgbv` needs never count towards the
peak RSS of the workload process. Of the two clips, the first holds one stroke
spanning the clip, drawn like the synthetic corpus draws it (a bright patch a
quarter of the frame on each side, in a class-dependent channel, moving in a
class-dependent direction) and the second stays black: 0.83 GB at 720p. Each
clip gets an annotation XML next to it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from strokebench import annotations, frames

CLIP_FRAMES = 150  # one default-length proposal per clip
CLIPS = 2
FPS = 120.0


def render_clip(rng: np.random.Generator, height: int, width: int,
                stroke: bool) -> np.ndarray:
    clip = np.zeros((CLIP_FRAMES, height, width, 3), dtype=np.uint8)
    if not stroke:
        return clip
    cls = int(rng.integers(2))
    ph, pw = max(2, height // 4), max(2, width // 4)
    y0, x0 = int(rng.integers(height)), int(rng.integers(width))
    # two pixels per frame at the 32x32 training scale, rightward or downward
    vy, vx = (0.0, 2.0 * width / 32) if cls == 0 else (2.0 * height / 32, 0.0)
    for t in range(CLIP_FRAMES):
        ys = (np.arange(ph) + y0 + int(round(vy * t))) % height
        xs = (np.arange(pw) + x0 + int(round(vx * t))) % width
        clip[t, ys[:, None], xs[None, :], cls] = 255
    return clip


def write_clips(out_dir, seed: int, height: int, width: int) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(CLIPS):
        video_id = f"hires{i:02d}"
        stroke = i % 2 == 0
        frames.write_rgbv(out_dir / f"{video_id}.rgbv",
                          render_clip(rng, height, width, stroke), FPS)
        segments = ([annotations.Segment(0, CLIP_FRAMES, annotations.STROKE_LABEL)]
                    if stroke else [])
        xml = annotations.render_annotation_xml(video_id, segments, CLIP_FRAMES, FPS)
        (out_dir / f"{video_id}.xml").write_bytes(xml)


if __name__ == "__main__":
    out, seed, height, width = sys.argv[1], *map(int, sys.argv[2:5])
    write_clips(out, seed, height, width)
