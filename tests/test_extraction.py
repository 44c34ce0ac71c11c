"""resize_bilinear and extract_cuboid against a frozen copy of the resize
they replaced, and the memory bound of a downscale.

The reference below is the earlier resize_bilinear, kept verbatim: it casts
the whole frame to float64, then gathers the 2x2 neighbours of each output
pixel. The current code builds one gather plan per cuboid, gathers each
frame's pixels channel-major through it and casts after. Each output element
still gets the same float64 products and sums in the same order, so the two
must agree byte for byte at every shape.
"""

import tracemalloc

import numpy as np
import pytest

from strokebench import frames as frames_mod
from strokebench.frames import (extract_cuboid, open_frame_dir, open_rgbv, resize_bilinear,
                                write_rgbv)

# -- frozen reference ----------------------------------------------------------


def reference_resize(frame, out_size):
    oh, ow = out_size
    h, w, _ = frame.shape
    src = frame.astype(np.float64)
    if (h, w) == (oh, ow):
        return src

    sy = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def reference_cuboid(frames, start, length, size):
    values = np.empty((3, length, size, size), dtype=np.float32)
    for t in range(length):
        values[:, t] = reference_resize(frames[start + t], (size, size)).transpose(2, 0, 1) / 255.0
    return values


def _assert_same_bytes(got, ref):
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# -- resize --------------------------------------------------------------------

# (h, w, channels, oh, ow)
NAMED_SHAPES = {
    "identity": (6, 6, 3, 6, 6),
    "identity-non-square": (4, 7, 3, 4, 7),
    "one-pixel-identity": (1, 1, 3, 1, 1),
    "one-pixel-source": (1, 1, 3, 5, 7),
    "one-pixel-output": (9, 13, 3, 1, 1),
    "one-row-source": (1, 17, 3, 4, 5),
    "one-column-output": (11, 8, 3, 6, 1),
    "upscale": (2, 2, 3, 4, 4),
    "upscale-non-square": (5, 3, 3, 17, 2),
    "one-channel": (10, 14, 1, 3, 5),
    "four-channels": (12, 9, 4, 7, 20),
    "720p-to-32": (720, 1280, 3, 32, 32),
    "1080p-to-120": (1080, 1920, 3, 120, 120),
}


@pytest.mark.parametrize("shape", NAMED_SHAPES.values(), ids=NAMED_SHAPES.keys())
def test_resize_matches_reference_bytes(shape):
    h, w, c, oh, ow = shape
    frame = np.random.default_rng(h * w + oh).integers(0, 256, (h, w, c), dtype=np.uint8)
    _assert_same_bytes(resize_bilinear(frame, (oh, ow)), reference_resize(frame, (oh, ow)))


def test_resize_matches_reference_bytes_on_random_shapes():
    rng = np.random.default_rng(11)
    for _ in range(200):
        h, w, oh, ow = (int(v) for v in rng.integers(1, 40, 4))
        frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        _assert_same_bytes(resize_bilinear(frame, (oh, ow)), reference_resize(frame, (oh, ow)))


def test_resize_matches_reference_bytes_on_float_frames():
    frame = np.random.default_rng(12).random((13, 21, 3), dtype=np.float32) * 255
    _assert_same_bytes(resize_bilinear(frame, (5, 8)), reference_resize(frame, (5, 8)))


def test_resize_matches_reference_bytes_on_strided_frames():
    frame = np.random.default_rng(16).integers(0, 256, (21, 13, 3), dtype=np.uint8)
    for view in (frame[:, ::-1], frame.transpose(1, 0, 2), frame[::2, 1:]):
        for out_size in [(5, 8), (30, 17), view.shape[:2]]:
            _assert_same_bytes(resize_bilinear(view, out_size), reference_resize(view, out_size))


def test_hd_downscale_peak_allocation_below_1mb():
    frame = np.random.default_rng(13).integers(0, 256, (720, 1280, 3), dtype=np.uint8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        resize_bilinear(frame, (32, 32))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # casting the whole frame to float64 alone would take 22 MB
    assert peak < 1e6


# -- extraction ----------------------------------------------------------------


def test_rgbv_extraction_matches_reference(tmp_path):
    frames = np.random.default_rng(14).integers(0, 256, (5, 720, 1280, 3), dtype=np.uint8)
    path = tmp_path / "hd.rgbv"
    write_rgbv(path, frames, 120)
    src = open_rgbv(path)
    for start, length, size in [(0, 5, 32), (1, 3, 120), (2, 2, 7)]:
        got = extract_cuboid(src, start, length=length, size=size).values
        _assert_same_bytes(got, reference_cuboid(frames, start, length, size))


def test_hd_window_extraction_matches_reference_at_several_starts(tmp_path):
    frames = np.random.default_rng(17).integers(0, 256, (19, 720, 1280, 3), dtype=np.uint8)
    path = tmp_path / "hd.rgbv"
    write_rgbv(path, frames, 120)
    src = open_rgbv(path)
    for start in (0, 1, 3):
        got = extract_cuboid(src, start, length=16, size=32).values
        _assert_same_bytes(got, reference_cuboid(frames, start, 16, 32))


def test_non_square_source_extraction_matches_reference(tmp_path):
    # every size upscales at least one axis of a 9x23 frame, the first both
    frames = np.random.default_rng(18).integers(0, 256, (6, 9, 23, 3), dtype=np.uint8)
    path = tmp_path / "wide.rgbv"
    write_rgbv(path, frames, 30)
    src = open_rgbv(path)
    for start, length, size in [(0, 6, 40), (2, 3, 12), (5, 1, 16)]:
        got = extract_cuboid(src, start, length=length, size=size).values
        _assert_same_bytes(got, reference_cuboid(frames, start, length, size))


def test_extraction_builds_one_resize_plan_per_cuboid(tmp_path, monkeypatch):
    frames = np.random.default_rng(19).integers(0, 256, (8, 24, 40, 3), dtype=np.uint8)
    write_rgbv(tmp_path / "v.rgbv", frames, 30)
    src = open_rgbv(tmp_path / "v.rgbv")
    plans = []
    build = frames_mod._resize_plan

    def spy(shape, out_size):
        plans.append((shape, out_size))
        return build(shape, out_size)

    monkeypatch.setattr(frames_mod, "_resize_plan", spy)
    for start, size in [(0, 16), (2, 24)]:
        extract_cuboid(src, start, length=6, size=size)
    assert plans == [((24, 40, 3), (16, 16)), ((24, 40, 3), (24, 24))]


def test_ppm_dir_extraction_matches_reference(tmp_path):
    frames = np.random.default_rng(15).integers(0, 256, (4, 90, 160, 3), dtype=np.uint8)
    for i, img in enumerate(frames):
        comment = b"# frame %d\n" % i * (i * 50)  # header lengths differ per frame
        (tmp_path / f"{i:06d}.ppm").write_bytes(b"P6\n" + comment + b"160 90\n255\n"
                                                + img.tobytes())
    src = open_frame_dir(tmp_path)
    for start, length, size in [(0, 4, 32), (1, 2, 16), (0, 1, 200)]:
        got = extract_cuboid(src, start, length=length, size=size).values
        _assert_same_bytes(got, reference_cuboid(frames, start, length, size))
