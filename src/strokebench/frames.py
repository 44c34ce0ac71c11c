"""Uncompressed video sources, bilinear resizing and cuboid extraction.

Two sources are supported so the pipeline needs no codec dependencies:

* RGBV container: ASCII magic ``RGBV1\\n``, one ASCII header line
  ``width height fps frame_count\\n`` of at most 256 bytes (fps may be
  decimal), then frame_count raw frames of height*width interleaved R,G,B
  bytes, no padding.
* Frame directory: binary PPM (P6, maxval 255) files named by zero-padded
  frame index, e.g. 000000.ppm, 000001.ppm, ..., read at 120 fps.

Frames come back as uint8 (H, W, 3) arrays; reads are stateless, the same
index always yields the same bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CuboidError, StrokebenchError, VideoFormatError

RGBV_MAGIC = b"RGBV1\n"
RGBV_HEADER_MAX = 256  # bytes in the header line, its newline included
FRAME_DIR_FPS = 120.0  # a frame directory stores no rate


class VideoSource:
    """Common surface: width/height/fps/frame_count plus frame(i)."""

    video_id: str
    width: int
    height: int
    fps: float
    frame_count: int

    def frame(self, index: int) -> np.ndarray:
        raise NotImplementedError

    def _check_index(self, index: int):
        if not 0 <= index < self.frame_count:
            raise VideoFormatError(
                f"{self.video_id}: frame index {index} outside [0, {self.frame_count})"
            )


class RgbvVideo(VideoSource):
    def __init__(self, path):
        path = Path(path)
        self.video_id = path.stem
        with open(path, "rb") as fh:
            magic = fh.read(len(RGBV_MAGIC))
            if magic != RGBV_MAGIC:
                raise VideoFormatError(f"{path}: bad magic {magic!r}, expected {RGBV_MAGIC!r}")
            header = fh.readline(RGBV_HEADER_MAX + 1)
            offset = fh.tell()
        self.width, self.height, self.fps, self.frame_count = _parse_rgbv_header(header, path)

        expected = offset + self.frame_count * self.height * self.width * 3
        actual = os.path.getsize(path)
        if actual < expected:
            raise VideoFormatError(f"{path}: truncated payload ({actual} < {expected} bytes)")
        if actual > expected:
            raise VideoFormatError(f"{path}: trailing data ({actual} > {expected} bytes)")
        self._frames = (
            np.memmap(path, dtype=np.uint8, mode="r", offset=offset,
                      shape=(self.frame_count, self.height, self.width, 3))
            if self.frame_count
            else np.zeros((0, self.height, self.width, 3), dtype=np.uint8)
        )

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        return np.asarray(self._frames[index])


def open_rgbv(path) -> RgbvVideo:
    return RgbvVideo(path)


def check_fps(fps: float, error: type[StrokebenchError], prefix: str = "") -> None:
    """The frame-rate rule of RGBV headers, annotation XML and the synthetic
    corpus: raise error(prefix + message) unless fps is finite and > 0."""
    if not 0 < fps < math.inf:
        raise error(f"{prefix}fps must be finite and > 0, got {float(fps)}")


def fps_text(fps: float) -> str:
    """fps as RGBV headers and annotation XML write it: an integer without a
    decimal point, any other value as Python's shortest repr."""
    return str(int(fps)) if float(fps).is_integer() else repr(float(fps))


def _parse_rgbv_header(line: bytes, path) -> tuple[int, int, float, int]:
    """(width, height, fps, frame_count) of an RGBV header line, newline included."""
    if len(line) > RGBV_HEADER_MAX:
        raise VideoFormatError(f"{path}: header line too long")
    if not line.endswith(b"\n"):
        raise VideoFormatError(f"{path}: truncated header")
    fields = line.decode("ascii", "replace").split()
    if len(fields) != 4:
        raise VideoFormatError(f"{path}: header must be 'width height fps frame_count'")
    try:
        width, height, frame_count = int(fields[0]), int(fields[1]), int(fields[3])
        fps = float(fields[2])
    except ValueError:
        raise VideoFormatError(f"{path}: non-numeric header field in {fields}") from None
    if width < 1 or height < 1:
        raise VideoFormatError(f"{path}: zero or negative frame extents")
    check_fps(fps, VideoFormatError, f"{path}: ")
    if frame_count < 0:
        raise VideoFormatError(f"{path}: frame_count must be >= 0, got {frame_count}")
    return width, height, fps, frame_count


def write_rgbv(path, frames: np.ndarray, fps: float) -> None:
    """Write an (N, H, W, 3) uint8 array as an RGBV file whose header the reader accepts."""
    frames = np.ascontiguousarray(frames, dtype=np.uint8)
    if frames.ndim != 4 or frames.shape[3] != 3:
        raise VideoFormatError(f"frames must be (N, H, W, 3), got {frames.shape}")
    n, h, w, _ = frames.shape
    header = f"{w} {h} {fps_text(fps)} {n}\n".encode("ascii")
    _parse_rgbv_header(header, path)
    with open(path, "wb") as fh:
        fh.write(RGBV_MAGIC)
        fh.write(header)
        fh.write(frames.tobytes())


def _ppm_tokens(data: bytes, path, count: int):
    """First `count` whitespace-separated PNM header tokens ('#' comments skipped);
    returns (tokens, payload_offset)."""
    tokens, i, n = [], 0, len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i] != ord("#"):
            i += 1
        if start == i:
            raise VideoFormatError(f"{path}: truncated PPM header")
        tokens.append(data[start:i])
    if i >= n or not data[i : i + 1].isspace():
        raise VideoFormatError(f"{path}: missing whitespace after PPM header")
    return tokens, i + 1


def _read_ppm_header(p: Path):
    """(tokens, payload_offset, file_size) of a P6 file, parsed from its first
    4096 bytes, or from the whole file if comments make the header longer."""
    with open(p, "rb") as fh:
        head = fh.read(4096)
        try:
            tokens, offset = _ppm_tokens(head, p, 4)
        except VideoFormatError:
            tokens, offset = _ppm_tokens(head + fh.read(), p, 4)
        return tokens, offset, os.fstat(fh.fileno()).st_size


@dataclass
class _PpmFrame:
    path: Path
    offset: int


class FrameDirVideo(VideoSource):
    def __init__(self, path):
        path = Path(path)
        self.video_id = path.name
        self.fps = FRAME_DIR_FPS
        entries = sorted(p for p in path.iterdir() if p.suffix.lower() == ".ppm")
        if not entries:
            raise VideoFormatError(f"{path}: no .ppm frames found")
        by_index: dict[int, Path] = {}
        for p in entries:
            if not p.stem.isdigit():
                raise VideoFormatError(f"{p}: frame name is not a zero-padded index")
            idx = int(p.stem, 10)
            if idx in by_index:
                raise VideoFormatError(f"{p}: duplicate frame index {idx}")
            by_index[idx] = p
        missing = sorted(set(range(len(by_index))) - set(by_index))
        if missing:
            raise VideoFormatError(f"{path}: missing frame indices {missing[:5]}")

        self.width = self.height = 0
        self._frames: list[_PpmFrame] = []
        for idx in range(len(by_index)):
            p = by_index[idx]
            tokens, offset, size = _read_ppm_header(p)
            if tokens[0] != b"P6":
                raise VideoFormatError(f"{p}: not a binary P6 PPM (magic {tokens[0]!r})")
            try:
                w, h, maxval = (int(t) for t in tokens[1:4])
            except ValueError:
                raise VideoFormatError(f"{p}: non-numeric PPM header field") from None
            if maxval != 255:
                raise VideoFormatError(f"{p}: unsupported maxval {maxval}, only 255")
            if w < 1 or h < 1:
                raise VideoFormatError(f"{p}: zero frame extents")
            if idx == 0:
                self.width, self.height = w, h
            elif (w, h) != (self.width, self.height):
                raise VideoFormatError(
                    f"{p}: mixed extents {w}x{h}, expected {self.width}x{self.height}"
                )
            if size - offset < w * h * 3:
                raise VideoFormatError(f"{p}: truncated pixel payload")
            self._frames.append(_PpmFrame(p, offset))
        self.frame_count = len(self._frames)

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        rec = self._frames[index]
        data = rec.path.read_bytes()
        px = np.frombuffer(data, dtype=np.uint8, count=self.height * self.width * 3,
                           offset=rec.offset)
        return px.reshape(self.height, self.width, 3)


def open_frame_dir(path) -> FrameDirVideo:
    return FrameDirVideo(path)


def resize_bilinear(frame: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Bilinear resize with half-pixel centers, channels independent.

    Source coordinate for output index d is (d + 0.5) * in/out - 0.5, clamped
    to the valid range; returns float64, exactly the input when sizes match.
    Only the 2*oh source rows and 2*ow source columns that the output reads
    are gathered, then cast to float64, so a large frame is never copied whole.
    """
    oh, ow = out_size
    if frame.ndim != 3:
        raise VideoFormatError(f"expected (H, W, C) frame, got shape {frame.shape}")
    h, w, _ = frame.shape
    if min(h, w, oh, ow) < 1:
        raise VideoFormatError(f"extents must be >= 1, got {h}x{w} -> {oh}x{ow}")
    if (h, w) == (oh, ow):
        return frame.astype(np.float64)

    sy = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (sy - y0)[:, None, None]
    wx = (sx - x0)[None, :, None]
    # rows y0 then y1, columns x0 then x1
    src = frame[np.concatenate((y0, y1))][:, np.concatenate((x0, x1))].astype(np.float64)
    top = src[:oh, :ow] * (1 - wx) + src[:oh, ow:] * wx
    bot = src[oh:, :ow] * (1 - wx) + src[oh:, ow:] * wx
    return top * (1 - wy) + bot * wy


@dataclass
class Cuboid:
    """Model input block: float32 values (3, length, size, size) in [0, 1]."""

    values: np.ndarray


def extract_cuboid(src: VideoSource, start: int, length: int, size: int) -> Cuboid:
    """Stack frames [start, start+length), resized to size*size and scaled by
    1/255, channel-major. The window must fit inside the video."""
    if length < 1 or size < 1:
        raise CuboidError(f"length and size must be >= 1, got {length}/{size}")
    if start < 0 or start + length > src.frame_count:
        raise CuboidError(
            f"{src.video_id}: window [{start}, {start + length}) out of range "
            f"for {src.frame_count} frames"
        )
    values = np.empty((3, length, size, size), dtype=np.float32)
    for t in range(length):
        resized = resize_bilinear(src.frame(start + t), (size, size))
        values[:, t] = resized.transpose(2, 0, 1) / 255.0
    return Cuboid(values)
