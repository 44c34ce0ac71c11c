"""Uncompressed video sources, bilinear resizing and cuboid extraction.

Two sources are supported so the pipeline needs no codec dependencies:

* RGBV container: ASCII magic ``RGBV1\\n``, one ASCII header line
  ``width height fps frame_count\\n`` of at most 256 bytes (fps may be
  decimal), then frame_count raw frames of height*width interleaved R,G,B
  bytes, no padding.
* Frame directory: binary PPM (P6, maxval 255) files named by zero-padded
  frame index, e.g. 000000.ppm, 000001.ppm, ..., read at 120 fps.

Frames come back as uint8 (H, W, 3) arrays; reads are stateless, the same
index always yields the same bytes. An RGBV video holds no open file: it
maps its file read-only at its first read, and each frame is a view of that
mapping, so the pages a read touches stay in the process's RSS until
`release()` closes the mapping; the page cache keeps them, and the next read
maps the file again and faults them back in with the same bytes.
"""

from __future__ import annotations

import math
import mmap
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CuboidError, StrokebenchError, VideoFormatError

RGBV_MAGIC = b"RGBV1\n"
RGBV_HEADER_MAX = 256  # bytes in the header line, its newline included
VIDEO_FPS = 120.0  # the corpus's frame rate; a frame directory, which stores none, reads at it


class VideoSource:
    """Common surface: width/height/fps/frame_count plus frame(i)."""

    video_id: str
    width: int
    height: int
    fps: float
    frame_count: int

    def frame(self, index: int) -> np.ndarray:
        raise NotImplementedError

    def release(self) -> None:
        """Drop this process's mapping of the video's pages, if it maps any.
        Later reads, and frame views taken before, read the same bytes."""

    def _check_index(self, index: int):
        if not 0 <= index < self.frame_count:
            raise VideoFormatError(
                f"{self.video_id}: frame index {index} outside [0, {self.frame_count})"
            )


class RgbvVideo(VideoSource):
    """An RGBV file whose header and size are checked at open, after which
    the file is closed: no descriptor is held for the video's life. The
    first `frame` maps the file read-only and returns views of the mapping;
    `release` closes the mapping, which the next `frame` makes again (a
    zero-frame video maps nothing)."""

    def __init__(self, path):
        self._path = Path(path)
        self.video_id = self._path.stem
        with open(self._path, "rb") as fh:
            magic = fh.read(len(RGBV_MAGIC))
            if magic != RGBV_MAGIC:
                raise VideoFormatError(
                    f"{self._path}: bad magic {magic!r}, expected {RGBV_MAGIC!r}")
            header = fh.readline(RGBV_HEADER_MAX + 1)
            self._offset = fh.tell()
            self.width, self.height, self.fps, self.frame_count = _parse_rgbv_header(
                header, self._path)
            self._shape = (self.frame_count, self.height, self.width, 3)
            self._size = self._offset + math.prod(self._shape)
            actual = os.fstat(fh.fileno()).st_size
            if actual < self._size:
                raise VideoFormatError(
                    f"{self._path}: truncated payload ({actual} < {self._size} bytes)")
            if actual > self._size:
                raise VideoFormatError(
                    f"{self._path}: trailing data ({actual} > {self._size} bytes)")
        self._map = self._frames = None

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        if self._frames is None:
            if self._map is None:
                with open(self._path, "rb") as fh:
                    actual = os.fstat(fh.fileno()).st_size
                    if actual != self._size:
                        raise VideoFormatError(f"{self._path}: size changed since the video "
                                               f"was opened ({actual} != {self._size} bytes)")
                    self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            self._frames = np.frombuffer(self._map, np.uint8,
                                         offset=self._offset).reshape(self._shape)
        return self._frames[index]

    def release(self) -> None:
        """Close the mapping, and with it the descriptor the mapping holds
        and every page it has touched. While a caller still holds a frame
        view, the mapping cannot close (BufferError); it then stays, and
        madvise(MADV_DONTNEED) over all of it drops its pages instead. A
        frame's own range would leave mapped the pages the kernel maps
        around each fault (64 KB), and the call takes microseconds however
        large the mapping. Either way a later read, or a held view, faults
        the pages in again with the same bytes."""
        if self._map is None:
            return
        self._frames = None
        try:
            self._map.close()
        except BufferError:  # a frame view outlives the call
            if hasattr(mmap, "MADV_DONTNEED"):
                self._map.madvise(mmap.MADV_DONTNEED)
            return
        self._map = None


def open_rgbv(path) -> RgbvVideo:
    return RgbvVideo(path)


def check_fps(fps: float, error: type[StrokebenchError], prefix: str = "") -> None:
    """The frame-rate rule of RGBV headers, annotation XML and the synthetic
    corpus: raise error(prefix + message) unless fps is finite and > 0."""
    if not 0 < fps < math.inf:
        raise error(f"{prefix}fps must be finite and > 0, got {float(fps)}")


def ascii_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits, else ValueError (int()
    also takes '+', '_', spaces and other digits): the rule of integer text."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not a base-10 integer: {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """float(text) for an optional '-', ASCII digits, an optional fraction and
    an optional exponent, else ValueError (float() also takes '+', '_',
    spaces, other digits, 'inf' and 'nan'): the rule of decimal text. Every
    value fps_text and repr(float) write passes it."""
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?", text):
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


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
        width, height, frame_count = (ascii_int(fields[i]) for i in (0, 1, 3))
        fps = ascii_float(fields[2])
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
        fh.write(frames.data)  # the array's own buffer: no copy of the clip


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
    size: int  # the file's bytes at open


class FrameDirVideo(VideoSource):
    def __init__(self, path):
        path = Path(path)
        self.video_id = path.name
        self.fps = VIDEO_FPS
        entries = sorted(p for p in path.iterdir() if p.suffix.lower() == ".ppm")
        if not entries:
            raise VideoFormatError(f"{path}: no .ppm frames found")
        by_index: dict[int, Path] = {}
        for p in entries:
            try:  # the integer rule less its sign, which "+" fails: no "-0" either
                idx = ascii_int(p.stem.replace("-", "+"))
            except ValueError:
                raise VideoFormatError(f"{p}: frame name is not a zero-padded index") from None
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
                w, h, maxval = (ascii_int(t.decode("latin-1")) for t in tokens[1:4])
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
            self._frames.append(_PpmFrame(p, offset, size))
        self.frame_count = len(self._frames)

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        rec = self._frames[index]
        data = rec.path.read_bytes()
        if len(data) != rec.size:
            raise VideoFormatError(f"{rec.path}: size changed since the video was opened "
                                   f"({len(data)} != {rec.size} bytes)")
        px = np.frombuffer(data, dtype=np.uint8, count=self.height * self.width * 3,
                           offset=rec.offset)
        return px.reshape(self.height, self.width, 3)


def open_frame_dir(path) -> FrameDirVideo:
    return FrameDirVideo(path)


def _resize_plan(shape: tuple[int, ...], out_size: tuple[int, int]):
    """The bilinear resize of an (h, w, c) frame to (oh, ow), half-pixel
    centers, channels independent: a function from such a frame to its
    (c, oh, ow) float64 resize.

    Source coordinate for output index d is (d + 0.5) * in/out - 0.5, clamped
    to the valid range. The plan holds one flat gather index of shape
    (c, 2*oh, 2*ow): the channels of the 2*oh source rows (y0 then y1) and the
    2*ow source columns (x0 then x1) that the output reads. Each call gathers
    those pixels from the frame's buffer, casts them to float64, interpolates
    along x on the y0 and y1 rows together, then along y. Equal sizes give
    exactly the input.
    """
    oh, ow = out_size
    if len(shape) != 3:
        raise VideoFormatError(f"expected (H, W, C) frame, got shape {tuple(shape)}")
    h, w, c = shape
    if min(h, w, oh, ow) < 1:
        raise VideoFormatError(f"extents must be >= 1, got {h}x{w} -> {oh}x{ow}")
    if (h, w) == (oh, ow):
        return lambda frame: frame.astype(np.float64).transpose(2, 0, 1)

    sy = np.clip((np.arange(oh) + 0.5) * (h / oh) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(ow) + 0.5) * (w / ow) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    ys = np.concatenate((y0, np.minimum(y0 + 1, h - 1)))
    xs = np.concatenate((x0, np.minimum(x0 + 1, w - 1)))
    index = ((ys[:, None] * w + xs) * c)[None] + np.arange(c)[:, None, None]
    wy = (sy - y0)[:, None]
    wx = sx - x0
    uy, ux = 1 - wy, 1 - wx

    def resize(frame: np.ndarray) -> np.ndarray:
        # a C-order frame is read in place, any other copied once
        src = np.take(frame.reshape(-1), index).astype(np.float64)
        along_x = src[..., :ow] * ux + src[..., ow:] * wx  # y0 rows, then y1 rows
        return along_x[:, :oh] * uy + along_x[:, oh:] * wy

    return resize


def resize_bilinear(frame: np.ndarray, out_size: tuple[int, int]) -> np.ndarray:
    """Bilinear resize of an (H, W, C) frame to an (oh, ow, C) float64 array,
    with half-pixel centers, channels independent; exactly the input when
    sizes match.

    It runs the plan `extract_cuboid` builds once per cuboid (`_resize_plan`)
    on one frame. Only the 2*oh source rows and 2*ow source columns that the
    output reads are gathered, then cast to float64, so a large frame is never
    cast whole.
    """
    return np.ascontiguousarray(_resize_plan(frame.shape, out_size)(frame).transpose(1, 2, 0))


@dataclass
class Cuboid:
    """Model input block: float32 values (3, length, size, size) in [0, 1]."""

    values: np.ndarray


def extract_cuboid(src: VideoSource, start: int, length: int, size: int) -> Cuboid:
    """Stack frames [start, start+length), resized to size*size and scaled by
    1/255, channel-major. The window must fit inside the video. One resize
    plan serves every frame of the window, and each frame's temporaries are
    freed before the next is read."""
    if length < 1 or size < 1:
        raise CuboidError(f"length and size must be >= 1, got {length}/{size}")
    if start < 0 or start + length > src.frame_count:
        raise CuboidError(
            f"{src.video_id}: window [{start}, {start + length}) out of range "
            f"for {src.frame_count} frames"
        )
    resize = _resize_plan((src.height, src.width, 3), (size, size))
    values = np.empty((3, length, size, size), dtype=np.float32)
    for t in range(length):
        values[:, t] = resize(src.frame(start + t)) / 255.0
    return Cuboid(values)
