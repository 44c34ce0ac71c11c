import numpy as np
import pytest

from strokebench.errors import CuboidError, VideoFormatError
from strokebench.frames import (extract_cuboid, open_frame_dir, open_rgbv, resize_bilinear,
                                write_rgbv)

from oracles import bilinear_scalar


def _rgbv_bytes(width, height, fps, frames):
    fps_s = str(int(fps)) if float(fps).is_integer() else repr(float(fps))
    head = b"RGBV1\n" + f"{width} {height} {fps_s} {len(frames)}\n".encode()
    return head + b"".join(np.asarray(f, dtype=np.uint8).tobytes() for f in frames)


def _write_video(path, frames, fps=120.0):
    write_rgbv(path, np.stack(frames) if frames else np.zeros((0, 8, 8, 3), np.uint8), fps)
    return path


class TestRgbv:
    def test_header_reading(self, tmp_path):
        frames = [np.full((8, 8, 3), i, np.uint8) for i in range(10)]
        p = tmp_path / "v.rgbv"
        p.write_bytes(_rgbv_bytes(8, 8, 120, frames))
        src = open_rgbv(p)
        assert (src.width, src.height, src.fps, src.frame_count) == (8, 8, 120.0, 10)
        assert src.video_id == "v"
        assert np.array_equal(src.frame(3), frames[3])

    def test_truncated_payload_rejected(self, tmp_path):
        data = _rgbv_bytes(8, 8, 120, [np.zeros((8, 8, 3), np.uint8)] * 2)
        p = tmp_path / "t.rgbv"
        p.write_bytes(data[:-10])
        with pytest.raises(VideoFormatError, match="truncated"):
            open_rgbv(p)

    def test_trailing_garbage_rejected(self, tmp_path):
        p = tmp_path / "t.rgbv"
        p.write_bytes(_rgbv_bytes(4, 4, 60, [np.zeros((4, 4, 3), np.uint8)]) + b"junk")
        with pytest.raises(VideoFormatError, match="trailing"):
            open_rgbv(p)

    def test_zero_frames_is_valid(self, tmp_path):
        p = tmp_path / "z.rgbv"
        p.write_bytes(_rgbv_bytes(4, 4, 25.5, []))
        src = open_rgbv(p)
        assert src.frame_count == 0
        assert src.fps == 25.5

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "b.rgbv"
        p.write_bytes(b"RGBV2\n4 4 1 0\n")
        with pytest.raises(VideoFormatError, match="magic"):
            open_rgbv(p)

    def test_zero_extent_rejected(self, tmp_path):
        p = tmp_path / "b.rgbv"
        p.write_bytes(b"RGBV1\n0 4 1 0\n")
        with pytest.raises(VideoFormatError, match="extents"):
            open_rgbv(p)

    @pytest.mark.parametrize("fps", [b"nan", b"inf"])
    def test_non_finite_fps_rejected(self, tmp_path, fps):
        p = tmp_path / "f.rgbv"
        p.write_bytes(b"RGBV1\n4 4 " + fps + b" 0\n")
        with pytest.raises(VideoFormatError, match="fps must be finite"):
            open_rgbv(p)

    @pytest.mark.parametrize("fps", [0, -1, float("nan"), float("inf")])
    def test_writer_rejects_fps_the_reader_rejects(self, tmp_path, fps):
        p = tmp_path / "f.rgbv"
        with pytest.raises(VideoFormatError, match="fps must be finite"):
            write_rgbv(p, np.zeros((1, 4, 4, 3), np.uint8), fps)
        assert not p.exists()

    def test_header_line_of_256_bytes_opens(self, tmp_path):
        p = tmp_path / "h.rgbv"
        p.write_bytes(b"RGBV1\n" + b"4 4 120 1".ljust(255) + b"\n" + bytes(4 * 4 * 3))
        src = open_rgbv(p)
        assert (src.width, src.height, src.fps, src.frame_count) == (4, 4, 120.0, 1)

    @pytest.mark.parametrize("header, message", [
        (b"4 4 120 1".ljust(256) + b"\n", "header line too long"),
        (b"4 4 120 1", "truncated header"),
    ], ids=["257_bytes", "no_newline"])
    def test_header_line_refused(self, tmp_path, header, message):
        p = tmp_path / "h.rgbv"
        p.write_bytes(b"RGBV1\n" + header)
        with pytest.raises(VideoFormatError) as err:
            open_rgbv(p)
        assert str(err.value) == f"{p}: {message}"

    # (frame array shape, fps): values the reader refuses in a header
    REFUSED = [((2, 4, 0, 3), 120.0), ((2, 0, 4, 3), 120.0), ((1, 4, 4, 3), 0.0),
               ((1, 4, 4, 3), -1.0), ((1, 4, 4, 3), float("nan")),
               ((1, 4, 4, 3), float("inf")), ((1, 4, 4, 3), 1e300)]

    @pytest.mark.parametrize("shape, fps", REFUSED,
                             ids=["Nx0", "0xN", "fps0", "fps-1", "nan", "inf", "long_header"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, shape, fps):
        p = tmp_path / "v.rgbv"
        frames = np.zeros(shape, np.uint8)
        with pytest.raises(VideoFormatError) as written:
            write_rgbv(p, frames, fps)
        assert not p.exists()
        _, h, w, _ = shape
        p.write_bytes(_rgbv_bytes(w, h, fps, list(frames)))
        with pytest.raises(VideoFormatError) as read:
            open_rgbv(p)
        assert str(read.value) == str(written.value)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        frames = rng.integers(0, 256, (5, 6, 7, 3), dtype=np.uint8)
        p = tmp_path / "r.rgbv"
        write_rgbv(p, frames, 119.88)
        src = open_rgbv(p)
        assert src.fps == 119.88
        for i in range(5):
            assert np.array_equal(src.frame(i), frames[i])

    def test_repeated_reads_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, (3, 4, 4, 3), dtype=np.uint8)
        p = _write_video(tmp_path / "s.rgbv", list(frames))
        src = open_rgbv(p)
        assert np.array_equal(src.frame(1), src.frame(1))


class TestFrameDir:
    def _write_ppm(self, path, img, maxval=255, magic=b"P6"):
        h, w, _ = img.shape
        path.write_bytes(magic + f"\n{w} {h}\n{maxval}\n".encode()
                         + np.asarray(img, np.uint8).tobytes())

    def test_ordered_frames(self, tmp_path):
        rng = np.random.default_rng(2)
        imgs = rng.integers(0, 256, (10, 4, 4, 3), dtype=np.uint8)
        for i, img in enumerate(imgs):
            self._write_ppm(tmp_path / f"{i:06d}.ppm", img)
        src = open_frame_dir(tmp_path)
        assert src.frame_count == 10
        assert (src.width, src.height, src.fps) == (4, 4, 120.0)
        for i in range(10):
            assert np.array_equal(src.frame(i), imgs[i])

    def test_mixed_extents_rejected(self, tmp_path):
        self._write_ppm(tmp_path / "000000.ppm", np.zeros((8, 8, 3), np.uint8))
        self._write_ppm(tmp_path / "000001.ppm", np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(VideoFormatError, match="mixed extents"):
            open_frame_dir(tmp_path)

    def test_unsupported_maxval_rejected(self, tmp_path):
        self._write_ppm(tmp_path / "000000.ppm", np.zeros((4, 4, 3), np.uint8), maxval=65535)
        with pytest.raises(VideoFormatError, match="maxval"):
            open_frame_dir(tmp_path)

    def test_non_p6_rejected(self, tmp_path):
        self._write_ppm(tmp_path / "000000.ppm", np.zeros((4, 4, 3), np.uint8), magic=b"P3")
        with pytest.raises(VideoFormatError, match="P6"):
            open_frame_dir(tmp_path)

    def test_missing_index_rejected(self, tmp_path):
        self._write_ppm(tmp_path / "000000.ppm", np.zeros((4, 4, 3), np.uint8))
        self._write_ppm(tmp_path / "000002.ppm", np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(VideoFormatError, match="missing frame indices"):
            open_frame_dir(tmp_path)

    def test_comment_in_header_ok(self, tmp_path):
        img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        (tmp_path / "000000.ppm").write_bytes(b"P6\n# a comment\n4 4\n255\n" + img.tobytes())
        src = open_frame_dir(tmp_path)
        assert np.array_equal(src.frame(0), img)

    # the header is read from the first 4096 bytes; these comment lengths put
    # that cut at each byte of "\n4 # width\n4\n255\n", or far before it
    @pytest.mark.parametrize("comment_len", [*range(4074, 4092), 20_000])
    def test_long_comment_header_opens(self, tmp_path, comment_len):
        img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
        header = b"P6\n# " + b"x" * comment_len + b"\n4 # width\n4\n255\n"
        (tmp_path / "000000.ppm").write_bytes(header + img.tobytes())
        src = open_frame_dir(tmp_path)
        assert (src.width, src.height) == (4, 4)
        assert np.array_equal(src.frame(0), img)

    def test_frames_hold_no_open_files(self, tmp_path):
        # a returned frame must not pin a file descriptor, or holding a
        # video's frames runs out of them (EMFILE) under a 1024-file limit
        resource = pytest.importorskip("resource")
        for i in range(300):
            self._write_ppm(tmp_path / f"{i:06d}.ppm", np.full((2, 2, 3), i % 256, np.uint8))
        src = open_frame_dir(tmp_path)
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, soft), hard))
        try:
            held = [src.frame(i) for i in range(src.frame_count)]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert [int(f[0, 0, 0]) for f in held] == [i % 256 for i in range(300)]

    def test_truncated_payload_rejected(self, tmp_path):
        (tmp_path / "000000.ppm").write_bytes(b"P6\n4 4\n255\n" + bytes(4 * 4 * 3 - 1))
        with pytest.raises(VideoFormatError, match="truncated pixel payload"):
            open_frame_dir(tmp_path)

    @pytest.mark.parametrize("data", [b"", b"P6\n4 4\n25", b"P6\n# comment without end"])
    def test_truncated_header_rejected(self, tmp_path, data):
        (tmp_path / "000000.ppm").write_bytes(data)
        with pytest.raises(VideoFormatError, match="PPM header"):
            open_frame_dir(tmp_path)


class TestResize:
    def test_constant_stays_constant(self):
        frame = np.full((9, 13, 3), 77, np.uint8)
        out = resize_bilinear(frame, (5, 4))
        assert out.shape == (5, 4, 3)
        assert np.allclose(out, 77.0)

    def test_identity_when_sizes_match(self):
        rng = np.random.default_rng(3)
        frame = rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)
        out = resize_bilinear(frame, (6, 6))
        assert np.array_equal(out, frame.astype(np.float64))

    def test_checkerboard_matches_scalar_reference(self):
        frame = np.zeros((2, 2, 3), np.uint8)
        frame[0, 0] = frame[1, 1] = 0
        frame[0, 1] = frame[1, 0] = 255
        got = resize_bilinear(frame, (4, 4))
        ref = bilinear_scalar(frame, 4, 4)
        assert np.abs(got - ref).max() < 1e-12

    def test_random_resizes_match_scalar_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h, w = rng.integers(1, 12, 2)
            oh, ow = rng.integers(1, 12, 2)
            frame = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            got = resize_bilinear(frame, (int(oh), int(ow)))
            ref = bilinear_scalar(frame, int(oh), int(ow))
            assert np.abs(got - ref).max() < 1e-9

    def test_no_overshoot(self):
        rng = np.random.default_rng(5)
        frame = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        out = resize_bilinear(frame, (23, 3))
        assert out.min() >= frame.min()
        assert out.max() <= frame.max()


class TestCuboid:
    def test_full_video_extraction(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = rng.integers(0, 256, (98, 6, 6, 3), dtype=np.uint8)
        src = open_rgbv(_write_video(tmp_path / "v.rgbv", list(frames)))
        cub = extract_cuboid(src, 0, length=98, size=120)
        assert cub.values.shape == (3, 98, 120, 120)
        assert cub.values.dtype == np.float32
        assert cub.values.min() >= 0.0 and cub.values.max() <= 1.0

    def test_black_video_gives_zeros(self, tmp_path):
        frames = [np.zeros((5, 5, 3), np.uint8)] * 4
        src = open_rgbv(_write_video(tmp_path / "b.rgbv", frames))
        cub = extract_cuboid(src, 0, length=4, size=8)
        assert not cub.values.any()

    def test_window_past_end_rejected(self, tmp_path):
        frames = [np.zeros((5, 5, 3), np.uint8)] * 98
        src = open_rgbv(_write_video(tmp_path / "e.rgbv", frames))
        with pytest.raises(CuboidError, match="out of range"):
            extract_cuboid(src, 1, length=98, size=8)

    def test_channel_major_layout(self, tmp_path):
        frame = np.zeros((4, 4, 3), np.uint8)
        frame[1, 2, 0] = 255  # red pixel at row 1, col 2
        src = open_rgbv(_write_video(tmp_path / "c.rgbv", [frame, frame]))
        cub = extract_cuboid(src, 0, length=2, size=4)
        assert cub.values[0, 0, 1, 2] == 1.0
        assert cub.values[1].max() == 0.0 and cub.values[2].max() == 0.0

    def test_duration_at_default_rates(self):
        # 98 frames at 120 fps is just over 0.81 s
        assert abs(98 / 120.0 - 0.8167) < 5e-4
