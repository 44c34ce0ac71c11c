import re
import tracemalloc

import numpy as np
import pytest

from strokebench.errors import CuboidError, VideoFormatError
from strokebench.frames import (ascii_float, extract_cuboid, fps_text, open_frame_dir, open_rgbv,
                                resize_bilinear, write_rgbv)

from oracles import bilinear_scalar


def _rgbv_bytes(width, height, fps, frames):
    fps_s = str(int(fps)) if float(fps).is_integer() else repr(float(fps))
    head = b"RGBV1\n" + f"{width} {height} {fps_s} {len(frames)}\n".encode()
    return head + b"".join(np.asarray(f, dtype=np.uint8).tobytes() for f in frames)


def _write_video(path, frames, fps=120.0):
    write_rgbv(path, np.stack(frames) if frames else np.zeros((0, 8, 8, 3), np.uint8), fps)
    return path


class TestDecimalText:
    # float() takes each of these but "", ".5", "5." and "1e"
    @pytest.mark.parametrize("text", ["1_20", "\u0661\u0662\u0660", "\uff11\uff12", " 120",
                                      "120 ", "+120", " +0.5", "inf", "-inf", "nan",
                                      "Infinity", "", ".5", "5.", "1e", "0x10"])
    def test_refused(self, text):
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a decimal number: {text!r}')}$"):
            ascii_float(text)

    @pytest.mark.parametrize("value", [120.0, 29.97, 1e-05, 5e-324, 0.1, 1e16, 1.5e300,
                                       1.7976931348623157e308, -2.5, -0.0])
    def test_written_values_read_back(self, value):
        assert ascii_float(fps_text(value)) == value
        assert ascii_float(repr(value)) == value

    def test_repr_of_every_finite_double_reads_back(self):
        # random bit patterns reach every exponent, subnormals included
        bits = np.random.default_rng(0).integers(0, 2**64, 2000, dtype=np.uint64)
        for value in bits.view(np.float64):
            if np.isfinite(value):
                assert ascii_float(repr(float(value))) == value


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
        state = dict(vars(src))
        assert src.release() is None  # it maps nothing
        assert vars(src) == state

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
        with pytest.raises(VideoFormatError, match="non-numeric header field"):
            open_rgbv(p)

    @pytest.mark.parametrize("fps", [29.97, 1e-05, 5e-324, 2.5e-300, 120.0])
    def test_written_fps_reads_back(self, tmp_path, fps):
        p = tmp_path / "f.rgbv"
        write_rgbv(p, np.zeros((1, 4, 4, 3), np.uint8), fps)
        assert open_rgbv(p).fps == fps

    # nan and inf are refused as header text, before the fps rule
    @pytest.mark.parametrize("fps, message", [
        (0, "fps must be finite"), (-1, "fps must be finite"),
        (float("nan"), "non-numeric header field"), (float("inf"), "non-numeric header field"),
    ], ids=["0", "-1", "nan", "inf"])
    def test_writer_rejects_fps_the_reader_rejects(self, tmp_path, fps, message):
        p = tmp_path / "f.rgbv"
        with pytest.raises(VideoFormatError, match=message):
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
        # int() takes each of these integers
        (b"1_0 4 120 1\n", "non-numeric header field in ['1_0', '4', '120', '1']"),
        (b"4 +4 120 1\n", "non-numeric header field in ['4', '+4', '120', '1']"),
        (b"4 4 120 0_1\n", "non-numeric header field in ['4', '4', '120', '0_1']"),
        # float() takes each of these frame rates
        (b"4 4 1_20 1\n", "non-numeric header field in ['4', '4', '1_20', '1']"),
        (b"4 4 +120 1\n", "non-numeric header field in ['4', '4', '+120', '1']"),
        ("4 4 \u0661\u0662\u0660 1\n".encode(),
         f"non-numeric header field in ['4', '4', '{chr(0xfffd) * 6}', '1']"),
        (b"4 -4 120 1\n", "zero or negative frame extents"),
        (b"4 4 120 -1\n", "frame_count must be >= 0, got -1"),
    ], ids=["257_bytes", "no_newline", "underscore", "plus", "count_underscore",
            "fps_underscore", "fps_plus", "fps_arabic_indic",
            "negative_height", "negative_count"])
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

    def test_writer_does_not_copy_the_clip(self, tmp_path):
        frames = np.random.default_rng(2).integers(0, 256, (20, 240, 320, 3), dtype=np.uint8)
        p = tmp_path / "big.rgbv"
        tracemalloc.start()
        try:
            write_rgbv(p, frames, 120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.read_bytes() == _rgbv_bytes(320, 240, 120, list(frames))
        # a bytes copy of the clip alone would take all of its 4.6 MB
        assert peak < frames.nbytes / 100

    def test_writer_takes_a_strided_view(self, tmp_path):
        frames = np.random.default_rng(3).integers(0, 256, (4, 6, 10, 3), dtype=np.uint8)
        view = frames[::2, :, ::-2]
        p = tmp_path / "view.rgbv"
        write_rgbv(p, view, 120.0)
        assert p.read_bytes() == _rgbv_bytes(5, 6, 120, list(view))

    def test_repeated_reads_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        frames = rng.integers(0, 256, (3, 4, 4, 3), dtype=np.uint8)
        p = _write_video(tmp_path / "s.rgbv", list(frames))
        src = open_rgbv(p)
        assert np.array_equal(src.frame(1), src.frame(1))

    def test_reads_keep_their_bytes_across_release(self, tmp_path):
        """release() drops the mapped pages, not the video: every later read,
        and a frame view taken before it, gives the bytes of the file."""
        frames = np.random.default_rng(3).integers(0, 256, (6, 16, 24, 3), dtype=np.uint8)
        src = open_rgbv(_write_video(tmp_path / "r.rgbv", list(frames)))
        view = src.frame(2)
        before = [src.frame(i).copy() for i in range(len(frames))]
        cuboid = extract_cuboid(src, 1, 4, 8).values
        assert src.release() is None
        assert np.array_equal(view, frames[2])
        for i, frame in enumerate(before):
            assert np.array_equal(src.frame(i), frame) and np.array_equal(frame, frames[i])
        assert extract_cuboid(src, 1, 4, 8).values.tobytes() == cuboid.tobytes()
        src.release()
        src.release()
        assert extract_cuboid(src, 1, 4, 8).values.tobytes() == cuboid.tobytes()
        assert np.array_equal(view, frames[2])


    def test_videos_hold_no_open_files(self, tmp_path):
        # an open video must not pin a file descriptor, nor a read one once
        # released, or a corpus of more videos than the 1024-file limit
        # fails to train (EMFILE): all 300 open, then each is read and released
        resource = pytest.importorskip("resource")
        paths = [_write_video(tmp_path / f"{i}.rgbv", [np.full((2, 2, 3), i % 256, np.uint8)])
                 for i in range(300)]
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, soft), hard))
        try:
            videos = [open_rgbv(p) for p in paths]
            firsts = []
            for src in videos:
                firsts.append(int(src.frame(0)[0, 0, 0]))
                src.release()
            again = [int(src.frame(0)[0, 0, 0]) for src in videos[:100]]
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert firsts == [i % 256 for i in range(300)] and again == firsts[:100]

    @pytest.mark.parametrize("read_before", [False, True], ids=["first map", "re-map"])
    def test_size_change_before_a_map_is_refused(self, tmp_path, read_before):
        """The file is mapped at the first read after open or release; if its
        size is no longer the one checked at open, that read raises."""
        p = _write_video(tmp_path / "c.rgbv", [np.zeros((4, 4, 3), np.uint8)] * 3)
        src = open_rgbv(p)
        if read_before:
            src.frame(0)
            src.release()
        with open(p, "ab") as fh:
            fh.write(b"more")
        with pytest.raises(VideoFormatError, match=re.escape(
                f"{p}: size changed since the video was opened (164 != 160 bytes)")):
            src.frame(1)

    def test_release_with_a_held_view_keeps_the_mapping(self, tmp_path):
        """While a frame view lives, release() drops the pages but not the
        mapping; once no view is left, it closes the mapping."""
        frames = np.random.default_rng(4).integers(0, 256, (3, 4, 4, 3), dtype=np.uint8)
        src = open_rgbv(_write_video(tmp_path / "h.rgbv", list(frames)))
        assert src._map is None  # nothing mapped before the first read
        row = src.frame(1)[2]
        mapping = src._map
        src.release()
        assert src._map is mapping and not mapping.closed
        assert np.array_equal(row, frames[1, 2]) and np.array_equal(src.frame(2), frames[2])
        del row
        src.release()
        assert src._map is None and mapping.closed


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
        first = src.frame(0)
        assert src.release() is None  # it maps nothing
        assert np.array_equal(first, imgs[0]) and np.array_equal(src.frame(0), imgs[0])

    @pytest.mark.parametrize("rewrite, size", [("truncated", 54), ("as an 8x8 frame", 203)])
    def test_frame_file_changed_since_open_is_refused(self, tmp_path, rewrite, size):
        """Each read checks its frame file's size against the one seen at
        open, as an RGBV video does when it maps its file again: a truncated
        file, or one rewritten as a larger frame, raises a VideoFormatError
        naming it, not numpy's ValueError or 4x4 pixels at the old offset."""
        for i in range(2):
            self._write_ppm(tmp_path / f"{i:06d}.ppm", np.full((4, 4, 3), i, np.uint8))
        src = open_frame_dir(tmp_path)
        p = tmp_path / "000001.ppm"  # 11 header bytes and 48 pixel bytes
        if rewrite == "truncated":
            p.write_bytes(p.read_bytes()[:-5])
        else:
            self._write_ppm(p, np.ones((8, 8, 3), np.uint8))
        with pytest.raises(VideoFormatError, match=re.escape(
                f"{p}: size changed since the video was opened ({size} != 59 bytes)")):
            src.frame(1)
        assert np.array_equal(src.frame(0), np.zeros((4, 4, 3), np.uint8))

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

    # int() takes all but the first; "²".isdigit() is true, but int() raises
    @pytest.mark.parametrize("stem", ["\u00b2", "\uff10", "\u0660", "+0", "0_0", "-0", "-1"])
    def test_frame_name_of_other_than_ascii_digits_rejected(self, tmp_path, stem):
        self._write_ppm(tmp_path / "000000.ppm", np.zeros((4, 4, 3), np.uint8))
        self._write_ppm(tmp_path / f"{stem}.ppm", np.zeros((4, 4, 3), np.uint8))
        with pytest.raises(VideoFormatError) as err:
            open_frame_dir(tmp_path)
        assert str(err.value) == f"{tmp_path / stem}.ppm: frame name is not a zero-padded index"

    # int() takes the first three; the last is a full-width 4 in UTF-8
    @pytest.mark.parametrize("header", [b"P6\n+4 4\n255\n", b"P6\n4 0_4\n255\n",
                                        b"P6\n4 4\n2_55\n", b"P6\n\xef\xbc\x94 4\n255\n"])
    def test_non_integer_ppm_header_field_rejected(self, tmp_path, header):
        (tmp_path / "000000.ppm").write_bytes(header + bytes(4 * 4 * 3))
        with pytest.raises(VideoFormatError, match="non-numeric PPM header field"):
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
