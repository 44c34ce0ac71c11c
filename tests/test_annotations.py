import re

import numpy as np
import pytest

from strokebench.annotations import (LEVELS, NONSTROKE_LABEL, Segment, Taxonomy,
                                     default_taxonomy, generate_window_proposals,
                                     infer_negative_segments, load_taxonomy,
                                     parse_annotations, render_annotation_xml,
                                     superclass_of, write_predictions)
from strokebench.errors import AnnotationError, TaxonomyError


def _ann(segments, frames=10_000, name="v1", fps=120.0):
    from strokebench.annotations import VideoAnnotation
    return VideoAnnotation(name, frames, fps, segments)


class TestParse:
    def test_single_action(self):
        xml = (b'<video name="v1" frames="1000" fps="120">'
               b'<action begin="100" end="300" move="Offensive Forehand Hit"/></video>')
        ann = parse_annotations(xml)
        assert ann.video_id == "v1"
        assert ann.frame_count == 1000
        assert ann.fps == 120.0
        assert ann.segments == [Segment(100, 300, "Offensive Forehand Hit")]

    def test_empty_video(self):
        ann = parse_annotations(b'<video name="v" frames="50" fps="30.5"/>')
        assert ann.segments == []
        assert ann.fps == 30.5

    def test_out_of_order_actions_come_back_sorted(self):
        xml = (b'<video name="v" frames="1000" fps="120">'
               b'<action begin="500" end="600" move="B"/>'
               b'<action begin="100" end="200" move="A"/></video>')
        ann = parse_annotations(xml)
        assert [s.begin for s in ann.segments] == [100, 500]

    def test_malformed_xml_reports_line(self):
        with pytest.raises(AnnotationError, match=r"line 2"):
            parse_annotations(b'<video name="v" frames="10" fps="1">\n<action</video>')

    @pytest.mark.parametrize("xml, message", [
        (b'<video name="v" frames="10" fps="1">\n<action begin="0" end="5" move="A" '
         b'score="1.5"/>\n</video>', "score must lie in [0, 1], got 1.5 (line 2)"),
        (b'<clip name="v" frames="10" fps="1"/>', "expected <video> root, got <clip> (line 1)"),
        (b'<video name="v" frames="10" fps="1">\n<segment/>\n</video>',
         "unexpected element <segment> (line 2)"),
        (b'<video name="v" frames="10" fps="1">\n<action begin="0" end="5" move="A">\n'
         b'<note/></action>\n</video>', "unexpected nested element <note> (line 3)"),
        (b'<?xml version="1.0"?>\n<!-- no video -->\n', "malformed XML: no element found"),
    ], ids=["score_above_1", "root_not_video", "element_not_action", "nested", "no_video"])
    def test_refusals_name_the_element_and_line(self, xml, message):
        with pytest.raises(AnnotationError, match="^" + re.escape(message)):
            parse_annotations(xml)

    def test_begin_not_before_end_reports_line(self):
        xml = (b'<video name="v" frames="1000" fps="120">\n'
               b'<action begin="300" end="300" move="A"/>\n</video>')
        with pytest.raises(AnnotationError, match=r"segment must satisfy 0 <= begin < end, "
                                                  r"got \[300, 300\) \(line 2\)"):
            parse_annotations(xml)

    @pytest.mark.parametrize("fps", ["nan", "inf"])
    def test_non_finite_fps_rejected(self, fps):
        with pytest.raises(AnnotationError, match=f"^attribute fps='{fps}' is not a number"):
            parse_annotations(f'<video name="v" frames="10" fps="{fps}"/>'.encode())

    def test_overlapping_ground_truth_rejected(self):
        xml = (b'<video name="v" frames="1000" fps="120">\n'
               b'<action begin="100" end="300" move="A"/>\n'
               b'<action begin="200" end="400" move="B"/>\n</video>')
        with pytest.raises(AnnotationError, match=r"overlap.*line 3"):
            parse_annotations(xml)

    def test_scored_predictions_may_overlap(self):
        xml = (b'<video name="v" frames="1000" fps="120">'
               b'<action begin="100" end="300" move="A" score="0.5"/>'
               b'<action begin="200" end="400" move="B" score="0.25"/></video>')
        ann = parse_annotations(xml)
        assert len(ann.predictions) == 2

    def test_end_beyond_frame_count_rejected(self):
        xml = (b'<video name="v" frames="200" fps="120">'
               b'<action begin="100" end="300" move="A"/></video>')
        with pytest.raises(AnnotationError, match="exceeds frame count"):
            parse_annotations(xml)

    def test_unknown_frame_count_zero_skips_bound_check(self):
        xml = (b'<video name="v" frames="0" fps="120">'
               b'<action begin="100" end="300" move="A"/></video>')
        assert parse_annotations(xml).segments[0].end == 300

    @pytest.mark.parametrize("attr", ["name", "frames", "fps"])
    def test_missing_video_attribute_reports_line(self, attr):
        attrs = {"name": "v", "frames": "10", "fps": "120"}
        del attrs[attr]
        xml = "<video " + " ".join(f'{k}="{v}"' for k, v in attrs.items()) + "/>"
        with pytest.raises(AnnotationError, match=rf"^missing attribute '{attr}' \(line 1\)$"):
            parse_annotations(xml.encode())

    # int() takes all but "1.5": digit separators, spaces, a plus sign and
    # other scripts' digits (full-width, Arabic-Indic)
    @pytest.mark.parametrize("attr", ["frames", "begin", "end"])
    @pytest.mark.parametrize("value", ["1.5", "1_000", " 10", "10 ", "+20", "\uff11\uff10",
                                       "\u0661\u0660"])
    def test_non_integer_attribute_rejected(self, attr, value):
        a = {"frames": "1000", "begin": "10", "end": "300", attr: value}
        xml = (f'<video name="v" frames="{a["frames"]}" fps="120"><action '
               f'begin="{a["begin"]}" end="{a["end"]}" move="A"/></video>')
        message = f"attribute {attr}='{value}' is not a base-10 integer (line 1)"
        with pytest.raises(AnnotationError, match=f"^{re.escape(message)}$"):
            parse_annotations(xml.encode())

    # float() takes each of these
    @pytest.mark.parametrize("attr", ["fps", "score"])
    @pytest.mark.parametrize("value", ["1_20", "\u0661\u0662\u0660", " 120", "+120", " +0.5",
                                       "inf", "nan"])
    def test_non_decimal_attribute_rejected(self, attr, value):
        a = {"fps": "120", "score": "0.5", attr: value}
        xml = (f'<video name="v" frames="1000" fps="{a["fps"]}">\n<action '
               f'begin="10" end="300" move="A" score="{a["score"]}"/></video>')
        line = 1 if attr == "fps" else 2
        message = f"attribute {attr}='{value}' is not a number (line {line})"
        with pytest.raises(AnnotationError, match=f"^{re.escape(message)}$"):
            parse_annotations(xml.encode())

    @pytest.mark.parametrize("fps, score", [(29.97, 5e-324), (1e-05, 0.1), (120.0, 1.0),
                                            (23.976023976023978, 1e-05)])
    def test_written_numbers_read_back(self, fps, score):
        ann = parse_annotations(write_predictions("v", [Segment(0, 5, "A", score)], 10, fps))
        assert ann.fps == fps and ann.predictions[0].score == score


class TestWrite:
    def test_round_trip_preserves_segment_data(self):
        segs = [Segment(100, 300, "Offensive Forehand Hit", 0.75)]
        data = write_predictions("v1", segs, frame_count=1000, fps=120.0)
        back = parse_annotations(data)
        assert back.segments == segs
        assert back.video_id == "v1"

    def test_empty_prediction_list(self):
        ann = parse_annotations(write_predictions("v", [], 0, 120.0))
        assert ann.segments == []

    def test_three_actions_in_begin_order(self):
        segs = [Segment(600, 700, "C", 0.5), Segment(0, 100, "A", 0.25),
                Segment(300, 400, "B", 1.0)]
        data = write_predictions("v", segs, 0, 120.0)
        assert [s.begin for s in parse_annotations(data).segments] == [0, 300, 600]

    def test_round_trip_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            segs = []
            pos = 0
            for _ in range(int(rng.integers(0, 6))):
                pos += int(rng.integers(0, 100))
                length = int(rng.integers(1, 500))
                score = float(np.round(rng.random(), 6))
                segs.append(Segment(pos, pos + length, f"label {rng.integers(0, 9)}", score))
                pos += length
            data = write_predictions("vid-x", segs, 0, 120.0)
            assert parse_annotations(data).segments == segs

    def test_label_escaping(self):
        segs = [Segment(0, 5, 'odd "label" <&>', 0.5)]
        assert parse_annotations(write_predictions("v", segs, 0, 120.0)).segments == segs

    def test_score_required(self):
        with pytest.raises(AnnotationError, match="missing a score"):
            write_predictions("v", [Segment(0, 5, "A")], 0, 120.0)

    @pytest.mark.parametrize("write", [write_predictions, render_annotation_xml])
    @pytest.mark.parametrize("fps", [0, -1, float("nan"), float("inf")])
    def test_writer_rejects_fps_the_reader_rejects(self, write, fps):
        with pytest.raises(AnnotationError, match="fps must be finite"):
            write("v", [], 10, fps)


    # (frame count, ground-truth spans, fps, line of the reader's error, what
    # the reader says when it is not what the writer says): documents the
    # reader refuses; it refuses nan and inf as text, before the fps rule
    REFUSED = [(-1, [], 120.0, 1, None), (200, [(100, 300)], 120.0, 2, None),
               (1000, [(100, 300), (200, 400)], 120.0, 3, None), (10, [], 0.0, 1, None),
               (10, [], -1.0, 1, None),
               (10, [], float("nan"), 1, "attribute fps='nan' is not a number"),
               (10, [], float("inf"), 1, "attribute fps='inf' is not a number")]
    # (video id, label, line of the reader's error): documents holding a
    # character XML 1.0 cannot carry, which expat refuses before any rule runs
    BAD_TEXT = [("v\x01", "A", 1), ("v", "A\x01", 2), ("v\ud800", "A", 1), ("v", "A\udfff", 2)]

    @pytest.mark.parametrize("name, label, frames, spans, fps, line, said", [
        ("v", "A", *row) for row in REFUSED
    ] + [
        (name, label, 10, [(0, 5)], 120.0, line, "malformed XML: not well-formed (invalid token)")
        for name, label, line in BAD_TEXT
    ], ids=["frames-1", "past_end", "overlap", "fps0", "fps-1", "nan", "inf",
            "control_char_in_id", "control_char_in_label", "surrogate_in_id", "surrogate_in_label"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, name, label, frames, spans,
                                                    fps, line, said):
        p = tmp_path / "v.xml"
        with pytest.raises(AnnotationError) as written:
            p.write_bytes(render_annotation_xml(name, [Segment(b, e, label) for b, e in spans],
                                                frames, fps))
        assert not p.exists()
        xml = (f'<video name="{name}" frames="{frames}" fps="{fps!r}">\n'
               + "".join(f'<action begin="{b}" end="{e}" move="{label}"/>\n' for b, e in spans)
               + "</video>\n")
        with pytest.raises(AnnotationError) as read:
            parse_annotations(xml.encode("utf-8", "surrogatepass"))
        # said: what the reader says, when it is not what the writer says
        assert str(read.value) == f"{said or written.value} (line {line})"


class TestNegativeInference:
    def test_gap_of_400_yields_two_blocks(self):
        ann = _ann([Segment(100, 300, "A"), Segment(700, 1000, "B")])
        negs = infer_negative_segments(ann)
        assert [(s.begin, s.end) for s in negs] == [(300, 500), (500, 700)]
        assert all(s.label == NONSTROKE_LABEL for s in negs)

    @pytest.mark.parametrize("gap,expected", [(199, 0), (200, 0), (201, 1), (250, 1), (400, 2)])
    def test_gap_thresholds(self, gap, expected):
        ann = _ann([Segment(0, 100, "A"), Segment(100 + gap, 100 + gap + 50, "B")])
        assert len(infer_negative_segments(ann)) == expected

    def test_boundary_gaps_are_ignored(self):
        # huge space before the first and after the last stroke: no negatives
        ann = _ann([Segment(5000, 5100, "A")], frames=20_000)
        assert infer_negative_segments(ann) == []

    def test_negatives_never_overlap_strokes_or_each_other(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pos, segs = 0, []
            for _ in range(int(rng.integers(2, 8))):
                pos += int(rng.integers(1, 700))
                length = int(rng.integers(1, 300))
                segs.append(Segment(pos, pos + length, "S"))
                pos += length
            ann = _ann(segs, frames=pos + 1000)
            negs = infer_negative_segments(ann)
            intervals = sorted([(s.begin, s.end) for s in segs + negs])
            for (b1, e1), (b2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= b2
            assert all(s.length == 200 for s in negs)

    def test_synthetic_regular_spacing(self):
        # strokes every 500 frames, 150 long: every gap is 350 -> one block each
        segs = [Segment(500 * i, 500 * i + 150, "S") for i in range(1, 6)]
        negs = infer_negative_segments(_ann(segs))
        assert len(negs) == 4


class TestProposals:
    def test_frame_count_600(self):
        props = generate_window_proposals(600)
        assert [(p.begin, p.end) for p in props] == [(0, 150), (150, 300), (300, 450), (450, 600)]

    @pytest.mark.parametrize("frames,expected", [(149, 0), (150, 1), (450, 3), (600, 4), (0, 0)])
    def test_counts(self, frames, expected):
        assert len(generate_window_proposals(frames)) == expected

    def test_count_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            frames = int(rng.integers(0, 5000))
            length = int(rng.integers(1, 400))
            stride = int(rng.integers(1, 400))
            got = len(generate_window_proposals(frames, length, stride))
            assert got == max(0, (frames - length) // stride + 1)


class TestTaxonomy:
    def test_default_has_20_labels_and_6_super_classes(self):
        tax = default_taxonomy()
        assert len(tax.labels) == 20
        pairs = {superclass_of(tax, lab, "type_hand") for lab in tax.labels}
        assert len(pairs) == 6
        assert {superclass_of(tax, lab, "type") for lab in tax.labels} == {
            "Defensive", "Offensive", "Service"}
        assert {superclass_of(tax, lab, "hand") for lab in tax.labels} == {
            "Forehand", "Backhand"}

    def test_spec_example_label(self):
        tax = default_taxonomy()
        assert superclass_of(tax, "Offensive Forehand Hit", "type") == "Offensive"
        assert superclass_of(tax, "Offensive Forehand Hit", "hand") == "Forehand"
        assert superclass_of(tax, "Offensive Forehand Hit", "global") == "Offensive Forehand Hit"
        assert superclass_of(tax, "Offensive Forehand Hit", "type_hand") == "Offensive Forehand"

    def test_image_sizes_per_level(self):
        tax = default_taxonomy()
        sizes = {level: len({superclass_of(tax, lab, level) for lab in tax.labels})
                 for level in LEVELS}
        assert sizes == {"global": 20, "type_hand": 6, "type": 3, "hand": 2}

    def test_unknown_label_rejected(self):
        with pytest.raises(TaxonomyError, match="unknown label"):
            superclass_of(default_taxonomy(), "Sneaky Elbow Smash", "type")

    def test_duplicate_label_rejected(self):
        data = b"label,type,hand_side\nX,Offensive,Forehand\nX,Defensive,Backhand\n"
        with pytest.raises(TaxonomyError, match="duplicate"):
            load_taxonomy(data)

    def test_bad_header_rejected(self):
        with pytest.raises(TaxonomyError, match="header"):
            load_taxonomy(b"name,kind\n")

    def test_non_utf8_rejected(self):
        with pytest.raises(TaxonomyError, match="not UTF-8"):
            load_taxonomy(b"label,type,hand_side\nX\xff,Offensive,Forehand\n")

    def test_bad_type_rejected(self):
        with pytest.raises(TaxonomyError, match="not one of"):
            load_taxonomy(b"label,type,hand_side\nX,Aggressive,Forehand\n")

    @pytest.mark.parametrize("data, message", [
        (b"", "empty taxonomy file"),
        (b"label,type,hand_side\nX,Offensive\n", "expected 3 columns, got ['X', 'Offensive']"),
        (b"label,type,hand_side\nX,Offensive,Left\n",
         "hand side 'Left' for 'X' not one of ('Forehand', 'Backhand')"),
        (b"label,type,hand_side\n\n", "taxonomy defines no labels"),
    ], ids=["empty", "two_columns", "unknown_hand_side", "no_labels"])
    def test_malformed_taxonomy_rejected(self, data, message):
        with pytest.raises(TaxonomyError, match="^" + re.escape(message) + "$"):
            load_taxonomy(data)

    def test_small_custom_taxonomy_loads(self):
        data = (b"label,type,hand_side\n"
                b"A,Offensive,Forehand\n"
                b"B,Defensive,Backhand\n")
        tax = load_taxonomy(data)
        assert tax.labels == ["A", "B"]
