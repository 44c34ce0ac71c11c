"""Stroke annotations: XML parse/emit, negative-segment inference, window
proposals and the class taxonomy.

Annotation XML schema:

    <video name="..." frames="..." fps="...">
      <action begin="..." end="..." move="..." [score="..."]/>
      ...
    </video>

begin/end are base-10 frame indices forming half-open intervals [begin, end);
score, when present, marks a predicted segment. Taxonomy CSV schema: header
``label,type,hand_side``, one row per fine label.
"""

from __future__ import annotations

import csv
import io
import xml.parsers.expat
from dataclasses import dataclass, field
from importlib import resources
from xml.sax.saxutils import quoteattr

from .errors import AnnotationError, TaxonomyError
from .frames import check_fps, fps_text

NONSTROKE_LABEL = "Non-stroke"
STROKE_LABEL = "Stroke"
PROPOSAL_LABEL = "Proposal"

TYPES = ("Defensive", "Offensive", "Service")
HAND_SIDES = ("Forehand", "Backhand")

LEVELS = ("global", "type", "hand", "type_hand")
LEVEL_TITLES = {
    "global": "Global",
    "type_hand": "Type and Hand-Sided",
    "type": "Type",
    "hand": "Hand-Side",
}


@dataclass(frozen=True)
class Segment:
    """Half-open frame interval with a label; score only on predictions."""

    begin: int
    end: int
    label: str
    score: float | None = None

    def __post_init__(self):
        if not (0 <= self.begin < self.end):
            raise AnnotationError(
                f"segment must satisfy 0 <= begin < end, got [{self.begin}, {self.end})"
            )
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise AnnotationError(f"score must lie in [0, 1], got {self.score}")

    @property
    def length(self) -> int:
        return self.end - self.begin


@dataclass
class VideoAnnotation:
    """An annotation document; construction checks every rule of the XML format."""

    video_id: str
    frame_count: int
    fps: float
    segments: list[Segment] = field(default_factory=list)

    def __post_init__(self):
        if self.frame_count < 0:
            raise AnnotationError(f"frame count must be >= 0, got {self.frame_count}")
        check_fps(self.fps, AnnotationError)
        self.segments = _sorted_segments(self.segments, self.frame_count)

    @property
    def ground_truth(self) -> list[Segment]:
        return [s for s in self.segments if s.score is None]

    @property
    def predictions(self) -> list[Segment]:
        return [s for s in self.segments if s.score is not None]


def _sorted_segments(segments: list[Segment], frame_count: int, lines=None) -> list[Segment]:
    """segments in (begin, end) order, checked against the frame count (0 means
    unknown) and each other; lines[i], if given, is segment i's source line."""
    order = sorted(range(len(segments)), key=lambda i: (segments[i].begin, segments[i].end))
    prev_gt = None
    for i in order:
        s, where = segments[i], f" (line {lines[i]})" if lines else ""
        if frame_count > 0 and s.end > frame_count:
            raise AnnotationError(
                f"segment [{s.begin}, {s.end}) exceeds frame count {frame_count}{where}"
            )
        if s.score is None:
            if prev_gt is not None and s.begin < prev_gt.end:
                raise AnnotationError(
                    f"ground-truth segments overlap: [{prev_gt.begin}, {prev_gt.end}) "
                    f"and [{s.begin}, {s.end}){where}"
                )
            prev_gt = s
    return [segments[i] for i in order]


class _VideoXmlTarget:
    """Expat handlers building one VideoAnnotation, tracking source lines."""

    def __init__(self, parser):
        self.parser = parser
        self.video_attrs = None
        self.actions: list[tuple[dict, int]] = []
        self.depth = 0

    def start(self, tag, attrs):
        line = self.parser.CurrentLineNumber
        self.depth += 1
        if self.depth == 1:
            if tag != "video":
                raise AnnotationError(f"expected <video> root, got <{tag}> (line {line})")
            self.video_attrs = (attrs, line)
        elif self.depth == 2:
            if tag != "action":
                raise AnnotationError(f"unexpected element <{tag}> (line {line})")
            self.actions.append((attrs, line))
        else:
            raise AnnotationError(f"unexpected nested element <{tag}> (line {line})")

    def end(self, tag):
        self.depth -= 1


_ATTR_KINDS = {int: "a base-10 integer", float: "a number"}


def _attr(attrs, name, line, kind=str):
    """attrs[name] read as kind: str, int or float. Errors carry the line."""
    if name not in attrs:
        raise AnnotationError(f"missing attribute {name!r} (line {line})")
    try:
        return kind(attrs[name])
    except ValueError:
        raise AnnotationError(
            f"attribute {name}={attrs[name]!r} is not {_ATTR_KINDS[kind]} (line {line})"
        ) from None


def parse_annotations(data: bytes) -> VideoAnnotation:
    """Parse annotation XML; diagnostics carry the offending line number."""
    parser = xml.parsers.expat.ParserCreate()
    target = _VideoXmlTarget(parser)
    parser.StartElementHandler = target.start
    parser.EndElementHandler = target.end
    try:
        parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as e:
        raise AnnotationError(f"malformed XML: {e} (line {e.lineno})") from None
    if target.video_attrs is None:
        raise AnnotationError("no <video> element found")

    vattrs, vline = target.video_attrs
    name = _attr(vattrs, "name", vline)
    frame_count = _attr(vattrs, "frames", vline, int)
    fps = _attr(vattrs, "fps", vline, float)
    try:
        ann = VideoAnnotation(name, frame_count, fps)
    except AnnotationError as e:
        raise AnnotationError(f"{e} (line {vline})") from None

    segments, lines = [], []
    for attrs, line in target.actions:
        begin = _attr(attrs, "begin", line, int)
        end = _attr(attrs, "end", line, int)
        move = _attr(attrs, "move", line)
        score = _attr(attrs, "score", line, float) if "score" in attrs else None
        try:
            segments.append(Segment(begin, end, move, score))
        except AnnotationError as e:
            raise AnnotationError(f"{e} (line {line})") from None
        lines.append(line)
    ann.segments = _sorted_segments(segments, frame_count, lines)
    return ann


def render_annotation_xml(video_id: str, segments: list[Segment],
                          frame_count: int, fps: float) -> bytes:
    """XML of VideoAnnotation(video_id, frame_count, fps, segments): the reader's rules hold."""
    ann = VideoAnnotation(video_id, frame_count, fps, segments)
    out = io.StringIO()
    out.write(f"<video name={quoteattr(ann.video_id)} frames=\"{ann.frame_count}\" "
              f"fps=\"{fps_text(ann.fps)}\">\n")
    for s in ann.segments:
        score = f" score=\"{s.score!r}\"" if s.score is not None else ""
        out.write(f"  <action begin=\"{s.begin}\" end=\"{s.end}\" "
                  f"move={quoteattr(s.label)}{score}/>\n")
    out.write("</video>\n")
    return out.getvalue().encode("utf-8")


def write_predictions(video_id: str, segments: list[Segment],
                      frame_count: int = 0, fps: float = 120.0) -> bytes:
    """Emit predicted segments; parse_annotations(write_predictions(...)) is an
    identity on the segment data. frame_count 0 means unknown."""
    for s in segments:
        if s.score is None:
            raise AnnotationError(f"prediction [{s.begin}, {s.end}) is missing a score")
    return render_annotation_xml(video_id, segments, frame_count, fps)


def infer_negative_segments(ann: VideoAnnotation, block: int = 200) -> list[Segment]:
    """Non-stroke blocks from the gaps between consecutive strokes.

    Only gaps strictly longer than `block` are used and they are tiled from
    the gap start with floor(gap/block) blocks of exactly `block` frames;
    leading/trailing gaps at the video boundaries never produce negatives.
    """
    if block < 1:
        raise AnnotationError(f"block must be >= 1, got {block}")
    strokes = ann.ground_truth
    negatives = []
    for prev, nxt in zip(strokes, strokes[1:]):
        gap = nxt.begin - prev.end
        if gap > block:
            for i in range(gap // block):
                start = prev.end + i * block
                negatives.append(Segment(start, start + block, NONSTROKE_LABEL))
    return negatives


def generate_window_proposals(frame_count: int, length: int = 150,
                              stride: int = 150) -> list[Segment]:
    """Candidate windows [k*stride, k*stride+length) fully inside the video."""
    if length < 1 or stride < 1:
        raise AnnotationError(f"length and stride must be >= 1, got {length}/{stride}")
    proposals = []
    start = 0
    while start + length <= frame_count:
        proposals.append(Segment(start, start + length, PROPOSAL_LABEL))
        start += stride
    return proposals


@dataclass
class Taxonomy:
    """Fine label -> (type, hand side); label order follows the CSV."""

    entries: dict[str, tuple[str, str]]

    @property
    def labels(self) -> list[str]:
        return list(self.entries)


def load_taxonomy(data: bytes) -> Taxonomy:
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
    except UnicodeDecodeError as e:
        raise TaxonomyError(f"not UTF-8 text ({e.reason} at byte {e.start})") from None
    try:
        header = next(reader)
    except StopIteration:
        raise TaxonomyError("empty taxonomy file") from None
    if header != ["label", "type", "hand_side"]:
        raise TaxonomyError(f"expected header label,type,hand_side, got {','.join(header)}")
    entries: dict[str, tuple[str, str]] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != 3:
            raise TaxonomyError(f"expected 3 columns, got {row}")
        label, typ, hand = row
        if label in entries:
            raise TaxonomyError(f"duplicate fine label {label!r}")
        if typ not in TYPES:
            raise TaxonomyError(f"type {typ!r} for {label!r} not one of {TYPES}")
        if hand not in HAND_SIDES:
            raise TaxonomyError(f"hand side {hand!r} for {label!r} not one of {HAND_SIDES}")
        entries[label] = (typ, hand)
    if not entries:
        raise TaxonomyError("taxonomy defines no labels")
    return Taxonomy(entries)


def default_taxonomy() -> Taxonomy:
    data = resources.files("strokebench").joinpath("data/default_taxonomy.csv").read_bytes()
    return load_taxonomy(data)


def superclass_of(tax: Taxonomy, label: str, level: str) -> str:
    """Map a fine label to its super-label at the given level; global is identity."""
    if level not in LEVELS:
        raise TaxonomyError(f"unknown level {level!r}; know {LEVELS}")
    if label not in tax.entries:
        raise TaxonomyError(f"unknown label {label!r}")
    if level == "global":
        return label
    typ, hand = tax.entries[label]
    if level == "type":
        return typ
    if level == "hand":
        return hand
    return f"{typ} {hand}"
