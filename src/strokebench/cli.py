"""Command-line orchestration: prepare, synth, train, infer, eval, gradcheck.

Configuration comes from defaults, then an optional key=value config file,
then command-line flags (flags win). Each run setting is declared once, as a
field of RunConfig with its default, the reader that parses its value and
its help; a recipe default is read from the library module that applies it,
and numbers follow the ASCII rules of frames.ascii_int and ascii_float. A
config file may set any of them, so one file serves every command; each
command takes flags only for the settings it reads (`COMMANDS`). Results go
to stdout and files under --out; diagnostics go to stderr; exit code 0 means
the command's contract was fully met.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import metrics, model as model_mod, synth
from .annotations import (LEVEL_TITLES, NEGATIVE_BLOCK, PROPOSAL_LEN, PROPOSAL_STRIDE,
                          STROKE_LABEL, Segment, Taxonomy, VideoAnnotation, default_taxonomy,
                          infer_negative_segments, load_taxonomy, parse_annotations,
                          write_predictions)
from .errors import AnnotationError, ConfigError, MetricError, StrokebenchError, TaxonomyError
from .frames import ascii_float, ascii_int, open_frame_dir, open_rgbv
from .model import DatasetItem, TrainConfig, build_model, load_checkpoint, save_checkpoint
from .nn.gradcheck import run_all
from .nn.layers import FILTERS, HIDDEN, INPUT_SHAPE, default_architecture

TASKS = ("detection", "classification")
GRADCHECK_TOLERANCE = 1e-6


def _task(raw: str) -> str:
    if raw not in TASKS:
        # argparse prints this message as it is
        raise argparse.ArgumentTypeError(
            f"invalid choice: {raw!r} (choose from {', '.join(TASKS)})")
    return raw


def _number(parse):
    """parse(raw) as a reader of flags and config values: its ValueError
    becomes the message argparse prints after the flag's name."""
    def read(raw: str):
        try:
            return parse(raw)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return read


_int, _float = _number(ascii_int), _number(ascii_float)


def _tiou(raw: str) -> float:
    try:
        value = ascii_float(raw)
        metrics.check_threshold(value)
    except MetricError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"temporal-IoU threshold {raw!r} is not a number") from None
    return value


def _int_list(raw: str) -> tuple[int, ...]:
    if not raw.strip():
        raise argparse.ArgumentTypeError(f"count list {raw!r} is empty")
    values = []
    for item in raw.split(","):
        if not item.strip():
            raise argparse.ArgumentTypeError(f"count list {raw!r} has an empty item")
        try:
            values.append(ascii_int(item.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"count list {raw!r}: {item!r} is not an integer") from None
        if values[-1] < 1:
            raise argparse.ArgumentTypeError(f"count list {raw!r}: {item!r} is not >= 1")
    return tuple(values)


def _setting(default, read, help: str):
    """A run setting: its default, the reader that parses a config value or
    flag into it, and its flag's help."""
    return field(default=default, metadata={"read": read, "help": help})


@dataclass
class RunConfig:
    task: str = _setting("detection", _task, "detection or classification")
    data: Path | None = _setting(None, Path, "corpus root with train/validation/test")
    taxonomy: Path | None = _setting(None, Path, "taxonomy CSV (default: built-in 20 labels)")
    checkpoint: Path | None = _setting(None, Path, "default: OUT/TASK_model.ckpt")
    out: Path = _setting(Path("runs"), Path, "output directory (default: runs)")
    epochs: int = _setting(TrainConfig.epochs, _int, "training epochs")
    batch: int = _setting(TrainConfig.batch_size, _int, "training batch size")
    lr: float = _setting(TrainConfig.lr, _float, "learning rate")
    momentum: float = _setting(TrainConfig.momentum, _float, "Nesterov momentum, in [0, 1)")
    weight_decay: float = _setting(TrainConfig.weight_decay, _float, "L2 weight decay")
    proposal_len: int = _setting(PROPOSAL_LEN, _int, "detection window length in frames")
    proposal_stride: int = _setting(PROPOSAL_STRIDE, _int, "frames between detection windows")
    cuboid_len: int = _setting(INPUT_SHAPE[1], _int, "frames per model input cuboid")
    cuboid_size: int = _setting(INPUT_SHAPE[2], _int, "height and width of a model input cuboid")
    block_len: int = _setting(NEGATIVE_BLOCK, _int, "length of the inferred non-stroke blocks")
    map_tiou: float = _setting(0.5, _tiou, "temporal-IoU threshold of mAP, in (0, 1]")
    seed: int = _setting(0, _int, "random seed")
    filters: tuple[int, ...] = _setting(FILTERS, _int_list, "comma-separated conv filter counts")
    hidden: int = _setting(HIDDEN, _int, "hidden units before the output layer")


SETTINGS = {f.name: f for f in fields(RunConfig)}


def load_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = SETTINGS[key].metadata["read"](raw)
        except (ValueError, argparse.ArgumentTypeError):
            raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for config key {key!r}") from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    from_file = load_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: v for key in SETTINGS if (v := getattr(args, key, None)) is not None}
    return RunConfig(**(from_file | flags))


def _parse_file(path, parse, error: type[StrokebenchError]):
    """parse(the file's bytes), with the path in front of any `error` it raises."""
    try:
        return parse(Path(path).read_bytes())
    except error as e:
        raise error(f"{path}: {e}") from None


def _load_taxonomy(cfg: RunConfig) -> Taxonomy:
    if cfg.taxonomy is None:
        return default_taxonomy()
    return _parse_file(cfg.taxonomy, load_taxonomy, TaxonomyError)


def _split_annotations(cfg: RunConfig, split: str):
    if cfg.data is None:
        raise ConfigError("--data is required")
    split_dir = Path(cfg.data) / split
    if not split_dir.is_dir():
        raise ConfigError(f"missing split directory {split_dir}")
    xmls = sorted(split_dir.glob("*.xml"))
    if not xmls:
        raise ConfigError(f"no annotation files in {split_dir}")
    return _parse_annotation_files(xmls)


def _parse_annotation_files(paths: list[Path]) -> list[VideoAnnotation]:
    """Each file's annotation, in order; ConfigError if two files name one video."""
    anns = {}  # video id -> (its file, its annotation)
    for p in paths:
        ann = _parse_file(p, parse_annotations, AnnotationError)
        if ann.video_id in anns:
            raise ConfigError(f"{anns[ann.video_id][0]} and {p} both annotate video "
                              f"{ann.video_id!r}")
        anns[ann.video_id] = p, ann
    return [ann for _, ann in anns.values()]


def _open_source(cfg: RunConfig, split: str, video_id: str):
    base = Path(cfg.data) / split
    rgbv = base / f"{video_id}.rgbv"
    if rgbv.is_file():
        return open_rgbv(rgbv)
    frame_dir = base / video_id
    if frame_dir.is_dir():
        return open_frame_dir(frame_dir)
    return None


def _index_path(cfg: RunConfig, split: str) -> Path:
    return Path(cfg.out) / f"{cfg.task}_{split}_index.csv"


def _default_checkpoint(cfg: RunConfig) -> Path:
    return cfg.checkpoint if cfg.checkpoint else Path(cfg.out) / f"{cfg.task}_model.ckpt"


def _default_net(cfg: RunConfig, n_classes: int) -> model_mod.ModelParams:
    shape = (3, cfg.cuboid_len, cfg.cuboid_size, cfg.cuboid_size)  # RGB, square frames
    arch = default_architecture(shape, filters=cfg.filters, hidden=cfg.hidden, n_classes=n_classes)
    return build_model(n_classes, arch, seed=cfg.seed, input_shape=shape)


def _write_index(path: Path, rows: list[tuple[str, int, int, str]]) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["video_id", "begin", "end", "label"])
    writer.writerows(rows)
    path.write_text(out.getvalue())


def _read_index(path: Path, labels: list[str]) -> list[DatasetItem]:
    """The items an index CSV lists, labels[i] being class i; errors name the row."""
    if not path.is_file():
        raise ConfigError(f"missing index file {path}; run `prepare` first")
    index = {lab: i for i, lab in enumerate(labels)}
    items = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["video_id", "begin", "end", "label"]:
            raise ConfigError(f"{path}: bad index header {header}")
        for row in reader:
            where = f"{path}: row {reader.line_num}"
            if len(row) != 4:
                raise ConfigError(f"{where}: bad index row {row}")
            video_id, begin, end, label = row
            try:
                segment = Segment(ascii_int(begin), ascii_int(end), label)
            except AnnotationError as e:  # a ValueError too, so caught first
                raise ConfigError(f"{where}: {e}") from None
            except ValueError:
                raise ConfigError(f"{where}: non-integer frame bound in {row}") from None
            if label not in index:
                raise ConfigError(f"{where}: label {label!r} not among task classes")
            items.append(DatasetItem(video_id, segment, index[label]))
    return items


def cmd_prepare(cfg: RunConfig, args: argparse.Namespace) -> int:
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    for split in ("train", "validation"):
        rows = []
        n_pos = n_neg = 0
        for ann in _split_annotations(cfg, split):
            for seg in ann.ground_truth:
                label = STROKE_LABEL if cfg.task == "detection" else seg.label
                rows.append((ann.video_id, seg.begin, seg.end, label))
                n_pos += 1
            if cfg.task == "detection":
                for seg in infer_negative_segments(ann, cfg.block_len):
                    rows.append((ann.video_id, seg.begin, seg.end, seg.label))
                    n_neg += 1
        path = _index_path(cfg, split)
        _write_index(path, rows)
        if cfg.task == "detection":
            print(f"{split}: {n_pos} stroke, {n_neg} non-stroke -> {path}")
        else:
            print(f"{split}: {n_pos} segments -> {path}")
    return 0


def _class_labels(cfg: RunConfig, tax: Taxonomy) -> list[str]:
    return list(model_mod.DETECTION_LABELS) if cfg.task == "detection" else tax.labels


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    tax = _load_taxonomy(cfg)
    labels = _class_labels(cfg, tax)
    train_index, val_index = _index_path(cfg, "train"), _index_path(cfg, "validation")
    train_items = _read_index(train_index, labels)
    val_items = _read_index(val_index, labels)
    # training looks a sample's video up by id alone, so one id may name one video only
    shared = sorted({i.video_id for i in train_items} & {i.video_id for i in val_items})
    if shared:
        raise ConfigError(f"video id {shared[0]!r} is named by both {train_index} and "
                          f"{val_index}; train and validation videos need distinct ids")

    net = _default_net(cfg, len(labels))  # its numbers are refused before any video is opened
    sources = {}
    for split, items in (("train", train_items), ("validation", val_items)):
        for item in items:
            if item.video_id not in sources:
                src = _open_source(cfg, split, item.video_id)
                if src is not None:
                    sources[item.video_id] = src

    tc = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch, lr=cfg.lr, momentum=cfg.momentum,
                     weight_decay=cfg.weight_decay, seed=cfg.seed, cuboid_len=cfg.cuboid_len,
                     cuboid_size=cfg.cuboid_size)
    best, history = model_mod.train(net, train_items, val_items, sources, tc)

    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    ckpt = _default_checkpoint(cfg)
    save_checkpoint(best, ckpt)
    hist_path = Path(cfg.out) / f"{cfg.task}_history.csv"
    hist_path.write_text(model_mod.history_csv(history))
    best_val = max(h.val_acc for h in history)
    print(f"trained {len(history)} epochs; best val acc {best_val:.4f}")
    print(f"checkpoint -> {ckpt}")
    print(f"history -> {hist_path}")
    return 0


def _predictions_dir(cfg: RunConfig) -> Path:
    return Path(cfg.out) / f"{cfg.task}_predictions"


def cmd_infer(cfg: RunConfig, args: argparse.Namespace) -> int:
    tax = _load_taxonomy(cfg)
    ckpt = _default_checkpoint(cfg)
    if not Path(ckpt).is_file():
        raise ConfigError(f"missing checkpoint {ckpt}; run `train` first")
    net = load_checkpoint(ckpt)
    expected = len(_class_labels(cfg, tax))
    if net.n_classes != expected:
        raise ConfigError(
            f"checkpoint has {net.n_classes} classes but task {cfg.task!r} needs {expected}"
        )
    pred_dir = _predictions_dir(cfg)
    pred_dir.mkdir(parents=True, exist_ok=True)

    anns = _split_annotations(cfg, "test")
    n_out = 0
    for ann in anns:
        src = _open_source(cfg, "test", ann.video_id)
        if src is None:
            raise ConfigError(f"no video for test annotation {ann.video_id!r}")
        if cfg.task == "detection":
            dets = model_mod.detect(net, src, cfg.proposal_len, cfg.proposal_stride)
            xml = write_predictions(ann.video_id, dets, src.frame_count, src.fps)
        else:
            model_mod.check_video_length(net, src)  # eval needs every segment classified
            scored = model_mod.classify_windows(net, src, ann.ground_truth)
            preds = [Segment(seg.begin, seg.end, tax.labels[cls], score=float(probs[cls]))
                     for seg, cls, probs in scored]
            xml = write_predictions(ann.video_id, preds, ann.frame_count, ann.fps)
        out_path = pred_dir / f"{ann.video_id}.xml"
        out_path.write_bytes(xml)
        n_out += 1
    print(f"wrote predictions for {n_out} videos -> {pred_dir}")
    return 0


def _load_predictions(cfg: RunConfig) -> dict[str, list[Segment]]:
    pred_dir = _predictions_dir(cfg)
    if not pred_dir.is_dir():
        raise ConfigError(f"missing predictions directory {pred_dir}; run `infer` first")
    anns = _parse_annotation_files(sorted(pred_dir.glob("*.xml")))
    return {ann.video_id: ann.predictions for ann in anns}


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    gt = {ann.video_id: ann for ann in _split_annotations(cfg, "test")}
    preds = _load_predictions(cfg)
    unknown = sorted(set(preds) - set(gt))
    if unknown:
        raise ConfigError(f"predictions for unknown video ids: {unknown}")

    if cfg.task == "detection":
        ds = metrics.DetectionSet()
        for vid, ann in gt.items():
            ds.add_video(vid, preds.get(vid, []), ann.ground_truth)
        print(f"mAP: {metrics.average_precision(ds, cfg.map_tiou)}")
        print(f"global IoU: {metrics.global_iou(ds)}")
        return 0

    tax = _load_taxonomy(cfg)
    truth, predicted = [], []
    for vid, ann in gt.items():
        by_span = {}
        for p in preds.get(vid, []):
            if (p.begin, p.end) in by_span:
                raise ConfigError(f"{vid}: two predictions for segment [{p.begin}, {p.end})")
            by_span[p.begin, p.end] = p
        gt_spans = {(s.begin, s.end) for s in ann.ground_truth}
        stray = sorted(set(by_span) - gt_spans)
        if stray:
            raise ConfigError(f"{vid}: predictions for unknown segments {stray[:3]}")
        for seg in ann.ground_truth:
            p = by_span.get((seg.begin, seg.end))
            if p is None:
                raise ConfigError(
                    f"{vid}: no prediction for segment [{seg.begin}, {seg.end})"
                )
            truth.append(seg.label)
            predicted.append(p.label)
    if not truth:
        raise ConfigError("no ground-truth segments to evaluate")

    cm = metrics.confusion(predicted, truth, tax.labels)
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    accs = []
    for level in LEVEL_TITLES:
        level_cm = metrics.aggregate(cm, tax, level)
        accs.append(str(level_cm.diagonal_accuracy()))
        (Path(cfg.out) / f"confusion_{level}.csv").write_text(level_cm.to_csv())
    print(",".join(LEVEL_TITLES.values()))
    print(",".join(accs))
    return 0


# synth's corpus flags are SynthConfig's fields, named as below or after the field
_SYNTH_FLAGS = {"train_per_class": "--samples", "val_per_class": "--val-samples",
                "test_per_class": "--test-samples"}
_SYNTH_FIELDS = [f for f in fields(synth.SynthConfig) if f.name != "seed"]


def cmd_synth(cfg: RunConfig, args: argparse.Namespace) -> int:
    corpus = {f.name: v for f in _SYNTH_FIELDS if (v := getattr(args, f.name)) is not None}
    scfg = synth.SynthConfig(**corpus, seed=cfg.seed)
    counts = synth.generate_corpus(cfg.out, scfg, _load_taxonomy(cfg))
    for split in synth.SPLITS:
        print(f"{split}: {counts[split]} segments -> {Path(cfg.out) / split}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    results = run_all(trials=args.trials, seed=cfg.seed)
    ok = True
    for kind, err in results.items():
        status = "PASS" if err < GRADCHECK_TOLERANCE else "FAIL"
        ok = ok and err < GRADCHECK_TOLERANCE
        print(f"{kind}: max_rel_err={err:.3e} {status}")
    return 0 if ok else 1


# command -> (handler(cfg, args), help, the settings the handler reads)
COMMANDS = {
    "prepare": (cmd_prepare, "build train/validation index CSVs",
                ("task", "data", "out", "block_len")),
    "train": (cmd_train, "train a model from prepared indices",
              ("task", "data", "taxonomy", "checkpoint", "out", "seed", "epochs", "batch",
               "lr", "momentum", "weight_decay", "cuboid_len", "cuboid_size", "filters",
               "hidden")),
    "infer": (cmd_infer, "run detection or classification on the test split",
              ("task", "data", "taxonomy", "checkpoint", "out", "proposal_len",
               "proposal_stride")),
    "eval": (cmd_eval, "score predictions against ground truth",
             ("task", "data", "taxonomy", "out", "map_tiou")),
    "synth": (cmd_synth, "generate a deterministic synthetic corpus",
              ("taxonomy", "out", "seed")),
}


def _add_setting(p: argparse.ArgumentParser, key: str) -> None:
    meta = SETTINGS[key].metadata
    p.add_argument("--" + key.replace("_", "-"), type=meta["read"], help=meta["help"])


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="strokebench",
                                     description="Stroke detection/classification baseline")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (handler, doc, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.set_defaults(handler=handler)
        p.add_argument("--config", type=Path, help="key=value config file")
        for key in keys:
            _add_setting(p, key)
        if name == "synth":
            for f in _SYNTH_FIELDS:
                p.add_argument(_SYNTH_FLAGS.get(f.name, "--" + f.name.replace("_", "-")),
                               dest=f.name, type={int: _int, float: _float}[type(f.default)],
                               help=f"default: {f.default}")

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.set_defaults(handler=cmd_gradcheck)
    p.add_argument("--trials", type=_int, default=20)
    _add_setting(p, "seed")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        return args.handler(build_run_config(args), args)
    except (StrokebenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
