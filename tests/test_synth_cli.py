import logging
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from strokebench import model as model_mod, synth
from strokebench.annotations import parse_annotations
from strokebench.cli import RunConfig, build_run_config, load_config_file, main, make_parser
from strokebench.errors import ConfigError
from strokebench.frames import open_rgbv
from strokebench.synth import SynthConfig, generate_corpus

from test_model import INVALID_MODELS, non_square_model, unchecked_model


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# (--filters value, what the error says after the quoted value)
BAD_COUNT_LISTS = [
    ("4,x", ": 'x' is not an integer"),
    ("4,1.5", ": '1.5' is not an integer"),
    ("4,,8", " has an empty item"),
    (",", " has an empty item"),
    ("8,", " has an empty item"),
    ("", " is empty"),
    ("4,0", ": '0' is not >= 1"),
    ("-2", ": '-2' is not >= 1"),
]


class TestSynth:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(classes=2, train_per_class=2, val_per_class=1, test_per_class=1,
                          frame_size=16, stroke_len=20, gap_len=15, strokes_per_video=2)
        generate_corpus(tmp_path / "a", cfg)
        generate_corpus(tmp_path / "b", cfg)
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_seed_changes_corpus(self, tmp_path):
        base = dict(classes=2, train_per_class=2, val_per_class=1, test_per_class=1,
                    frame_size=16, stroke_len=20, gap_len=15, strokes_per_video=2)
        generate_corpus(tmp_path / "a", SynthConfig(**base, seed=0))
        generate_corpus(tmp_path / "b", SynthConfig(**base, seed=1))
        assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "b")

    def test_requested_counts(self, tmp_path):
        cfg = SynthConfig(classes=2, train_per_class=20, val_per_class=1, test_per_class=1,
                          frame_size=16, stroke_len=20, gap_len=15, strokes_per_video=5)
        counts = generate_corpus(tmp_path, cfg)
        assert counts["train"] == 40
        total = 0
        for p in (tmp_path / "train").glob("*.xml"):
            total += len(parse_annotations(p.read_bytes()).segments)
        assert total == 40

    def test_annotations_validate_and_match_videos(self, tmp_path):
        cfg = SynthConfig(classes=3, train_per_class=2, val_per_class=1, test_per_class=1,
                          frame_size=16, stroke_len=20, gap_len=15, strokes_per_video=3)
        generate_corpus(tmp_path, cfg)
        for split in ("train", "validation", "test"):
            xmls = sorted((tmp_path / split).glob("*.xml"))
            assert xmls
            for p in xmls:
                ann = parse_annotations(p.read_bytes())
                src = open_rgbv(p.with_suffix(".rgbv"))
                assert src.frame_count == ann.frame_count
                assert src.fps == ann.fps
                assert ann.ground_truth

    def test_classes_render_differently(self, tmp_path):
        cfg = SynthConfig(classes=2, train_per_class=1, val_per_class=1, test_per_class=1,
                          frame_size=16, stroke_len=20, gap_len=15, strokes_per_video=2)
        generate_corpus(tmp_path, cfg)
        ann = parse_annotations((tmp_path / "train" / "train000.xml").read_bytes())
        src = open_rgbv(tmp_path / "train" / "train000.rgbv")
        seg0, seg1 = ann.segments
        assert seg0.label != seg1.label
        a = src.frame(seg0.begin + 5)
        b = src.frame(seg1.begin + 5)
        assert a.any() and b.any()
        # gap frames are black
        assert not src.frame(seg0.end + 2).any()

    @pytest.mark.parametrize("fps", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_fps_rejected(self, fps):
        with pytest.raises(ConfigError, match="fps must be finite"):
            SynthConfig(fps=fps)

    def test_too_many_classes_rejected(self, tmp_path):
        cfg = SynthConfig(classes=21, train_per_class=1)
        with pytest.raises(ConfigError, match="taxonomy"):
            generate_corpus(tmp_path, cfg)


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = RunConfig()
        assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (1e-4, 0.5, 0.005)
        assert cfg.epochs == 500
        assert (cfg.cuboid_len, cfg.cuboid_size) == (98, 120)
        assert (cfg.proposal_len, cfg.proposal_stride) == (150, 150)
        assert cfg.block_len == 200
        assert cfg.batch == 10
        assert cfg.map_tiou == 0.5

    def test_config_file_then_flags(self, tmp_path):
        cfile = tmp_path / "run.cfg"
        cfile.write_text("epochs = 7\nlr=0.5\ntask=classification\n# comment\n\nfilters=4,8\n")
        parser = make_parser()
        args = parser.parse_args(["train", "--config", str(cfile), "--lr", "0.25"])
        cfg = build_run_config(args)
        assert cfg.epochs == 7
        assert cfg.lr == 0.25  # flag wins
        assert cfg.task == "classification"
        assert cfg.filters == (4, 8)

    def test_unknown_key_rejected(self, tmp_path):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text("warp_speed=9\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(cfile)

    def test_bad_value_rejected(self, tmp_path):
        cfile = tmp_path / "bad.cfg"
        cfile.write_text("epochs=ten\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config_file(cfile)

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfile = tmp_path / "bad.cfg"
        cfile.write_bytes(b"epochs=5  # \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config_file(cfile)
        assert main(["eval", "--config", str(cfile)]) == 2
        assert f"error: {cfile}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["threads=2", "deterministic=true"])
    def test_removed_settings_are_unknown_keys(self, tmp_path, line):
        cfile = tmp_path / "old.cfg"
        cfile.write_text(line + "\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config_file(cfile)

    def test_deterministic_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["train", "--deterministic"])
        assert exc.value.code == 2
        assert "--deterministic" in capsys.readouterr().err

    def test_threads_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("STROKEBENCH_THREADS", "zero")
        assert build_run_config(make_parser().parse_args(["train"])) == RunConfig()

    @pytest.mark.parametrize("raw", ["0", "-1", "1.5", "nan", "inf"])
    def test_map_tiou_flag_outside_unit_interval_rejected(self, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["eval", "--map-tiou", raw])
        assert exc.value.code == 2
        assert (f"error: argument --map-tiou: temporal-IoU threshold {float(raw)} "
                "is not in (0, 1]") in capsys.readouterr().err

    def test_map_tiou_flag_not_a_number_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["eval", "--map-tiou", "abc"])
        assert exc.value.code == 2
        assert "error: argument --map-tiou: temporal-IoU threshold 'abc' is not a number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["0", "-1", "1.5", "nan", "inf"])
    def test_map_tiou_config_outside_unit_interval_rejected(self, tmp_path, capsys, raw):
        cfile = tmp_path / "run.cfg"
        cfile.write_text(f"map_tiou = {raw}\n")
        assert main(["eval", "--config", str(cfile)]) == 2
        assert f"error: {cfile}:1: bad value {raw!r} for config key 'map_tiou'" in \
            capsys.readouterr().err

    def test_bad_task_flag_names_both_tasks(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["train", "--task", "foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "detection" in err and "classification" in err

    @pytest.mark.parametrize("raw,problem", BAD_COUNT_LISTS)
    def test_filters_flag_rejects_bad_list(self, capsys, raw, problem):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(["train", "--filters", raw])
        assert exc.value.code == 2
        assert f"error: argument --filters: count list {raw!r}{problem}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("raw,problem", BAD_COUNT_LISTS)
    def test_filters_config_rejects_bad_list(self, tmp_path, capsys, raw, problem):
        cfile = tmp_path / "run.cfg"
        cfile.write_text(f"filters = {raw}\n")
        assert main(["train", "--config", str(cfile)]) == 2
        assert f"error: {cfile}:1: bad value {raw!r} for config key 'filters'" in \
            capsys.readouterr().err

    def test_filters_accepts_spaces_around_counts(self):
        args = make_parser().parse_args(["train", "--filters", "30, 60 ,80"])
        assert build_run_config(args).filters == (30, 60, 80)


# one raw value per run setting, and the RunConfig that all of them give
RAW_SETTINGS = {"task": "classification", "data": "d", "taxonomy": "t.csv",
                "checkpoint": "m.ckpt", "out": "o", "epochs": "3", "batch": "2",
                "lr": "0.25", "momentum": "0.25", "weight_decay": "0.125",
                "proposal_len": "30", "proposal_stride": "15", "cuboid_len": "8",
                "cuboid_size": "16", "block_len": "10", "map_tiou": "0.75", "seed": "9",
                "filters": "4,8", "hidden": "12"}
ALL_SET = RunConfig(task="classification", data=Path("d"), taxonomy=Path("t.csv"),
                    checkpoint=Path("m.ckpt"), out=Path("o"), epochs=3, batch=2, lr=0.25,
                    momentum=0.25, weight_decay=0.125, proposal_len=30,
                    proposal_stride=15, cuboid_len=8, cuboid_size=16, block_len=10,
                    map_tiou=0.75, seed=9, filters=(4, 8), hidden=12)
# the settings each command's handler reads, and so takes flags for
COMMAND_SETTINGS = {
    "prepare": {"task", "data", "out", "block_len"},
    "train": {"task", "data", "taxonomy", "checkpoint", "out", "seed", "epochs", "batch",
              "lr", "momentum", "weight_decay", "cuboid_len", "cuboid_size", "filters",
              "hidden"},
    "infer": {"task", "data", "taxonomy", "checkpoint", "out", "proposal_len",
              "proposal_stride"},
    "eval": {"task", "data", "taxonomy", "out", "map_tiou"},
    "synth": {"taxonomy", "out", "seed"},
}


def _flag(key):
    return "--" + key.replace("_", "-")


class TestSettingFlags:
    def test_raw_values_cover_every_setting(self):
        assert [f.name for f in fields(RunConfig)] == list(RAW_SETTINGS)
        assert all(getattr(ALL_SET, k) != getattr(RunConfig(), k) for k in RAW_SETTINGS)

    @pytest.mark.parametrize("command, key", [(c, k) for c, keys in COMMAND_SETTINGS.items()
                                              for k in sorted(keys)])
    def test_command_takes_flag_of_setting_it_reads(self, command, key):
        args = make_parser().parse_args([command, _flag(key), RAW_SETTINGS[key]])
        cfg = build_run_config(args)
        assert cfg == RunConfig(**{key: getattr(ALL_SET, key)})

    @pytest.mark.parametrize("command, key", [(c, k) for c, keys in COMMAND_SETTINGS.items()
                                              for k in RAW_SETTINGS if k not in keys])
    def test_command_rejects_flag_of_setting_it_ignores(self, command, key, capsys):
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args([command, _flag(key), RAW_SETTINGS[key]])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + _flag(key) in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMAND_SETTINGS))
    def test_config_file_may_set_every_key_for_every_command(self, command, tmp_path):
        cfile = tmp_path / "all.cfg"
        cfile.write_text("".join(f"{k} = {v}\n" for k, v in RAW_SETTINGS.items()))
        args = make_parser().parse_args([command, "--config", str(cfile)])
        assert build_run_config(args) == ALL_SET

    def test_synth_defaults_come_from_synth_config(self, tmp_path, monkeypatch):
        seen = []

        def capture(out, cfg, tax):
            seen.append(cfg)
            return dict.fromkeys(synth.SPLITS, 0)

        monkeypatch.setattr(synth, "generate_corpus", capture)
        assert main(["synth", "--out", str(tmp_path), "--seed", "4"]) == 0
        assert seen == [SynthConfig(seed=4)]


def _short_test_video(tmp_path):
    """A 3-frame classification test video under tmp_path/data/test, one
    segment long, and a 20-class model with a 4-frame input saved to c.ckpt:
    (model, checkpoint path, the segment)."""
    from strokebench.annotations import Segment, default_taxonomy, render_annotation_xml
    from strokebench.frames import write_rgbv
    from strokebench.nn.layers import default_architecture
    test_dir = tmp_path / "data" / "test"
    test_dir.mkdir(parents=True)
    segment = Segment(0, 3, default_taxonomy().labels[0])
    (test_dir / "short.xml").write_bytes(render_annotation_xml("short", [segment], 3, 120.0))
    write_rgbv(test_dir / "short.rgbv", np.zeros((3, 8, 8, 3), np.uint8), 120.0)
    shape = (3, 4, 8, 8)
    arch = default_architecture(shape, filters=(2,), hidden=4, n_classes=20)
    net = model_mod.build_model(20, arch, input_shape=shape)
    ckpt = tmp_path / "c.ckpt"
    model_mod.save_checkpoint(net, ckpt)
    return net, ckpt, segment


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(classes=2, train_per_class=4, val_per_class=2, test_per_class=2,
                      frame_size=16, stroke_len=30, gap_len=25, strokes_per_video=4,
                      seed=5)
    generate_corpus(root, cfg)
    return root


def _train_args(corpus, out, extra=()):
    return ["train", "--task", "detection", "--data", str(corpus), "--out", str(out),
            "--seed", "3", "--epochs", "2", "--batch", "4",
            "--lr", "0.01", "--cuboid-len", "8", "--cuboid-size", "16",
            "--filters", "4", "--hidden", "8", *extra]


class TestCommands:
    def test_prepare_counts_and_indices(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                   "--out", str(out), "--block-len", "10"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "train:" in printed and "non-stroke" in printed
        lines = (out / "detection_train_index.csv").read_text().strip().split("\n")
        assert lines[0] == "video_id,begin,end,label"
        labels = {line.split(",")[3] for line in lines[1:]}
        assert labels == {"Stroke", "Non-stroke"}
        # gaps of 25 with 10-frame blocks: floor(25/10) = 2 negatives per inner gap
        n_neg = sum(1 for line in lines[1:] if line.endswith("Non-stroke"))
        n_videos = len(list((tiny_corpus / "train").glob("*.xml")))
        assert n_neg == 2 * 3 * n_videos  # 3 inner gaps per 4-stroke video

    def test_prepare_one_400_frame_gap_yields_two_negative_rows(self, tmp_path):
        from strokebench.annotations import Segment, render_annotation_xml
        data = tmp_path / "data"
        for split in ("train", "validation"):
            (data / split).mkdir(parents=True)
            xml = render_annotation_xml(
                f"{split}0", [Segment(100, 300, "A"), Segment(700, 1000, "B")], 2000, 120.0)
            (data / split / f"{split}0.xml").write_bytes(xml)
        out = tmp_path / "run"
        assert main(["prepare", "--task", "detection", "--data", str(data),
                     "--out", str(out)]) == 0
        lines = (out / "detection_train_index.csv").read_text().strip().split("\n")[1:]
        negatives = [line for line in lines if line.endswith("Non-stroke")]
        assert len(negatives) == 2
        assert negatives[0].split(",")[1:3] == ["300", "500"]
        assert negatives[1].split(",")[1:3] == ["500", "700"]

    def test_prepare_classification_has_no_negatives(self, tiny_corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["prepare", "--task", "classification", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        text = (out / "classification_train_index.csv").read_text()
        assert "Non-stroke" not in text

    def test_prepare_missing_data_fails(self, tmp_path):
        assert main(["prepare", "--task", "detection", "--data",
                     str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 2

    def test_train_missing_index_fails(self, tiny_corpus, tmp_path):
        rc = main(_train_args(tiny_corpus, tmp_path / "fresh"))
        assert rc == 2

    @pytest.mark.parametrize("row, message", [
        ("train001,900,300,Stroke", "segment must satisfy 0 <= begin < end, got [900, 300)"),
        ("train001,0,30,X", "label 'X' not among task classes"),
    ], ids=["begin_after_end", "unknown_label"])
    def test_bad_index_row_fails_naming_file_and_row(
            self, tiny_corpus, tmp_path, capsys, row, message):
        out = tmp_path / "run"
        assert main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        index = out / "detection_train_index.csv"
        lines = index.read_text().splitlines()
        lines[2] = row  # the header is row 1
        index.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(_train_args(tiny_corpus, out)) == 2
        assert f"error: {index}: row 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "0", "learning rate must be > 0"),
        ("--lr", "nan", "learning rate must be > 0 and finite"),
        ("--momentum", "1", "momentum must be in [0, 1)"),
        ("--weight-decay", "-1", "weight decay must be >= 0"),
        ("--weight-decay", "inf", "weight decay must be >= 0 and finite"),
    ], ids=["lr", "lr_nan", "momentum", "weight_decay", "weight_decay_inf"])
    def test_bad_optimizer_setting_fails_before_extraction(
            self, tiny_corpus, tmp_path, capsys, monkeypatch, flag, value, message):
        out = tmp_path / "run"
        assert main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out), "--block-len", "10"]) == 0
        calls = []
        monkeypatch.setattr(model_mod, "extract_cuboid", lambda *a: calls.append(a))
        capsys.readouterr()
        assert main(_train_args(tiny_corpus, out, [flag, value])) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert calls == []

    def test_full_cli_round_and_history(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out), "--block-len", "10"]) == 0
        assert main(_train_args(tiny_corpus, out)) == 0
        hist = (out / "detection_history.csv").read_text().strip().split("\n")
        assert hist[0] == "epoch,train_loss,train_acc,val_acc"
        assert len(hist) == 3  # 2 epochs
        assert main(["infer", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out), "--proposal-len", "30",
                     "--proposal-stride", "30"]) == 0
        preds = sorted((out / "predictions").glob("*.xml"))
        assert preds
        capsys.readouterr()
        assert main(["eval", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("mAP: ")
        assert lines[1].startswith("global IoU: ")
        assert 0.0 <= float(lines[0].split(": ")[1]) <= 1.0

    def test_deterministic_reruns_are_byte_identical(self, tiny_corpus, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                         "--out", str(out), "--block-len", "10"]) == 0
            assert main(_train_args(tiny_corpus, out)) == 0
            outs.append(out)
        a, b = outs
        assert (a / "detection_model.ckpt").read_bytes() == (b / "detection_model.ckpt").read_bytes()
        assert (a / "detection_history.csv").read_bytes() == (b / "detection_history.csv").read_bytes()

    def test_eval_rejects_unknown_video_predictions(self, tiny_corpus, tmp_path):
        out = tmp_path / "run"
        (out / "predictions").mkdir(parents=True)
        from strokebench.annotations import Segment, write_predictions
        (out / "predictions" / "ghost.xml").write_bytes(
            write_predictions("ghost", [Segment(0, 10, "Stroke", 0.5)]))
        assert main(["eval", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 2

    def test_classification_eval_report_columns(self, tiny_corpus, tmp_path, capsys):
        out = tmp_path / "runc"
        assert main(["prepare", "--task", "classification", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        args = _train_args(tiny_corpus, out)
        args[2] = "classification"
        assert main(args) == 0
        assert main(["infer", "--task", "classification", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--task", "classification", "--data", str(tiny_corpus),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "Global,Type and Hand-Sided,Type,Hand-Side"
        values = [float(v) for v in lines[1].split(",")]
        assert len(values) == 4
        for level in ("global", "type_hand", "type", "hand"):
            csv_text = (out / f"confusion_{level}.csv").read_text()
            assert csv_text.startswith("truth\\pred,")

    def test_task_checkpoint_mismatch_fails(self, tiny_corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["prepare", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(out), "--block-len", "10"]) == 0
        assert main(_train_args(tiny_corpus, out)) == 0
        rc = main(["infer", "--task", "classification", "--data", str(tiny_corpus),
                   "--out", str(out), "--checkpoint", str(out / "detection_model.ckpt")])
        assert rc == 2

    @pytest.mark.parametrize("content", [
        model_mod.CHECKPOINT_MAGIC + b"arch layers=0 input=3x4x8x8\n",
        model_mod.CHECKPOINT_MAGIC + b"\xffrch layers=1 input=3x4x8x8\n",
        model_mod.CHECKPOINT_MAGIC + b"arch layers=3 input=3x4x8x8\nflatten\n"
        b"linear in=768 out=4294967296\nlinear in=4294967296 out=2\n",
    ], ids=["no_layers", "non_utf8_header", "extent_past_u32"])
    def test_malformed_checkpoint_fails_naming_it(self, tmp_path, capsys, content):
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(content)
        assert main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 2
        assert f"error: {ckpt}: " in capsys.readouterr().err

    def test_non_square_checkpoint_fails_naming_it(self, tiny_corpus, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(non_square_model(), ckpt)
        assert main(["infer", "--task", "detection", "--data", str(tiny_corpus),
                     "--out", str(tmp_path / "run"), "--checkpoint", str(ckpt)]) == 2
        assert f"error: {ckpt}: input frames must be square" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(INVALID_MODELS))
    def test_invalid_model_checkpoint_fails_naming_it(self, tmp_path, capsys, kind):
        arch, message = INVALID_MODELS[kind]
        ckpt = tmp_path / "m.ckpt"
        model_mod.save_checkpoint(unchecked_model(arch), ckpt)
        assert main(["infer", "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 2
        assert f"error: {ckpt}: {message}" in capsys.readouterr().err

    def test_non_utf8_taxonomy_fails_naming_it(self, tmp_path, capsys):
        tax = tmp_path / "tax.csv"
        tax.write_bytes(b"label,type,hand_side\nX\xff,Offensive,Forehand\n")
        assert main(["synth", "--taxonomy", str(tax), "--out", str(tmp_path / "c")]) == 2
        assert f"error: {tax}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("prepare", "data/validation/v.xml"),
        ("eval", "run/predictions/v.xml"),
    ])
    def test_malformed_annotation_xml_fails_naming_it(self, tmp_path, capsys, command, bad):
        from strokebench.annotations import Segment, write_predictions
        good = write_predictions("v", [Segment(0, 3, "Stroke", 0.5)], 10)
        for folder in ("data/train", "data/validation", "data/test", "run/predictions"):
            (tmp_path / folder).mkdir(parents=True)
            (tmp_path / folder / "v.xml").write_bytes(good)
        (tmp_path / bad).write_bytes(good.replace(b' move="Stroke"', b""))
        assert main([command, "--task", "detection", "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"error: {tmp_path / bad}: missing attribute 'move' (line 2)" in err

    def test_classification_of_a_too_short_test_video(self, tmp_path, capsys):
        # its segments cannot be classified, so infer fails before writing its XML
        ckpt = _short_test_video(tmp_path)[1]
        out = tmp_path / "run"
        assert main(["infer", "--task", "classification", "--data", str(tmp_path / "data"),
                     "--out", str(out), "--checkpoint", str(ckpt)]) == 2
        assert ("error: short: only 3 frames, shorter than the 4-frame model input"
                in capsys.readouterr().err)
        assert not (out / "predictions" / "short.xml").exists()

    @pytest.mark.parametrize("outcome, line", [
        ("train", "short: only 3 frames, shorter than the 4-frame model input; sample skipped"),
        ("classify_windows",
         "short: only 3 frames, shorter than the 4-frame model input; no windows classified"),
        ("infer", "error: short: only 3 frames, shorter than the 4-frame model input"),
    ], ids=["train", "classify_windows", "infer"])
    def test_short_video_message_is_shared(self, tmp_path, caplog, capsys, outcome, line):
        # training skips the sample, classify_windows scores nothing, infer exits 2;
        # all three say why in the same words
        net, ckpt, segment = _short_test_video(tmp_path)
        src = open_rgbv(tmp_path / "data" / "test" / "short.rgbv")
        with caplog.at_level(logging.WARNING, logger="strokebench"):
            if outcome == "train":
                item = model_mod.DatasetItem("short", segment, 0)
                assert model_mod._extract_item(item, {"short": src}, net) is None
            elif outcome == "classify_windows":
                assert model_mod.classify_windows(net, src, [segment]) == []
            else:
                assert main(["infer", "--task", "classification", "--checkpoint", str(ckpt),
                             "--data", str(tmp_path / "data"), "--out", str(tmp_path)]) == 2
        said = capsys.readouterr().err.splitlines() + [r.getMessage() for r in caplog.records]
        assert said == [line]

    def test_gradcheck_command(self, capsys):
        assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for kind in ("conv3d", "maxpool3d", "linear", "relu", "softmax_cross_entropy"):
            assert f"{kind}: max_rel_err=" in out
        assert out.count("PASS") == 5

    def test_gradcheck_command_flags_corrupted_backward(self, capsys, monkeypatch):
        from strokebench.nn import ops
        real = ops.linear_backward

        def broken(x, w, grad_out):
            gx, gw, gb = real(x, w, grad_out)
            return gx * 1.01, gw, gb

        monkeypatch.setattr(ops, "linear_backward", broken)
        assert main(["gradcheck", "--trials", "5", "--seed", "1"]) == 1
        assert "linear: max_rel_err=" in capsys.readouterr().out

    def test_synth_command_counts(self, tmp_path, capsys):
        out = tmp_path / "c"
        rc = main(["synth", "--out", str(out), "--classes", "2", "--samples", "20",
                   "--val-samples", "1", "--test-samples", "1", "--frame-size", "16",
                   "--stroke-len", "20", "--gap-len", "15", "--strokes-per-video", "5",
                   "--seed", "9"])
        assert rc == 0
        assert "train: 40 segments" in capsys.readouterr().out
