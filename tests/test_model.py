import hashlib
import logging
import re
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

import strokebench.model as model_mod
from strokebench.annotations import Segment
from strokebench.errors import (AnnotationError, ArchitectureError, CheckpointError, CuboidError,
                                ShapeError, TrainingError, VideoFormatError)
from strokebench.frames import extract_cuboid, open_rgbv, write_rgbv
from strokebench.model import (CHECKPOINT_MAGIC, DatasetItem, ModelParams, TrainConfig,
                               build_model, classify, classify_windows, detect, forward,
                               _record_head, _text_lines, _window_input, history_csv,
                               load_checkpoint,
                               save_checkpoint, train)
from strokebench.nn import ops
from strokebench.nn.rng import SplitMix64, derive_seed
from strokebench.nn.layers import (FILTERS, HIDDEN, LayerSpec, chain_shapes, conv3d,
                                   default_architecture, flatten, linear, maxpool3d,
                                   param_entries, relu, to_descriptor)

from oracles import peak_bytes

SMALL_SHAPE = (3, 4, 8, 8)


def small_arch(n_classes=2, hidden=8):
    """conv3d(3, 4, 3x3x3, stride 1, pad 1), relu, maxpool3d(2x2x2), flatten,
    linear(4 * 2 * 4 * 4, hidden), relu, linear(hidden, n_classes)."""
    return default_architecture(SMALL_SHAPE, (4,), hidden, n_classes=n_classes)


def small_model(n_classes=2, seed=0):
    return build_model(n_classes, small_arch(n_classes), seed=seed, input_shape=SMALL_SHAPE)


def _conv(**fields):
    """A hand-built conv3d spec: 3 -> 4 channels, 3x3x3 kernel, stride 1, pad 1,
    with `fields` replaced and no factory in between."""
    return LayerSpec("conv3d", **dict(in_channels=3, out_channels=4, kernel=(3, 3, 3),
                                      stride=1, pad=1) | fields)


def _hand_chain(conv=None, window=(2, 2, 2), pooled=8, hidden=2, n_classes=2):
    """One block and the head, built layer by layer with no check: `conv`
    (a _conv spec), relu, a pool of `window` to `pooled` positions per
    channel, flatten, linear to `hidden`, relu, linear to `n_classes`. By
    default, the default chain at TINY_SHAPE for its numbers."""
    conv = conv or _conv()
    return [conv, relu(), LayerSpec("maxpool3d", window=window), flatten(),
            LayerSpec("linear", in_features=conv.out_channels * pooled, out_features=hidden),
            relu(), LayerSpec("linear", in_features=hidden, out_features=n_classes)]


# frames 8 high and 16 wide: every window would be extracted 8x8
NON_SQUARE_SHAPE = (3, 4, 8, 16)


def non_square_arch():
    """The default chain's layers for NON_SQUARE_SHAPE, built one by one."""
    return _hand_chain(pooled=2 * 4 * 8, hidden=8)


def non_square_model():
    """A consistent model at NON_SQUARE_SHAPE, assembled without build_model."""
    return unchecked_model(non_square_arch(), NON_SQUARE_SHAPE)


# one channel: extract_cuboid always yields RGB, so no window fits this input
GRAY_SHAPE = (1, 4, 8, 8)


def gray_arch():
    """The default chain's layers for GRAY_SHAPE, built one by one."""
    return _hand_chain(_conv(in_channels=1), pooled=2 * 4 * 4, hidden=8)


def unchecked_model(specs, input_shape=SMALL_SHAPE):
    """A model with all-zero parameters, assembled without build_model's checks."""
    params = {name: np.zeros(shape, np.float32) for name, shape in param_entries(specs)}
    return ModelParams(specs, params, input_shape)


def write_unchecked(model, path):
    """Write `model` as save_checkpoint writes it, with none of its checks:
    the checkpoint files of chains that load_checkpoint must refuse."""
    text = "".join(line + "\n" for line in _text_lines(model.specs, model.input_shape))
    records = b"".join(_record_head(name, arr.shape) + arr.astype("<f4").tobytes()
                       for name, arr in model.params.items())
    Path(path).write_bytes(CHECKPOINT_MAGIC + text.encode("utf-8") + records)


def broken_chain_arch():
    """small_arch with a pool window of 3 frames, which does not divide 4."""
    arch = small_arch()
    arch[2] = maxpool3d((3, 2, 2))
    return arch


# (architecture, what load_checkpoint says after the path), for models that
# build_model and save_checkpoint refuse
INVALID_MODELS = {
    "broken_chain": (broken_chain_arch(), "line 5 reads 'maxpool3d window=3x2x2', but "
                                          "save_checkpoint writes 'maxpool3d window=2x2x2'"),
    "one_class": (_hand_chain(pooled=2 * 4 * 4, hidden=8, n_classes=1),
                  "classes must be >= 2, got 1"),
}


TINY_SHAPE = (3, 4, 4, 4)


# Hand-built chains, each with one number default_architecture refuses, the
# input shape they are built and loaded at, and what build_model says of them
RULE_BREAKING_CHAINS = {
    "zero_frames": (_hand_chain(), (3, 0, 8, 8), "input frames T must be >= 1, got 0"),
    "zero_filters": (_hand_chain(_conv(out_channels=0)), TINY_SHAPE,
                     "filters must be >= 1, got 0"),
    "zero_hidden_outputs": (_hand_chain(hidden=0), TINY_SHAPE,
                            "hidden units must be >= 1, got 0"),
}

# Hand-built chains that are not the default one for their numbers, with what
# build_model says of them and which checkpoint line load_checkpoint names:
# (chain, shape, layer, line)
_CONV_LINE = "conv3d in=3 out=4 kernel=3x3x3 stride=1 pad=1"
NON_DEFAULT_CHAINS = {
    "zero_kernel_extent": (
        _hand_chain(_conv(kernel=(0, 3, 3))), TINY_SHAPE,
        f"layer 0: 'conv3d in=3 out=4 kernel=0x3x3 stride=1 pad=1' where the default "
        f"architecture has '{_CONV_LINE}'",
        f"line 3 reads 'conv3d in=3 out=4 kernel=0x3x3 stride=1 pad=1', but save_checkpoint "
        f"writes '{_CONV_LINE}'"),
    "zero_stride": (
        _hand_chain(_conv(stride=0)), TINY_SHAPE,
        f"layer 0: 'conv3d in=3 out=4 kernel=3x3x3 stride=0 pad=1' where the default "
        f"architecture has '{_CONV_LINE}'",
        f"line 3 reads 'conv3d in=3 out=4 kernel=3x3x3 stride=0 pad=1', but save_checkpoint "
        f"writes '{_CONV_LINE}'"),
    "zero_window_extent": (
        _hand_chain(window=(0, 2, 2)), TINY_SHAPE,
        "layer 2: 'maxpool3d window=0x2x2' where the default architecture has "
        "'maxpool3d window=2x2x2'",
        "line 5 reads 'maxpool3d window=0x2x2', but save_checkpoint writes "
        "'maxpool3d window=2x2x2'"),
    "pool_window": (
        broken_chain_arch(), SMALL_SHAPE,
        "layer 2: 'maxpool3d window=3x2x2' where the default architecture has "
        "'maxpool3d window=2x2x2'",
        "line 5 reads 'maxpool3d window=3x2x2', but save_checkpoint writes "
        "'maxpool3d window=2x2x2'"),
    "four_linear_layers": (
        default_architecture(SMALL_SHAPE, (4,), 1024, n_classes=2)[:-1]
        + [linear(1024, 1024), relu()] * 2 + [linear(1024, 2)], SMALL_SHAPE,
        "layer 6: 'linear in=1024 out=1024' where the default architecture has "
        "'linear in=1024 out=2'",
        "line 2 reads 'arch layers=11 input=3x4x8x8', but save_checkpoint writes "
        "'arch layers=7 input=3x4x8x8'"),
    "relu_first": (
        [relu()] + small_arch(), SMALL_SHAPE,
        f"layer 0: 'relu' where the default architecture has '{_CONV_LINE}'",
        "line 2 reads 'arch layers=8 input=3x4x8x8', but save_checkpoint writes "
        "'arch layers=7 input=3x4x8x8'"),
    "no_head": (
        [conv3d(3, 4, (3, 3, 3), 1, 1), maxpool3d((3, 2, 2))], SMALL_SHAPE,
        "layer 1: 'maxpool3d window=3x2x2' where the default architecture has 'relu'",
        "line 2 reads 'arch layers=2 input=3x4x8x8', but save_checkpoint writes "
        "'arch layers=7 input=3x4x8x8'"),
}


def _mapped_rss(directory) -> int:
    """Summed Rss, in bytes, of this process's mappings of the .rgbv files
    in `directory` (Linux's /proc/self/smaps)."""
    total, counting = 0, False
    for line in Path("/proc/self/smaps").read_text().splitlines():
        fields = line.split(maxsplit=5)
        if re.match(r"[0-9a-f]+-[0-9a-f]+ ", line):  # a mapping's first line
            path = Path(fields[5]) if len(fields) == 6 else None
            counting = path is not None and path.parent == directory and path.suffix == ".rgbv"
        elif counting and fields[0] == "Rss:":
            total += int(fields[1]) * 1024  # in kB
    return total


def reference_checkpoint_bytes(model):
    """The checkpoint layout of the module docstring, packed field by field:
    a frozen reference for the bytes save_checkpoint writes."""
    c, t, h, w = model.input_shape
    buf = bytearray(CHECKPOINT_MAGIC)
    buf += f"arch layers={len(model.specs)} input={c}x{t}x{h}x{w}\n".encode("utf-8")
    for spec in model.specs:
        buf += (to_descriptor(spec) + "\n").encode("utf-8")
    for name, arr in model.params.items():
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb)) + nb
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return bytes(buf)


def _set_byte(offset, value):
    """An edit of a saved checkpoint: byte `offset` of conv1.weight's record
    (0 is the first byte of its name) set to `value`."""
    def edit(data):
        at = data.index(b"conv1.weight") + offset
        return data[:at] + bytes([value]) + data[at + 1 :]
    return edit


# conv1.weight's record is 12 name bytes, then rank 5 and extents (4, 3, 3, 3, 3)
# as u32; each record opens with its name length, 4 bytes before the name
_CONV1_RECORD = "record at byte {} is not parameter conv1.weight of shape (4, 3, 3, 3, 3)"


def _cuboid(rng):
    return rng.random(SMALL_SHAPE).astype(np.float32)


class TestBuild:
    def test_final_layer_matches_class_count(self):
        shape = (3, 98, 120, 120)
        m2 = build_model(2, default_architecture(shape, FILTERS, HIDDEN, n_classes=2), seed=0,
                         input_shape=shape)
        assert m2.params["fc2.weight"].shape[0] == 2
        m20 = build_model(20, default_architecture(shape, FILTERS, HIDDEN, n_classes=20), seed=0,
                          input_shape=shape)
        assert m20.params["fc2.weight"].shape[0] == 20
        assert m20.n_classes == 20

    def test_same_seed_gives_identical_parameters(self):
        a, b = small_model(seed=7), small_model(seed=7)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        c = small_model(seed=8)
        assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)

    def test_init_respects_fan_in_bound(self):
        m = small_model(seed=3)
        w = m.params["conv1.weight"]
        bound = 1.0 / np.sqrt(3 * 27)
        assert np.abs(w).max() <= bound
        assert w.dtype == np.float32

    def test_chunked_init_gives_one_draw_per_parameter(self):
        """fc1 here takes 1M draws, 4 chunks: the values are those of one
        stream.uniform call per parameter, cast to float32."""
        shape = (3, 16, 64, 64)
        arch = default_architecture(shape, filters=(8, 16), hidden=64, n_classes=2)
        m = build_model(2, arch, seed=5, input_shape=shape)
        assert m.params["fc1.weight"].size > 3 * model_mod._INIT_CHUNK
        stream = SplitMix64(derive_seed(5, model_mod._INIT_SALT))
        for name, shape in param_entries(arch):
            if name.endswith(".weight"):
                bound = 1.0 / np.sqrt(np.prod(shape[1:]))
            ref = stream.uniform(int(np.prod(shape)), -bound, bound).astype(np.float32)
            assert m.params[name].tobytes() == ref.tobytes(), name

    def test_paper_build_holds_its_parameters_and_one_chunk(self):
        """At the paper shape build_model's tracemalloc peak is its 36.7 MB
        of parameters and the temporaries of one chunk of draws (8.4 MB),
        below 6 float64 chunks. Drawing each parameter at once made fc1's
        9.2M draws into full-size uint64 and float64 arrays, 74 MB each."""
        shape = (3, 98, 120, 120)
        arch = default_architecture(shape, FILTERS, HIDDEN, n_classes=2)
        built = []
        peak = peak_bytes(lambda: built.append(build_model(2, arch, seed=0, input_shape=shape)))
        params = sum(p.nbytes for p in built[0].params.values())
        assert params < peak < params + 6 * 8 * model_mod._INIT_CHUNK

    def test_incompatible_chain_rejected(self):
        arch = [conv3d(3, 4, (3, 3, 3), 1, 1), maxpool3d((3, 2, 2))]
        with pytest.raises(ArchitectureError, match=r"layer 1"):
            build_model(2, arch, seed=0, input_shape=SMALL_SHAPE)

    def test_unknown_layer_kind_rejected(self):
        arch = small_arch()
        arch.insert(3, LayerSpec("dropout"))
        with pytest.raises(ArchitectureError) as built:
            build_model(2, arch, seed=0, input_shape=SMALL_SHAPE)
        assert str(built.value) == ("layer 3: 'dropout' where the default architecture has "
                                    "'flatten'")

    def test_wrong_head_size_rejected(self):
        with pytest.raises(ArchitectureError) as built:
            build_model(5, small_arch(n_classes=2), seed=0, input_shape=SMALL_SHAPE)
        assert str(built.value) == ("layer 6: 'linear in=8 out=2' where the default "
                                    "architecture has 'linear in=8 out=5'")

    def test_empty_architecture_rejected(self):
        with pytest.raises(ArchitectureError, match="no layers"):
            build_model(2, [], seed=0, input_shape=SMALL_SHAPE)

    @pytest.mark.parametrize("arch, shape, message", [
        ([], NON_SQUARE_SHAPE, "square"),
        (non_square_arch(), NON_SQUARE_SHAPE, "square"),
        (gray_arch(), GRAY_SHAPE, "input shape must be (3, T, S, S), got (1, 4, 8, 8)"),
    ], ids=["default", "explicit", "gray"])
    def test_non_square_input_rejected(self, arch, shape, message):
        with pytest.raises(ArchitectureError, match=re.escape(message)):
            build_model(2, arch, seed=0, input_shape=shape)


class TestForward:
    def test_output_shape_and_probabilities(self):
        m = small_model()
        rng = np.random.default_rng(0)
        x = rng.random((3,) + SMALL_SHAPE).astype(np.float32)
        for cuboid in x:
            logits = forward(m, cuboid)
            assert logits.shape == (2,)
            assert abs(ops.softmax(logits).sum() - 1) < 1e-6

    def test_calls_are_independent(self):
        # a forward of another cuboid in between leaves the next logits as they were
        m = small_model()
        rng = np.random.default_rng(1)
        x = rng.random((2,) + SMALL_SHAPE).astype(np.float32)
        dup = np.concatenate([x, x[:1]])
        logits = [forward(m, cuboid) for cuboid in dup]
        assert np.array_equal(logits[0], logits[2])

    @pytest.mark.parametrize("shape", [(1,) + SMALL_SHAPE, (3, 4, 4, 4), SMALL_SHAPE[1:]],
                             ids=["batch_of_one", "wrong_size", "no_channels"])
    def test_other_shape_rejected(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"cuboid shape {shape} does not match")):
            forward(small_model(), np.zeros(shape, np.float32))


class TestClassify:
    def _rigged(self, biases):
        # zero weights everywhere: logits equal the head bias, whatever the input
        k = len(biases)
        m = build_model(k, small_arch(k), seed=0, input_shape=SMALL_SHAPE)
        for name in m.params:
            m.params[name][:] = 0
        m.params["fc2.bias"][:] = np.array(biases, np.float32)
        return m

    def test_argmax_decision(self):
        m = self._rigged([0.1, 2.0, -1.0])
        cls, _ = classify(m, _cuboid(np.random.default_rng(0)))
        assert cls == 1

    def test_exact_tie_takes_lowest_index(self):
        m = self._rigged([0.5, 0.1, 0.2, 0.5])
        cls, _ = classify(m, _cuboid(np.random.default_rng(0)))
        assert cls == 0

    def test_logits_decide_where_probabilities_tie(self):
        # two float32 logits one ulp apart soften to exactly [0.5, 0.5]; the
        # class is still the one validation counts, the argmax of the logits
        bias = np.float32(0.25)
        m = self._rigged([bias, np.nextafter(bias, np.float32(1))])
        x = _cuboid(np.random.default_rng(0))
        cls, probs = classify(m, x)
        assert probs[0] == probs[1]
        assert cls == 1 == int(np.argmax(forward(m, x)))

    def test_probability_vector_sums_to_one(self):
        m = small_model()
        cls, probs = classify(m, _cuboid(np.random.default_rng(2)))
        assert cls in (0, 1)
        assert abs(float(probs.sum()) - 1.0) < 1e-6

    def test_shift_invariance_of_probabilities(self):
        logits = np.array([0.3, -1.2, 2.2])
        assert np.abs(ops.softmax(logits) - ops.softmax(logits + 55.5)).max() < 1e-9


class TestTrain:
    def _dataset(self, tmp_path, n_videos=2, frames=24):
        rng = np.random.default_rng(5)
        sources, items = {}, []
        for v in range(n_videos):
            vid = f"v{v}"
            # class 0: dark video, class 1: bright video
            level = 30 if v % 2 == 0 else 220
            data = np.full((frames, 8, 8, 3), level, np.uint8)
            data += rng.integers(0, 20, data.shape, dtype=np.uint8)
            path = tmp_path / f"{vid}.rgbv"
            write_rgbv(path, data, 120.0)
            sources[vid] = open_rgbv(path)
            items.append(DatasetItem(vid, Segment(0, frames, "x"), v % 2))
        return sources, items

    def _cfg(self, **kw):
        base = dict(epochs=1, batch_size=2, lr=1e-3, momentum=0.5, weight_decay=0.0,
                    seed=1, cuboid_len=4, cuboid_size=8)
        base.update(kw)
        return TrainConfig(**base)

    def test_single_epoch_history(self, tmp_path):
        sources, items = self._dataset(tmp_path)
        m = small_model(seed=2)
        best, history = train(m, items, items, sources, self._cfg())
        assert len(history) == 1
        assert history[0].epoch == 1
        assert isinstance(best, ModelParams)

    def test_best_snapshot_has_max_val_accuracy(self, tmp_path):
        sources, items = self._dataset(tmp_path, n_videos=4)
        m = small_model(seed=3)
        best, history = train(m, items, items, sources, self._cfg(epochs=6))
        accs = [h.val_acc for h in history]
        # re-evaluate the returned snapshot: must match the best recorded epoch
        from strokebench.model import _evaluate
        samples = ((_window_input(best, sources[i.video_id], i.segment.begin), i.class_index)
                   for i in items)
        best_acc = _evaluate(best, samples)
        assert best_acc >= max(accs) - 1e-9

    def test_snapshot_selection_prefers_earliest_tie(self, tmp_path, monkeypatch):
        # script the per-epoch validation accuracies (0.4, 0.7, 0.7, 0.5): the
        # returned snapshot must be the parameters as they stood at epoch 2
        import strokebench.model as model_mod

        sources, items = self._dataset(tmp_path)
        scripted = iter([0.4, 0.7, 0.7, 0.5])
        per_epoch_params = []

        def fake_evaluate(model, samples):
            per_epoch_params.append({k: v.copy() for k, v in model.params.items()})
            return next(scripted)

        monkeypatch.setattr(model_mod, "_evaluate", fake_evaluate)
        best, history = train(small_model(seed=5), items, items, sources,
                              self._cfg(epochs=4))
        assert [h.val_acc for h in history] == [0.4, 0.7, 0.7, 0.5]
        for k, v in best.params.items():
            assert np.array_equal(v, per_epoch_params[1][k])  # epoch 2, not 3

    def test_deterministic_training(self, tmp_path):
        sources, items = self._dataset(tmp_path, n_videos=4)
        runs = []
        for _ in range(2):
            m = small_model(seed=4)
            best, history = train(m, items, items, sources, self._cfg(epochs=3))
            runs.append((best, history))
        a, b = runs
        for k in a[0].params:
            assert np.array_equal(a[0].params[k], b[0].params[k])
        assert history_csv(a[1]) == history_csv(b[1])

    def test_single_step_decreases_single_sample_loss(self):
        rng = np.random.default_rng(11)
        x = _cuboid(rng)
        y = 1
        m = small_model(seed=6)
        from strokebench.model import _backward_full, _forward_full
        from strokebench.nn.optim import NesterovSGD

        logits, caches = _forward_full(m, x, training=True)
        loss_before, grad = ops.softmax_cross_entropy(logits, y)
        grads = {name: [] if p.ndim == 2 else np.zeros_like(p) for name, p in m.params.items()}
        _backward_full(m, caches, grad, grads)
        for name, p in m.params.items():
            if p.ndim == 2:
                grads[name] = ops.linear_weight_grad(grads[name])
        NesterovSGD(m.params, lr=1e-4, momentum=0.0, weight_decay=0.0).step(m.params, grads)
        loss_after, _ = ops.softmax_cross_entropy(_forward_full(m, x, training=True)[0], y)
        assert loss_after < loss_before

    def test_too_short_videos_are_skipped(self, tmp_path, caplog):
        sources, items = self._dataset(tmp_path, n_videos=2, frames=24)
        # one extra item pointing at a 2-frame video: skipped with a warning
        write_rgbv(tmp_path / "tiny.rgbv", np.zeros((2, 8, 8, 3), np.uint8), 120.0)
        sources["tiny"] = open_rgbv(tmp_path / "tiny.rgbv")
        items = items + [DatasetItem("tiny", Segment(0, 2, "x"), 0)]
        with caplog.at_level(logging.WARNING, logger="strokebench"):
            _, history = train(small_model(seed=1), items, items[:2], sources,
                               self._cfg(epochs=3))
        assert len(history) == 3
        # once each before epoch 1, though every epoch cuts its cuboids anew
        assert [r.getMessage() for r in caplog.records] == [
            "tiny: only 2 frames, shorter than the 4-frame model input; sample skipped",
            "skipped 1 unextractable samples"]

    def test_unreadable_frame_raises_when_a_step_reaches_it(self, tmp_path):
        """Frames are read when a step cuts its cuboid, not before epoch 1:
        a video that loses its frames after training starts raises there."""
        sources, items = self._dataset(tmp_path, n_videos=2)
        calls = []
        real = sources["v1"].frame

        def frame(index):
            calls.append(index)
            if len(calls) > 4:  # the first cuboid of v1 was cut in epoch 1
                raise VideoFormatError("v1: frame gone")
            return real(index)

        sources["v1"].frame = frame
        with pytest.raises(VideoFormatError, match="v1: frame gone"):
            train(small_model(seed=1), items, items[:1], sources, self._cfg(epochs=2))
        assert len(calls) == 5

    # the corpus of the two tests below: four 32-frame 64x64 videos, and
    # `segments` 8-frame segments of each, trained 2 epochs at that shape
    WIDE_SHAPE = (3, 8, 64, 64)

    def _wide_corpus(self, tmp_path):
        """A function that trains a fresh model on `segments` segments per
        video of the corpus written to tmp_path."""
        arch = default_architecture(self.WIDE_SHAPE, (4,), 8, n_classes=2)
        rng = np.random.default_rng(12)
        sources = {}
        for v in range(4):
            write_rgbv(tmp_path / f"v{v}.rgbv",
                       rng.integers(0, 256, (32, 64, 64, 3), dtype=np.uint8), 120.0)
            sources[f"v{v}"] = open_rgbv(tmp_path / f"v{v}.rgbv")

        def run(segments):
            items = [DatasetItem(f"v{v}", Segment(8 * k, 8 * k + 8, "x"), v % 2)
                     for v in range(4) for k in range(segments)]
            m = build_model(2, arch, seed=3, input_shape=self.WIDE_SHAPE)
            train(m, items, items, sources, self._cfg(epochs=2, cuboid_len=8, cuboid_size=64))

        return run

    def test_peak_does_not_grow_with_the_corpus(self, tmp_path):
        """train's tracemalloc peak on a corpus with 4x the segments is within
        one cuboid of the 1x run's: each cuboid is cut when a step or
        validation reaches it. Extracting every cuboid before epoch 1 held
        one more per train and validation segment."""
        run = self._wide_corpus(tmp_path)

        cuboid = 4 * int(np.prod(self.WIDE_SHAPE))
        one = peak_bytes(run, 1)
        assert peak_bytes(run, 4) - one < cuboid

    @pytest.mark.skipif(not Path("/proc/self/smaps").is_file(),
                        reason="needs Linux's /proc/self/smaps")
    def test_no_video_page_stays_mapped_after_training(self, tmp_path):
        """tracemalloc does not see the pages of a mapped video. After train,
        the Rss of the corpus's mappings is at most one window of source
        frames plus the 64 KB the kernel maps around a fault, on the corpus
        and on 4x its segments: each cut releases its video's pages.
        Keeping them mapped held every page training had read."""
        run = self._wide_corpus(tmp_path)
        bound = 8 * 64 * 64 * 3 + 64 * 1024
        run(1)
        one = _mapped_rss(tmp_path)
        run(4)
        four = _mapped_rss(tmp_path)
        assert one <= bound and four <= bound
        assert four <= one + 64 * 1024

    def test_one_cuboid_is_alive_at_each_cut(self, tmp_path, monkeypatch):
        """When a step or validation cuts a cuboid, no cuboid cut before it
        is alive: each loop drops its cuboid before it pulls the next."""
        sources, items = self._dataset(tmp_path, n_videos=4)
        real = model_mod.extract_cuboid
        cut, alive = [], []

        def spy(*args):
            alive.append(sum(ref() is not None for ref in cut))
            cuboid = real(*args)
            cut.append(weakref.ref(cuboid.values))
            return cuboid

        monkeypatch.setattr(model_mod, "extract_cuboid", spy)
        train(small_model(seed=1), items, items, sources, self._cfg(batch_size=4))
        assert alive == [0] * 8  # 4 training cuboids in one batch, then 4 validation ones

    def test_non_finite_loss_stops_the_run(self, tmp_path):
        sources, items = self._dataset(tmp_path, n_videos=4)
        m = small_model(seed=2)
        m.params["conv1.weight"][0, 0, 0, 0, 0] = np.nan
        before = {k: v.copy() for k, v in m.params.items()}
        with pytest.raises(TrainingError, match=r"^epoch 1, batch 1: loss is nan"):
            train(m, items, items, sources, self._cfg())
        # the step was not taken: no NaN spread into the other parameters
        for k, v in m.params.items():
            assert np.array_equal(v, before[k], equal_nan=True)

    def test_non_finite_gradient_stops_the_run(self, tmp_path, monkeypatch):
        """A NaN in one gradient with a finite loss: the step that made it
        changes no parameter, and the error names the epoch, batch and
        parameter."""
        sources, items = self._dataset(tmp_path, n_videos=4)
        m = small_model(seed=2)
        conv_backward = ops.conv3d_backward
        seen = {}

        def poisoned(*args, **kwargs):
            grad_weight, grad_bias = conv_backward(*args, **kwargs)
            seen["calls"] = seen.get("calls", 0) + 1  # conv1, once per sample
            if seen["calls"] == 5:  # epoch 2, batch 1, its first sample
                seen["params"] = {k: v.copy() for k, v in m.params.items()}
                grad_weight[0, 0, 0, 0, 0] = np.nan
            return grad_weight, grad_bias

        monkeypatch.setattr(ops, "conv3d_backward", poisoned)
        with pytest.raises(TrainingError, match=r"^epoch 2, batch 1: gradient of conv1.weight "
                                                r"is not finite; stopping the run$"):
            train(m, items, items, sources, self._cfg(epochs=3))
        for k, v in m.params.items():
            assert np.array_equal(v, seen["params"][k])

        # called directly, the step leaves the velocity as it was too
        from strokebench.model import _train_step
        from strokebench.nn.optim import NesterovSGD

        m = small_model(seed=2)
        opt = NesterovSGD(m.params, lr=1e-3, momentum=0.5, weight_decay=0.0)
        opt.velocity["fc1.bias"][:] = 1.0
        before = {k: v.copy() for k, v in m.params.items()}
        velocity = {k: v.copy() for k, v in opt.velocity.items()}
        x = np.random.default_rng(3).random((2,) + m.input_shape, dtype=np.float32)
        seen["calls"] = 4
        with pytest.raises(TrainingError, match=r"^direct: gradient of conv1.weight"):
            _train_step(m, opt, [(x[0], 0), (x[1], 1)], "direct")
        for k in m.params:
            assert np.array_equal(m.params[k], before[k])
            assert np.array_equal(opt.velocity[k], velocity[k])

    def test_non_finite_fc1_weight_gradient_stops_the_step(self, monkeypatch):
        """Only fc1.weight's gradient is not finite: the class-1 sample's
        grad_out.T * x overflows float32, while every array linear_backward
        returns and fc2.weight's sum are finite. The step raises once that
        sum is formed after the last backward, before any parameter or
        velocity changes."""
        from strokebench.model import _train_step
        from strokebench.nn.optim import NesterovSGD

        m = small_model(seed=2)
        m.params["conv1.bias"][:] = 1e10  # fc1's input is about 1e10
        m.params["fc1.weight"][:] = 0  # so fc1's output is its bias, and grad_input 0
        m.params["fc1.bias"][:] = 1e-30
        m.params["fc2.weight"][:] = 0
        m.params["fc2.weight"][0] = 1e30  # logits (8, 0); fc1's grad_out about 1e30
        m.params["fc2.bias"][:] = 0
        opt = NesterovSGD(m.params, lr=1e-3, momentum=0.5, weight_decay=0.0)
        opt.velocity["fc1.weight"][:] = 1.0
        before = {k: v.copy() for k, v in m.params.items()}
        velocity = {k: v.copy() for k, v in opt.velocity.items()}
        returned, sums = [], []
        real, real_sum = ops.linear_backward, ops.linear_weight_grad

        def spy(x, weight, grad_out):
            out = real(x, weight, grad_out)
            returned.extend(out)
            return out

        def summed(factors):
            sums.append(real_sum(factors))
            return sums[-1]

        monkeypatch.setattr(ops, "linear_backward", spy)
        monkeypatch.setattr(ops, "linear_weight_grad", summed)
        x = np.random.default_rng(3).random((2,) + m.input_shape, dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match=r"^direct: gradient of fc1.weight is not finite; "
                                     r"stopping the run$"):
            _train_step(m, opt, [(x[0], 0), (x[1], 1)], "direct")
        assert len(returned) == 2 * 2 * 2 and all(np.isfinite(a).all() for a in returned)
        assert [np.isfinite(a).all() for a in sums] == [False, True]  # fc1, fc2
        for k in m.params:
            assert np.array_equal(m.params[k], before[k])
            assert np.array_equal(opt.velocity[k], velocity[k])

    def test_validation_scores_each_cuboid_as_classify(self, tmp_path, monkeypatch):
        """Validation accuracy is the share of `classify` argmax hits, and
        validation runs the model on each cuboid alone, with the bytes of
        one-window inference."""
        import strokebench.model as model_mod

        sources, items = self._dataset(tmp_path, n_videos=4)
        seen = []
        real_forward = model_mod.forward

        def spy(model, cuboid):
            seen.append(real_forward(model, cuboid))
            return seen[-1]

        monkeypatch.setattr(model_mod, "forward", spy)
        best, history = train(small_model(seed=3), items, items[::-1], sources, self._cfg())
        monkeypatch.undo()
        assert len(seen) == len(items)  # training itself runs no inference forward
        hits = 0
        for item, logits in zip(items[::-1], seen):
            cuboid = _window_input(best, sources[item.video_id], item.segment.begin)
            assert logits.tobytes() == forward(best, cuboid).tobytes()
            cls, _ = classify(best, cuboid)
            assert cls == int(np.argmax(logits))
            hits += cls == item.class_index
        assert history[0].val_acc == hits / len(items)

    def test_step_is_the_sample_order_sum_of_one_sample_passes(self, monkeypatch):
        """The step's summed loss and the gradients it hands the optimizer
        are, byte for byte, the sums in sample order, each starting from
        zero, of one-sample _forward_full/_backward_full passes: a linear
        weight's as each sample's own weight gradient, formed from its
        factors alone, added in sample order."""
        from strokebench.model import _backward_full, _forward_full, _train_step
        from strokebench.nn.optim import NesterovSGD

        shape = (3, 16, 32, 32)
        arch = default_architecture(shape, filters=(8, 16), hidden=64, n_classes=2)
        m = build_model(2, arch, seed=7, input_shape=shape)
        x = np.random.default_rng(8).random((5,) + shape, dtype=np.float32)
        samples = [(cuboid, n % 2) for n, cuboid in enumerate(x)]

        loss = 0.0
        grads = {name: np.zeros_like(p) for name, p in m.params.items()}
        hits = 0
        for cuboid, cls in samples:
            logits, caches = _forward_full(m, cuboid, training=True)
            sample_loss, grad_logits = ops.softmax_cross_entropy(logits, cls)
            loss += sample_loss
            hits += int(np.argmax(logits)) == cls
            # -0.0 + g is g for every float, so `raw` holds this sample's own
            # gradient bytes; the sample-order sum is this test's, not the code's
            raw = {name: [] if p.ndim == 2 else np.full_like(p, -0.0)
                   for name, p in m.params.items()}
            assert _backward_full(m, caches, grad_logits, raw) is None
            for name, g in raw.items():
                grads[name] += ops.linear_weight_grad(g) if isinstance(g, list) else g

        opt = NesterovSGD(m.params, lr=1e-3, momentum=0.5, weight_decay=0.0)
        stepped = {}
        monkeypatch.setattr(opt, "step", lambda params, g: stepped.update(g))
        # a generator, as train passes: each cuboid is reached once
        assert _train_step(m, opt, iter(samples), "step") == (loss, hits)
        assert stepped.keys() == grads.keys()
        for name, g in grads.items():
            assert stepped[name].dtype == g.dtype and stepped[name].tobytes() == g.tobytes(), name

    def test_cuboid_settings_must_match_model_input(self, tmp_path):
        # 16x4x4 cuboids flatten to the same 128 features as the model's 4x8x8
        # input, so without the check a whole epoch of steps would run
        sources, items = self._dataset(tmp_path)
        m = small_model(seed=2)
        before = {k: v.copy() for k, v in m.params.items()}
        with pytest.raises(TrainingError,
                           match=r"\(3, 16, 4, 4\).*\(3, 4, 8, 8\)"):
            train(m, items, items, sources, self._cfg(cuboid_len=16, cuboid_size=4))
        for k, v in m.params.items():
            assert np.array_equal(v, before[k])

    def test_no_usable_samples_aborts(self, tmp_path):
        write_rgbv(tmp_path / "tiny.rgbv", np.zeros((2, 8, 8, 3), np.uint8), 120.0)
        sources = {"tiny": open_rgbv(tmp_path / "tiny.rgbv")}
        items = [DatasetItem("tiny", Segment(0, 2, "x"), 0)]
        with pytest.raises(TrainingError, match="no usable samples"):
            train(small_model(), items, items, sources, self._cfg())

    def test_bad_class_index_rejected(self, tmp_path):
        sources, items = self._dataset(tmp_path)
        bad = [DatasetItem(items[0].video_id, items[0].segment, 9)]
        with pytest.raises(TrainingError, match="class index"):
            train(small_model(), bad, items, sources, self._cfg())


class TestDetect:
    def _video(self, tmp_path, frames, bright_ranges):
        data = np.zeros((frames, 8, 8, 3), np.uint8)
        for b, e in bright_ranges:
            data[b:e] = 200
        path = tmp_path / "d.rgbv"
        write_rgbv(path, data, 120.0)
        return open_rgbv(path)

    def test_proposal_count_bounds_detections(self, tmp_path):
        src = self._video(tmp_path, 600, [(0, 600)])
        dets = detect(small_model(seed=0), src, proposal_len=150, proposal_stride=150)
        assert len(dets) <= 4
        for d in dets:
            assert d.length == 150
            assert d.label == "Stroke"
            assert 0.0 <= d.score <= 1.0

    def test_constant_nonstroke_model_detects_nothing(self, tmp_path):
        m = small_model(seed=0)
        # force the head to always prefer class 0 (Non-stroke)
        m.params["fc2.weight"][:] = 0
        m.params["fc2.bias"][:] = np.array([5.0, -5.0], np.float32)
        src = self._video(tmp_path, 600, [(0, 600)])
        assert detect(m, src) == []

    def test_adjacent_positive_windows_stay_separate(self, tmp_path):
        m = small_model(seed=0)
        m.params["fc2.weight"][:] = 0
        m.params["fc2.bias"][:] = np.array([-5.0, 5.0], np.float32)  # always Stroke
        src = self._video(tmp_path, 300, [(0, 300)])
        dets = detect(m, src, proposal_len=150, proposal_stride=150)
        assert [(d.begin, d.end) for d in dets] == [(0, 150), (150, 300)]

    def test_disjoint_when_stride_covers_length(self, tmp_path):
        m = small_model(seed=0)
        m.params["fc2.weight"][:] = 0
        m.params["fc2.bias"][:] = np.array([-5.0, 5.0], np.float32)
        src = self._video(tmp_path, 1000, [(0, 1000)])
        dets = detect(m, src, proposal_len=100, proposal_stride=150)
        spans = [(d.begin, d.end) for d in dets]
        for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
            assert e1 <= b2

    def test_short_video_yields_no_detections(self, tmp_path):
        src = self._video(tmp_path, 3, [(0, 3)])
        assert detect(small_model(seed=0), src) == []

    def test_classification_model_rejected(self, tmp_path):
        m = build_model(3, small_arch(3), seed=0, input_shape=SMALL_SHAPE)
        src = self._video(tmp_path, 600, [])
        with pytest.raises(ShapeError, match="2-class"):
            detect(m, src)


class TestClassifyWindows:
    def _video(self, tmp_path, frames, name="v"):
        data = np.random.default_rng(frames).integers(0, 256, (frames, 8, 8, 3), np.uint8)
        write_rgbv(tmp_path / f"{name}.rgbv", data, 120.0)
        return open_rgbv(tmp_path / f"{name}.rgbv")

    def _assert_scored_at(self, model, src, scored, starts):
        for (_, cls, probs), start in zip(scored, starts, strict=True):
            want_cls, want_probs = classify(model, extract_cuboid(src, start, 4, 8).values)
            assert cls == want_cls and np.array_equal(probs, want_probs)

    def test_video_as_long_as_the_input_scores_every_window(self, tmp_path):
        src = self._video(tmp_path, SMALL_SHAPE[1])
        windows = [Segment(0, 4, "x"), Segment(1, 3, "x"), Segment(3, 9, "x")]
        m = small_model(seed=4)
        scored = classify_windows(m, src, windows)
        assert [w for w, _, _ in scored] == windows
        self._assert_scored_at(m, src, scored, [0, 0, 0])

    def test_last_window_is_right_clamped(self, tmp_path):
        src = self._video(tmp_path, 10)
        m = small_model(seed=4)
        scored = classify_windows(m, src, [Segment(2, 6, "x"), Segment(8, 10, "x")])
        self._assert_scored_at(m, src, scored, [2, 6])

    @pytest.mark.parametrize("frames, begin, start", [(200, 150, 102), (200, 50, 50), (98, 10, 0)])
    def test_window_start_is_right_clamped(self, tmp_path, frames, begin, start):
        src = self._video(tmp_path, frames)
        m = ModelParams([], {}, (3, 98, 8, 8))  # _window_input reads only the input shape
        got = _window_input(m, src, begin)
        assert np.array_equal(got, extract_cuboid(src, start, 98, 8).values)

    def test_window_of_a_video_shorter_than_the_input_rejected(self, tmp_path):
        """Its callers check the length first; extract_cuboid refuses the window."""
        src = self._video(tmp_path, 97)
        with pytest.raises(CuboidError, match=re.escape("window [0, 98) out of range")):
            _window_input(ModelParams([], {}, (3, 98, 8, 8)), src, 0)

    def test_video_shorter_than_the_input_gets_nothing(self, tmp_path, caplog):
        src = self._video(tmp_path, SMALL_SHAPE[1] - 1, name="shorty")
        with caplog.at_level(logging.WARNING, logger="strokebench"):
            got = classify_windows(small_model(), src, [Segment(0, 3, "x"), Segment(1, 3, "x")])
        assert got == []
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["shorty"]

    def test_detect_checks_proposal_settings_on_a_short_video(self, tmp_path):
        src = self._video(tmp_path, 3)
        with pytest.raises(AnnotationError, match="length and stride"):
            detect(small_model(), src, proposal_len=0)


class TestCheckpoint:
    def test_round_trip_preserves_logits(self, tmp_path):
        m = small_model(seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        assert back.n_classes == 2
        assert back.input_shape == SMALL_SHAPE
        assert back.specs == m.specs
        x = np.random.default_rng(0).random((2,) + SMALL_SHAPE).astype(np.float32)
        for cuboid in x:
            assert np.array_equal(forward(m, cuboid), forward(back, cuboid))

    def test_save_is_byte_deterministic(self, tmp_path):
        m = small_model(seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_save_load_identity(self, tmp_path):
        rng = np.random.default_rng(10)
        for seed in range(3):
            arch = small_arch(n_classes=int(rng.integers(2, 6)))
            m = build_model(arch[-1].out_features, arch, seed=seed, input_shape=SMALL_SHAPE)
            p = tmp_path / f"{seed}.ckpt"
            save_checkpoint(m, p)
            original = p.read_bytes()
            save_checkpoint(load_checkpoint(p), p)
            assert p.read_bytes() == original

    def test_corrupted_magic_rejected(self, tmp_path):
        m = small_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        data = bytearray(p.read_bytes())
        data[0] = ord("X")
        p.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(p)

    def test_truncation_rejected(self, tmp_path):
        m = small_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes()[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_data_rejected(self, tmp_path):
        m = small_model()
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(p)

    @pytest.mark.parametrize("old, new, message", [
        (b"layers=7", b"layers=07", "line 2 reads 'arch layers=07 input=3x4x8x8', "
                                    "but save_checkpoint writes 'arch layers=7 input=3x4x8x8'"),
        (b"input=3x4", b"input=+3x4", "bad header line 'arch layers=7 input=+3x4x8x8'"),
        (b"conv3d in=3 out=4", b"conv3d  in=+3 out=0_4",
         "line 3 reads 'conv3d  in=+3 out=0_4 kernel=3x3x3 stride=1 pad=1', which "
         "save_checkpoint never writes"),
        (b"conv3d in=3", b"conv3d  in=3",
         "line 3 reads 'conv3d  in=3 out=4 kernel=3x3x3 stride=1 pad=1', "
         "but save_checkpoint writes 'conv3d in=3 out=4 kernel=3x3x3 stride=1 pad=1'"),
        (b"window=2x2x2", b"window=2x2x2 ", "line 5 reads 'maxpool3d window=2x2x2 '"),
        (b"stride=1", b"stride=1.5", "line 3 reads 'conv3d in=3 out=4 kernel=3x3x3 stride=1.5 "
                                     f"pad=1', but save_checkpoint writes '{_CONV_LINE}'"),
        (b"conv3d", b"\xffonv3d",
         "text line b'\\xffonv3d in=3 out=4 kernel=3x3x3 stride=1 pad=1' is not UTF-8"),
        (b"kernel=3x3x3", b"kernel=3x3", "line 3 reads 'conv3d in=3 out=4 kernel=3x3 stride=1 "
                                         f"pad=1', but save_checkpoint writes '{_CONV_LINE}'"),
        (b"kernel=3x3x3", b"kernel=3xAx3", "line 3 reads 'conv3d in=3 out=4 kernel=3xAx3 "
                                           "stride=1 pad=1', but"),
        (b"window=2x2x2", b"window=2x2x2x2", "line 5 reads 'maxpool3d window=2x2x2x2', but "
                                             "save_checkpoint writes 'maxpool3d window=2x2x2'"),
        (b"window=2x2x2", b"window=2x2", "line 5 reads 'maxpool3d window=2x2', but"),
        (b"window=2x2x2", "window=2x\uff13x2".encode(),
         "line 5 reads 'maxpool3d window=2x\uff13x2'"),
        (b"maxpool3d window", b"pool window", "line 5 reads 'pool window=2x2x2', but "
                                              "save_checkpoint writes 'maxpool3d window=2x2x2'"),
        (b"relu\nmaxpool3d", b"relu inplace=1\nmaxpool3d", "line 4 reads 'relu inplace=1', but "
                                                           "save_checkpoint writes 'relu'"),
        (b"linear in=128 out=8", b"linear in=128", "line 7 reads 'linear in=128', which "
                                                   "save_checkpoint never writes"),
        (b"out=8", b"out=", "line 7 reads 'linear in=128 out=', which save_checkpoint never "
                            "writes"),
        (b"out=8", "out=\uff18".encode(), "line 7 reads 'linear in=128 out=\uff18', which "
                                          "save_checkpoint never writes"),
        (b"flatten", b"dropout", "line 6 reads 'dropout', but save_checkpoint writes 'flatten'"),
        (b"in=128", b"in=1_28", "line 7 reads 'linear in=1_28 out=8', but save_checkpoint "
                                "writes 'linear in=128 out=8'"),
        (b"linear in=8 out=2", b"linear in=8 out=2 bias",
         "line 9 reads 'linear in=8 out=2 bias', but save_checkpoint writes 'linear in=8 out=2'"),
    ], ids=["header_zero_padded", "header_plus_sign", "descriptor_spelling",
            "descriptor_double_space", "descriptor_trailing_space", "descriptor_non_integer",
            "descriptor_not_utf8", "two_extent_kernel", "kernel_extent_not_integer",
            "four_extent_window", "two_extent_window", "window_fullwidth_digit", "unknown_kind",
            "stray_field", "missing_key", "empty_value", "out_fullwidth_digit",
            "unknown_kind_dropout", "underscore", "stray_token"])
    def test_text_line_not_as_saved_rejected(self, tmp_path, old, new, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(small_model(), p)
        data = p.read_bytes()
        assert data.count(old) == 1
        p.write_bytes(data.replace(old, new))
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("layers", [b"0", b"-1"])
    def test_checkpoint_without_layers_rejected(self, tmp_path, layers):
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + b"arch layers=" + layers + b" input=3x4x8x8\n")
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: architecture has no layers")):
            load_checkpoint(p)

    @pytest.mark.parametrize("old, new", [
        (b"arch", b"\xffrch"), (b"conv3d", b"\xffonv3d"), (b"conv1.weight", b"\xffonv1.weight"),
    ], ids=["header", "descriptor", "parameter_name"])
    def test_non_utf8_text_rejected(self, tmp_path, old, new):
        p = tmp_path / "m.ckpt"
        save_checkpoint(small_model(), p)
        p.write_bytes(p.read_bytes().replace(old, new, 1))
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: ")):
            load_checkpoint(p)

    @pytest.mark.parametrize("arch, shape, message", [
        (non_square_arch(), NON_SQUARE_SHAPE, "input frames must be square"),
        (gray_arch(), GRAY_SHAPE, "input shape must be (3, T, S, S), got (1, 4, 8, 8)"),
    ], ids=["non_square", "gray"])
    def test_non_square_input_rejected(self, tmp_path, arch, shape, message):
        p = tmp_path / "m.ckpt"
        write_unchecked(unchecked_model(arch, shape), p)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("kind", list(INVALID_MODELS))
    def test_invalid_model_rejected(self, tmp_path, kind):
        arch, message = INVALID_MODELS[kind]
        p = tmp_path / "m.ckpt"
        write_unchecked(unchecked_model(arch), p)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, message", [
        (_set_byte(0, ord("k")), _CONV1_RECORD),
        (_set_byte(12, 4), _CONV1_RECORD),
        (_set_byte(16, 5), _CONV1_RECORD),
        (lambda data: data[:-7], "truncated at parameter fc2.bias"),
        (lambda data: data + b"\x00", "1 bytes of trailing data"),
    ], ids=["name_byte", "rank", "extent", "values_cut_short", "trailing_byte"])
    def test_corrupt_record_rejected(self, tmp_path, edit, message):
        p = tmp_path / "m.ckpt"
        save_checkpoint(small_model(), p)
        data = p.read_bytes()
        p.write_bytes(edit(data))
        message = message.format(data.index(b"conv1.weight") - 4)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
            load_checkpoint(p)

    @pytest.mark.parametrize("n_classes, input_shape, kwargs", [
        (2, (3, 16, 32, 32), dict(filters=(8, 16), hidden=64)),
        (20, (3, 16, 32, 32), dict(filters=(4, 8), hidden=16)),
        (20, (3, 98, 120, 120), dict(filters=FILTERS, hidden=HIDDEN)),
    ], ids=["desk_2_classes", "desk_20_classes", "paper"])
    def test_saved_bytes_match_the_reference(self, tmp_path, n_classes, input_shape, kwargs):
        specs = default_architecture(input_shape, n_classes=n_classes, **kwargs)
        m = build_model(n_classes, specs, seed=4, input_shape=input_shape)
        p = tmp_path / "m.ckpt"
        save_checkpoint(m, p)
        assert p.read_bytes() == reference_checkpoint_bytes(m)
        back = load_checkpoint(p)
        assert back.specs == specs
        assert list(back.params) == list(m.params)
        for name, arr in m.params.items():
            assert back.params[name].dtype == np.float32
            assert back.params[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("kind", list(RULE_BREAKING_CHAINS))
    def test_build_and_load_refuse_a_chain_alike(self, tmp_path, kind):
        """The checkpoint's header (input=3x0x8x8) or conv3d or linear line
        (out=0) holds the number default_architecture refuses."""
        specs, shape, message = RULE_BREAKING_CHAINS[kind]
        with pytest.raises(ArchitectureError) as built:
            build_model(2, specs, seed=0, input_shape=shape)
        assert str(built.value) == message
        p = tmp_path / "m.ckpt"
        text = "".join(line + "\n" for line in _text_lines(specs, shape))
        p.write_bytes(CHECKPOINT_MAGIC + text.encode("utf-8"))
        with pytest.raises(CheckpointError) as loaded:
            load_checkpoint(p)
        assert str(loaded.value) == f"{p}: {message}"

    @pytest.mark.parametrize("kind", list(NON_DEFAULT_CHAINS))
    def test_build_and_load_refuse_a_chain_not_the_default(self, tmp_path, kind):
        """Both take the default chain for the numbers a chain holds and no
        other: build_model names the first layer that differs, and
        load_checkpoint the first text line that differs from what
        save_checkpoint writes for that chain."""
        specs, shape, layer, line = NON_DEFAULT_CHAINS[kind]
        with pytest.raises(ArchitectureError) as built:
            build_model(2, specs, seed=0, input_shape=shape)
        assert str(built.value) == layer
        p = tmp_path / "m.ckpt"
        write_unchecked(unchecked_model(specs, shape), p)
        with pytest.raises(CheckpointError) as loaded:
            load_checkpoint(p)
        assert str(loaded.value) == f"{p}: {line}"

    @pytest.mark.parametrize("arch, shape, message", [
        (broken_chain_arch(), SMALL_SHAPE, "layer 2: 'maxpool3d window=3x2x2' where the "
                                           "default architecture has 'maxpool3d window=2x2x2'"),
        (INVALID_MODELS["one_class"][0], SMALL_SHAPE, "classes must be >= 2, got 1"),
        (non_square_arch(), NON_SQUARE_SHAPE, "input frames must be square"),
    ], ids=["broken_chain", "one_class", "non_square"])
    def test_save_refuses_a_model_build_model_refuses(self, tmp_path, arch, shape, message):
        """What save_checkpoint writes, load_checkpoint reads: a chain that
        build_model refuses is refused with its message before the file is made."""
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: {message}")):
            save_checkpoint(unchecked_model(arch, shape), p)
        assert not p.exists()

    def test_save_writes_records_in_layer_order(self, tmp_path):
        m = small_model(seed=9)
        reordered = ModelParams(m.specs, dict(reversed(m.params.items())), m.input_shape)
        save_checkpoint(m, tmp_path / "a.ckpt")
        save_checkpoint(reordered, tmp_path / "b.ckpt")
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda params: params.update({"conv1.weight": params["conv1.weight"][..., :2]}),
        lambda params: params.pop("fc2.bias"),
        lambda params: params.update({"fc3.bias": np.zeros(2, np.float32)}),
    ], ids=["misshapen", "missing", "extra"])
    def test_save_refuses_params_the_layers_do_not_declare(self, tmp_path, edit):
        m = small_model()
        edit(m.params)
        p = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: parameters ")):
            save_checkpoint(m, p)
        assert not p.exists()

    def test_save_and_load_hold_one_copy_of_the_parameters(self, tmp_path):
        """Each peaks, by tracemalloc, below the parameters plus one record:
        save writes each array to the file as it is, and load reads each
        record into its final array. Both held the whole file besides the
        parameters when they built or read it as one bytes object."""
        shape = (3, 8, 8, 8)  # three convs of 48 filters, fc1 (1024, 48): none is half of all
        arch = default_architecture(shape, (48, 48, 48), 1024, n_classes=2)
        m = build_model(2, arch, seed=1, input_shape=shape)
        params = sum(arr.nbytes for arr in m.params.values())
        record = max(arr.nbytes for arr in m.params.values())
        assert record < params / 2
        p = tmp_path / "m.ckpt"
        peaks = peak_bytes(save_checkpoint, m, p), peak_bytes(load_checkpoint, p)
        assert max(peaks) < params + record
        assert p.read_bytes() == reference_checkpoint_bytes(m)

    def test_checkpoint_of_the_general_layer_walk_loads(self, tmp_path):
        """tests/data/tiny_default_chain.ckpt was written by the build that
        still walked any chain of layers (build_model(3, default_architecture(
        (3, 4, 8, 8), (2, 3), 4, n_classes=3), seed=38)). It loads, saves
        back byte for byte, and gives the logits that build gave, pinned by
        their SHA-256."""
        saved = Path(__file__).parent / "data" / "tiny_default_chain.ckpt"
        shape = (3, 4, 8, 8)
        m = load_checkpoint(saved)
        arch = default_architecture(shape, (2, 3), 4, n_classes=3)
        assert (m.specs, m.input_shape, m.n_classes) == (arch, shape, 3)
        built = build_model(3, arch, seed=38, input_shape=shape)
        assert all(m.params[k].tobytes() == v.tobytes() for k, v in built.params.items())
        p = tmp_path / "again.ckpt"
        save_checkpoint(m, p)
        assert p.read_bytes() == saved.read_bytes()
        x = np.random.default_rng(0).random((2,) + shape, dtype=np.float32)
        logits = np.stack([forward(m, cuboid) for cuboid in x])
        assert logits.dtype == np.float32
        assert hashlib.sha256(logits.tobytes()).hexdigest() == (
            "2d0322c2bbd2e80b27d3b0cb85b3458d4a81ddf043ff521f53a14a2051515549")

    def test_default_architecture_checkpoint_shape_chain(self, tmp_path):
        specs = default_architecture((3, 16, 32, 32), filters=(4, 8), hidden=16, n_classes=20)
        m = build_model(20, specs, seed=0, input_shape=(3, 16, 32, 32))
        p = tmp_path / "c.ckpt"
        save_checkpoint(m, p)
        back = load_checkpoint(p)
        assert chain_shapes(back.specs, back.input_shape)[-1] == (20,)


def test_history_csv_format():
    from strokebench.model import EpochStats
    rows = [EpochStats(1, 2.5, 0.5, 0.25), EpochStats(2, 1.25, 0.75, 0.5)]
    text = history_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,val_acc"
    assert lines[1] == "1,2.5,0.5,0.25"
    assert len(lines) == 3


def test_training_step_memory_per_sample():
    """Each added sample adds less than one cuboid to a step's tracemalloc peak.

    The step runs one held cuboid at a time, so its peak is one sample's
    beside the gradient sums; only the list of logits grows with the batch
    (about 3 KB per sample). The batch step it replaced stacked the batch,
    one cuboid per sample, and kept every layer's cache for the whole batch
    until its backward: its peak grew by about 1.16 conv1 outputs, 3.1
    cuboids, per sample.
    """
    from strokebench.model import _train_step
    from strokebench.nn.optim import NesterovSGD

    shape, filters = (3, 16, 64, 64), (8, 16)

    def step_peak(batch):
        arch = default_architecture(shape, filters=filters, hidden=16, n_classes=2)
        m = build_model(2, arch, seed=1, input_shape=shape)
        opt = NesterovSGD(m.params, lr=1e-3, momentum=0.5, weight_decay=0.0)
        x = np.random.default_rng(batch).random((batch,) + shape, dtype=np.float32)
        samples = [(cuboid, n % 2) for n, cuboid in enumerate(x)]
        return peak_bytes(_train_step, m, opt, samples, "step")

    cuboid = int(np.prod(shape)) * 4  # bytes per sample
    per_sample = (step_peak(6) - step_peak(2)) / 4
    assert per_sample < cuboid
