"""Architecture assembly, whole-model execution, checkpoints."""

import collections
import hashlib
import io
import mmap
import os
import stat
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dmsn import tensorfile
from dmsn.blocks import RunState
from dmsn.model import (CheckpointError, ConfigError, ModelConfig,
                        backward_from_cache, build_model, config_from_text,
                        config_to_text, expected_clip_shape, forward_with_state,
                        init_params, load_checkpoint, model_forward,
                        model_plan, param_shapes, save_checkpoint)
from dmsn.ops import ShapeError
from dmsn.tensorfile import TensorFileError, tensor_to_stream

SRC = str(Path(tensorfile.__file__).resolve().parents[1])

MICRO = ModelConfig(clip_len=8, input_size=(32, 32),
                    width_multiplier=Fraction(1, 8))


def plan_extents(spec):
    """Each plan row's output ``(t, h, w)`` by layer; a stage holds its last
    block's."""
    return {name.split(".")[0]: out[2:] for name, _, _, _, out
            in model_plan(spec)}


def micro_setup(seed=0, batch=2):
    spec = build_model(MICRO)
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    clip = rng.normal(size=(batch, 3, 8, 32, 32))
    return spec, params, clip


class TestBuildModel:
    def test_default_variant_sequence(self):
        spec = build_model(ModelConfig())
        seq = [b.variant for _, blocks in spec.stages for b in blocks]
        assert seq == list("ABC" "ABCA" "ABCABC" "ABCA")
        assert len(seq) == 17

    def test_single_variant_models(self):
        for kind in ("dmsn-a", "dmsn-b", "dmsn-c"):
            spec = build_model(ModelConfig(model_kind=kind))
            variants = {b.variant for _, blocks in spec.stages for b in blocks}
            assert variants == {kind[-1].upper()}

    def test_stage_channels_and_strides(self):
        spec = build_model(ModelConfig())
        by_name = dict(spec.stages)
        assert [b.out_channels for b in by_name["res2"]] == [128] * 3
        assert [b.out_channels for b in by_name["res3"]] == [256] * 4
        assert [b.out_channels for b in by_name["res4"]] == [512] * 6
        assert [b.out_channels for b in by_name["res5"]] == [1024] * 4
        for name in ("res3", "res4", "res5"):
            strides = [b.spatial_stride for b in by_name[name]]
            assert strides[0] == 2 and all(s == 1 for s in strides[1:])
        assert all(b.spatial_stride == 1 for b in by_name["res2"])

    def test_stage_extents_for_16_frames(self):
        rows = plan_extents(build_model(ModelConfig()))
        assert rows["conv1"] == (16, 56, 56)
        assert rows["pool"] == (8, 28, 28)
        assert rows["res2"] == (8, 28, 28)
        assert rows["res3"] == (8, 14, 14)
        assert rows["res4"] == (8, 7, 7)
        assert rows["res5"] == (8, 4, 4)

    def test_clip_len_8_scales_only_time(self):
        rows = plan_extents(build_model(ModelConfig(clip_len=8)))
        assert rows["conv1"] == (8, 56, 56)
        assert rows["res5"] == (4, 4, 4)

    def test_param_count_independent_of_geometry(self):
        a = param_shapes(build_model(ModelConfig(clip_len=16)))
        b = param_shapes(build_model(ModelConfig(clip_len=32,
                                                 input_size=(64, 64))))
        assert a == b

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError, match="valid"):
            ModelConfig(model_kind="resnet")
        with pytest.raises(ConfigError, match="even"):
            ModelConfig(clip_len=9)
        with pytest.raises(ConfigError, match="width"):
            ModelConfig(width_multiplier=Fraction(1, 3))
        with pytest.raises(ConfigError, match="branch"):
            ModelConfig(branch_count=5)
        with pytest.raises(ConfigError, match="input_size"):
            ModelConfig(input_size=(0, 32))


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        spec = build_model(MICRO)
        a = init_params(spec, seed=5)
        b = init_params(spec, seed=5)
        assert a.keys() == b.keys()
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_different_seeds_differ(self):
        spec = build_model(MICRO)
        a = init_params(spec, seed=5)
        b = init_params(spec, seed=6)
        assert any(a[k].tobytes() != b[k].tobytes() for k in a
                   if k.endswith(".w"))

    def test_fan_in_variance(self):
        spec = build_model(MICRO)
        params = init_params(spec, seed=7)
        checked = 0
        for name, arr in params.items():
            if name.endswith(".w") and arr.size >= 1000:
                fan_in = int(np.prod(arr.shape[1:]))
                want = 2.0 / fan_in
                assert abs(arr.var() / want - 1) < 0.2, name
                checked += 1
        assert checked >= 5

    def test_normalization_identity_at_init(self):
        spec = build_model(MICRO)
        params = init_params(spec, seed=8)
        assert np.all(params["conv1.scale"] == 1)
        assert np.all(params["conv1.shift"] == 0)
        assert np.all(params["res5.4.fuse.var"] == 1)
        assert np.all(params["head.fc.b"] == 0)


class TestForwardBackward:
    def test_scores_shape_and_internal_extents(self):
        spec, params, clip = micro_setup()
        state = RunState(mode="eval", cache={})
        scores = forward_with_state(spec, params, clip, state)
        assert scores.shape == (2,)
        flat, (n, c, t, h, w) = state.cache["head"]
        assert (n, c, t, h, w) == (2, 128, 4, 1, 1)

    def test_zero_input_zero_shift_scores_equal_head_bias(self):
        spec, params, _ = micro_setup(seed=1)
        for name in list(params):
            if name.endswith(".shift"):
                params[name] = np.zeros_like(params[name])
        params["head.fc.b"] = np.array([0.73])
        clip = np.zeros(expected_clip_shape(spec, 2))
        scores = model_forward(spec, params, clip, mode="eval")
        np.testing.assert_allclose(scores, 0.73, atol=1e-12)

    def test_batch_items_independent_in_eval(self):
        spec, params, clip = micro_setup(seed=2)
        both = model_forward(spec, params, np.stack([clip[0], clip[0]]),
                             mode="eval")
        assert abs(both[0] - both[1]) < 1e-12

    def test_batch_decomposition_invariance(self):
        spec, params, clip = micro_setup(seed=3, batch=3)
        batch_scores = model_forward(spec, params, clip, mode="eval")
        single = [model_forward(spec, params, clip[i:i + 1], mode="eval")[0]
                  for i in range(3)]
        np.testing.assert_allclose(batch_scores, single, atol=1e-5)

    def test_wrong_geometry_names_expected_dims(self):
        spec, params, _ = micro_setup()
        with pytest.raises(ShapeError, match=r"\(n, 3, 8, 32, 32\)"):
            model_forward(spec, params, np.zeros((1, 3, 16, 32, 32)))

    def test_plan_built_once_per_spec_and_shape(self):
        spec = build_model(MICRO)
        shape = (2, 3, 8, 32, 32)
        assert model_plan(spec, shape) is model_plan(spec, shape)
        assert model_plan(spec, list(shape)) is model_plan(spec, shape)

    def test_equal_specs_built_apart_share_one_plan(self):
        a, b = build_model(MICRO), build_model(MICRO)
        assert a is not b and a == b and hash(a) == hash(b)
        block_a, block_b = a.stages[1][1][0], b.stages[1][1][0]
        assert block_a is not block_b and block_a == block_b
        assert hash(block_a) == hash(block_b)
        assert a != build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                            width_multiplier=Fraction(1, 4)))
        shape = (2, 3, 8, 32, 32)
        assert model_plan(a, shape) is model_plan(b, shape)

    @pytest.mark.parametrize("kind", ["dmsn", "dmsn-a", "dmsn-c"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uncached_eval_matches_cached_eval_bytewise(self, kind, dtype):
        # model_forward normalizes and rectifies in place; the cached path
        # runs batchnorm_forward and keeps its intermediates
        spec = build_model(ModelConfig(model_kind=kind, clip_len=8,
                                       input_size=(32, 32),
                                       width_multiplier=Fraction(1, 8)))
        params = init_params(spec, seed=3)
        rng = np.random.default_rng(3)
        for name, arr in params.items():   # batchnorm away from identity
            if name.endswith((".scale", ".shift", ".mean")):
                params[name] = rng.normal(size=arr.shape)
            elif name.endswith(".var"):
                params[name] = rng.uniform(0.5, 2.0, size=arr.shape)
        clip = rng.normal(size=(2, 3, 8, 32, 32)).astype(dtype)
        before = {name: arr.tobytes() for name, arr in params.items()}
        clip_bytes = clip.tobytes()
        scores = model_forward(spec, params, clip, mode="eval")
        assert clip.tobytes() == clip_bytes
        assert {name: arr.tobytes() for name, arr in params.items()} == before
        cached = forward_with_state(spec, params, clip,
                                    RunState(mode="eval", cache={}))
        assert scores.dtype == cached.dtype == dtype
        assert scores.tobytes() == cached.tobytes()

    def test_zero_grad_scores_give_zero_gradients(self):
        spec, params, clip = micro_setup(seed=4)
        state = RunState(mode="train", cache={})
        forward_with_state(spec, params, clip, state)
        grads = backward_from_cache(spec, params, state.cache, np.zeros(2))
        assert all(np.all(g == 0) for g in grads.values())

    def test_backward_consumes_the_cache(self):
        spec, params, clip = micro_setup(seed=7, batch=8)
        state = RunState(mode="train", cache={})
        forward_with_state(spec, params, clip.astype(np.float32), state)
        assert len(state.cache) > 100
        backward_from_cache(spec, params, state.cache, np.ones(8))
        assert state.cache == {}

    def test_temporal_head_distributes_mean_gradient(self):
        spec, params, clip = micro_setup(seed=5)
        state = RunState(mode="eval", cache={})
        forward_with_state(spec, params, clip, state)
        flat, (n, c, t, h, w) = state.cache["head"]
        grads = backward_from_cache(spec, params, state.cache,
                                    np.array([1.0, 0.0]))
        # d score_0 / d fc.b accumulates 1/t per timestep of item 0
        np.testing.assert_allclose(grads["head.fc.b"], [1.0])
        gw_direct = (flat.reshape(n, t, c)[0].sum(axis=0) / t)
        np.testing.assert_allclose(grads["head.fc.w"][0], gw_direct)

    def test_train_mode_stats_updates_are_returned_not_applied(self):
        spec, params, clip = micro_setup(seed=6)
        state = RunState(mode="train", cache={}, stats={})
        forward_with_state(spec, params, clip, state)
        assert "conv1.mean" in state.stats
        assert not np.allclose(state.stats["conv1.mean"], 0)
        assert np.all(params["conv1.mean"] == 0)


class TestFullWidthGeometry:
    def test_full_width_runtime_extents_row_by_row(self):
        # one full-width clip through the real kernels; ~7 s
        spec = build_model(ModelConfig())
        params = init_params(spec, seed=0)
        clip = np.random.default_rng(0).normal(size=(1, 3, 16, 112, 112))
        state = RunState(mode="eval", cache={})
        scores = forward_with_state(spec, params, clip, state)
        assert scores.shape == (1,)
        assert state.cache["res2.3.sum"].shape == (1, 128, 8, 28, 28)
        assert state.cache["res3.4.sum"].shape == (1, 256, 8, 14, 14)
        assert state.cache["res4.6.sum"].shape == (1, 512, 8, 7, 7)
        assert state.cache["res5.4.sum"].shape == (1, 1024, 8, 4, 4)
        assert state.cache["head"][1] == (1, 1024, 8, 4, 4)


def _checkpoint_bytes(config_text: str, entries) -> bytes:
    """A checkpoint file in the saved layout: config text, then ``entries``
    given as ``(raw name bytes, array)`` pairs."""
    cfg = config_text.encode("utf-8")
    out = io.BytesIO()
    out.write(b"DMSNCKPT" + struct.pack("<II", 1, len(cfg)) + cfg
              + struct.pack("<I", len(entries)))
    for name, arr in entries:
        out.write(struct.pack("<I", len(name)) + name)
        tensor_to_stream(out, arr.reshape((1,) * (5 - arr.ndim) + arr.shape))
    return out.getvalue()


def _entries(params):
    return [(name.encode("utf-8"), params[name]) for name in sorted(params)]


def _load(tmp_path, raw: bytes):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    return load_checkpoint(path)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        spec, params, _ = micro_setup(seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        spec2, params2 = load_checkpoint(path)
        assert spec2 == spec
        assert params2.keys() == params.keys()
        for name in params:
            assert params2[name].shape == params[name].shape
            assert params2[name].tobytes() == params[name].tobytes()

    def test_payloads_are_views_of_one_file_mapping(self, tmp_path,
                                                    monkeypatch):
        """600 one-element entries under two- to four-byte names: every
        parameter is a writable view of one copy-on-write mapping of the
        file at its payload's offset, and writing them leaves the file as it
        was."""
        spec, _, _ = micro_setup(seed=23)
        rng = np.random.default_rng(23)
        values = {f"p{i}": rng.normal(size=(1,)).astype(
            np.float64 if i % 3 == 0 else np.float32) for i in range(600)}
        monkeypatch.setattr("dmsn.model.param_shapes",
                            lambda _: {name: (1,) for name in values})
        raw = _checkpoint_bytes(config_to_text(spec.config),
                                [(name.encode(), values[name])
                                 for name in values])
        path = tmp_path / "many.ckpt"
        path.write_bytes(raw)
        _, loaded = load_checkpoint(path)

        def root(arr):
            while isinstance(arr, np.ndarray):
                arr = arr.base
            return arr

        mapping = root(loaded["p0"])
        assert isinstance(mapping, mmap.mmap) and len(mapping) == len(raw)
        start = np.frombuffer(mapping, np.uint8).ctypes.data
        for name, value in values.items():
            got = loaded[name]
            assert root(got) is mapping
            assert got.dtype == value.dtype and got.flags.writeable
            # the payload follows the name's length, the name and the header
            at = (raw.index(struct.pack("<I", len(name)) + name.encode()
                            + tensorfile.MAGIC)
                  + 4 + len(name) + tensorfile._HEADER.size)
            assert got.ctypes.data - start == at
            assert got.tobytes() == value.tobytes() == raw[at:at + got.nbytes]
        for got in loaded.values():
            got[...] = 7.0
        assert loaded["p5"][0] == 7.0
        assert (hashlib.sha256(path.read_bytes()).digest()
                == hashlib.sha256(raw).digest())
        assert load_checkpoint(path)[1]["p5"].tobytes() == values["p5"].tobytes()

    def test_save_over_the_loaded_file(self, tmp_path):
        """Saving onto the file the loaded arrays map replaces it rather than
        truncating it under them, which would kill the process with SIGBUS;
        so the script runs in a child process."""
        script = """
import sys
from fractions import Fraction
from dmsn.model import (ModelConfig, build_model, init_params,
                        load_checkpoint, save_checkpoint)
spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                               width_multiplier=Fraction(1, 8)))
params = init_params(spec, seed=24)
path = sys.argv[1]
save_checkpoint(spec, params, path)
spec2, loaded = load_checkpoint(path)
save_checkpoint(spec2, loaded, path)
spec3, again = load_checkpoint(path)
assert spec3 == spec2 == spec and again.keys() == params.keys()
for name, arr in params.items():
    assert loaded[name].tobytes() == again[name].tobytes() == arr.tobytes()
print("same bytes", len(again))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "model.ckpt")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (done.returncode, done.stderr)
        assert done.stdout.startswith("same bytes ")
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        """A float16 entry sorted last fails after every other entry was
        written: the old checkpoint stays, and no temporary file is left."""
        spec, params, _ = micro_setup(seed=25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        before = path.read_bytes()
        last = max(params)
        bad = {**params, last: params[last].astype(np.float16)}
        with pytest.raises(TensorFileError, match="float16"):
            save_checkpoint(spec, bad, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]

    def test_saved_file_mode_follows_the_umask(self, tmp_path):
        spec, params, _ = micro_setup(seed=26)
        old = os.umask(0o027)
        try:
            save_checkpoint(spec, params, tmp_path / "model.ckpt")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "model.ckpt").stat().st_mode) == 0o640

    @pytest.mark.parametrize("size", [0, 7])
    def test_short_file_is_checkpoint_error(self, tmp_path, size):
        with pytest.raises(CheckpointError, match="magic"):
            _load(tmp_path, b"DMSNCKPT"[:size])

    def test_corrupted_magic_rejected(self, tmp_path):
        spec, params, _ = micro_setup(seed=10)
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        spec, params, _ = micro_setup(seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_loaded_model_scores_match(self, tmp_path):
        spec, params, clip = micro_setup(seed=12)
        before = model_forward(spec, params, clip, mode="eval")
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        spec2, params2 = load_checkpoint(path)
        after = model_forward(spec2, params2, clip, mode="eval")
        np.testing.assert_array_equal(before, after)

    def test_config_text_roundtrip(self):
        config = ModelConfig(model_kind="dmsn-b", clip_len=24,
                             input_size=(64, 48), branch_count=3,
                             width_multiplier=Fraction(1, 4), seed=17)
        assert config_from_text(config_to_text(config)) == config

    def test_the_helper_writes_what_save_checkpoint_writes(self, tmp_path):
        spec, params, _ = micro_setup(seed=13)
        save_checkpoint(spec, params, tmp_path / "good.ckpt")
        assert (tmp_path / "good.ckpt").read_bytes() == _checkpoint_bytes(
            config_to_text(spec.config), _entries(params))

    @pytest.mark.parametrize("field, value", [("clip_len", "8.0"),
                                              ("seed", "x"),
                                              ("width_multiplier", "1/0")])
    def test_bad_config_value(self, tmp_path, field, value):
        spec, params, _ = micro_setup(seed=14)
        text = config_to_text(spec.config).replace(
            f"{field}={getattr(spec.config, field)}", f"{field}={value}")
        assert value in text
        with pytest.raises(CheckpointError, match="bad value"):
            _load(tmp_path, _checkpoint_bytes(text, _entries(params)))

    @pytest.mark.parametrize("field, value, cause", [
        ("clip_len", "5", "clip_len must be even"),
        ("width_multiplier", "1/64", "mid channels 1 not divisible by 2")])
    def test_config_rejected_by_the_model(self, tmp_path, field, value, cause):
        spec, params, _ = micro_setup(seed=20)
        text = config_to_text(spec.config).replace(
            f"{field}={getattr(spec.config, field)}", f"{field}={value}")
        assert value in text
        with pytest.raises(CheckpointError, match=cause):
            _load(tmp_path, _checkpoint_bytes(text, _entries(params)))

    @pytest.mark.parametrize("extra, message", [
        ("colour=blue\n", "unknown key 'colour'"),
        ("seed=5\n", "repeats key 'seed'")], ids=["unknown", "repeated"])
    def test_config_text_loads_exactly(self, tmp_path, extra, message):
        spec, params, _ = micro_setup(seed=21)
        text = config_to_text(spec.config) + extra
        with pytest.raises(CheckpointError, match=message):
            _load(tmp_path, _checkpoint_bytes(text, _entries(params)))

    def test_config_text_not_utf8(self, tmp_path):
        spec, params, _ = micro_setup(seed=15)
        raw = _checkpoint_bytes(config_to_text(spec.config),
                                _entries(params))
        raw = raw.replace(b"model_kind=dmsn", b"model_kind=dms\xff")
        with pytest.raises(CheckpointError, match="config text is not UTF-8"):
            _load(tmp_path, raw)

    def test_entry_name_not_utf8(self, tmp_path):
        spec, params, _ = micro_setup(seed=16)
        entries = _entries(params)
        entries[0] = (b"\xff" + entries[0][0][1:], entries[0][1])
        with pytest.raises(CheckpointError, match="entry name is not UTF-8"):
            _load(tmp_path, _checkpoint_bytes(
                config_to_text(spec.config), entries))

    def test_duplicate_entry(self, tmp_path):
        spec, params, _ = micro_setup(seed=17)
        entries = _entries(params)
        name = entries[0][0]
        entries.insert(1, (name, np.zeros_like(entries[0][1])))
        with pytest.raises(CheckpointError, match="duplicate"):
            _load(tmp_path, _checkpoint_bytes(
                config_to_text(spec.config), entries))

    def test_bytes_after_last_entry(self, tmp_path):
        spec, params, _ = micro_setup(seed=18)
        raw = _checkpoint_bytes(config_to_text(spec.config),
                                _entries(params))
        with pytest.raises(CheckpointError, match="1 bytes after"):
            _load(tmp_path, raw + b"\0")

    def test_fuzzed_file_loads_or_raises_checkpoint_error(self, tmp_path):
        """Seeded truncations, single-bit flips in the first 400 bytes and one
        appended byte: each case loads or raises ``CheckpointError``, and no
        other exception type escapes.  The file is edited in place."""
        spec, params, _ = micro_setup(seed=22)
        path = tmp_path / "model.ckpt"
        save_checkpoint(spec, params, path)
        size = path.stat().st_size
        rng = np.random.default_rng(9)
        lengths = rng.choice(size, size=300, replace=False)
        flips = zip(rng.integers(0, 400, size=600), rng.integers(0, 8, size=600))

        def outcome() -> str:
            try:
                load_checkpoint(path)
            except CheckpointError:
                return "error"
            return "load"

        def poke(fh, pos: int, value: int) -> None:
            fh.seek(pos)
            fh.write(bytes([value]))
            fh.flush()

        flipped = collections.Counter()
        with open(path, "r+b") as fh:
            for pos, bit in flips:
                fh.seek(pos)
                (byte,) = fh.read(1)
                poke(fh, pos, byte ^ (1 << bit))
                flipped[outcome()] += 1
                poke(fh, pos, byte)
            poke(fh, size, 0)   # one appended byte
            assert outcome() == "error"
            truncated = set()
            for n in sorted(lengths, reverse=True):
                fh.truncate(n)
                fh.flush()
                truncated.add(outcome())
        assert truncated == {"error"}
        assert flipped["error"] > 0 and flipped["load"] > 0, flipped

    def test_u32_max_extent_rejected_before_allocation(self, tmp_path):
        spec, params, _ = micro_setup(seed=23)
        entries = _entries(params)
        raw = bytearray(_checkpoint_bytes(config_to_text(spec.config), entries))
        # the first tensor header follows the first entry's name
        header_at = raw.index(entries[0][0]) + len(entries[0][0])
        assert raw[header_at:header_at + 4] == b"DMSN"
        raw[header_at + 12:header_at + 16] = struct.pack("<I", 2 ** 32 - 1)
        with pytest.raises(CheckpointError, match="truncated payload"):
            _load(tmp_path, bytes(raw))

    def test_entry_with_wrong_element_count(self, tmp_path):
        spec, params, _ = micro_setup(seed=19)
        entries = _entries(params)
        entries[0] = (entries[0][0], np.concatenate(
            [entries[0][1].ravel(), [0.0]]))
        with pytest.raises(CheckpointError, match="values"):
            _load(tmp_path, _checkpoint_bytes(
                config_to_text(spec.config), entries))
