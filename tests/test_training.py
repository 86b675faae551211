"""Losses, optimizer updates, schedules, and the training loop."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dmsn import blocks, ops, training
from dmsn.model import ModelConfig, build_model, init_params
from dmsn.pipeline import SynthConfig, synth_generate
from dmsn.training import (SCHEDULES, SGD_MOMENTUM, WEIGHT_DECAY, TrainConfig,
                           TrainingDiverged, adam_step, history_lines,
                           init_optimizer, lr_at, mae_loss, mse_loss,
                           predict_scores, save_history, sgd_step, train,
                           train_step)

from helpers import reference_optimizer_step

MICRO = ModelConfig(clip_len=8, input_size=(16, 16),
                    width_multiplier=Fraction(1, 8))


class TestLosses:
    def test_zero_at_perfect_prediction(self):
        p = np.array([1.0, -2.0, 3.0])
        for loss in (mse_loss, mae_loss):
            value, grad = loss(p, p.copy())
            assert value == 0.0
            np.testing.assert_array_equal(grad, 0.0)

    def test_mse_hand_value(self):
        value, grad = mse_loss(np.array([0.0]), np.array([3.0]))
        assert value == 9.0
        np.testing.assert_allclose(grad, [-6.0])

    def test_mae_subgradient(self):
        value, grad = mae_loss(np.array([2.0, 0.0, -1.0]),
                               np.array([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(value, 1.0)
        np.testing.assert_allclose(grad, [1 / 3, 0.0, -1 / 3])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=12)
        target = rng.normal(size=12)
        eps = 1e-7
        for loss in (mse_loss, mae_loss):
            _, grad = loss(pred, target)
            for i in (0, 5, 11):
                plus, minus = pred.copy(), pred.copy()
                plus[i] += eps
                minus[i] -= eps
                fd = (loss(plus, target)[0] - loss(minus, target)[0]) / (2 * eps)
                assert abs(fd - grad[i]) < 1e-6

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(0), np.zeros(0))


class TestOptimizers:
    def test_sgd_plain_step(self):
        # a first step on an undecayed entry: v = g
        state = init_optimizer("sgd", lr=0.1)
        params = {"a.shift": np.array([1.0])}
        out = sgd_step(params, {"a.shift": np.array([1.0])}, state)
        np.testing.assert_allclose(out["a.shift"], [0.9])

    def test_sgd_two_step_momentum_recurrence(self):
        # hand-computed: v1=0.5, theta1=0.95; v2=0.9*0.5+0.5=0.95,
        # theta2=0.95-0.095=0.855
        assert SGD_MOMENTUM == 0.9
        state = init_optimizer("sgd", lr=0.1)
        params = {"a.scale": np.array([1.0])}
        g = {"a.scale": np.array([0.5])}
        params = sgd_step(params, g, state)
        np.testing.assert_allclose(params["a.scale"], [0.95])
        params = sgd_step(params, g, state)
        np.testing.assert_allclose(params["a.scale"], [0.855])

    def test_sgd_weight_decay_adds_to_gradient(self):
        # v1 = g + wd*theta = 0.5 + 1e-4*2 -> theta1 = 2 - 0.1*0.5002
        assert WEIGHT_DECAY == 1e-4
        state = init_optimizer("sgd", lr=0.1)
        params = {"a.w": np.array([2.0])}
        params = sgd_step(params, {"a.w": np.array([0.5])}, state)
        np.testing.assert_allclose(params["a.w"], [1.94998], rtol=1e-12)

    def test_adam_first_step_magnitude_is_lr(self):
        for scale in (1e-3, 1.0, 1e3):
            state = init_optimizer("adam", lr=0.01)
            params = {"w": np.array([0.0])}
            out = adam_step(params, {"w": np.array([scale])}, state)
            assert abs(abs(out["w"][0]) - 0.01) < 1e-5

    def test_zero_gradient_zero_decay_leaves_param(self):
        for kind, step_fn in (("sgd", sgd_step), ("adam", adam_step)):
            state = init_optimizer(kind, lr=0.5)
            params = {"a.scale": np.array([2.0])}
            for _ in range(3):
                params = step_fn(params, {"a.scale": np.array([0.0])}, state)
            np.testing.assert_array_equal(params["a.scale"], [2.0])

    def test_weight_decay_skips_normalization_params(self):
        state = init_optimizer("sgd", lr=0.1)
        params = {"a.scale": np.array([1.0]), "a.shift": np.array([1.0]),
                  "a.w": np.array([1.0])}
        zero = {k: np.array([0.0]) for k in params}
        out = sgd_step(params, zero, state)
        np.testing.assert_array_equal(out["a.scale"], [1.0])
        np.testing.assert_array_equal(out["a.shift"], [1.0])
        np.testing.assert_allclose(out["a.w"], [1.0 - 0.1 * WEIGHT_DECAY],
                                   rtol=1e-15)

    def test_decay_only_shrinks_norm(self):
        state = init_optimizer("sgd", lr=0.1)
        params = {"w": np.array([4.0, -2.0])}
        norms = [np.linalg.norm(params["w"])]
        for _ in range(5):
            params = sgd_step(params, {"w": np.zeros(2)}, state)
            norms.append(np.linalg.norm(params["w"]))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_quadratic_descent_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0.5, 4.0, size=3)
            x = rng.normal(size=3)
            state = init_optimizer("sgd", lr=0.05)
            loss0 = float(np.sum(a * x * x))
            out = sgd_step({"x": x}, {"x": 2 * a * x}, state)
            loss1 = float(np.sum(a * out["x"] ** 2))
            assert loss1 < loss0 or loss0 == 0.0

    def test_shape_mismatch_rejected(self):
        state = init_optimizer("sgd", lr=0.1)
        with pytest.raises(ValueError, match="shape"):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, state)


def micro_learnables():
    return {name: value
            for name, value in init_params(build_model(MICRO)).items()
            if not name.endswith((".mean", ".var"))}


class TestChunkedOptimizer:
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_fifty_steps_match_per_entry_reference_bitwise(self, kind):
        # The micro model's learnable entries (decayed weights, undecayed
        # scale/shift), one of them float32, with per-entry gradient scales
        # from 1e-6 to 1e3 and signed zeros in both gradients and params.
        step_fn = {"sgd": sgd_step, "adam": adam_step}[kind]
        rng = np.random.default_rng(21)
        params = micro_learnables()
        names = list(params)
        params[names[3]] = params[names[3]].astype(np.float32)
        for name in names[:6]:
            params[name].flat[:2] = -0.0
        scales = dict(zip(names, 10.0 ** rng.uniform(-6, 3, len(names))))
        state = init_optimizer(kind, 0.01)
        ref_state = init_optimizer(kind, 0.01)
        ours, ref = dict(params), dict(params)
        for step in range(50):
            grads = {name: rng.normal(scale=scales[name],
                                      size=params[name].shape).astype(
                                          params[name].dtype)
                     for name in names}
            for name in names[:6]:
                grads[name].flat[:3] = -0.0
            held = {name: value.tobytes() for name, value in ours.items()}
            given = {name: value.tobytes() for name, value in grads.items()}
            new = step_fn(ours, grads, state)
            ref = reference_optimizer_step(ref, grads, ref_state)
            assert {n: v.tobytes() for n, v in ours.items()} == held
            assert {n: v.tobytes() for n, v in grads.items()} == given
            ours = new
            assert set(ours) == set(ref) and state.step_count == step + 1
            for name in names:
                assert ours[name].dtype == ref[name].dtype, name
                assert ours[name].tobytes() == ref[name].tobytes(), (step,
                                                                     name)
            assert set(state.slots) == set(ref_state.slots)
            for name, slot in ref_state.slots.items():
                got = state.slots[name]
                pairs = zip(got, slot) if kind == "adam" else [(got, slot)]
                for a, b in pairs:
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes(), (step, name)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("change", ["missing", "extra", "reshaped"])
    def test_step_with_other_entries_rejected(self, kind, change):
        step_fn = {"sgd": sgd_step, "adam": adam_step}[kind]
        params = {"a.w": np.ones(4), "a.shift": np.ones(2), "b.w": np.ones(3)}
        grads = {"a.w": np.full(4, 0.5), "a.shift": np.full(2, 0.5)}
        state = init_optimizer(kind, 0.1)
        params = step_fn(params, grads, state)
        slots = {name: np.array(state.slots[name]).tobytes()
                 for name in state.slots}
        if change == "missing":
            del grads["a.shift"]
        elif change == "extra":
            grads["b.w"] = np.full(3, 0.5)
        else:
            params["a.w"], grads["a.w"] = np.ones((2, 2)), np.ones((2, 2))
        with pytest.raises(ValueError, match="first step"):
            step_fn(params, grads, state)
        assert state.step_count == 1 and set(state.slots) == set(slots)
        for name, held in slots.items():
            assert np.array(state.slots[name]).tobytes() == held, name

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_slots_are_laid_out_once_decayed_apart(self, kind):
        step_fn = {"sgd": sgd_step, "adam": adam_step}[kind]
        rng = np.random.default_rng(5)
        params = micro_learnables()
        state = init_optimizer(kind, 0.01)
        for step in range(50):
            grads = {name: rng.normal(size=value.shape)
                     for name, value in params.items()}
            params = step_fn(params, grads, state)
            if step == 0:
                first = dict(state.slots)
        assert all(state.slots[name] is slot for name, slot in first.items())
        # each slot is a view of one chunk's buffer, and a chunk holds
        # decayed or undecayed entries, never both
        chunks = {}
        for name, slot in state.slots.items():
            base = (slot[0] if kind == "adam" else slot).base
            chunks.setdefault(id(base), set()).add(
                name.endswith((".scale", ".shift")))
        assert len(chunks) > 2
        assert all(len(kinds) == 1 for kinds in chunks.values())


class TestSchedules:
    def test_step_decay_divides_by_ten_every_ten_epochs(self):
        pretrain = SCHEDULES["pretrain"]
        assert lr_at(pretrain, 0) == 0.01
        assert lr_at(pretrain, 9) == 0.01
        assert abs(lr_at(pretrain, 10) - 0.001) < 1e-15
        assert abs(lr_at(pretrain, 25) - 1e-4) < 1e-16

    def test_two_phase(self):
        depression = SCHEDULES["depression"]
        assert lr_at(depression, 0) == 0.005
        assert lr_at(depression, 1) == 0.0005
        assert lr_at(depression, 2) == 0.0005

    def test_constant(self):
        assert all(lr_at(SCHEDULES["pain"], e) == 0.001 for e in range(5))

    def test_named_schedules_and_defaults(self):
        assert set(SCHEDULES) == {"pretrain", "depression", "pain"}
        assert SCHEDULES["pretrain"].default_epochs == 30
        assert SCHEDULES["depression"].default_epochs == 3
        assert SCHEDULES["pain"].default_epochs == 2

    def test_rates_positive_and_non_increasing(self):
        for schedule in SCHEDULES.values():
            rates = [lr_at(schedule, e) for e in range(30)]
            assert all(r > 0 for r in rates)
            assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(SCHEDULES["pain"], -1)


def tiny_dataset(count=8, seed=0):
    return synth_generate(SynthConfig(clip_count=count, clip_len=8, height=16,
                                      width=16, subjects=2, seed=seed))


class TestTrainLoop:
    def test_zero_lr_leaves_learnables_bitwise(self):
        ds = tiny_dataset()
        spec = build_model(MICRO)
        before = init_params(spec)
        state = init_optimizer("sgd", 0.0)
        params, _ = train_step(spec, dict(before), np.stack(ds.clip_arrays()),
                               ds.labels(), state, "mse")
        stats = {k for k in before if k.endswith((".mean", ".var"))}
        # the optimizer keeps a slot for every entry that got a gradient
        assert set(state.slots) == set(before) - stats
        for name in state.slots:
            assert params[name].tobytes() == before[name].tobytes(), name
        for name in stats:
            assert not np.array_equal(params[name], before[name]), name

    def test_loss_decreases_on_tiny_run(self):
        ds = tiny_dataset(count=16, seed=3)
        config = TrainConfig(optimizer="adam", schedule="pain", epochs=10,
                             batch_size=8, seed=5)
        _, history = train(MICRO, ds, config)
        losses = [s[3] for s in history.steps]
        assert np.mean(losses[-4:]) < np.mean(losses[:4])

    def test_reproducible_history(self):
        ds = tiny_dataset(count=8, seed=4)
        config = TrainConfig(optimizer="sgd", schedule="pain", epochs=2, seed=6)
        _, h1 = train(MICRO, ds, config)
        _, h2 = train(MICRO, ds, config)
        assert h1.steps == h2.steps

    def test_max_steps_cap(self):
        ds = tiny_dataset(count=16, seed=5)
        config = TrainConfig(schedule="pain", epochs=10, max_steps=3, seed=0)
        _, history = train(MICRO, ds, config)
        assert len(history.steps) == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_step(self):
        ds = tiny_dataset(count=8, seed=6)
        ds.clips[0].data = np.full_like(ds.clips[0].data, np.nan)
        config = TrainConfig(schedule="pain", epochs=1, seed=0)
        with pytest.raises(TrainingDiverged, match="step"):
            train(MICRO, ds, config)

    def test_history_export_lines(self, tmp_path):
        ds = tiny_dataset(count=8, seed=7)
        config = TrainConfig(schedule="pain", epochs=1, seed=2)
        _, history = train(MICRO, ds, config)
        lines = history_lines(history)
        assert len(lines) == len(history.steps)
        step, epoch, lr, loss = lines[0].split("\t")
        assert step == "0" and epoch == "0" and float(lr) == 0.001
        float(loss)
        path = tmp_path / "hist.txt"
        save_history(history, path)
        assert path.read_text().splitlines() == lines

    def test_empty_dataset_rejected(self):
        ds = tiny_dataset(count=8, seed=8)
        ds.clips = []
        with pytest.raises(ValueError, match="empty"):
            train(MICRO, ds, TrainConfig())

    @pytest.mark.parametrize("field, value", [
        ("batch_size", -1), ("batch_size", 0), ("epochs", -1), ("epochs", 0),
        ("max_steps", 0), ("max_steps", -3)])
    def test_non_positive_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, valid", [
        ("schedule", "warmup", "pretrain, depression, pain"),
        ("optimizer", "lbfgs", "sgd, adam"),
        ("loss", "huber", "mse, mae")])
    def test_unknown_name_rejected_before_any_forward(self, monkeypatch,
                                                       field, value, valid):
        def no_forward(*args):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr(training, "forward_with_state", no_forward)
        with pytest.raises(ValueError, match=(f"unknown {field} '{value}'; "
                                              f"valid: {valid}$")):
            train(MICRO, tiny_dataset(), TrainConfig(**{field: value}))

    def test_init_optimizer_lists_valid_kinds(self):
        with pytest.raises(ValueError, match="valid: sgd, adam$"):
            init_optimizer("lbfgs", 0.1)

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_predict_scores_rejects_non_positive_batch_size(self, batch_size):
        spec = build_model(MICRO)
        clips = tiny_dataset(count=2, seed=9).clip_arrays()
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            predict_scores(spec, init_params(spec), clips,
                           batch_size=batch_size)


class TestDeskStep:
    """One step at the train-desk benchmark's shapes: Adam and MSE on a batch
    of 8 3x8x32x32 clips, model ``dmsn`` at width 1/8 with 4 branches."""

    @pytest.fixture
    def desk(self):
        spec = build_model(ModelConfig(
            clip_len=8, input_size=(32, 32), branch_count=4,
            width_multiplier=Fraction(1, 8), seed=1))
        rng = np.random.default_rng(1)
        clips = rng.normal(size=(8, 3, 8, 32, 32)).astype(np.float32)
        labels = rng.uniform(0.0, 4.0, size=8)
        state = init_optimizer("adam", 1e-3)
        params, _ = train_step(spec, init_params(spec), clips, labels, state,
                               "mse")
        return spec, params, clips, labels, state

    def test_transient_memory_is_bounded(self, desk):
        """The peak a warm step allocates above what it held before.  With
        the stem's windows gathered for all 8 samples at once (16.9 MB, in
        the forward and again for the weight gradient) it read 30.8 MB; one
        sample at a time it reads 16.1 MB.  24 MB lies between the two, ~8 MB
        from each."""
        spec, params, clips, labels, state = desk
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_step(spec, params, clips, labels, state, "mse")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 24e6, f"{peak / 1e6:.1f} MB"

    def test_backward_frees_the_forward_cache(self, desk):
        """The same peak with the backward removing each forward cache entry
        once read: 16.1 MB while every entry stayed alive until the step
        returned, 9.7 MB now.  13 MB lies between, ~3 MB from each."""
        spec, params, clips, labels, state = desk
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            train_step(spec, params, clips, labels, state, "mse")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 13e6, f"{peak / 1e6:.1f} MB"

    def test_only_the_stem_gathers_in_groups(self, desk, monkeypatch):
        spec, params, clips, labels, state = desk
        real, groups = ops._sample_groups, []

        def spy(n, sample_bytes):
            groups.append((sample_bytes, len(real(n, sample_bytes))))
            return real(n, sample_bytes)

        monkeypatch.setattr(ops, "_sample_groups", spy)
        train_step(spec, params, clips, labels, state, "mse")
        split = [(size, count) for size, count in groups if count > 1]
        # the stem's forward, and its weight gradient's gather of x: 3x7x7
        # float32 window rows over 8 + 6 padded frames at 16x16 positions
        assert split == [(3 * 7 * 7 * 14 * 16 * 16 * 4, 8)] * 2
        assert len(groups) > 100


def test_a_clips_units_do_not_depend_on_the_scoring_batch(monkeypatch):
    """Clip 0's unit outputs are the same bytes scored alone or in a batch of
    8 (the no-cache eval forward).  Its score agrees only to rounding: the
    head runs one ``(n*t, c) @ (c, 1)`` GEMM, and the BLAS may round a row
    differently for another row count (the last float32 ulp here)."""
    spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                   width_multiplier=Fraction(1, 8)))
    params = init_params(spec, seed=0)
    clips = synth_generate(SynthConfig(clip_count=11, clip_len=8, height=32,
                                       width=32)).clip_arrays()
    unit_forward = blocks.unit_forward

    def scored(batch_size):
        outs = []

        def spy(name, *args):
            y = unit_forward(name, *args)
            outs.append((name, y[0].tobytes()))
            return y

        monkeypatch.setattr(blocks, "unit_forward", spy)
        return predict_scores(spec, params, clips, batch_size), outs

    alone, alone_units = scored(1)
    batched, batched_units = scored(8)
    per_forward = len(batched_units) // 2  # clips 0-7, then 8-10
    assert len(alone_units) == 11 * per_forward
    assert alone_units[:per_forward] == batched_units[:per_forward]
    np.testing.assert_allclose(alone, batched, rtol=1e-5)
