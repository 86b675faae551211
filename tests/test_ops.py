"""Tensor-kernel tests: forward oracles, backward finite differences, geometry."""

from fractions import Fraction

import numpy as np
import pytest

from dmsn import ops
from dmsn.blocks import RunState
from dmsn.gradsuite import _conv_case
from dmsn.model import (ModelConfig, backward_from_cache, build_model,
                        forward_with_state, init_params, model_forward)
from dmsn.ops import ConvLayerSpec, GeometryError, ShapeError

from helpers import naive_conv3d, naive_maxpool3d, random_conv_case


# float32 activations with float64 weights, as the benchmark runs the model:
# stride 2 with padding and a batch of 2, a per-tap depth of 180 (540 in all),
# pointwise convs (on the flipped-kernel path and a strided gather), the
# temporal and spatial shapes the blocks use, a micro stem (7x7x7, seven taps
# over one gather), a temporal stride of 2, whose taps are strided copies, and
# a pointwise conv whose input gradient reduces over 500 > _GEMM_DEPTH
# channels.
FLOAT32_CASES = [
    (ConvLayerSpec(3, 5, (3, 3, 3), (2, 2, 2), (1, 1, 1)), (2, 3, 7, 9, 8)),
    (ConvLayerSpec(20, 4, (3, 3, 3), (1, 1, 1), (1, 1, 1)), (2, 20, 4, 6, 5)),
    (ConvLayerSpec(3, 4, (7, 7, 7), (1, 2, 2), (3, 3, 3)), (1, 3, 8, 12, 10)),
    (ConvLayerSpec(2, 3, (3, 3, 2), (2, 2, 1), (1, 1, 0)), (2, 2, 7, 6, 5)),
    (ConvLayerSpec(6, 4, (1, 1, 1)), (2, 6, 3, 4, 4)),
    (ConvLayerSpec(6, 4, (1, 1, 1), (1, 2, 2)), (2, 6, 3, 5, 5)),
    (ConvLayerSpec(4, 3, (3, 1, 1), padding=(1, 0, 0)), (2, 4, 5, 3, 3)),
    (ConvLayerSpec(4, 3, (1, 3, 3), padding=(0, 1, 1)), (1, 4, 2, 6, 5)),
    (ConvLayerSpec(3, 500, (1, 1, 1)), (2, 3, 2, 3, 3)),
]


class TestConvForward:
    def test_identity_pointwise(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 3, 4, 4))
        spec = ConvLayerSpec(1, 1, (1, 1, 1))
        w = np.ones((1, 1, 1, 1, 1))
        y = ops.conv3d_forward(x, spec, w)
        np.testing.assert_array_equal(y, x)

    def test_constant_field_sums_kernel(self):
        x = np.full((1, 1, 6, 2, 2), 2.5)
        spec = ConvLayerSpec(1, 1, (3, 1, 1))
        w = np.ones(spec.weight_shape)
        y = ops.conv3d_forward(x, spec, w)
        np.testing.assert_allclose(y, 7.5)

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(7)
        spec = ConvLayerSpec(2, 3, (3, 3, 3))
        x = rng.normal(size=(1, 2, 4, 5, 5))
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=3)
        np.testing.assert_allclose(ops.conv3d_forward(x, spec, w, b),
                                   naive_conv3d(x, spec, w, b), atol=1e-12)

    def test_bias_broadcasts_per_channel(self):
        rng = np.random.default_rng(1)
        spec = ConvLayerSpec(1, 2, (1, 1, 1))
        x = rng.normal(size=(1, 1, 2, 2, 2))
        w = rng.normal(size=spec.weight_shape)
        b = np.array([1.0, -2.0])
        y0 = ops.conv3d_forward(x, spec, w)
        y1 = ops.conv3d_forward(x, spec, w, b)
        assert np.allclose(y1 - y0, b[None, :, None, None, None])

    def test_channel_mismatch_names_axis(self):
        spec = ConvLayerSpec(3, 2, (1, 1, 1))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv3d_forward(np.zeros((1, 2, 2, 2, 2)), spec,
                               np.zeros(spec.weight_shape))

    @pytest.mark.parametrize("x_shape,w_shape,match", [
        ((1, 2, 3, 4, 4), (2, 3, 1, 3, 3), "channel"),
        ((1, 3, 3, 4, 4), (2, 3, 3, 1, 1), "weights shape")])
    def test_bad_shapes_fail_on_every_call(self, x_shape, w_shape, match):
        """Geometry is worked out once per shape, and only a good shape's
        is kept: after a good call, a bad one fails each time it is made."""
        spec = ConvLayerSpec(3, 2, (1, 3, 3), padding=(0, 1, 1))
        good = np.zeros((1, 3, 3, 4, 4))
        w = np.zeros(spec.weight_shape)
        go = np.zeros(ops.conv_output_shape(good.shape, spec))
        ops.conv3d_forward(good, spec, w)
        ops.conv3d_backward(good, spec, w, go)
        x, bad_w = np.zeros(x_shape), np.zeros(w_shape)
        for _ in range(2):
            with pytest.raises(ShapeError, match=match):
                ops.conv3d_forward(x, spec, bad_w)
            with pytest.raises(ShapeError, match=match):
                ops.conv3d_backward(x, spec, bad_w, go)

    def test_empty_output_is_geometry_error(self):
        spec = ConvLayerSpec(1, 1, (3, 3, 3))
        with pytest.raises(GeometryError, match="time"):
            ops.conv3d_forward(np.zeros((1, 1, 2, 5, 5)), spec,
                               np.zeros(spec.weight_shape))

    def test_linear_in_input_when_bias_free(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec, x, w = random_conv_case(rng, dtype=np.float64)
            y = rng.normal(size=x.shape)
            a, b = 0.7, -1.3
            lhs = ops.conv3d_forward(a * x + b * y, spec, w)
            rhs = (a * ops.conv3d_forward(x, spec, w)
                   + b * ops.conv3d_forward(y, spec, w))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_output_extent_formula_random_geometries(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec, x, w = random_conv_case(rng)
            y = ops.conv3d_forward(x, spec, w)
            for ax, (size, k, s, p) in enumerate(zip(
                    x.shape[2:], spec.kernel, spec.stride, spec.padding)):
                assert y.shape[2 + ax] == (size + 2 * p - k) // s + 1

    @pytest.mark.parametrize("spec,x_shape", [
        (ConvLayerSpec(2, 3, (2, 3, 3), (1, 2, 2), (1, 1, 0)), (2, 2, 4, 7, 6)),
        *FLOAT32_CASES])
    def test_row_per_position_windows_give_the_same_conv(self, spec, x_shape):
        rng = np.random.default_rng(12)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=spec.weight_shape)
        n, co, to, ho, wo = ops.conv_output_shape(x.shape, spec)
        cols = ops._im2col(ops._pad5(x, spec.padding), spec.kernel,
                           spec.stride, (to, ho, wo))
        y = (cols @ w.reshape(co, -1).T).reshape(n, to, ho, wo, co)
        np.testing.assert_allclose(y.transpose(0, 4, 1, 2, 3),
                                   ops.conv3d_forward(x, spec, w), atol=1e-12)


class TestSpecializedPaths:
    def test_temporal_matches_general(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            spec, x, w = random_conv_case(rng, temporal=True)
            got = ops.conv3d_forward(x, spec, w)
            want = naive_conv3d(x, spec, w)
            assert np.abs(got - want).max() < 1e-5

    def test_spatial_matches_general(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            spec, x, w = random_conv_case(rng, spatial=True)
            got = ops.conv3d_forward(x, spec, w)
            want = naive_conv3d(x, spec, w)
            assert np.abs(got - want).max() < 1e-5

    def test_hundred_case_agreement_in_64_bit(self):
        rng = np.random.default_rng(99)
        for i in range(100):
            kind = {"temporal": True} if i % 2 else {"spatial": True}
            spec, x, w = random_conv_case(rng, dtype=np.float64, **kind)
            fast = ops.conv3d_forward(x, spec, w)
            assert np.abs(fast - naive_conv3d(x, spec, w)).max() < 1e-12


class TestConvBackward:
    def test_identity_conv_passes_gradient(self):
        rng = np.random.default_rng(0)
        spec = ConvLayerSpec(1, 1, (1, 1, 1))
        x = rng.normal(size=(1, 1, 3, 3, 3))
        w = np.ones(spec.weight_shape)
        go = rng.normal(size=x.shape)
        gx, _ = ops.conv3d_backward(x, spec, w, go)
        np.testing.assert_allclose(gx, go)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        spec = ConvLayerSpec(2, 2, (2, 3, 2), (1, 2, 1), (1, 1, 0))
        x = rng.normal(size=(1, 2, 3, 6, 4))
        w = rng.normal(size=spec.weight_shape)
        go = rng.normal(size=ops.conv_output_shape(x.shape, spec))
        gx, gw = ops.conv3d_backward(x, spec, w, go)
        eps = 1e-6
        for arr, grad, pick in ((x, gx, (0, 1, 2, 4, 1)),
                                (w, gw, (1, 0, 1, 2, 0))):
            plus, minus = arr.copy(), arr.copy()
            plus[pick] += eps
            minus[pick] -= eps
            if arr is x:
                fd = (np.sum(ops.conv3d_forward(plus, spec, w) * go)
                      - np.sum(ops.conv3d_forward(minus, spec, w) * go))
            else:
                fd = (np.sum(ops.conv3d_forward(x, spec, plus) * go)
                      - np.sum(ops.conv3d_forward(x, spec, minus) * go))
            fd /= 2 * eps
            assert abs(fd - grad[pick]) / max(abs(fd), 1e-12) < 1e-6

    def test_temporal_stride_matches_finite_differences(self):
        spec = ConvLayerSpec(2, 3, (3, 3, 2), (2, 2, 1), (1, 1, 0))
        report = _conv_case(5, spec, (2, 2, 7, 6, 5), True, probe_count=24)
        assert report.passed, report.summary()

    def test_gradients_are_the_adjoints_on_hundred_cases(self):
        rng = np.random.default_rng(17)
        for i in range(100):
            kind = {"temporal": True} if i % 2 else {"spatial": True}
            spec, x, w = random_conv_case(rng, dtype=np.float64, **kind)
            _check_adjoint(spec, x, w, rng)

    def test_skipping_input_grad_returns_none(self):
        rng = np.random.default_rng(3)
        spec = ConvLayerSpec(1, 1, (1, 1, 1))
        x = rng.normal(size=(1, 1, 2, 2, 2))
        w = rng.normal(size=spec.weight_shape)
        gx, gw = ops.conv3d_backward(x, spec, w, x, need_input_grad=False)
        assert gx is None and gw.shape == spec.weight_shape


def _check_adjoint(spec, x, w, rng):
    """In float64, <conv(x, w), go> equals both <x, grad_x(go)> and
    <w, grad_w(go)> to 1e-12 relative, since the bias-free conv is linear in
    each: the gradients are the forward's adjoints, whichever way they are
    computed."""
    go = rng.normal(size=ops.conv_output_shape(x.shape, spec))
    gx, gw = ops.conv3d_backward(x, spec, w, go)
    lhs = np.sum(ops.conv3d_forward(x, spec, w) * go)
    for rhs in (np.sum(x * gx), np.sum(w * gw)):
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs)), (spec, lhs,
                                                                   rhs)


# Batches of 5, gathered one sample at a time and two at a time (2 + 2 + 1:
# the middle group tells a sample-by-sample weight-gradient sum from a
# group-by-group one, and the last group is short): the desk stem's geometry,
# a temporal (3, 1, 1) conv, a stride-2 pointwise conv and every
# FLOAT32_CASES geometry.
GROUPED_CASES = [
    (ConvLayerSpec(3, 8, (7, 7, 7), (1, 2, 2), (3, 3, 3)), (5, 3, 8, 16, 16)),
    (ConvLayerSpec(6, 5, (3, 1, 1), padding=(1, 0, 0)), (5, 6, 6, 4, 4)),
    (ConvLayerSpec(6, 10, (1, 1, 1), (2, 2, 2)), (5, 6, 4, 6, 6)),
] + [(spec, (5,) + x_shape[1:]) for spec, x_shape in FLOAT32_CASES]


class TestGroupedGathers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spec,x_shape", GROUPED_CASES)
    def test_groups_give_the_bytes_of_one_gather(self, monkeypatch, spec,
                                                 x_shape, dtype):
        rng = np.random.default_rng(sum(x_shape) + 3)
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=spec.weight_shape)
        go = rng.normal(size=ops.conv_output_shape(x_shape, spec))
        go = go.astype(dtype)
        real, calls = ops._sample_groups, []

        def run():
            y = ops.conv3d_forward(x, spec, w)
            gx, gw = ops.conv3d_backward(x, spec, w, go)
            none, gw_alone = ops.conv3d_backward(x, spec, w, go,
                                                 need_input_grad=False)
            assert none is None
            return [a.tobytes() for a in (y, gx, gw, gw_alone)]

        monkeypatch.setattr(ops, "_GATHER_BYTES", 1 << 62)
        whole = run()
        # strided copies only, then index plans for every gather that copies
        for plan_bytes in (0, 1 << 62):
            monkeypatch.setattr(ops, "_INDEX_GATHER_BYTES", plan_bytes)
            for size in (1, 2):
                def budgeted(n, sample_bytes):
                    """The budget of ``size`` samples' windows."""
                    monkeypatch.setattr(ops, "_GATHER_BYTES",
                                        size * sample_bytes)
                    groups = real(n, sample_bytes)
                    assert [len(range(n)[s]) for s in groups] == [
                        min(size, n - i) for i in range(0, n, size)]
                    calls.append(n)
                    return groups

                monkeypatch.setattr(ops, "_sample_groups", budgeted)
                calls.clear()
                assert run() == whole, f"groups of {size}, {plan_bytes}"
                # one gather per forward and per backward, each grouped
                assert calls == [x_shape[0]] * 3


def _desk_gathers(monkeypatch, dtype):
    """The arguments of every :func:`ops._gathers` call of one train-mode
    desk step (batch 8, 8x32x32 clips, width 1/8) in ``dtype``."""
    spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                   width_multiplier=Fraction(1, 8)))
    params = {k: v.astype(dtype) for k, v in init_params(spec, 0).items()}
    clip = np.random.default_rng(6).normal(size=(8, 3, 8, 32, 32))
    real, seen = ops._gathers, []

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(ops, "_gathers", spy)
    state = RunState(mode="train", cache={})
    forward_with_state(spec, params, clip.astype(dtype), state)
    backward_from_cache(spec, params, state.cache, np.ones(8))
    return seen


class TestIndexPlanGathers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_copied_desk_gather_gives_the_strided_bytes(
            self, monkeypatch, dtype):
        real = ops._gathers
        for a, kernel, stride, padding, out_tail in _desk_gathers(
                monkeypatch, dtype):
            if kernel[1] * kernel[2] == 1 and stride[1] * stride[2] == 1:
                continue                    # a view, not a copy
            xp = ops._pad5(a, padding)
            got = [(s, taps.tobytes()) for s, taps
                   in real(a, kernel, stride, padding, out_tail)]
            assert got == [(s, ops._taps(xp[s], kernel, stride,
                                         out_tail).tobytes())
                           for s, _ in got], (a.shape, kernel, stride)

    def test_desk_step_plans_all_but_the_stem(self, monkeypatch):
        index = ops._window_index
        built = []

        def spy(shape, kernel, *rest):
            built.append(kernel)
            return index(shape, kernel, *rest)

        monkeypatch.setattr(ops, "_window_index", spy)
        seen = _desk_gathers(monkeypatch, np.float32)
        copied = [args for args in seen if args[1][1] * args[1][2] > 1
                  or args[2][1] * args[2][2] > 1]
        assert (7, 7, 7) not in built
        assert len(built) == len(copied) - 2   # the stem's two gathers

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_input_views_gather_alike(self, dtype):
        """A channel slice of a batch is not contiguous; its samples are
        copied into the plan's source through a view."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 6, 4, 5, 6)).astype(dtype)[:, 1:4]
        for kernel, stride, padding in (((1, 3, 3), (1, 1, 1), (0, 1, 1)),
                                        ((3, 3, 3), (2, 2, 2), (1, 1, 1)),
                                        ((1, 1, 1), (1, 2, 2), (0, 0, 0))):
            out_tail = ops.window_output_shape(x.shape, kernel, stride,
                                               padding)[2:]
            (s, taps), = ops._gathers(x, kernel, stride, padding, out_tail)
            want = ops._taps(ops._pad5(x, padding), kernel, stride, out_tail)
            assert range(3)[s] == range(3) and taps.tobytes() == want.tobytes()

    def test_full_width_eval_forward_builds_no_plan(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"index plan built for {args}")

        monkeypatch.setattr(ops, "_window_index", refuse)
        spec = build_model(ModelConfig())
        clip = np.random.default_rng(8).normal(
            size=(1, 3, 16, 112, 112)).astype(np.float32)
        scores = model_forward(spec, init_params(spec, 0), clip)
        assert scores.shape == (1,) and np.isfinite(scores).all()


class TestFloat32Compute:
    @pytest.mark.parametrize("spec,x_shape", FLOAT32_CASES)
    def test_forward_matches_oracle(self, spec, x_shape):
        rng = np.random.default_rng(sum(x_shape))
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=spec.weight_shape)
        y = ops.conv3d_forward(x, spec, w)
        want = naive_conv3d(x, spec, w)
        assert y.dtype == np.float32 and y.shape == want.shape
        np.testing.assert_allclose(y, want, rtol=0,
                                   atol=1e-6 * np.abs(want).max())

    @pytest.mark.parametrize("spec,x_shape", FLOAT32_CASES)
    def test_backward_matches_float64_kernel(self, spec, x_shape):
        rng = np.random.default_rng(sum(x_shape) + 1)
        x = rng.normal(size=x_shape)
        w = rng.normal(size=spec.weight_shape)
        go = rng.normal(size=ops.conv_output_shape(x_shape, spec))
        gx, gw = ops.conv3d_backward(x.astype(np.float32), spec, w,
                                     go.astype(np.float32))
        want = ops.conv3d_backward(x, spec, w, go)
        assert gx.dtype == np.float32 and gw.dtype == np.float64
        for got, ref in zip((gx, gw), want):
            np.testing.assert_allclose(got, ref, rtol=0,
                                       atol=1e-5 * np.abs(ref).max())

    @pytest.mark.parametrize("spec,x_shape", FLOAT32_CASES)
    def test_gradients_are_the_adjoints_of_the_forward(self, spec, x_shape):
        rng = np.random.default_rng(sum(x_shape) + 2)
        _check_adjoint(spec, rng.normal(size=x_shape),
                       rng.normal(size=spec.weight_shape), rng)

    def test_batchnorm_matches_float64(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=2.0, size=(2, 3, 4, 5, 5))
        go = rng.normal(size=x.shape)
        scale, shift = rng.uniform(0.5, 1.5, 3), rng.normal(size=3)
        stats = (np.zeros(3), np.ones(3))
        for mode in ("train", "eval"):
            y, mean, var, cache = ops.batchnorm_forward(
                x.astype(np.float32), scale, shift, *stats, mode)
            grads = ops.batchnorm_backward(cache, scale, go.astype(np.float32))
            y64, mean64, var64, cache64 = ops.batchnorm_forward(
                x, scale, shift, *stats, mode)
            want = ops.batchnorm_backward(cache64, scale, go)
            assert y.dtype == grads[0].dtype == np.float32
            assert mean.dtype == var.dtype == np.float64
            assert grads[1].dtype == grads[2].dtype == np.float64
            np.testing.assert_allclose(y, y64, rtol=0, atol=1e-5)
            np.testing.assert_allclose(mean, mean64, rtol=1e-6)
            np.testing.assert_allclose(var, var64, rtol=1e-5)
            for got, ref in zip(grads, want):
                np.testing.assert_allclose(got, ref, rtol=0,
                                           atol=1e-5 * np.abs(ref).max())


class TestPooling:
    def test_stem_pool_geometry(self):
        x = np.zeros((1, 64, 16, 56, 56), dtype=np.float32)
        y = ops.maxpool3d(x)
        assert y.shape == (1, 64, 8, 28, 28)

    def test_constant_input_gives_constant_output(self):
        x = np.full((1, 2, 6, 8, 8), 3.25, dtype=np.float32)
        y = ops.maxpool3d(x)
        np.testing.assert_array_equal(y, np.full_like(y, 3.25))

    def test_backward_routes_to_argmax(self):
        # two overlapping windows along w, {-1, 0, 1} and {1, 2, 3}, both won
        # by w = 1, which collects both output gradients
        x = np.array([1.0, 5.0, 2.0, 3.0]).reshape(1, 1, 1, 1, 4)
        y = ops.maxpool3d(x)
        np.testing.assert_array_equal(y[0, 0, 0, 0], [5.0, 5.0])
        gx = ops.maxpool3d_backward(np.array([1.0, 10.0]).reshape(y.shape),
                                    x, y)
        np.testing.assert_array_equal(gx[0, 0, 0, 0], [0.0, 11.0, 0.0, 0.0])

    def test_max_equals_naive_windows(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3, 7, 9, 9))
        y = ops.maxpool3d(x)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)),
                    constant_values=-np.inf)
        for pick in [(0, 0, 0, 0, 0), (1, 2, 3, 2, 4), (0, 1, 2, 4, 0)]:
            b, c, t, h, w = pick
            window = xp[b, c, 2 * t:2 * t + 3, 2 * h:2 * h + 3, 2 * w:2 * w + 3]
            assert y[pick] == window.max()

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_naive_oracle_bytewise(self, seed):
        # every fourth case integer-valued (ties), one all -inf; integer-valued
        # output gradients keep the oracle's output-order sums exact
        rng = np.random.default_rng(seed)
        dtype = (np.float32, np.float64)[seed % 2]
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                 *(int(e) for e in rng.integers(1, 9, size=3)))
        if seed == 0:
            x = np.full(shape, -np.inf, dtype)
        elif seed % 4 == 1:
            x = rng.integers(-2, 3, size=shape).astype(dtype)
        else:
            x = rng.normal(size=shape).astype(dtype)
        y = ops.maxpool3d(x)
        g = rng.integers(-8, 9, size=y.shape).astype(dtype)
        want_y, _, want_gx = naive_maxpool3d(x, g)
        gx = ops.maxpool3d_backward(g, x, y)
        assert gx.dtype == dtype
        for got, want in ((y, want_y), (gx, want_gx)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_nan_in_window_propagates(self):
        x = np.arange(64, dtype=np.float32).reshape(1, 1, 4, 4, 4)
        x[0, 0, 1, 1, 1] = np.nan
        y = ops.maxpool3d(x)
        g = np.arange(1, 9, dtype=np.float32).reshape(y.shape)
        _, want_idx, want_gx = naive_maxpool3d(x, g)
        gx = ops.maxpool3d_backward(g, x, y)
        # windows t, h, w in {-1, 0, 1} and {1, 2, 3} all hold (1, 1, 1),
        # which collects every output gradient
        assert np.isnan(y).all()
        assert want_idx[0, 0, 0, 0, 0] == 26 and want_idx[0, 0, 1, 1, 1] == 0
        assert gx.tobytes() == want_gx.tobytes()
        assert gx[0, 0, 1, 1, 1] == 36 and np.count_nonzero(gx) == 1

    def test_signed_zero_ties_keep_the_first_element(self):
        # The forward leans on np.maximum(later, earlier) returning its
        # second operand on ties, which numpy does not document.  Along w the
        # windows are {-1, 0, 1}, {1, 2, 3}, {3, 4, 5}: each value must be the
        # bytes of the window's first zero, and the backward must route to it.
        for dtype in (np.float32, np.float64):
            later, earlier = np.zeros(33, dtype), np.full(33, -0.0, dtype)
            assert np.signbit(np.maximum(later, earlier)).all()
            assert not np.signbit(np.maximum(earlier, later)).any()
            for xs, want in (([-0.0, 0.0, 0.0, -0.0, -1.0], [-0.0, 0.0, -0.0]),
                             ([0.0, -0.0, -0.0, 0.0, -1.0], [0.0, -0.0, 0.0])):
                x = np.array(xs, dtype).reshape(1, 1, 1, 1, 5)
                y = ops.maxpool3d(x)
                assert y.ravel().tobytes() == np.array(want, dtype).tobytes()
                g = np.array([1.0, 2.0, 4.0], dtype).reshape(y.shape)
                gx = ops.maxpool3d_backward(g, x, y)
                np.testing.assert_array_equal(gx.ravel(), [1, 2, 0, 4, 0])

    def test_spatial_average(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 2, 2)
        np.testing.assert_allclose(ops.avgpool_spatial(x), [[[[[2.5]]]]])

    def test_spatial_average_of_random_input(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 3, 5, 5))
        y = ops.avgpool_spatial(x)
        assert y.shape == (2, 4, 3, 1, 1)
        np.testing.assert_allclose(y[:, :, :, 0, 0], x.mean(axis=(3, 4)))


class TestBatchNorm:
    def test_train_mode_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 5, 6, 6))
        scale = np.array([1.0, 2.0, 0.5])
        shift = np.array([0.0, -1.0, 4.0])
        y, _, _, _ = ops.batchnorm_forward(x, scale, shift, np.zeros(3),
                                           np.ones(3), "train")
        mean = y.mean(axis=(0, 2, 3, 4))
        var = y.var(axis=(0, 2, 3, 4))
        np.testing.assert_allclose(mean, shift, atol=1e-5)
        np.testing.assert_allclose(var, scale ** 2, rtol=1e-4)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2, 4, 8, 8))
        x -= x.mean(axis=(0, 2, 3, 4), keepdims=True)
        x /= x.std(axis=(0, 2, 3, 4), keepdims=True)
        y, _, _, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                           np.zeros(2), np.ones(2), "train")
        np.testing.assert_allclose(y, x, atol=1e-4)

    def test_running_stats_ema(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=5.0, size=(4, 2, 3, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        _, new_mean, new_var, _ = ops.batchnorm_forward(
            x, np.ones(2), np.zeros(2), rm, rv, "train")
        batch_mean = x.mean(axis=(0, 2, 3, 4))
        np.testing.assert_allclose(new_mean, 0.1 * batch_mean, rtol=1e-12)
        assert np.all(rm == 0)  # inputs untouched

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 3, 4, 4))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        y, _, _, _ = ops.batchnorm_forward(x, np.ones(2), np.zeros(2),
                                           rm, rv, "eval")
        want = (x - rm[None, :, None, None, None]) / np.sqrt(
            rv[None, :, None, None, None] + ops.BN_EPS)
        np.testing.assert_allclose(y, want, rtol=1e-12)

    def test_zero_variance_channel_is_finite(self):
        x = np.full((2, 1, 2, 2, 2), 7.0)
        y, _, _, _ = ops.batchnorm_forward(x, np.ones(1), np.zeros(1),
                                           np.zeros(1), np.ones(1), "train")
        assert np.all(np.isfinite(y))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 3, 3, 3))
        scale = rng.uniform(0.5, 1.5, 2)
        shift = rng.normal(size=2)
        rm, rv = np.zeros(2), np.ones(2)
        go = rng.normal(size=x.shape)
        _, _, _, cache = ops.batchnorm_forward(x, scale, shift, rm, rv, "train")
        gx, gscale, gshift = ops.batchnorm_backward(cache, scale, go)
        eps = 1e-6

        def loss(xx, ss, bb):
            y, _, _, _ = ops.batchnorm_forward(xx, ss, bb, rm, rv, "train")
            return np.sum(y * go)

        pick = (1, 0, 2, 1, 0)
        xp_, xm_ = x.copy(), x.copy()
        xp_[pick] += eps
        xm_[pick] -= eps
        fd = (loss(xp_, scale, shift) - loss(xm_, scale, shift)) / (2 * eps)
        assert abs(fd - gx[pick]) / max(abs(fd), 1e-12) < 1e-5
        sp, sm = scale.copy(), scale.copy()
        sp[1] += eps
        sm[1] -= eps
        fd = (loss(x, sp, shift) - loss(x, sm, shift)) / (2 * eps)
        assert abs(fd - gscale[1]) / max(abs(fd), 1e-12) < 1e-5


class TestElementwiseAndLinear:
    def test_relu_values(self):
        x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 1, 2)
        np.testing.assert_array_equal(ops.relu_forward(x).ravel(), [0.0, 2.0])

    def test_relu_backward_masks(self):
        pre = np.array([-1.0, 0.0, 3.0])
        go = np.ones(3)
        np.testing.assert_array_equal(ops.relu_backward(pre, go), [0, 0, 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_backward_gives_the_bits_of_where(self, dtype):
        """Every pair of special values, in both arrays, then random ones:
        NaN of either sign, signed zeros and infinities, subnormals."""
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                            tiny, -tiny, 3 * tiny, 1.5, -2.0], dtype)
        out, go = (a.reshape(1, 1, 1, len(special), -1)
                   for a in np.meshgrid(special, special))
        rng = np.random.default_rng(9)
        for output, grad in ((out, go), (go, out),
                             (rng.normal(size=(2, 3, 4, 5, 6)).astype(dtype),
                              rng.normal(size=(2, 3, 4, 5, 6)).astype(dtype))):
            got = ops.relu_backward(output, grad)
            want = np.where(output > 0, grad, 0)
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_linear_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        y = ops.linear_forward(x, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(y, x)

    def test_linear_backward_shapes_and_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(2, 3))
        go = rng.normal(size=(5, 2))
        gx, gw, gb = ops.linear_backward(x, w, go)
        np.testing.assert_allclose(gx, go @ w)
        np.testing.assert_allclose(gw, go.T @ x)
        np.testing.assert_allclose(gb, go.sum(axis=0))

    def test_concat_additivity(self):
        rng = np.random.default_rng(2)
        parts = [rng.normal(size=(2, 16, 3, 4, 4)) for _ in range(4)]
        assert ops.concat_channels(parts).shape[1] == 64

    def test_concat_then_split_roundtrip(self):
        rng = np.random.default_rng(3)
        parts = [rng.normal(size=(1, c, 2, 3, 3)) for c in (2, 5, 1)]
        back = ops.split_channels(ops.concat_channels(parts), [2, 5, 1])
        for a, b in zip(parts, back):
            np.testing.assert_array_equal(a, b)

    def test_concat_extent_mismatch_rejected(self):
        a = np.zeros((1, 2, 3, 4, 4))
        b = np.zeros((1, 2, 3, 5, 4))
        with pytest.raises(ShapeError, match="height"):
            ops.concat_channels([a, b])


class TestMacCounter:
    def test_conv_macs_equal_params_times_positions(self):
        rng = np.random.default_rng(0)
        spec = ConvLayerSpec(3, 5, (3, 3, 3), (1, 2, 2), (1, 1, 1))
        x = rng.normal(size=(2, 3, 4, 8, 8))
        w = rng.normal(size=spec.weight_shape)
        counter = ops.MacCounter()
        y = ops.conv3d_forward(x, spec, w, counter=counter)
        positions = y.shape[0] * y.shape[2] * y.shape[3] * y.shape[4]
        assert counter.macs == spec.weight_count * positions

    def test_pointwise_example(self):
        counter = ops.MacCounter()
        spec = ConvLayerSpec(64, 128, (1, 1, 1))
        x = np.zeros((1, 64, 8, 28, 28), dtype=np.float32)
        ops.conv3d_forward(x, spec, np.zeros(spec.weight_shape,
                                             dtype=np.float32),
                           counter=counter)
        assert counter.macs == 8192 * 6272  # 51,380,224 MACs
