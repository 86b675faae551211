"""Block construction rules, execution, and receptive-field behavior."""

import numpy as np
import pytest

from dmsn import ops
from dmsn.blocks import (ADD_RELU, BRANCH_COUNTS, INPUT, UNIT_OPS, VARIANTS,
                         BlockConfigError, BlockSpec, ParamLookupError,
                         RunState, block_backward, block_forward, block_graph,
                         branch_input_gradient, describe_block, main_kind,
                         branch_kind, unit_param_shapes)
from dmsn.model import init_bundle

from helpers import branch_chain_gradient


def block_params(block, seed=0, positive=False):
    params = init_bundle(unit_param_shapes(block_graph(block)), seed)
    if positive:
        for name in params:
            if name.endswith(".w"):
                params[name] = np.abs(params[name])
    return params


def convs(block):
    """The block's conv units by name, as ``block_graph`` builds them."""
    return {name: conv for name, op, conv, _, _ in block_graph(block)
            if op in UNIT_OPS}


def stage(block, role):
    """The ``main`` or ``branch`` convs, in index order."""
    units = convs(block)
    return [units[f"{role}{i}"] for i in range(1, block.branch_count + 1)]


class TestBuildRules:
    def test_default_width_rules_64_to_128(self):
        block = BlockSpec("A", 64, 128, 1, branch_count=4)
        units, main = convs(block), stage(block, "main")
        assert units["reduce"].in_channels == 64
        assert units["reduce"].out_channels == 64  # mid = out / 2
        assert [c.out_channels for c in main] == [32, 32, 32, 32]
        assert main[0].in_channels == 64
        assert all(c.in_channels == 32 for c in main[1:])
        assert all(c.kernel == (3, 1, 1) for c in main)
        assert all(conv.kernel == (1, 3, 3) and conv.out_channels == 16
                   for conv in stage(block, "branch"))
        assert units["fuse"].in_channels == 64
        assert units["fuse"].out_channels == 128
        assert "proj" in units  # 64 != 128 forces a projection

    def test_variant_b_alternation_matches_index_rule(self):
        block = BlockSpec("B", 128, 256, 1, branch_count=4)
        kinds = [("s" if c.kernel == (1, 3, 3) else "t")
                 for c in stage(block, "main")]
        assert kinds == ["s", "t", "s", "t"]
        branch_kinds_got = [("t" if c.kernel == (3, 1, 1) else "s")
                            for c in stage(block, "branch")]
        assert branch_kinds_got == ["t", "s", "t", "s"]
        assert [sources for name, _, _, sources, _ in block_graph(block)
                if name.startswith("branch")] == \
            [("main1",), ("main2",), ("main3",), ("main4",)]

    def test_two_branch_variant_c(self):
        block = BlockSpec("C", 64, 128, 1, branch_count=2)
        main, branch = stage(block, "main"), stage(block, "branch")
        assert len(main) == 2 and "main3" not in convs(block)
        assert all(c.kernel == (1, 3, 3) for c in main)
        assert [c.out_channels for c in branch] == [32, 32]
        assert all(c.kernel == (3, 1, 1) for c in branch)

    def test_concat_width_equals_mid_even_when_indivisible(self):
        block = BlockSpec("A", 128, 128, 1, branch_count=3)
        widths = tuple(c.out_channels for c in stage(block, "branch"))
        assert sum(widths) == convs(block)["reduce"].out_channels  # mid
        assert widths == (22, 21, 21)

    def test_identity_shortcut_rule(self):
        assert "proj" not in convs(BlockSpec("A", 128, 128, 1, branch_count=4))
        assert "proj" in convs(BlockSpec("A", 128, 128, 2, branch_count=4))
        assert "proj" in convs(BlockSpec("A", 64, 128, 1, branch_count=4))

    def test_stride_lives_in_reduce_and_projection_only(self):
        block = BlockSpec("B", 64, 128, 2, branch_count=4)
        units = convs(block)
        assert units["reduce"].stride == (1, 2, 2)
        assert units["proj"].stride == (1, 2, 2)
        assert all(c.stride == (1, 1, 1) for c in stage(block, "main"))
        assert all(c.stride == (1, 1, 1) for c in stage(block, "branch"))

    def test_channel_arithmetic_failures_name_ratio(self):
        with pytest.raises(BlockConfigError, match="not divisible by 2"):
            BlockSpec("A", 16, 30, 1, branch_count=4)
        with pytest.raises(BlockConfigError, match="branches"):
            BlockSpec("A", 4, 4, 1, branch_count=4)
        with pytest.raises(BlockConfigError, match="variant"):
            BlockSpec("D", 16, 32, 1, branch_count=4)
        with pytest.raises(BlockConfigError, match="branch_count"):
            BlockSpec("A", 16, 32, 1, branch_count=5)

    def test_a_and_c_swap_kernel_domains(self):
        a = BlockSpec("A", 32, 64, 1, branch_count=4)
        c = BlockSpec("C", 32, 64, 1, branch_count=4)
        for ca, cc in zip(stage(a, "main"), stage(c, "main")):
            assert ca.kernel == (3, 1, 1) and cc.kernel == (1, 3, 3)
            assert (ca.in_channels, ca.out_channels) == \
                   (cc.in_channels, cc.out_channels)
        for ba, bc in zip(stage(a, "branch"), stage(c, "branch")):
            assert ba.kernel == (1, 3, 3) and bc.kernel == (3, 1, 1)
            assert (ba.in_channels, ba.out_channels) == \
                   (bc.in_channels, bc.out_channels)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("branch_count", BRANCH_COUNTS)
    @pytest.mark.parametrize("in_c, out_c, stride, identity", [
        (16, 16, 1, True), (16, 16, 2, False), (8, 16, 1, False),
        (8, 16, 2, False)])
    def test_every_conv_reads_its_sources_summed_width(
            self, variant, branch_count, in_c, out_c, stride, identity):
        block = BlockSpec(variant, in_c, out_c, stride, branch_count)
        graph = block_graph(block)
        widths = {INPUT: in_c}
        for name, op, conv, sources, _ in graph[:-1]:
            assert conv.in_channels == sum(widths[s] for s in sources), name
            widths[name] = conv.out_channels
        assert convs(block)["fuse"].in_channels == out_c // 2
        name, op, _, sources, _ = graph[-1]
        assert (name, op) == ("sum", ADD_RELU)
        assert sources == ("fuse", INPUT if identity else "proj")
        assert ("proj" not in widths) == identity


class TestForward:
    def test_zero_weights_zero_input_gives_zero(self):
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        params = {k: np.zeros(s)
                  for k, s in unit_param_shapes(block_graph(block)).items()}
        for k in params:
            if k.endswith(".var"):
                params[k] = np.ones_like(params[k])
        x = np.zeros((1, 8, 4, 6, 6))
        y = block_forward(block, params, x, RunState("eval"))
        np.testing.assert_array_equal(y, 0.0)

    def test_output_dims_full_width_block(self):
        block = BlockSpec("A", 64, 128, 1, branch_count=4)
        params = block_params(block, seed=1)
        x = np.random.default_rng(0).normal(size=(1, 64, 8, 28, 28))
        y = block_forward(block, params, x, RunState("eval"))
        assert y.shape == (1, 128, 8, 28, 28)

    def test_spatial_stride_halves_extents(self):
        block = BlockSpec("C", 8, 16, 2, branch_count=4)
        params = block_params(block)
        x = np.random.default_rng(1).normal(size=(2, 8, 4, 8, 8))
        y = block_forward(block, params, x, RunState("eval"))
        assert y.shape == (2, 16, 4, 4, 4)

    def test_matches_hand_composed_sequence(self):
        # straight-line composition from tensor-core calls, eval mode
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        params = block_params(block, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 8, 5, 6, 6))

        def unit(name, conv, value, act=True):
            value = ops.conv3d_forward(value, conv, params[f"{name}.w"])
            value, _, _, _ = ops.batchnorm_forward(
                value, params[f"{name}.scale"], params[f"{name}.shift"],
                params[f"{name}.mean"], params[f"{name}.var"], "eval")
            return ops.relu_forward(value) if act else value

        c = convs(block)
        r = unit("reduce", c["reduce"], x)
        m1 = unit("main1", c["main1"], r)
        m2 = unit("main2", c["main2"], m1)
        m3 = unit("main3", c["main3"], m2)
        m4 = unit("main4", c["main4"], m3)
        b1 = unit("branch1", c["branch1"], m1)
        b2 = unit("branch2", c["branch2"], m2)
        b3 = unit("branch3", c["branch3"], m3)
        b4 = unit("branch4", c["branch4"], m4)
        fused = unit("fuse", c["fuse"],
                     ops.concat_channels([b1, b2, b3, b4]), act=False)
        short = unit("proj", c["proj"], x, act=False)
        want = ops.relu_forward(fused + short)
        got = block_forward(block, params, x, RunState("eval"))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_learned_weights_pass_residual_through(self):
        block = BlockSpec("B", 16, 16, 1, branch_count=4)
        assert "proj" not in convs(block)
        params = block_params(block, seed=5)
        for name in list(params):
            if name.endswith((".w", ".shift")):
                params[name] = np.zeros_like(params[name])
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 16, 4, 5, 5))
        y = block_forward(block, params, x, RunState("eval"))
        np.testing.assert_allclose(y, ops.relu_forward(x), atol=1e-12)

    def test_eval_forward_bitwise_deterministic(self):
        block = BlockSpec("C", 8, 16, 1, branch_count=4)
        params = block_params(block, seed=7)
        x = np.random.default_rng(8).normal(size=(1, 8, 4, 6, 6))
        y1 = block_forward(block, params, x, RunState("eval"))
        y2 = block_forward(block, params, x, RunState("eval"))
        assert y1.tobytes() == y2.tobytes()

    def test_wrong_channel_count_rejected(self):
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        with pytest.raises(ops.ShapeError, match="channels"):
            block_forward(block, block_params(block),
                          np.zeros((1, 4, 4, 6, 6)), RunState("eval"))

    def test_non_5d_input_rejected_before_the_graph_is_built(self):
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        with pytest.raises(ops.ShapeError, match="5-d"):
            block_forward(block, block_params(block), np.zeros((1, 8, 6, 6)),
                          RunState("eval"))

    def test_missing_param_names_layer(self):
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        params = block_params(block)
        del params["main2.w"]
        with pytest.raises(ParamLookupError, match="main2.w"):
            block_forward(block, params, np.zeros((1, 8, 4, 6, 6)),
                          RunState("eval"))

    def test_backward_grad_shapes_match(self):
        block = BlockSpec("B", 8, 16, 2, branch_count=4)
        params = block_params(block, seed=9)
        x = np.random.default_rng(10).normal(size=(2, 8, 4, 8, 8))
        state = RunState(mode="train", cache={})
        y = block_forward(block, params, x, state)
        gx, grads = block_backward(block, params, state.cache,
                                   np.ones_like(y))
        assert gx.shape == x.shape
        for name, grad in grads.items():
            assert grad.shape == params[name].shape


def support(grad, axis):
    """Indices along ``axis`` at which ``grad`` has a nonzero entry."""
    others = tuple(a for a in range(grad.ndim) if a != axis)
    return np.flatnonzero(np.abs(grad).max(axis=others) > 0)


class TestReceptiveFields:
    def test_tap_out_of_range(self):
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        x = np.ones((1, 8, 4, 4, 4))
        with pytest.raises(BlockConfigError, match="tap 5"):
            branch_input_gradient(block, block_params(block), x, 5)

    def test_kind_helpers_cover_all_variants(self):
        assert [main_kind("B", i) for i in (1, 2, 3, 4)] == ["s", "t", "s", "t"]
        assert [branch_kind("B", j) for j in (1, 2, 3, 4)] == \
            ["t", "s", "t", "s"]
        assert main_kind("A", 3) == "t" and branch_kind("A", 3) == "s"
        assert main_kind("C", 2) == "s" and branch_kind("C", 2) == "t"

    @pytest.mark.parametrize("tap", [1, 2, 3, 4])
    def test_impulse_support_variant_a(self, tap):
        # positive weights + positive input keep every rectifier open, so the
        # gradient support equals the receptive field exactly
        block = BlockSpec("A", 8, 16, 1, branch_count=4)
        params = block_params(block, seed=11, positive=True)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.5, 1.5, size=(1, 8, 16, 9, 9))
        grad = branch_input_gradient(block, params, x, tap)
        frames = support(grad, 2)
        assert len(frames) == 2 * tap + 1
        assert frames.max() - frames.min() == 2 * tap
        assert len(support(grad, 4)) == 3

    @pytest.mark.parametrize("tap", [1, 2, 3, 4])
    def test_impulse_support_variant_c(self, tap):
        block = BlockSpec("C", 8, 16, 1, branch_count=4)
        params = block_params(block, seed=13, positive=True)
        rng = np.random.default_rng(14)
        x = rng.uniform(0.5, 1.5, size=(1, 8, 9, 16, 16))
        grad = branch_input_gradient(block, params, x, tap)
        assert len(support(grad, 3)) == len(support(grad, 4)) == 2 * tap + 1
        assert len(support(grad, 2)) == 3

    @pytest.mark.parametrize("tap, frames, rows", [
        (1, 3, 3), (2, 3, 5), (3, 5, 5), (4, 5, 7)])
    def test_impulse_support_variant_b(self, tap, frames, rows):
        # the Main Stage alternates spatial and temporal, so the two fields
        # grow in turn
        block = BlockSpec("B", 8, 16, 1, branch_count=4)
        params = block_params(block, seed=17, positive=True)
        x = np.random.default_rng(18).uniform(0.5, 1.5, size=(1, 8, 12, 12, 12))
        grad = branch_input_gradient(block, params, x, tap)
        assert len(support(grad, 2)) == frames
        assert len(support(grad, 3)) == len(support(grad, 4)) == rows


@pytest.mark.parametrize("variant", ["A", "B", "C"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_branch_input_gradient_matches_chain_oracle_bytewise(variant, dtype):
    block = BlockSpec(variant, 8, 16, 1, branch_count=4)
    params = block_params(block, seed=15)
    x = np.random.default_rng(16).normal(size=(2, 8, 5, 7, 7)).astype(dtype)
    for tap in range(1, block.branch_count + 1):
        got = branch_input_gradient(block, params, x, tap)
        want = branch_chain_gradient(block, params, x, tap)
        assert got.dtype == want.dtype == dtype, tap
        assert got.tobytes() == want.tobytes(), tap


def test_describe_block_lists_every_unit():
    block = BlockSpec("B", 64, 128, 2, branch_count=4)
    lines = describe_block(block, "res3.1.")
    text = "\n".join(lines)
    for token in ("res3.1.reduce", "res3.1.main4", "res3.1.branch1",
                  "res3.1.fuse", "res3.1.proj", "64->64", "64->128"):
        assert token in text
