"""Shared test utilities: independent oracles and tiny fixtures."""

import numpy as np

from dmsn.blocks import RunState, unit_backward, unit_forward
from dmsn.ops import (POOL_GEOMETRY, ConvLayerSpec, conv_output_shape,
                      window_output_shape)
from dmsn.pipeline import BUMP_SIGMA, VideoRecord, _synth_radius
from dmsn.training import (ADAM_BETAS, ADAM_EPS, SGD_MOMENTUM, WEIGHT_DECAY,
                           _NO_DECAY_SUFFIXES)


def naive_conv3d(x, spec: ConvLayerSpec, weights, bias=None):
    """Direct-summation convolution oracle: loop every output element and sum
    its window product.  Deliberately independent of the library kernels."""
    n, co, to, ho, wo = conv_output_shape(x.shape, spec)
    pt, ph, pw = spec.padding
    st, sh, sw = spec.stride
    kt, kh, kw = spec.kernel
    xp = np.pad(x.astype(np.float64),
                ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    w64 = weights.astype(np.float64)
    out = np.zeros((n, co, to, ho, wo))
    for b in range(n):
        for o in range(co):
            for ti in range(to):
                for hi in range(ho):
                    for wi in range(wo):
                        window = xp[b, :,
                                    ti * st:ti * st + kt,
                                    hi * sh:hi * sh + kh,
                                    wi * sw:wi * sw + kw]
                        out[b, o, ti, hi, wi] = np.sum(window * w64[o])
    if bias is not None:
        out += bias.astype(np.float64)[None, :, None, None, None]
    return out.astype(x.dtype)


def random_conv_case(rng, dtype=np.float32, temporal=False, spatial=False):
    """A random micro conv geometry plus matching input/weights."""
    in_c = int(rng.integers(1, 4))
    out_c = int(rng.integers(1, 5))
    if temporal:
        kernel = (int(rng.integers(1, 4)), 1, 1)
    elif spatial:
        k = int(rng.integers(1, 4))
        kernel = (1, k, k)
    else:
        kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
    stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
    padding = tuple(int(rng.integers(0, 2)) for _ in range(3))
    spec = ConvLayerSpec(in_c, out_c, kernel, stride, padding)
    t = int(rng.integers(kernel[0], kernel[0] + 4))
    h = int(rng.integers(kernel[1], kernel[1] + 5))
    w = int(rng.integers(kernel[2], kernel[2] + 5))
    x = rng.normal(size=(int(rng.integers(1, 3)), in_c, t, h, w)).astype(dtype)
    weights = rng.normal(size=spec.weight_shape).astype(dtype)
    return spec, x, weights


def naive_maxpool3d(x, grad_out):
    """Direct-loop oracle for the ``POOL_GEOMETRY`` max pool and its backward.

    Returns ``(y, argmax, grad_x)``: each output's max over its -inf padded
    window, the flat ``(dt, dh, dw)`` offset of the first element holding it
    (the first NaN if the window holds one), and ``grad_out`` scattered output
    by output onto those elements.  The scatter sums in output order, so it
    matches the library's bytes only where the sums are exact.
    """
    (kt, kh, kw), (st, sh, sw), (pt, ph, pw) = POOL_GEOMETRY
    n, c, to, ho, wo = window_output_shape(x.shape, *POOL_GEOMETRY)
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)),
                constant_values=-np.inf)
    gxp = np.zeros(xp.shape, dtype=grad_out.dtype)
    y = np.empty((n, c, to, ho, wo), dtype=x.dtype)
    argmax = np.empty((n, c, to, ho, wo), dtype=np.intp)
    for b, ch, ti, hi, wi in np.ndindex(n, c, to, ho, wo):
        best, best_at = None, None
        for flat, (dt, dh, dw) in enumerate(np.ndindex(kt, kh, kw)):
            at = (b, ch, ti * st + dt, hi * sh + dh, wi * sw + dw)
            v = xp[at]
            if best is None or not np.isnan(best) and (np.isnan(v)
                                                       or v > best):
                best, best_at, argmax[b, ch, ti, hi, wi] = v, at, flat
        y[b, ch, ti, hi, wi] = best
        gxp[best_at] += grad_out[b, ch, ti, hi, wi]
    return y, argmax, gxp[:, :, pt:pt + x.shape[2], ph:ph + x.shape[3],
                          pw:pw + x.shape[4]]


def branch_chain_gradient(spec, params, x, tap):
    """Oracle for ``blocks.branch_input_gradient``: the gradient of branch
    ``tap``'s output element at the center (summed over channels) w.r.t. x.

    Runs only the units on the chain ``reduce -> main1..main{tap} ->
    branch{tap}``, one by one in eval mode, seeds a one-hot at the output
    center and backpropagates unit by unit in reverse; no block graph.
    """
    branch_tap, branch = spec.branches[tap - 1]
    chain = [("reduce", spec.reduce)]
    chain += [(f"main{i}", conv) for i, conv
              in enumerate(spec.main_stage[:branch_tap], start=1)]
    chain.append((f"branch{tap}", branch))
    state = RunState(mode="eval", cache={})
    out = x
    for name, conv in chain:
        out = unit_forward(name, conv, True, params, out, state)
    grad = np.zeros_like(out)
    grad[:, :, out.shape[2] // 2, out.shape[3] // 2, out.shape[4] // 2] = 1.0
    for name, conv in reversed(chain):
        grad = unit_backward(name, conv, True, params, state.cache, grad, {},
                             need_input_grad=True)
    return grad


def reference_optimizer_step(params, grads, state):
    """Oracle for ``training.sgd_step`` / ``adam_step``: one entry at a time,
    a fresh slot array per entry, as the optimizers were first written.

    ``state.slots`` gets each entry's float64 slot (``v`` for SGD, ``(m, v)``
    for Adam), None before its first step.
    """
    b1, b2 = ADAM_BETAS
    t = state.step_count + 1

    def sgd(g, v):
        v = g if v is None else SGD_MOMENTUM * v + g
        return state.lr * v, v

    def adam(g, slot):
        m, v = (np.zeros_like(g), np.zeros_like(g)) if slot is None else slot
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        return state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), (m, v)

    update = {"sgd": sgd, "adam": adam}[state.kind]
    out = dict(params)
    for name, grad in grads.items():
        theta = params[name]
        if grad.shape != theta.shape:
            raise ValueError(f"{name}: grad shape {grad.shape} != param shape "
                             f"{theta.shape}")
        g = grad.astype(np.float64, copy=False)
        if not name.endswith(_NO_DECAY_SUFFIXES):
            g = g + WEIGHT_DECAY * theta.astype(np.float64, copy=False)
        step, state.slots[name] = update(g, state.slots.get(name))
        out[name] = (theta - step).astype(theta.dtype, copy=False)
    state.step_count += 1
    return out


def naive_synth_video(cfg, rng, subject, video):
    """Oracle for ``pipeline._synth_video``: the generator as first written,
    one frame's bump at a time, each channel a float64 product stored into
    the float32 clip.  Draws from ``rng`` in the library's order."""
    label = float(rng.uniform(cfg.label_min, cfg.label_max))
    radius = _synth_radius(cfg)
    step = cfg.step_per_unit * label
    dtheta = 2.0 * np.arcsin(step / (2.0 * radius))
    theta0 = rng.uniform(0, 2 * np.pi)
    cy = cfg.height / 2.0 + rng.uniform(-1.0, 1.0)
    cx = cfg.width / 2.0 + rng.uniform(-1.0, 1.0)
    amplitude = rng.uniform(0.5, 1.0, size=3)
    ys = np.arange(cfg.height, dtype=np.float64)[:, None]
    xs = np.arange(cfg.width, dtype=np.float64)[None, :]
    data = np.empty((3, cfg.clip_len, cfg.height, cfg.width),
                    dtype=np.float32)
    for t in range(cfg.clip_len):
        theta = theta0 + t * dtheta
        py = cy + radius * np.sin(theta)
        px = cx + radius * np.cos(theta)
        bump = np.exp(-((ys - py) ** 2 + (xs - px) ** 2)
                      / (2.0 * BUMP_SIGMA ** 2))
        for ch in range(3):
            data[ch, t] = amplitude[ch] * bump
    return VideoRecord(subject, video, data, "video", video_label=label)
