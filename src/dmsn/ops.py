"""Dense 5-D tensor kernels: convolution, pooling, normalization, linear.

Every activation tensor is a numpy array laid out ``(batch, channels, time,
height, width)``, row-major.  Kernels compute in the dtype of their activation
input: float32 clips run float32 GEMMs and elementwise passes, and float64
inputs (as gradient checks feed them) stay float64 throughout.  Weights are
cast to the activation dtype once per call.  Per-channel reductions (batchnorm
moments and gradient sums, pooling means) accumulate in float64 without
upcasting the tensor.  Parameter gradients and running statistics come back
in the parameter dtype.

A conv forward reduces one temporal tap per GEMM (:func:`_correlate`), each
GEMM splits its reduction axis at fixed offsets (``_GEMM_DEPTH``), and the
pieces are added in order, so a float32 forward pass gives the same bytes at
1 and 2 BLAS threads, and the conv backward splits its GEMMs alike.  (Float64
GEMMs on OpenBLAS 0.3.31 can differ between thread counts at any depth.)  The
conv backward gives input and weight gradients, no bias gradient.  At stride
1 the input gradient needs no scatter: it is the forward lowering of the
output gradient's windows with the flipped, channel-swapped kernel, and the
weight gradient comes from the same windows.  Temporal convs with ``kt > 1``
and strided convs scatter window gradients tap by tap (:func:`_col2im`).

A window gather (:func:`_taps`: the forward's of ``x``, the backward's of
``x`` or of the padded ``grad_out``) whose batch would take more than
``_GATHER_BYTES`` runs a group of whole samples at a time, as many as fit
the budget and one at least (:func:`_sample_groups`): the desk stem's 7x7x7
windows are gathered one sample at a time, 2.1 MB each instead of 16.9 MB
for a batch of 8.  A batch that fits is one group.  The bytes do not depend
on the grouping.  numpy's batched matmul makes one GEMM call per sample, so
the groups make the calls the whole batch did, each group writing its samples
of one preallocated output; the weight gradient adds the per-sample products
into one accumulator one sample at a time in sample order, the order in
which a sum over the batch axis adds them.

A gather that copies windows of at most ``_INDEX_GATHER_BYTES`` per sample
(every desk gather but the stem's) reads them with one ``take`` through an
index plan instead (:func:`_gathers`), with the same bytes: a strided copy
whose output rows hold a few elements runs several times slower.  A conv
call's geometry and argument checks are worked out once per shape
(:func:`_conv_geometry`).

The max pool forward is separable and keeps only values; its backward makes
one pass per kernel offset over strided views.  A window holding a NaN pools
to NaN.

All functions are pure with respect to their array arguments, except two that
write into an array their caller owns: :func:`batchnorm_eval_inplace`
normalizes its input, and :func:`relu_forward` rectifies into ``out`` when
given one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# the model's one max pool: (kernel, stride, padding)
POOL_GEOMETRY = ((3, 3, 3), (2, 2, 2), (1, 1, 1))
AXIS_NAMES = ("batch", "channel", "time", "height", "width")


class ShapeError(ValueError):
    """Tensor extents disagree with a layer's declared geometry."""


class GeometryError(ValueError):
    """A layer's geometry produces an empty output extent."""


def check_tensor5(x: np.ndarray) -> None:
    if not isinstance(x, np.ndarray) or x.ndim != 5:
        raise ShapeError("input must be a 5-d array (n, c, t, h, w), got "
                         f"{getattr(x, 'shape', None)}")
    if 0 in x.shape:
        raise ShapeError(f"input has an empty extent: {x.shape}")


@dataclass(frozen=True)
class ConvLayerSpec:
    """Geometry of one convolution: kernel, stride, padding, channel map."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError(f"channel extents must be >= 1, got "
                             f"{self.in_channels}->{self.out_channels}")
        if any(k < 1 for k in self.kernel):
            raise ShapeError(f"kernel extents must be >= 1, got {self.kernel}")
        if any(s < 1 for s in self.stride):
            raise ShapeError(f"stride extents must be >= 1, got {self.stride}")
        if any(p < 0 for p in self.padding):
            raise ShapeError(f"padding must be >= 0, got {self.padding}")

    @property
    def is_temporal(self) -> bool:
        return self.kernel[1] == 1 and self.kernel[2] == 1

    @property
    def is_pointwise(self) -> bool:
        return self.kernel == (1, 1, 1)

    @property
    def weight_shape(self) -> tuple[int, int, int, int, int]:
        return (self.out_channels, self.in_channels) + self.kernel

    @property
    def weight_count(self) -> int:
        kt, kh, kw = self.kernel
        return self.out_channels * self.in_channels * kt * kh * kw


class MacCounter:
    """Tallies the multiply-accumulates actually issued by conv/linear kernels."""

    def __init__(self):
        self.macs = 0

    def add(self, count: int) -> None:
        self.macs += int(count)


def out_extent(size: int, kernel: int, stride: int, padding: int, axis: str) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise GeometryError(
            f"{axis} axis: extent {size} with kernel {kernel}, stride {stride}, "
            f"padding {padding} gives empty output")
    return out


def window_output_shape(x_shape, kernel, stride, padding) -> tuple:
    """``x_shape`` with its (t, h, w) extents slid over by a window."""
    return tuple(x_shape[:2]) + tuple(map(
        out_extent, x_shape[2:], kernel, stride, padding, AXIS_NAMES[2:]))


def conv_output_shape(x_shape, spec: ConvLayerSpec) -> tuple[int, int, int, int, int]:
    n, _, t, h, w = window_output_shape(x_shape, spec.kernel, spec.stride,
                                        spec.padding)
    return n, spec.out_channels, t, h, w


# Deepest GEMM reduction that gives the same float32 bytes at 1 and 2 BLAS
# threads: with OpenBLAS 0.3.31, sgemm with 448 < K <= 512 differs between
# thread counts for most K, and K <= 448 matched on 600 random shapes.
_GEMM_DEPTH = 448


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with the reduction axis cut at multiples of ``_GEMM_DEPTH``
    and the partial products added in order."""
    out = a[..., :_GEMM_DEPTH] @ b[..., :_GEMM_DEPTH, :]
    for k in range(_GEMM_DEPTH, a.shape[-1], _GEMM_DEPTH):
        out += a[..., k:k + _GEMM_DEPTH] @ b[..., k:k + _GEMM_DEPTH, :]
    return out


def _pad5(x: np.ndarray, padding, value=0.0) -> np.ndarray:
    pt, ph, pw = padding
    if pt == 0 and ph == 0 and pw == 0:
        return x
    n, c, t, h, w = x.shape
    shape = (n, c, t + 2 * pt, h + 2 * ph, w + 2 * pw)
    # np.zeros is the C call; np.full is a Python wrapper around a fill
    xp = (np.zeros(shape, x.dtype) if value == 0
          else np.full(shape, value, x.dtype))
    _crop5(xp, padding, x.shape)[...] = x
    return xp


def _crop5(xp: np.ndarray, padding, shape) -> np.ndarray:
    """The interior of a padded buffer: the inverse of :func:`_pad5`."""
    pt, ph, pw = padding
    _, _, t, h, w = shape
    return xp[:, :, pt:pt + t, ph:ph + h, pw:pw + w]


def _taps(xp: np.ndarray, kernel, stride, out_tail) -> np.ndarray:
    """Gather the ``(c*kh*kw)`` spatial windows of every padded frame once
    (:func:`_windows`) and return what each temporal tap meets in them
    (:func:`_tap_views`)."""
    return _tap_views(_windows(xp, kernel, stride, out_tail), kernel[0],
                      stride[0], out_tail)


def _windows(xp: np.ndarray, kernel, stride, out_tail) -> np.ndarray:
    """The ``(c*kh*kw)`` spatial windows of every padded frame, as a
    contiguous ``(n, c*kh*kw, t_pad*ho*wo)``: a copy of a strided view of
    ``xp``, or for a conv 1 wide, unpadded and unstrided in h and w a view of
    the input."""
    xp = np.ascontiguousarray(xp)
    n, c, t_pad = xp.shape[:3]
    _, kh, kw = kernel
    _, sh, sw = stride
    _, ho, wo = out_tail
    sn, sc, s0, s1, s2 = xp.strides
    # The view np.lib.stride_tricks.as_strided would make, at a fifth of its
    # cost (~1.5 vs ~8 us), which counts on the small convs of a desk step.
    view = np.ndarray((n, c, kh, kw, t_pad, ho, wo), xp.dtype, xp, 0,
                      (sn, sc, s1, s2, s0, s1 * sh, s2 * sw))
    view.flags.writeable = False
    # Contiguous, as the tap views need; this is where windows are copied.
    return np.ascontiguousarray(view.reshape(n, c * kh * kw, t_pad * ho * wo))


def _tap_views(cols: np.ndarray, kt: int, st: int, out_tail) -> np.ndarray:
    """What each temporal tap meets in the contiguous windows ``cols``,
    ``(n, c*kh*kw, t_pad*ho*wo)``, as ``(kt, n, c*kh*kw, to*ho*wo)``: tap
    ``dt`` reads frames ``dt, dt + st, ..., dt + st*(to-1)``, its rows match
    ``weights[:, :, dt]`` reshaped to ``(out_c, c*kh*kw)``, and
    ``W @ tap[i]`` is sample ``i``'s output in NCTHW order.  At temporal
    stride 1 the taps are views of ``cols``."""
    n, rows = cols.shape[:2]
    to, ho, wo = out_tail
    sn, sr = cols.strides[:2]
    sf = ho * wo * cols.itemsize                # one frame
    taps = np.ndarray((kt, n, rows, to, ho * wo), cols.dtype, cols, 0,
                      (sf, sn, sr, sf * st, cols.itemsize))
    return taps.reshape(kt, n, rows, to * ho * wo)


def _im2col(xp: np.ndarray, kernel, stride, out_tail) -> np.ndarray:
    """The windows of :func:`_taps` as ``(n*to*ho*wo, c*kt*kh*kw)``, one row
    per output position in ``(c, kt, kh, kw)`` order, for a
    ``(out_c, c*kt*kh*kw)`` reshaped kernel.  The kernels do not use this
    layout; ``perfbench/selftest.py`` builds its reference float32 conv on it.
    """
    taps = _taps(xp, kernel, stride, out_tail)
    kt, n, _, p = taps.shape
    return taps.reshape(kt, n, -1, kernel[1] * kernel[2], p).transpose(
        1, 4, 2, 0, 3).reshape(n * p, -1)


# Bytes one :func:`_taps` gather may take: a batch whose windows take more is
# gathered, and its GEMMs run, a group of whole samples at a time.
_GATHER_BYTES = 1 << 22
# Bytes of one sample's windows up to which a gather that copies takes them
# through an index plan (:func:`_window_index`).  A strided copy whose output
# rows hold 1-8 elements, as the desk's res3-res5 convs' do, runs at ~5 ns
# per element, several times slower than ``take``.  Larger gathers stay
# strided: full-width res2's long rows copy 3x faster that way, and plans for
# the full-width convs raised eval-full's peak RSS by ~17 MB.  The desk's
# largest planned gather takes 72 KiB a sample; its stem (2.1 MB) and the
# smallest copying full-width gather (256 KiB) stay strided.
_INDEX_GATHER_BYTES = 1 << 17


def _sample_groups(n: int, sample_bytes: int) -> list[slice]:
    """Slices of ``n`` samples, in order, each as many whole samples as one
    gather of ``sample_bytes`` per sample can take within ``_GATHER_BYTES``
    (one at least), so a batch that fits is one slice over it all."""
    step = max(1, _GATHER_BYTES // sample_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


@functools.lru_cache(maxsize=256)
def _window_index(shape, kernel, stride, padding, out_tail) -> np.ndarray:
    """The index plan of a gather: for one sample of ``shape`` ``(c, t, h,
    w)``, flattened with one zero appended, the position each value of its
    :func:`_taps` windows is read from, in their order; a window value in
    the padding reads the zero.  Read-only, and built once per geometry."""
    size = math.prod(shape)
    at = np.arange(size).reshape((1,) + shape)
    index = _windows(_pad5(at, padding, value=size), kernel, stride,
                     out_tail).reshape(-1)
    index.flags.writeable = False
    return index


def _gathers(a: np.ndarray, kernel, stride, padding, out_tail):
    """Yield ``(s, taps)``: the :func:`_taps` of ``a`` padded by ``padding``,
    a group of whole samples ``s`` at a time (:func:`_sample_groups`).

    A gather that copies (``kh*kw > 1`` or a spatial stride above 1) with at
    most ``_INDEX_GATHER_BYTES`` of windows per sample does not pad ``a``:
    each group's windows are one ``take`` through the index plan
    (:func:`_window_index`) from ``a``'s samples, flattened, each with one
    zero appended.  The bytes are those of the strided copy.
    """
    n, c, t = a.shape[:3]
    kt, kh, kw = kernel
    rows = c * kh * kw
    row = (t + 2 * padding[0]) * out_tail[1] * out_tail[2]
    sample = rows * row * a.itemsize
    groups = _sample_groups(n, sample)
    if ((kh * kw > 1 or stride[1] * stride[2] > 1)
            and sample <= _INDEX_GATHER_BYTES):
        index = _window_index(a.shape[1:], kernel, stride, padding, out_tail)
        flat = np.empty((n, a[0].size + 1), a.dtype)
        flat[:, -1] = 0
        flat[:, :-1].reshape(a.shape)[...] = a   # a view: rows are contiguous
        for s in groups:
            yield s, _tap_views(flat[s].take(index, axis=1).reshape(
                -1, rows, row), kt, stride[0], out_tail)
    else:
        xp = _pad5(a, padding)
        for s in groups:
            yield s, _taps(xp[s], kernel, stride, out_tail)


def _place(out, part: np.ndarray, s: slice, n: int) -> np.ndarray:
    """A group's result written to samples ``s`` of the ``n``-sample output,
    which the first group allocates; a group of all ``n`` samples is the
    output itself."""
    if len(part) == n:
        return part
    if out is None:
        out = np.empty((n,) + part.shape[1:], part.dtype)
    out[s] = part
    return out


def _add_samples(acc, part: np.ndarray) -> np.ndarray:
    """``acc`` plus the per-sample products ``part[:, i]``, added one sample
    at a time in sample order, which is how ``part.sum(axis=1)`` adds them:
    a batch summed in groups gives the bytes of one sum over the batch.
    ``acc`` None starts the sum."""
    if acc is None:
        return part.sum(axis=1)
    for i in range(part.shape[1]):
        acc += part[:, i]
    return acc


def _correlate(taps: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The forward lowering over the ``(kt, n, c*kh*kw, P)`` taps of
    :func:`_taps`: tap ``dt`` is one GEMM of ``weights[:, :, dt]`` with what
    it meets, and the taps' products are added in tap order.  Returns
    ``(n, out_c, P)`` in the dtype of ``taps``."""
    w = weights.astype(taps.dtype, copy=False).transpose(2, 0, 1, 3, 4).reshape(
        len(taps), weights.shape[0], -1)        # w[dt] = weights[:, :, dt]
    y = _gemm(w[0], taps[0])
    for dt in range(1, len(taps)):
        y += _gemm(w[dt], taps[dt])
    return y


def _col2im(gcols: np.ndarray, x_shape, kernel, stride, padding, out_tail):
    """The adjoint of :func:`_im2col` over :func:`_pad5`: scatter-add window
    gradients ``(n, c*kt*kh*kw, to*ho*wo)`` onto a zero padded input, offset
    by offset, and return its ``x_shape`` interior."""
    n, c, t, h, w = x_shape
    pt, ph, pw = padding
    st, sh, sw = stride
    to, ho, wo = out_tail
    gxp = np.zeros((n, c, t + 2 * pt, h + 2 * ph, w + 2 * pw), gcols.dtype)
    g8 = gcols.reshape((n, c) + tuple(kernel) + tuple(out_tail))
    for dt, dh, dw in np.ndindex(*kernel):
        gxp[:, :, dt:dt + st * to:st, dh:dh + sh * ho:sh,
            dw:dw + sw * wo:sw] += g8[:, :, dt, dh, dw]
    return _crop5(gxp, padding, x_shape)


@functools.lru_cache(maxsize=1024)
def _conv_geometry(spec: ConvLayerSpec, x_shape, w_shape):
    """``(output shape, flipped-kernel padding)`` of ``spec`` on a 5-d input
    of ``x_shape`` with weights of ``w_shape``, after checking them.  Worked
    out once per shape: the cache keeps only what returns, so a bad shape
    raises on every call."""
    if x_shape[1] != spec.in_channels:
        raise ShapeError(f"channel axis: input has {x_shape[1]} channels, "
                         f"layer expects {spec.in_channels}")
    if w_shape != spec.weight_shape:
        raise ShapeError(f"weights shape {w_shape} does not match "
                         f"spec {spec.weight_shape}")
    return conv_output_shape(x_shape, spec), _flip_pad(spec)


def conv3d_forward(x: np.ndarray, spec: ConvLayerSpec, weights: np.ndarray,
                   bias: np.ndarray | None = None,
                   counter: MacCounter | None = None) -> np.ndarray:
    """Cross-correlate ``x`` with ``weights``, in the dtype of ``x``.

    Lowered per temporal tap (:func:`_correlate`): the spatial windows of
    every padded frame are gathered once, tap ``dt`` is one GEMM of
    ``weights[:, :, dt]`` with the frames it meets, and the taps' products
    are added in tap order.  At temporal stride 1 each tap is a view of the
    one gather.  A batch whose gather would exceed ``_GATHER_BYTES`` is
    gathered and multiplied a group of whole samples at a time, with the same
    bytes (:func:`_gathers`).  ``bias`` is added per output channel;
    no model conv has one, and its gradient is ``grad_out`` summed over every
    axis but channels.
    """
    check_tensor5(x)
    (n, co, to, ho, wo), _ = _conv_geometry(spec, x.shape, weights.shape)
    if bias is not None and bias.shape != (co,):
        raise ShapeError(f"bias shape {bias.shape}, expected ({co},)")
    y = None
    for s, taps in _gathers(x, spec.kernel, spec.stride, spec.padding,
                            (to, ho, wo)):
        y = _place(y, _correlate(taps, weights), s, n)
        del taps            # before the next group's gather
    if counter is not None:
        counter.add(n * spec.weight_count * to * ho * wo)
    if bias is not None:
        y += bias.astype(x.dtype)[:, None]
    return y.reshape(n, co, to, ho, wo)


def _flip_pad(spec: ConvLayerSpec):
    """The padding ``k - 1 - p`` of the flipped-kernel forward that gives a
    stride-1 conv its gradients, or None for a strided conv, a temporal conv
    with ``kt > 1`` or a padding as wide as the kernel."""
    if (spec.stride != (1, 1, 1) or (spec.is_temporal and not spec.is_pointwise)
            or any(p >= k for p, k in zip(spec.padding, spec.kernel))):
        return None
    return tuple(k - 1 - p for p, k in zip(spec.padding, spec.kernel))


def conv3d_backward(x: np.ndarray, spec: ConvLayerSpec, weights: np.ndarray,
                    grad_out: np.ndarray, need_input_grad: bool = True):
    """Gradients of the forward cross-correlation w.r.t. input and kernel.

    Returns ``(grad_x, grad_weights)`` in the dtypes of ``x`` and
    ``weights``; ``grad_x`` is None when the caller declares it unused.
    Every GEMM reduction is cut at ``_GEMM_DEPTH``, as the forward's are.

    A stride-1 conv (:func:`_flip_pad`) gathers the windows of ``grad_out``
    padded by ``k - 1 - p``, once.  ``grad_x`` is the forward lowering
    (:func:`_correlate`) of those windows with the kernel flipped on all
    three axes and its channel axes swapped, and tap ``dt`` of the flipped
    kernel's weight gradient is ``sum_n x[n] @ window[n].T``.  Neither
    gathers ``x``; a pointwise kernel flips to itself.

    Temporal convs with ``kt > 1`` and strided convs gather the windows of
    ``x`` as the forward does (:func:`_taps`): ``grad_weights[:, :, dt]`` is
    ``sum_n grad_out[n] @ tap[n].T``, and one GEMM, ``weights.T @ grad_out``
    over all taps, gives window gradients that :func:`_col2im` scatters onto
    the padded input gradient tap by tap.  Per-tap GEMMs would triple the
    GEMM calls of the small temporal convs of a desk step, and the flipped
    path would add their taps in reverse order.

    Both paths gather as the forward does (:func:`_gathers`), a group of
    whole samples at a time within ``_GATHER_BYTES``, and add the per-sample
    weight gradients in sample order (:func:`_add_samples`), so the bytes do
    not depend on the grouping.
    """
    check_tensor5(x)
    out_shape, flip_pad = _conv_geometry(spec, x.shape, weights.shape)
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad_out shape {grad_out.shape}, expected {out_shape}")
    n, co, to, ho, wo = out_shape
    ci = spec.in_channels
    kt, kh, kw = spec.kernel
    w = weights.astype(x.dtype, copy=False)
    go = grad_out.astype(x.dtype, copy=False)
    gx = gw = None
    if flip_pad is not None:
        x3 = x.reshape(n, ci, -1)
        flipped = w[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
        for s, windows in _gathers(go, spec.kernel, (1, 1, 1), flip_pad,
                                   x.shape[2:]):
            gw = _add_samples(gw, _gemm(x3[s], windows.transpose(0, 1, 3, 2)))
            if need_input_grad:
                gx = _place(gx, _correlate(windows, flipped), s, n)
            del windows         # before the next group's gather
        gw = gw.reshape(kt, ci, co, kh, kw).transpose(
            2, 1, 0, 3, 4)[:, :, ::-1, ::-1, ::-1]
        if need_input_grad:
            gx = gx.reshape(x.shape)
    else:
        go3 = go.reshape(n, co, -1)
        for s, taps in _gathers(x, spec.kernel, spec.stride, spec.padding,
                                (to, ho, wo)):
            # taps @ go.T, the transpose of go @ taps.T, puts the window rows
            # on the GEMM's long side: twice as fast for the stem.
            gw = _add_samples(gw, _gemm(taps, go3[s].transpose(0, 2, 1)))
            del taps
        gw = gw.reshape(kt, ci, kh, kw, co).transpose(4, 1, 0, 2, 3)
        if need_input_grad:
            gx = _col2im(_gemm(w.reshape(co, -1).T, go3), x.shape, spec.kernel,
                         spec.stride, spec.padding, (to, ho, wo))
    return gx, gw.astype(weights.dtype, order="C")


def maxpool3d(x: np.ndarray) -> np.ndarray:
    """Max over the :data:`POOL_GEOMETRY` windows; padding contributes -inf.

    Separable: pad with -inf once, then reduce w, h and t in turn, each by
    ``np.maximum`` over the kernel's strided views.  Every step is
    ``np.maximum(later, earlier)``, which keeps the earlier operand on ties,
    so a window's value is the bytes of its first element holding the max
    (``-0.0`` before ``0.0`` keeps ``-0.0``); a window holding a NaN pools
    to NaN.
    """
    check_tensor5(x)
    kernel, stride, padding = POOL_GEOMETRY
    out_shape = window_output_shape(x.shape, *POOL_GEOMETRY)
    y = _pad5(x, padding, value=-np.inf)
    for axis in (4, 3, 2):
        k, s, size = kernel[axis - 2], stride[axis - 2], out_shape[axis]
        lead = (slice(None),) * axis
        views = [y[lead + (slice(d, d + s * (size - 1) + 1, s),)]
                 for d in range(k)]
        y = np.maximum(views[1], views[0])
        for view in views[2:]:
            np.maximum(view, y, out=y)
    return y


def maxpool3d_backward(grad_out: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Route each output gradient to the element of ``x`` its window pooled
    to ``y`` from: the first element equal to ``y``, or the first NaN when
    ``y`` is NaN, as :func:`maxpool3d`'s tie rule picks it.

    One pass per kernel offset, in ``np.ndindex`` order, over the strided
    view of the -inf padded input that the offset meets in every window:
    the offset wins where it holds the value and no earlier offset has won,
    and adds its output gradients, zero elsewhere, onto that view of the
    padded input gradient.
    """
    to, ho, wo = grad_out.shape[2:]
    kernel, (st, sh, sw), padding = POOL_GEOMETRY
    xp = _pad5(x, padding, value=-np.inf)
    gxp = np.zeros(xp.shape, grad_out.dtype)
    free = np.ones(y.shape, bool)
    # every element of x lies in some window, so x holds a NaN iff y does
    has_nan = bool(np.isnan(y).any())
    for dt, dh, dw in np.ndindex(*kernel):
        at = (slice(None), slice(None), slice(dt, dt + st * to, st),
              slice(dh, dh + sh * ho, sh), slice(dw, dw + sw * wo, sw))
        view = xp[at]
        hit = view == y
        if has_nan:
            hit |= view != view
        hit &= free
        free &= ~hit
        gxp[at] += np.where(hit, grad_out, 0)
    return _crop5(gxp, padding, x.shape)


def avgpool_spatial(x: np.ndarray) -> np.ndarray:
    """Mean over (h, w); those extents collapse to 1."""
    check_tensor5(x)
    return x.mean(axis=(3, 4), keepdims=True, dtype=np.float64).astype(
        x.dtype, copy=False)


def avgpool_spatial_backward(grad_out: np.ndarray, h: int, w: int) -> np.ndarray:
    return np.broadcast_to(grad_out / (h * w),
                           grad_out.shape[:3] + (h, w)).copy()


def _channel_vector(v: np.ndarray, dtype) -> np.ndarray:
    """A per-channel vector cast to ``dtype``, shaped to broadcast over NCTHW."""
    return v.astype(dtype, copy=False).reshape(1, -1, 1, 1, 1)


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sum of ``a`` (or of ``a * b``), accumulated in float64."""
    n, c = a.shape[:2]
    if b is None:
        return a.reshape(n, c, -1).sum(axis=(0, 2), dtype=np.float64)
    return np.einsum("ncp,ncp->c", a.reshape(n, c, -1), b.reshape(n, c, -1),
                     dtype=np.float64)


def _check_batchnorm_args(x, scale, shift, running_mean, running_var):
    check_tensor5(x)
    c = x.shape[1]
    for name, arr in (("scale", scale), ("shift", shift),
                      ("running_mean", running_mean), ("running_var", running_var)):
        if arr.shape != (c,):
            raise ShapeError(f"{name} shape {arr.shape}, expected ({c},)")


def batchnorm_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                      running_mean: np.ndarray, running_var: np.ndarray,
                      mode: str):
    """Per-channel normalization over (n, t, h, w).

    Train mode normalizes with batch statistics and returns running stats moved
    by an exponential moving average; eval mode normalizes with the running
    stats unchanged.  Returns ``(y, new_mean, new_var, cache)``; ``y`` has the
    dtype of ``x``, the running stats that of ``running_mean``/``running_var``.
    """
    _check_batchnorm_args(x, scale, shift, running_mean, running_var)
    if mode == "train":
        m = x.size // x.shape[1]
        mean = _channel_sum(x) / m
        xhat = x - _channel_vector(mean, x.dtype)
        var = _channel_sum(xhat, xhat) / m
        new_mean = ((1 - BN_MOMENTUM) * running_mean
                    + BN_MOMENTUM * mean).astype(running_mean.dtype, copy=False)
        new_var = ((1 - BN_MOMENTUM) * running_var
                   + BN_MOMENTUM * var).astype(running_var.dtype, copy=False)
    elif mode == "eval":
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
        new_mean, new_var = running_mean, running_var
        xhat = x - _channel_vector(mean, x.dtype)
    else:
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= _channel_vector(inv_std, x.dtype)
    y = xhat * _channel_vector(scale, x.dtype)
    y += _channel_vector(shift, x.dtype)
    cache = (xhat, inv_std, mode)
    return y, new_mean, new_var, cache


def batchnorm_eval_inplace(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                           running_mean: np.ndarray,
                           running_var: np.ndarray) -> np.ndarray:
    """Eval-mode :func:`batchnorm_forward` written over ``x``: the same
    operations in the same order, so the same bytes, with no allocation and
    no backward cache.  Returns ``x``."""
    _check_batchnorm_args(x, scale, shift, running_mean, running_var)
    inv_std = 1.0 / np.sqrt(running_var.astype(np.float64) + BN_EPS)
    x -= _channel_vector(running_mean, x.dtype)
    x *= _channel_vector(inv_std, x.dtype)
    x *= _channel_vector(scale, x.dtype)
    x += _channel_vector(shift, x.dtype)
    return x


def batchnorm_backward(cache, scale: np.ndarray, grad_out: np.ndarray):
    """Gradients w.r.t. input, scale, and shift for either mode.

    ``grad_x`` has the dtype of the normalized activations, the scale and
    shift gradients that of ``scale``.
    """
    xhat, inv_std, mode = cache
    go = grad_out.astype(xhat.dtype, copy=False)
    gscale = _channel_sum(go, xhat)
    gshift = _channel_sum(go)
    gain = scale * inv_std
    gx = go * _channel_vector(gain, xhat.dtype)
    if mode == "train":
        m = xhat.size // xhat.shape[1]
        gx -= _channel_vector(gain * gshift / m, xhat.dtype)
        gx -= xhat * _channel_vector(gain * gscale / m, xhat.dtype)
    return (gx, gscale.astype(scale.dtype, copy=False),
            gshift.astype(scale.dtype, copy=False))


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)``, into ``out`` when given."""
    return np.maximum(x, 0, out=out)


def relu_backward(output: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Mask ``grad_out`` by ``output > 0``, which holds where the input did:
    the bits of ``np.where(output > 0, grad_out, 0)``, a masked lane +0.0.

    Without a branch: ``output > 0`` becomes unsigned integers of the
    gradient's item width, all ones or zero, ANDed with the gradient's bits.
    A mask true about half the time at random makes ``np.where``'s select
    mispredict; this form is ~10x faster on a desk step's maps.
    """
    bits = np.dtype(f"u{grad_out.itemsize}")
    mask = (output > 0).astype(bits)
    np.negative(mask, out=mask)
    mask &= grad_out.view(bits)
    return mask.view(grad_out.dtype)


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   counter: MacCounter | None = None) -> np.ndarray:
    """Affine map on a (rows, in_features) matrix: ``x @ W.T + b``."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: x {x.shape} incompatible with W {weight.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias shape {bias.shape}")
    y = _gemm(x, weight.astype(x.dtype, copy=False).T)
    y += bias.astype(x.dtype)
    if counter is not None:
        counter.add(x.shape[0] * weight.shape[0] * weight.shape[1])
    return y


def linear_backward(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray):
    """``(grad_x, grad_weight, grad_bias)``; ``grad_x`` has the dtype of ``x``,
    the other two that of ``weight``."""
    go = grad_out.astype(x.dtype, copy=False)
    gx = go @ weight.astype(x.dtype, copy=False)
    gw = go.T @ x
    gb = go.sum(axis=0, dtype=np.float64)
    return (gx, gw.astype(weight.dtype, copy=False),
            gb.astype(weight.dtype, copy=False))


def concat_channels(tensors) -> np.ndarray:
    """Concatenate along the channel axis; all other extents must agree."""
    if not tensors:
        raise ShapeError("concat_channels needs at least one tensor")
    ref = tensors[0]
    check_tensor5(ref)
    for i, t in enumerate(tensors[1:], start=1):
        check_tensor5(t)
        for ax in (0, 2, 3, 4):
            if t.shape[ax] != ref.shape[ax]:
                raise ShapeError(
                    f"concat input {i} disagrees on {AXIS_NAMES[ax]} axis: "
                    f"{t.shape[ax]} vs {ref.shape[ax]}")
    return np.concatenate(tensors, axis=1)


def split_channels(x: np.ndarray, sizes) -> list[np.ndarray]:
    """Inverse of :func:`concat_channels` for the given channel sizes."""
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split sizes {sizes} do not sum to {x.shape[1]} channels")
    bounds = np.cumsum(sizes)[:-1]
    return np.split(x, bounds, axis=1)
