"""Differentiable building blocks on (batch, channel, depth, height, width) arrays.

Every op comes as a forward returning (output, cache) and a backward taking
(grad_output, cache) and returning exact analytic input/parameter gradients.
Computation stays in the dtype of the inputs, so float64 gradient checks and
float32 training share one code path.

conv3d is cross-correlation (no kernel flip) summed offset by offset: each
kernel tap kernel[:, :, i, j, l] meets one strided window of the padded
input, so no window matrix is built. The input is copied once, padding
and all, into a flat, channel-major buffer split into its stride phases
(one at stride 1, eight at stride 2), each zero-filled to the phase grid
ceil(n / s). Every tap's window is then one contiguous slice of that
buffer, taken at every phase-grid voxel, so no window is copied; the
outputs off the strided grid read across rows and are cut off at the end.
Each offset's product is accumulated in place by one BLAS gemm with
beta = 1, so no per-offset product array is allocated and no second add
pass runs. The forward's cache keeps the buffer: the kernel gradient
contracts the output gradient, placed on the same phase grid and zero off
the strided outputs, with the same windows.
The input gradient is conv3d_transpose, computed one output stride phase
at a time: along an axis, output voxel a + s * w meets only the taps
i = a + p (mod s), each at a fixed shift into g, so a phase is one gemm
per such tap over a window of one zero-padded copy of g. The stride-2
2x2x2 down convolution is conv3d at stride 2, and the up convolution its
transpose.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.linalg import get_blas_funcs

from ..errors import GeometryError
from ..volume import block_means

# --------------------------------------------------------------------------
# 3D convolution by kernel offset
# --------------------------------------------------------------------------


def conv3d_output_shape(spatial, kernel, stride, padding):
    """floor((n + 2p - k) / s) + 1 per axis."""
    return tuple((n + 2 * padding - kernel) // stride + 1 for n in spatial)


def _phase_windows(x, kshape, stride, dtype, pad=((0, 0),) * 3):
    """Every tap's window of x (n, c, *spatial) as one contiguous slice.

    x, zero-padded by pad's (lead, behind) per axis, is copied once, as
    dtype, into a flat buffer split into its stride phases: phase (a, b, e)
    is xp[:, :, a::s, b::s, e::s] of the padded xp, stored channel-major as
    (c, n, *q) on the phase grid q = ceil(padded size / s), zero past its
    extent; the phases follow one another, then the kernel's reach of
    zeros. Returns (q, taps), where taps lists ((i, j, l), win) in kernel
    order and win, shape (c, n * prod(q)), is the window of tap (i, j, l)
    at every phase-grid voxel. A voxel off the strided output grid reads
    across rows; its result is meaningless and must be cut off or weighted
    by zero.
    """
    n, c = x.shape[:2]
    kd, kh, kw = kshape
    s = stride
    qd, qh, qw = (-(-(lo + m + hi) // s) for m, (lo, hi) in zip(x.shape[2:], pad))
    m = n * qd * qh * qw
    reach = ((kd - 1) // s * qh + (kh - 1) // s) * qw + (kw - 1) // s
    flat = np.zeros(s**3 * c * m + reach, dtype=dtype)
    phases = flat[: s**3 * c * m].reshape(s, s, s, c, n, qd, qh, qw)
    for t in np.ndindex(s, s, s):
        # phase voxel w holds padded voxel t + s * w, that is x[t + s * w - lead]
        first = [-(-(lo - a) // s) for a, (lo, _) in zip(t, pad)]
        src = tuple(slice(a + s * f - lo, None, s) for a, f, (lo, _) in zip(t, first, pad))
        src = x[(slice(None), slice(None), *src)].swapaxes(0, 1)
        dst = tuple(slice(f, f + k) for f, k in zip(first, src.shape[2:]))
        phases[(*t, slice(None), slice(None), *dst)] = src
    taps = []
    for i, j, l in np.ndindex(kd, kh, kw):
        phase = ((i % s) * s + j % s) * s + l % s
        base = phase * c * m + ((i // s) * qh + j // s) * qw + l // s
        taps.append(((i, j, l), flat[base : base + c * m].reshape(c, m)))
    return (qd, qh, qw), taps


def _kernel_grad(windows, g, kshape):
    """Gradient of <g, conv(x, K)> in K, shape (o, c, *kshape), for g (n, o, *out).

    windows is _phase_windows' (q, taps) of the conv's input x; g is placed
    on its phase grid, zero at every voxel that is no output, and each tap
    contracts it with its window, so no window is copied.
    """
    q, taps = windows
    n, o, od, oh, ow = g.shape
    gph = np.zeros((o, n, *q), dtype=g.dtype)
    gph[:, :, :od, :oh, :ow] = g.swapaxes(0, 1)
    gmat = gph.reshape(o, -1)
    grad = np.empty((o, taps[0][1].shape[0], *kshape), dtype=np.result_type(taps[0][1], g))
    for (i, j, l), win in taps:
        grad[:, :, i, j, l] = np.dot(gmat, win.T)
    return grad


def conv3d_forward(x, kernel, bias, stride=1, padding=0):
    """Cross-correlate x (n,c,d,h,w) with kernel (o,c,kd,kh,kw) plus bias (o,).

    Returns (y, cache) with y of shape (n, o, *conv3d_output_shape(...)).
    """
    n, c, d, h, w = x.shape
    o, ck, kd, kh, kw = kernel.shape
    if ck != c:
        raise GeometryError(f"kernel expects {ck} input channels, tensor has {c}")
    out_sp = conv3d_output_shape((d, h, w), kd, stride, padding)
    if any(s < 1 for s in out_sp):
        raise GeometryError(f"conv output shape {out_sp} is empty for input {(d, h, w)}")
    dtype = np.result_type(x, kernel, bias)
    # for a dtype BLAS lacks, gemm sums in a dtype of its own
    gemm = get_blas_funcs("gemm", dtype=dtype)
    pad = ((padding, padding),) * 3
    (qd, qh, qw), taps = windows = _phase_windows(x, (kd, kh, kw), stride, gemm.dtype, pad)
    # (phase-grid voxels, o) in Fortran order, the layout gemm updates in place
    acc = np.zeros((n * qd * qh * qw, o), dtype=gemm.dtype, order="F")
    for (i, j, l), win in taps:
        acc = gemm(1.0, win.T, kernel[:, :, i, j, l].T, beta=1.0, c=acc, overwrite_c=True)
    # outputs off the strided grid read across rows; cut them off
    grid = acc.T.reshape(o, n, qd, qh, qw)[:, :, : out_sp[0], : out_sp[1], : out_sp[2]]
    y = np.ascontiguousarray(grid.swapaxes(0, 1), dtype=dtype)
    y += bias.reshape(1, o, 1, 1, 1)
    return y, (windows, kernel, stride, padding, x.shape)


def conv3d_transpose(g, kernel, bias, stride, padding, spatial):
    """Adjoint of conv3d_forward's linear part in x, plus bias (c,).

    Takes g (n, o, *out) through kernel (o, c, k, k, k) to (n, c, *spatial),
    one output stride phase at a time. Along an axis, output voxel
    v = a + s * w (phase a) meets only the taps i = a + p (mod s), and tap i
    reads g[w + (a + p - i) / s]. So g is copied once, into the phase
    buffer, zero-padded ahead by lead = max(0, (k - 1 - p) // s) and behind
    as far as the widest phase reads; each phase accumulates one gemm per
    tap, last tap first (the order a correlation with the flipped kernel
    sums them), over the copy's window at shift lead + (a + p - i) // s, and
    keeps its leading ceil((m - a) / s) voxels per axis.
    """
    n, o = g.shape[:2]
    if kernel.shape[0] != o:
        raise GeometryError(f"kernel expects {kernel.shape[0]} input channels, tensor has {o}")
    c, k = kernel.shape[1:3]
    s, p = stride, padding
    lead = max(0, (k - 1 - p) // s)
    span = lead + (s - 1 + p) // s + 1
    behind = (max(0, -(-m // s) + span - 1 - lead - og) for m, og in zip(spatial, g.shape[2:]))
    pad = tuple((lead, b) for b in behind)
    dtype = np.result_type(g, kernel, bias)
    gemm = get_blas_funcs("gemm", dtype=dtype)
    q, taps = _phase_windows(g, (span,) * 3, 1, gemm.dtype, pad)
    windows = dict(taps)
    y = np.empty((n, c, *spatial), dtype=dtype)
    for a, b, e in np.ndindex(s, s, s):
        acc = np.zeros((n * q[0] * q[1] * q[2], c), dtype=gemm.dtype, order="F")
        for i, j, l in product(*(range((t + p) % s, k, s)[::-1] for t in (a, b, e))):
            win = windows[lead + (a + p - i) // s, lead + (b + p - j) // s, lead + (e + p - l) // s]
            acc = gemm(1.0, win.T, kernel[:, :, i, j, l], beta=1.0, c=acc, overwrite_c=True)
        cd, ch, cw = (-(-(m - t) // s) for m, t in zip(spatial, (a, b, e)))
        y[:, :, a::s, b::s, e::s] = acc.T.reshape(c, n, *q)[:, :, :cd, :ch, :cw].swapaxes(0, 1)
    y += bias.reshape(1, c, 1, 1, 1)
    return y


def conv3d_param_grads(grad_y, cache):
    """Kernel and bias gradients of conv3d_forward; returns (grad_kernel, grad_bias).

    For a layer whose input gradient nothing takes, such as one fed by the
    network input.
    """
    windows, kernel = cache[:2]
    return _kernel_grad(windows, grad_y, kernel.shape[2:]), grad_y.sum(axis=(0, 2, 3, 4))


def conv3d_backward(grad_y, cache):
    """Gradients of conv3d_forward; returns (grad_x, grad_kernel, grad_bias)."""
    _, kernel, stride, padding, x_shape = cache
    grad_kernel, grad_bias = conv3d_param_grads(grad_y, cache)
    zero = np.zeros(x_shape[1], dtype=kernel.dtype)
    grad_x = conv3d_transpose(grad_y, kernel, zero, stride, padding, x_shape[2:])
    return grad_x, grad_kernel, grad_bias


# --------------------------------------------------------------------------
# strided 2x2x2 pair: downconv and its transpose
# --------------------------------------------------------------------------


def _check_even(x):
    if any(m % 2 for m in x.shape[2:]):
        raise GeometryError(f"stride-2 ops need even spatial dims, got {x.shape[2:]}")


def downconv_forward(x, kernel, bias):
    """Stride-2 2x2x2 convolution; kernel (o, c, 2, 2, 2), halves each axis."""
    _check_even(x)
    return conv3d_forward(x, kernel, bias, stride=2)


downconv_backward = conv3d_backward


def upconv_forward(x, kernel, bias):
    """Stride-2 2x2x2 transposed convolution; kernel (c_in, c_out, 2, 2, 2).

    Doubles each spatial axis. With a shared kernel array this is the exact
    adjoint of downconv_forward's linear part.
    """
    y = conv3d_transpose(x, kernel, bias, 2, 0, tuple(2 * m for m in x.shape[2:]))
    return y, (x, kernel)


def upconv_backward(grad_y, cache):
    x, kernel = cache
    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))
    zero = np.zeros(kernel.shape[0], dtype=kernel.dtype)
    grad_x, (windows, *_) = conv3d_forward(grad_y, kernel, zero, 2)
    grad_kernel = _kernel_grad(windows, x, kernel.shape[2:])
    return grad_x, grad_kernel, grad_bias


# --------------------------------------------------------------------------
# pointwise and structural ops
# --------------------------------------------------------------------------


def prelu_forward(x, slope):
    """Channelwise PReLU: y = x where x > 0, slope[c] * x elsewhere."""
    if slope.shape != (x.shape[1],):
        raise GeometryError(f"slope shape {slope.shape} does not match {x.shape[1]} channels")
    pos = x > 0
    y = np.where(pos, x, x * slope.reshape(1, -1, 1, 1, 1))
    return y, (x, slope, pos)


def prelu_backward(grad_y, cache):
    x, slope, pos = cache
    grad_x = np.where(pos, grad_y, grad_y * slope.reshape(1, -1, 1, 1, 1))
    grad_slope = np.where(pos, 0.0, grad_y * x).sum(axis=(0, 2, 3, 4))
    return grad_x, grad_slope


def concat_channels_forward(tensors):
    """Concatenate along the channel axis; cache remembers the split points."""
    lead = tensors[0]
    for t in tensors[1:]:
        if t.shape[0] != lead.shape[0] or t.shape[2:] != lead.shape[2:]:
            raise GeometryError(
                f"cannot concat channels of {t.shape} with {lead.shape}"
            )
    widths = [t.shape[1] for t in tensors]
    return np.concatenate(tensors, axis=1), widths


def concat_channels_backward(grad_y, widths):
    splits = np.cumsum(widths)[:-1]
    return np.split(grad_y, splits, axis=1)


def softmax_channels_forward(x):
    """Softmax over the channel axis, stabilized by the per-voxel max."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    return y, y


def softmax_channels_backward(grad_y, y):
    dot = (grad_y * y).sum(axis=1, keepdims=True)
    return y * (grad_y - dot)


def halve_spatial(x):
    """2x2x2 block mean of each channel (volume.block_means), in x's dtype;
    trilinear factor-2 downsampling lands on block means."""
    _check_even(x)
    return block_means(x)
