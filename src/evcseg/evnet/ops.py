"""Differentiable building blocks on (batch, channel, depth, height, width) arrays.

Every op comes as a forward returning (output, cache) and a backward taking
(grad_output, cache) and returning exact analytic input/parameter gradients.
Computation stays in the dtype of the inputs, so float64 gradient checks and
float32 training share one code path.

conv3d is cross-correlation (no kernel flip) summed offset by offset: each
kernel tap kernel[:, :, i, j, l] meets one strided window of the padded
input, so no window matrix is built. The kernel gradient contracts the
output gradient with the same windows, and the input gradient is the
forward correlation again (conv3d_transpose). The stride-2 2x2x2 down
convolution is conv3d at stride 2, and the up convolution its transpose.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeometryError

# --------------------------------------------------------------------------
# 3D convolution by kernel offset
# --------------------------------------------------------------------------


def conv3d_output_shape(spatial, kernel, stride, padding):
    """floor((n + 2p - k) / s) + 1 per axis."""
    return tuple((n + 2 * padding - kernel) // stride + 1 for n in spatial)


def _offset_windows(xp, kshape, stride, out_sp):
    """Yield ((i, j, l), window) for every kernel offset.

    window is the part of xp that kernel[:, :, i, j, l] meets, flattened
    channel-major to (c, n * out voxels), so that each contraction over
    channels is one matrix product.
    """
    s = stride
    ed, eh, ew = (s * (m - 1) + 1 for m in out_sp)
    for i, j, l in np.ndindex(*kshape):
        win = xp[:, :, i : i + ed : s, j : j + eh : s, l : l + ew : s]
        yield (i, j, l), win.swapaxes(0, 1).reshape(xp.shape[1], -1)


def _kernel_grad(xp, g, kshape, stride):
    """Gradient of <g, conv(xp, K)> in K, shape (o, c, *kshape), for g (n, o, *out)."""
    gmat = g.swapaxes(0, 1).reshape(g.shape[1], -1)
    grad = np.empty((g.shape[1], xp.shape[1], *kshape), dtype=np.result_type(xp, g))
    for (i, j, l), win in _offset_windows(xp, kshape, stride, g.shape[2:]):
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
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3) if padding else x
    acc = np.zeros((o, n * np.prod(out_sp)), dtype=np.result_type(x, kernel, bias))
    for (i, j, l), win in _offset_windows(xp, (kd, kh, kw), stride, out_sp):
        acc += np.dot(kernel[:, :, i, j, l], win)
    y = np.ascontiguousarray(acc.reshape(o, n, *out_sp).swapaxes(0, 1))
    y += bias.reshape(1, o, 1, 1, 1)
    cache = (xp, kernel, stride, padding, out_sp, x.shape)
    return y, cache


def conv3d_transpose(g, kernel, bias, stride, padding, spatial):
    """Adjoint of conv3d_forward's linear part in x, plus bias (c,).

    Takes g (n, o, *out) through kernel (o, c, k, k, k) to (n, c, *spatial).
    This is the forward correlation of g, spread to stride steps at offset
    k - 1, with the flipped, channel-swapped kernel, over the unpadded input.
    """
    n, o = g.shape[:2]
    if kernel.shape[0] != o:
        raise GeometryError(f"kernel expects {kernel.shape[0]} input channels, tensor has {o}")
    k, p, s = kernel.shape[2], padding, stride
    od, oh, ow = g.shape[2:]
    d, h, w = spatial
    spread = np.zeros((n, o, *(m + 2 * p + k - 1 for m in spatial)), dtype=g.dtype)
    spread[:, :, k - 1 :: s, k - 1 :: s, k - 1 :: s][:, :, :od, :oh, :ow] = g
    y, _ = conv3d_forward(
        spread[:, :, p : p + d + k - 1, p : p + h + k - 1, p : p + w + k - 1],
        kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4),
        bias,
    )
    return y


def conv3d_backward(grad_y, cache):
    """Gradients of conv3d_forward; returns (grad_x, grad_kernel, grad_bias)."""
    xp, kernel, stride, padding, _, x_shape = cache
    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))
    grad_kernel = _kernel_grad(xp, grad_y, kernel.shape[2:], stride)
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
    grad_kernel = _kernel_grad(grad_y, x, kernel.shape[2:], 2)
    grad_x, _ = conv3d_forward(grad_y, kernel, np.zeros(kernel.shape[0], dtype=kernel.dtype), 2)
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
    """2x2x2 block mean; trilinear factor-2 downsampling lands on block means."""
    _check_even(x)
    n, c, d, h, w = x.shape
    return x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2).mean(axis=(3, 5, 7))
