"""Differentiable building blocks on (batch, channel, depth, height, width) arrays.

Every op comes as a forward returning (output, cache) and a backward taking
(grad_output, cache) and returning exact analytic input/parameter gradients.
Computation stays in the dtype of the inputs, so float64 gradient checks and
float32 training share one code path.

conv3d is cross-correlation (no kernel flip) done as one im2col matrix
product per call. Its input gradient is the same correlation, of the
output gradient spread to stride steps with the flipped, channel-swapped
kernel; its kernel gradient is one more im2col product. The strided
2x2x2 down/up convolutions exploit their non-overlapping windows and
reduce to reshapes around a tensor contraction.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import GeometryError

# --------------------------------------------------------------------------
# general 3D convolution (im2col)
# --------------------------------------------------------------------------


def conv3d_output_shape(spatial, kernel, stride, padding):
    """floor((n + 2p - k) / s) + 1 per axis."""
    return tuple((n + 2 * padding - kernel) // stride + 1 for n in spatial)


def _pad_spatial(x, p):
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))


def _im2col(xp, kshape, stride, out_spatial):
    """Window matrix (n * out voxels, c * kernel voxels). One big copy."""
    n, c = xp.shape[:2]
    win = sliding_window_view(xp, kshape, axis=(2, 3, 4))
    win = win[:, :, ::stride, ::stride, ::stride]
    od, oh, ow = out_spatial
    return win.transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(
        n * od * oh * ow, c * kshape[0] * kshape[1] * kshape[2]
    )


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
    xp = _pad_spatial(x, padding)
    cols = _im2col(xp, (kd, kh, kw), stride, out_sp)
    y = cols @ kernel.reshape(o, -1).T
    y = y.reshape(n, *out_sp, o).transpose(0, 4, 1, 2, 3)
    y = np.ascontiguousarray(y) + bias.reshape(1, o, 1, 1, 1)
    cache = (xp, kernel, stride, padding, out_sp, x.shape)
    return y, cache


def conv3d_backward(grad_y, cache):
    """Gradients of conv3d_forward; returns (grad_x, grad_kernel, grad_bias)."""
    xp, kernel, stride, padding, out_sp, x_shape = cache
    o, c, k = kernel.shape[:3]
    n, _, d, h, w = x_shape
    od, oh, ow = out_sp
    p, s = padding, stride

    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))
    gmat = grad_y.transpose(0, 2, 3, 4, 1).reshape(n * od * oh * ow, o)
    grad_kernel = (gmat.T @ _im2col(xp, kernel.shape[2:], s, out_sp)).reshape(kernel.shape)

    # the input gradient is the forward correlation again: grad_y spread to
    # stride steps at offset k - 1, against the flipped, channel-swapped
    # kernel; only the window over the unpadded input is correlated
    spread = np.zeros((n, o, *(m + k - 1 for m in xp.shape[2:])), dtype=grad_y.dtype)
    spread[:, :, k - 1 :: s, k - 1 :: s, k - 1 :: s][:, :, :od, :oh, :ow] = grad_y
    grad_x, _ = conv3d_forward(
        spread[:, :, p : p + d + k - 1, p : p + h + k - 1, p : p + w + k - 1],
        kernel[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4),
        np.zeros(c, dtype=kernel.dtype),
    )
    return grad_x, grad_kernel, grad_bias


# --------------------------------------------------------------------------
# strided 2x2x2 pair: downconv and its transpose
# --------------------------------------------------------------------------


def _split_blocks(x):
    """(n,c,d,h,w) -> (n,c,d/2,2,h/2,2,w/2,2); dims must be even."""
    n, c, d, h, w = x.shape
    if d % 2 or h % 2 or w % 2:
        raise GeometryError(f"stride-2 ops need even spatial dims, got {(d, h, w)}")
    return x.reshape(n, c, d // 2, 2, h // 2, 2, w // 2, 2)


def downconv_forward(x, kernel, bias):
    """Stride-2 2x2x2 convolution; kernel (o, c, 2, 2, 2), halves each axis."""
    xr = _split_blocks(x)
    if kernel.shape[1] != x.shape[1]:
        raise GeometryError(
            f"kernel expects {kernel.shape[1]} input channels, tensor has {x.shape[1]}"
        )
    y = np.einsum("ncdihjwk,ocijk->nodhw", xr, kernel, optimize=True)
    y = y + bias.reshape(1, -1, 1, 1, 1)
    return y, (xr, kernel)


def downconv_backward(grad_y, cache):
    xr, kernel = cache
    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))
    grad_kernel = np.einsum("ncdihjwk,nodhw->ocijk", xr, grad_y, optimize=True)
    grad_xr = np.einsum("nodhw,ocijk->ncdihjwk", grad_y, kernel, optimize=True)
    n, c = xr.shape[:2]
    dd, hh, ww = xr.shape[2], xr.shape[4], xr.shape[6]
    grad_x = grad_xr.reshape(n, c, dd * 2, hh * 2, ww * 2)
    return grad_x, grad_kernel, grad_bias


def upconv_forward(x, kernel, bias):
    """Stride-2 2x2x2 transposed convolution; kernel (c_in, c_out, 2, 2, 2).

    Doubles each spatial axis. With a shared kernel array this is the exact
    adjoint of downconv_forward's linear part.
    """
    if kernel.shape[0] != x.shape[1]:
        raise GeometryError(
            f"kernel expects {kernel.shape[0]} input channels, tensor has {x.shape[1]}"
        )
    n, c, d, h, w = x.shape
    o = kernel.shape[1]
    t = np.einsum("ncdhw,coijk->nodihjwk", x, kernel, optimize=True)
    y = t.reshape(n, o, 2 * d, 2 * h, 2 * w) + bias.reshape(1, o, 1, 1, 1)
    return y, (x, kernel)


def upconv_backward(grad_y, cache):
    x, kernel = cache
    gr = _split_blocks(grad_y)
    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))
    grad_kernel = np.einsum("ncdhw,nodihjwk->coijk", x, gr, optimize=True)
    grad_x = np.einsum("nodihjwk,coijk->ncdhw", gr, kernel, optimize=True)
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


def tile_channels_forward(x, out_channels):
    """Repeat channels to width out_channels (residual-shortcut broadcast)."""
    c = x.shape[1]
    if out_channels % c:
        raise GeometryError(f"cannot tile {c} channels to {out_channels}")
    reps = out_channels // c
    if reps == 1:
        return x, (c, reps)
    return np.concatenate([x] * reps, axis=1), (c, reps)


def tile_channels_backward(grad_y, cache):
    c, reps = cache
    if reps == 1:
        return grad_y
    return grad_y.reshape(grad_y.shape[0], reps, c, *grad_y.shape[2:]).sum(axis=1)


def softmax_channels_forward(x):
    """Softmax over the channel axis, stabilized by the per-voxel max."""
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    return y, y


def softmax_channels_backward(grad_y, y):
    dot = (grad_y * y).sum(axis=1, keepdims=True)
    return y * (grad_y - dot)


# --------------------------------------------------------------------------
# multi-scale input pyramid
# --------------------------------------------------------------------------


def halve_spatial(x):
    """2x2x2 block mean; trilinear factor-2 downsampling lands on block means."""
    xr = _split_blocks(x)
    return xr.mean(axis=(3, 5, 7))


def raw_input_at_level(x, level):
    """The raw input tensor downsampled by 2**level (level 0 is x itself)."""
    if level < 0:
        raise GeometryError(f"level must be nonnegative, got {level}")
    for _ in range(level):
        x = halve_spatial(x)
    return x
