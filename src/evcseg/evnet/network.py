"""The segmentation network: a V-shaped encoder/decoder over 3D volumes.

Each encoder level halves the grid with a strided 2x2x2 convolution and,
when multi-scale inputs are on, takes the raw input volume downsampled to
its own grid as one more channel beside the downconv output, before the
level's conv block; that raw input is halved once per level on the way
down. Blocks are residual: their input (taken before that channel joins,
so dropping it or zeroing its weights recovers the plain single-scale
network exactly) is added to the block output, the one-channel network
input broadcasting over level 0's channels. The decoder mirrors the
encoder with transposed convolutions and skip concatenations, ending in a
1x1x1 conv and a softmax over two channels.

Parameters live in a flat name -> array dict; `evnet_forward` optionally
returns a cache that `evnet_backward` consumes to produce a gradient dict
with the same keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, GeometryError, whole_number
from .ops import (
    concat_channels_backward,
    concat_channels_forward,
    conv3d_backward,
    conv3d_forward,
    conv3d_param_grads,
    downconv_backward,
    downconv_forward,
    halve_spatial,
    prelu_backward,
    prelu_forward,
    softmax_channels_backward,
    softmax_channels_forward,
    upconv_backward,
    upconv_forward,
)

KERNEL = 5  # in-block convolutions, padded to keep the grid
NUM_LABELS = 2


@dataclass(frozen=True)
class EvNetConfig:
    """Architecture hyperparameters.

    convs_per_block gives the number of 5x5x5 convolutions per level; the
    decoder mirrors the encoder's counts. The downsampled raw input joins
    each level as an extra channel; multiscale_mode accepts only "concat",
    and stays a field because checkpoints record and hash every config key.
    """

    levels: int = 2
    base_channels: int = 4
    convs_per_block: tuple[int, ...] = ()
    multiscale_inputs: bool = True
    multiscale_mode: str = "concat"
    prelu_init: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("levels", 2), ("base_channels", 2), ("seed", 0)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), minimum))
        if self.levels > 5:
            raise ConfigError(f"levels must be in 2..5, got {self.levels}")
        convs = tuple(
            whole_number("each convs_per_block entry", c, 1)
            for c in self.convs_per_block or (1, 2, 3, 3, 3)[: self.levels]
        )
        if len(convs) != self.levels:
            raise ConfigError(f"convs_per_block has {len(convs)} entries for {self.levels} levels")
        object.__setattr__(self, "convs_per_block", convs)
        if self.multiscale_mode != "concat":
            raise ConfigError(f"unknown multiscale_mode {self.multiscale_mode!r}")

    def channels_at(self, level: int) -> int:
        return self.base_channels * (2**level)


def _block_in_channels(cfg: EvNetConfig, level: int) -> int:
    c = cfg.channels_at(level) if level > 0 else 1
    if level > 0 and cfg.multiscale_inputs:
        c += 1
    return c


def param_shapes(cfg: EvNetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order init_params draws them."""
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name, out_c, in_c, k):
        shapes[f"{name}.kernel"] = (out_c, in_c, k, k, k)
        shapes[f"{name}.bias"] = (out_c,)

    for i in range(cfg.levels):
        c_i = cfg.channels_at(i)
        if i > 0:
            conv(f"down{i}", c_i, cfg.channels_at(i - 1), 2)
            shapes[f"down{i}.prelu"] = (c_i,)
        c_in = _block_in_channels(cfg, i)
        for j in range(cfg.convs_per_block[i]):
            conv(f"enc{i}.conv{j}", c_i, c_in if j == 0 else c_i, KERNEL)
            shapes[f"enc{i}.prelu{j}"] = (c_i,)

    for i in range(cfg.levels - 2, -1, -1):
        c_i = cfg.channels_at(i)
        # transposed conv kernels are (in, out, 2, 2, 2)
        shapes[f"up{i}.kernel"] = (cfg.channels_at(i + 1), c_i, 2, 2, 2)
        shapes[f"up{i}.bias"] = (c_i,)
        shapes[f"up{i}.prelu"] = (c_i,)
        for j in range(cfg.convs_per_block[i]):
            conv(f"dec{i}.conv{j}", c_i, 2 * c_i if j == 0 else c_i, KERNEL)
            shapes[f"dec{i}.prelu{j}"] = (c_i,)

    conv("head", NUM_LABELS, cfg.base_channels, 1)
    return shapes


def init_params(cfg: EvNetConfig, dtype=np.float64) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform kernels, zero biases, constant PReLU slopes."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".kernel"):
            # fan-in counts input channels: axis 1, but axis 0 for up kernels
            in_c = shape[0] if name.startswith("up") else shape[1]
            bound = np.sqrt(6.0 / (in_c * shape[2] ** 3))
            params[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        elif name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = np.full(shape, cfg.prelu_init, dtype=dtype)
    return params


def _check_input(x, cfg: EvNetConfig):
    if x.ndim != 5 or x.shape[1] != 1:
        raise GeometryError(f"input must be (n, 1, d, h, w), got {x.shape}")
    div = 2 ** (cfg.levels - 1)
    if any(s % div for s in x.shape[2:]):
        raise GeometryError(
            f"spatial dims {x.shape[2:]} must be divisible by {div} "
            f"for {cfg.levels} levels"
        )


def _block_forward(t, params, name, convs):
    """The padded conv + PReLU layers `name`.conv{j} / `name`.prelu{j} in turn.

    Returns (output, caches), one (conv, prelu) cache pair per layer.
    """
    caches = []
    for j in range(convs):
        t, cc = conv3d_forward(
            t,
            params[f"{name}.conv{j}.kernel"],
            params[f"{name}.conv{j}.bias"],
            stride=1,
            padding=KERNEL // 2,
        )
        t, cp = prelu_forward(t, params[f"{name}.prelu{j}"])
        caches.append((cc, cp))
    return t, caches


def _block_backward(g, caches, name, grads, input_grad=True):
    """Backward of _block_forward; fills grads and returns the input gradient.

    With input_grad False the first conv takes only its kernel and bias
    gradients, and None is returned.
    """
    for j, (cc, cp) in reversed(list(enumerate(caches))):
        g, grads[f"{name}.prelu{j}"] = prelu_backward(g, cp)
        if j == 0 and not input_grad:
            grads[f"{name}.conv0.kernel"], grads[f"{name}.conv0.bias"] = conv3d_param_grads(g, cc)
            return None
        g, grads[f"{name}.conv{j}.kernel"], grads[f"{name}.conv{j}.bias"] = (
            conv3d_backward(g, cc)
        )
    return g


def evnet_forward(x, params, cfg: EvNetConfig, want_cache: bool = False):
    """Run the network; returns (probs, cache), probs of shape (n, 2, d, h, w).

    The cache (None unless requested) holds every intermediate needed by
    evnet_backward.
    """
    _check_input(x, cfg)
    cache = {"enc": [], "dec": []}
    feats = []
    t = raw = x
    for i in range(cfg.levels):
        ec = {}
        if i > 0:
            t, ec["down"] = downconv_forward(
                t, params[f"down{i}.kernel"], params[f"down{i}.bias"]
            )
            t, ec["down_prelu"] = prelu_forward(t, params[f"down{i}.prelu"])
        res_src = t
        if i > 0 and cfg.multiscale_inputs:
            raw = halve_spatial(raw)
            t, ec["ms_widths"] = concat_channels_forward([t, raw])
        t, ec["convs"] = _block_forward(t, params, f"enc{i}", cfg.convs_per_block[i])
        t = t + res_src  # level 0's one input channel broadcasts over the block's
        feats.append(t)
        if want_cache:
            cache["enc"].append(ec)

    for i in range(cfg.levels - 2, -1, -1):
        dc = {"level": i}
        t, dc["up"] = upconv_forward(t, params[f"up{i}.kernel"], params[f"up{i}.bias"])
        t, dc["up_prelu"] = prelu_forward(t, params[f"up{i}.prelu"])
        res_src = t
        t, dc["skip_widths"] = concat_channels_forward([t, feats[i]])
        t, dc["convs"] = _block_forward(t, params, f"dec{i}", cfg.convs_per_block[i])
        t = t + res_src  # decoder residual; channel counts already match
        if want_cache:
            cache["dec"].append(dc)

    logits, cache["head"] = conv3d_forward(
        t, params["head.kernel"], params["head.bias"], stride=1, padding=0
    )
    probs, cache["softmax"] = softmax_channels_forward(logits)
    return probs, (cache if want_cache else None)


def evnet_backward(grad_probs, cache, cfg: EvNetConfig) -> dict[str, np.ndarray]:
    """Gradients for every parameter, given d(loss)/d(probs) and the cache."""
    grads: dict[str, np.ndarray] = {}

    g = softmax_channels_backward(grad_probs, cache["softmax"])
    g, grads["head.kernel"], grads["head.bias"] = conv3d_backward(g, cache["head"])

    skip_grads: dict[int, np.ndarray] = {}
    for dc in reversed(cache["dec"]):
        i = dc["level"]
        g_res = g
        g = _block_backward(g, dc["convs"], f"dec{i}", grads)
        g_up, skip_grads[i] = concat_channels_backward(g, dc["skip_widths"])
        g = g_up + g_res
        g, grads[f"up{i}.prelu"] = prelu_backward(g, dc["up_prelu"])
        g, grads[f"up{i}.kernel"], grads[f"up{i}.bias"] = upconv_backward(g, dc["up"])

    # g now holds the gradient at the deepest encoder feature
    for i in range(cfg.levels - 1, -1, -1):
        ec = cache["enc"][i]
        if i in skip_grads:
            g = g + skip_grads[i]
        g_res = g
        # level 0 feeds from the input; nothing upstream takes its gradient
        g = _block_backward(g, ec["convs"], f"enc{i}", grads, input_grad=i > 0)
        if i == 0:
            break
        if cfg.multiscale_inputs:
            g, _ = concat_channels_backward(g, ec["ms_widths"])  # raw branch ends here
        g = g + g_res
        g, grads[f"down{i}.prelu"] = prelu_backward(g, ec["down_prelu"])
        g, grads[f"down{i}.kernel"], grads[f"down{i}.bias"] = downconv_backward(
            g, ec["down"]
        )
    return grads
