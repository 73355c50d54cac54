"""The segmentation network: a V-shaped encoder/decoder over 3D volumes.

Each encoder level halves the grid with a strided 2x2x2 convolution and,
when multi-scale inputs are on, sees the raw input volume downsampled to
its own grid, appended to the downconv output before the level's conv
block; that raw input is halved once per level on the way down. Blocks are
residual: their input (taken before the raw-input merge, so turning the
merge off or zeroing its weights recovers the plain single-scale network
exactly) is added to the block output, the one-channel network input
broadcasting over level 0's channels. The decoder mirrors the encoder with
transposed convolutions and skip concatenations, ending in a 1x1x1 conv and
a softmax over two channels.

Parameters live in a flat name -> array dict; `evnet_forward` optionally
returns a cache that `evnet_backward` consumes to produce a gradient dict
with the same keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, GeometryError
from .ops import (
    concat_channels_backward,
    concat_channels_forward,
    conv3d_backward,
    conv3d_forward,
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
    decoder mirrors the encoder's counts. multiscale_mode selects how the
    downsampled raw input joins each level: an extra channel ("concat",
    the default) or a broadcast addition ("add").
    """

    levels: int = 2
    base_channels: int = 4
    convs_per_block: tuple[int, ...] = ()
    multiscale_inputs: bool = True
    multiscale_mode: str = "concat"
    prelu_init: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.levels <= 5:
            raise ConfigError(f"levels must be in 2..5, got {self.levels}")
        if self.base_channels < 2:
            raise ConfigError(f"base_channels must be >= 2, got {self.base_channels}")
        if not self.convs_per_block:
            object.__setattr__(
                self, "convs_per_block", (1, 2, 3, 3, 3)[: self.levels]
            )
        if len(self.convs_per_block) != self.levels:
            raise ConfigError(
                f"convs_per_block has {len(self.convs_per_block)} entries "
                f"for {self.levels} levels"
            )
        if any(c < 1 for c in self.convs_per_block):
            raise ConfigError("convs_per_block entries must be >= 1")
        if self.multiscale_mode not in ("concat", "add"):
            raise ConfigError(f"unknown multiscale_mode {self.multiscale_mode!r}")

    def channels_at(self, level: int) -> int:
        return self.base_channels * (2**level)


def _block_in_channels(cfg: EvNetConfig, level: int) -> int:
    c = cfg.channels_at(level) if level > 0 else 1
    if level > 0 and cfg.multiscale_inputs and cfg.multiscale_mode == "concat":
        c += 1
    return c


def init_params(cfg: EvNetConfig, dtype=np.float64) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform kernels, zero biases, constant PReLU slopes."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}

    def kernel(name, out_c, in_c, k):
        fan_in = in_c * k**3
        bound = np.sqrt(6.0 / fan_in)
        params[f"{name}.kernel"] = rng.uniform(
            -bound, bound, size=(out_c, in_c, k, k, k)
        ).astype(dtype)
        params[f"{name}.bias"] = np.zeros(out_c, dtype=dtype)

    def prelu(name, c):
        params[name] = np.full(c, cfg.prelu_init, dtype=dtype)

    for i in range(cfg.levels):
        c_i = cfg.channels_at(i)
        if i > 0:
            kernel(f"down{i}", c_i, cfg.channels_at(i - 1), 2)
            prelu(f"down{i}.prelu", c_i)
        c_in = _block_in_channels(cfg, i)
        for j in range(cfg.convs_per_block[i]):
            kernel(f"enc{i}.conv{j}", c_i, c_in if j == 0 else c_i, KERNEL)
            prelu(f"enc{i}.prelu{j}", c_i)

    for i in range(cfg.levels - 2, -1, -1):
        c_i = cfg.channels_at(i)
        # transposed conv kernels are (in, out, 2, 2, 2)
        fan_in = cfg.channels_at(i + 1) * 8
        bound = np.sqrt(6.0 / fan_in)
        params[f"up{i}.kernel"] = rng.uniform(
            -bound, bound, size=(cfg.channels_at(i + 1), c_i, 2, 2, 2)
        ).astype(dtype)
        params[f"up{i}.bias"] = np.zeros(c_i, dtype=dtype)
        prelu(f"up{i}.prelu", c_i)
        for j in range(cfg.convs_per_block[i]):
            kernel(f"dec{i}.conv{j}", c_i, 2 * c_i if j == 0 else c_i, KERNEL)
            prelu(f"dec{i}.prelu{j}", c_i)

    kernel("head", NUM_LABELS, cfg.base_channels, 1)
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


def _block_backward(g, caches, name, grads):
    """Backward of _block_forward; fills grads and returns the input gradient."""
    for j, (cc, cp) in reversed(list(enumerate(caches))):
        g, grads[f"{name}.prelu{j}"] = prelu_backward(g, cp)
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
            if cfg.multiscale_mode == "concat":
                t, ec["ms_widths"] = concat_channels_forward([t, raw])
            else:
                t = t + raw  # raw has one channel; broadcast over channels
        t, ec["convs"] = _block_forward(t, params, f"enc{i}", cfg.convs_per_block[i])
        t = t + res_src  # level 0's one input channel broadcasts over the block's
        feats.append(t)
        cache["enc"].append(ec)

    for i in range(cfg.levels - 2, -1, -1):
        dc = {"level": i}
        t, dc["up"] = upconv_forward(t, params[f"up{i}.kernel"], params[f"up{i}.bias"])
        t, dc["up_prelu"] = prelu_forward(t, params[f"up{i}.prelu"])
        res_src = t
        t, dc["skip_widths"] = concat_channels_forward([t, feats[i]])
        t, dc["convs"] = _block_forward(t, params, f"dec{i}", cfg.convs_per_block[i])
        t = t + res_src  # decoder residual; channel counts already match
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
        g = _block_backward(g, ec["convs"], f"enc{i}", grads)
        if i == 0:
            break  # level 0 feeds from the input; nothing upstream to fill
        if cfg.multiscale_inputs and cfg.multiscale_mode == "concat":
            g, _ = concat_channels_backward(g, ec["ms_widths"])  # raw branch ends here
        g = g + g_res
        g, grads[f"down{i}.prelu"] = prelu_backward(g, ec["down_prelu"])
        g, grads[f"down{i}.kernel"], grads[f"down{i}.bias"] = downconv_backward(
            g, ec["down"]
        )
    return grads
