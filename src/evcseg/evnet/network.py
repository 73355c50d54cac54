"""The segmentation network: a V-shaped encoder/decoder over 3D volumes.

After its resampling conv (none at level 0), every encoder and decoder
level runs the one routine `_level_forward` (backward: `_level_backward`):
join one extra tensor as more channels, run a block of 5x5x5 conv + PReLU
layers, and add the level's input, taken before the join, back. Encoder
levels halve the grid with a strided 2x2x2 conv, and with multi-scale
inputs on their extra tensor is the raw input halved once per level, so
dropping it or zeroing its weights recovers the plain single-scale network
exactly. Level 0 joins nothing; its one input channel broadcasts over the
block's. Decoder levels double the grid with a transposed conv and join
the encoder feature of their grid as the skip. A 1x1x1 conv and a softmax
over two channels end the network.

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


def param_shapes(cfg: EvNetConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in the order init_params draws them."""
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name, out_c, in_c, k):
        shapes[f"{name}.kernel"] = (out_c, in_c, k, k, k)
        shapes[f"{name}.bias"] = (out_c,)

    def block(name, c, in_c, convs):
        for j in range(convs):
            conv(f"{name}.conv{j}", c, in_c if j == 0 else c, KERNEL)
            shapes[f"{name}.prelu{j}"] = (c,)

    for i in range(cfg.levels):
        c_i = cfg.channels_at(i)
        if i > 0:
            conv(f"down{i}", c_i, cfg.channels_at(i - 1), 2)
            shapes[f"down{i}.prelu"] = (c_i,)
        block(f"enc{i}", c_i, c_i + cfg.multiscale_inputs if i > 0 else 1, cfg.convs_per_block[i])

    for i in range(cfg.levels - 2, -1, -1):
        c_i = cfg.channels_at(i)
        # transposed conv kernels are (in, out, 2, 2, 2)
        shapes[f"up{i}.kernel"] = (cfg.channels_at(i + 1), c_i, 2, 2, 2)
        shapes[f"up{i}.bias"] = (c_i,)
        shapes[f"up{i}.prelu"] = (c_i,)
        block(f"dec{i}", c_i, 2 * c_i, cfg.convs_per_block[i])

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


def _level_forward(t, extra, params, name, convs, cache):
    """One level after its resampling conv: join extra (unless None) to t's
    channels, run the padded conv + PReLU layers `name`.conv{j} /
    `name`.prelu{j} in turn, and add t back. Fills cache with the join's
    widths and one (conv, prelu) cache pair per layer."""
    res = t
    if extra is not None:
        t, cache["widths"] = concat_channels_forward([t, extra])
    cache["layers"] = []
    for j in range(convs):
        kernel, bias = params[f"{name}.conv{j}.kernel"], params[f"{name}.conv{j}.bias"]
        t, cc = conv3d_forward(t, kernel, bias, stride=1, padding=KERNEL // 2)
        t, cp = prelu_forward(t, params[f"{name}.prelu{j}"])
        cache["layers"].append((cc, cp))
    return t + res


def _level_backward(g, cache, name, grads, input_grad=True):
    """Backward of _level_forward; fills grads and returns the gradients of
    t and of extra (None without one). With input_grad False the first conv
    takes only its kernel and bias gradients, and (None, None) is returned."""
    g_res = g
    for j, (cc, cp) in reversed(list(enumerate(cache["layers"]))):
        g, grads[f"{name}.prelu{j}"] = prelu_backward(g, cp)
        if j == 0 and not input_grad:
            grads[f"{name}.conv0.kernel"], grads[f"{name}.conv0.bias"] = conv3d_param_grads(g, cc)
            return None, None
        g, grads[f"{name}.conv{j}.kernel"], grads[f"{name}.conv{j}.bias"] = (
            conv3d_backward(g, cc)
        )
    g_extra = None
    if "widths" in cache:
        g, g_extra = concat_channels_backward(g, cache["widths"])
    return g + g_res, g_extra


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
        lc, extra = {}, None
        if i > 0:
            t, lc["down"] = downconv_forward(
                t, params[f"down{i}.kernel"], params[f"down{i}.bias"]
            )
            t, lc["down_prelu"] = prelu_forward(t, params[f"down{i}.prelu"])
            if cfg.multiscale_inputs:
                extra = raw = halve_spatial(raw)
        t = _level_forward(t, extra, params, f"enc{i}", cfg.convs_per_block[i], lc)
        feats.append(t)
        if want_cache:
            cache["enc"].append(lc)

    for i in range(cfg.levels - 2, -1, -1):
        lc = {}
        t, lc["up"] = upconv_forward(t, params[f"up{i}.kernel"], params[f"up{i}.bias"])
        t, lc["up_prelu"] = prelu_forward(t, params[f"up{i}.prelu"])
        t = _level_forward(t, feats[i], params, f"dec{i}", cfg.convs_per_block[i], lc)
        if want_cache:
            cache["dec"].append(lc)

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

    # the decoder ran from level levels - 2 down to 0, so its caches reverse to level order
    skip_grads = []
    for i, lc in enumerate(reversed(cache["dec"])):
        g, g_skip = _level_backward(g, lc, f"dec{i}", grads)
        skip_grads.append(g_skip)
        g, grads[f"up{i}.prelu"] = prelu_backward(g, lc["up_prelu"])
        g, grads[f"up{i}.kernel"], grads[f"up{i}.bias"] = upconv_backward(g, lc["up"])

    # g now holds the gradient at the deepest encoder feature
    for i in range(cfg.levels - 1, -1, -1):
        lc = cache["enc"][i]
        if i < len(skip_grads):
            g = g + skip_grads[i]
        # the raw branch ends here; level 0 feeds from the input, whose
        # gradient nothing upstream takes
        g, _ = _level_backward(g, lc, f"enc{i}", grads, input_grad=i > 0)
        if i > 0:
            g, grads[f"down{i}.prelu"] = prelu_backward(g, lc["down_prelu"])
            g, grads[f"down{i}.kernel"], grads[f"down{i}.bias"] = downconv_backward(
                g, lc["down"]
            )
    return grads
