"""End-to-end orchestration: preprocessing, network, CRF, and reporting.

Four entry points, mirrored by the CLI:

* :func:`extract` runs the full chain on one volume: reorient, resample to
  isotropic spacing, normalize, pad, optionally halve the grid, network
  forward pass, CRF refinement, component cleanup, and a nearest-neighbor
  trip back to the native grid. A JSON sidecar records every transform so
  the native-space mapping can be replayed without the pipeline.
* :func:`train` fits the network on a directory of image/mask pairs with
  on-load augmentation, momentum SGD on the soft-dice loss, a held-out
  split, and a best-loss checkpoint. Fully seeded: two runs with the same
  config produce identical loss logs.
* :func:`evaluate` scores predicted masks against reference masks case by
  case and writes a per-case JSON report plus a mean/std summary CSV.
* :func:`refine_file` CRF-refines a saved probability map against its
  image and writes the mask, with no network.

Every run is deterministic given its config.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .augment import intensity_augment, rigid_augment
from .crf import CrfConfig, refine
from .errors import ConfigError, DataError, EvcsegError, TrainingError, whole_number
from .evnet import (
    EvNetConfig,
    evnet_backward,
    evnet_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    soft_dice_loss,
)
from .metrics import balanced_ahd, dice, jaccard
from .nifti import read_mask, read_nifti, read_probmap, write_nifti
from .postproc import cleanup as component_cleanup
from .volume import SPACING_MM, LabelMask, ProbMap, Volume, check_same_grid, mask_to_native
from .volume import mask_to_network, pad_to, reorient_ras, resample_isotropic, resize_half

# Network-input intensity scale: resample to SPACING_MM isotropic spacing,
# divide by this percentile of the volume, clamp to [0, NORM_CLAMP].
NORM_PERCENTILE = 99.0
NORM_CLAMP = 1.5


def _paired_files(
    a_dir: Path, b_dir: Path, a_kind: str, b_kind: str
) -> list[tuple[str, Path, Path]]:
    """Match the NIfTI files directly inside two directories by filename.

    Every file without a partner is named in one error, so a single run
    lists all of them.
    """
    listed = []
    for kind, d in ((a_kind, a_dir), (b_kind, b_dir)):
        if not d.is_dir():
            raise DataError(f"{kind} directory not found: {d}")
        listed.append({
            p.name: p for p in sorted(d.iterdir())
            if p.is_file() and p.name.endswith((".nii", ".nii.gz"))
        })
    a, b = listed
    problems = [f"{a_kind} without {b_kind}: {a[n]}" for n in sorted(a.keys() - b.keys())]
    problems += [f"{b_kind} without {a_kind}: {b[n]}" for n in sorted(b.keys() - a.keys())]
    if problems:
        raise DataError("unpaired files:\n" + "\n".join(problems))
    if not a:
        raise DataError(f"no NIfTI files under {a_dir}")
    return [(n, a[n], b[n]) for n in sorted(a)]


def _prepare_outputs(outputs: dict, inputs) -> None:
    """Refuse with a ConfigError an output that resolves to another output,
    to one of the input paths or to a directory, then make each output's
    directory, so that no such fault shows only after the work. outputs maps
    names to paths, where None is unset."""
    claimed = {os.path.realpath(p): "input" for p in inputs}
    for name, path in outputs.items():
        if path is not None:
            resolved = os.path.realpath(path)
            if resolved in claimed:
                raise ConfigError(f"{claimed[resolved]} and {name} both resolve to {resolved}; "
                                  "one would overwrite the other")
            if os.path.isdir(resolved):
                raise ConfigError(f"cannot overwrite the directory {resolved} with the {name}")
            claimed[resolved] = name
    for path in outputs.values():
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _stage(name: str):
    """Prefix any pipeline error with the stage it came from."""
    try:
        yield
    except EvcsegError as e:
        raise type(e)(f"stage '{name}': {e}") from e


@dataclass(frozen=True)
class GridConfig:
    """Target grid for the network input.

    The default pads to 64^3 and halves to a 32^3 network grid; the scanner
    scale is pad 256^3 halved to 128^3. Spacing and intensity normalization
    are fixed: see ``SPACING_MM``, ``NORM_PERCENTILE`` and ``NORM_CLAMP``.
    """

    pad_shape: tuple[int, int, int] = (64, 64, 64)
    resize_half: bool = True

    def __post_init__(self):
        try:
            pad = tuple(self.pad_shape)
        except TypeError:
            pad = ()
        if len(pad) != 3:
            raise ConfigError(f"pad_shape must be 3 positive ints, got {self.pad_shape!r}")
        pad = tuple(whole_number("each pad_shape entry", s, 1) for s in pad)
        if self.resize_half and any(s % 2 for s in pad):
            raise ConfigError(f"pad_shape must be even to halve, got {pad}")
        object.__setattr__(self, "pad_shape", pad)

    @property
    def step(self) -> int:
        """Padded-grid voxels per network voxel along each axis: 2 when halved."""
        return 2 if self.resize_half else 1

    def network_shape(self) -> tuple[int, int, int]:
        return tuple(s // self.step for s in self.pad_shape)


def _check_grid_fits(grid: GridConfig, net_cfg: EvNetConfig) -> None:
    step = 2 ** (net_cfg.levels - 1)
    shape = grid.network_shape()
    if any(s % step for s in shape):
        raise ConfigError(
            f"network grid {shape} is not divisible by {step} "
            f"(required by {net_cfg.levels} resolution levels)"
        )


def _check_resampled_extent(meta: dict, grid: GridConfig, net_cfg: EvNetConfig) -> None:
    """Refuse a resampled axis shorter than one voxel of the coarsest level:
    2^(levels - 1) network voxels, each two resampled ones when halved."""
    step = 2 ** (net_cfg.levels - 1) * grid.step
    shape = tuple(meta["resample"]["shape"])
    with _stage("resample"):
        if min(shape) < step:
            raise DataError(f"resampled grid {shape} has an axis under {step * SPACING_MM:g} "
                            "mm, one voxel of the network's coarsest level")


def linear_percentile(data: np.ndarray, pct: float) -> float:
    """``np.percentile(data, pct)`` (method "linear") from one partition.

    numpy partitions a copy at four ranks; this partitions at the floor of
    the virtual index ``(n - 1) * pct / 100``, takes the next rank as the
    minimum above it, and interpolates as numpy's ``_lerp`` does, so the
    float is numpy's. Only a zero's sign may differ, when the two ranks
    hold both 0.0 and -0.0.
    """
    flat = data.ravel()
    n = flat.size
    vi = (n - 1) * (pct / 100)
    if vi >= n - 1:
        return float(flat.max())
    lo = int(vi)
    part = np.partition(flat, lo)
    a, b = part[lo], part[lo + 1 :].min()
    t, d = vi - lo, b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def preprocess_volume(v: Volume, grid: GridConfig) -> tuple[Volume, dict]:
    """Reorient, resample, normalize, pad, and optionally halve one volume.

    Returns the network-grid volume and a metadata dict holding everything
    needed to carry a mask on that grid back to the native one: the pad
    offsets, the pre-halving shape, and the affines along the way. The
    stages pass plain arrays, and only the network-grid volume is checked.
    A volume whose resampled voxels all hold one value has no contrast to
    segment and raises DataError.
    """
    with _stage("reorient"):
        data, affine = reorient_ras(v.data, v.affine)
    with _stage("resample"):
        data, affine = resample_isotropic(data, affine, SPACING_MM)
    resampled_shape = data.shape
    with _stage("normalize"):
        if data.max() == data.min():
            raise DataError(f"no contrast: every resampled voxel is {data.flat[0]}")
        divisor = max(linear_percentile(data, NORM_PERCENTILE), 1e-12)
        data = data / divisor
        np.clip(data, 0.0, NORM_CLAMP, out=data)
    with _stage("pad"):
        data, affine, offsets = pad_to(data, affine, grid.pad_shape)
    pre_resize_shape = data.shape
    with _stage("resize"):
        net_vol = Volume(*resize_half(data, affine) if grid.resize_half else (data, affine))
    meta = {
        "original": {"shape": list(v.shape), "affine": v.affine.tolist()},
        "resample": {"spacing_mm": SPACING_MM, "shape": list(resampled_shape)},
        "normalize": {
            "percentile": NORM_PERCENTILE,
            "divisor": divisor,
            "clamp": NORM_CLAMP,
        },
        "pad": {"target": list(grid.pad_shape), "offsets": list(offsets)},
        "resize_half": grid.resize_half,
        "pre_resize_shape": list(pre_resize_shape),
        "network_grid": {"shape": list(net_vol.shape), "affine": net_vol.affine.tolist()},
    }
    return net_vol, meta


@dataclass(frozen=True)
class PipelineConfig:
    """Everything :func:`extract` needs for one volume.

    The network config always comes from the checkpoint.
    """

    input_path: str
    output_path: str
    checkpoint_path: str
    sidecar_path: str | None = None
    crf: CrfConfig = field(default_factory=CrfConfig)
    cleanup: bool = True
    grid: GridConfig = field(default_factory=GridConfig)

    def resolved_sidecar(self) -> Path:
        if self.sidecar_path is not None:
            return Path(self.sidecar_path)
        return Path(str(self.output_path) + ".transforms.json")


@dataclass(frozen=True)
class ExtractResult:
    """What :func:`extract` wrote and the in-memory stages behind it."""

    output_path: Path
    sidecar_path: Path
    native_mask: LabelMask
    network_mask: LabelMask
    probs: ProbMap
    sidecar: dict


def extract(cfg: PipelineConfig) -> ExtractResult:
    """Run the full extraction chain on one volume and write the mask.

    Chain: reorient, resample, normalize, pad, optional halving, network
    forward pass, CRF refinement (the network's argmax at 0 iterations),
    optional component cleanup, nearest-neighbor mapping to the native
    grid, NIfTI write plus JSON transform sidecar. A mask with no foreground
    is still written, and the sidecar flags it ``empty_mask``.
    Deterministic: a fixed checkpoint and config always produce identical
    bytes.
    """
    with _stage("checkpoint"):
        params, net_cfg, manifest = load_checkpoint(cfg.checkpoint_path)
    with _stage("config"):
        _check_grid_fits(cfg.grid, net_cfg)
        inputs = [cfg.checkpoint_path]
        if os.path.realpath(cfg.input_path) != os.path.realpath(cfg.output_path):
            inputs.append(cfg.input_path)  # the mask may replace its scan, read whole first
        _prepare_outputs({"output": cfg.output_path, "sidecar": cfg.resolved_sidecar()}, inputs)
    with _stage("read"):
        original = read_nifti(cfg.input_path)
    net_vol, meta = preprocess_volume(original, cfg.grid)
    _check_resampled_extent(meta, cfg.grid, net_cfg)
    with _stage("network"):
        x = net_vol.data[None, None].astype(np.float32)
        probs, _ = evnet_forward(x, params, net_cfg)
        prob_map = ProbMap(data=probs[0].astype(np.float64), affine=net_vol.affine)
    with _stage("crf"):
        network_mask, _ = refine(prob_map, net_vol, cfg.crf, keep_state=False)
    with _stage("cleanup"):
        if cfg.cleanup:
            network_mask = component_cleanup(network_mask)
    with _stage("native"):
        native = mask_to_native(
            network_mask,
            original,
            offsets=tuple(meta["pad"]["offsets"]),
            pre_resize_shape=tuple(meta["pre_resize_shape"]),
        )
    sidecar = {
        "tool": "evcseg extract",
        "input": str(cfg.input_path),
        "output": str(cfg.output_path),
        "checkpoint": str(cfg.checkpoint_path),
        "checkpoint_config_hash": manifest["config_hash"],
        "config": {
            "evnet": asdict(net_cfg),
            "crf": asdict(cfg.crf),
            "cleanup": cfg.cleanup,
            "grid": asdict(cfg.grid),
        },
        "transforms": meta,
    }
    if not native.data.any():
        sidecar["flags"] = ["empty_mask"]
    with _stage("write"):
        out_path = Path(cfg.output_path)
        write_nifti(native, out_path)
        sidecar_path = cfg.resolved_sidecar()
        _write_json(sidecar_path, sidecar)
    return ExtractResult(
        output_path=out_path,
        sidecar_path=sidecar_path,
        native_mask=native,
        network_mask=network_mask,
        probs=prob_map,
        sidecar=sidecar,
    )


def refine_file(prob_path, image_path, output_path, crf: CrfConfig) -> LabelMask:
    """Refine a saved two-label map against its image on the same grid; write the mask."""
    with _stage("config"):
        _prepare_outputs({"output": output_path}, [prob_path, image_path])
    with _stage("read"):
        probs, image = read_probmap(prob_path), read_nifti(image_path)
    with _stage("crf"):
        mask, _ = refine(probs, image, crf, keep_state=False)
    with _stage("write"):
        write_nifti(mask, output_path)
    return mask


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training run description.

    ``data_dir`` must hold ``images/`` and ``masks/`` subdirectories whose
    NIfTI files pair up by filename. ``holdout`` cases are split off before
    training and scored (without augmentation) after every epoch; the
    checkpoint with the best monitored loss (held-out when available, else
    training) is kept.
    """

    data_dir: str
    checkpoint_path: str
    log_path: str | None = None
    epochs: int = 30
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 1
    holdout: int = 0
    seed: int = 0
    augment: bool = True
    evnet: EvNetConfig = field(default_factory=EvNetConfig)
    grid: GridConfig = field(default_factory=GridConfig)

    def __post_init__(self):
        for name, minimum in (("epochs", 0), ("batch_size", 1), ("holdout", 0), ("seed", 0)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), minimum))
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

    def resolved_log(self) -> Path:
        if self.log_path is not None:
            return Path(self.log_path)
        return Path(str(self.checkpoint_path) + ".log.json")


@dataclass(frozen=True)
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    history: tuple[dict, ...]
    best_epoch: int | None
    best_loss: float | None


def _load_training_pairs(cfg: TrainConfig, files) -> list[tuple[Volume, LabelMask]]:
    """Read and preprocess every (name, image, mask) file pair onto the network grid.

    Bad files are collected and reported together so one broken scan does
    not hide the rest.
    """
    out: list[tuple[Volume, LabelMask]] = []
    problems: list[str] = []
    for _, img_path, msk_path in files:
        try:
            vol = read_nifti(img_path)
            msk = read_mask(msk_path)
            check_same_grid(msk, vol, "mask", "image")
            net_vol, meta = preprocess_volume(vol, cfg.grid)
            _check_resampled_extent(meta, cfg.grid, cfg.evnet)
            net_msk = mask_to_network(msk.data, vol.affine, meta["pad"]["offsets"],
                                      cfg.grid.step, net_vol.shape)
            out.append((net_vol, LabelMask(net_msk, net_vol.affine)))
        except (EvcsegError, OSError) as e:
            problems.append(f"{img_path}: {e}")
    if problems:
        raise DataError("unusable training pairs:\n" + "\n".join(problems))
    return out


def _augmented(pair, cfg: TrainConfig, epoch: int, index: int):
    """Augment one (volume, mask) pair on its own (seed, epoch, index) stream."""
    vol, msk = pair
    if not cfg.augment:
        return vol, msk
    rng = np.random.default_rng((cfg.seed, epoch, index))
    vol, msk = rigid_augment(vol, msk, rng)
    vol = intensity_augment(vol, rng)
    return vol, msk


def _forward_loss(params, net_cfg, batch):
    """Mean soft-dice of a list of (volume, mask) pairs, no gradient."""
    losses = []
    for vol, msk in batch:
        x = vol.data[None, None].astype(np.float32)
        probs, _ = evnet_forward(x, params, net_cfg)
        report, _ = soft_dice_loss(probs, msk.data[None])
        losses.append(report.value)
    return float(np.mean(losses))


def train(cfg: TrainConfig) -> TrainResult:
    """Fit the network and keep the best checkpoint.

    Epochs run over shuffled minibatches with per-sample augmentation
    streams keyed by (seed, epoch, sample index), so the loss log is a
    pure function of the config. An initialization checkpoint is written
    up front; it survives as the result when epochs is 0.
    """
    with _stage("config"):
        _check_grid_fits(cfg.grid, cfg.evnet)
        root = Path(cfg.data_dir)
        files = _paired_files(root / "images", root / "masks", "image", "mask")
        _prepare_outputs({"checkpoint": cfg.checkpoint_path, "log": cfg.resolved_log()},
                         [p for _, img, msk in files for p in (img, msk)])
    with _stage("dataset"):
        data = _load_training_pairs(cfg, files)
        if cfg.holdout >= len(data):
            raise ConfigError(
                f"holdout {cfg.holdout} must leave at least one of "
                f"{len(data)} pairs for training"
            )

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(len(data))
    val = [data[i] for i in perm[: cfg.holdout]]
    train_set = [data[i] for i in perm[cfg.holdout :]]

    params = init_params(cfg.evnet, dtype=np.float32)
    velocity = None
    ckpt_path = Path(cfg.checkpoint_path)
    save_checkpoint(ckpt_path, params, cfg.evnet, extra={"epoch": None})

    history: list[dict] = []
    best_loss = None
    best_epoch = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for b, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = order[start : start + cfg.batch_size]
            batch = [_augmented(train_set[i], cfg, epoch, int(i)) for i in chunk]
            x = np.stack([v.data for v, _ in batch])[:, None].astype(np.float32)
            t = np.stack([m.data for _, m in batch])
            # a diverging run overflows inside numpy; the loss and gradient
            # checks report it, so numpy's own warnings stay quiet
            with _stage("train-step"), np.errstate(over="ignore", invalid="ignore"):
                probs, cache = evnet_forward(x, params, cfg.evnet, want_cache=True)
                report, grad = soft_dice_loss(probs, t)
                if not np.isfinite(report.value):
                    raise TrainingError(f"non-finite training loss at epoch {epoch}, batch {b}")
                grads = evnet_backward(grad.astype(np.float32), cache, cfg.evnet)
                params, velocity = sgd_step(params, grads, velocity, cfg.lr, cfg.momentum)
            epoch_losses += list(report.per_example)
        train_loss = float(np.mean(epoch_losses))
        val_loss = _forward_loss(params, cfg.evnet, val) if val else None
        history.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss})

        monitored = val_loss if val_loss is not None else train_loss
        if best_loss is None or monitored < best_loss:
            best_loss = monitored
            best_epoch = epoch
            save_checkpoint(
                ckpt_path,
                params,
                cfg.evnet,
                extra={"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss},
            )

    log_path = cfg.resolved_log()
    _write_json(log_path, {"seed": cfg.seed, "epochs": history})
    return TrainResult(
        checkpoint_path=ckpt_path,
        log_path=log_path,
        history=tuple(history),
        best_epoch=best_epoch,
        best_loss=best_loss,
    )


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

_METRICS = ("dice", "jaccard", "balanced_ahd")


def _score_case(name: str, pred_path: Path, truth_path: Path) -> tuple[str, dict]:
    truth = read_mask(truth_path)
    pred = read_mask(pred_path)
    check_same_grid(pred, truth, f"{name}: prediction", "truth")
    case = {
        "dice": dice(truth.data, pred.data),
        "jaccard": jaccard(truth.data, pred.data),
        "balanced_ahd": balanced_ahd(truth.data, pred.data, spacing=truth.spacing),
    }
    if not pred.data.any():
        case["flags"] = ["empty_prediction"]
    return name, case


def evaluate(pred_dir, truth_dir, json_path=None, csv_path=None) -> dict:
    """Score every prediction against the same-named reference mask.

    A prediction must share its reference's shape and affine, or the run
    fails with a DataError naming the case.

    Cases are scored in order in the calling thread. The report maps case
    names to dice / jaccard / balanced_ahd plus a summary with population
    mean and std per metric; an empty prediction scores balanced_ahd = inf
    and is flagged. Optionally written as JSON (per-case) and CSV (summary).
    """
    with _stage("config"):
        pairs = _paired_files(Path(pred_dir), Path(truth_dir), "prediction", "truth")
        _prepare_outputs({"JSON report": json_path, "CSV report": csv_path},
                         [p for _, pred, truth in pairs for p in (pred, truth)])
    with _stage("score"):
        cases = dict(_score_case(*pair) for pair in pairs)

    summary = {}
    for metric in _METRICS:
        values = np.array([case[metric] for case in cases.values()], dtype=np.float64)
        if np.isinf(values).any():
            # An empty prediction poisons the aggregate by design.
            mean, std = float("inf"), float("nan")
        else:
            mean, std = float(values.mean()), float(values.std())
        summary[metric] = {"mean": mean, "std": std, "n": len(cases)}
    report = {"cases": cases, "summary": summary}

    if json_path is not None:
        _write_json(json_path, report)
    if csv_path is not None:
        lines = ["metric,mean,std,n"]
        for metric in _METRICS:
            s = summary[metric]
            lines.append(f"{metric},{s['mean']!r},{s['std']!r},{s['n']}")
        Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return report
