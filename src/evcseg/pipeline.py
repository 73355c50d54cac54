"""End-to-end orchestration: preprocessing, network, CRF, and reporting.

Three entry points, mirrored by the CLI:

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

Every run is deterministic given its config; evaluation parallelism only
fans out over independent cases, keyed by name, so worker count never
changes results.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .augment import intensity_augment, rigid_augment
from .crf import CrfConfig, refine
from .errors import ConfigError, DataError, EvcsegError, TrainingError
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
from .nifti import read_mask, read_nifti, write_nifti
from .postproc import cleanup as component_cleanup
from .volume import (
    LabelMask,
    ProbMap,
    Volume,
    mask_to_native,
    pad_to,
    reorient_ras,
    resample_isotropic,
    resample_nearest_to_grid,
    resize_half,
)

DEFAULT_PAD = (64, 64, 64)
FULL_GRID_PAD = (256, 256, 256)
# Network-input intensity scale: resample to this isotropic spacing, divide
# by this percentile of the volume, clamp to [0, NORM_CLAMP].
SPACING_MM = 1.0
NORM_PERCENTILE = 99.0
NORM_CLAMP = 1.5


def worker_count() -> int:
    """Evaluation worker cap: EVCSEG_THREADS if set, else min(8, cpus)."""
    env = os.environ.get("EVCSEG_THREADS")
    if env is not None:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"EVCSEG_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigError(f"EVCSEG_THREADS must be >= 1, got {n}")
        return n
    return min(8, os.cpu_count() or 1)


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

    pad_shape: tuple[int, int, int] = DEFAULT_PAD
    resize_half: bool = True

    def __post_init__(self):
        pad = tuple(int(s) for s in self.pad_shape)
        if len(pad) != 3 or any(s < 1 for s in pad):
            raise ConfigError(f"pad_shape must be 3 positive ints, got {self.pad_shape}")
        if self.resize_half and any(s % 2 for s in pad):
            raise ConfigError(f"pad_shape must be even to halve, got {pad}")
        object.__setattr__(self, "pad_shape", pad)

    def network_shape(self) -> tuple[int, int, int]:
        if self.resize_half:
            return tuple(s // 2 for s in self.pad_shape)
        return self.pad_shape


def _check_grid_fits(grid: GridConfig, net_cfg: EvNetConfig) -> None:
    step = 2 ** (net_cfg.levels - 1)
    shape = grid.network_shape()
    if any(s % step for s in shape):
        raise ConfigError(
            f"network grid {shape} is not divisible by {step} "
            f"(required by {net_cfg.levels} resolution levels)"
        )


def preprocess_volume(v: Volume, grid: GridConfig) -> tuple[Volume, dict]:
    """Reorient, resample, normalize, pad, and optionally halve one volume.

    Returns the network-grid volume and a metadata dict holding everything
    needed to carry a mask on that grid back to the native one: the pad
    offsets, the pre-halving shape, and the affines along the way.
    """
    with _stage("reorient"):
        v1 = reorient_ras(v)
    with _stage("resample"):
        v2 = resample_isotropic(v1, SPACING_MM)
    with _stage("normalize"):
        divisor = float(np.percentile(v2.data, NORM_PERCENTILE))
        divisor = max(divisor, 1e-12)
        v2 = Volume(np.clip(v2.data / divisor, 0.0, NORM_CLAMP), v2.affine)
    with _stage("pad"):
        v3, offsets = pad_to(v2, grid.pad_shape)
    with _stage("resize"):
        v4 = resize_half(v3) if grid.resize_half else v3
    meta = {
        "original": {"shape": list(v.shape), "affine": v.affine.tolist()},
        "resample": {"spacing_mm": SPACING_MM, "shape": list(v2.shape)},
        "normalize": {
            "percentile": NORM_PERCENTILE,
            "divisor": divisor,
            "clamp": NORM_CLAMP,
        },
        "pad": {"target": list(grid.pad_shape), "offsets": list(offsets)},
        "resize_half": grid.resize_half,
        "pre_resize_shape": list(v3.shape),
        "network_grid": {"shape": list(v4.shape), "affine": v4.affine.tolist()},
    }
    return v4, meta


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
    forward pass, CRF refinement (skipped entirely at 0 iterations),
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
    with _stage("read"):
        original = read_nifti(cfg.input_path)
    net_vol, meta = preprocess_volume(original, cfg.grid)
    with _stage("network"):
        x = net_vol.data[None, None].astype(np.float32)
        probs, _ = evnet_forward(x, params, net_cfg)
        prob_map = ProbMap(data=probs[0].astype(np.float64), affine=net_vol.affine)
    with _stage("crf"):
        if cfg.crf.iterations == 0:
            # what refine returns at 0 iterations, without its message pass
            argmax = np.argmax(prob_map.data, axis=0).astype(np.uint8)
            network_mask = LabelMask(argmax, net_vol.affine)
        else:
            network_mask, _ = refine(prob_map, net_vol, cfg.crf)
    with _stage("cleanup"):
        if cfg.cleanup and network_mask.data.any():
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
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
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
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.holdout < 0:
            raise ConfigError(f"holdout must be >= 0, got {self.holdout}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

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


def _load_training_pairs(cfg: TrainConfig) -> list[tuple[str, Volume, LabelMask]]:
    """Read and preprocess every pair onto the network grid.

    Bad files are collected and reported together so one broken scan does
    not hide the rest.
    """
    out: list[tuple[str, Volume, LabelMask]] = []
    problems: list[str] = []
    root = Path(cfg.data_dir)
    for name, img_path, msk_path in _paired_files(
        root / "images", root / "masks", "image", "mask"
    ):
        try:
            vol = read_nifti(img_path)
            msk = read_mask(msk_path)
            if msk.shape != vol.shape:
                raise DataError(f"mask shape {msk.shape} != image shape {vol.shape}")
            if not np.allclose(msk.affine, vol.affine, atol=1e-5):
                raise DataError("mask and image grids disagree")
            net_vol, _ = preprocess_volume(vol, cfg.grid)
            net_msk = resample_nearest_to_grid(
                msk.data, msk.affine, net_vol.affine, net_vol.shape
            )
            out.append((name, net_vol, LabelMask(net_msk, net_vol.affine)))
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
    with _stage("dataset"):
        pairs = _load_training_pairs(cfg)
        data = [(vol, msk) for _, vol, msk in pairs]
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
    if ckpt_path.parent != Path(""):
        ckpt_path.parent.mkdir(parents=True, exist_ok=True)
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
    if pred.shape != truth.shape:
        raise DataError(
            f"{name}: prediction shape {pred.shape} != truth shape {truth.shape}"
        )
    flags = []
    if not pred.data.any():
        # Sentinel instead of a warning so threaded runs stay quiet.
        bahd = float("inf")
        flags.append("empty_prediction")
    else:
        bahd = balanced_ahd(truth.data, pred.data, spacing=truth.spacing)
    case = {
        "dice": dice(truth.data, pred.data),
        "jaccard": jaccard(truth.data, pred.data),
        "balanced_ahd": bahd,
    }
    if flags:
        case["flags"] = flags
    return name, case


def evaluate(pred_dir, truth_dir, json_path=None, csv_path=None) -> dict:
    """Score every prediction against the same-named reference mask.

    Cases run on a thread pool capped by ``EVCSEG_THREADS`` (results are
    keyed by name, so the worker count cannot change them). The report
    maps case names to dice / jaccard / balanced_ahd plus a summary with
    population mean and std per metric; an empty prediction scores
    balanced_ahd = inf and is flagged. Optionally written as JSON
    (per-case) and CSV (summary).
    """
    pairs = _paired_files(Path(pred_dir), Path(truth_dir), "prediction", "truth")
    names = [name for name, _, _ in pairs]
    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        cases = dict(pool.map(lambda pair: _score_case(*pair), pairs))

    summary = {}
    for metric in _METRICS:
        values = np.array([cases[n][metric] for n in names], dtype=np.float64)
        if np.isinf(values).any():
            # An empty prediction poisons the aggregate by design.
            mean, std = float("inf"), float("nan")
        else:
            mean, std = float(values.mean()), float(values.std())
        summary[metric] = {"mean": mean, "std": std, "n": len(names)}
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
