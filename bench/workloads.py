"""The three benchmark workloads and the run loop that measures them.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned. A run sets the workload up
SETUP_REPEATS times (timed, median reported), then repeats whole rounds
of operations until the run length has passed, then checks the outputs.
Phantoms and all seeds derive from the run's --seed; the checkpoint the
extract workloads use is fixed (see make_checkpoint.py).
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evcseg import (
    CrfConfig,
    EvNetConfig,
    GridConfig,
    PipelineConfig,
    TrainConfig,
    evaluate,
    extract,
    synth_dataset,
    train,
)
from evcseg.crf import filtered_message_pass
from evcseg.evnet import (
    evnet_backward,
    evnet_forward,
    init_params,
    load_checkpoint,
    soft_dice_loss,
)
from evcseg.nifti import read_nifti
from evcseg.pipeline import preprocess_volume
from evcseg.volume import resample_nearest_to_grid

import oracles
from spans import Tracer

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint.evc"

PHANTOM_SIZE = 64
GRID = GridConfig()  # pad to 64^3, halve to the 32^3 network grid at 2 mm
SETUP_REPEATS = 3
# Seed offsets keep the phantom streams of the extract inputs, the train
# workload's data, its unseen scoring phantoms and the checkpoint's
# training set (make_checkpoint.py, seeds 7 and 8) apart.
EXTRACT_SEED_BASE = 1000
TRAIN_SEED_BASE = 2000
TRAIN_EVAL_SEED_BASE = 3000

DICE_FLOOR = 0.9
DICE_MATCH = 1e-12  # benchmark Dice vs what evaluate reports
CRF_SAMPLE = 300

# a few epochs at the default grid: 5 training cases x 6 epochs = 30 steps
TRAIN_NET = EvNetConfig(base_channels=2)
TRAIN_CASES = 7
TRAIN_HOLDOUT = 2
TRAIN_EPOCHS = 6
TRAIN_LR = 0.02
TRAIN_EVAL_CASES = 2


@dataclass
class RunState:
    """What one run measured and checked."""

    op_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    dice: list[float] = field(default_factory=list)
    first: dict = field(default_factory=dict)  # inputs for the oracle checks


def _failed(run: RunState, what: str) -> None:
    run.failed += 1
    print(f"{what} failed:\n{traceback.format_exc()}", file=sys.stderr)


class ExtractWorkload:
    """`extract` on unseen phantoms with the fixed checkpoint, then one
    `evaluate` over the masks."""

    def __init__(self, iterations: int, volumes: int):
        self.crf = CrfConfig(iterations=iterations)
        self.volumes = volumes

    def setup(self, work: Path, seed: int) -> dict:
        data = work / "data"
        pairs = synth_dataset(self.volumes, PHANTOM_SIZE, EXTRACT_SEED_BASE + seed, data)
        params, net_cfg, _ = load_checkpoint(CHECKPOINT)
        warm = np.zeros((1, 1) + GRID.network_shape(), dtype=np.float32)
        evnet_forward(warm, params, net_cfg)
        return {"pairs": pairs, "pred": work / "pred", "truth": data / "masks"}

    def round(self, state: dict, run: RunState, seed: int) -> None:
        shutil.rmtree(state["pred"], ignore_errors=True)
        for img, _ in state["pairs"]:
            cfg = PipelineConfig(
                input_path=str(img),
                output_path=str(state["pred"] / img.name),
                checkpoint_path=str(CHECKPOINT),
                crf=self.crf,
                grid=GRID,
            )
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                result = extract(cfg)
            except Exception:
                _failed(run, f"extract {img.name}")
                continue
            run.op_times.append(time.perf_counter() - t0)
            run.first.setdefault("image", img)
            run.first.setdefault("probs", result.probs.data)
        run.attempted += 1
        try:
            report = evaluate(state["pred"], state["truth"])
        except Exception:
            _failed(run, "evaluate")
            return
        for img, msk in state["pairs"]:
            self._check_case(img, msk, state["pred"] / img.name, report, run)

    @staticmethod
    def _check_case(img, msk, pred_path, report, run: RunState) -> None:
        name = img.name
        image, image_affine = oracles.read_nifti_plain(img)
        truth, _ = oracles.read_nifti_plain(msk)
        pred, pred_affine = oracles.read_nifti_plain(pred_path)
        if pred.shape != image.shape or not np.array_equal(pred_affine, image_affine):
            run.problems.append(f"{name}: mask grid differs from the input's")
            return
        d = oracles.dice_plain(truth, pred)
        run.dice.append(d)
        if d < DICE_FLOOR:
            run.problems.append(f"{name}: Dice {d:.4f} < {DICE_FLOOR}")
        if abs(d - report["cases"][name]["dice"]) > DICE_MATCH:
            run.problems.append(
                f"{name}: evaluate reports Dice {report['cases'][name]['dice']!r}, "
                f"benchmark computes {d!r}"
            )
        run.problems += [f"{name}: {p}" for p in oracles.topology_problems(pred)]

    def check(self, state: dict, run: RunState, seed: int) -> None:
        """The CRF oracle, on the run's first volume, when the CRF runs."""
        if self.crf.iterations == 0 or "probs" not in run.first:
            return
        net_vol, _ = preprocess_volume(read_nifti(run.first["image"]), GRID)
        q = run.first["probs"]
        message = filtered_message_pass(q, net_vol, self.crf)
        sample = np.random.default_rng(seed).choice(net_vol.data.size, CRF_SAMPLE, replace=False)
        err = oracles.crf_message_error(
            message, q, net_vol.data, net_vol.spacing, self.crf, sample
        )
        if not err < oracles.CRF_TOL:
            run.problems.append(
                f"CRF message error {err:.4f} of range >= {oracles.CRF_TOL}"
            )


class TrainWorkload:
    """A few epochs of `train` with augmentation and a holdout; its Dice is
    the trained network's, without CRF, on unseen phantoms."""

    steps = TRAIN_EPOCHS * (TRAIN_CASES - TRAIN_HOLDOUT)  # batch size 1

    def setup(self, work: Path, seed: int) -> dict:
        pairs = synth_dataset(TRAIN_CASES, PHANTOM_SIZE, TRAIN_SEED_BASE + seed, work / "data")
        unseen = synth_dataset(
            TRAIN_EVAL_CASES, PHANTOM_SIZE, TRAIN_EVAL_SEED_BASE + seed, work / "unseen"
        )
        warm = np.zeros((1, 1) + GRID.network_shape(), dtype=np.float32)
        probs, cache = evnet_forward(
            warm, init_params(TRAIN_NET, dtype=np.float32), TRAIN_NET, want_cache=True
        )
        evnet_backward(probs, cache, TRAIN_NET)
        return {"work": work, "pairs": pairs, "unseen": unseen}

    def round(self, state: dict, run: RunState, seed: int) -> None:
        cfg = TrainConfig(
            data_dir=str(state["work"] / "data"),
            checkpoint_path=str(state["work"] / "model.evc"),
            epochs=TRAIN_EPOCHS,
            lr=TRAIN_LR,
            holdout=TRAIN_HOLDOUT,
            seed=seed,
            evnet=TRAIN_NET,
            grid=GRID,
        )
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            result = train(cfg)
        except Exception:
            _failed(run, "train")
            return
        run.op_times.append((time.perf_counter() - t0) / self.steps)
        losses = [h["train_loss"] for h in result.history]
        if len(losses) != TRAIN_EPOCHS or not losses[-1] < losses[0]:
            run.problems.append(f"training loss did not fall: {losses}")
        run.first.setdefault("checkpoint", result.checkpoint_path)

    def check(self, state: dict, run: RunState, seed: int) -> None:
        if "checkpoint" in run.first:
            run.dice += self._unseen_dice(state, run.first["checkpoint"])
        err = oracles.directional_grad_error(*self.gradients(state, seed))
        if not err < oracles.GRAD_TOL:
            run.problems.append(f"gradient relative error {err:.2e} >= {oracles.GRAD_TOL}")

    @staticmethod
    def _unseen_dice(state: dict, checkpoint) -> list[float]:
        params, net_cfg, _ = load_checkpoint(checkpoint)
        scores = []
        for img, msk in state["unseen"]:
            net_vol, _ = preprocess_volume(read_nifti(img), GRID)
            probs, _ = evnet_forward(net_vol.data[None, None].astype(np.float32), params, net_cfg)
            pred = np.argmax(probs[0], axis=0)
            # 64^3 phantoms need no padding, so the native grid is the
            # network grid doubled along each axis
            for axis in range(3):
                pred = np.repeat(pred, 2, axis=axis)
            truth, _ = oracles.read_nifti_plain(msk)
            scores.append(oracles.dice_plain(truth, pred))
        return scores

    @staticmethod
    def first_batch(state: dict):
        """The first training pair on the network grid, in float64."""
        img, msk = state["pairs"][0]
        net_vol, _ = preprocess_volume(read_nifti(img), GRID)
        truth, affine = oracles.read_nifti_plain(msk)
        t = resample_nearest_to_grid(truth, affine, net_vol.affine, net_vol.shape)
        return net_vol.data[None, None].astype(np.float64), t[None].astype(np.float64)

    @classmethod
    def gradients(cls, state: dict, seed: int):
        """(loss fn, evnet_backward grads, params, unit direction) in float64."""
        x, t = cls.first_batch(state)
        params = init_params(TRAIN_NET, dtype=np.float64)

        def loss(p):
            probs, _ = evnet_forward(x, p, TRAIN_NET)
            return soft_dice_loss(probs, t)[0].value

        probs, cache = evnet_forward(x, params, TRAIN_NET, want_cache=True)
        _, grad = soft_dice_loss(probs, t)
        grads = evnet_backward(grad, cache, TRAIN_NET)
        rng = np.random.default_rng(seed)
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))
        direction = {k: d / norm for k, d in direction.items()}
        return loss, grads, params, direction


# One 45-s extract-crf call already spans the machine's speed drift; the
# 4.5-s extract-nocrf calls need six to a round to average over a
# comparable stretch of it.
WORKLOADS = {
    "extract-crf": lambda: ExtractWorkload(iterations=5, volumes=1),
    "extract-nocrf": lambda: ExtractWorkload(iterations=0, volumes=6),
    "train": TrainWorkload,
}


def _rounds(workload, state, run: RunState, seed: int, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        workload.round(state, run, seed)
        if time.perf_counter() - start >= seconds:
            return


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    """Set up, measure and check one workload; returns the result object.

    A traced run measures its rounds untraced first, then again with
    spans on, so it can report its own overhead.
    """
    workload = WORKLOADS[name]()
    work = scratch / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(work / f"setup{r}", seed)
            setup_times.append(time.perf_counter() - t0)

        run = RunState()
        _rounds(workload, state, run, seed, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_ops = len(run.op_times)
        if traced:
            tracer = Tracer()
            module = sys.modules[__name__]
            tracer.install({f"pipeline.{f}": (module, f) for f in ("extract", "train", "evaluate")})
            try:
                _rounds(workload, state, run, seed, seconds)
            finally:
                tracer.uninstall()
            (scratch / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(scratch / "traces" / f"{name}-seed{seed}.jsonl")

        workload.check(state, run, seed)
        for p in run.problems:
            print(f"check failed: {p}", file=sys.stderr)

        untraced_op_s = _median(run.op_times[:untraced_ops])
        if traced:
            traced_op_s = _median(run.op_times[untraced_ops:])
            metrics = {k: _metric(v, u) for k, (v, u) in tracer.layer_metrics().items()}
            metrics["trace.op_s"] = _metric(traced_op_s, "s")
            metrics["trace.overhead_s"] = _metric(traced_op_s - untraced_op_s, "s")
        else:
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "op_s": _metric(untraced_op_s, "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
                "dice": _metric(float(np.mean(run.dice)) if run.dice else 0.0, "1"),
            }
        return {
            "correct": not run.problems and bool(run.dice) and bool(run.op_times),
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
