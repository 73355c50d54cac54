"""Remake bench/checkpoint.evc, the fixed network the extract workloads use.

    python3 bench/make_checkpoint.py

Run from the root of a source checkout. Trains from fixed seeds on
phantoms (stream seed 7) that no benchmark input uses, keeps the best
held-out epoch, then prints the Dice of `extract` on two more unseen
phantoms (stream seed 8) without and with the CRF. The extract
workloads only need the file to stay fixed, not to be remade.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

from run import THREAD_VARS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

CASES = 24
HOLDOUT = 4
EPOCHS = 20
LR = 0.02
DATA_SEED = 7
SCORE_SEED = 8


def main() -> int:
    for var in THREAD_VARS:  # one BLAS thread, as the benchmark runs
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from evcseg import (
        CrfConfig,
        EvNetConfig,
        PipelineConfig,
        TrainConfig,
        evaluate,
        extract,
        synth_dataset,
        train,
    )

    work = ROOT / ".bench_work" / "make_checkpoint"
    shutil.rmtree(work, ignore_errors=True)
    try:
        synth_dataset(CASES, 64, DATA_SEED, work / "data")
        result = train(
            TrainConfig(
                data_dir=str(work / "data"),
                checkpoint_path=str(work / "checkpoint.evc"),
                epochs=EPOCHS,
                lr=LR,
                holdout=HOLDOUT,
                seed=0,
                evnet=EvNetConfig(base_channels=2),
            )
        )
        print(f"best epoch {result.best_epoch}, held-out loss {result.best_loss:.4f}")
        pairs = synth_dataset(2, 64, SCORE_SEED, work / "score")
        for iterations in (0, 5):
            pred = work / f"pred{iterations}"
            for img, _ in pairs:
                extract(
                    PipelineConfig(
                        input_path=str(img),
                        output_path=str(pred / img.name),
                        checkpoint_path=str(work / "checkpoint.evc"),
                        crf=CrfConfig(iterations=iterations),
                    )
                )
            d = evaluate(pred, work / "score" / "masks")["summary"]["dice"]["mean"]
            print(f"unseen Dice with {iterations} CRF iterations: {d:.4f}")
        shutil.copyfile(work / "checkpoint.evc", HERE / "checkpoint.evc")
        shutil.copyfile(work / "checkpoint.evc.log.json", HERE / "checkpoint.log.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
