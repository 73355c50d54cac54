"""Command line front end: extract, train, refine, eval, synth.

Exit codes: 0 on success, 2 for usage errors, else the code the raised
error's class carries (the table is in :mod:`evcseg.errors`); running
out of memory is a compute failure, exit 4. Every
setting is a flag of its subcommand.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .crf import CrfConfig
from .errors import EvcsegError
from .evnet import EvNetConfig
from .pipeline import (
    DEFAULT_PAD,
    GridConfig,
    PipelineConfig,
    TrainConfig,
    evaluate,
    extract,
    refine_file,
    train,
)
from .synth import synth_dataset


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    grid = p.add_argument_group("target grid")
    grid.add_argument(
        "--pad",
        nargs=3,
        type=int,
        metavar=("X", "Y", "Z"),
        default=DEFAULT_PAD,
        help=f"padded grid shape (default {DEFAULT_PAD[0]}^3)",
    )
    grid.add_argument(
        "--no-resize-half",
        action="store_true",
        help="feed the padded grid to the network without halving it",
    )


def _grid_from_args(args) -> GridConfig:
    return GridConfig(pad_shape=tuple(args.pad), resize_half=not args.no_resize_half)


def _add_crf_args(p: argparse.ArgumentParser) -> None:
    crf = p.add_argument_group("CRF refinement")
    crf.add_argument("--crf-iters", type=int, default=CrfConfig.iterations,
                     help="mean-field iterations; 0 skips the CRF")
    crf.add_argument("--w-app", type=float, default=CrfConfig.w_appearance,
                     help="appearance kernel weight")
    crf.add_argument("--w-smooth", type=float, default=CrfConfig.w_smoothness,
                     help="smoothness kernel weight")
    crf.add_argument("--theta-alpha", type=float, default=CrfConfig.theta_alpha,
                     help="appearance spatial bandwidth, mm")
    crf.add_argument("--theta-beta", type=float, default=CrfConfig.theta_beta,
                     help="appearance intensity bandwidth")
    crf.add_argument("--theta-gamma", type=float, default=CrfConfig.theta_gamma,
                     help="smoothness spatial bandwidth, mm")
    crf.add_argument(
        "--crf-backend",
        choices=("brute", "filtered"),
        default=CrfConfig.backend,
        help="message passing backend (brute is exact but tiny-volume only)",
    )


def _crf_from_args(args) -> CrfConfig:
    return CrfConfig(
        w_appearance=args.w_app,
        w_smoothness=args.w_smooth,
        theta_alpha=args.theta_alpha,
        theta_beta=args.theta_beta,
        theta_gamma=args.theta_gamma,
        iterations=args.crf_iters,
        backend=args.crf_backend,
    )


def _cmd_extract(args) -> None:
    cfg = PipelineConfig(
        input_path=args.input_path,
        output_path=args.output_path,
        checkpoint_path=args.checkpoint,
        sidecar_path=args.sidecar,
        crf=_crf_from_args(args),
        cleanup=not args.no_cleanup,
        grid=_grid_from_args(args),
    )
    res = extract(cfg)
    print(f"wrote {res.output_path} (transforms in {res.sidecar_path})")


def _cmd_train(args) -> None:
    evnet = EvNetConfig(
        levels=args.levels,
        base_channels=args.base_channels,
        multiscale_inputs=not args.no_multiscale,
        seed=args.seed,
    )
    cfg = TrainConfig(
        data_dir=args.data,
        checkpoint_path=args.out,
        log_path=args.log,
        epochs=args.epochs,
        lr=args.lr,
        momentum=args.momentum,
        batch_size=args.batch,
        holdout=args.holdout,
        seed=args.seed,
        augment=not args.no_augment,
        evnet=evnet,
        grid=_grid_from_args(args),
    )
    res = train(cfg)
    if res.best_epoch is None:
        print(f"wrote initialization checkpoint {res.checkpoint_path}")
    else:
        print(
            f"wrote {res.checkpoint_path} (best epoch {res.best_epoch}, "
            f"loss {res.best_loss:.4f}; log in {res.log_path})"
        )


def _cmd_refine(args) -> None:
    cfg = _crf_from_args(args)
    refine_file(args.prob, args.image, args.out, cfg)
    print(f"wrote {args.out} ({cfg.iterations} updates)")


def _cmd_eval(args) -> None:
    report = evaluate(args.pred, args.truth, json_path=args.out_json, csv_path=args.out_csv)
    for metric, s in report["summary"].items():
        print(f"{metric}: {s['mean']:.4f} +/- {s['std']:.4f} (n={s['n']})")


def _cmd_synth(args) -> None:
    pairs = synth_dataset(args.n, args.size, args.seed, args.out)
    print(f"wrote {len(pairs)} phantom pairs under {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcseg",
        description="Brain extraction: multi-scale V-Net with dense CRF refinement.",
    )
    parser.add_argument("--version", action="version", version=f"evcseg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("extract", help="segment one volume end to end")
    p.add_argument("--in", dest="input_path", required=True, metavar="NIFTI", help="input volume")
    p.add_argument("--out", dest="output_path", required=True, metavar="NIFTI", help="output mask")
    p.add_argument("--checkpoint", required=True, help="trained network checkpoint")
    p.add_argument("--sidecar", default=None, help="transform log path (default OUT.transforms.json)")
    p.add_argument("--no-cleanup", action="store_true", help="skip connected-component cleanup")
    _add_grid_args(p)
    _add_crf_args(p)
    p.set_defaults(func=_cmd_extract)

    p = subs.add_parser("train", help="fit the network on image/mask pairs")
    p.add_argument("--data", required=True, help="directory with images/ and masks/ subdirs")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--log", default=None, help="loss log path (default OUT.log.json)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--holdout", type=int, default=TrainConfig.holdout,
                   help="cases held out for validation")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--levels", type=int, default=EvNetConfig.levels,
                   help="resolution levels in the network")
    p.add_argument("--base-channels", type=int, default=EvNetConfig.base_channels)
    p.add_argument(
        "--no-multiscale", action="store_true",
        help="drop the downscaled raw inputs (plain V-shaped baseline)",
    )
    p.add_argument("--no-augment", action="store_true", help="train without augmentation")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("refine", help="CRF-refine an existing probability map")
    p.add_argument("--prob", required=True, help="4D NIfTI probability map, labels last")
    p.add_argument("--image", required=True, help="intensity volume on the same grid")
    p.add_argument("--out", required=True, help="output mask path")
    _add_crf_args(p)
    p.set_defaults(func=_cmd_refine)

    p = subs.add_parser("eval", help="score predicted masks against references")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--truth", required=True, help="directory of reference masks")
    p.add_argument("--out-json", default=None, help="per-case report path")
    p.add_argument("--out-csv", default=None, help="summary table path")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("synth", help="generate a synthetic phantom dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--n", type=int, default=10, help="number of phantoms")
    p.add_argument("--size", type=int, default=32, help="grid side length (>= 16)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (EvcsegError, OSError) as e:
        print(f"evcseg: error: {e}", file=sys.stderr)
        return getattr(e, "exit_code", 3)  # an OSError is a data error
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"evcseg: error: out of memory{detail}", file=sys.stderr)
        return EvcsegError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
