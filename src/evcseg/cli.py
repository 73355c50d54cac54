"""Command line front end: extract, train, refine, eval, synth.

Exit codes: 0 on success, 2 for usage errors, else the code the raised
error's class carries (the table is in :mod:`evcseg.errors`); running
out of memory is a compute failure, exit 4. Every setting of `extract`,
`train` and `refine` is a flag of its subcommand, stored under the name
of the config field it sets; a flag left out takes that config's own
default, so no default is written here.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .crf import CrfConfig
from .errors import EvcsegError
from .pipeline import GridConfig, PipelineConfig, TrainConfig, _stage, evaluate, extract
from .pipeline import refine_file, train
from .synth import synth_dataset


def _config(cls, args):
    """A cls built from the namespace attributes named after its fields; a
    field whose default is itself a config class is built the same way. A
    refused setting is an error of stage 'config', as the pipeline's own
    config checks are."""

    def build(cls):
        kwargs = {}
        for f in dataclasses.fields(cls):
            if dataclasses.is_dataclass(f.default_factory):
                kwargs[f.name] = build(f.default_factory)
            elif hasattr(args, f.name):
                kwargs[f.name] = getattr(args, f.name)
        return cls(**kwargs)

    with _stage("config"):
        return build(cls)


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    grid = p.add_argument_group("target grid")
    grid.add_argument(
        "--pad",
        dest="pad_shape",
        nargs=3,
        type=int,
        metavar=("X", "Y", "Z"),
        help=f"padded grid shape (default {GridConfig.pad_shape[0]}^3)",
    )
    grid.add_argument(
        "--no-resize-half",
        dest="resize_half",
        action="store_false",
        help="feed the padded grid to the network without halving it",
    )


def _add_crf_args(p: argparse.ArgumentParser) -> None:
    crf = p.add_argument_group("CRF refinement")
    crf.add_argument("--crf-iters", dest="iterations", type=int, metavar="CRF_ITERS",
                     help="mean-field iterations; 0 skips the CRF")
    crf.add_argument("--w-app", dest="w_appearance", type=float, metavar="W_APP",
                     help="appearance kernel weight")
    crf.add_argument("--w-smooth", dest="w_smoothness", type=float, metavar="W_SMOOTH",
                     help="smoothness kernel weight")
    crf.add_argument("--theta-alpha", type=float, help="appearance spatial bandwidth, mm")
    crf.add_argument("--theta-beta", type=float, help="appearance intensity bandwidth")
    crf.add_argument("--theta-gamma", type=float, help="smoothness spatial bandwidth, mm")


def _cmd_extract(args) -> None:
    res = extract(_config(PipelineConfig, args))
    print(f"wrote {res.output_path} (transforms in {res.sidecar_path})")


def _cmd_train(args) -> None:
    res = train(_config(TrainConfig, args))
    if res.best_epoch is None:
        print(f"wrote initialization checkpoint {res.checkpoint_path}")
    else:
        print(
            f"wrote {res.checkpoint_path} (best epoch {res.best_epoch}, "
            f"loss {res.best_loss:.4f}; log in {res.log_path})"
        )


def _cmd_refine(args) -> None:
    cfg = _config(CrfConfig, args)
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

    # unset flags stay out of the namespace, so each config keeps its defaults
    config_command = {"argument_default": argparse.SUPPRESS}
    p = subs.add_parser("extract", help="segment one volume end to end", **config_command)
    p.add_argument("--in", dest="input_path", required=True, metavar="NIFTI", help="input volume")
    p.add_argument("--out", dest="output_path", required=True, metavar="NIFTI", help="output mask")
    p.add_argument("--checkpoint", dest="checkpoint_path", required=True, metavar="CHECKPOINT",
                   help="trained network checkpoint")
    p.add_argument("--sidecar", dest="sidecar_path", metavar="SIDECAR",
                   help="transform log path (default OUT.transforms.json)")
    p.add_argument("--no-cleanup", dest="cleanup", action="store_false",
                   help="skip connected-component cleanup")
    _add_grid_args(p)
    _add_crf_args(p)
    p.set_defaults(func=_cmd_extract)

    p = subs.add_parser("train", help="fit the network on image/mask pairs", **config_command)
    p.add_argument("--data", dest="data_dir", required=True, metavar="DATA",
                   help="directory with images/ and masks/ subdirs")
    p.add_argument("--out", dest="checkpoint_path", required=True, metavar="OUT",
                   help="checkpoint path to write")
    p.add_argument("--log", dest="log_path", metavar="LOG",
                   help="loss log path (default OUT.log.json)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch", dest="batch_size", type=int, metavar="BATCH")
    p.add_argument("--holdout", type=int, help="cases held out for validation")
    # TrainConfig and EvNetConfig both name a field seed, so --seed sets both
    p.add_argument("--seed", type=int)
    p.add_argument("--levels", type=int, help="resolution levels in the network")
    p.add_argument("--base-channels", type=int)
    p.add_argument(
        "--no-multiscale", dest="multiscale_inputs", action="store_false",
        help="drop the downscaled raw inputs (plain V-shaped baseline)",
    )
    p.add_argument("--no-augment", dest="augment", action="store_false",
                   help="train without augmentation")
    _add_grid_args(p)
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("refine", help="CRF-refine an existing probability map", **config_command)
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
