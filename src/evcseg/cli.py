"""Command line front end: extract, train, refine, eval, synth.

Exit codes: 0 on success, 2 for usage errors, 3 for data problems (bad
files, bad config values, missing paths), 4 for compute problems
(geometry, capacity, training divergence). Each subcommand accepts
``--config FILE`` with defaults in JSON or flat ``key=value`` form, keyed
by option dest names (e.g. ``crf_iters=0``); each value must pass its
option's type, count and choices, and explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .crf import CrfConfig, refine
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DomainError,
    EvcsegError,
    FormatError,
    GeometryError,
    TrainingError,
)
from .evnet import EvNetConfig
from .nifti import read_nifti, read_probmap, write_nifti
from .pipeline import (
    DEFAULT_PAD,
    FULL_GRID_PAD,
    GridConfig,
    PipelineConfig,
    TrainConfig,
    evaluate,
    extract,
    train,
)
from .synth import synth_dataset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--config",
        metavar="FILE",
        help="defaults file, JSON or key=value lines keyed by option dest names",
    )


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    grid = p.add_argument_group("target grid")
    excl = grid.add_mutually_exclusive_group()
    excl.add_argument(
        "--pad",
        nargs=3,
        type=int,
        metavar=("X", "Y", "Z"),
        default=None,
        help=f"padded grid shape (default {DEFAULT_PAD[0]}^3)",
    )
    excl.add_argument(
        "--full-grid",
        action="store_true",
        help=f"scanner-scale grid: pad {FULL_GRID_PAD[0]}^3, network at half that",
    )
    grid.add_argument(
        "--no-resize-half",
        action="store_true",
        help="feed the padded grid to the network without halving it",
    )


def _grid_from_args(args) -> GridConfig:
    if args.pad is not None:
        pad = tuple(args.pad)
    elif args.full_grid:
        pad = FULL_GRID_PAD
    else:
        pad = DEFAULT_PAD
    return GridConfig(pad_shape=pad, resize_half=not args.no_resize_half)


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


def _cmd_extract(args) -> int:
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
    return EXIT_OK


def _cmd_train(args) -> int:
    evnet = EvNetConfig(
        levels=args.levels,
        base_channels=args.base_channels,
        multiscale_inputs=not args.no_multiscale,
        multiscale_mode=args.multiscale_mode,
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
    return EXIT_OK


def _cmd_refine(args) -> int:
    probs = read_probmap(args.prob)
    image = read_nifti(args.image)
    mask, state = refine(probs, image, _crf_from_args(args))
    write_nifti(mask, args.out)
    print(f"wrote {args.out} ({len(state.free_energy_trace) - 1} updates)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = evaluate(args.pred, args.truth, json_path=args.out_json, csv_path=args.out_csv)
    for metric, s in report["summary"].items():
        print(f"{metric}: {s['mean']:.4f} +/- {s['std']:.4f} (n={s['n']})")
    return EXIT_OK


def _cmd_synth(args) -> int:
    pairs = synth_dataset(args.n, args.size, args.seed, args.out)
    print(f"wrote {len(pairs)} phantom pairs under {args.out}")
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="evcseg",
        description="Brain extraction: multi-scale V-Net with dense CRF refinement.",
    )
    parser.add_argument("--version", action="version", version=f"evcseg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    subparsers: dict[str, argparse.ArgumentParser] = {}

    p = subs.add_parser("extract", help="segment one volume end to end")
    p.add_argument("--in", dest="input_path", required=True, metavar="NIFTI", help="input volume")
    p.add_argument("--out", dest="output_path", required=True, metavar="NIFTI", help="output mask")
    p.add_argument("--checkpoint", required=True, help="trained network checkpoint")
    p.add_argument("--sidecar", default=None, help="transform log path (default OUT.transforms.json)")
    p.add_argument("--no-cleanup", action="store_true", help="skip connected-component cleanup")
    _add_grid_args(p)
    _add_crf_args(p)
    _add_config_arg(p)
    p.set_defaults(func=_cmd_extract)
    subparsers["extract"] = p

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
        "--multiscale-mode", choices=("concat", "add"), default=EvNetConfig.multiscale_mode,
        help="how downscaled raw inputs join the encoder",
    )
    p.add_argument(
        "--no-multiscale", action="store_true",
        help="drop the downscaled raw inputs (plain V-shaped baseline)",
    )
    p.add_argument("--no-augment", action="store_true", help="train without augmentation")
    _add_grid_args(p)
    _add_config_arg(p)
    p.set_defaults(func=_cmd_train)
    subparsers["train"] = p

    p = subs.add_parser("refine", help="CRF-refine an existing probability map")
    p.add_argument("--prob", required=True, help="4D NIfTI probability map, labels last")
    p.add_argument("--image", required=True, help="intensity volume on the same grid")
    p.add_argument("--out", required=True, help="output mask path")
    _add_crf_args(p)
    _add_config_arg(p)
    p.set_defaults(func=_cmd_refine)
    subparsers["refine"] = p

    p = subs.add_parser("eval", help="score predicted masks against references")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--truth", required=True, help="directory of reference masks")
    p.add_argument("--out-json", default=None, help="per-case report path")
    p.add_argument("--out-csv", default=None, help="summary table path")
    _add_config_arg(p)
    p.set_defaults(func=_cmd_eval)
    subparsers["eval"] = p

    p = subs.add_parser("synth", help="generate a synthetic phantom dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--n", type=int, default=10, help="number of phantoms")
    p.add_argument("--size", type=int, default=32, help="grid side length (>= 16)")
    p.add_argument("--seed", type=int, default=0)
    _add_config_arg(p)
    p.set_defaults(func=_cmd_synth)
    subparsers["synth"] = p

    return parser, subparsers


def _load_config_file(path) -> dict:
    """Read defaults from JSON or flat key=value lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return json.loads(text)  # an object, or a decode error
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: unreadable config: {e}") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        raw = raw.strip()
        try:
            values[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            values[key.strip()] = raw
    return values


def _config_value(action: argparse.Action, value, where: str):
    """value as the option's own type, nargs and choices would read it."""
    if action.nargs == 0:  # a flag: the file says whether it is set
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    items = [value] if action.nargs is None else value
    if not isinstance(items, list) or len(items) != (action.nargs or 1):
        raise ConfigError(f"{where}: expected {action.nargs or 1} values, got {value!r}")
    convert = action.type or str
    out = []
    for item in items:
        if item is None:
            raise ConfigError(f"{where}: null is no value; leave the key out for the default")
        # each value is read from its text, as the command line reads a flag's
        text = item if isinstance(item, str) else json.dumps(item)
        try:
            item = convert(text)
        except ValueError:
            raise ConfigError(f"{where}: invalid {convert.__name__} value {text}") from None
        if action.choices is not None and item not in action.choices:
            raise ConfigError(f"{where}: {item!r} is not one of {list(action.choices)}")
        out.append(item)
    return out[0] if action.nargs is None else out


def _apply_config_defaults(sub: argparse.ArgumentParser, path) -> None:
    values = _load_config_file(path)
    actions = {a.dest: a for a in sub._actions}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    sub.set_defaults(
        **{k: _config_value(actions[k], v, f"{path}: {k}") for k, v in values.items()}
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # Config supplies defaults only; reparse so explicit flags win.
            _apply_config_defaults(subparsers[args.command], args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except (FormatError, DataError, ConfigError, DomainError, FileNotFoundError, OSError) as e:
        print(f"evcseg: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (GeometryError, CapacityError, TrainingError, EvcsegError) as e:
        print(f"evcseg: error: {e}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
