"""Single-file weight checkpoints.

Layout: 8-byte magic, a little-endian uint32 giving the length of a UTF-8
JSON manifest, the manifest itself, then the raw tensor payloads. The
manifest records the architecture config, a hash of it, and a tensor table
of shape, dtype and offset (from the end of the manifest) per tensor.
Tensors are stored float32 little-endian in C order, sorted by name, each
starting where the previous one ends, so identical weights always produce
identical files that end where the last tensor ends. Loading checks the
config keys and hash, then refuses with ``FormatError`` any tensor table but
the one that config's network implies, and any bytes after the payload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from ..errors import BadMagicError, ConfigError, FormatError, TruncatedFileError
from .network import EvNetConfig, param_shapes

MAGIC = b"EVCNET01"
FORMAT_NAME = "evcseg-checkpoint"


def config_hash(cfg: EvNetConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _tensor_table(shapes):
    """The manifest's tensor table for name -> shape (names sorted, float32,
    each offset where the previous tensor ends) and the payload's length."""
    table, offset = {}, 0
    for name in sorted(shapes):
        table[name] = {"shape": list(shapes[name]), "dtype": "float32", "offset": offset}
        offset += 4 * math.prod(shapes[name])
    return table, offset


def save_checkpoint(path, params, cfg: EvNetConfig, extra: dict | None = None):
    """Write weights (cast to float32) plus config and optional metadata."""
    arrays = {name: np.ascontiguousarray(arr, dtype="<f4") for name, arr in params.items()}
    manifest = {
        "format": FORMAT_NAME,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "tensors": _tensor_table({name: arr.shape for name, arr in arrays.items()})[0],
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(len(blob).to_bytes(4, "little"))
            f.write(blob)
            for name in sorted(arrays):
                f.write(arrays[name].tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # a failed write or replace leaves no temporary file
            os.remove(tmp)


def load_checkpoint(path):
    """Read a checkpoint; returns (params as float32 arrays, config, manifest)."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAGIC) + 4:
        raise TruncatedFileError(f"{path}: too short for a checkpoint header")
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {data[:len(MAGIC)]!r}")
    n = int(np.frombuffer(data, "<u4", count=1, offset=len(MAGIC))[0])
    start = len(MAGIC) + 4
    if len(data) < start + n:
        raise TruncatedFileError(f"{path}: manifest truncated")
    try:
        manifest = json.loads(data[start : start + n].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: unreadable manifest: {e}") from e
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise FormatError(f"{path}: not an {FORMAT_NAME} manifest")
    cfg_dict = manifest.get("config")
    if not isinstance(cfg_dict, dict):
        raise FormatError(f"{path}: manifest has no config object")
    keys = {f.name for f in dataclasses.fields(EvNetConfig)}
    if set(cfg_dict) != keys:
        raise FormatError(
            f"{path}: config keys missing {sorted(keys - set(cfg_dict))}, "
            f"unknown {sorted(set(cfg_dict) - keys)}"
        )
    try:
        cfg = EvNetConfig(**{**cfg_dict, "convs_per_block": tuple(cfg_dict["convs_per_block"])})
        expected = param_shapes(cfg)
    except (ConfigError, TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad config value: {e}") from e
    if manifest.get("config_hash") != config_hash(cfg):
        raise FormatError(f"{path}: config_hash does not match the config")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, dict):
        raise FormatError(f"{path}: manifest has no tensors object")
    table, size = _tensor_table(expected)
    # compared as the JSON save writes, where an offset of 0.0 or true is not 0 or 1
    if json.dumps(tensors, sort_keys=True) != json.dumps(table, sort_keys=True):
        got = {k: json.dumps(v, sort_keys=True) for k, v in tensors.items()}
        want = {k: json.dumps(v, sort_keys=True) for k, v in table.items()}
        wrong = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        raise FormatError(f"{path}: tensors do not match the config: " + "; ".join(
            f"{k} is {got.get(k, 'absent')} in the file, {want.get(k, 'absent')} by config"
            for k in wrong
        ))
    base = start + n
    if len(data) < base + size:
        raise TruncatedFileError(f"{path}: tensor payload truncated")
    if len(data) > base + size:
        raise FormatError(f"{path}: {len(data) - base - size} bytes after the tensor payload")
    params = {
        name: np.frombuffer(data, "<f4", count=math.prod(t["shape"]), offset=base + t["offset"])
        .reshape(expected[name]).copy()
        for name, t in table.items()
    }
    return params, cfg, manifest
