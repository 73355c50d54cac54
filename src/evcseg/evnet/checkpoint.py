"""Single-file weight checkpoints.

Layout: 8-byte magic, a little-endian uint32 giving the length of a UTF-8
JSON manifest, the manifest itself, then the raw tensor payloads. The
manifest records the architecture config, a hash of it for compatibility
checks, and per-tensor shape/dtype/offset (offsets are relative to the end
of the manifest). Tensors are stored float32 little-endian in C order,
sorted by name, so identical weights always produce identical files.
Loading checks the config keys and hash, and each tensor's name, shape and
offset against the network that config builds; any malformed manifest
raises ``FormatError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

from ..errors import BadMagicError, ConfigError, FormatError, TruncatedFileError
from .network import EvNetConfig, param_shapes

MAGIC = b"EVCNET01"
FORMAT_NAME = "evcseg-checkpoint"


def config_hash(cfg: EvNetConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_checkpoint(path, params, cfg: EvNetConfig, extra: dict | None = None):
    """Write weights (cast to float32) plus config and optional metadata."""
    names = sorted(params)
    tensors = {}
    offset = 0
    payloads = []
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        tensors[name] = {
            "shape": list(arr.shape),
            "dtype": "float32",
            "offset": offset,
        }
        payloads.append(arr.tobytes())
        offset += arr.nbytes
    manifest = {
        "format": FORMAT_NAME,
        "config": dataclasses.asdict(cfg),
        "config_hash": config_hash(cfg),
        "tensors": tensors,
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode()
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(np.uint32(len(blob)).tobytes())
            f.write(blob)
            for p in payloads:
                f.write(p)
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
    for name, info in tensors.items():
        if not (
            isinstance(info, dict)
            and isinstance(info.get("shape"), list)
            and type(info.get("offset")) is int
            and info["offset"] >= 0
            and info.get("dtype") == "float32"
        ):
            raise FormatError(
                f"{path}: tensor {name} needs a shape list, a non-negative "
                f"integer offset and dtype float32, got {info!r}"
            )
    shapes = {name: tuple(info["shape"]) for name, info in tensors.items()}
    wrong = sorted(k for k in shapes.keys() | expected.keys() if shapes.get(k) != expected.get(k))
    if wrong:
        raise FormatError(f"{path}: tensors do not match the config: " + "; ".join(
            f"{k} is {shapes.get(k, 'absent')} in the file, {expected.get(k, 'absent')} by config"
            for k in wrong
        ))
    base = start + n
    params = {}
    for name, info in tensors.items():
        shape = expected[name]
        count = int(np.prod(shape)) if shape else 1
        off = base + info["offset"]
        if off + 4 * count > len(data):
            raise TruncatedFileError(f"{path}: tensor {name} runs past end of file")
        params[name] = (
            np.frombuffer(data, "<f4", count=count, offset=off).reshape(shape).copy()
        )
    return params, cfg, manifest
