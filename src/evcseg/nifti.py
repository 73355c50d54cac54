"""NIfTI-1 reading and writing.

Only the single-precision slice of NIfTI-1 that this pipeline needs:
datatypes uint8/int16/int32/float32/float64, gzip detected by magic bytes
rather than extension, transparent byte-swapped (big-endian) headers, and
the sform-over-qform affine precedence. Affines come back in mm, scaled
by the header's spatial unit (metres and microns; unknown reads as mm).
Values come back as float64 with scl_slope/scl_inter applied whenever
slope is nonzero.
"""

from __future__ import annotations

import gzip
import math
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    FormatError,
    GeometryError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)
from .volume import LabelMask, ProbMap, Volume, _check_affine

# --------------------------------------------------------------------------
# header layout
# --------------------------------------------------------------------------

HEADER_SIZE = 348
GZIP_MAGIC = b"\x1f\x8b"

_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

HEADER_DTYPE_LE = np.dtype([(f[0], "<" + f[1], *f[2:]) for f in _HEADER_FIELDS])
HEADER_DTYPE_BE = np.dtype([(f[0], ">" + f[1], *f[2:]) for f in _HEADER_FIELDS])
assert HEADER_DTYPE_LE.itemsize == HEADER_SIZE

# NIfTI-1 datatype code -> numpy dtype (little endian; flipped when swapped)
DATATYPES = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
}
_DTYPE_CODES = {np.dtype(d.str[1:]): code for code, d in DATATYPES.items()}

# NIfTI-1 spatial unit code (the low bits of xyzt_units) -> mm per unit:
# unknown, metre, mm, micron. Unknown reads as mm; other codes are refused.
SPATIAL_UNIT_BITS = 0x07
MM_PER_SPATIAL_UNIT = {0: 1.0, 1: 1000.0, 2: 1.0, 3: 0.001}


@dataclass
class NiftiHeader:
    """The header fields this reader acts on, already byte-order sorted."""

    dim: np.ndarray
    datatype: int
    pixdim: np.ndarray
    vox_offset: int
    scl_slope: float
    scl_inter: float
    qform_code: int
    sform_code: int
    xyzt_units: int
    quatern: tuple[float, float, float]
    qoffset: tuple[float, float, float]
    srow: np.ndarray
    magic: bytes
    byteswapped: bool

    @property
    def ndim(self) -> int:
        return int(self.dim[0])

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self.dim[1 : 1 + self.ndim])

    def affine(self) -> np.ndarray:
        """sform when present, else qform, else pixdim on the diagonal, in mm."""
        if self.sform_code > 0:
            aff = np.eye(4)
            aff[:3] = self.srow
        elif self.qform_code > 0:
            aff = self._qform_affine()
        else:
            aff = np.eye(4)
            for a in range(3):
                aff[a, a] = self.pixdim[1 + a] if self.pixdim[1 + a] != 0 else 1.0
        mm = MM_PER_SPATIAL_UNIT[self.xyzt_units & SPATIAL_UNIT_BITS]
        if mm != 1.0:
            # scaled in the header's float32, so a length stored as the
            # float32 of a whole number of mm reads as that number; one
            # past the float32 range turns inf, which the reader refuses
            with np.errstate(over="ignore"):
                aff[:3] = aff[:3].astype(np.float32) * np.float32(mm)
        return aff

    def _qform_affine(self) -> np.ndarray:
        b, c, d = (float(q) for q in self.quatern)
        a2 = 1.0 - (b * b + c * c + d * d)
        a = np.sqrt(a2) if a2 > 0 else 0.0
        rot = np.array(
            [
                [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
                [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
                [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
            ]
        )
        qfac = -1.0 if self.pixdim[0] < 0 else 1.0
        scale = np.array([self.pixdim[1], self.pixdim[2], self.pixdim[3] * qfac])
        aff = np.eye(4)
        aff[:3, :3] = rot * scale
        aff[:3, 3] = self.qoffset
        return aff


def _parse_header(buf: bytes, path) -> NiftiHeader:
    if len(buf) < HEADER_SIZE:
        raise TruncatedFileError(
            f"{path}: file holds {len(buf)} bytes, a NIfTI-1 header needs {HEADER_SIZE}"
        )
    raw = np.frombuffer(buf[:HEADER_SIZE], dtype=HEADER_DTYPE_LE)[0]
    swapped = False
    if int(raw["sizeof_hdr"]) != HEADER_SIZE:
        raw_be = np.frombuffer(buf[:HEADER_SIZE], dtype=HEADER_DTYPE_BE)[0]
        if int(raw_be["sizeof_hdr"]) == HEADER_SIZE:
            raw, swapped = raw_be, True
        else:
            raise BadMagicError(
                f"{path}: sizeof_hdr is {int(raw['sizeof_hdr'])}, not a NIfTI-1 file"
            )
    magic = bytes(raw["magic"])
    if magic not in (b"n+1", b"ni1"):
        raise BadMagicError(f"{path}: magic {magic!r} is not 'n+1' or 'ni1'")
    ndim = int(raw["dim"][0])
    if not 1 <= ndim <= 7:
        raise FormatError(f"{path}: dim[0] must be 1..7, got {ndim}")
    if any(int(d) < 1 for d in raw["dim"][1 : 1 + ndim]):
        raise FormatError(f"{path}: non-positive axis length in dim")
    vox_offset = float(raw["vox_offset"])
    if not (np.isfinite(vox_offset) and vox_offset >= 0):
        raise FormatError(f"{path}: vox_offset {vox_offset} is not a byte offset")
    units = int(raw["xyzt_units"])
    if units & SPATIAL_UNIT_BITS not in MM_PER_SPATIAL_UNIT:
        raise FormatError(f"{path}: xyzt_units {units} names no spatial unit")
    # a signaling NaN sets numpy's invalid flag in these casts; the finite
    # check on the affine reports it, so the flag is not worth a warning
    with np.errstate(invalid="ignore"):
        pixdim = np.array(raw["pixdim"], dtype=np.float64)
        srow = np.stack([raw["srow_x"], raw["srow_y"], raw["srow_z"]]).astype(np.float64)
    return NiftiHeader(
        dim=np.array(raw["dim"], dtype=np.int64),
        datatype=int(raw["datatype"]),
        pixdim=pixdim,
        vox_offset=int(vox_offset),
        scl_slope=float(raw["scl_slope"]),
        scl_inter=float(raw["scl_inter"]),
        qform_code=int(raw["qform_code"]),
        sform_code=int(raw["sform_code"]),
        xyzt_units=units,
        quatern=(float(raw["quatern_b"]), float(raw["quatern_c"]), float(raw["quatern_d"])),
        qoffset=(float(raw["qoffset_x"]), float(raw["qoffset_y"]), float(raw["qoffset_z"])),
        srow=srow,
        magic=magic,
        byteswapped=swapped,
    )


# --------------------------------------------------------------------------
# reading
# --------------------------------------------------------------------------


@contextmanager
def _gzip_errors(path):
    """Name the file in what the gzip decompressor raises."""
    try:
        yield
    except EOFError as e:
        raise TruncatedFileError(f"{path}: gzip stream ends early") from e
    except (zlib.error, gzip.BadGzipFile) as e:
        raise FormatError(f"{path}: corrupt gzip stream ({e})") from e


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == GZIP_MAGIC:
        with _gzip_errors(path):
            return gzip.decompress(buf)
    return buf


def _read_array(path) -> tuple[np.ndarray, np.ndarray]:
    """The voxel array (float64, scaling applied) and the header's affine."""
    path = Path(path)
    buf = _read_bytes(path)
    hdr = _parse_header(buf, path)
    try:
        affine = _check_affine(hdr.affine())
    except GeometryError as e:  # a header that names no valid affine is bad input
        raise FormatError(f"{path}: header {e}") from e

    if hdr.magic == b"ni1":
        # header/payload pair: voxels live in the sibling image file,
        # X.img beside X.hdr and X.img.gz beside X.hdr.gz
        if path.suffix == ".gz":
            img = path.with_suffix("").with_suffix(".img.gz")
        else:
            img = path.with_suffix(".img")
        if not img.exists():
            raise DataError(f"{path}: header pair is missing its image file {img}")
        buf = _read_bytes(img)
        offset = hdr.vox_offset
    else:
        offset = max(hdr.vox_offset, HEADER_SIZE)

    if hdr.datatype not in DATATYPES:
        raise UnsupportedDatatypeError(
            f"{path}: datatype code {hdr.datatype} is not supported "
            f"(supported: {sorted(DATATYPES)})"
        )
    dtype = DATATYPES[hdr.datatype]
    if hdr.byteswapped:
        dtype = dtype.newbyteorder(">")

    count = math.prod(hdr.shape)  # Python ints: no overflow
    need = offset + count * dtype.itemsize
    if len(buf) < need:
        raise TruncatedFileError(
            f"{path}: payload needs {need} bytes for shape {hdr.shape}, file has {len(buf)}"
        )
    flat = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    # cast straight into C order, the layout every later stage reads in.
    # A signaling NaN sets numpy's invalid flag in this cast; the finite
    # check on the volume reports it, so the flag is not worth a warning
    with np.errstate(invalid="ignore"):
        data = np.array(flat.reshape(hdr.shape, order="F"), dtype=np.float64, order="C")

    slope, inter = hdr.scl_slope, hdr.scl_inter
    if slope != 0.0 and np.isfinite(slope) and (slope, inter) != (1.0, 0.0):
        data = data * slope + inter
    return data, affine


def _squeeze_to_3d(data: np.ndarray, path) -> np.ndarray:
    if data.ndim >= 3 and all(s == 1 for s in data.shape[3:]):
        return data.reshape(data.shape[:3])
    raise FormatError(
        f"{path}: expected a 3D volume, file is {data.shape} (use read_probmap for 4D)"
    )


def read_nifti(path) -> Volume:
    """Read a 3D NIfTI-1 volume (values float64, scaling applied)."""
    data, affine = _read_array(path)
    return Volume(data=_squeeze_to_3d(data, path), affine=affine)


def read_mask(path) -> LabelMask:
    """Read a NIfTI-1 file that must contain only 0s and 1s."""
    data, affine = _read_array(path)
    data = _squeeze_to_3d(data, path)
    if not np.isin(data, (0.0, 1.0)).all():
        raise DataError(f"{path}: mask file contains values other than 0 and 1")
    return LabelMask(data=data.astype(np.uint8), affine=affine)


def read_probmap(path) -> ProbMap:
    """Read a 4D NIfTI-1 probability map; the 4th axis holds the labels."""
    data, affine = _read_array(path)
    if data.ndim != 4 or data.shape[3] < 2:
        raise FormatError(
            f"{path}: expected a 4D probability map of 2 or more labels, file is {data.shape}"
        )
    return ProbMap(data=np.moveaxis(data, 3, 0), affine=affine)


def read_header(path) -> NiftiHeader:
    """Parse just the header: only its first HEADER_SIZE bytes are read,
    inflated when the magic says gzip, so a payload cut short goes unseen."""
    path = Path(path)
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == GZIP_MAGIC
        fh.seek(0)
        if gzipped:
            with _gzip_errors(path), gzip.GzipFile(fileobj=fh) as gz:
                buf = gz.read(HEADER_SIZE)
        else:
            buf = fh.read(HEADER_SIZE)
    return _parse_header(buf, path)


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------


def _build_header(shape4, affine, dtype: np.dtype) -> bytes:
    raw = np.zeros((), dtype=HEADER_DTYPE_LE)
    raw["sizeof_hdr"] = HEADER_SIZE
    raw["regular"] = b"r"
    ndim = 4 if shape4[3] > 1 else 3
    raw["dim"][0] = ndim
    raw["dim"][1:5] = shape4
    raw["dim"][5:] = 1
    raw["datatype"] = _DTYPE_CODES[np.dtype(dtype)]
    raw["bitpix"] = np.dtype(dtype).itemsize * 8
    raw["pixdim"][0] = 1.0
    raw["pixdim"][1:4] = np.linalg.norm(np.asarray(affine)[:3, :3], axis=0)
    raw["pixdim"][4] = 1.0
    raw["vox_offset"] = 352.0
    raw["scl_slope"] = 1.0
    raw["scl_inter"] = 0.0
    raw["sform_code"] = 1
    raw["qform_code"] = 0
    raw["srow_x"] = affine[0]
    raw["srow_y"] = affine[1]
    raw["srow_z"] = affine[2]
    raw["magic"] = b"n+1"
    return raw.tobytes() + b"\x00" * 4  # no header extensions


# gzip member header: magic, deflate, no flags, mtime 0, XFL 0, OS unknown
_GZIP_HEADER = GZIP_MAGIC + b"\x08\x00\x00\x00\x00\x00\x00\xff"


def _check_range(data: np.ndarray, dtype: np.dtype, path) -> None:
    """Refuse values that dtype would wrap, clip, truncate or overflow to inf."""
    if np.can_cast(data.dtype, dtype, "safe"):
        return
    info = np.finfo(dtype) if dtype.kind == "f" else np.iinfo(dtype)
    # 0 fits every dtype, and as the initial value it covers empty arrays
    lo, hi = data.min(initial=0.0), data.max(initial=0.0)
    if lo < info.min or hi > info.max:
        raise DataError(
            f"{path}: values span [{lo:g}, {hi:g}], outside what {dtype} holds "
            f"([{info.min:g}, {info.max:g}])"
        )
    if dtype.kind != "f" and (np.trunc(data) != data).any():
        raise DataError(f"{path}: values with a fraction, which {dtype} cannot hold")


def write_nifti(obj, path, dtype=None) -> None:
    """Write a Volume, LabelMask, or ProbMap as single-file NIfTI-1.

    Intensities default to float32 and masks to uint8; `dtype` may name any
    supported datatype instead; values it cannot hold (out of range, or a
    fraction for an integer type) are a DataError, raised before the file is
    opened. Output is gzipped when the path ends in .gz, as one member with
    mtime 0, no embedded filename and OS byte 255 around zlib's run-length
    deflate (Z_RLE), which skips the LZ77 search that finds almost nothing
    in float noise: about 3x faster than level 6 at about the same size.
    One volume always gives the same bytes.

    Args:
        obj: Volume, LabelMask, or ProbMap.
        path: destination; '.gz' suffix selects gzip.
        dtype: optional numpy dtype overriding the default on-disk type.
    """
    if isinstance(obj, LabelMask):
        data, default = obj.data, np.uint8
    elif isinstance(obj, ProbMap):
        data, default = np.moveaxis(obj.data, 0, 3), np.float32
    elif isinstance(obj, Volume):
        data, default = obj.data, np.float32
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as NIfTI")

    dtype = np.dtype(dtype if dtype is not None else default)
    if dtype not in _DTYPE_CODES:
        raise UnsupportedDatatypeError(
            f"cannot write datatype {dtype}; supported: {sorted(_DTYPE_CODES)}"
        )
    _check_range(data, dtype, path)
    shape4 = list(data.shape[:3]) + [data.shape[3] if data.ndim == 4 else 1]
    header = _build_header(shape4, obj.affine, dtype)
    # the transpose of an F-ordered array is C-contiguous over the same
    # memory, so its buffer is the payload in NIfTI's x-fastest order
    payload = data.astype(dtype.newbyteorder("<"), order="F").T

    path = str(path)
    with open(path, "wb") as fh:
        if not path.endswith(".gz"):
            fh.write(header)
            fh.write(payload)
            return
        deflate = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_RLE)
        fh.write(_GZIP_HEADER)
        fh.write(deflate.compress(header))
        fh.write(deflate.compress(payload))
        fh.write(deflate.flush())
        crc = zlib.crc32(payload, zlib.crc32(header))
        size = (len(header) + payload.nbytes) & 0xFFFFFFFF
        fh.write(crc.to_bytes(4, "little") + size.to_bytes(4, "little"))
