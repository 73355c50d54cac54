"""NIfTI-1 I/O against hand-packed reference files.

The crafting helpers below build headers with struct.pack_into at the
field offsets from the format definition, independently of the reader's
own header table, so reader and writer are checked against the format
rather than against each other.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np
import pytest

from evcseg.errors import (
    BadMagicError,
    DataError,
    FormatError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)
from evcseg.nifti import (
    read_header,
    read_mask,
    read_nifti,
    read_probmap,
    write_nifti,
)
from evcseg.volume import LabelMask, ProbMap, Volume


def craft_header(
    *,
    dim,
    datatype,
    bitpix,
    pixdim=(1, 1, 1, 1, 1, 1, 1, 1),
    vox_offset=352.0,
    scl=(0.0, 0.0),
    qform=0,
    sform=0,
    quat=(0.0, 0.0, 0.0),
    qoff=(0.0, 0.0, 0.0),
    srow=None,
    magic=b"n+1\x00",
    endian="<",
) -> bytes:
    h = bytearray(348)

    def put(off, fmt, *vals):
        struct.pack_into(endian + fmt, h, off, *vals)

    put(0, "i", 348)
    put(40, "8h", *dim)
    put(70, "h", datatype)
    put(72, "h", bitpix)
    put(76, "8f", *pixdim)
    put(108, "f", vox_offset)
    put(112, "f", scl[0])
    put(116, "f", scl[1])
    put(252, "h", qform)
    put(254, "h", sform)
    put(256, "3f", *quat)
    put(268, "3f", *qoff)
    if srow is not None:
        put(280, "4f", *srow[0])
        put(296, "4f", *srow[1])
        put(312, "4f", *srow[2])
    h[344:348] = magic
    return bytes(h)


def craft_file(path, header, data, endian="<", dtype="f4"):
    payload = np.asarray(data).astype(endian + dtype).tobytes(order="F")
    path.write_bytes(header + b"\x00" * 4 + payload)


IDENTITY_SROW = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])


class TestReadCrafted:
    def test_float32_values_and_affine(self, tmp_path):
        rng = np.random.default_rng(42)
        data = rng.random((3, 4, 5)).astype(np.float32)
        srow = ([1.5, 0, 0, -10], [0, 1.5, 0, 20], [0, 0, 1.5, 5])
        hdr = craft_header(
            dim=(3, 3, 4, 5, 1, 1, 1, 1), datatype=16, bitpix=32, sform=1, srow=srow
        )
        craft_file(tmp_path / "a.nii", hdr, data)
        v = read_nifti(tmp_path / "a.nii")
        assert v.data.dtype == np.float64
        np.testing.assert_array_equal(v.data, data.astype(np.float64))
        np.testing.assert_allclose(v.affine[:3], srow, atol=1e-6)

    def test_read_is_c_ordered_float64(self, tmp_path):
        data = np.arange(24, dtype=np.int16).reshape(2, 3, 4, order="F")
        hdr = craft_header(dim=(3, 2, 3, 4, 1, 1, 1, 1), datatype=4, bitpix=16)
        craft_file(tmp_path / "c.nii", hdr, data, dtype="i2")
        v = read_nifti(tmp_path / "c.nii")
        assert v.data.dtype == np.float64 and v.data.flags.c_contiguous
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    def test_x_fastest_order(self, tmp_path):
        # voxel (i, j, k) stored at flat index i + nx*j + nx*ny*k
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4, order="F")
        hdr = craft_header(dim=(3, 2, 3, 4, 1, 1, 1, 1), datatype=16, bitpix=32)
        craft_file(tmp_path / "o.nii", hdr, data)
        v = read_nifti(tmp_path / "o.nii")
        assert v.data[1, 0, 0] == 1.0
        assert v.data[0, 1, 0] == 2.0
        assert v.data[0, 0, 1] == 6.0

    @pytest.mark.parametrize(
        "code,np_dtype,bitpix",
        [(2, "u1", 8), (4, "i2", 16), (8, "i4", 32), (16, "f4", 32), (64, "f8", 64)],
    )
    def test_all_datatypes(self, tmp_path, code, np_dtype, bitpix):
        rng = np.random.default_rng(code)
        data = rng.integers(0, 100, size=(4, 3, 2)).astype(np_dtype)
        hdr = craft_header(dim=(3, 4, 3, 2, 1, 1, 1, 1), datatype=code, bitpix=bitpix)
        craft_file(tmp_path / "d.nii", hdr, data, dtype=np_dtype)
        v = read_nifti(tmp_path / "d.nii")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    def test_scaling_applied_when_slope_nonzero(self, tmp_path):
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=4, bitpix=16, scl=(2.5, -1.0)
        )
        craft_file(tmp_path / "s.nii", hdr, data, dtype="i2")
        v = read_nifti(tmp_path / "s.nii")
        np.testing.assert_allclose(v.data, data * 2.5 - 1.0, atol=1e-6)

    def test_zero_slope_means_unscaled(self, tmp_path):
        data = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=4, bitpix=16, scl=(0.0, 99.0)
        )
        craft_file(tmp_path / "u.nii", hdr, data, dtype="i2")
        v = read_nifti(tmp_path / "u.nii")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    def test_byteswapped_header_and_payload(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.integers(-500, 500, size=(3, 3, 3)).astype(np.int16)
        hdr = craft_header(
            dim=(3, 3, 3, 3, 1, 1, 1, 1), datatype=4, bitpix=16, endian=">",
            sform=1, srow=IDENTITY_SROW,
        )
        craft_file(tmp_path / "be.nii", hdr, data, endian=">", dtype="i2")
        v = read_nifti(tmp_path / "be.nii")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))
        assert read_header(tmp_path / "be.nii").byteswapped

    def test_gzip_detected_by_magic_not_extension(self, tmp_path):
        data = np.ones((2, 2, 2), dtype=np.float32)
        hdr = craft_header(dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32)
        payload = hdr + b"\x00" * 4 + data.tobytes(order="F")
        # gzipped content behind a bare .nii name
        (tmp_path / "z.nii").write_bytes(gzip.compress(payload))
        v = read_nifti(tmp_path / "z.nii")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    def test_header_pair_ni1(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            vox_offset=0.0, magic=b"ni1\x00",
        )
        (tmp_path / "p.hdr").write_bytes(hdr)
        (tmp_path / "p.img").write_bytes(data.tobytes(order="F"))
        v = read_nifti(tmp_path / "p.hdr")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    @pytest.mark.parametrize("gz_hdr,gz_img", [(True, True), (True, False), (False, True)])
    def test_gzipped_header_pair(self, tmp_path, gz_hdr, gz_img):
        # p.hdr.gz pairs with p.img.gz; gzip itself is found by magic bytes,
        # so either file of the pair may hold plain bytes under its .gz name
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            vox_offset=0.0, magic=b"ni1\x00",
        )
        img = data.tobytes(order="F")
        (tmp_path / "p.hdr.gz").write_bytes(gzip.compress(hdr) if gz_hdr else hdr)
        (tmp_path / "p.img.gz").write_bytes(gzip.compress(img) if gz_img else img)
        v = read_nifti(tmp_path / "p.hdr.gz")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))

    def test_gzipped_header_pair_names_missing_image(self, tmp_path):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            vox_offset=0.0, magic=b"ni1\x00",
        )
        (tmp_path / "p.hdr.gz").write_bytes(gzip.compress(hdr))
        with pytest.raises(DataError, match=r"p\.img\.gz"):
            read_nifti(tmp_path / "p.hdr.gz")

    @pytest.mark.parametrize(
        "dim, shape",
        [((2, 4, 5, 1, 1, 1, 1, 1), (4, 5)), ((4, 2, 2, 2, 3, 1, 1, 1), (2, 2, 2, 3)),
         ((5, 2, 3, 2, 1, 1, 1, 1), (2, 3, 2))],
        ids=["2d", "4d", "5d_unit_tail"],
    )
    def test_scan_and_mask_must_be_3d(self, tmp_path, dim, shape):
        # trailing axes of length 1 aside, the reader refuses a scan or mask
        # that is not 3D, naming the file (FormatError, exit 3)
        hdr = craft_header(dim=dim, datatype=16, bitpix=32)
        craft_file(tmp_path / "f.nii", hdr, np.zeros(shape, np.float32))
        for read in (read_nifti, read_mask):
            if len(shape) == 3:
                assert read(tmp_path / "f.nii").shape == shape
                continue
            with pytest.raises(FormatError, match=r"f\.nii: expected a 3D volume"):
                read(tmp_path / "f.nii")


class TestAffinePrecedence:
    def test_sform_wins_over_qform(self, tmp_path):
        srow = ([2, 0, 0, 1], [0, 2, 0, 2], [0, 0, 2, 3])
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            sform=1, srow=srow, qform=1, quat=(0, 0, 1), qoff=(9, 9, 9),
        )
        craft_file(tmp_path / "sf.nii", hdr, np.zeros((2, 2, 2), np.float32))
        v = read_nifti(tmp_path / "sf.nii")
        np.testing.assert_allclose(v.affine[:3], srow, atol=1e-6)

    def test_qform_quaternion(self, tmp_path):
        # 90 degree rotation about z: a = d = sqrt(1/2), 2 mm slices
        s = np.sqrt(0.5)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            qform=1, quat=(0.0, 0.0, s), qoff=(1.0, 2.0, 3.0),
            pixdim=(1, 1, 1, 2, 1, 1, 1, 1),
        )
        craft_file(tmp_path / "qf.nii", hdr, np.zeros((2, 2, 2), np.float32))
        v = read_nifti(tmp_path / "qf.nii")
        expect = np.array([[0, -1, 0, 1], [1, 0, 0, 2], [0, 0, 2, 3]], dtype=float)
        np.testing.assert_allclose(v.affine[:3], expect, atol=1e-6)

    def test_qform_negative_qfac(self, tmp_path):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            qform=1, quat=(0.0, 0.0, 0.0),
            pixdim=(-1, 1, 1, 2, 1, 1, 1, 1),
        )
        craft_file(tmp_path / "qn.nii", hdr, np.zeros((2, 2, 2), np.float32))
        v = read_nifti(tmp_path / "qn.nii")
        np.testing.assert_allclose(np.diag(v.affine), [1, 1, -2, 1], atol=1e-6)

    def test_fallback_to_pixdim(self, tmp_path):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            pixdim=(1, 0.7, 0.8, 0.9, 1, 1, 1, 1),
        )
        craft_file(tmp_path / "pd.nii", hdr, np.zeros((2, 2, 2), np.float32))
        v = read_nifti(tmp_path / "pd.nii")
        np.testing.assert_allclose(np.diag(v.affine), [0.7, 0.8, 0.9, 1], atol=1e-6)


class TestSpatialUnits:
    """The low bits of xyzt_units scale every affine form to mm; the time
    bits above them are ignored."""

    @staticmethod
    def crafted(tmp_path, form, units):
        forms = {
            "sform": dict(sform=1, srow=([2, 0, 0, 1], [0, 3, 0, 2], [0, 0, 4, 3])),
            "qform": dict(qform=1, qoff=(1, 2, 3)),
            "pixdim": {},
        }
        hdr = bytearray(craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            pixdim=(1, 2, 3, 4, 1, 1, 1, 1), **forms[form],
        ))
        hdr[123] = units  # xyzt_units
        path = tmp_path / f"{form}.nii"
        craft_file(path, bytes(hdr), np.zeros((2, 2, 2), np.float32))
        return path

    @pytest.mark.parametrize("form", ["sform", "qform", "pixdim"])
    @pytest.mark.parametrize(
        "units, mm",
        [(0, 1.0), (2, 1.0), (1, 1000.0), (3, 0.001), (1 | 8, 1000.0), (3 | 16, 0.001),
         (2 | 24, 1.0)],
        ids=["unknown", "mm", "metre", "micron", "metre-sec", "micron-msec", "mm-usec"],
    )
    def test_affine_in_mm(self, tmp_path, form, units, mm):
        expect = np.array([[2, 0, 0, 1], [0, 3, 0, 2], [0, 0, 4, 3]], dtype=float)
        if form == "pixdim":
            expect[:, 3] = 0.0
        v = read_nifti(self.crafted(tmp_path, form, units))
        np.testing.assert_allclose(v.affine[:3], expect * mm, rtol=1e-6)
        np.testing.assert_array_equal(v.affine[3], [0, 0, 0, 1])
        assert read_header(self.crafted(tmp_path, form, units)).xyzt_units == units

    def test_metre_lengths_past_float32_refused(self, tmp_path):
        hdr = bytearray(craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            sform=1, srow=([1e36, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
        ))
        hdr[123] = 1  # metres: 1e39 mm is past the float32 range
        craft_file(tmp_path / "far.nii", bytes(hdr), np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match="non-finite"):
            read_nifti(tmp_path / "far.nii")

    def test_singular_sform_refused_as_bad_input(self, tmp_path):
        # a header whose sform maps two axes onto one is a malformed file
        # (exit 3), not a geometry fault in the chain (exit 4)
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            sform=1, srow=([1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]),
        )
        craft_file(tmp_path / "flat.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match="header affine upper-left 3x3 block is singular"):
            read_nifti(tmp_path / "flat.nii")

    @pytest.mark.parametrize("units", [4, 7, 4 | 8])
    def test_undefined_spatial_unit_refused(self, tmp_path, units):
        with pytest.raises(FormatError, match="xyzt_units"):
            read_nifti(self.crafted(tmp_path, "sform", units))

    def test_writer_leaves_units_unknown(self, tmp_path):
        write_nifti(Volume(np.zeros((2, 2, 2)), np.diag([0.5, 0.5, 0.5, 1.0])), tmp_path / "w.nii")
        assert (tmp_path / "w.nii").read_bytes()[123] == 0


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32, magic=b"XYZ\x00"
        )
        craft_file(tmp_path / "bad.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(BadMagicError):
            read_nifti(tmp_path / "bad.nii")

    def test_not_nifti_at_all(self, tmp_path):
        (tmp_path / "junk.nii").write_bytes(b"\x00" * 500)
        with pytest.raises(BadMagicError):
            read_nifti(tmp_path / "junk.nii")

    def test_unsupported_datatype(self, tmp_path):
        hdr = craft_header(dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=32, bitpix=64)
        craft_file(tmp_path / "cx.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(UnsupportedDatatypeError):
            read_nifti(tmp_path / "cx.nii")

    def test_truncated_payload(self, tmp_path):
        hdr = craft_header(dim=(3, 4, 4, 4, 1, 1, 1, 1), datatype=16, bitpix=32)
        blob = hdr + b"\x00" * 4 + b"\x00" * 10
        (tmp_path / "tr.nii").write_bytes(blob)
        with pytest.raises(TruncatedFileError):
            read_nifti(tmp_path / "tr.nii")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "th.nii").write_bytes(b"\x5c\x01\x00\x00")
        with pytest.raises(TruncatedFileError):
            read_nifti(tmp_path / "th.nii")

    def test_bad_dim0(self, tmp_path):
        hdr = craft_header(dim=(0, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32)
        craft_file(tmp_path / "d0.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match=r"dim\[0\] must be 1..7, got 0"):
            read_nifti(tmp_path / "d0.nii")

    def test_non_positive_axis_length(self, tmp_path):
        hdr = craft_header(dim=(3, -3, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32)
        craft_file(tmp_path / "neg.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match="non-positive axis length"):
            read_nifti(tmp_path / "neg.nii")

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_vox_offset(self, tmp_path, offset):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32, vox_offset=offset
        )
        craft_file(tmp_path / "vo.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match="vox_offset"):
            read_nifti(tmp_path / "vo.nii")

    def test_negative_vox_offset_in_header_pair(self, tmp_path):
        hdr = craft_header(
            dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32,
            vox_offset=-8.0, magic=b"ni1\x00",
        )
        (tmp_path / "p.hdr").write_bytes(hdr)
        (tmp_path / "p.img").write_bytes(np.zeros(8, np.float32).tobytes())
        with pytest.raises(FormatError, match="vox_offset"):
            read_nifti(tmp_path / "p.hdr")


    @pytest.mark.parametrize(
        "form",
        [
            {"sform": 1, "srow": ((np.nan, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))},
            {"sform": 1, "srow": ((1, 0, 0, np.inf), (0, 1, 0, 0), (0, 0, 1, 0))},
            {"qform": 1, "quat": (np.nan, 0.0, 0.0)},
            {"qform": 1, "qoff": (0.0, -np.inf, 0.0)},
            {"pixdim": (1, np.nan, 1, 1, 1, 1, 1, 1)},
            {"pixdim": (1, 1, 1, np.inf, 1, 1, 1, 1)},
        ],
        ids=["srow_nan", "srow_inf", "quatern_nan", "qoffset_inf", "pixdim_nan", "pixdim_inf"],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_affine(self, tmp_path, form):
        hdr = craft_header(dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32, **form)
        craft_file(tmp_path / "af.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(FormatError, match="af.nii"):
            read_nifti(tmp_path / "af.nii")
        with pytest.raises(FormatError, match="af.nii"):
            read_mask(tmp_path / "af.nii")

    @pytest.mark.parametrize("form,offset", [({}, 80), ({"sform": 1, "srow": IDENTITY_SROW}, 292)],
                             ids=["pixdim", "srow"])
    @pytest.mark.filterwarnings("error")
    def test_signaling_nan_in_affine(self, tmp_path, form, offset):
        # a float32 signaling NaN at pixdim[1] or srow_x[3], which numpy flags
        # as invalid when it casts the header to float64
        hdr = bytearray(craft_header(dim=(3, 2, 2, 2, 1, 1, 1, 1), datatype=16, bitpix=32, **form))
        hdr[offset : offset + 4] = struct.pack("<I", 0x7F800001)
        craft_file(tmp_path / "sn.nii", bytes(hdr), np.zeros((2, 2, 2), np.float32))
        read_header(tmp_path / "sn.nii")
        with pytest.raises(FormatError, match="non-finite"):
            read_nifti(tmp_path / "sn.nii")

    def test_overflowing_dim_is_truncated(self, tmp_path):
        # 32767^7 voxels overflow int64, so the count must be exact
        hdr = craft_header(dim=(7,) + (32767,) * 7, datatype=16, bitpix=32)
        craft_file(tmp_path / "big.nii", hdr, np.zeros((2, 2, 2), np.float32))
        with pytest.raises(TruncatedFileError):
            read_nifti(tmp_path / "big.nii")


class TestCorruptGzip:
    """A damaged gzip stream is a FormatError naming the file, not a raw
    EOFError or zlib.error from the decompressor."""

    @staticmethod
    def gzipped(tmp_path):
        path = tmp_path / "v.nii.gz"
        write_nifti(Volume(np.arange(512.0).reshape(8, 8, 8)), path)
        return path, path.read_bytes()

    def test_truncated_stream(self, tmp_path):
        path, blob = self.gzipped(tmp_path)
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError, match="v.nii.gz"):
            read_nifti(path)
        # the header is whole, and read_header inflates no further
        assert read_header(path).shape == (8, 8, 8)
        path.write_bytes(blob[:40])  # cut inside the header's deflate data
        with pytest.raises(TruncatedFileError, match="v.nii.gz"):
            read_header(path)

    @pytest.mark.parametrize("offset", [40, -8], ids=["deflate_data", "crc"])
    def test_flipped_byte(self, tmp_path, offset):
        path, blob = self.gzipped(tmp_path)
        data = bytearray(blob)
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="v.nii.gz"):
            read_nifti(path)


class TestWriteRoundTrip:
    def test_float32_volume_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        data = rng.random((5, 6, 7)).astype(np.float32)
        aff = np.diag([1.2, 0.8, 2.0, 1.0])
        aff[:3, 3] = [-3.0, 4.5, 10.0]
        v = Volume(data=data.astype(np.float64), affine=aff)
        for name in ("v.nii", "v.nii.gz"):
            write_nifti(v, tmp_path / name)
            back = read_nifti(tmp_path / name)
            assert np.array_equal(back.data, v.data), name
            np.testing.assert_allclose(back.affine, aff, atol=1e-6)

    @pytest.mark.parametrize("dtype", ["uint8", "int16", "int32", "float32", "float64"])
    @pytest.mark.parametrize("gz", ["", ".gz"])
    def test_every_datatype_and_compression(self, tmp_path, dtype, gz):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 120, size=(4, 5, 6)).astype(dtype)
        v = Volume(data=data.astype(np.float64))
        path = tmp_path / f"rt_{dtype}.nii{gz}"
        write_nifti(v, path, dtype=dtype)
        back = read_nifti(path)
        assert np.array_equal(back.data, v.data)

    def test_written_header_parses_by_hand(self, tmp_path):
        v = Volume(data=np.zeros((3, 4, 5)), affine=np.diag([2.0, 2.0, 2.0, 1.0]))
        write_nifti(v, tmp_path / "h.nii")
        blob = (tmp_path / "h.nii").read_bytes()
        assert struct.unpack_from("<i", blob, 0)[0] == 348
        assert struct.unpack_from("<8h", blob, 40)[:4] == (3, 3, 4, 5)
        assert struct.unpack_from("<h", blob, 70)[0] == 16  # float32
        assert struct.unpack_from("<h", blob, 254)[0] == 1  # sform set
        assert blob[344:347] == b"n+1"
        assert struct.unpack_from("<f", blob, 108)[0] == 352.0

    def test_mask_round_trip_uint8(self, tmp_path):
        rng = np.random.default_rng(0)
        m = LabelMask(data=(rng.random((6, 6, 6)) > 0.5).astype(np.uint8))
        write_nifti(m, tmp_path / "m.nii.gz")
        back = read_mask(tmp_path / "m.nii.gz")
        assert np.array_equal(back.data, m.data)
        hdr = read_header(tmp_path / "m.nii.gz")
        assert hdr.datatype == 2

    def test_read_mask_rejects_nonbinary(self, tmp_path):
        v = Volume(data=np.full((2, 2, 2), 7.0))
        write_nifti(v, tmp_path / "nb.nii")
        with pytest.raises(DataError):
            read_mask(tmp_path / "nb.nii")

    def test_probmap_round_trip_label_axis(self, tmp_path):
        rng = np.random.default_rng(3)
        fg = rng.random((4, 4, 4)).astype(np.float32)
        bg = np.float32(1.0) - fg  # stays float32 so the file round-trips exactly
        p = ProbMap(data=np.stack([bg, fg]).astype(np.float64))
        write_nifti(p, tmp_path / "p.nii.gz")
        hdr = read_header(tmp_path / "p.nii.gz")
        assert hdr.ndim == 4 and hdr.shape == (4, 4, 4, 2)
        back = read_probmap(tmp_path / "p.nii.gz")
        assert back.data.shape[0] == 2
        np.testing.assert_array_equal(back.data, p.data)

    def test_gzip_member_framed_by_hand(self, tmp_path):
        # one gzip member: a fixed 10-byte header (mtime 0, XFL 0, OS 255,
        # no name), the blob's raw deflate stream under zlib's run-length
        # strategy, then CRC-32 and ISIZE
        rng = np.random.default_rng(8)
        m = LabelMask(data=(rng.random((16, 12, 10)) < 0.3).astype(np.uint8))
        write_nifti(m, tmp_path / "m.nii")
        write_nifti(m, tmp_path / "m.nii.gz")
        blob = (tmp_path / "m.nii").read_bytes()
        raw = (tmp_path / "m.nii.gz").read_bytes()
        assert raw[:10] == b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
        rle = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS, 8, zlib.Z_RLE)
        stream = rle.compress(blob) + rle.flush()
        assert raw[10:-8] == stream
        assert raw[-8:] == struct.pack("<II", zlib.crc32(blob), len(blob))
        assert zlib.decompress(raw, 31) == blob  # one member, nothing left over
        assert gzip.decompress(raw) == blob

    def test_identical_volumes_identical_gz_bytes(self, tmp_path):
        v = Volume(data=np.ones((3, 3, 3)))
        write_nifti(v, tmp_path / "a.nii.gz")
        write_nifti(v, tmp_path / "b.nii.gz")
        assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()


class TestWriteRefusesValuesTheDtypeCannotHold:
    """Values outside the on-disk dtype's range, and fractions bound for an
    integer dtype, are a DataError naming the file and the dtype, and no
    file is left behind."""

    @pytest.mark.parametrize(
        "value, dtype",
        [(40000.0, "int16"), (-3.0, "uint8"), (256.0, "uint8"), (3e9, "int32"), (1e39, None)],
    )
    @pytest.mark.parametrize("gz", ["", ".gz"])
    def test_out_of_range_refused(self, tmp_path, value, dtype, gz):
        path = tmp_path / f"v.nii{gz}"
        with pytest.raises(DataError, match=rf"v\.nii.*{dtype or 'float32'}"):
            write_nifti(Volume(np.full((2, 2, 2), value)), path, dtype=dtype)
        assert not path.exists()

    @pytest.mark.parametrize(
        "value, dtype", [(2.7, "int16"), (-0.6, "int16"), (0.5, "uint8"), (1e-300, "int32")]
    )
    @pytest.mark.parametrize("gz", ["", ".gz"])
    def test_fraction_refused(self, tmp_path, value, dtype, gz):
        path = tmp_path / f"v.nii{gz}"
        data = np.arange(8.0).reshape(2, 2, 2)
        data[1, 0, 1] = value
        with pytest.raises(DataError, match=rf"v\.nii.*{dtype}"):
            write_nifti(Volume(data), path, dtype=dtype)
        assert not path.exists()

    @pytest.mark.parametrize(
        "value, dtype",
        [
            (-32768.0, "int16"),
            (32767.0, "int16"),
            (0.0, "uint8"),
            (255.0, "uint8"),
            (float(np.finfo(np.float32).max), "float32"),
        ],
    )
    def test_range_ends_written(self, tmp_path, value, dtype):
        v = Volume(np.full((2, 2, 2), value))
        write_nifti(v, tmp_path / "v.nii", dtype=dtype)
        assert np.array_equal(read_nifti(tmp_path / "v.nii").data, v.data)
