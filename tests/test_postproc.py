"""Component labeling and mask cleanup."""

from __future__ import annotations

import numpy as np
import pytest

from evcseg.postproc import (
    cleanup,
    component_sizes,
    fill_background_holes,
    label_components,
    largest_foreground,
)
from evcseg.volume import LabelMask


def mask(arr) -> LabelMask:
    return LabelMask(data=np.asarray(arr, dtype=np.uint8))


class TestLabelComponents:
    def test_ids_follow_scan_order(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[3, 3, 3] = True
        m[0, 0, 2] = True
        m[1, 0, 0] = True
        labels, count = label_components(m, connectivity=6)
        assert count == 3
        assert labels[0, 0, 2] == 1  # flat index 2 comes first
        assert labels[1, 0, 0] == 2
        assert labels[3, 3, 3] == 3

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_ids_follow_scan_order_through_merges(self, connectivity):
        # at these densities components meet as the scan goes on, where
        # three isolated voxels never do
        for case in range(40):
            rng = np.random.default_rng((connectivity, case))
            m = rng.random((8, 7, 6)) < rng.uniform(0.2, 0.6)
            labels, count = label_components(m, connectivity)
            flat = labels.ravel()
            ids, first = np.unique(flat[flat > 0], return_index=True)
            assert np.array_equal(ids, np.arange(1, count + 1)), case
            assert np.all(np.diff(first) > 0), case

    def test_diagonal_voxels_26_vs_6(self):
        m = np.zeros((3, 3, 3), dtype=bool)
        m[0, 0, 0] = True
        m[1, 1, 1] = True
        _, count6 = label_components(m, connectivity=6)
        _, count26 = label_components(m, connectivity=26)
        assert count6 == 2
        assert count26 == 1

    def test_rejects_other_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((2, 2, 2), dtype=bool), connectivity=18)

    def test_sizes(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[0, 0, :3] = True
        m[3, 3, 3] = True
        labels, count = label_components(m, connectivity=6)
        sizes = component_sizes(labels, count)
        assert list(sizes) == [60, 3, 1]


class TestFillHoles:
    def test_hollow_shell_becomes_solid(self):
        m = np.zeros((7, 7, 7), dtype=np.uint8)
        m[1:6, 1:6, 1:6] = 1
        m[2:5, 2:5, 2:5] = 0  # cavity
        filled = fill_background_holes(mask(m))
        solid = np.zeros_like(m)
        solid[1:6, 1:6, 1:6] = 1
        assert np.array_equal(filled.data, solid)

    def test_no_holes_is_identity(self):
        rng = np.random.default_rng(42)
        m = np.zeros((6, 6, 6), dtype=np.uint8)
        m[2:4, 2:4, 2:4] = 1
        out = fill_background_holes(mask(m))
        assert np.array_equal(out.data, m)
        del rng

    def test_empty_mask_stays_empty(self):
        m = np.zeros((4, 4, 4), dtype=np.uint8)
        assert fill_background_holes(mask(m)).data.sum() == 0

    def test_background_uses_6_connectivity(self):
        # cavity touches the outside air only diagonally, so with
        # 6-connected background it is a separate (fillable) component
        m = np.ones((3, 3, 3), dtype=np.uint8)
        m[1, 1, 1] = 0
        m[0, 0, 0] = 0
        filled = fill_background_holes(mask(m))
        assert filled.data[1, 1, 1] == 1
        assert filled.data[0, 0, 0] == 0  # scan-order tie keeps the corner


class TestLargestForeground:
    def test_keeps_largest(self):
        m = np.zeros((8, 8, 8), dtype=np.uint8)
        m[0:3, 0:3, 0:3] = 1  # 27 voxels
        m[6, 6, 6] = 1
        out = largest_foreground(mask(m))
        assert out.data.sum() == 27
        assert out.data[6, 6, 6] == 0

    def test_tie_keeps_lowest_id(self):
        m = np.zeros((6, 6, 6), dtype=np.uint8)
        m[0, 0, 0] = 1
        m[5, 5, 5] = 1
        out = largest_foreground(mask(m))
        assert out.data[0, 0, 0] == 1
        assert out.data[5, 5, 5] == 0

    def test_foreground_uses_26_connectivity(self):
        m = np.zeros((4, 4, 4), dtype=np.uint8)
        m[0, 0, 0] = 1
        m[1, 1, 1] = 1  # diagonal chain, one 26-component
        m[3, 3, 0] = 1
        out = largest_foreground(mask(m))
        assert out.data.sum() == 2

    @pytest.mark.filterwarnings("error")
    def test_empty_mask_comes_back_unchanged(self):
        m = mask(np.zeros((3, 3, 3), dtype=np.uint8))
        assert largest_foreground(m) is m


class TestCleanup:
    def test_shell_with_crumbs(self):
        m = np.zeros((9, 9, 9), dtype=np.uint8)
        m[1:6, 1:6, 1:6] = 1
        m[2:5, 2:5, 2:5] = 0  # hole
        m[7, 7, 7] = 1  # crumb
        out = cleanup(mask(m))
        solid = np.zeros_like(m)
        solid[1:6, 1:6, 1:6] = 1
        assert np.array_equal(out.data, solid)

    def test_holes_fill_before_the_largest_is_chosen(self):
        # the shell has fewer voxels than the block (488 against 648), but
        # more once its 512-voxel hole is filled
        m = np.zeros((26, 12, 12), dtype=np.uint8)
        m[1:9, 1:10, 1:10] = 1
        m[13:23, 1:11, 1:11] = 1
        m[14:22, 2:10, 2:10] = 0
        out = cleanup(mask(m))
        shell = np.zeros_like(m)
        shell[13:23, 1:11, 1:11] = 1
        assert np.array_equal(out.data, shell)

    def test_idempotent_and_single_component_on_random(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            m = mask((rng.random((8, 8, 8)) < 0.35).astype(np.uint8))
            if m.data.sum() == 0:
                continue
            once = cleanup(m)
            twice = cleanup(once)
            assert np.array_equal(once.data, twice.data), f"trial {trial}"
            _, nfg = label_components(once.data, connectivity=26)
            assert nfg == 1, f"trial {trial}"
            _, nbg = label_components(~once.data.astype(bool), connectivity=6)
            assert nbg == 1, f"trial {trial}"
