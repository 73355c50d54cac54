"""Tests for the synthetic phantoms."""

import tracemalloc

import numpy as np
import pytest

from evcseg.synth import make_phantom
from instances import index_grid_phantom


@pytest.mark.parametrize("size", [16, 17, 33, 64])
def test_phantom_matches_index_grid_formula(size):
    for draw in range(3):
        image, mask = make_phantom(size, np.random.default_rng((size, draw)))
        ref_image, ref_mask = index_grid_phantom(size, np.random.default_rng((size, draw)))
        assert image.data.tobytes() == ref_image.data.tobytes()
        assert mask.data.tobytes() == ref_mask.data.tobytes()
        assert image.data.dtype == ref_image.data.dtype and mask.data.dtype == ref_mask.data.dtype


def test_phantom_builds_no_index_grid():
    # a 64^3 index grid alone is 6.3 MB of float64
    rng = np.random.default_rng(64)
    tracemalloc.start()
    try:
        make_phantom(64, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
