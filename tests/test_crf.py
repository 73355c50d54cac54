"""CRF refinement against brute-force oracles.

The kernel, the message passes, and the free energy each get checked
against independent reimplementations (direct formulas and O(N^2) loops)
before the mean-field machinery built on them is trusted.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from evcseg import bilateral, crf
from evcseg.bilateral import CELL, bilateral_filter, gaussian_blur
from evcseg.crf import (
    CrfConfig,
    MeanFieldState,
    UnaryField,
    filtered_message_pass,
    mean_field_step,
    refine,
    unary_from_probmap,
)
from evcseg.errors import CapacityError, ConfigError, DataError, DomainError
from evcseg.metrics import dice
from evcseg.synth import make_phantom
from evcseg.volume import LabelMask, ProbMap, Volume
from instances import (
    convolve_blur,
    dense_kernel,
    full_grid_bilateral,
    gibbs_energy,
    noisy_sphere_instance,
    oracle_free_energy,
    oracle_refine,
    pairwise_kernel,
    phantom_crf_instance,
    random_crf_instance,
    softmax_keeping_subnormals,
)


def dense_messages(q, vol, cfg):
    """O(N^2) oracle for sum_{j != i} k_ij q_j(l)."""
    qf = q.reshape(q.shape[0], -1)
    return (qf @ dense_kernel(vol, cfg)).reshape(q.shape)


def brute_free_energy(qf, uf, k):
    n = qf.shape[1]
    f = float((qf * uf).sum())
    for i in range(n):
        for j in range(i + 1, n):
            f += k[i, j] * (1.0 - float(qf[:, i] @ qf[:, j]))
    logq = np.where(qf > 0, np.log(np.where(qf > 0, qf, 1.0)), 0.0)
    return f + float((qf * logq).sum())


def two_voxel_volume(values=(0.0, 0.0)):
    return Volume(np.array(values).reshape(2, 1, 1))


class TestUnaryFromProbmap:
    def test_uniform_map(self):
        p = ProbMap(np.full((2, 3, 3, 3), 0.5))
        u = unary_from_probmap(p)
        np.testing.assert_allclose(u.neg_log_probs, -math.log(0.5))

    def test_degenerate_probability_is_clamped(self):
        probs = np.zeros((2, 1, 1, 1))
        probs[1] = 1.0
        u = unary_from_probmap(ProbMap(probs))
        np.testing.assert_allclose(u.neg_log_probs[1], -math.log(1 - 1e-6))
        np.testing.assert_allclose(u.neg_log_probs[0], -math.log(1e-6))

    def test_hand_values(self):
        probs = np.zeros((2, 1, 1, 1))
        probs[0], probs[1] = 0.8, 0.2
        u = unary_from_probmap(ProbMap(probs))
        assert abs(u.neg_log_probs[0, 0, 0, 0] - 0.2231) < 1e-3
        assert abs(u.neg_log_probs[1, 0, 0, 0] - 1.6094) < 1e-3

    def test_softmax_inverts_unary(self):
        rng = np.random.default_rng(5)
        fg = rng.uniform(0.01, 0.99, size=(4, 4, 4))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        z = np.exp(-u.neg_log_probs)
        recovered = z / z.sum(axis=0, keepdims=True)
        np.testing.assert_allclose(recovered, p.data, atol=1e-6)


class TestPairwiseKernel:
    def test_identical_features(self):
        cfg = CrfConfig(w_appearance=5.0, w_smoothness=3.0)
        f = np.array([1.0, 2.0, 3.0, 0.5])
        assert pairwise_kernel(f, f, cfg) == pytest.approx(8.0)

    def test_zero_weights(self):
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=0.0)
        assert pairwise_kernel([0, 0, 0, 0], [9, 9, 9, 1], cfg) == 0.0

    def test_one_bandwidth_offset(self):
        cfg = CrfConfig(
            w_appearance=1.0, w_smoothness=1.0, theta_alpha=2.0, theta_gamma=2.0
        )
        value = pairwise_kernel([0, 0, 0, 0.3], [2, 0, 0, 0.3], cfg)
        assert value == pytest.approx(2 * math.exp(-0.5), abs=1e-4)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        cfg = CrfConfig(
            w_appearance=2.5, w_smoothness=1.5, theta_alpha=3.0,
            theta_beta=0.2, theta_gamma=2.0,
        )
        for _ in range(20):
            fi, fj = rng.uniform(-5, 5, size=(2, 4))
            dp2 = ((fi[:3] - fj[:3]) ** 2).sum()
            di2 = (fi[3] - fj[3]) ** 2
            expect = 2.5 * math.exp(-dp2 / 18 - di2 / 0.08) + 1.5 * math.exp(-dp2 / 8)
            assert pairwise_kernel(fi, fj, cfg) == pytest.approx(expect, rel=1e-12)


class TestKernelMatrix:
    """The tests' dense kernel against the pairwise formula."""

    def test_matches_pairwise_kernel(self):
        rng = np.random.default_rng(7)
        vol = Volume(rng.uniform(size=(3, 2, 2)))
        cfg = CrfConfig(theta_alpha=2.0, theta_beta=0.3, theta_gamma=1.5)
        k = dense_kernel(vol, cfg)
        lo, hi = vol.data.min(), vol.data.max()
        features = [
            np.append(np.array(idx) * vol.spacing, (vol.data[idx] - lo) / (hi - lo))
            for idx in np.ndindex(vol.shape)
        ]
        n = vol.data.size
        assert k.shape == (n, n)
        for i in range(n):
            assert k[i, i] == 0.0
            for j in range(n):
                if i != j:
                    assert k[i, j] == pytest.approx(
                        pairwise_kernel(features[i], features[j], cfg), rel=1e-12
                    )
        np.testing.assert_allclose(k, k.T)

    def test_spacing_changes_distances(self):
        data = np.zeros((2, 2, 2))
        fine = Volume(data, affine=np.diag([1.0, 1.0, 1.0, 1.0]))
        coarse = Volume(data, affine=np.diag([3.0, 1.0, 1.0, 1.0]))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=1.0, theta_gamma=1.0)
        k_fine = dense_kernel(fine, cfg)
        k_coarse = dense_kernel(coarse, cfg)
        # voxels (0,0,0) and (1,0,0) are flat indices 0 and 4
        assert k_coarse[0, 4] < k_fine[0, 4]


class TestGibbsEnergy:
    def test_zero_pairwise_is_unary_sum(self):
        rng = np.random.default_rng(8)
        fg = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        labels = (rng.uniform(size=(3, 3, 3)) > 0.5).astype(np.uint8)
        vol = Volume(rng.uniform(size=(3, 3, 3)))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=0.0)
        uf = u.neg_log_probs.reshape(2, -1)
        expect = uf[labels.reshape(-1), np.arange(labels.size)].sum()
        assert gibbs_energy(LabelMask(labels), u, vol, cfg) == pytest.approx(expect)

    def test_uniform_labels_have_no_pairwise_cost(self):
        rng = np.random.default_rng(9)
        fg = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        u = unary_from_probmap(ProbMap(np.stack([1 - fg, fg])))
        vol = Volume(rng.uniform(size=(3, 3, 3)))
        ones = LabelMask(np.ones((3, 3, 3), dtype=np.uint8))
        with_pair = gibbs_energy(ones, u, vol, CrfConfig())
        without = gibbs_energy(
            ones, u, vol, CrfConfig(w_appearance=0.0, w_smoothness=0.0)
        )
        assert with_pair == pytest.approx(without)

    def test_two_voxel_hand_sum(self):
        vol = two_voxel_volume((0.0, 1.0))
        neg_log = np.array([0.3, 0.9, 1.2, 0.1]).reshape(2, 2, 1, 1)
        u = UnaryField(neg_log_probs=neg_log)
        cfg = CrfConfig(
            w_appearance=2.0, w_smoothness=1.0, theta_alpha=2.0,
            theta_beta=0.5, theta_gamma=1.0,
        )
        labels = LabelMask(np.array([1, 0], dtype=np.uint8).reshape(2, 1, 1))
        # unary: label 1 at voxel 0 -> 1.2; label 0 at voxel 1 -> 0.9
        # pairwise: labels differ; |dp| = 1 mm, normalized dI = 1
        k01 = 2.0 * math.exp(-1 / 8 - 1 / 0.5) + 1.0 * math.exp(-1 / 2)
        expect = 1.2 + 0.9 + k01
        assert gibbs_energy(labels, u, vol, cfg) == pytest.approx(expect, rel=1e-12)


def initial_state(u, vol, cfg):
    return crf._initial_state(u, vol, cfg)


class TestMeanFieldStep:
    def test_zero_pairwise_reaches_fixed_point(self):
        rng = np.random.default_rng(10)
        fg = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        vol = Volume(rng.uniform(size=(3, 3, 3)))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=0.0)
        state = initial_state(u, vol, cfg)
        stepped = mean_field_step(state, u, vol, cfg)
        z = np.exp(-u.neg_log_probs)
        np.testing.assert_allclose(
            stepped.q, z / z.sum(axis=0, keepdims=True), atol=1e-12
        )
        again = mean_field_step(stepped, u, vol, cfg)
        np.testing.assert_array_equal(again.q, stepped.q)

    def test_two_voxel_symmetry(self):
        vol = two_voxel_volume()
        probs = np.array([[0.4, 0.4], [0.6, 0.6]]).reshape(2, 2, 1, 1)
        cfg = CrfConfig(theta_beta=0.5)
        for sweeps in range(1, 4):
            q, _ = oracle_refine(ProbMap(probs), vol, cfg, sweeps)
            np.testing.assert_array_equal(q[:, 0], q[:, 1])

    def test_two_voxel_fixed_point_matches_scalar_oracle(self):
        vol = two_voxel_volume()
        fg = 0.4
        probs = np.array([[1 - fg, 1 - fg], [fg, fg]]).reshape(2, 2, 1, 1)
        cfg = CrfConfig(
            w_appearance=1.0, w_smoothness=1.0, theta_alpha=2.0,
            theta_beta=0.5, theta_gamma=1.5,
        )
        # same intensity -> appearance sees only the 1 mm position gap
        k = 1.0 * math.exp(-1 / 8) + 1.0 * math.exp(-1 / (2 * 1.5**2))

        qa = np.array([1 - fg, fg])
        qb = qa.copy()
        neg_u = np.log(np.clip(np.array([1 - fg, fg]), 1e-6, 1 - 1e-6))
        for _ in range(200):
            la = neg_u + k * qb
            lb = neg_u + k * qa
            qa = np.exp(la - la.max())
            qa /= qa.sum()
            qb = np.exp(lb - lb.max())
            qb /= qb.sum()

        q, _ = oracle_refine(ProbMap(probs), vol, cfg, 200)
        np.testing.assert_allclose(q[:, 0, 0, 0], qa, atol=1e-8)
        np.testing.assert_allclose(q[:, 1, 0, 0], qb, atol=1e-8)

    @pytest.mark.parametrize("seed", range(200, 210))
    def test_step_from_exact_message_is_oracle_sweep(self, seed):
        # the update rule alone: mean_field_step fed the dense message of the
        # oracle's sweep t lands on the oracle's sweep t + 1
        p, vol, cfg = random_crf_instance(seed=seed)
        u = unary_from_probmap(p)
        k = dense_kernel(vol, cfg)
        sweeps = [oracle_refine(p, vol, cfg, t)[0] for t in range(6)]
        for q, following in zip(sweeps, sweeps[1:]):
            state = MeanFieldState(q=q, message=q.reshape(2, -1) @ k, free_energy_trace=())
            stepped = mean_field_step(state, u, vol, cfg, score=False)
            assert np.max(np.abs(stepped.q - following)) <= 1e-12

    def test_marginals_stay_normalized(self):
        p, vol, cfg = random_crf_instance(seed=11, max_side=8)
        u = unary_from_probmap(p)
        state = initial_state(u, vol, cfg)
        for _ in range(4):
            state = mean_field_step(state, u, vol, cfg)
            sums = state.q.sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
            assert state.q.min() >= 0


class TestFreeEnergy:
    def test_exact_value_matches_pair_loop(self):
        rng = np.random.default_rng(13)
        fg = rng.uniform(0.1, 0.9, size=(2, 2, 2))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        vol = Volume(rng.uniform(size=(2, 2, 2)))
        cfg = CrfConfig(theta_beta=0.3)
        k = dense_kernel(vol, cfg)
        qf = p.data.reshape(2, -1)
        uf = u.neg_log_probs.reshape(2, -1)
        pair_loop = brute_free_energy(qf, uf, k)
        assert crf._free_energy(qf, uf, qf @ k) == pytest.approx(pair_loop, rel=1e-12)
        assert oracle_free_energy(qf, uf, k) == pytest.approx(pair_loop, rel=1e-12)


class TestFilteredMessagePass:
    def test_constant_field_stays_constant_and_proportional(self):
        # constant q and constant intensity: wherever the kernels see full
        # support the message is (sum of kernel) * q, so the interior field
        # is flat and the label channels keep q's ratio
        shape = (10, 10, 10)
        q = np.empty((2,) + shape)
        q[0], q[1] = 0.3, 0.7
        vol = Volume(np.full(shape, 0.5))
        cfg = CrfConfig(
            w_appearance=1.0, w_smoothness=1.0, theta_alpha=1.5,
            theta_beta=0.1, theta_gamma=1.0,
        )
        out = filtered_message_pass(q, vol, cfg)
        np.testing.assert_allclose(out[0] * 0.7, out[1] * 0.3, rtol=0.02)
        interior = out[:, 3:7, 3:7, 3:7]
        for channel in interior:
            spread = channel.max() - channel.min()
            assert spread < 0.02 * channel.mean()

    def test_zero_weights_zero_field(self):
        q = np.random.default_rng(14).dirichlet((1, 1), size=27).T.reshape(2, 3, 3, 3)
        vol = Volume(np.random.default_rng(15).uniform(size=(3, 3, 3)))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=0.0)
        assert not filtered_message_pass(q, vol, cfg).any()

    def test_matches_brute_sum(self):
        rng = np.random.default_rng(16)
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        q = np.stack([1 - fg, fg])
        vol = Volume(rng.uniform(size=(8, 8, 8)))
        cfg = CrfConfig(
            w_appearance=2.0, w_smoothness=1.0, theta_alpha=2.0,
            theta_beta=0.2, theta_gamma=1.5,
        )
        approx = filtered_message_pass(q, vol, cfg)
        exact = dense_messages(q, vol, cfg)
        scale = exact.max() - exact.min()
        assert np.max(np.abs(approx - exact)) < 0.05 * scale

    def test_matches_brute_sum_anisotropic_spacing(self):
        # the spatial blurs take each axis's spacing separately
        rng = np.random.default_rng(16)
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        q = np.stack([1 - fg, fg])
        vol = Volume(rng.uniform(size=(8, 8, 8)), affine=np.diag([1.0, 1.5, 0.7, 1.0]))
        cfg = CrfConfig(
            w_appearance=2.0, w_smoothness=1.0, theta_alpha=2.0,
            theta_beta=0.2, theta_gamma=1.5,
        )
        approx = filtered_message_pass(q, vol, cfg)
        exact = dense_messages(q, vol, cfg)
        scale = exact.max() - exact.min()
        assert np.max(np.abs(approx - exact)) < 0.05 * scale


class TestGaussianBlur:
    """The matrix-product blur against one scipy convolution per axis."""

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize(
        "shape, spacing, theta",
        [
            ((32, 32, 32), (2.0, 2.0, 2.0), 4.0),
            ((32, 32, 32), (2.0, 2.0, 2.0), 3.0),
            ((10, 9, 8), (1.0, 1.5, 0.7), 2.0),
            ((6, 5, 4), (2.0, 2.0, 2.0), 1.5),
            ((3, 7, 8), (2.0, 2.0, 2.0), 4.0),  # 3 voxels inside a radius of 6
        ],
        ids=["cube-theta4", "cube-theta3", "anisotropic", "non-cubic", "short-axis"],
    )
    def test_matches_convolution(self, channels, shape, spacing, theta):
        rng = np.random.default_rng(83)
        field = rng.uniform(size=(channels,) + shape)
        expected = convolve_blur(field, spacing, theta)
        out = gaussian_blur(field, spacing, theta)
        assert out.shape == field.shape
        scale = expected.max() - expected.min()
        assert np.max(np.abs(out - expected)) <= 1e-12 * scale


class TestBlurMatrixRange:
    """Blur matrices at bandwidths just above the normal-square floor."""

    @pytest.mark.parametrize("theta", [0.05, 1.5, 3.0, 4.0, 40.0])
    def test_in_range_matrix_is_the_whole_grid_formula(self, theta):
        for n, sp in itertools.product([1, 8, 33], [0.7, 1.0, 2.0, 7.0]):
            lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            expected = np.exp(-((lag * sp) ** 2) / (2 * theta**2))
            expected[lag > np.ceil(bilateral.TRUNCATE * theta / sp)] = 0.0
            got = bilateral._blur_matrix(n, sp, theta)
            assert got.tobytes() == expected.tobytes(), (n, sp)

    @pytest.mark.parametrize("field", ["theta_alpha", "theta_gamma"])
    @pytest.mark.parametrize("spacing", [1.0, 7.0])
    def test_tiny_spatial_bandwidth_runs_clean(self, field, spacing):
        # at 2e-154, (lag * sp)**2 / (2 * theta**2) leaves the float64 range a
        # few voxels out (one at 7 mm); the RuntimeWarning filter turns any
        # such overflow into an error
        rng = np.random.default_rng(5)
        affine = np.diag([spacing, spacing, spacing, 1.0])
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        p = ProbMap(np.stack([1.0 - fg, fg]), affine)
        vol = Volume(rng.uniform(size=(8, 8, 8)), affine)
        mask, state = refine(p, vol, CrfConfig(**{field: 2e-154}))
        assert np.isfinite(state.q).all()
        assert mask.data.shape == (8, 8, 8)


class TestBilateralMemory:
    def test_peak_stays_near_field_size(self):
        # two channels on the default 32^3 grid at 2 mm; an intensity grid
        # of (channels, cells, voxels) would hold 32 cells here, 16.8 MB
        rng = np.random.default_rng(81)
        values = rng.uniform(size=(2, 32, 32, 32))
        inten = rng.uniform(size=(32, 32, 32)) / 0.1
        tracemalloc.start()
        try:
            bilateral_filter(values, inten, (2.0, 2.0, 2.0), 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 16 * values.nbytes
        assert peak < budget, (peak, budget)


def brain_like(shape, low, high, rng):
    """Intensities uniform in [0.3, 1) over the voxel box [low, high) and 0
    elsewhere, in units of the default 0.1 bandwidth."""
    inten = np.zeros(shape)
    box = tuple(slice(a, b) for a, b in zip(low, high))
    inten[box] = rng.uniform(0.3, 1.0, size=inten[box].shape)
    return inten / 0.1


class TestBilateralBoxes:
    """The boxed filter against the full-grid loop over every cell."""

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize(
        "case",
        [
            "brain", "low-corner", "high-corner", "far-pair", "one-cell", "constant",
            "one-voxel-axis", "anisotropic",
        ],
    )
    def test_matches_full_grid(self, case, channels):
        rng = np.random.default_rng(85)
        shape, spacing, theta = (32, 32, 32), (2.0, 2.0, 2.0), 4.0
        if case == "brain":
            inten = brain_like(shape, (7, 6, 5), (26, 25, 27), rng)
        elif case == "low-corner":
            inten = brain_like(shape, (0, 0, 0), (12, 9, 14), rng)
        elif case == "high-corner":
            inten = brain_like(shape, (20, 23, 18), shape, rng)
        elif case == "far-pair":
            # touching blocks 9.5 cells apart, inside the kernel's last
            # interval, and every other voxel far above both
            inten = np.full(shape, 30.0)
            inten[2:9, 3:8, 4:10] = 0.0
            inten[9:16, 3:8, 4:10] = 9.5 * CELL
        elif case == "one-cell":
            inten = np.zeros(shape)  # every voxel at a whole cell
        elif case == "constant":
            inten = np.full(shape, 0.77 / 0.1)
        elif case == "one-voxel-axis":
            shape = (1, 9, 8)
            inten = rng.uniform(size=shape) / 0.1
        else:
            shape, spacing, theta = (10, 9, 8), (1.0, 1.5, 0.7), 2.0
            inten = brain_like(shape, (2, 3, 1), (7, 9, 6), rng)
        values = rng.uniform(size=(channels,) + shape)
        expected = full_grid_bilateral(values, inten, spacing, theta)
        out = bilateral_filter(values, inten, spacing, theta)
        assert out.shape == values.shape
        scale = expected.max() - expected.min()
        assert np.max(np.abs(out - expected)) <= 1e-12 * scale

    def test_slice_weights_are_interp(self):
        kern = np.pad(bilateral._blur_kernel(), 2)
        slope = np.append(np.diff(kern), 0.0)
        h = kern.size // 2
        rng = np.random.default_rng(87)
        # whole and half offsets, and points past both ends
        x = np.concatenate([np.arange(-h - 2, h + 2.5, 0.5), rng.uniform(-h - 3, h + 3, 10000)])
        expected = np.interp(x, np.arange(kern.size) - h, kern)
        np.testing.assert_array_equal(bilateral._slice_weights(x, kern, slope), expected)


class TestBilateralEmptyCells:
    def test_cells_without_voxels_are_skipped(self, monkeypatch):
        # two intensity clusters 20 bandwidths apart leave ~50 empty cells
        # between them; each skipped cell would add exactly zero
        rng = np.random.default_rng(82)
        shape = (6, 5, 4)
        high = rng.uniform(size=shape) < 0.5
        inten = rng.uniform(size=shape) + np.where(high, 20.0, 0.0)
        values = rng.uniform(size=(2,) + shape)
        spacing, theta = (1.0, 1.5, 0.7), 2.0

        pos = inten / CELL
        pos = pos - np.floor(pos.min())
        every_cell = full_grid_bilateral(values, inten, spacing, theta)
        populated = sum(
            bool((np.abs(pos - cell) < 1).any()) for cell in range(int(pos.max()) + 2)
        )

        calls = []
        blur = bilateral._blur

        def counting_blur(*args):
            calls.append(1)
            return blur(*args)

        monkeypatch.setattr(bilateral, "_blur", counting_blur)
        out = bilateral_filter(values, inten, spacing, theta)
        assert len(calls) == populated < int(pos.max()) + 2
        np.testing.assert_array_equal(out, every_cell)


class TestTwoLabelMessage:
    """The message pass filters the foreground marginal only; the
    background message is the kernel mass minus the foreground's."""

    def test_one_channel_per_sweep_after_the_mass(self, monkeypatch):
        channels = []

        def recording(q, vol, cfg, cells):
            channels.append(q.shape[0])
            return filtered_message_pass(q, vol, cfg, cells)

        monkeypatch.setattr(crf, "filtered_message_pass", recording)
        p, vol, cfg = random_crf_instance(seed=200)
        refine(p, vol, dataclasses.replace(cfg, iterations=5))
        assert channels == [2, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize(
        "seed, affine",
        [(seed, None) for seed in range(200, 210)]
        + [(200, np.diag([1.0, 1.5, 0.7, 1.0]))],
        ids=[str(seed) for seed in range(200, 210)] + ["anisotropic"],
    )
    def test_message_matches_direct_pass(self, seed, affine):
        p, vol, cfg = random_crf_instance(seed=seed)
        if affine is not None:
            vol = Volume(vol.data, affine=affine)
        u = unary_from_probmap(p)
        state = initial_state(u, vol, cfg)
        for sweep in range(6):
            if sweep:
                state = mean_field_step(state, u, vol, cfg)
            direct = filtered_message_pass(state.q, vol, cfg).reshape(state.message.shape)
            scale = direct.max() - direct.min()
            err = np.max(np.abs(state.message - direct))
            assert err <= 1e-12 * scale, (sweep, err, scale)


class TestRefine:
    def test_zero_iterations_is_argmax(self):
        p, vol, cfg = random_crf_instance(seed=17)
        cfg = dataclasses.replace(cfg, iterations=0)
        mask, state = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))
        assert state is None

    def test_zero_pairwise_keeps_argmax(self):
        p, vol, cfg = random_crf_instance(seed=18, max_side=8)
        cfg = dataclasses.replace(cfg, w_appearance=0.0, w_smoothness=0.0, iterations=5)
        mask, _ = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))

    def test_noisy_sphere_improves(self):
        p, vol, truth, cfg = noisy_sphere_instance()
        unrefined = (np.argmax(p.data, axis=0) == 1).astype(np.uint8)
        mask, _ = refine(p, vol, cfg)
        dice_before = dice(unrefined, truth)
        dice_after = dice(mask.data, truth)
        assert dice_before < 1.0  # the flips really damaged the argmax
        assert dice_after > dice_before
        assert dice_after - dice_before >= 0.01

    def test_shape_mismatch(self):
        p = ProbMap(np.full((2, 4, 4, 4), 0.5))
        vol = Volume(np.zeros((4, 4, 5)))
        with pytest.raises(DataError, match=r"probability map shape \(4, 4, 4\) != volume"):
            refine(p, vol, CrfConfig())

    def test_affine_mismatch(self):
        # same shape, but a 3 mm map 50 mm away from a 1 mm image
        affine = np.diag([3.0, 3.0, 3.0, 1.0])
        affine[:3, 3] = 50.0
        p = ProbMap(np.full((2, 4, 4, 4), 0.5), affine)
        vol = Volume(np.zeros((4, 4, 4)))
        with pytest.raises(DataError, match="probability map and volume grids disagree"):
            refine(p, vol, CrfConfig())

    @pytest.mark.parametrize("keep_state", [True, False])
    def test_overflowing_weight_is_config_error(self, keep_state):
        # at w_appearance 1e308 the messages overflow to inf and the
        # marginals to NaN, whose argmax would be an all-background mask
        rng = np.random.default_rng(19)
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        p, vol = ProbMap(np.stack([1.0 - fg, fg])), Volume(rng.uniform(size=(8, 8, 8)))
        cfg = CrfConfig(w_appearance=1e308)
        with pytest.raises(ConfigError, match="kernel weights w_appearance=1e\\+308"):
            refine(p, vol, cfg, keep_state=keep_state)

    def test_more_than_two_labels_rejected(self):
        p = ProbMap(np.full((3, 4, 4, 4), 1.0 / 3.0))
        vol = Volume(np.zeros((4, 4, 4)))
        with pytest.raises(DomainError):
            refine(p, vol, CrfConfig())

    def test_deterministic(self):
        p, vol, cfg = random_crf_instance(seed=19, max_side=7)
        cfg = dataclasses.replace(cfg, iterations=3)
        mask1, state1 = refine(p, vol, cfg)
        mask2, state2 = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask1.data, mask2.data)
        np.testing.assert_array_equal(state1.q, state2.q)
        assert state1.free_energy_trace == state2.free_energy_trace


    def test_bytes_do_not_depend_on_blas_threads(self):
        # the message pass blurs through BLAS matrix products; its
        # marginals and messages must not depend on how many threads run them
        script = (
            "import hashlib, numpy as np\n"
            "from evcseg.crf import CrfConfig, refine\n"
            "from evcseg.volume import ProbMap, Volume\n"
            "rng = np.random.default_rng(84)\n"
            "fg = rng.uniform(0.05, 0.95, size=(32, 32, 32))\n"
            "aff = np.diag([2.0, 2.0, 2.0, 1.0])\n"
            "p = ProbMap(np.stack([1 - fg, fg]), aff)\n"
            "vol = Volume(rng.uniform(size=(32, 32, 32)), aff)\n"
            "_, s = refine(p, vol, CrfConfig(iterations=2))\n"
            "print(hashlib.sha256(s.q.tobytes() + s.message.tobytes()).hexdigest())\n"
        )
        src = str(Path(crf.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestZeroIterations:
    """At 0 iterations refine checks its inputs and returns the argmax of the
    map, with no state: no unaries, kernel or message pass."""

    def test_argmax_without_kernel_or_message_pass(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a 0-iteration refine built a kernel or passed a message")

        monkeypatch.setattr(crf, "filtered_message_pass", forbidden)
        monkeypatch.setattr(crf, "cell_records", forbidden)
        p, vol, cfg = random_crf_instance(seed=17)
        mask, state = refine(p, vol, dataclasses.replace(cfg, iterations=0))
        assert state is None
        assert mask.data.dtype == np.uint8
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))
        np.testing.assert_array_equal(mask.affine, vol.affine)

    def test_capacity_limit_waits_for_a_sweep(self):
        # with iterations, an intensity span of 1e9 bandwidths needs 3e9
        # filter cells and raises CapacityError
        cfg = CrfConfig(theta_beta=1e-9, iterations=0)
        rng = np.random.default_rng(4)
        fg = rng.uniform(0.05, 0.95, size=(17, 17, 17))
        p, vol = ProbMap(np.stack([1.0 - fg, fg])), Volume(rng.uniform(size=(17, 17, 17)))
        mask, state = refine(p, vol, cfg)
        assert state is None
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))
        with pytest.raises(CapacityError):
            refine(p, vol, dataclasses.replace(cfg, iterations=1))

    @pytest.mark.parametrize(
        "probs, affine, error",
        [
            (np.full((2, 4, 4, 5), 0.5), np.eye(4), DataError),
            (np.full((2, 4, 4, 4), 0.5), np.diag([3.0, 3.0, 3.0, 1.0]), DataError),
            (np.full((3, 4, 4, 4), 1.0 / 3.0), np.eye(4), DomainError),
        ],
        ids=["shape", "affine", "three-labels"],
    )
    def test_inputs_still_checked(self, probs, affine, error):
        with pytest.raises(error):
            refine(ProbMap(probs, affine), Volume(np.zeros((4, 4, 4))), CrfConfig(iterations=0))


class TestTwoLabelArgmax:
    """refine's mask is np.argmax over the two labels, ties going to label 0,
    at both of its exits."""

    @staticmethod
    def tied_map(seed):
        rng = np.random.default_rng(seed)
        fg = rng.uniform(0.05, 0.95, size=(6, 5, 7))
        fg[rng.random(fg.shape) < 0.3] = 0.5  # 1 - 0.5 == 0.5: an exact tie
        return ProbMap(np.stack([1.0 - fg, fg]), np.diag([2.0, 2.0, 2.0, 1.0]))

    def test_matches_argmax_on_small_integer_maps(self):
        rng = np.random.default_rng(93)
        for _ in range(20):
            q = rng.integers(0, 3, size=(2, 5, 4, 6)).astype(np.float64)
            assert (q[0] == q[1]).any()
            out = crf._two_label_argmax(q)
            assert out.dtype == np.uint8
            np.testing.assert_array_equal(out, np.argmax(q, axis=0))

    def test_zero_iteration_exit(self):
        p = self.tied_map(94)
        vol = Volume(np.random.default_rng(95).uniform(size=p.shape), p.affine)
        mask, _ = refine(p, vol, CrfConfig(iterations=0))
        assert (p.data[0] == p.data[1]).any()
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))

    def test_final_marginals_exit(self):
        # without pairwise terms the marginals stay the map's, ties included
        p = self.tied_map(96)
        vol = Volume(np.random.default_rng(97).uniform(size=p.shape), p.affine)
        cfg = CrfConfig(iterations=2, w_appearance=0.0, w_smoothness=0.0)
        mask, state = refine(p, vol, cfg)
        assert (state.q[0] == state.q[1]).any()
        np.testing.assert_array_equal(mask.data, np.argmax(state.q, axis=0))


class TestBoxedFilterInRefine:
    """refine with the boxed filter against refine with the full-grid loop."""

    @pytest.mark.parametrize("seed", ["phantom", 200, 201, 202, 203, 204])
    def test_matches_full_grid_refine(self, seed, monkeypatch):
        if seed == "phantom":
            rng = np.random.default_rng(86)
            image, truth = make_phantom(32, rng)
            aff = np.diag([2.0, 2.0, 2.0, 1.0])
            fg = np.clip(0.2 + 0.6 * truth.data + 0.15 * rng.normal(size=truth.shape), 0.02, 0.98)
            p, vol, cfg = ProbMap(np.stack([1 - fg, fg]), aff), Volume(image.data, aff), CrfConfig()
        else:
            p, vol, cfg = random_crf_instance(seed=seed)
        mask, state = refine(p, vol, cfg)

        def reference(values, inten, spacing, theta, cells):
            return full_grid_bilateral(values, inten, spacing, theta)

        monkeypatch.setattr(crf, "bilateral_filter", reference)
        ref_mask, ref_state = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask.data, ref_mask.data)
        for got, want in ((state.message, ref_state.message), (state.q, ref_state.q)):
            scale = want.max() - want.min()
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestSubnormalMarginals:
    """refine sets marginals below the smallest normal float to 0."""

    def test_refine_leaves_no_subnormal(self):
        _, state = refine(*phantom_crf_instance(86))
        tiny = np.finfo(np.float64).tiny
        assert not ((state.q > 0) & (state.q < tiny)).any()

    def test_matches_refine_keeping_subnormals(self, monkeypatch):
        p, vol, cfg = phantom_crf_instance(86)
        mask, state = refine(p, vol, cfg)
        monkeypatch.setattr(crf, "_softmax_labels", softmax_keeping_subnormals)
        ref_mask, ref_state = refine(p, vol, cfg)
        tiny = np.finfo(np.float64).tiny
        assert ((ref_state.q > 0) & (ref_state.q < tiny)).sum() > 1000
        np.testing.assert_array_equal(mask.data, ref_mask.data)
        np.testing.assert_array_equal(state.message, ref_state.message)
        assert state.free_energy_trace == ref_state.free_energy_trace


class TestKeptCellRecords:
    """A filtered refinement builds the bilateral records once and passes the
    same list to every message pass."""

    def test_built_once_and_shared_by_every_pass(self, monkeypatch):
        builds, passed = [], []

        def counting(*args):
            builds.append(1)
            return bilateral.cell_records(*args)

        def recording(q, inten, spacing, theta, cells):
            passed.append(cells)
            return bilateral_filter(q, inten, spacing, theta, cells)

        monkeypatch.setattr(crf, "cell_records", counting)
        monkeypatch.setattr(crf, "bilateral_filter", recording)
        p, vol, cfg = random_crf_instance(seed=201)
        _, state = refine(p, vol, dataclasses.replace(cfg, iterations=5))
        assert len(builds) == 1 and len(passed) == 6
        assert len(state.free_energy_trace) == 6
        assert isinstance(state.kernel, list) and state.kernel
        assert all(cells is state.kernel for cells in passed)

    def test_peak_with_every_band_box_whole_grid(self):
        # uniform intensities over 10 bandwidths populate 31 cells, and every
        # band box is the whole grid, so the kept slice weights take
        # 31 x 32^3 float64: 7.75 MB. The whole refine measured 13.3 MB; the
        # passes and unaries take the other 5.6 MB.
        rng = np.random.default_rng(88)
        aff = np.diag([2.0, 2.0, 2.0, 1.0])
        fg = rng.uniform(0.05, 0.95, size=(32, 32, 32))
        p = ProbMap(np.stack([1 - fg, fg]), aff)
        vol = Volume(rng.uniform(size=(32, 32, 32)), aff)
        tracemalloc.start()
        try:
            _, state = refine(p, vol, CrfConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(record[-1].nbytes for record in state.kernel) == 31 * 32**3 * 8
        assert peak < 16 << 20, peak


class TestBackendEquivalence:
    """Five filtered sweeps against five sweeps of the dense oracle."""

    def test_filtered_marginals_track_brute(self):
        worst = 0.0
        for seed in range(10):
            p, vol, cfg = random_crf_instance(seed=200 + seed, max_side=12)
            _, state = refine(p, vol, cfg)
            q, _ = oracle_refine(p, vol, cfg, 5)
            worst = max(worst, np.max(np.abs(q - state.q)))
        assert worst < 0.05, worst

    def test_filtered_free_energy_tracks_brute(self):
        worst = 0.0
        for seed in range(10):
            p, vol, cfg = random_crf_instance(seed=200 + seed, max_side=12)
            _, state = refine(p, vol, cfg)
            _, trace = oracle_refine(p, vol, cfg, 5)
            exact = np.array(trace)
            rel = np.abs(np.array(state.free_energy_trace) - exact) / np.abs(exact)
            worst = max(worst, rel.max())
        assert worst < 0.01, worst


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            CrfConfig(w_appearance=-1.0)
        with pytest.raises(ConfigError):
            CrfConfig(theta_alpha=0.0)
        with pytest.raises(ConfigError):
            CrfConfig(iterations=-1)

    @pytest.mark.parametrize("iterations", [True, False, 2.5, 3.0, "3", None])
    def test_rejects_non_integer_iterations(self, iterations):
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            CrfConfig(iterations=iterations)

    @pytest.mark.parametrize("iterations", [0, 3, np.int64(3), np.int32(0), np.uint8(2)])
    def test_accepts_integer_iterations(self, iterations):
        assert CrfConfig(iterations=iterations).iterations == iterations


class TestRefineWithoutState:
    """refine(..., keep_state=False) labels from n message passes and no free
    energy, and its mask is the default's, byte for byte."""

    @pytest.mark.parametrize("iterations", [0, 1, 2, 5])
    def test_same_mask_and_no_state(self, iterations):
        for seed in (210, 211, 212):
            p, vol, cfg = random_crf_instance(seed=seed)
            cfg = dataclasses.replace(cfg, iterations=iterations)
            mask, _ = refine(p, vol, cfg)
            lean, state = refine(p, vol, cfg, keep_state=False)
            assert state is None
            assert lean.data.dtype == mask.data.dtype
            assert lean.data.tobytes() == mask.data.tobytes()
            np.testing.assert_array_equal(lean.affine, mask.affine)

    def test_same_mask_on_a_phantom(self):
        p, vol, cfg = phantom_crf_instance(86)
        mask, _ = refine(p, vol, cfg)
        lean, _ = refine(p, vol, cfg, keep_state=False)
        assert lean.data.tobytes() == mask.data.tobytes()

    @pytest.mark.parametrize("keep_state", [True, False])
    @pytest.mark.parametrize("iterations", [0, 1, 2, 5])
    def test_message_passes_and_free_energies(self, iterations, keep_state, monkeypatch):
        calls = {"pass": 0, "free_energy": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(crf, "filtered_message_pass", counted("pass", filtered_message_pass))
        monkeypatch.setattr(crf, "_free_energy", counted("free_energy", crf._free_energy))
        p, vol, cfg = random_crf_instance(seed=213)
        cfg = dataclasses.replace(cfg, iterations=iterations)
        refine(p, vol, cfg, keep_state=keep_state)
        n = iterations
        if n and keep_state:
            passes, energies = n + 1, n + 1
        else:
            passes, energies = n, 0
        assert calls == {"pass": passes, "free_energy": energies}


class TestKeptRecordsUnchanged:
    def test_filter_leaves_every_record_bit_identical(self):
        # the slice writes weights * blurred into the blurred buffer; a
        # record's weights must never be the buffer written
        rng = np.random.default_rng(89)
        shape, spacing, theta = (20, 18, 16), (2.0, 2.0, 2.0), 4.0
        inten = brain_like(shape, (3, 2, 4), (17, 15, 12), rng)
        values = rng.uniform(size=(2,) + shape)
        cells = list(bilateral.cell_records(inten, spacing, theta))

        def arrays(record):
            _, _, _, pos, blur, weights = record
            return [pos, *blur, weights]

        before = [[a.copy() for a in arrays(record)] for record in cells]
        first = bilateral_filter(values, inten, spacing, theta, cells)
        for record, kept in zip(cells, before):
            for got, want in zip(arrays(record), kept):
                assert got.tobytes() == want.tobytes()
        again = bilateral_filter(values, inten, spacing, theta, cells)
        assert again.tobytes() == first.tobytes()
        assert first.tobytes() == bilateral_filter(values, inten, spacing, theta).tobytes()
