"""CRF refinement against brute-force oracles.

The kernel, the message passes, and the free energy each get checked
against independent reimplementations (direct formulas and O(N^2) loops)
before the mean-field machinery built on them is trusted.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from evcseg import bilateral, crf
from evcseg.bilateral import CELL, bilateral_filter, gaussian_blur
from evcseg.crf import (
    CrfConfig,
    MeanFieldState,
    UnaryField,
    filtered_message_pass,
    kernel_matrix,
    mean_field_step,
    refine,
    unary_from_probmap,
)
from evcseg.errors import CapacityError, ConfigError, DomainError, GeometryError
from evcseg.metrics import dice
from evcseg.volume import LabelMask, ProbMap, Volume
from instances import (
    free_energy_exact,
    gibbs_energy,
    noisy_sphere_instance,
    pairwise_kernel,
    random_crf_instance,
)


def brute_kernel(pos, inten, cfg):
    """Direct evaluation of the two-part kernel, zero diagonal."""
    dp2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    di2 = (inten[:, None] - inten[None, :]) ** 2
    k = cfg.w_appearance * np.exp(
        -dp2 / (2 * cfg.theta_alpha**2) - di2 / (2 * cfg.theta_beta**2)
    ) + cfg.w_smoothness * np.exp(-dp2 / (2 * cfg.theta_gamma**2))
    np.fill_diagonal(k, 0.0)
    return k


def features_of(vol):
    idx = np.indices(vol.data.shape).reshape(3, -1).T
    pos = idx * vol.spacing
    data = vol.data.reshape(-1)
    lo, hi = data.min(), data.max()
    inten = (data - lo) / (hi - lo) if hi > lo else np.zeros_like(data)
    return pos, inten


def brute_messages(q, vol, cfg):
    """O(N^2) oracle for sum_{j != i} k_ij q_j(l)."""
    pos, inten = features_of(vol)
    k = brute_kernel(pos, inten, cfg)
    qf = q.reshape(q.shape[0], -1)
    return (qf @ k).reshape(q.shape)


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
    def test_matches_pairwise_kernel(self):
        rng = np.random.default_rng(7)
        vol = Volume(rng.uniform(size=(3, 2, 2)))
        cfg = CrfConfig(theta_alpha=2.0, theta_beta=0.3, theta_gamma=1.5)
        k = kernel_matrix(vol, cfg)
        pos, inten = features_of(vol)
        n = vol.data.size
        assert k.shape == (n, n)
        for i in range(n):
            assert k[i, i] == 0.0
            for j in range(n):
                if i != j:
                    fi = np.append(pos[i], inten[i])
                    fj = np.append(pos[j], inten[j])
                    assert k[i, j] == pytest.approx(
                        pairwise_kernel(fi, fj, cfg), rel=1e-12
                    )
        np.testing.assert_allclose(k, k.T)

    def test_spacing_changes_distances(self):
        data = np.zeros((2, 2, 2))
        fine = Volume(data, affine=np.diag([1.0, 1.0, 1.0, 1.0]))
        coarse = Volume(data, affine=np.diag([3.0, 1.0, 1.0, 1.0]))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=1.0, theta_gamma=1.0)
        k_fine = kernel_matrix(fine, cfg)
        k_coarse = kernel_matrix(coarse, cfg)
        # voxels (0,0,0) and (1,0,0) are flat indices 0 and 4
        assert k_coarse[0, 4] < k_fine[0, 4]

    def test_capacity_guard(self):
        vol = Volume(np.zeros((17, 17, 17)))
        with pytest.raises(CapacityError):
            kernel_matrix(vol, CrfConfig())


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

    def test_capacity_guard(self):
        vol = Volume(np.zeros((17, 17, 17)))
        u = UnaryField(np.zeros((2, 17, 17, 17)))
        mask = LabelMask(np.zeros((17, 17, 17), dtype=np.uint8))
        with pytest.raises(CapacityError):
            gibbs_energy(mask, u, vol, CrfConfig())


def initial_state(u, vol, cfg):
    return crf._initial_state(u, vol, cfg)


class TestMeanFieldStep:
    def test_zero_pairwise_reaches_fixed_point(self):
        rng = np.random.default_rng(10)
        fg = rng.uniform(0.1, 0.9, size=(3, 3, 3))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        vol = Volume(rng.uniform(size=(3, 3, 3)))
        cfg = CrfConfig(w_appearance=0.0, w_smoothness=0.0, backend="brute")
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
        u = unary_from_probmap(ProbMap(probs))
        cfg = CrfConfig(backend="brute", theta_beta=0.5)
        state = initial_state(u, vol, cfg)
        for _ in range(3):
            state = mean_field_step(state, u, vol, cfg)
            np.testing.assert_array_equal(state.q[:, 0], state.q[:, 1])

    def test_two_voxel_fixed_point_matches_scalar_oracle(self):
        vol = two_voxel_volume()
        fg = 0.4
        probs = np.array([[1 - fg, 1 - fg], [fg, fg]]).reshape(2, 2, 1, 1)
        u = unary_from_probmap(ProbMap(probs))
        cfg = CrfConfig(
            w_appearance=1.0, w_smoothness=1.0, theta_alpha=2.0,
            theta_beta=0.5, theta_gamma=1.5, backend="brute",
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

        state = initial_state(u, vol, cfg)
        for _ in range(200):
            state = mean_field_step(state, u, vol, cfg)
        np.testing.assert_allclose(state.q[:, 0, 0, 0], qa, atol=1e-8)
        np.testing.assert_allclose(state.q[:, 1, 0, 0], qb, atol=1e-8)

    @pytest.mark.parametrize("backend", ["brute", "filtered"])
    def test_marginals_stay_normalized(self, backend):
        p, vol, cfg = random_crf_instance(seed=11, max_side=8)
        cfg = dataclasses.replace(cfg, backend=backend)
        u = unary_from_probmap(p)
        state = initial_state(u, vol, cfg)
        for _ in range(4):
            state = mean_field_step(state, u, vol, cfg)
            sums = state.q.sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)
            assert state.q.min() >= 0

    def test_trace_grows_and_flags_backend(self):
        p, vol, cfg = random_crf_instance(seed=12, max_side=6)
        u = unary_from_probmap(p)
        brute_state = initial_state(u, vol, cfg)
        brute_state = mean_field_step(brute_state, u, vol, cfg)
        assert len(brute_state.free_energy_trace) == 2
        assert brute_state.trace_exact
        fcfg = dataclasses.replace(cfg, backend="filtered")
        filt_state = initial_state(u, vol, fcfg)
        filt_state = mean_field_step(filt_state, u, vol, fcfg)
        assert len(filt_state.free_energy_trace) == 2
        assert not filt_state.trace_exact


class TestFreeEnergy:
    def test_exact_value_matches_pair_loop(self):
        rng = np.random.default_rng(13)
        fg = rng.uniform(0.1, 0.9, size=(2, 2, 2))
        p = ProbMap(np.stack([1 - fg, fg]))
        u = unary_from_probmap(p)
        vol = Volume(rng.uniform(size=(2, 2, 2)))
        cfg = CrfConfig(theta_beta=0.3, backend="brute")
        k = kernel_matrix(vol, cfg)
        qf = p.data.reshape(2, -1)
        uf = u.neg_log_probs.reshape(2, -1)
        assert free_energy_exact(qf, uf, k) == pytest.approx(
            brute_free_energy(qf, uf, k), rel=1e-12
        )

    def test_sequential_sweeps_never_increase_free_energy(self):
        for seed in range(5):
            p, vol, cfg = random_crf_instance(seed=100 + seed, max_side=8)
            cfg = dataclasses.replace(cfg, update_order="sequential")
            u = unary_from_probmap(p)
            state = initial_state(u, vol, cfg)
            for _ in range(10):
                state = mean_field_step(state, u, vol, cfg)
            trace = np.array(state.free_energy_trace)
            assert np.all(np.diff(trace) <= 1e-9), trace


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
            theta_beta=0.1, theta_gamma=1.0, backend="filtered",
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
        exact = brute_messages(q, vol, cfg)
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
        exact = brute_messages(q, vol, cfg)
        scale = exact.max() - exact.min()
        assert np.max(np.abs(approx - exact)) < 0.05 * scale


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
        kern = np.pad(bilateral._blur_kernel(), 1)
        offsets = np.arange(kern.size) - kern.size // 2
        every_cell = np.zeros(values.shape)
        for cell in range(int(pos.max()) + 2):
            splat = np.maximum(0.0, 1.0 - np.abs(pos - cell))
            every_cell += np.interp(cell - pos, offsets, kern) * gaussian_blur(
                splat * values, spacing, theta
            )

        calls = []

        def counting_blur(*args):
            calls.append(1)
            return gaussian_blur(*args)

        monkeypatch.setattr(bilateral, "gaussian_blur", counting_blur)
        out = bilateral_filter(values, inten, spacing, theta)
        assert len(calls) < int(pos.max()) + 2
        np.testing.assert_array_equal(out, every_cell)


class TestTwoLabelMessage:
    """The filtered backend filters the foreground marginal only; the
    background message is the kernel mass minus the foreground's."""

    def test_one_channel_per_sweep_after_the_mass(self, monkeypatch):
        channels = []

        def recording(q, vol, cfg):
            channels.append(q.shape[0])
            return filtered_message_pass(q, vol, cfg)

        monkeypatch.setattr(crf, "filtered_message_pass", recording)
        p, vol, cfg = random_crf_instance(seed=200)
        refine(p, vol, dataclasses.replace(cfg, backend="filtered", iterations=5))
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
        cfg = dataclasses.replace(cfg, backend="filtered")
        u = unary_from_probmap(p)
        state = initial_state(u, vol, cfg)
        for sweep in range(6):
            if sweep:
                state = mean_field_step(state, u, vol, cfg)
            direct = filtered_message_pass(state.q, vol, cfg).reshape(state.message.shape)
            scale = direct.max() - direct.min()
            err = np.max(np.abs(state.message - direct))
            assert err <= 1e-12 * scale, (sweep, err, scale)

    def test_brute_states_carry_no_mass(self):
        p, vol, cfg = random_crf_instance(seed=12, max_side=6)
        u = unary_from_probmap(p)
        state = initial_state(u, vol, cfg)
        assert state.mass is None
        assert mean_field_step(state, u, vol, cfg).mass is None


class TestRefine:
    def test_zero_iterations_is_argmax(self):
        p, vol, cfg = random_crf_instance(seed=17)
        cfg = dataclasses.replace(cfg, iterations=0)
        mask, state = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask.data, np.argmax(p.data, axis=0))
        assert len(state.free_energy_trace) == 1

    @pytest.mark.parametrize("backend", ["brute", "filtered"])
    def test_zero_pairwise_keeps_argmax(self, backend):
        p, vol, cfg = random_crf_instance(seed=18, max_side=8)
        cfg = dataclasses.replace(
            cfg, w_appearance=0.0, w_smoothness=0.0, iterations=5, backend=backend
        )
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
        with pytest.raises(GeometryError):
            refine(p, vol, CrfConfig())

    def test_more_than_two_labels_rejected(self):
        p = ProbMap(np.full((3, 4, 4, 4), 1.0 / 3.0))
        vol = Volume(np.zeros((4, 4, 4)))
        with pytest.raises(DomainError):
            refine(p, vol, CrfConfig())

    @pytest.mark.parametrize("backend", ["brute", "filtered"])
    def test_deterministic(self, backend):
        p, vol, cfg = random_crf_instance(seed=19, max_side=7)
        cfg = dataclasses.replace(cfg, backend=backend, iterations=3)
        mask1, state1 = refine(p, vol, cfg)
        mask2, state2 = refine(p, vol, cfg)
        np.testing.assert_array_equal(mask1.data, mask2.data)
        np.testing.assert_array_equal(state1.q, state2.q)
        assert state1.free_energy_trace == state2.free_energy_trace


class TestBackendEquivalence:
    def test_filtered_marginals_track_brute(self):
        worst = 0.0
        for seed in range(10):
            p, vol, cfg = random_crf_instance(seed=200 + seed, max_side=12)
            u = unary_from_probmap(p)
            states = {}
            for backend in ("brute", "filtered"):
                bcfg = dataclasses.replace(cfg, backend=backend)
                state = initial_state(u, vol, bcfg)
                for _ in range(5):
                    state = mean_field_step(state, u, vol, bcfg)
                states[backend] = state.q
            worst = max(worst, np.max(np.abs(states["brute"] - states["filtered"])))
        assert worst < 0.05, worst

    def test_filtered_free_energy_tracks_brute(self):
        worst = 0.0
        for seed in range(10):
            p, vol, cfg = random_crf_instance(seed=200 + seed, max_side=12)
            u = unary_from_probmap(p)
            traces = {}
            for backend in ("brute", "filtered"):
                bcfg = dataclasses.replace(cfg, backend=backend)
                state = initial_state(u, vol, bcfg)
                for _ in range(5):
                    state = mean_field_step(state, u, vol, bcfg)
                traces[backend] = np.array(state.free_energy_trace)
            rel = np.abs(traces["filtered"] - traces["brute"]) / np.abs(traces["brute"])
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
        with pytest.raises(ConfigError):
            CrfConfig(backend="exact")
        with pytest.raises(ConfigError):
            CrfConfig(update_order="rowwise")

    def test_sequential_requires_brute(self):
        with pytest.raises(ConfigError):
            CrfConfig(backend="filtered", update_order="sequential")
        CrfConfig(backend="brute", update_order="sequential")
