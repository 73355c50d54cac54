"""Acceptance suite: one test per shipping gate, tolerances pinned.

Each test is self-contained and named for the property it locks in, so a
verbose run reads as a pass/fail line per gate. Budgeted wall-clock
limits are asserted inside the tests that carry them.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from instances import (
    dense_kernel,
    noisy_sphere_instance,
    oracle_refine,
    random_crf_instance,
    softmax_keeping_subnormals,
    sphere_mask,
)
from test_evnet_ops import fd_grad, rel_err

from evcseg import cli
from evcseg.crf import CrfConfig, _free_energy, refine, unary_from_probmap
from evcseg.evnet import ops
from evcseg.evnet.checkpoint import load_checkpoint
from evcseg.evnet.loss import soft_dice_loss
from evcseg.evnet.network import EvNetConfig, evnet_forward, init_params
from evcseg.metrics import balanced_ahd, dice, jaccard
from evcseg.nifti import DATATYPES, read_header, read_mask, read_nifti, write_nifti
from evcseg.pipeline import GridConfig, TrainConfig, preprocess_volume, train
from evcseg.postproc import cleanup, label_components
from evcseg.synth import synth_dataset
from evcseg.volume import LabelMask, Volume, resample_nearest_to_grid

from test_nifti import IDENTITY_SROW, craft_file, craft_header

GRAD_TOL = 1e-4
TOY_GRID = GridConfig(pad_shape=(32, 32, 32), resize_half=False)
TOY_NET = dict(levels=2, base_channels=2, seed=0)
TOY_OPTIM = dict(epochs=12, lr=0.02, momentum=0.9, holdout=8, seed=0)


def _fd_check(f, x, exact, tol=GRAD_TOL):
    assert rel_err(fd_grad(f, x), exact) < tol


class TestGradientSuite:
    """Every differentiable op against central finite differences.

    Double precision, random tensors with spatial sides <= 6, relative
    error < 1e-4, whole class under two minutes.
    """

    started = None

    @classmethod
    def setup_class(cls):
        cls.started = time.time()

    def test_conv3d_gradients(self):
        rng = np.random.default_rng(900)
        x = rng.standard_normal((1, 2, 5, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3, 3)) * 0.3
        b = rng.standard_normal(3) * 0.1
        y, cache = ops.conv3d_forward(x, k, b, stride=1, padding=1)
        r = rng.standard_normal(y.shape)
        gx, gk, gb = ops.conv3d_backward(r, cache)
        _fd_check(lambda t: (ops.conv3d_forward(t, k, b, 1, 1)[0] * r).sum(), x, gx)
        _fd_check(lambda t: (ops.conv3d_forward(x, t, b, 1, 1)[0] * r).sum(), k, gk)
        _fd_check(lambda t: (ops.conv3d_forward(x, k, t, 1, 1)[0] * r).sum(), b, gb)

    def test_downconv_gradients(self):
        rng = np.random.default_rng(901)
        x = rng.standard_normal((1, 2, 6, 6, 6))
        k = rng.standard_normal((3, 2, 2, 2, 2)) * 0.3
        b = rng.standard_normal(3) * 0.1
        y, cache = ops.downconv_forward(x, k, b)
        r = rng.standard_normal(y.shape)
        gx, gk, gb = ops.downconv_backward(r, cache)
        _fd_check(lambda t: (ops.downconv_forward(t, k, b)[0] * r).sum(), x, gx)
        _fd_check(lambda t: (ops.downconv_forward(x, t, b)[0] * r).sum(), k, gk)
        _fd_check(lambda t: (ops.downconv_forward(x, k, t)[0] * r).sum(), b, gb)

    def test_upconv_gradients(self):
        rng = np.random.default_rng(902)
        x = rng.standard_normal((1, 3, 3, 3, 3))
        k = rng.standard_normal((3, 2, 2, 2, 2)) * 0.3
        b = rng.standard_normal(2) * 0.1
        y, cache = ops.upconv_forward(x, k, b)
        r = rng.standard_normal(y.shape)
        gx, gk, gb = ops.upconv_backward(r, cache)
        _fd_check(lambda t: (ops.upconv_forward(t, k, b)[0] * r).sum(), x, gx)
        _fd_check(lambda t: (ops.upconv_forward(x, t, b)[0] * r).sum(), k, gk)
        _fd_check(lambda t: (ops.upconv_forward(x, k, t)[0] * r).sum(), b, gb)

    def test_prelu_gradients(self):
        rng = np.random.default_rng(903)
        x = rng.standard_normal((1, 3, 5, 5, 5))
        # central differences straddle the kink at 0; keep samples away
        x += 0.25 * np.sign(x)
        x[x == 0] = 0.25
        s = rng.uniform(0.1, 0.4, size=3)
        y, cache = ops.prelu_forward(x, s)
        r = rng.standard_normal(y.shape)
        gx, gs = ops.prelu_backward(r, cache)
        _fd_check(lambda t: (ops.prelu_forward(t, s)[0] * r).sum(), x, gx)
        _fd_check(lambda t: (ops.prelu_forward(x, t)[0] * r).sum(), s, gs)

    def test_concat_gradients(self):
        rng = np.random.default_rng(904)
        a = rng.standard_normal((1, 2, 4, 4, 4))
        b = rng.standard_normal((1, 3, 4, 4, 4))
        y, widths = ops.concat_channels_forward([a, b])
        r = rng.standard_normal(y.shape)
        ga, gb = ops.concat_channels_backward(r, widths)
        _fd_check(lambda t: (ops.concat_channels_forward([t, b])[0] * r).sum(), a, ga)
        _fd_check(lambda t: (ops.concat_channels_forward([a, t])[0] * r).sum(), b, gb)

    def test_softmax_gradients(self):
        rng = np.random.default_rng(905)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        y, _ = ops.softmax_channels_forward(x)
        r = rng.standard_normal(y.shape)
        gx = ops.softmax_channels_backward(r, y)
        _fd_check(lambda t: (ops.softmax_channels_forward(t)[0] * r).sum(), x, gx)

    def test_soft_dice_gradient(self):
        rng = np.random.default_rng(906)
        pred = rng.uniform(0.05, 0.95, size=(2, 2, 4, 4, 4))
        truth = (rng.uniform(size=(2, 4, 4, 4)) > 0.5).astype(np.float64)
        _, grad = soft_dice_loss(pred, truth)
        _fd_check(lambda t: soft_dice_loss(t, truth)[0].value, pred, grad)

    def test_suite_under_two_minutes(self):
        assert time.time() - self.started < 120.0


def test_multiscale_reduction_matches_plain_network():
    # zeroing the kernel columns that read the concatenated raw-input
    # channels must reproduce the single-scale network bit-for-bit in
    # double precision (weights otherwise shared verbatim)
    cfg_ev = EvNetConfig(levels=3, base_channels=2, seed=21)
    cfg_v = EvNetConfig(levels=3, base_channels=2, multiscale_inputs=False, seed=21)
    p_ev = init_params(cfg_ev)
    p_v = init_params(cfg_v)
    for name in p_v:
        if name.startswith("enc") and name.endswith("conv0.kernel"):
            level = int(name[3])
            if level > 0:
                c = cfg_ev.channels_at(level)
                p_v[name] = p_ev[name][:, :c].copy()
                p_ev[name][:, c:] = 0.0
                continue
        p_v[name] = p_ev[name].copy()
    rng = np.random.default_rng(103)
    for _ in range(5):
        x = rng.standard_normal((1, 1, 8, 8, 8))
        out_ev, _ = evnet_forward(x, p_ev, cfg_ev)
        out_v, _ = evnet_forward(x, p_v, cfg_v)
        assert np.max(np.abs(out_ev - out_v)) < 1e-12


def test_filtered_backend_tracks_brute_marginals():
    worst = 0.0
    for seed in range(200, 210):
        probs, vol, cfg = random_crf_instance(seed, max_side=12)  # 5 iterations
        exact, _ = oracle_refine(probs, vol, cfg, 5)
        _, filt = refine(probs, vol, cfg)
        worst = max(worst, float(np.max(np.abs(exact - filt.q))))
    assert worst < 0.05, f"worst marginal gap {worst:.4f}"


def test_parallel_fixed_point_is_free_energy_stationary():
    """Where parallel mean field settles, the free-energy formula is flat.

    The central-difference slope of the free energy along a random logit
    direction, at the converged logits, must be a vanishing fraction of the
    slope at the unary logits. A formula that disagrees with the update
    rule (a pairwise factor of 1 instead of 0.5) leaves ratios of 8e-3 and up.
    """
    step = 1e-5
    for seed in range(100, 105):
        probs, vol, cfg = random_crf_instance(seed, max_side=8)
        fixed, _ = oracle_refine(probs, vol, cfg, 100)
        k = dense_kernel(vol, cfg)
        u = unary_from_probmap(probs).reshape(2, -1)
        r = np.random.default_rng(seed).standard_normal(u.shape)

        def slope(logits):
            def energy(t):
                q = softmax_keeping_subnormals(logits + t * r)
                return _free_energy(q, u, q @ k)

            return (energy(step) - energy(-step)) / (2 * step)

        ratio = abs(slope(-u + fixed.reshape(2, -1) @ k)) / abs(slope(-u))
        assert ratio <= 1e-6, f"seed {seed}: slope ratio {ratio:.3g}"


def test_zero_pairwise_weights_reduce_to_unary_argmax():
    for seed in range(300, 310):
        probs, vol, cfg = random_crf_instance(seed)
        ref = dict(vars(cfg))
        ref.update(w_appearance=0.0, w_smoothness=0.0, iterations=5)
        mask, _ = refine(probs, vol, CrfConfig(**ref))
        expected = np.argmax(probs.data, axis=0).astype(np.uint8)
        np.testing.assert_array_equal(mask.data, expected)


def test_refinement_beats_raw_argmax_on_noisy_sphere():
    probs, vol, truth, cfg = noisy_sphere_instance()
    raw = np.argmax(probs.data, axis=0).astype(np.uint8)
    refined, _ = refine(probs, vol, cfg)
    gain = dice(truth, refined.data) - dice(truth, raw)
    assert gain >= 0.01, f"refinement gained only {gain:.4f}"


class TestMetricIdentities:
    def test_jaccard_dice_identity(self):
        rng = np.random.default_rng(700)
        for _ in range(100):
            a = rng.uniform(size=(6, 6, 6)) > 0.4
            b = rng.uniform(size=(6, 6, 6)) > 0.4
            if not (a.any() or b.any()):
                a[0, 0, 0] = True
            d = dice(a, b)
            assert abs(jaccard(a, b) - d / (2.0 - d)) < 1e-12

    def test_self_distance_is_zero(self):
        m = sphere_mask((9, 9, 9), (4, 4, 4), 3)
        assert balanced_ahd(m, m) == 0.0

    def test_hand_counted_overlap(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a.ravel()[:4] = True
        b.ravel()[1:7] = True
        # |A| = 4, |B| = 6, |A and B| = 3
        assert dice(a, b) == 2 * 3 / (4 + 6)
        assert jaccard(a, b) == 3 / 7


class TestCleanupGuarantees:
    def test_idempotent_single_component_on_random_masks(self):
        rng = np.random.default_rng(800)
        for _ in range(50):
            shape = tuple(rng.integers(6, 13, size=3))
            m = LabelMask((rng.uniform(size=shape) > 0.65).astype(np.uint8))
            if not m.data.any():
                continue
            once = cleanup(m)
            twice = cleanup(once)
            np.testing.assert_array_equal(once.data, twice.data)
            labels, _ = label_components(once.data, connectivity=26)
            assert labels.max() == 1

    def test_hollow_shell_fills_exactly(self):
        shell = sphere_mask((15, 15, 15), (7, 7, 7), 5)
        core = sphere_mask((15, 15, 15), (7, 7, 7), 3)
        hollow = LabelMask((shell & ~core.astype(bool)).astype(np.uint8))
        np.testing.assert_array_equal(cleanup(hollow).data, shell)


class TestToyTraining:
    """Sphere-phantom task: 40 samples, 32-cube grid, 2-level network.

    lr 0.02 with momentum 0.9 is a tuned toy-task constant (the CLI
    default 0.1 diverges at this scale); 12 epochs sit well inside the
    30-epoch/10-minute budget.
    """

    @staticmethod
    def _run(tmp, multiscale):
        data = tmp / "data"
        if not data.exists():
            synth_dataset(40, 32, 7, data)
        tag = "ev" if multiscale else "v"
        cfg = TrainConfig(
            data_dir=data,
            checkpoint_path=tmp / f"{tag}.evc",
            evnet=EvNetConfig(multiscale_inputs=multiscale, **TOY_NET),
            grid=TOY_GRID,
            **TOY_OPTIM,
        )
        t0 = time.time()
        res = train(cfg)
        return res, time.time() - t0

    @staticmethod
    def _heldout_dice(ckpt_path, data):
        params, cfg, _ = load_checkpoint(ckpt_path)
        perm = np.random.default_rng(TOY_OPTIM["seed"]).permutation(40)
        scores = []
        for i in sorted(perm[: TOY_OPTIM["holdout"]]):
            vol = read_nifti(data / "images" / f"phantom_{i:03d}.nii.gz")
            msk = read_mask(data / "masks" / f"phantom_{i:03d}.nii.gz")
            net_vol, _ = preprocess_volume(vol, TOY_GRID)
            probs, _ = evnet_forward(
                net_vol.data[None, None].astype(np.float32), params, cfg
            )
            pred = np.argmax(probs[0], axis=0).astype(np.uint8)
            truth = resample_nearest_to_grid(
                msk.data, msk.affine, net_vol.affine, net_vol.shape
            )
            scores.append(dice(truth, pred))
        return float(np.mean(scores))

    def test_converges_and_multiscale_is_noninferior(self, tmp_path):
        ev, ev_wall = self._run(tmp_path, multiscale=True)
        assert ev_wall < 600.0, f"training took {ev_wall:.0f}s"
        val_losses = [h["val_loss"] for h in ev.history]
        assert min(val_losses) < 0.1, f"held-out loss floor {min(val_losses):.3f}"

        v, _ = self._run(tmp_path, multiscale=False)
        d_ev = self._heldout_dice(ev.checkpoint_path, tmp_path / "data")
        d_v = self._heldout_dice(v.checkpoint_path, tmp_path / "data")
        assert d_ev >= d_v - 0.01, f"held-out dice {d_ev:.4f} vs plain {d_v:.4f}"


class TestEndToEnd:
    """synth -> train -> extract -> eval through the command line."""

    GRID_FLAGS = ["--pad", "32", "32", "32", "--no-resize-half"]

    @classmethod
    def _chain(cls, root: Path):
        data = root / "data"
        ckpt = root / "model.evc"
        pred = root / "pred"
        assert cli.main(["synth", "--out", str(data), "--n", "12",
                         "--size", "32", "--seed", "11"]) == 0
        assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                         "--epochs", "10", "--lr", "0.02", "--momentum", "0.9",
                         "--base-channels", "2", "--levels", "2", "--seed", "0",
                         *cls.GRID_FLAGS]) == 0
        for img in sorted((data / "images").iterdir()):
            assert cli.main(["extract", "--in", str(img),
                             "--out", str(pred / img.name),
                             "--checkpoint", str(ckpt), *cls.GRID_FLAGS]) == 0
        report = root / "report.json"
        assert cli.main(["eval", "--pred", str(pred),
                         "--truth", str(data / "masks"),
                         "--out-json", str(report)]) == 0
        return json.loads(report.read_text())

    def test_phantom_chain_accuracy_and_reproducibility(self, tmp_path):
        first = self._chain(tmp_path / "a")
        assert first["summary"]["dice"]["mean"] >= 0.9

        for name in sorted(p.name for p in (tmp_path / "a" / "pred").iterdir()
                           if p.name.endswith(".nii.gz")):
            m = read_mask(tmp_path / "a" / "pred" / name)
            labels, _ = label_components(m.data, connectivity=26)
            assert labels.max() == 1, f"{name} is not a single component"

        second = self._chain(tmp_path / "b")
        assert second == first
        for name in sorted(p.name for p in (tmp_path / "a" / "pred").iterdir()):
            a_path = tmp_path / "a" / "pred" / name
            b_path = tmp_path / "b" / "pred" / name
            if name.endswith(".transforms.json"):
                # sidecars record the absolute paths they were run with;
                # everything else in them must agree
                a_doc = json.loads(a_path.read_text())
                b_doc = json.loads(b_path.read_text())
                for key in ("checkpoint", "input", "output"):
                    a_doc.pop(key), b_doc.pop(key)
                assert a_doc == b_doc, f"{name} differs between runs"
            else:
                assert a_path.read_bytes() == b_path.read_bytes(), \
                    f"{name} differs between runs"


class TestNiftiRoundTrip:
    @pytest.mark.parametrize("code", sorted(DATATYPES))
    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_bit_exact_all_datatypes(self, tmp_path, code, gz):
        np_dtype = DATATYPES[code]
        rng = np.random.default_rng(code)
        if np_dtype.kind == "f":
            data = rng.standard_normal((5, 4, 3)).astype(np_dtype)
        else:
            info = np.iinfo(np_dtype)
            data = rng.integers(
                info.min, info.max, size=(5, 4, 3), endpoint=True
            ).astype(np_dtype)
        affine = np.diag([1.5, 2.0, 2.5, 1.0])
        path = tmp_path / ("x.nii.gz" if gz else "x.nii")
        write_nifti(Volume(data.astype(np.float64), affine), path, dtype=np_dtype)
        back = read_nifti(path)
        # every supported type embeds exactly in float64, so equality is bitwise
        np.testing.assert_array_equal(back.data, data.astype(np.float64))
        np.testing.assert_allclose(back.affine, affine, atol=1e-6)

    def test_byteswapped_header_reads_correctly(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.integers(-300, 300, size=(4, 3, 2)).astype(np.int16)
        hdr = craft_header(
            dim=(3, 4, 3, 2, 1, 1, 1, 1), datatype=4, bitpix=16, endian=">",
            sform=1, srow=IDENTITY_SROW,
        )
        craft_file(tmp_path / "be.nii", hdr, data, endian=">", dtype="i2")
        assert read_header(tmp_path / "be.nii").byteswapped
        v = read_nifti(tmp_path / "be.nii")
        np.testing.assert_array_equal(v.data, data.astype(np.float64))
