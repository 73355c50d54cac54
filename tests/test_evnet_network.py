"""Whole-network checks: gradient routing, architecture reduction,
determinism, the optimizer recursion, and checkpoint round trips."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import evcseg.evnet.network as network
from evcseg.evnet import ops
from conftest import rewrite_manifest
from test_evnet_ops import offset_loop_conv3d
from evcseg.errors import (
    BadMagicError,
    ConfigError,
    FormatError,
    GeometryError,
    TrainingError,
    TruncatedFileError,
)
from evcseg.evnet import (
    EvNetConfig,
    config_hash,
    evnet_backward,
    evnet_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    soft_dice_loss,
)

EPSILON = 1e-5
REL_TOL = 1e-4


def rel_err(approx, exact):
    denom = max(np.linalg.norm(approx), np.linalg.norm(exact), 1e-30)
    return np.linalg.norm(approx - exact) / denom


def network_loss(x, params, cfg, truth):
    probs, _ = evnet_forward(x, params, cfg)
    report, _ = soft_dice_loss(probs, truth)
    return report.value


def swap_head_offsets(manifest):
    bias, kernel = manifest["tensors"]["head.bias"], manifest["tensors"]["head.kernel"]
    bias["offset"], kernel["offset"] = kernel["offset"], bias["offset"]


# the first tensor by name in TestCheckpoint's network, stored at offset 0
FIRST_TENSOR = "dec0.conv0.bias"

# Manifest faults in the tensor table; each must raise FormatError naming
# the tensors or the bad entry.
TENSOR_TABLE_EDITS = {
    "no_tensors": lambda m: m.pop("tensors"),
    "tensors_list": lambda m: m.update(tensors=[]),
    "no_shape": lambda m: m["tensors"]["head.bias"].pop("shape"),
    "no_offset": lambda m: m["tensors"]["head.bias"].pop("offset"),
    "negative_offset": lambda m: m["tensors"]["head.bias"].update(offset=-1000),
    "overlapping_offsets": lambda m: m["tensors"]["head.bias"].update(
        offset=m["tensors"]["head.kernel"]["offset"]
    ),
    "swapped_offsets": swap_head_offsets,
    "extra_key": lambda m: m["tensors"]["head.bias"].update(order="C"),
    # equal to 0 in Python, but not the integer offset save writes
    "float_offset": lambda m: m["tensors"][FIRST_TENSOR].update(offset=0.0),
    "bool_offset": lambda m: m["tensors"][FIRST_TENSOR].update(offset=False),
}


def network_grads(x, params, cfg, truth):
    probs, cache = evnet_forward(x, params, cfg, want_cache=True)
    _, gprobs = soft_dice_loss(probs, truth)
    return evnet_backward(gprobs, cache, cfg)


class TestForward:
    def test_output_is_distribution(self):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=1)
        params = init_params(cfg)
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4, 4))
        probs, _ = evnet_forward(x, params, cfg)
        assert probs.shape == (2, 2, 4, 4, 4)
        assert probs.min() >= 0 and probs.max() <= 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_three_level_shapes(self):
        cfg = EvNetConfig(levels=3, base_channels=2, seed=2)
        params = init_params(cfg)
        x = np.random.default_rng(1).standard_normal((1, 1, 8, 8, 8))
        probs, _ = evnet_forward(x, params, cfg)
        assert probs.shape == (1, 2, 8, 8, 8)

    def test_deterministic_across_runs(self):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=3)
        params = init_params(cfg)
        x = np.random.default_rng(2).standard_normal((1, 1, 4, 4, 4))
        a, _ = evnet_forward(x, params, cfg)
        b, _ = evnet_forward(x, params, cfg)
        assert np.array_equal(a, b)

    def test_inference_holds_no_layer_caches(self):
        # without a cache each level's conv buffers go once the next level
        # starts, so inference peaks below the forward a backward needs
        cfg = EvNetConfig(base_channels=2)
        params = init_params(cfg, dtype=np.float32)
        x = np.random.default_rng(4).standard_normal((1, 1, 32, 32, 32)).astype(np.float32)
        probs, peaks = [], []
        for want_cache in (False, True):
            tracemalloc.start()
            try:
                probs.append(evnet_forward(x, params, cfg, want_cache=want_cache)[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert probs[0].tobytes() == probs[1].tobytes()
        assert peaks[0] < peaks[1], peaks

    def test_init_reproducible(self):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=9)
        p1 = init_params(cfg)
        p2 = init_params(cfg)
        assert sorted(p1) == sorted(p2)
        for k in p1:
            assert np.array_equal(p1[k], p2[k])
        p3 = init_params(EvNetConfig(levels=2, base_channels=2, seed=10))
        assert any(not np.array_equal(p1[k], p3[k]) for k in p1)

    def test_input_validation(self):
        cfg = EvNetConfig(levels=3, base_channels=2)
        params = init_params(cfg)
        with pytest.raises(GeometryError):
            evnet_forward(np.zeros((1, 2, 8, 8, 8)), params, cfg)
        with pytest.raises(GeometryError):
            evnet_forward(np.zeros((1, 1, 6, 8, 8)), params, cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EvNetConfig(levels=1)
        with pytest.raises(ConfigError):
            EvNetConfig(levels=6)
        with pytest.raises(ConfigError):
            EvNetConfig(base_channels=1)
        with pytest.raises(ConfigError):
            EvNetConfig(levels=3, convs_per_block=(1, 1))
        with pytest.raises(ConfigError):
            EvNetConfig(multiscale_mode="average")
        with pytest.raises(ConfigError):
            EvNetConfig(multiscale_mode="add")


class TestBackward:
    @pytest.mark.parametrize(
        "cfg,shape",
        [
            (EvNetConfig(levels=2, base_channels=2, convs_per_block=(1, 1), seed=5), (2, 1, 4, 4, 4)),
            (EvNetConfig(levels=3, base_channels=2, convs_per_block=(1, 1, 1), seed=6), (1, 1, 8, 8, 8)),
            (EvNetConfig(levels=2, base_channels=2, convs_per_block=(1, 1), multiscale_inputs=False, seed=8), (1, 1, 4, 4, 4)),
            # the default convs_per_block (1, 2, 3): blocks of two and three convs
            (EvNetConfig(levels=3, base_channels=2, seed=9), (1, 1, 8, 8, 8)),
            (EvNetConfig(levels=3, base_channels=2, multiscale_inputs=False, seed=9), (1, 1, 8, 8, 8)),
        ],
    )
    def test_directional_derivative(self, cfg, shape):
        # perturbing every parameter along a random direction must change the
        # loss at the rate the gradient dict predicts
        rng = np.random.default_rng(100)
        params = init_params(cfg)
        x = rng.standard_normal(shape)
        truth = (rng.uniform(size=(shape[0], *shape[2:])) > 0.5).astype(np.uint8)
        grads = network_grads(x, params, cfg, truth)
        assert sorted(grads) == sorted(params)
        for trial in range(3):
            direction = {
                k: rng.standard_normal(v.shape) for k, v in params.items()
            }
            # unit-norm direction keeps the finite-difference truncation term
            # far below the tolerance
            norm = np.sqrt(sum((d**2).sum() for d in direction.values()))
            direction = {k: d / norm for k, d in direction.items()}
            hi = {k: params[k] + EPSILON * direction[k] for k in params}
            lo = {k: params[k] - EPSILON * direction[k] for k in params}
            fd = (
                network_loss(x, hi, cfg, truth) - network_loss(x, lo, cfg, truth)
            ) / (2 * EPSILON)
            analytic = sum((grads[k] * direction[k]).sum() for k in params)
            assert rel_err(np.array([fd]), np.array([analytic])) < REL_TOL

    def test_per_tensor_coordinates(self):
        # spot-check individual coordinates in every tensor so a routing slip
        # in one branch cannot hide behind the rest of the direction
        cfg = EvNetConfig(levels=2, base_channels=2, convs_per_block=(1, 1), seed=11)
        rng = np.random.default_rng(101)
        params = init_params(cfg)
        x = rng.standard_normal((1, 1, 4, 4, 4))
        truth = (rng.uniform(size=(1, 4, 4, 4)) > 0.5).astype(np.uint8)
        grads = network_grads(x, params, cfg, truth)
        fd_vals, an_vals = [], []
        for name in sorted(params):
            flat = params[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + EPSILON
                hi = network_loss(x, params, cfg, truth)
                flat[idx] = orig - EPSILON
                lo = network_loss(x, params, cfg, truth)
                flat[idx] = orig
                fd_vals.append((hi - lo) / (2 * EPSILON))
                an_vals.append(grads[name].reshape(-1)[idx])
        assert rel_err(np.array(fd_vals), np.array(an_vals)) < REL_TOL

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_layer_takes_no_input_gradient(self, monkeypatch, dtype):
        # enc0.conv0 reads the network input, whose gradient nothing takes; its
        # kernel and bias gradients must equal the full conv backward's bit for
        # bit, with one conv3d_transpose call fewer
        cfg = EvNetConfig(levels=3, base_channels=2, seed=13)
        rng = np.random.default_rng(105)
        params = init_params(cfg, dtype)
        x = rng.standard_normal((2, 1, 8, 8, 8)).astype(dtype)
        probs, cache = evnet_forward(x, params, cfg, want_cache=True)
        gprobs = rng.standard_normal(probs.shape).astype(dtype)
        calls = []
        transpose = ops.conv3d_transpose

        def counted(*args):
            calls.append(args)
            return transpose(*args)

        monkeypatch.setattr(ops, "conv3d_transpose", counted)
        grads = evnet_backward(gprobs, cache, cfg)
        skipping = len(calls)
        calls.clear()
        monkeypatch.setattr(
            network, "conv3d_param_grads", lambda g, c: ops.conv3d_backward(g, c)[1:]
        )
        full = evnet_backward(gprobs, cache, cfg)
        # every conv but the up convs takes its input gradient by a transpose
        convs = sum(k.endswith(".kernel") and not k.startswith("up") for k in params)
        assert len(calls) == convs and skipping == convs - 1
        assert sorted(grads) == sorted(full) == sorted(params)
        for k in full:
            assert grads[k].dtype == full[k].dtype == dtype
            np.testing.assert_array_equal(grads[k], full[k])

    def test_bytes_do_not_depend_on_blas_threads(self):
        # every conv accumulates through BLAS gemm calls; probabilities and
        # gradients must not depend on how many threads run them
        script = (
            "import hashlib, numpy as np\n"
            "from evcseg.evnet import EvNetConfig, evnet_backward, evnet_forward, init_params\n"
            "cfg = EvNetConfig(levels=2, base_channels=4, seed=3)\n"
            "h = hashlib.sha256()\n"
            "for dtype in (np.float32, np.float64):\n"
            "    rng = np.random.default_rng(106)\n"
            "    params = init_params(cfg, dtype)\n"
            "    x = rng.standard_normal((1, 1, 32, 32, 32)).astype(dtype)\n"
            "    probs, cache = evnet_forward(x, params, cfg, want_cache=True)\n"
            "    grads = evnet_backward(probs - 0.5, cache, cfg)\n"
            "    h.update(probs.tobytes())\n"
            "    for k in sorted(grads):\n"
            "        h.update(grads[k].tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(network.__file__).resolve().parents[2])
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

    @pytest.mark.parametrize("levels", [2, 3])
    def test_bytes_match_offset_loop_convolution(self, monkeypatch, levels):
        # every correlation in the network (block and head convs, the down
        # conv, and each input gradient and up conv through conv3d_transpose)
        # must give the bytes of one np.dot product per kernel tap
        cfg = EvNetConfig(levels=levels, base_channels=2, seed=14)
        rng = np.random.default_rng(107)
        params = init_params(cfg, np.float32)
        x = rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32)

        def run():
            probs, cache = evnet_forward(x, params, cfg, want_cache=True)
            return probs, evnet_backward(probs - 0.5, cache, cfg)

        def reference(x, kernel, bias, stride=1, padding=0):
            # C order, as conv3d_forward returns: later reductions sum in
            # memory order
            y = np.ascontiguousarray(offset_loop_conv3d(x, kernel, bias, stride, padding))
            pad = ((padding, padding),) * 3
            windows = ops._phase_windows(x, kernel.shape[2:], stride, y.dtype, pad)
            return y, (windows, kernel, stride, padding, x.shape)

        probs, grads = run()
        monkeypatch.setattr(ops, "conv3d_forward", reference)
        monkeypatch.setattr(network, "conv3d_forward", reference)
        ref_probs, ref_grads = run()
        assert probs.dtype == ref_probs.dtype == np.float32
        assert probs.tobytes() == ref_probs.tobytes()
        assert sorted(grads) == sorted(ref_grads) == sorted(params)
        for k in grads:
            assert grads[k].dtype == ref_grads[k].dtype == np.float32, k
            assert grads[k].tobytes() == ref_grads[k].tobytes(), k

    def test_grad_shapes_match_params(self):
        cfg = EvNetConfig(levels=3, base_channels=2, seed=12)
        rng = np.random.default_rng(102)
        params = init_params(cfg)
        x = rng.standard_normal((1, 1, 8, 8, 8))
        truth = np.zeros((1, 8, 8, 8), dtype=np.uint8)
        truth[0, 2:6, 2:6, 2:6] = 1
        grads = network_grads(x, params, cfg, truth)
        for k, v in params.items():
            assert grads[k].shape == v.shape


class TestArchitectureReduction:
    def test_zeroed_raw_weights_match_plain_network(self):
        # zero every kernel column that reads a concatenated raw-input
        # channel; the remaining weights, shared verbatim, must give the
        # single-scale network's output exactly
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

    def test_raw_channels_do_change_output(self):
        # sanity guard on the previous test: with nonzero raw-channel
        # weights the two configurations genuinely differ
        cfg_ev = EvNetConfig(levels=2, base_channels=2, seed=22)
        cfg_v = EvNetConfig(levels=2, base_channels=2, multiscale_inputs=False, seed=22)
        p_ev = init_params(cfg_ev)
        p_v = init_params(cfg_v)
        for name in p_v:
            if name == "enc1.conv0.kernel":
                p_v[name] = p_ev[name][:, : cfg_ev.channels_at(1)].copy()
            else:
                p_v[name] = p_ev[name].copy()
        x = np.random.default_rng(104).standard_normal((1, 1, 4, 4, 4))
        out_ev, _ = evnet_forward(x, p_ev, cfg_ev)
        out_v, _ = evnet_forward(x, p_v, cfg_v)
        assert np.max(np.abs(out_ev - out_v)) > 1e-9


class TestInputPyramid:
    """Encoder level i > 0 merges x downsampled to 2**i-wide block means."""

    @staticmethod
    def raw_inputs(monkeypatch, x, cfg):
        """The raw tensor each encoder level i = 1.. merges, in level order."""
        calls = []
        concat = network.concat_channels_forward

        def record(tensors):
            calls.append(tensors)
            return concat(tensors)

        monkeypatch.setattr(network, "concat_channels_forward", record)
        evnet_forward(x, init_params(cfg), cfg)
        # the encoder's merges come before the decoder's skip concatenations
        return [tensors[1] for tensors in calls[: cfg.levels - 1]]

    def test_each_level_sees_block_means(self, monkeypatch):
        cfg = EvNetConfig(levels=4, base_channels=2, seed=50)
        x = np.random.default_rng(51).standard_normal((2, 1, 16, 16, 8))
        raws = self.raw_inputs(monkeypatch, x, cfg)
        assert len(raws) == 3
        n, _, d, h, w = x.shape
        for i, raw in enumerate(raws, start=1):
            b = 2**i
            expect = x.reshape(n, 1, d // b, b, h // b, b, w // b, b).mean(axis=(3, 5, 7))
            assert raw.shape == expect.shape
            assert np.max(np.abs(raw - expect)) < 1e-12

    def test_constant_input_stays_constant(self, monkeypatch):
        cfg = EvNetConfig(levels=3, base_channels=2, seed=52)
        x = np.full((1, 1, 8, 8, 8), 3.25)
        raws = self.raw_inputs(monkeypatch, x, cfg)
        assert len(raws) == 2
        for i, raw in enumerate(raws, start=1):
            np.testing.assert_array_equal(raw, np.full((1, 1) + (8 >> i,) * 3, 3.25))


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([5.0, -3.0])}
        new, _ = sgd_step(params, grads, None, lr=0.0, momentum=0.9)
        np.testing.assert_array_equal(new["w"], params["w"])

    def test_plain_step_without_momentum(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -1.0])}
        new, vel = sgd_step(params, grads, None, lr=0.1, momentum=0.0)
        np.testing.assert_allclose(new["w"], [0.95, 2.1])
        np.testing.assert_allclose(vel["w"], [0.5, -1.0])

    def test_two_steps_match_hand_recursion(self):
        p0 = {"w": np.array([1.0, 2.0])}
        g1 = {"w": np.array([0.5, -1.0])}
        g2 = {"w": np.array([0.25, 0.5])}
        p1, v1 = sgd_step(p0, g1, None, lr=0.1, momentum=0.9)
        p2, v2 = sgd_step(p1, g2, v1, lr=0.1, momentum=0.9)
        # v1 = g1; p1 = p0 - 0.1 v1
        # v2 = 0.9 v1 + g2 = [0.7, -0.4]; p2 = p1 - 0.1 v2
        np.testing.assert_allclose(v1["w"], [0.5, -1.0])
        np.testing.assert_allclose(p1["w"], [0.95, 2.1])
        np.testing.assert_allclose(v2["w"], [0.7, -0.4])
        np.testing.assert_allclose(p2["w"], [0.88, 2.14])

    def test_inputs_left_untouched(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([2.0])}
        vel = {"w": np.array([3.0])}
        sgd_step(params, grads, vel, lr=0.5, momentum=0.5)
        assert params["w"][0] == 1.0 and vel["w"][0] == 3.0

    def test_non_finite_grad_aborts(self):
        with pytest.raises(TrainingError):
            sgd_step(
                {"w": np.ones(2)}, {"w": np.array([1.0, np.nan])}, None, 0.1, 0.0
            )

    def test_key_mismatch(self):
        with pytest.raises(TrainingError):
            sgd_step({"a": np.ones(1)}, {"b": np.ones(1)}, None, 0.1, 0.0)

    def test_bad_hyperparameters(self):
        params = {"w": np.ones(1)}
        grads = {"w": np.ones(1)}
        with pytest.raises(ConfigError):
            sgd_step(params, grads, None, lr=-0.1, momentum=0.0)
        with pytest.raises(ConfigError):
            sgd_step(params, grads, None, lr=0.1, momentum=1.0)

    def test_non_finite_hyperparameters(self):
        params = {"w": np.ones(1)}
        grads = {"w": np.ones(1)}
        for lr in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="learning rate"):
                sgd_step(params, grads, None, lr=lr, momentum=0.0)
        with pytest.raises(ConfigError, match="momentum"):
            sgd_step(params, grads, None, lr=0.1, momentum=np.nan)

    def test_overflowing_update_names_parameter(self):
        # a finite but huge rate overflows float32: 1e38 * 1e2 > 3.4e38
        params = {"a": np.ones(2, np.float32), "w": np.ones(3, np.float32)}
        grads = {"a": np.zeros(2, np.float32), "w": np.full(3, 1e2, np.float32)}
        with pytest.raises(TrainingError, match="non-finite w after the update"):
            sgd_step(params, grads, None, lr=1e38, momentum=0.0)


def rehashed_config(**changes):
    """A manifest edit that sets config values and hashes the result as
    config_hash does, so only the values themselves are wrong."""

    def edit(manifest):
        manifest["config"].update(changes)
        blob = json.dumps(manifest["config"], sort_keys=True).encode()
        manifest["config_hash"] = hashlib.sha256(blob).hexdigest()[:16]

    return edit


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=31)
        params = init_params(cfg)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, cfg, extra={"epoch": 7, "loss": 0.25})
        loaded, cfg2, manifest = load_checkpoint(path)
        assert cfg2 == cfg
        assert manifest["extra"] == {"epoch": 7, "loss": 0.25}
        assert manifest["config_hash"] == config_hash(cfg)
        assert sorted(loaded) == sorted(params)
        for k in params:
            assert loaded[k].dtype == np.float32
            np.testing.assert_array_equal(loaded[k], params[k].astype(np.float32))

    def test_identical_weights_identical_bytes(self, tmp_path):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=32)
        params = init_params(cfg)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, cfg)
        save_checkpoint(b, params, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # the temporary file is written, then cannot replace a directory
        cfg = EvNetConfig(levels=2, base_channels=2, seed=34)
        (tmp_path / "adir").mkdir()
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "adir", init_params(cfg), cfg)
        assert os.listdir(tmp_path) == ["adir"]
        assert os.listdir(tmp_path / "adir") == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_truncations(self, tmp_path):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=33)
        params = init_params(cfg)
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, params, cfg)
        data = path.read_bytes()
        short = tmp_path / "short.ckpt"
        short.write_bytes(data[:6])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(short)
        cut_manifest = tmp_path / "cutm.ckpt"
        cut_manifest.write_bytes(data[:40])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(cut_manifest)
        cut_payload = tmp_path / "cutp.ckpt"
        cut_payload.write_bytes(data[:-8])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(cut_payload)

    def test_golden_bytes(self, tmp_path):
        # pins the format: weights made by hand, not by init_params, whose
        # random stream numpy does not promise to keep
        cfg = EvNetConfig(levels=2, base_channels=2, seed=0)
        params = {
            name: np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 4
            for name, shape in network.param_shapes(cfg).items()
        }
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, cfg, extra={"epoch": 3})
        data = path.read_bytes()
        n = len(data) - 12 - 4 * sum(arr.size for arr in params.values())
        assert data[8:12] == n.to_bytes(4, "little")
        assert json.loads(data[12 : 12 + n])["extra"] == {"epoch": 3}
        assert hashlib.sha256(data).hexdigest() == (
            "4bb977e1d6f3f99ce77109d6e8ca4ef47bb47c627ff3964ccfad91a538a00e81"
        )

    @pytest.mark.parametrize(
        "edit", ["missing", "extra", "misshapen", *TENSOR_TABLE_EDITS]
    )
    def test_tensors_must_match_config(self, tmp_path, edit):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=34)
        params = init_params(cfg)
        if edit == "missing":
            del params["head.bias"]
        elif edit == "extra":
            params["head.scale"] = np.ones(2)
        elif edit == "misshapen":
            params["head.bias"] = np.zeros(3)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, cfg)
        if edit in TENSOR_TABLE_EDITS:
            rewrite_manifest(path, TENSOR_TABLE_EDITS[edit])
        match = {"no_tensors": "tensors", "tensors_list": "tensors",
                 "float_offset": FIRST_TENSOR, "bool_offset": FIRST_TENSOR}.get(edit, "head")
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["config"].pop("multiscale_mode"),
            lambda m: m["config"].update(dropout=0.5),
            lambda m: m["config"].update(convs_per_block=5),
            lambda m: m["config"].update(levels="2"),
            lambda m: m["config"].update(base_channels=2.5),
            lambda m: m.update(config_hash="0" * 16),
            rehashed_config(levels=7),
            rehashed_config(base_channels=1),
            rehashed_config(multiscale_mode="add"),
        ],
        ids=["missing", "unknown", "scalar_convs", "string_levels", "float_channels", "hash",
             "rehashed_levels", "rehashed_channels", "rehashed_add_mode"],
    )
    def test_config_keys_must_match(self, tmp_path, edit):
        cfg = EvNetConfig(levels=2, base_channels=2, seed=35)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, init_params(cfg), cfg)
        rewrite_manifest(path, edit)
        with pytest.raises(FormatError, match="config"):
            load_checkpoint(path)

    def test_config_hash_sensitivity(self):
        a = EvNetConfig(levels=2, base_channels=2, seed=1)
        b = EvNetConfig(levels=2, base_channels=4, seed=1)
        assert config_hash(a) == config_hash(EvNetConfig(levels=2, base_channels=2, seed=1))
        assert config_hash(a) != config_hash(b)
