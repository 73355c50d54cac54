"""Gradient and forward checks for the network building blocks.

Every backward pass is checked against central finite differences of its
own forward pass, and every nontrivial forward against a direct-loop
reimplementation. All gradient checks run in double precision on tensors
of spatial size at most 6 per axis.
"""

import tracemalloc

import numpy as np
import pytest

from evcseg.errors import GeometryError
from evcseg.evnet import ops
from evcseg.evnet.loss import EPS, soft_dice_loss

EPSILON = 1e-5
REL_TOL = 1e-4


def fd_grad(f, x, eps=EPSILON):
    """Central-difference gradient of scalar f at x, element by element."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(approx, exact):
    denom = max(np.linalg.norm(approx), np.linalg.norm(exact), 1e-30)
    return np.linalg.norm(approx - exact) / denom


def brute_conv3d(x, kernel, bias, stride, padding):
    n, c, d, h, w = x.shape
    o, _, kd, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0)) + ((padding, padding),) * 3)
    od = (d + 2 * padding - kd) // stride + 1
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, od, oh, ow), dtype=x.dtype)
    for b in range(n):
        for oc in range(o):
            for i in range(od):
                for j in range(oh):
                    for k in range(ow):
                        patch = xp[
                            b,
                            :,
                            i * stride : i * stride + kd,
                            j * stride : j * stride + kh,
                            k * stride : k * stride + kw,
                        ]
                        out[b, oc, i, j, k] = (patch * kernel[oc]).sum() + bias[oc]
    return out


def brute_downconv(x, kernel, bias):
    n, c, d, h, w = x.shape
    o = kernel.shape[0]
    out = np.zeros((n, o, d // 2, h // 2, w // 2), dtype=x.dtype)
    for b in range(n):
        for oc in range(o):
            for i in range(d // 2):
                for j in range(h // 2):
                    for k in range(w // 2):
                        patch = x[
                            b, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2
                        ]
                        out[b, oc, i, j, k] = (patch * kernel[oc]).sum() + bias[oc]
    return out


def brute_upconv(y, kernel, bias):
    n, c, d, h, w = y.shape
    o = kernel.shape[1]
    out = np.zeros((n, o, 2 * d, 2 * h, 2 * w), dtype=y.dtype)
    for b in range(n):
        for oc in range(o):
            out[b, oc] += bias[oc]
            for ic in range(c):
                for i in range(d):
                    for j in range(h):
                        for k in range(w):
                            out[
                                b,
                                oc,
                                2 * i : 2 * i + 2,
                                2 * j : 2 * j + 2,
                                2 * k : 2 * k + 2,
                            ] += y[b, ic, i, j, k] * kernel[ic, oc]
    return out


class TestConv3d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 4, 4, 4))
        kernel = np.eye(3).reshape(3, 3, 1, 1, 1)
        y, _ = ops.conv3d_forward(x, kernel, np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 5, 5, 5))
        kernel = np.zeros((4, 2, 3, 3, 3))
        bias = np.array([1.5, -2.0, 0.0, 7.25])
        y, _ = ops.conv3d_forward(x, kernel, bias, padding=1)
        for oc in range(4):
            np.testing.assert_array_equal(y[:, oc], np.full((1, 5, 5, 5), bias[oc]))

    def test_all_ones_single_voxel(self):
        x = np.ones((1, 1, 3, 3, 3))
        kernel = np.ones((1, 1, 3, 3, 3))
        y, _ = ops.conv3d_forward(x, kernel, np.array([0.5]))
        assert y.shape == (1, 1, 1, 1, 1)
        assert y[0, 0, 0, 0, 0] == 27.0 + 0.5

    @pytest.mark.parametrize(
        "shape,k,s,p",
        [
            ((6, 6, 6), 3, 1, 1),
            ((6, 5, 4), 3, 2, 0),
            ((5, 5, 5), 5, 1, 2),
            ((4, 6, 5), 2, 2, 1),
            ((3, 3, 3), 1, 1, 0),
        ],
    )
    def test_forward_matches_brute(self, shape, k, s, p):
        rng = np.random.default_rng(hash((shape, k, s, p)) % 2**32)
        x = rng.standard_normal((2, 2) + shape)
        kernel = rng.standard_normal((3, 2, k, k, k))
        bias = rng.standard_normal(3)
        y, _ = ops.conv3d_forward(x, kernel, bias, stride=s, padding=p)
        expect = brute_conv3d(x, kernel, bias, s, p)
        assert y.shape == expect.shape
        np.testing.assert_allclose(y, expect, atol=1e-12)

    def test_output_shape_helper(self):
        assert ops.conv3d_output_shape((6, 5, 4), 3, 2, 0) == (2, 2, 1)
        assert ops.conv3d_output_shape((5, 5, 5), 5, 1, 2) == (5, 5, 5)

    def test_channel_mismatch(self):
        x = np.zeros((1, 3, 4, 4, 4))
        kernel = np.zeros((2, 2, 3, 3, 3))
        with pytest.raises(GeometryError):
            ops.conv3d_forward(x, kernel, np.zeros(2), padding=1)

    def test_kernel_larger_than_padded_input(self):
        x = np.zeros((1, 1, 3, 3, 3))
        kernel = np.zeros((1, 1, 5, 5, 5))
        with pytest.raises(GeometryError):
            ops.conv3d_forward(x, kernel, np.zeros(1))

    def test_zero_grad_out(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        kernel = rng.standard_normal((2, 2, 3, 3, 3))
        y, cache = ops.conv3d_forward(x, kernel, np.zeros(2), padding=1)
        gx, gk, gb = ops.conv3d_backward(np.zeros_like(y), cache)
        assert not gx.any() and not gk.any() and not gb.any()

    def test_grad_bias_is_summed_grad_out(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 1, 4, 4, 4))
        kernel = rng.standard_normal((3, 1, 3, 3, 3))
        y, cache = ops.conv3d_forward(x, kernel, np.zeros(3), padding=1)
        gy = rng.standard_normal(y.shape)
        _, _, gb = ops.conv3d_backward(gy, cache)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3, 4)), rtol=1e-12)

    @pytest.mark.parametrize("s,p", [(1, 2), (2, 1)])
    def test_backward_keeps_float32(self, s, p):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 5, 7))
        kernel = rng.standard_normal((4, 3, 5, 5, 5))
        y, cache = ops.conv3d_forward(x, kernel, np.zeros(4), stride=s, padding=p)
        gy = rng.standard_normal(y.shape)
        exact = ops.conv3d_backward(gy, cache)
        _, cache32 = ops.conv3d_forward(
            x.astype(np.float32), kernel.astype(np.float32), np.zeros(4, np.float32), s, p
        )
        for g32, g64 in zip(ops.conv3d_backward(gy.astype(np.float32), cache32), exact):
            assert g32.dtype == np.float32
            assert rel_err(g32, g64) < 1e-5

    @pytest.mark.parametrize(
        "shape,k,s,p",
        [
            ((4, 4, 4), 3, 1, 1),
            ((5, 4, 6), 3, 2, 1),
            ((6, 6, 6), 5, 1, 2),
            ((4, 4, 4), 2, 2, 0),
        ],
    )
    def test_gradients_match_finite_differences(self, shape, k, s, p):
        rng = np.random.default_rng((*shape, k, s, p, 1))
        x = rng.standard_normal((2, 2) + shape)
        kernel = rng.standard_normal((2, 2, k, k, k))
        bias = rng.standard_normal(2)
        y, cache = ops.conv3d_forward(x, kernel, bias, stride=s, padding=p)
        proj = rng.standard_normal(y.shape)
        gx, gk, gb = ops.conv3d_backward(proj, cache)

        def fx(t):
            return (ops.conv3d_forward(t, kernel, bias, s, p)[0] * proj).sum()

        def fk(t):
            return (ops.conv3d_forward(x, t, bias, s, p)[0] * proj).sum()

        def fb(t):
            return (ops.conv3d_forward(x, kernel, t, s, p)[0] * proj).sum()

        assert rel_err(fd_grad(fx, x), gx) < REL_TOL
        assert rel_err(fd_grad(fk, kernel), gk) < REL_TOL
        assert rel_err(fd_grad(fb, bias), gb) < REL_TOL


class TestDownUpConv:
    def test_shapes(self):
        x = np.zeros((1, 2, 4, 4, 4))
        kernel = np.zeros((3, 2, 2, 2, 2))
        y, _ = ops.downconv_forward(x, kernel, np.zeros(3))
        assert y.shape == (1, 3, 2, 2, 2)
        up_kernel = np.zeros((3, 2, 2, 2, 2))
        z, _ = ops.upconv_forward(y, up_kernel, np.zeros(2))
        assert z.shape == (1, 2, 4, 4, 4)

    def test_down_matches_brute(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 6, 4))
        kernel = rng.standard_normal((2, 3, 2, 2, 2))
        bias = rng.standard_normal(2)
        y, _ = ops.downconv_forward(x, kernel, bias)
        np.testing.assert_allclose(y, brute_downconv(x, kernel, bias), atol=1e-12)

    def test_up_matches_brute(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal((2, 3, 2, 3, 2))
        kernel = rng.standard_normal((3, 2, 2, 2, 2))
        bias = rng.standard_normal(2)
        z, _ = ops.upconv_forward(y, kernel, bias)
        np.testing.assert_allclose(z, brute_upconv(y, kernel, bias), atol=1e-12)

    def test_odd_dims_rejected(self):
        with pytest.raises(GeometryError):
            ops.downconv_forward(
                np.zeros((1, 1, 5, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1)
            )

    def test_adjoint_identity(self):
        # the linear parts (zero bias) of down and up are transposes of each
        # other when they share one kernel
        rng = np.random.default_rng(12)
        for _ in range(10):
            kernel = rng.standard_normal((3, 2, 2, 2, 2))
            x = rng.standard_normal((1, 2, 4, 6, 4))
            y = rng.standard_normal((1, 3, 2, 3, 2))
            down_x, _ = ops.downconv_forward(x, kernel, np.zeros(3))
            up_y, _ = ops.upconv_forward(y, kernel, np.zeros(2))
            lhs = (down_x * y).sum()
            rhs = (x * up_y).sum()
            assert abs(lhs - rhs) < 1e-10

    def test_down_gradients(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 2, 4, 4, 4))
        kernel = rng.standard_normal((3, 2, 2, 2, 2))
        bias = rng.standard_normal(3)
        y, cache = ops.downconv_forward(x, kernel, bias)
        proj = rng.standard_normal(y.shape)
        gx, gk, gb = ops.downconv_backward(proj, cache)
        assert rel_err(
            fd_grad(lambda t: (ops.downconv_forward(t, kernel, bias)[0] * proj).sum(), x),
            gx,
        ) < REL_TOL
        assert rel_err(
            fd_grad(lambda t: (ops.downconv_forward(x, t, bias)[0] * proj).sum(), kernel),
            gk,
        ) < REL_TOL
        assert rel_err(
            fd_grad(lambda t: (ops.downconv_forward(x, kernel, t)[0] * proj).sum(), bias),
            gb,
        ) < REL_TOL

    def test_up_gradients(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 2, 2, 2))
        kernel = rng.standard_normal((3, 2, 2, 2, 2))
        bias = rng.standard_normal(2)
        y, cache = ops.upconv_forward(x, kernel, bias)
        proj = rng.standard_normal(y.shape)
        gx, gk, gb = ops.upconv_backward(proj, cache)
        assert rel_err(
            fd_grad(lambda t: (ops.upconv_forward(t, kernel, bias)[0] * proj).sum(), x),
            gx,
        ) < REL_TOL
        assert rel_err(
            fd_grad(lambda t: (ops.upconv_forward(x, t, bias)[0] * proj).sum(), kernel),
            gk,
        ) < REL_TOL
        assert rel_err(
            fd_grad(lambda t: (ops.upconv_forward(x, kernel, t)[0] * proj).sum(), bias),
            gb,
        ) < REL_TOL


class TestPrelu:
    def test_values(self):
        x = np.array([[-2.0, -1.0, 0.0, 1.0, 3.0]]).reshape(1, 1, 1, 1, 5)
        y, _ = ops.prelu_forward(x, np.array([0.25]))
        np.testing.assert_array_equal(
            y.ravel(), [-0.5, -0.25, 0.0, 1.0, 3.0]
        )

    def test_per_channel_slopes(self):
        x = -np.ones((1, 2, 2, 2, 2))
        y, _ = ops.prelu_forward(x, np.array([0.1, 0.5]))
        np.testing.assert_allclose(y[0, 0], -0.1)
        np.testing.assert_allclose(y[0, 1], -0.5)

    def test_negative_side_grad_is_slope(self):
        x = np.full((1, 1, 2, 2, 2), -3.0)
        slope = np.array([0.3])
        y, cache = ops.prelu_forward(x, slope)
        gy = np.ones_like(y)
        gx, gs = ops.prelu_backward(gy, cache)
        np.testing.assert_allclose(gx, 0.3)
        np.testing.assert_allclose(gs, np.array([-3.0 * 8]))

    def test_gradients(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 4, 4, 4))
        slope = rng.uniform(0.05, 0.6, size=3)
        y, cache = ops.prelu_forward(x, slope)
        proj = rng.standard_normal(y.shape)
        gx, gs = ops.prelu_backward(proj, cache)
        assert rel_err(
            fd_grad(lambda t: (ops.prelu_forward(t, slope)[0] * proj).sum(), x), gx
        ) < REL_TOL
        assert rel_err(
            fd_grad(lambda t: (ops.prelu_forward(x, t)[0] * proj).sum(), slope), gs
        ) < REL_TOL


class TestConcatAndTile:
    def test_concat_shape(self):
        a = np.zeros((1, 2, 4, 4, 4))
        b = np.ones((1, 1, 4, 4, 4))
        y, widths = ops.concat_channels_forward([a, b])
        assert y.shape == (1, 3, 4, 4, 4)
        assert widths == [2, 1]
        np.testing.assert_array_equal(y[:, 2:], b)

    def test_concat_backward_routes_slices(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((2, 3, 2, 2, 2))
        b = rng.standard_normal((2, 2, 2, 2, 2))
        _, widths = ops.concat_channels_forward([a, b])
        gy = rng.standard_normal((2, 5, 2, 2, 2))
        ga, gb = ops.concat_channels_backward(gy, widths)
        np.testing.assert_array_equal(ga, gy[:, :3])
        np.testing.assert_array_equal(gb, gy[:, 3:])

    def test_concat_zero_channel_input(self):
        a = np.random.default_rng(31).standard_normal((1, 2, 3, 3, 3))
        b = np.zeros((1, 0, 3, 3, 3))
        y, _ = ops.concat_channels_forward([a, b])
        np.testing.assert_array_equal(y, a)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(GeometryError):
            ops.concat_channels_forward(
                [np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 2, 4, 4))]
            )


class TestSoftmax:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((2, 3, 4, 4, 4)) * 5
        y, _ = ops.softmax_channels_forward(x)
        expect = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(y, expect, rtol=1e-12)
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_stable_for_large_logits(self):
        x = np.zeros((1, 2, 1, 1, 1))
        x[0, 0] = 1000.0
        y, _ = ops.softmax_channels_forward(x)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y[0, 0], 1.0)

    def test_gradients(self):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 2, 4, 4, 4))
        y, cache = ops.softmax_channels_forward(x)
        proj = rng.standard_normal(y.shape)
        gx = ops.softmax_channels_backward(proj, cache)
        assert rel_err(
            fd_grad(lambda t: (ops.softmax_channels_forward(t)[0] * proj).sum(), x), gx
        ) < REL_TOL


class TestSoftDiceLoss:
    def test_perfect_prediction_near_zero(self):
        truth = np.zeros((1, 4, 4, 4), dtype=np.uint8)
        truth[0, 1:3, 1:3, 1:3] = 1
        pred = np.zeros((1, 2, 4, 4, 4))
        pred[:, 1] = truth
        pred[:, 0] = 1 - truth
        report, _ = soft_dice_loss(pred, truth)
        assert 0 <= report.value <= EPS

    def test_inverted_prediction_near_one(self):
        truth = np.zeros((1, 4, 4, 4), dtype=np.uint8)
        truth[0, :2] = 1
        pred = np.zeros((1, 2, 4, 4, 4))
        pred[:, 1] = 1 - truth
        pred[:, 0] = truth
        report, _ = soft_dice_loss(pred, truth)
        assert report.value > 0.999

    def test_value_matches_direct_formula(self):
        rng = np.random.default_rng(60)
        pred = rng.uniform(0, 1, size=(3, 2, 4, 4, 4))
        truth = (rng.uniform(size=(3, 4, 4, 4)) > 0.5).astype(np.uint8)
        report, _ = soft_dice_loss(pred, truth)
        for b in range(3):
            p = pred[b, 1].ravel()
            g = truth[b].ravel().astype(float)
            expect = 1 - 2 * (p * g).sum() / ((p**2).sum() + (g**2).sum() + EPS)
            assert abs(report.per_example[b] - expect) < 1e-12
        assert abs(report.value - report.per_example.mean()) < 1e-15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        pred = rng.uniform(0.05, 0.95, size=(2, 2, 4, 4, 4))
        truth = (rng.uniform(size=(2, 4, 4, 4)) > 0.5).astype(np.uint8)
        _, grad = soft_dice_loss(pred, truth)
        fd = fd_grad(lambda t: soft_dice_loss(t, truth)[0].value, pred)
        assert rel_err(fd, grad) < REL_TOL
        # the background channel never enters the loss
        assert not grad[:, 0].any()

    def test_shape_errors(self):
        with pytest.raises(GeometryError):
            soft_dice_loss(np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 4, 4, 4)))
        with pytest.raises(GeometryError):
            soft_dice_loss(np.zeros((1, 2, 4, 4, 4)), np.zeros((1, 4, 4, 2)))


class TestHalveSpatial:
    def test_block_means(self):
        rng = np.random.default_rng(70)
        x = rng.standard_normal((1, 2, 4, 6, 4))
        y = ops.halve_spatial(x)
        assert y.shape == (1, 2, 2, 3, 2)
        np.testing.assert_allclose(
            y[0, 1, 0, 0, 0], x[0, 1, :2, :2, :2].mean(), rtol=1e-14
        )

    def test_odd_rejected(self):
        with pytest.raises(GeometryError):
            ops.halve_spatial(np.zeros((1, 1, 3, 4, 4)))


class TestRawInputAtLevel:
    """Encoder level i merges the raw input halved i times."""

    def test_level_one_is_block_means(self):
        x = np.arange(64.0).reshape(1, 1, 4, 4, 4)
        y = ops.halve_spatial(x)
        expect = np.zeros((1, 1, 2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expect[0, 0, i, j, k] = x[
                        0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2
                    ].mean()
        np.testing.assert_allclose(y, expect, rtol=1e-14)

    def test_level_two_is_wide_block_mean(self):
        rng = np.random.default_rng(51)
        x = rng.standard_normal((1, 1, 8, 8, 8))
        y = ops.halve_spatial(ops.halve_spatial(x))
        assert y.shape == (1, 1, 2, 2, 2)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    block = x[
                        0, 0, 4 * i : 4 * i + 4, 4 * j : 4 * j + 4, 4 * k : 4 * k + 4
                    ]
                    assert abs(y[0, 0, i, j, k] - block.mean()) < 1e-12


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConvMemory:
    def test_peak_stays_near_tensor_size(self):
        # the dec0 block conv at the default grid: c4 -> o2, 5^3, padding 2,
        # 32^3, float32; a window matrix (n * voxels, c * 125) would be 67 MB
        rng = np.random.default_rng(80)
        x = rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32)
        kernel = rng.standard_normal((2, 4, 5, 5, 5)).astype(np.float32)
        bias = np.zeros(2, np.float32)
        (y, cache), fwd_peak = _traced_peak(ops.conv3d_forward, x, kernel, bias, 1, 2)
        gy = rng.standard_normal(y.shape).astype(np.float32)
        _, bwd_peak = _traced_peak(ops.conv3d_backward, gy, cache)
        budget = 16 * (x.nbytes + y.nbytes)
        assert fwd_peak < budget, (fwd_peak, budget)
        assert bwd_peak < budget, (bwd_peak, budget)
