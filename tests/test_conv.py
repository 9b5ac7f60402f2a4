import itertools

import numpy as np
import pytest

from voiceanalogy import tensor as T
from voiceanalogy.tensor import ShapeMismatchError, Tensor


def conv_oracle(x, w, stride, pad):
    """Quadruple-loop brute-force cross-correlation."""
    c_out, c_in, kh, kw = w.shape
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    y = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                y[co, i, j] = (patch * w[co]).sum()
    return y


def shape_grid():
    for c_in, c_out, spatial, k, stride, pad in itertools.product(
            (1, 2), (1, 2), (3, 5, 8), (1, 2, 3), (1, 2), (0, 1)):
        if spatial + 2 * pad < k:
            continue
        yield c_in, c_out, spatial, k, stride, pad


class TestConv2d:
    def test_one_by_one_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w), 1, 0)
        np.testing.assert_array_equal(out.data, x)

    def test_delta_kernel_identity(self):
        x = np.random.default_rng(1).normal(size=(1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w), 1, 1)
        np.testing.assert_array_equal(out.data, x)

    def test_stride_two_against_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4))
        w = rng.normal(size=(1, 1, 2, 2))
        out = T.conv2d(Tensor(x), Tensor(w), 2, 0)
        np.testing.assert_allclose(out.data, conv_oracle(x, w, 2, 0), atol=1e-12)

    def test_exhaustive_grid_matches_oracle(self):
        rng = np.random.default_rng(3)
        for c_in, c_out, spatial, k, stride, pad in shape_grid():
            x = rng.normal(size=(c_in, spatial, spatial))
            w = rng.normal(size=(c_out, c_in, k, k))
            got = T.conv2d(Tensor(x), Tensor(w), stride, pad).data
            want = conv_oracle(x, w, stride, pad)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeMismatchError):
            T.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 4, 4))), 1, 0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 2, 2))), 1, 0)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(4, 2, 3, 3))
        batched = T.conv2d(Tensor(x), Tensor(w), 2, 1).data
        for i in range(3):
            single = T.conv2d(Tensor(x[i]), Tensor(w), 2, 1).data
            np.testing.assert_array_equal(batched[i], single)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 1, 1)), requires_grad=True)

        def loss():
            y = T.conv2d(x, w, 2, 1, b)
            return (y * y).sum()

        assert T.gradient_check(loss, {"x": x, "w": w, "b": b}) < 1e-7


class TestConv2dTranspose:
    def test_adjoint_identity_small(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 3))
        w = rng.normal(size=(1, 1, 2, 2))
        y = rng.normal(size=T.conv2d(Tensor(x), Tensor(w), 1, 0).shape)
        lhs = (T.conv2d(Tensor(x), Tensor(w), 1, 0).data * y).sum()
        rhs = (x * T.conv2d_transpose(Tensor(y), Tensor(w), 1, 0, out_hw=(3, 3)).data).sum()
        assert abs(lhs - rhs) < 1e-10

    def test_adjoint_identity_exhaustive_grid(self):
        rng = np.random.default_rng(7)
        for c_in, c_out, spatial, k, stride, pad in shape_grid():
            x = rng.normal(size=(c_in, spatial, spatial))
            w = rng.normal(size=(c_out, c_in, k, k))
            fwd = T.conv2d(Tensor(x), Tensor(w), stride, pad).data
            y = rng.normal(size=fwd.shape)
            back = T.conv2d_transpose(Tensor(y), Tensor(w), stride, pad,
                                      out_hw=(spatial, spatial)).data
            assert abs((fwd * y).sum() - (x * back).sum()) < 1e-10

    def test_stride_two_unit_kernel_layout(self):
        x = np.arange(1.0, 5.0).reshape(1, 2, 2)
        w = np.ones((1, 1, 2, 2))
        out = T.conv2d_transpose(Tensor(x), Tensor(w), 2, 0).data
        assert out.shape == (1, 4, 4)
        # each input value paints a 2x2 block at the stride-2 grid
        expected = np.zeros((1, 4, 4))
        for i in range(2):
            for j in range(2):
                expected[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = x[0, i, j]
        np.testing.assert_array_equal(out, expected)

    def test_zero_input(self):
        out = T.conv2d_transpose(Tensor(np.zeros((2, 3, 3))),
                                 Tensor(np.ones((2, 1, 3, 3))), 1, 1)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 3)))

    def test_inconsistent_out_hw_rejected(self):
        with pytest.raises(ShapeMismatchError):
            T.conv2d_transpose(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 2, 2))),
                               2, 0, out_hw=(7, 7))

    def test_gradients(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 1, 1)), requires_grad=True)

        def loss():
            y = T.conv2d_transpose(x, w, 2, 1, out_hw=(5, 5), bias=b)
            return (y * y).sum()

        assert T.gradient_check(loss, {"x": x, "w": w, "b": b}) < 1e-7


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_matches_np_pad_version(self, stride, pad):
        x = np.random.default_rng(stride + 10 * pad).normal(size=(2, 3, 7, 8))
        x[0, 0, 0, :2] = [-0.0, np.nan]
        kh, kw = 3, 2
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride]
        ho, wo = windows.shape[2:4]
        expected = np.ascontiguousarray(
            windows.transpose(0, 1, 4, 5, 2, 3).reshape(2, 3 * kh * kw, ho * wo))
        cols, got_ho, got_wo = T._im2col(x, kh, kw, stride, pad)
        assert (got_ho, got_wo) == (ho, wo)
        assert cols.flags.c_contiguous
        assert cols.tobytes() == expected.tobytes()


def col2im_oracle(cols, x_shape, kh, kw, stride, pad, ho, wo):
    """The scatter _col2im replaced: one strided add per tap, in (i, j) order."""
    n, c, h, w = x_shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), cols.dtype)
    cols = cols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += cols[:, :, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w]


class TestCol2im:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [None, 1])
    def test_matches_per_tap_loop(self, dtype, block, monkeypatch):
        # with w2 the identity each tap product is exact, so this compares the
        # scatter alone, whatever order a GEMM sums in; block 1 makes every
        # sample its own block
        if block is not None:
            monkeypatch.setattr(T, "_COL2IM_BLOCK", block)
        rng = np.random.default_rng(11)
        n, c = 3, 3
        for k, stride, pad, h, w in itertools.product((1, 2, 3, 4), (1, 2, 3), (0, 1, 2),
                                                      (5, 6), (7, 8)):
            if h + 2 * pad < k:
                continue
            ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
            g = rng.normal(size=(n, c * k * k, ho, wo)).astype(dtype)
            want = col2im_oracle(g.reshape(n, c * k * k, ho * wo), (n, c, h, w), k, k,
                                 stride, pad, ho, wo)
            got = T._col2im(np.eye(c * k * k, dtype=dtype), g, (n, c, h, w), k, k, stride, pad)
            assert got.tobytes() == want.tobytes(), (k, stride, pad, h, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_geometry_with_its_gemm(self, dtype):
        # the model's kernel, stride and padding: the products of the padded
        # GEMM input equal the unpadded GEMM's bit for bit
        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 8, 12, 16)).astype(dtype)
        w2 = rng.normal(size=(8, 6 * 9)).astype(dtype)
        cols = np.matmul(w2.T, g.reshape(4, 8, 12 * 16))
        want = col2im_oracle(cols, (4, 6, 24, 32), 3, 3, 2, 1, 12, 16)
        got = T._col2im(w2, g, (4, 6, 24, 32), 3, 3, 2, 1)
        assert got.tobytes() == want.tobytes()


def biased(op, dtype, rank):
    """op followed by `+ b`, then op with `b` as its bias operand, on one draw
    of (x, w, b): for each, [y, x.grad, w.grad, b.grad] after one backward."""
    rng = np.random.default_rng(rank)
    lead = (3,) if rank == 4 else ()
    x_shape, w_shape, b_shape, call = {
        "conv2d": (lead + (2, 7, 6), (4, 2, 3, 3), (4, 1, 1),
                   lambda x, w, b=None: T.conv2d(x, w, 2, 1, b)),
        "conv2d_transpose": (lead + (4, 4, 3), (4, 2, 3, 3), (2, 1, 1),
                             lambda x, w, b=None: T.conv2d_transpose(x, w, 2, 1, (8, 6), b)),
        "matmul": ((5, 6), (6, 4), (4,), lambda x, w, b=None: x.matmul(w, b)),
    }[op]
    draws = [rng.normal(size=shape).astype(dtype) for shape in (x_shape, w_shape, b_shape)]
    out = []
    for fused in (False, True):
        x, w, b = (Tensor(d.copy(), requires_grad=True) for d in draws)
        y = call(x, w, b) if fused else call(x, w) + b
        upstream = np.random.default_rng(99).normal(size=y.shape).astype(dtype)
        (y * Tensor(upstream)).sum().backward()
        out.append([y.data, x.grad, w.grad, b.grad])
    return out


class TestBiasOperand:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, rank", [("conv2d", 3), ("conv2d", 4),
                                          ("conv2d_transpose", 3), ("conv2d_transpose", 4),
                                          ("matmul", 2)])
    def test_same_bytes_as_a_separate_add(self, op, rank, dtype):
        separate, fused = biased(op, dtype, rank)
        for name, want, got in zip(("y", "x.grad", "w.grad", "b.grad"), separate, fused):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_bias_that_does_not_broadcast_rejected(self):
        x = Tensor(np.ones((1, 4, 4)))
        with pytest.raises(ShapeMismatchError, match="bias"):
            T.conv2d(x, Tensor(np.ones((2, 1, 3, 3))), 1, 1, Tensor(np.ones((3, 1, 1))))
