import numpy as np
import pytest

from voiceanalogy import tensor as T
from voiceanalogy.tensor import (Adam, GraphError, MissingGradientError, SGD,
                                 ShapeMismatchError, Tensor)


class TestElementwise:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = x * Tensor(np.ones((3, 4)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_sub(self):
        out = T.elementwise("sub", Tensor([5.0, 1.0]), Tensor([2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [3.0, -2.0])

    def test_mul_backward(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = Tensor([5.0, 7.0], requires_grad=True)
        (x * y).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 7.0])
        np.testing.assert_array_equal(y.grad, [2.0, 3.0])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_broadcast_trailing(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = x + b
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0]] * 2)
        out.sum().backward()
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_does_not_expand_first_operand(self):
        with pytest.raises(ShapeMismatchError):
            Tensor([1.0, 2.0]) + Tensor(np.ones((3, 2)))


class TestMatmul:
    def test_identity(self):
        b = Tensor(np.random.default_rng(1).normal(size=(2, 5)))
        out = Tensor(np.eye(2)) @ b
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_example(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        expected = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, expected, atol=1e-12)

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_backward_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = T.gradient_check(lambda: ((a @ b) * (a @ b)).sum(), {"a": a, "b": b})
        assert err < 1e-7


class TestActivations:
    def test_relu(self):
        out = T.activation("relu", Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert T.activation("sigmoid", Tensor([0.0])).data[0] == 0.5

    def test_relu_derivative_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        x.relu().sum().backward()
        assert x.grad[0] == 0.0

    def test_leaky_relu(self):
        out = T.activation("leaky_relu", Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [-0.2, 2.0])

    @pytest.mark.parametrize("kind", ["relu", "tanh", "sigmoid", "leaky_relu"])
    def test_gradient(self, kind):
        x = Tensor(np.random.default_rng(4).normal(size=(7,)) + 0.3,
                   requires_grad=True)
        err = T.gradient_check(lambda: T.activation(kind, x).sum(), {"x": x})
        assert err < 1e-6

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.activation("swish", Tensor([1.0]))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for c in (3, 9):
            loss = T.softmax_cross_entropy(Tensor(np.zeros((2, c))), [0, c - 1])
            np.testing.assert_allclose(loss.data[0], np.log(c), atol=1e-12)

    def test_confident_logits_closed_form(self):
        loss = T.softmax_cross_entropy(Tensor([[10.0, -10.0]]), [0])
        np.testing.assert_allclose(loss.data[0], np.log1p(np.exp(-20.0)), atol=1e-15)
        assert loss.data[0] == pytest.approx(2.06e-9, rel=0.01)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(Tensor(np.zeros((1, 4))), [4])

    def test_gradient(self):
        logits = Tensor(np.random.default_rng(5).normal(size=(2, 4)),
                        requires_grad=True)
        err = T.gradient_check(lambda: T.softmax_cross_entropy(logits, [1, 3]),
                               {"logits": logits})
        assert err < 1e-5

    def test_large_logits_stable(self):
        loss = T.softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert np.isfinite(loss.data[0])


class TestMseLoss:
    def test_zero_on_equal(self):
        x = Tensor([[1.0, 2.0]])
        assert T.mse_loss(x, np.array([[1.0, 2.0]])).data[0] == 0.0

    def test_single_sample(self):
        assert T.mse_loss(Tensor([1.0, 1.0]), np.zeros(2)).data[0] == 1.0

    def test_batch_mean(self):
        pred = Tensor(np.ones((4, 3)))
        loss = T.mse_loss(pred, np.zeros((4, 3)))
        np.testing.assert_allclose(loss.data[0], 0.5 * 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            T.mse_loss(Tensor(np.ones((2, 2))), np.zeros((2, 3)))

    def test_gradient(self):
        pred = Tensor(np.random.default_rng(6).normal(size=(3, 5)),
                      requires_grad=True)
        target = np.random.default_rng(7).normal(size=(3, 5))
        err = T.gradient_check(lambda: T.mse_loss(pred, target), {"pred": pred})
        assert err < 1e-6
        T.mse_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, (pred.data - target) / 3, atol=1e-12)


class TestBackward:
    def test_non_scalar_rejected(self):
        with pytest.raises(GraphError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_accumulation_doubles(self):
        def grad_of(n_uses):
            x = Tensor([1.5, -0.5], requires_grad=True)
            terms = (x * x).sum()
            for _ in range(n_uses - 1):
                terms = terms + (x * x).sum()
            terms.backward()
            return x.grad

        np.testing.assert_array_equal(grad_of(2), 2 * grad_of(1))

    def test_deterministic_forward(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        a = T.conv2d(x, w, 1, 1).data
        b = T.conv2d(x, w, 1, 1).data
        assert a.tobytes() == b.tobytes()

    def test_rank_limits(self):
        with pytest.raises(ShapeMismatchError):
            Tensor(np.ones((1, 1, 1, 1, 1)))


class TestConcat:
    def test_forward_and_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(2 * np.ones((2, 2)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * out).sum().backward()
        np.testing.assert_array_equal(a.grad, 2 * np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, 4 * np.ones((2, 2)))

    def test_split_forward_and_backward(self):
        x = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
        head, tail = T.split(x, [2, 4])
        assert head.data.tobytes() == x.data[:2].tobytes()
        assert tail.data.tobytes() == x.data[2:].tobytes()
        ((head * 3.0).sum() + (tail * tail).sum()).backward()
        np.testing.assert_array_equal(x.grad, np.concatenate([np.full((2, 2), 3.0),
                                                              2 * x.data[2:]]))
        with pytest.raises(ShapeMismatchError, match="split"):
            T.split(x, [2, 3])


class TestOptimizers:
    def test_sgd_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        SGD(0.1).step({"p": p})
        np.testing.assert_allclose(p.data, [0.8])
        assert p.grad is None

    def test_sgd_missing_grad(self):
        with pytest.raises(MissingGradientError):
            SGD(0.1).step({"p": Tensor([1.0], requires_grad=True)})

    @pytest.mark.parametrize("g", [1.0, 100.0, 1e-3])
    def test_adam_first_step_scale_invariant(self, g):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([g])
        opt = Adam(learning_rate=0.01, epsilon=1e-12)
        opt.step({"p": p})
        np.testing.assert_allclose(p.data, [1.0 - 0.01], rtol=1e-6)

    def test_zero_gradient_no_change(self):
        p = Tensor([3.0], requires_grad=True)
        p.grad = np.zeros(1)
        Adam().step({"p": p})
        np.testing.assert_array_equal(p.data, [3.0])

    def test_adam_step_count_increments(self):
        opt = Adam()
        p = Tensor([1.0], requires_grad=True)
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            opt.step({"p": p})
            assert opt.step_count == expected

    def test_adam_state_round_trip(self):
        opt = Adam()
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([0.5])
        opt.step({"p": p})
        other = Adam()
        other.load_state_tensors(opt.state_tensors())
        assert other.step_count == 1
        np.testing.assert_array_equal(other._m["p"], opt._m["p"])


def old_adam_step(opt_state, named_params, lr, b1, b2, eps):
    """The unblocked Adam update the blocked one must match bit for bit."""
    opt_state["t"] += 1
    bc1 = 1.0 - b1 ** opt_state["t"]
    bc2 = 1.0 - b2 ** opt_state["t"]
    for name, p in named_params.items():
        m = opt_state.setdefault("m/" + name, np.zeros_like(p.data))
        v = opt_state.setdefault("v/" + name, np.zeros_like(p.data))
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.grad = None


class TestBlockedAdam:
    BLOCK = T._ADAM_BLOCK

    @pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, 3 * BLOCK + 17])
    def test_bit_identical_to_unblocked(self, size):
        rng = np.random.default_rng(size)
        start = rng.normal(size=size)
        new = {"w": Tensor(start.copy(), requires_grad=True),
               "b": Tensor(rng.normal(size=(3, 1, 1)), requires_grad=True)}
        old = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in new.items()}
        opt, state = Adam(3e-3, 0.5, 0.999, 1e-8), {"t": 0}
        for _ in range(5):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, p in new.items()}
            special = [0.0, -0.0, 1e-300, -5e-324][:size - 1]
            grads["w"][:len(special)] = special
            for name in new:
                new[name].grad = grads[name].copy()
                old[name].grad = grads[name].copy()
            opt.step(new)
            old_adam_step(state, old, 3e-3, 0.5, 0.999, 1e-8)
            for name in new:
                assert new[name].data.tobytes() == old[name].data.tobytes()
                assert opt._m[name].tobytes() == state["m/" + name].tobytes()
                assert opt._v[name].tobytes() == state["v/" + name].tobytes()
                assert new[name].grad is None
        assert not np.array_equal(new["w"].data, start)

    def test_float32_bit_identical_to_unblocked(self):
        rng = np.random.default_rng(5)
        size = 2 * self.BLOCK + 3
        new = {"w": Tensor(rng.normal(size=size).astype(np.float32), requires_grad=True)}
        old = {"w": Tensor(new["w"].data.copy(), requires_grad=True)}
        opt, state = Adam(3e-3, 0.5, 0.999, 1e-8), {"t": 0}
        for _ in range(3):
            grad = rng.normal(size=size).astype(np.float32)
            new["w"].grad, old["w"].grad = grad.copy(), grad.copy()
            opt.step(new)
            old_adam_step(state, old, 3e-3, 0.5, 0.999, 1e-8)
            assert new["w"].data.tobytes() == old["w"].data.tobytes()
            assert opt._m["w"].tobytes() == state["m/w"].tobytes()
            assert opt._v["w"].tobytes() == state["v/w"].tobytes()
        dtypes = {a.dtype for a in (new["w"].data, opt._m["w"], opt._v["w"])}
        assert dtypes == {np.dtype(np.float32)}

    def test_non_contiguous_parameter_updated_in_place(self):
        base = np.random.default_rng(1).normal(size=(6, 8))
        p = Tensor(base.T, requires_grad=True)  # a Fortran-ordered view of base
        ref = Tensor(base.T.copy(), requires_grad=True)
        grad = np.random.default_rng(2).normal(size=(8, 6))
        p.grad, ref.grad = grad.copy(), grad.copy()
        Adam().step({"p": p})
        old_adam_step({"t": 0}, {"p": ref}, 2e-4, 0.5, 0.999, 1e-8)
        assert p.data.base is base
        assert np.ascontiguousarray(p.data).tobytes() == ref.data.tobytes()

    def test_missing_gradient_still_raised(self):
        a = Tensor(np.ones(3), requires_grad=True)
        a.grad = np.ones(3)
        with pytest.raises(MissingGradientError, match="'b'"):
            Adam().step({"a": a, "b": Tensor(np.ones(2), requires_grad=True)})


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 5e-324, -5e-324])


class TestLeakyReluBitIdentity:
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0])
    def test_forward_and_backward_match_masked_form(self, alpha):
        x = np.repeat(SPECIAL, SPECIAL.size)
        g = np.tile(SPECIAL, SPECIAL.size)   # every input paired with every gradient
        mask = x > 0
        with np.errstate(invalid="ignore"):  # 0 * inf
            expected_y = np.where(mask, x, alpha * x)
            expected_gx = np.zeros_like(x) + g * np.where(mask, 1.0, alpha)
            xt = Tensor(x.copy(), requires_grad=True)
            y = xt.leaky_relu(alpha)
            y.grad = g.copy()
            y._backward(y)
        assert y.data.tobytes() == expected_y.tobytes()
        assert xt.grad.tobytes() == expected_gx.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0])
    def test_float32_matches_masked_form(self, alpha):
        x = np.repeat(SPECIAL, SPECIAL.size).astype(np.float32)
        g = np.tile(SPECIAL, SPECIAL.size).astype(np.float32)
        mask = x > 0
        with np.errstate(invalid="ignore"):
            expected_y = np.where(mask, x, alpha * x)
            expected_gx = np.where(mask, g, alpha * g) + np.float32(0.0)
            xt = Tensor(x.copy(), requires_grad=True)
            y = xt.leaky_relu(alpha)
            y.grad = g.copy()
            y._backward(y)
        assert y.data.dtype == xt.grad.dtype == np.float32
        assert y.data.tobytes() == expected_y.tobytes()
        assert xt.grad.tobytes() == expected_gx.tobytes()

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, np.nan, np.inf])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            Tensor([1.0, -1.0]).leaky_relu(alpha)


class TestFirstGradient:
    def test_add_parents_do_not_share_a_gradient(self):
        # the vjp of add hands one array to both parents
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        ((a + b) * Tensor([5.0, 7.0])).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, [5.0, 7.0])

    def test_negative_zero_first_gradient_stored_as_positive_zero(self):
        x = Tensor([2.0], requires_grad=True)
        (x * Tensor([-0.0])).sum().backward()
        assert x.grad.tobytes() == (np.zeros(1) + np.array([-0.0])).tobytes()


class TestGradientCheck:
    def test_linear_function_near_exact(self):
        x = Tensor(np.random.default_rng(9).normal(size=(5,)), requires_grad=True)
        c = np.arange(1.0, 6.0)
        err = T.gradient_check(lambda: (x * Tensor(c)).sum(), {"x": x})
        assert err < 1e-9


class TestFloat32:
    def test_float_arrays_kept_others_become_float64(self):
        assert Tensor(np.ones(2, np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(2)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.ones(2, np.float16)).data.dtype == np.float64

    def test_ops_and_gradients_keep_float32(self, monkeypatch):
        # the vjps' outputs are recorded as they reach _accumulate
        handed = []
        accumulate = Tensor._accumulate

        def recording(node, g):
            handed.append((g.dtype, g.size))
            accumulate(node, g)
        monkeypatch.setattr(Tensor, "_accumulate", recording)
        rng = np.random.default_rng(3)

        def f32(*shape):
            return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

        x, w, b, m = f32(2, 2, 6, 6), f32(3, 2, 3, 3), f32(3, 1, 1), f32(36, 5)
        steps = [(T.conv2d(x, w, 2, 1) + b).leaky_relu(0.2) * 2.0 - 1.0]
        steps.append(T.conv2d_transpose(steps[-1], w, 2, 1, out_hw=(6, 6)))
        h = steps[-1]
        steps.append(T.concat([h.relu(), h.tanh(), h.sigmoid(), -h], axis=1))
        steps.append(steps[-1].reshape(16, 36) @ m)
        steps.append(steps[-1].sum())
        assert [s.data.dtype for s in steps] == [np.float32] * len(steps)
        loss = (T.mse_loss(steps[-2], np.zeros((16, 5), np.float32))
                + T.softmax_cross_entropy(steps[-2], np.arange(16) % 5))
        loss.backward()
        steps[-1].backward()
        assert [p.grad.dtype for p in (x, w, b, m, *steps)] == [np.float32] * 9
        assert {dtype for dtype, size in handed if size > 1} == {np.dtype(np.float32)}

    def test_a_gradient_of_another_dtype_raises(self):
        # without the check, a vjp that promotes to float64 would do float64
        # work while every .grad stayed float32
        x = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        promoted = x._unary(x.data * 2, lambda g: g.astype(np.float64) * 2)
        for y in (promoted, x * Tensor(np.ones((2, 3)))):
            with pytest.raises(GraphError, match="a float64 gradient for a float32 tensor"):
                y.sum().backward()

    def test_losses_reduce_in_float64(self):
        rng = np.random.default_rng(4)
        pred = rng.normal(size=(4, 7)).astype(np.float32)
        target = rng.normal(size=(4, 7)).astype(np.float32)
        p = Tensor(pred, requires_grad=True)
        loss = T.mse_loss(p, target)
        want = 0.5 * ((pred.astype(np.float64) - target) ** 2).sum() / 4
        assert loss.data.dtype == np.float64 and loss.data[0] == pytest.approx(want, rel=1e-15)
        loss.backward()
        assert p.grad.dtype == np.float32
        logits = Tensor(pred, requires_grad=True)
        ce = T.softmax_cross_entropy(logits, [0, 3, 6, 1])
        assert ce.data.dtype == np.float64
        want = T.softmax_cross_entropy(Tensor(pred.astype(np.float64)), [0, 3, 6, 1])
        assert ce.data[0] == want.data[0]
        ce.backward()
        assert logits.grad.dtype == np.float32
