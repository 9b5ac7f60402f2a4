"""Minimal reverse-mode autodiff engine on float32 or float64 numpy arrays.

Tensors are rank 1..4, row-major. The graph is rebuilt each step
(define-by-run); backward walks nodes in reverse topological order and
accumulates gradients additively, so reusing a tensor twice doubles its
gradient as expected.

A tensor keeps a float32 or float64 array as it is (anything else becomes
float64), and each op computes in, and hands back gradients in, the dtype
of its inputs; float32 meeting float64 computes in float64, and backward
raises GraphError if that hands a float64 gradient to a tracked float32
input. The losses reduce in float64, return a float64 scalar and hand back
their input's dtype, and `gradient_check` differentiates in float64
whatever the checked parameters' dtype.
"""

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class GraphError(RuntimeError):
    pass


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _as_array(data):
    arr = np.asarray(data)
    if arr.dtype not in _FLOATS:
        arr = arr.astype(np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not 1 <= arr.ndim <= 4:
        raise ShapeMismatchError(f"tensor rank must be 1..4, got shape {arr.shape}")
    return arr


def _unbroadcast(grad, shape):
    """Sum-reduce a gradient back to `shape` (trailing-dimension broadcast)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(op_kind, a_shape, b_shape):
    try:
        result_shape = np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        result_shape = None
    if result_shape != a_shape:
        raise ShapeMismatchError(
            f"{op_kind}: second operand {b_shape} does not broadcast to first operand {a_shape}")


def _add_bias(y, parents, bias):
    """(y + bias, parents + (bias,)) for an op's fresh result y, or (y, parents)
    without a bias. The add is `h + b`'s, in place on y unless it promotes."""
    if bias is None:
        return y, parents
    b = bias.data
    _check_broadcast("bias", y.shape, b.shape)
    return np.add(y, b, out=y if np.result_type(y, b) == y.dtype else None), parents + (bias,)


def _bias_grad(bias, g):
    """Hand a biased op's output gradient g to its bias, as `h + b` would."""
    if bias is not None and bias._track:
        bias._accumulate(_unbroadcast(g, bias.data.shape))


# op -> (ufunc, vjp(g, a, b) -> (gradient for a, gradient for b))
_ELEMENTWISE = {
    "add": (np.add, lambda g, a, b: (g, g)),
    "sub": (np.subtract, lambda g, a, b: (g, -g)),
    "mul": (np.multiply, lambda g, a, b: (g * b, g * a)),
}


class Tensor:
    """A tensor tracks if it was built with requires_grad=True or is the
    result of an op on a tracking input; only tracking results record
    their parents and backward rule."""

    __slots__ = ("data", "grad", "_parents", "_backward", "_track")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._track = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def detach(self):
        return Tensor(self.data)

    def _check_grad_dtype(self, g):
        # a vjp that promoted would do its work in the wider dtype, and a
        # cast here would hide that from every .grad
        if g.dtype != self.data.dtype:
            raise GraphError(f"a {g.dtype} gradient for a {self.data.dtype} tensor")

    def _accumulate(self, g):
        """Add the gradient g, which other nodes may hold too."""
        self._check_grad_dtype(g)
        if self.grad is None:
            # a fresh array in this tensor's shape, never `g` itself (the vjp
            # of add hands one array to both parents); adding 0.0 turns a
            # -0.0 into +0.0, as accumulating onto zeros did
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _take(self, g):
        """_accumulate for a fresh vjp output g in this tensor's shape that no
        other node holds: a first gradient is g itself, its -0.0 turned into
        +0.0 in place, not a copy."""
        self._check_grad_dtype(g)
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=g)
        else:
            self.grad += g

    @staticmethod
    def _result(data, parents, backward_fn):
        out = Tensor(data)
        if any(p._track for p in parents):
            out._track = True
            out._parents = tuple(parents)
            out._backward = backward_fn
        return out

    def _unary(self, data, vjp):
        """Result of a single-input op whose input gradient is vjp(out.grad)."""
        return Tensor._result(data, (self,), lambda out: self._accumulate(vjp(out.grad)))

    # ---- elementwise ----

    def _binary(self, other, op_kind):
        if not isinstance(other, Tensor):
            other = Tensor(np.full(1, float(other), self.data.dtype))
        a, b = self.data, other.data
        _check_broadcast(op_kind, a.shape, b.shape)
        if op_kind not in _ELEMENTWISE:
            raise ValueError(f"unknown elementwise op {op_kind!r}")
        ufunc, vjp = _ELEMENTWISE[op_kind]

        def backward(out):
            ga, gb = vjp(out.grad, a, b)
            if self._track:
                self._accumulate(_unbroadcast(ga, a.shape))
            if other._track:
                other._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._result(ufunc(a, b), (self, other), backward)

    def __add__(self, other):
        return self._binary(other, "add")

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __mul__(self, other):
        return self._binary(other, "mul")

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # ---- shape ops ----

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.data.shape
        data = self.data.reshape(shape)
        if not 1 <= data.ndim <= 4:
            raise ShapeMismatchError(f"reshape target rank out of range: {data.shape}")
        return self._unary(data, lambda g: g.reshape(old_shape))

    def sum(self):
        return self._unary(np.array([self.data.sum()]),
                           lambda g: np.full_like(self.data, g[0]))

    # ---- matmul ----

    def matmul(self, other, bias=None):
        """self @ other, plus `bias` (a Tensor broadcast to the product) if given."""
        a, b = self.data, other.data
        if a.ndim != 2 or b.ndim != 2:
            raise ShapeMismatchError(f"matmul expects 2-D tensors, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatchError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
        data, parents = _add_bias(a @ b, (self, other), bias)

        def backward(out):
            g = out.grad
            if self._track:
                self._take(g @ b.T)
            if other._track:
                other._take(a.T @ g)
            _bias_grad(bias, g)

        return Tensor._result(data, parents, backward)

    def __matmul__(self, other):
        return self.matmul(other)

    # ---- activations ----

    def relu(self):
        mask = self.data > 0
        return self._unary(np.where(mask, self.data, 0.0), lambda g: g * mask)

    def leaky_relu(self, alpha=0.2, in_place=False):
        """where(x > 0, x, alpha * x). With in_place the result is written over
        this tensor's data, so only for a fresh op output that no backward
        reads, such as a conv's or a matmul's."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"leaky_relu alpha must be in [0, 1], got {alpha!r}")
        x = self.data
        # slope is 1 where x > 0, else alpha, for every alpha in [0, 1]: x * slope
        # is where(x > 0, x, alpha * x) bit for bit, signed zeros, infinities
        # and NaN included, and the backward's one multiply is several times
        # cheaper than np.where
        slope = (x > 0).astype(x.dtype)
        np.maximum(slope, alpha, out=slope)
        data = np.multiply(x, slope, out=x if in_place else None)
        return Tensor._result(data, (self,), lambda out: self._take(out.grad * slope))

    def tanh(self):
        data = np.tanh(self.data)
        return self._unary(data, lambda g: g * (1.0 - data * data))

    def sigmoid(self):
        data = 1.0 / (1.0 + np.exp(-self.data))
        return self._unary(data, lambda g: g * data * (1.0 - data))

    # ---- backward entry point ----

    def backward(self):
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)


def activation(kind, x, alpha=0.2):
    """Dispatch by name; `alpha` only applies to leaky_relu."""
    if kind == "relu":
        return x.relu()
    if kind == "tanh":
        return x.tanh()
    if kind == "sigmoid":
        return x.sigmoid()
    if kind == "leaky_relu":
        return x.leaky_relu(alpha)
    raise ValueError(f"unknown activation {kind!r}")


def elementwise(op_kind, a, b):
    return a._binary(b, op_kind)


def concat(tensors, axis=0):
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(out):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t._track:
                sl = [slice(None)] * data.ndim
                sl[axis] = slice(start, stop)
                t._accumulate(out.grad[tuple(sl)])

    return Tensor._result(data, tuple(tensors), backward)


def split(x, sizes):
    """x cut along the leading axis into consecutive blocks of `sizes` rows."""
    if sum(sizes) != x.data.shape[0]:
        raise ShapeMismatchError(f"split: sizes {sizes} do not add up to {x.data.shape[0]} rows")
    parts = []
    start = 0
    for size in sizes:
        rows = slice(start, start + size)

        def vjp(g, rows=rows):
            full = np.zeros_like(x.data)
            full[rows] = g
            return full
        parts.append(x._unary(x.data[rows], vjp))
        start += size
    return parts


# ---- convolution ----

def _conv_out_size(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def _im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(w, kw, stride, pad)
    xp = x
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # n, c, ho, wo, kh, kw
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    return np.ascontiguousarray(cols), ho, wo


# _col2im forms the tap products of this many elements' worth of samples at a
# time, so they are still in cache when its adds read them
_COL2IM_BLOCK = 1 << 18


def _col2im(w2, g, x_shape, kh, kw, stride, pad):
    """The adjoint of _im2col applied to the columns w2.T @ g, for g of shape
    (n, c_out, ho, wo) and w2 of (c_out, c * kh * kw): x_shape's array in which
    each element is 0 plus its taps' products, added in (i, j) order.

    The padded output splits into stride x stride phases by row and column
    index mod stride. Tap (i, j) adds to phase (i % stride, j % stride) the
    products of g shifted by (i // stride, j // stride). With lw zero columns
    ahead of each row of g, a shift is one flat offset, since a run past a
    row's end reads the next row's zero columns, so each tap is one
    contiguous add. Each phase is summed in a contiguous buffer and then
    written to its rows and columns of the output.
    """
    n, c, h, w = x_shape
    _, c_out, ho, wo = g.shape
    s = stride
    lw = (kw - 1) // s
    # phase grid: every tap's reach, and at least the rows and columns the crop keeps
    qh = max(ho + (kh - 1) // s, -(-(h + pad) // s))
    qw = max(wo + lw, -(-(w + pad) // s))
    block = min(n, max(1, _COL2IM_BLOCK // (c * kh * kw * ho * qw)))
    dtype = np.result_type(w2, g)
    xp = np.empty((n, c, qh, s, qw, s), dtype)
    gp = np.zeros((block, c_out, ho, qw), g.dtype)
    phase = np.empty((block, c, qh * qw), dtype)
    for b0 in range(0, n, block):
        m = min(block, n - b0)
        gp[:m, :, :, lw:lw + wo] = g[b0:b0 + m]
        taps = np.matmul(w2.T, gp[:m].reshape(m, c_out, ho * qw)).reshape(m, c, kh, kw, -1)
        for r in range(s):
            for r2 in range(s):
                phase[:m].fill(0.0)
                for i in range(r, kh, s):
                    for j in range(r2, kw, s):
                        # phase position p reads tap position p - off, and 0 outside the tap's rows
                        off = (i // s) * qw + j // s - lw
                        lo, hi = max(off, 0), min(qh * qw, ho * qw + off)
                        phase[:m, :, lo:hi] += taps[:, :, i, j, lo - off:hi - off]
                xp[b0:b0 + m, :, :, r, :, r2] = phase[:m].reshape(m, c, qh, qw)
    return xp.reshape(n, c, s * qh, s * qw)[:, :, pad:pad + h, pad:pad + w]


def _check_conv_shapes(x, w, stride, pad):
    n, c_in, h, wd = x.shape
    c_out, ck, kh, kw = w.shape
    if ck != c_in:
        raise ShapeMismatchError(
            f"conv2d: input channels {c_in} do not match kernel channels {ck}")
    if h + 2 * pad < kh or wd + 2 * pad < kw:
        raise ShapeMismatchError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{wd + 2 * pad}")


def conv2d(x, w, stride=1, padding=0, bias=None):
    """Cross-correlation, plus `bias` (a Tensor broadcast to the result) if
    given. x: (C,H,W) or (N,C,H,W); w: (C_out,C_in,kH,kW)."""
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    wd = w.data
    _check_conv_shapes(xd, wd, stride, padding)
    n = xd.shape[0]
    c_out, _, kh, kw = wd.shape
    cols, ho, wo = _im2col(xd, kh, kw, stride, padding)
    w2 = wd.reshape(c_out, -1)
    y = np.matmul(w2, cols).reshape(n, c_out, ho, wo)
    y, parents = _add_bias(y[0] if squeeze else y, (x, w), bias)

    def backward(out):
        g = out.grad
        gy = g[None] if squeeze else g
        if x._track:
            gx = _col2im(w2, gy, xd.shape, kh, kw, stride, padding)
            x._accumulate(gx[0] if squeeze else gx)
        if w._track:
            gw = np.matmul(gy.reshape(n, c_out, ho * wo), cols.transpose(0, 2, 1)).sum(axis=0)
            w._take(gw.reshape(wd.shape))
        _bias_grad(bias, g)

    return Tensor._result(y, parents, backward)


def conv2d_transpose(x, w, stride=1, padding=0, out_hw=None, bias=None):
    """Adjoint of conv2d with the same kernels/stride/padding, plus `bias` (a
    Tensor broadcast to the result) if given.

    x has conv2d's output channels; the result has conv2d's input channels.
    `out_hw` disambiguates the output size when stride > 1 (default takes
    the minimal consistent size (H-1)*stride + kH - 2*padding).
    """
    squeeze = x.data.ndim == 3
    xd = x.data[None] if squeeze else x.data
    wd = w.data
    n, c, h, wid = xd.shape
    c_out, c_in, kh, kw = wd.shape
    if c != c_out:
        raise ShapeMismatchError(
            f"conv2d_transpose: input channels {c} do not match kernel output channels {c_out}")
    if out_hw is None:
        out_hw = ((h - 1) * stride + kh - 2 * padding,
                  (wid - 1) * stride + kw - 2 * padding)
    oh, ow = out_hw
    if _conv_out_size(oh, kh, stride, padding) != h or _conv_out_size(ow, kw, stride, padding) != wid:
        raise ShapeMismatchError(
            f"conv2d_transpose: output size {out_hw} inconsistent with input {h}x{wid}")
    w2 = wd.reshape(c_out, -1)
    y = _col2im(w2, xd, (n, c_in, oh, ow), kh, kw, stride, padding)
    y, parents = _add_bias(y[0] if squeeze else y, (x, w), bias)

    def backward(out):
        g = out.grad
        gy = g[None] if squeeze else g
        gcols, _, _ = _im2col(gy, kh, kw, stride, padding)
        if x._track:
            gx = np.matmul(w2, gcols).reshape(n, c_out, h, wid)
            x._take(gx[0] if squeeze else gx)
        if w._track:
            gw = np.matmul(xd.reshape(n, c_out, h * wid), gcols.transpose(0, 2, 1)).sum(axis=0)
            w._take(gw.reshape(wd.shape))
        _bias_grad(bias, g)

    return Tensor._result(y, parents, backward)


# ---- losses ----

def softmax_cross_entropy(logits, target_classes):
    """Mean over rows of -log softmax(logits)[target]. logits: (N, C)."""
    z = np.asarray(logits.data, np.float64)
    if z.ndim != 2:
        raise ShapeMismatchError(f"softmax_cross_entropy expects (N, C) logits, got {z.shape}")
    n, c = z.shape
    targets = np.asarray(target_classes, dtype=np.int64)
    if targets.shape != (n,):
        raise IndexError(f"expected {n} target classes, got shape {targets.shape}")
    if targets.min() < 0 or targets.max() >= c:
        raise IndexError(f"target class out of range [0, {c})")
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = np.array([(lse - shifted[np.arange(n), targets]).mean()])

    def vjp(g):
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(n), targets] -= 1.0
        return (g[0] * p / n).astype(logits.data.dtype, copy=False)

    return logits._unary(loss, vjp)


def mse_loss(pred, target):
    """Half mean-over-batch squared Euclidean distance.

    The leading axis is the batch axis for rank >= 2; rank-1 inputs count
    as a single sample.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    p = pred.data
    if p.shape != t.shape:
        raise ShapeMismatchError(f"mse_loss shapes differ: {p.shape} vs {t.shape}")
    n = p.shape[0] if p.ndim >= 2 else 1
    diff = np.subtract(p, t, dtype=np.float64)
    loss = np.array([0.5 * (diff * diff).sum() / n])
    return pred._unary(loss, lambda g: (g[0] * diff / n).astype(p.dtype, copy=False))


# ---- optimizers ----

class MissingGradientError(RuntimeError):
    pass


class SGD:
    def __init__(self, learning_rate):
        self.learning_rate = learning_rate

    def step(self, named_params):
        for name, p in named_params.items():
            if p.grad is None:
                raise MissingGradientError(f"parameter {name!r} has no gradient")
            p.data -= self.learning_rate * p.grad
            p.grad = None


# Adam streams its arrays in blocks of this many elements, so the block's
# moments, gradient, parameter and two scratch buffers stay in cache
_ADAM_BLOCK = 1 << 15


class Adam:
    def __init__(self, learning_rate=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self, named_params):
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        lr, eps = self.learning_rate, self.epsilon
        scratch = {}  # two block buffers per parameter dtype
        for name, p in named_params.items():
            if p.grad is None:
                raise MissingGradientError(f"parameter {name!r} has no gradient")
            if name not in self._m:
                self._m[name] = np.zeros(p.data.shape, p.data.dtype)
                self._v[name] = np.zeros(p.data.shape, p.data.dtype)
            m = self._m[name].reshape(-1)
            v = self._v[name].reshape(-1)
            g = p.grad.reshape(-1)
            x = p.data.reshape(-1)  # a view unless p.data is not contiguous
            if x.dtype not in scratch:
                scratch[x.dtype] = (np.empty(_ADAM_BLOCK, x.dtype),
                                    np.empty(_ADAM_BLOCK, x.dtype))
            # per element: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
            # x -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), in that order
            for start in range(0, x.size, _ADAM_BLOCK):
                block = slice(start, start + _ADAM_BLOCK)
                mb, vb, gb, xb = m[block], v[block], g[block], x[block]
                t, u = (s[:xb.size] for s in scratch[x.dtype])
                mb *= b1
                mb += np.multiply(gb, 1.0 - b1, out=t)
                vb *= b2
                np.multiply(gb, 1.0 - b2, out=t)
                vb += np.multiply(t, gb, out=t)
                np.sqrt(np.divide(vb, bc2, out=t), out=t)
                t += eps
                np.multiply(np.divide(mb, bc1, out=u), lr, out=u)
                xb -= np.divide(u, t, out=u)
            if not np.may_share_memory(x, p.data):
                p.data[...] = x.reshape(p.data.shape)
            p.grad = None

    def state_tensors(self):
        """Named arrays that belong in a checkpoint: the step count as a
        float64 array, and each moment in its parameter's dtype."""
        out = {"step_count": np.array([float(self.step_count)])}
        for name in sorted(self._m):
            out[f"m/{name}"] = self._m[name]
            out[f"v/{name}"] = self._v[name]
        return out

    def load_state_tensors(self, tensors):
        """Take the moments in `tensors` as they are, without a copy. `step`
        updates them in place, so they must be writeable arrays that nothing
        else holds, such as the fresh arrays a checkpoint read returns."""
        self.step_count = int(tensors["step_count"][0])
        self._m = {}
        self._v = {}
        for name, arr in tensors.items():
            if name.startswith("m/"):
                self._m[name[2:]] = arr
            elif name.startswith("v/"):
                self._v[name[2:]] = arr


# ---- gradient checking ----

def gradient_check(build_loss, named_params, step=1e-5, max_coords_per_tensor=None, rng=None):
    """Central finite differences against the analytic gradient.

    `build_loss` rebuilds the scalar loss from the current parameter
    values. Returns the max relative error over checked coordinates.
    Each checked parameter computes on a float64 copy of its values, so the
    check runs in float64 whatever the parameters' dtype (any other tracked
    tensor in the loss must be float64 too); the original array objects are
    put back, unchanged, at the end.
    """
    originals = {name: p.data for name, p in named_params.items()}
    try:
        for p in named_params.values():
            p.data = p.data.astype(np.float64)
            p.grad = None
        return _max_gradient_error(build_loss, named_params, step, max_coords_per_tensor,
                                   rng)
    finally:
        for name, p in named_params.items():
            p.data = originals[name]
            p.grad = None


def _max_gradient_error(build_loss, named_params, step, max_coords_per_tensor, rng):
    loss = build_loss()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in named_params.items()}
    worst = 0.0
    for name, p in named_params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = range(n)
        aflat = analytic[name].reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            hi = build_loss().data[0]
            flat[i] = orig - step
            lo = build_loss().data[0]
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = aflat[i]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, rel)
    return worst
