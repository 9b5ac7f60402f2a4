"""Span tracer for the traced benchmark pass.

The tracer wraps functions and methods of the voiceanalogy modules at
run time, so the program itself carries no instrumentation. A span is
(name, start, end, parent span, call id), where the call id is the
workload operation (train step, convert call, data-eval cycle) that was
running. Spans stay in memory and are written out when the run ends.
"""

import contextlib
import json
import math
import os
import time
from collections import defaultdict

from voiceanalogy import cli, corpus, cqt, model, tensor, training

MODULES = (cli, corpus, cqt, model, tensor, training)

# Tensor ops timed forward (the op call) and backward (the closure the op
# leaves on its result); "loss" covers both loss functions.
TENSOR_OPS = ("conv2d", "conv2d_transpose", "matmul", "leaky_relu", "loss")


class Tracer:
    def __init__(self):
        self.spans = []                  # [name, start, end, parent, call id]
        self.counts = defaultdict(float)
        self.call = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """`fn` timed as span `name`; `after(args, result)` may replace the result."""
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            return result if after is None else after(args, result)
        return traced

    def patch(self, owner, attr, replacement):
        """Replace `owner.attr`, and every module-level alias of it, until uninstall()."""
        original = getattr(owner, attr)
        holders = [owner] + [m for m in MODULES
                             if m is not owner and vars(m).get(attr) is original]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, replacement)
        return original

    def span(self, owner, attr, name, after=None):
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def uninstall(self):
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    @contextlib.contextmanager
    def installed(self):
        _instrument(self)
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self):
        """name -> [calls, total seconds, self seconds]; self time is the
        span's duration minus the time its direct children cover."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[i]
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (name, start, end, parent, call) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "call": call}) + "\n")


def _tensor_op(tracer, op, flop):
    """After-hook for a tensor op: count its FLOPs and time its backward."""
    def after(args, out):
        f = flop(args, out)
        tracer.counts[f"{op}.flop"] += f
        if out._backward is not None:
            timed = tracer.wrap(f"tensor.{op}.bwd", out._backward)
            # each tracked parent costs one product of the forward's size
            bwd_flop = f * sum(p._track for p in out._parents)

            def backward(node):
                tracer.counts[f"{op}.flop"] += bwd_flop
                return timed(node)
            out._backward = backward
        return out
    return after


def _conv_flop(args, out):
    # 2 * (output elements) * (C_in * kH * kW)
    w = args[1]
    return 2.0 * out.data.size * (w.data.size // w.shape[0])


def _conv_transpose_flop(args, out):
    # the adjoint of conv2d does the same products; its input is conv2d's output
    x, w = args[0], args[1]
    return 2.0 * x.data.size * (w.data.size // w.shape[0])


def _matmul_flop(args, out):
    return 2.0 * out.data.size * args[0].shape[1]


def _no_flop(args, out):
    return 0.0


def _instrument(tr):
    T = tensor
    tr.span(T, "conv2d", "tensor.conv2d", _tensor_op(tr, "conv2d", _conv_flop))
    tr.span(T, "conv2d_transpose", "tensor.conv2d_transpose",
            _tensor_op(tr, "conv2d_transpose", _conv_transpose_flop))
    tr.span(T.Tensor, "matmul", "tensor.matmul", _tensor_op(tr, "matmul", _matmul_flop))
    tr.span(T.Tensor, "leaky_relu", "tensor.leaky_relu", _tensor_op(tr, "leaky_relu", _no_flop))
    tr.span(T, "softmax_cross_entropy", "tensor.loss", _tensor_op(tr, "loss", _no_flop))
    tr.span(T, "mse_loss", "tensor.loss", _tensor_op(tr, "loss", _no_flop))
    tr.span(T.Tensor, "backward", "tensor.backward")
    tr.span(T.Adam, "step", "tensor.adam")

    tr.span(model, "generator_forward", "model.generator_forward")
    tr.span(model, "discriminator_forward", "model.discriminator_forward")
    tr.span(model, "spec_batch", "model.spec_batch")
    encode = model.encode

    def counted_encode(*args, **kwargs):
        tr.counts["encode.calls"] += 1
        return encode(*args, **kwargs)
    tr.patch(model, "encode", counted_encode)

    def saved_bytes(args, data):
        tr.counts["save_checkpoint.bytes"] += len(data)
        return data
    tr.span(training, "make_batch", "training.make_batch")
    tr.span(training.Trainer, "disc_step", "training.disc_step")
    tr.span(training.Trainer, "gen_step", "training.gen_step")
    tr.span(training, "save_checkpoint", "training.save_checkpoint", saved_bytes)
    tr.span(training, "load_checkpoint", "training.load_checkpoint")
    tr.span(training, "evaluate", "training.evaluate")

    inverse = cqt.inverse_cqt

    def inverse_with_errors(*args, return_errors=False, **kwargs):
        # inverse_cqt builds its best-error trace either way; ask for it
        audio, errors = inverse(*args, return_errors=True, **kwargs)
        tr.counts["inverse.iterations"] += len(errors)
        tr.counts["inverse.improving"] += sum(
            e < prev for prev, e in zip([math.inf] + errors, errors))
        return (audio, errors) if return_errors else audio
    tr.patch(cqt, "inverse_cqt", tr.wrap("cqt.inverse_cqt", inverse_with_errors))
    tr.span(cqt, "forward_cqt", "cqt.forward_cqt")
    # _lsq_synthesize looks the adjoint up at call time, so the module
    # attribute is the boundary
    tr.span(cqt, "_adjoint_cqt", "cqt.adjoint")
    tr.span(cqt, "estimate_f0", "cqt.estimate_f0")
    tr.span(cqt, "design_filterbank", "cqt.design_filterbank")

    def file_bytes(key, path_arg):
        def after(args, result):
            tr.counts[key] += os.path.getsize(args[path_arg])
            return result
        return after
    tr.span(corpus, "synth_utterance", "corpus.synth_utterance")
    tr.span(corpus, "build_corpus", "corpus.build_corpus")
    tr.span(corpus, "save_corpus", "corpus.save_corpus", file_bytes("save_corpus.bytes", 1))
    tr.span(corpus, "load_corpus", "corpus.load_corpus", file_bytes("load_corpus.bytes", 0))
    tr.span(corpus, "wav_write", "corpus.wav_write")
    tr.span(corpus, "wav_read", "corpus.wav_read")
    tr.span(corpus, "sample_quadruple", "corpus.sample_quadruple")

    tr.span(cli, "write_pgm", "cli.write_pgm")
    tr.span(cli, "main", "cli.main")


def layer_metrics(tracer, n_ops):
    """Per-layer figures of the traced iterations, per workload operation unless
    the name says otherwise."""
    totals = tracer.totals()
    counts = tracer.counts

    def ms(name, self_time=False):
        return 1000.0 * totals[name][2 if self_time else 1] / n_ops if name in totals else 0.0

    def calls(name):
        return totals[name][0] / n_ops if name in totals else 0.0

    def per_call(key, name):
        return counts[key] / totals[name][0] if name in totals else 0.0

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}")
        m[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
    m["tensor.backward.ms"] = ms("tensor.backward")
    m["tensor.adam.ms"] = ms("tensor.adam")
    conv_flop = counts["conv2d.flop"] + counts["conv2d_transpose.flop"]
    m["tensor.conv2d.gflop"] = conv_flop / 1e9 / n_ops
    m["tensor.matmul.gflop"] = counts["matmul.flop"] / 1e9 / n_ops

    for fn in ("generator_forward", "discriminator_forward", "spec_batch"):
        m[f"model.{fn}.ms"] = ms(f"model.{fn}")
        m[f"model.{fn}.self_ms"] = ms(f"model.{fn}", self_time=True)
    m["model.encode.calls"] = per_call("encode.calls", "model.generator_forward")

    for fn in ("make_batch", "disc_step", "gen_step", "save_checkpoint", "load_checkpoint",
               "evaluate"):
        m[f"training.{fn}.ms"] = ms(f"training.{fn}")
    m["training.save_checkpoint.bytes"] = per_call("save_checkpoint.bytes",
                                                   "training.save_checkpoint")

    for fn in ("forward_cqt", "adjoint"):
        m[f"cqt.{fn}.ms"] = ms(f"cqt.{fn}")
        m[f"cqt.{fn}.calls"] = calls(f"cqt.{fn}")
    for fn in ("inverse_cqt", "estimate_f0", "design_filterbank"):
        m[f"cqt.{fn}.ms"] = ms(f"cqt.{fn}")
    iterations = counts["inverse.iterations"]
    m["cqt.inverse.improving_frac"] = (counts["inverse.improving"] / iterations
                                       if iterations else 0.0)

    for fn in ("synth_utterance", "save_corpus", "load_corpus", "wav_write", "wav_read",
               "sample_quadruple"):
        m[f"corpus.{fn}.ms"] = ms(f"corpus.{fn}")
    m["corpus.build_corpus.self_ms"] = ms("corpus.build_corpus", self_time=True)
    for fn in ("save_corpus", "load_corpus"):
        m[f"corpus.{fn}.bytes"] = per_call(f"{fn}.bytes", f"corpus.{fn}")

    m["cli.write_pgm.ms"] = ms("cli.write_pgm")
    m["cli.main.self_ms"] = ms("cli.main", self_time=True)
    return m
