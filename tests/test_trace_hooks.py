"""The contract between the autodiff engine and the benchmark tracer.

`bench/tracer.py` times each op's backward by wrapping the closure the op
leaves in `out._backward`, counts backward FLOPs from `out._parents` and
their `_track` flags, and patches module and class attributes by name.
One traced train step must produce every span the benchmark reports, and
leaving the tracer must put every patched attribute back. It counts CQT
applies by patching `cqt.forward_cqt` and `cqt._adjoint_cqt`, so phase
recovery must look both up as module attributes.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from voiceanalogy import cqt
from voiceanalogy.corpus import build_corpus
from voiceanalogy.cqt import CqtConfig
from voiceanalogy.model import ModelConfig
from voiceanalogy.training import Trainer, TrainConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trainer():
    corpus = build_corpus(2, 2, 3, seed=1,
                          cqt_config=CqtConfig(bins_per_octave=4, n_bins=16, hop=256))
    return Trainer(corpus, TrainConfig(batch_size=4, steps=2),
                   ModelConfig(bins=16, frames=16, channels=(4, 6), latent=8,
                               n_words=2, n_speakers=2))


def attributes(owners):
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_train_step_spans_every_op_and_restores_attributes(tracer_module, trainer):
    from voiceanalogy import tensor, training
    owners = [*tracer_module.MODULES, tensor.Tensor, tensor.Adam, training.Trainer]
    before = attributes(owners)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert tensor.conv2d is not before[(id(tensor), "conv2d")]
        trainer.train_step()
    names = {span[0] for span in tracer.spans}
    for op in tracer_module.TENSOR_OPS:
        assert f"tensor.{op}" in names
        assert f"tensor.{op}.bwd" in names
    assert {"tensor.backward", "tensor.adam", "training.make_batch"} <= names
    assert tracer.counts["conv2d.flop"] > 0 and tracer.counts["matmul.flop"] > 0
    after = attributes(owners)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_inversion_counts_cg_iterations_applies_per_round(tracer_module):
    cfg = CqtConfig()
    fb = cqt.design_filterbank(cfg)
    signal = np.sin(2 * np.pi * 220.0 * np.arange(4000) / cfg.sample_rate)
    spec = cqt.compress(cqt.forward_cqt(signal, fb), cfg)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        cqt.inverse_cqt(spec, fb, iterations=4, signal_length=signal.size)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["cqt.inverse_cqt"] == 1
    assert calls["cqt.forward_cqt"] == 4 * cqt.CG_ITERATIONS
    assert calls["cqt.adjoint"] == 4 * cqt.CG_ITERATIONS


def test_traced_train_step_sees_every_model_call(tracer_module, trainer):
    # the tracer patches model functions by name: generator_forward must call
    # the module's encode, once on a, b and c stacked, or model.encode.calls reads 0
    tracer = tracer_module.Tracer()
    with tracer.installed():
        trainer.train_step()
    calls = Counter(span[0] for span in tracer.spans)
    for name in ("model.generator_forward", "model.discriminator_forward", "model.spec_batch"):
        assert calls[name] > 0, name
    assert tracer.counts["encode.calls"] == 1 * calls["model.generator_forward"]
