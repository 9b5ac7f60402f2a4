"""Alternating minimax training loop with checkpointing and metrics.

Each alternation takes `disc_steps_per_gen_step` discriminator steps and
one generator step, on independently drawn half-real/half-generated
batches. All randomness flows through one seeded generator so metrics
logs are a pure function of (config, corpus). The generator step's forward
runs on one worker thread beside the discriminator steps, which gives the
same bytes as running it after them.
"""

import concurrent.futures
import math
import os
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import container
from . import tensor as T
from .corpus import CorpusConfigError, sample_quadruple
from .cqt import Spectrogram, estimate_f0, frequency_to_bin
from .model import (DTYPE, STRIDE, DiscriminatorParams, GeneratorParams, ModelConfig,
                    discriminator_forward, discriminator_loss, generator_forward,
                    generator_total_loss, spec_batch)
from .tensor import Adam, Tensor
from .typecheck import check_field_types, from_metadata

CHECKPOINT_MAGIC = b"AVCKPT\x00"
# version 4: float32 networks and Adam moments, configs without the fixed geometry
CHECKPOINT_VERSION = 4
# a checkpoint's networks, by the prefix of their array names
NETWORKS = {"gen": GeneratorParams, "disc": DiscriminatorParams}

METRICS_FIELDS = ("step", "analogy_loss", "disc_loss", "gen_adv_loss",
                  "disc_real_accuracy", "disc_fake_detection_rate")

# evaluate draws this many held-out quadruples, and as many real clips,
# from its own seeded generator
EVAL_QUADRUPLES = 64
EVAL_SEED = 12345


# the thread that runs each train step's generator forward; made on first use
_worker = None


def _forward_worker():
    global _worker
    if _worker is None:
        _worker = concurrent.futures.ThreadPoolExecutor(
            1, thread_name_prefix="voiceanalogy-gen-forward")
    return _worker


def _forget_worker():
    # a forked child has no copy of the parent's worker thread, and the
    # executor would count it as idle and start none
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _quiet():
    # a diverging run overflows float32 before a loss reads inf or nan; the
    # loss check reports it, so numpy's warnings would only repeat it. numpy's
    # error state is per thread, so each thread of a step enters its own
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _quietly(fn, *args):
    with _quiet():
        return fn(*args)


class TrainingDivergedError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    steps: int = 2000
    disc_steps_per_gen_step: int = 1
    lambda_adv: float = 0.05
    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    checkpoint_interval: int = 500
    log_interval: int = 10

    def __post_init__(self):
        check_field_types(self)
        rules = [(name, getattr(self, name) >= 1, "at least 1")
                 for name in ("steps", "disc_steps_per_gen_step", "checkpoint_interval",
                              "log_interval")]
        rules += [("batch_size", self.batch_size >= 2 and self.batch_size % 2 == 0,
                   "even and at least 2 (half-generated batch rule)"),
                  ("learning_rate", 0 < self.learning_rate < math.inf, "finite and positive"),
                  ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                  ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                  ("epsilon", 0 < self.epsilon < math.inf, "finite and positive"),
                  ("lambda_adv", 0 <= self.lambda_adv < math.inf, "finite and at least 0")]
        for name, ok, wanted in rules:
            if not ok:
                raise ValueError(f"{name} must be {wanted}, got {getattr(self, name)!r}")


@dataclass
class MetricsRecord:
    step: int
    analogy_loss: float
    disc_loss: float
    gen_adv_loss: float
    disc_real_accuracy: float
    disc_fake_detection_rate: float
    wall_time: float

    def log_line(self):
        # wall_time stays out of the log file so logs are reproducible
        vals = [self.step, self.analogy_loss, self.disc_loss, self.gen_adv_loss,
                self.disc_real_accuracy, self.disc_fake_detection_rate]
        return " ".join(f"{v:.12g}" for v in vals)


@dataclass
class Batch:
    real_x: np.ndarray          # (n/2, 1, K, T)
    real_classes: list
    gen_a: np.ndarray
    gen_b: np.ndarray
    gen_c: np.ndarray
    gen_d: np.ndarray
    target_classes: list        # intended (word, speaker) class of each generated sample


def make_batch(corpus, model_config, rng, batch_size):
    half = batch_size // 2
    real = []
    real_classes = []
    for _ in range(half):
        s = int(rng.integers(corpus.n_speakers))
        w = int(rng.integers(corpus.n_words))
        v = int(rng.integers(0, corpus.holdout_start))
        real.append(corpus.spectrogram(s, w, v))
        real_classes.append(model_config.class_index(w, s))
    quads = [sample_quadruple(corpus, rng) for _ in range(half)]
    return Batch(
        real_x=spec_batch(real, model_config),
        real_classes=real_classes,
        gen_a=spec_batch([q.a for q in quads], model_config),
        gen_b=spec_batch([q.b for q in quads], model_config),
        gen_c=spec_batch([q.c for q in quads], model_config),
        gen_d=spec_batch([q.d for q in quads], model_config),
        target_classes=[model_config.class_index(q.target_word, q.target_speaker)
                        for q in quads],
    )


def _check_finite(value, step, term):
    if not np.isfinite(value):
        raise TrainingDivergedError(f"{term} is {value} at step {step}")
    return float(value)


def corpus_fields(corpus):
    """The ModelConfig fields that `corpus` (a Corpus or its header) fixes:
    its bins, words and speakers, and the input width `frames`, a clip's
    CQT frame count rounded up to a multiple of STRIDE^2 so that both
    strided layers divide it."""
    down = STRIDE * STRIDE
    return {"bins": corpus.cqt_config.n_bins, "frames": -(-corpus.frames // down) * down,
            "n_words": corpus.n_words, "n_speakers": corpus.n_speakers}


def model_config_for(corpus, transform):
    """The default model for `corpus`, with the given latent transform.
    Raises CorpusConfigError when the corpus's n_bins is not a multiple of
    STRIDE^2, which no input width can make up for."""
    down = STRIDE * STRIDE
    if corpus.cqt_config.n_bins % down:
        raise CorpusConfigError(f"corpus: n_bins must be a multiple of {down} for the "
                                f"model's strided layers, got {corpus.cqt_config.n_bins}")
    return ModelConfig(**corpus_fields(corpus), transform=transform)


class Trainer:
    def __init__(self, corpus, train_config, model_config=None):
        if model_config is None:
            model_config = model_config_for(corpus, ModelConfig.transform)
        init_rng = np.random.default_rng(train_config.seed + 1)
        self._assemble(corpus, train_config, model_config,
                       GeneratorParams(model_config, init_rng),
                       DiscriminatorParams(model_config, init_rng))

    def _assemble(self, corpus, train_config, model_config, gen_params, disc_params):
        """Step 0 over the given networks, with fresh optimizers."""
        self.corpus = corpus
        self.config = train_config
        self.model_config = model_config
        self.rng = np.random.default_rng(train_config.seed)
        self.gen_params = gen_params
        self.disc_params = disc_params
        self.gen_opt = Adam(train_config.learning_rate, train_config.beta1,
                            train_config.beta2, train_config.epsilon)
        self.disc_opt = Adam(train_config.learning_rate, train_config.beta1,
                             train_config.beta2, train_config.epsilon)
        self.step = 0

    def disc_step(self, batch):
        # the generated half enters detached, so its forward records no tape
        gen_x = generator_forward(self.gen_params.frozen(), Tensor(batch.gen_a),
                                  Tensor(batch.gen_b), Tensor(batch.gen_c))
        loss, logits = discriminator_loss(self.disc_params, batch.real_x,
                                          batch.real_classes, gen_x)
        loss_v = _check_finite(loss.data[0], self.step, "disc_loss")
        self.disc_params.zero_grads()
        loss.backward()
        self.disc_opt.step(self.disc_params.named())
        pred = logits.data.argmax(axis=1)
        n_real = len(batch.real_classes)
        real_acc = float((pred[:n_real] == np.array(batch.real_classes)).mean())
        fake_rate = float((pred[n_real:] == self.model_config.fake_class).mean())
        return loss_v, real_acc, fake_rate

    def gen_forward(self, batch):
        """The generator's tracked forward on batch's a, b and c."""
        return generator_forward(self.gen_params, Tensor(batch.gen_a),
                                 Tensor(batch.gen_b), Tensor(batch.gen_c))

    def gen_step(self, batch, pred=None):
        """The generator update on batch; `pred` is gen_forward(batch) if
        already run, on the generator's current weights."""
        if pred is None:
            pred = self.gen_forward(batch)
        total, a_loss, adv = generator_total_loss(
            pred, batch.gen_d, self.disc_params.frozen(), batch.target_classes,
            self.config.lambda_adv)
        a_v = _check_finite(a_loss.data[0], self.step, "analogy_loss")
        adv_v = _check_finite(adv.data[0], self.step, "gen_adv_loss")
        self.gen_params.zero_grads()
        total.backward()
        self.gen_opt.step(self.gen_params.named())
        return a_v, adv_v

    def train_step(self):
        """One alternation: disc steps then a gen step; returns a record.
        Raises TrainingDivergedError when a loss is not finite.

        The step draws its batches first, disc batches then the gen batch,
        as the steps take them. The gen step's forward then runs on the
        worker thread while this thread runs the disc steps, which draw
        nothing and leave the generator's weights as they are, so the step
        computes the same bytes as disc steps followed by gen_step."""
        t0 = time.monotonic()
        disc_loss = real_acc = fake_rate = 0.0
        with _quiet():
            batches = [make_batch(self.corpus, self.model_config, self.rng,
                                  self.config.batch_size)
                       for _ in range(self.config.disc_steps_per_gen_step + 1)]
            gen_batch = batches.pop()
            forward = _forward_worker().submit(_quietly, self.gen_forward, gen_batch)
            try:
                for batch in batches:
                    disc_loss, real_acc, fake_rate = self.disc_step(batch)
            finally:
                # the forward reads the generator's weights, so it ends before
                # the step does, also when a disc step raises
                concurrent.futures.wait([forward])
            a_loss, adv_loss = self.gen_step(gen_batch, forward.result())
        self.step += 1
        return MetricsRecord(self.step, a_loss, disc_loss, adv_loss,
                             real_acc, fake_rate, time.monotonic() - t0)

    def named_tensors(self):
        out = {}
        for name, p in self.gen_params.items():
            out[f"gen/{name}"] = p.data
        for name, p in self.disc_params.items():
            out[f"disc/{name}"] = p.data
        for name, arr in self.gen_opt.state_tensors().items():
            out[f"gen_opt/{name}"] = arr
        for name, arr in self.disc_opt.state_tensors().items():
            out[f"disc_opt/{name}"] = arr
        return out


def train(corpus, config, metrics_path=None, checkpoint_dir=None, model_config=None,
          progress=None):
    """Run the full schedule; returns (trainer, records)."""
    trainer = Trainer(corpus, config, model_config)
    return _run(trainer, config.steps, metrics_path, checkpoint_dir, progress)


def resume(corpus, checkpoint_path, metrics_path=None, checkpoint_dir=None,
           progress=None):
    trainer = load_checkpoint(checkpoint_path, corpus)
    remaining = trainer.config.steps - trainer.step
    return _run(trainer, remaining, metrics_path, checkpoint_dir, progress)


def _run(trainer, steps, metrics_path, checkpoint_dir, progress):
    records = []
    log = open(metrics_path, "a") if metrics_path else None
    try:
        if log and trainer.step == 0:
            log.write("# " + " ".join(METRICS_FIELDS) + "\n")
        for _ in range(steps):
            rec = trainer.train_step()
            if trainer.step % trainer.config.log_interval == 0 or trainer.step == 1:
                records.append(rec)
                if log:
                    log.write(rec.log_line() + "\n")
            if checkpoint_dir and trainer.step % trainer.config.checkpoint_interval == 0:
                save_checkpoint(trainer, f"{checkpoint_dir}/ckpt_{trainer.step:06d}.bin")
            if progress and trainer.step % (trainer.config.log_interval * 10) == 0:
                progress(rec)
    finally:
        if log:
            log.close()
    return trainer, records


# ---- checkpoint serialization ----

def save_checkpoint(trainer, path):
    """Write `trainer` to `path` and return the bytes written. Raises
    CheckpointError if the arrays are not the ones every reader requires (a
    trainer that has taken no step has no Adam moments yet), and
    TrainingDivergedError if an array is not finite; either way before any
    file is made."""
    arrays = trainer.named_tensors()
    container.check_entries({name: (arr.dtype.newbyteorder("<").str, arr.shape)
                             for name, arr in arrays.items()},
                            checkpoint_layout(trainer.model_config), CheckpointError,
                            f"checkpoint {path}", "the model")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise TrainingDivergedError(f"{name} is not finite at step {trainer.step}")
    meta = {"train": asdict(trainer.config), "model": asdict(trainer.model_config),
            "step": trainer.step, "rng": trainer.rng.bit_generator.state}
    data = container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays)
    container.write_atomic(path, data)
    return data


def load_checkpoint(path, corpus):
    """The trainer saved at `path`, built from the file's arrays with no
    random draw. The arrays are read into one fresh writeable buffer, and the
    parameters and the Adam moments take them without a copy."""
    return read_checkpoint(path, corpus, ("gen/", "disc/", "gen_opt/", "disc_opt/"))


def read_checkpoint(path, corpus, prefixes):
    """The trainer saved at `path`, reading only the arrays whose names
    start with one of `prefixes` ("gen/", "disc/", "gen_opt/", "disc_opt/").

    The file must hold exactly the model's arrays (parameters, both Adam
    moments of each, step counts), read or not. A network left unread is
    None and an optimizer whose state is left unread starts empty, so such
    a trainer serves inference only: `convert` reads "gen/", `eval` "gen/"
    and "disc/"."""
    with open(path, "rb") as f:
        meta, entries, tensors = container.read(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                                CheckpointError, f"checkpoint {path}",
                                                prefixes)
    try:
        train_cfg = from_metadata(TrainConfig, meta["train"], "train")
        model_cfg = from_metadata(ModelConfig, meta["model"], "model")
        wanted = corpus_fields(corpus)
        model_shape = tuple(getattr(model_cfg, name) for name in wanted)
        corpus_shape = tuple(wanted.values())
        if model_shape != corpus_shape:
            raise CheckpointError(
                f"checkpoint {path}: model is for (bins, frames, words, speakers) = "
                f"{model_shape}, corpus has {corpus_shape}")
        step = meta["step"]
        if type(step) is not int or step < 0:
            raise ValueError(f"step must be a non-negative integer, got {step!r}")
        container.check_entries(entries, checkpoint_layout(model_cfg), CheckpointError,
                                f"checkpoint {path}", "the model")
        gen, disc = (params.from_arrays(model_cfg, _under(f"{prefix}/", tensors))
                     if f"{prefix}/" in prefixes else None
                     for prefix, params in NETWORKS.items())
        trainer = object.__new__(Trainer)
        trainer._assemble(corpus, train_cfg, model_cfg, gen, disc)
        trainer.step = step
        trainer.rng.bit_generator.state = meta["rng"]
        for prefix, opt in (("gen", trainer.gen_opt), ("disc", trainer.disc_opt)):
            if f"{prefix}_opt/" in prefixes:
                opt.load_state_tensors(_under(f"{prefix}_opt/", tensors))
    except container.MALFORMED as exc:
        raise CheckpointError(f"checkpoint {path}: malformed metadata: {exc}") from None
    return trainer


def checkpoint_layout(model_cfg):
    """The {name: (dtype, shape)} of each array in a checkpoint of `model_cfg`:
    each network's parameters, their two Adam moments and the step counts."""
    want = np.dtype(DTYPE).newbyteorder("<").str
    layout = {f"{prefix}_opt/step_count": ("<f8", (1,)) for prefix in NETWORKS}
    for prefix, params in NETWORKS.items():
        for name, (shape, _) in params.layout(model_cfg).items():
            for part in (f"{prefix}/", f"{prefix}_opt/m/", f"{prefix}_opt/v/"):
                layout[part + name] = (want, shape)
    return layout


def _under(prefix, tensors):
    """The arrays whose names start with `prefix`, named without it."""
    return {name[len(prefix):]: arr for name, arr in tensors.items()
            if name.startswith(prefix)}


# ---- evaluation ----

@dataclass
class EvalReport:
    reconstruction_error: float
    f0_transfer_score: float
    disc_real_accuracy: float
    n_quadruples: int

    def lines(self):
        return [
            f"held-out quadruples: {self.n_quadruples}",
            f"analogy reconstruction error: {self.reconstruction_error:.6f}",
            f"f0 transfer score: {self.f0_transfer_score:.3f}",
            f"discriminator real-class accuracy: {self.disc_real_accuracy:.3f}",
        ]


def evaluate(trainer, corpus):
    """Held-out reconstruction error, f0-transfer score, disc accuracy."""
    rng = np.random.default_rng(EVAL_SEED)
    mcfg = trainer.model_config
    cqt_cfg = corpus.cqt_config
    quads = [sample_quadruple(corpus, rng, holdout=True) for _ in range(EVAL_QUADRUPLES)]
    a = Tensor(spec_batch([q.a for q in quads], mcfg))
    b = Tensor(spec_batch([q.b for q in quads], mcfg))
    c = Tensor(spec_batch([q.c for q in quads], mcfg))
    d = spec_batch([q.d for q in quads], mcfg)
    pred = generator_forward(trainer.gen_params.frozen(), a, b, c)
    recon = float(T.mse_loss(pred, d).data[0])

    hits = 0
    for i, q in enumerate(quads):
        values = np.maximum(pred.data[i, 0], 0.0)
        spec = Spectrogram(values, cqt_cfg)
        f0 = estimate_f0(spec)
        target_f0 = corpus.speakers[q.target_speaker].f0
        if f0 is not None:
            if abs(frequency_to_bin(f0, cqt_cfg) - frequency_to_bin(target_f0, cqt_cfg)) <= 1:
                hits += 1
    f0_score = hits / EVAL_QUADRUPLES

    # discriminator accuracy on held-out real samples
    real = []
    classes = []
    for _ in range(EVAL_QUADRUPLES):
        s = int(rng.integers(corpus.n_speakers))
        w = int(rng.integers(corpus.n_words))
        v = int(rng.integers(corpus.holdout_start, corpus.variants_per_cell))
        real.append(corpus.spectrogram(s, w, v))
        classes.append(mcfg.class_index(w, s))
    logits = discriminator_forward(trainer.disc_params.frozen(), Tensor(spec_batch(real, mcfg)))
    acc = float((logits.data.argmax(axis=1) == np.array(classes)).mean())
    return EvalReport(recon, f0_score, acc, EVAL_QUADRUPLES)
