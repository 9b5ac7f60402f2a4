"""Analogy generator and class-conditional discriminator.

The generator encodes spectrograms a, b, c with a shared convolutional
encoder, in one pass over the three batches stacked, applies the analogy
transform in latent space (additive zb - za + zc, or a small perceptron on
[zb - za, zc]) and decodes back to spectrogram shape with transposed
convolutions. The discriminator is a conv stack with |W|*|S| + 1 output
logits: one class per (word, speaker) pair plus a single fake class.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .typecheck import check_field_types

TRANSFORMS = ("additive", "deep")
# The networks' weights, their input batches and so every activation and
# gradient are single precision; the losses still reduce in float64
# (tensor.mse_loss, tensor.softmax_cross_entropy). Checkpoints store it.
DTYPE = np.float32
KERNEL = 3           # every conv and tconv layer: KERNEL x KERNEL, stride STRIDE,
STRIDE = 2           # zero padding PADDING
PADDING = 1
LEAKY_ALPHA = 0.2    # the slope of every activated layer's leaky ReLU


@dataclass(frozen=True)
class ModelConfig:
    bins: int = 48
    frames: int = 64           # input width; training.corpus_fields derives it from a corpus
    channels: tuple = (16, 32)
    latent: int = 64
    n_words: int = 4
    n_speakers: int = 2
    transform: str = "additive"   # or "deep"

    def __post_init__(self):
        check_field_types(self)
        sizes = {"latent": self.latent,
                 **{f"channels[{i}]": c for i, c in enumerate(self.channels)}}
        for name, value in sizes.items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        down = STRIDE * STRIDE
        if self.bins % down or self.frames % down:
            raise ValueError("bins and frames must be divisible by stride^2")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform variant {self.transform!r}")

    @property
    def feature_hw(self):
        return self.bins // (STRIDE * STRIDE), self.frames // (STRIDE * STRIDE)

    @property
    def feature_size(self):
        h, w = self.feature_hw
        return self.channels[1] * h * w

    @property
    def n_classes(self):
        return self.n_words * self.n_speakers + 1

    @property
    def fake_class(self):
        return self.n_words * self.n_speakers

    def class_index(self, word_id, speaker_id):
        return word_id * self.n_speakers + speaker_id


def _he_init(rng, shape, fan_in):
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


# One table row: the weights <name>_w (He-normal, or zero if not he) and zero bias <name>_b of a
# "conv", "tconv" (transposed) or "fc" layer, inputs -> outputs, then leaky ReLU if activated.
Layer = namedtuple("Layer", "name kind inputs outputs activated he", defaults=(True,))


def _conv_stack(prefix, fc_name, n_out, he, config):
    """The encoder's and the critic's rows: two strided convs, then an fc."""
    c1, c2 = config.channels
    return [Layer(f"{prefix}conv1", "conv", 1, c1, True),
            Layer(f"{prefix}conv2", "conv", c1, c2, True),
            Layer(fc_name, "fc", config.feature_size, n_out, False, he)]


class ParamSet:
    """Ordered name -> Tensor mapping with hashing and frozen views.

    `layout(config)` is derived from the subclass's `rows(config)`: name ->
    (shape, fan_in) in table order, the draw order, so a seed fixes every
    initial weight. Fan-in None starts at zero, any other He-normal, drawn in
    float64 and stored as DTYPE."""

    def __init__(self, config, rng):
        self.params = {name: Tensor(np.zeros(shape, DTYPE) if fan_in is None
                                    else _he_init(rng, shape, fan_in).astype(DTYPE),
                                    requires_grad=True)
                       for name, (shape, fan_in) in self.layout(config).items()}
        self.config = config

    @classmethod
    def layout(cls, config):
        table = {}
        for name, kind, n_in, n_out, _, he in cls.rows(config):
            # a transposed conv's kernel is that of the conv it is the adjoint of
            w_shape = {"conv": (n_out, n_in, KERNEL, KERNEL),
                       "tconv": (n_in, n_out, KERNEL, KERNEL),
                       "fc": (n_in, n_out)}[kind]
            # each output sums over fan_in inputs; a conv bias broadcasts over the maps
            table[f"{name}_w"] = (w_shape, math.prod(w_shape) // n_out if he else None)
            table[f"{name}_b"] = ((n_out,) + (1,) * (len(w_shape) - 2), None)
        return table

    @classmethod
    def from_arrays(cls, config, arrays):
        """The parameters `layout` names, taken from the name -> array
        mapping `arrays` with no random draw and no copy; raises KeyError for
        a missing name. Training updates the arrays in place, so they must be
        writeable, of the layout's shape and held by nothing else, as the
        checkpoint reader's fresh arrays are once it has checked the file's
        entries."""
        return cls._of({name: Tensor(arrays[name], requires_grad=True)
                        for name in cls.layout(config)}, config)

    @classmethod
    def _of(cls, params, config):
        out = object.__new__(cls)
        out.params = params
        out.config = config
        return out

    def __getitem__(self, name):
        return self.params[name]

    def items(self):
        return self.params.items()

    def named(self):
        return self.params

    def zero_grads(self):
        for p in self.params.values():
            p.grad = None

    def content_hash(self):
        import hashlib
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(self.params[name].data.tobytes())
        return h.hexdigest()

    def frozen(self):
        """Same arrays, gradients off: for inference, and for the network
        held fixed in an adversarial update."""
        return self._of({name: Tensor(p.data) for name, p in self.params.items()},
                        self.config)


class GeneratorParams(ParamSet):
    @staticmethod
    def rows(config, part=""):
        # table order is draw order, which fixes each seed's weights; `part`
        # keeps the rows of one part ("enc_", "dec_" or "tr_"), in forward order
        c1, c2 = config.channels
        rows = _conv_stack("enc_", "enc_fc", config.latent, True, config) + [
            Layer("dec_fc", "fc", config.latent, config.feature_size, True),
            Layer("dec_tconv1", "tconv", c2, c1, True),
            Layer("dec_tconv2", "tconv", c1, 1, False)]   # linear output
        if config.transform == "deep":
            width = 2 * config.latent   # the transform reads [zb - za, zc]
            rows += [Layer("tr_fc1", "fc", width, width, True),
                     Layer("tr_fc2", "fc", width, config.latent, False)]
        return [row for row in rows if row.name.startswith(part)]


class DiscriminatorParams(ParamSet):
    @staticmethod
    def rows(config):
        # Zero-initialized head: untrained logits are exactly uniform.
        return _conv_stack("", "head", config.n_classes, False, config)


def spec_batch(specs, config):
    """Stack spectrograms into an (N, 1, bins, frames) DTYPE input array,
    zero-padding the frame axis to the configured width."""
    n = len(specs)
    out = np.zeros((n, 1, config.bins, config.frames), DTYPE)
    for i, spec in enumerate(specs):
        bins, frames = spec.values.shape
        if bins != config.bins or frames > config.frames:
            raise T.ShapeMismatchError(
                f"spectrogram has {bins} bins and {frames} frames, model takes "
                f"{config.bins} bins and at most {config.frames} frames")
        out[i, 0, :, :frames] = spec.values
    return out


def _forward(params, rows, h):
    """Run `rows` on h: an fc row flattens a 4-D input, a tconv row unflattens a
    2-D one to (inputs, *feature_hw). An activated row's leaky ReLU runs in place
    on the layer's fresh output, which no backward reads. Ops are looked up on
    each call, as tracers patch them."""
    for row in rows:
        w, b = params[f"{row.name}_w"], params[f"{row.name}_b"]
        if row.kind == "conv":
            h = T.conv2d(h, w, STRIDE, PADDING, b)
        elif row.kind == "fc":
            h = (h if len(h.shape) == 2 else h.reshape(h.shape[0], row.inputs)).matmul(w, b)
        else:
            if len(h.shape) == 2:
                h = h.reshape(h.shape[0], row.inputs, *params.config.feature_hw)
            # a strided conv maps several sizes to h; its tconv gives back h * stride
            h = T.conv2d_transpose(h, w, STRIDE, PADDING,
                                   (h.shape[2] * STRIDE, h.shape[3] * STRIDE), b)
        h = h.leaky_relu(LEAKY_ALPHA, in_place=True) if row.activated else h
    return h


def encode(params, x):
    """x: Tensor (N, 1, bins, frames) -> latent (N, latent)."""
    return _forward(params, params.rows(params.config, "enc_"), x)


def transform(params, za, zb, zc):
    delta = zb - za
    if params.config.transform == "additive":
        return delta + zc
    return _forward(params, params.rows(params.config, "tr_"), T.concat([delta, zc], axis=1))


def decode(params, z):
    """z: Tensor (N, latent) -> (N, 1, bins, frames), final layer linear."""
    return _forward(params, params.rows(params.config, "dec_"), z)


def generator_forward(params, a, b, c):
    """Predict d from spectrogram batches a, b, c: one pass of the shared
    encoder over the three stacked on the batch axis."""
    z = encode(params, T.concat([a, b, c], axis=0))
    za, zb, zc = T.split(z, [a.shape[0], b.shape[0], c.shape[0]])
    return decode(params, transform(params, za, zb, zc))


def analogy_loss(pred, d):
    return T.mse_loss(pred, d)


def discriminator_forward(params, x):
    return _forward(params, params.rows(params.config), x)


def discriminator_loss(params, real_x, real_classes, generated_x):
    """Real samples target their (word, speaker) class; generated samples
    target the fake class and enter detached from the generator graph."""
    cfg = params.config
    if real_x.shape[0] == 0 or generated_x.shape[0] == 0:
        raise ValueError("discriminator batch halves must be nonempty")
    gen = generated_x.detach() if isinstance(generated_x, Tensor) else Tensor(generated_x)
    real = real_x if isinstance(real_x, Tensor) else Tensor(real_x)
    batch = T.concat([real, gen], axis=0)
    targets = list(real_classes) + [cfg.fake_class] * gen.shape[0]
    logits = discriminator_forward(params, batch)
    return T.softmax_cross_entropy(logits, targets), logits


def generator_adversarial_loss(disc_params, generated_x, target_classes):
    """Non-saturating loss: push the discriminator's probability mass of
    each generated sample toward its intended real (word, speaker) class.
    Call with frozen discriminator params so only the generator learns."""
    logits = discriminator_forward(disc_params, generated_x)
    return T.softmax_cross_entropy(logits, target_classes)


def generator_total_loss(pred, d, disc_params, target_classes, lambda_adv):
    a_loss = analogy_loss(pred, d)
    adv = generator_adversarial_loss(disc_params, pred, target_classes)
    total = a_loss + Tensor(np.array([lambda_adv])) * adv
    return total, a_loss, adv
