"""Analogy generator and class-conditional discriminator.

The generator encodes spectrograms a, b, c with a shared convolutional
encoder, applies the analogy transform in latent space (additive
zb - za + zc, or a small perceptron on [zb - za, zc]) and decodes back to
spectrogram shape with transposed convolutions. The discriminator is a
conv stack with |W|*|S| + 1 output logits: one class per (word, speaker)
pair plus a single fake class.
"""

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


@dataclass(frozen=True)
class ModelConfig:
    bins: int = 48
    frames: int = 64           # input width; training.corpus_fields derives it from a corpus
    channels: tuple = (16, 32)
    kernel: int = 3
    stride: int = 2
    padding: int = 1
    latent: int = 64
    n_words: int = 4
    n_speakers: int = 2
    transform: str = "additive"   # or "deep"
    leaky_alpha: float = 0.2

    def __post_init__(self):
        check_field_types(self)
        sizes = {"kernel": self.kernel, "stride": self.stride, "latent": self.latent,
                 **{f"channels[{i}]": c for i, c in enumerate(self.channels)}}
        for name, value in sizes.items():
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be at least 0, got {self.padding}")
        if not 0 <= self.leaky_alpha <= 1:
            raise ValueError(f"leaky_alpha must be in [0, 1], got {self.leaky_alpha!r}")
        down = self.stride * self.stride
        if self.bins % down or self.frames % down:
            raise ValueError("bins and frames must be divisible by stride^2")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform variant {self.transform!r}")

    @property
    def feature_hw(self):
        return (self.bins // (self.stride * self.stride),
                self.frames // (self.stride * self.stride))

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


class ParamSet:
    """Ordered name -> Tensor mapping with hashing and frozen views.

    A subclass names its parameters in `layout(config)`, an ordered
    name -> (shape, fan_in) table: a parameter with a fan-in starts
    He-normal, one with fan_in None at zero. The draws follow table order,
    so a seed fixes every initial weight; they are drawn in float64 and
    stored as DTYPE."""

    def __init__(self, config, rng):
        self.params = {name: Tensor(np.zeros(shape, DTYPE) if fan_in is None
                                    else _he_init(rng, shape, fan_in).astype(DTYPE),
                                    requires_grad=True)
                       for name, (shape, fan_in) in self.layout(config).items()}
        self.config = config

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
    def layout(config):
        c1, c2 = config.channels
        k = config.kernel
        table = {
            "enc_conv1_w": ((c1, 1, k, k), k * k),
            "enc_conv1_b": ((c1, 1, 1), None),
            "enc_conv2_w": ((c2, c1, k, k), c1 * k * k),
            "enc_conv2_b": ((c2, 1, 1), None),
            "enc_fc_w": ((config.feature_size, config.latent), config.feature_size),
            "enc_fc_b": ((config.latent,), None),
            "dec_fc_w": ((config.latent, config.feature_size), config.latent),
            "dec_fc_b": ((config.feature_size,), None),
            "dec_tconv1_w": ((c2, c1, k, k), c2 * k * k),
            "dec_tconv1_b": ((c1, 1, 1), None),
            "dec_tconv2_w": ((c1, 1, k, k), c1 * k * k),
            "dec_tconv2_b": ((1, 1, 1), None),
        }
        if config.transform == "deep":
            width = 2 * config.latent
            table["tr_fc1_w"] = ((width, width), width)
            table["tr_fc1_b"] = ((width,), None)
            table["tr_fc2_w"] = ((width, config.latent), width)
            table["tr_fc2_b"] = ((config.latent,), None)
        return table


class DiscriminatorParams(ParamSet):
    @staticmethod
    def layout(config):
        c1, c2 = config.channels
        k = config.kernel
        # Zero-initialized head: untrained logits are exactly uniform.
        return {
            "conv1_w": ((c1, 1, k, k), k * k),
            "conv1_b": ((c1, 1, 1), None),
            "conv2_w": ((c2, c1, k, k), c1 * k * k),
            "conv2_b": ((c2, 1, 1), None),
            "head_w": ((config.feature_size, config.n_classes), None),
            "head_b": ((config.n_classes,), None),
        }


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


def encode(params, x):
    """x: Tensor (N, 1, bins, frames) -> latent (N, latent)."""
    cfg = params.config
    a = cfg.leaky_alpha
    h = T.conv2d(x, params["enc_conv1_w"], cfg.stride, cfg.padding) + params["enc_conv1_b"]
    h = h.leaky_relu(a)
    h = T.conv2d(h, params["enc_conv2_w"], cfg.stride, cfg.padding) + params["enc_conv2_b"]
    h = h.leaky_relu(a)
    h = h.reshape(h.shape[0], cfg.feature_size)
    return h @ params["enc_fc_w"] + params["enc_fc_b"]


def transform(params, za, zb, zc):
    cfg = params.config
    delta = zb - za
    if cfg.transform == "additive":
        return delta + zc
    h = T.concat([delta, zc], axis=1)
    h = (h @ params["tr_fc1_w"] + params["tr_fc1_b"]).leaky_relu(cfg.leaky_alpha)
    return h @ params["tr_fc2_w"] + params["tr_fc2_b"]


def decode(params, z):
    """z: Tensor (N, latent) -> (N, 1, bins, frames), final layer linear."""
    cfg = params.config
    a = cfg.leaky_alpha
    c1, c2 = cfg.channels
    fh, fw = cfg.feature_hw
    h = (z @ params["dec_fc_w"] + params["dec_fc_b"]).leaky_relu(a)
    h = h.reshape(h.shape[0], c2, fh, fw)
    mid_hw = (cfg.bins // cfg.stride, cfg.frames // cfg.stride)
    h = T.conv2d_transpose(h, params["dec_tconv1_w"], cfg.stride, cfg.padding,
                           out_hw=mid_hw) + params["dec_tconv1_b"]
    h = h.leaky_relu(a)
    h = T.conv2d_transpose(h, params["dec_tconv2_w"], cfg.stride, cfg.padding,
                           out_hw=(cfg.bins, cfg.frames)) + params["dec_tconv2_b"]
    return h


def generator_forward(params, a, b, c):
    """Predict d from spectrogram batches a, b, c (shared encoder)."""
    za = encode(params, a)
    zb = encode(params, b)
    zc = encode(params, c)
    return decode(params, transform(params, za, zb, zc))


def analogy_loss(pred, d):
    return T.mse_loss(pred, d)


def discriminator_forward(params, x):
    cfg = params.config
    a = cfg.leaky_alpha
    h = T.conv2d(x, params["conv1_w"], cfg.stride, cfg.padding) + params["conv1_b"]
    h = h.leaky_relu(a)
    h = T.conv2d(h, params["conv2_w"], cfg.stride, cfg.padding) + params["conv2_b"]
    h = h.leaky_relu(a)
    h = h.reshape(h.shape[0], cfg.feature_size)
    return h @ params["head_w"] + params["head_b"]


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
