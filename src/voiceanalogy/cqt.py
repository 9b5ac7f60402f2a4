"""Constant-Q analysis/synthesis for the voice-conversion pipeline.

Log-spaced filterbank of Hann-windowed complex exponentials, centre-aligned
in one zero-padded kernel matrix. A kernel's window halves in length per
octave, so the transform multiplies only each octave's kernel support
(Brown & Puckette 1992; Schoerkhuber & Klapuri 2010): the forward is one
frame gather plus one real matmul per octave, and its exact adjoint is one
real matmul per nested column shell plus a per-frame overlap-add.
On top: log-compressed magnitude spectrograms, phase recovery back to audio
by fast Griffin-Lim whose consistency step is a warm-started
conjugate-gradient least-squares (CGLS) solve, and a simple
fundamental-frequency estimator used for evaluation.

Everything computes in the dtype of its data, by `tensor`'s rule: float32
(complex64 for a grid) stays single precision, anything else becomes float64
(complex128). So the float64 corpus and its analyses keep their bytes, and a
float32 spectrogram, such as the generator's output, is inverted in float32.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .typecheck import check_field_types

# Magnitude compression log(1 + GAMMA*|z|); corpus.bin stores compressed
# values without it, so it is fixed.
GAMMA = 100.0
# estimate_f0 skips frames whose peak is below SILENCE_THRESHOLD and takes
# the lowest local maximum reaching PEAK_FRACTION of the frame's peak.
SILENCE_THRESHOLD = 1e-6
PEAK_FRACTION = 0.5
# Extrapolation weight of fast Griffin-Lim; 0 gives the plain update.
FGLA_ALPHA = 0.9
# CGLS steps in each round of inverse_cqt's least-squares fit.
CG_ITERATIONS = 3


def _real_array(data):
    """data as a float32 array if it is one, else as float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


class CqtConfigError(ValueError):
    pass


class SignalLengthError(ValueError):
    pass


@dataclass(frozen=True)
class CqtConfig:
    sample_rate: int = 8000
    f_min: float = 110.0
    bins_per_octave: int = 12
    n_bins: int = 48
    hop: int = 64
    q_scale: float = 1.0

    def __post_init__(self):
        check_field_types(self, CqtConfigError)
        for name in ("f_min", "q_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise CqtConfigError(f"{name} must be finite and positive, got {value!r}")
        if self.hop <= 0 or self.bins_per_octave <= 0 or self.n_bins <= 0:
            raise CqtConfigError("hop, bins_per_octave and n_bins must be positive")
        top = self.center_frequency(self.n_bins - 1)
        if top >= self.sample_rate / 2:
            raise CqtConfigError(
                f"top bin at {top:.1f} Hz reaches Nyquist ({self.sample_rate / 2:.1f} Hz)")
        # a Hann window of 2 samples is all zeros, so its kernel would be 0/0
        shortest = self.window_length(self.n_bins - 1)
        if shortest < 3:
            raise CqtConfigError(
                f"q_scale {self.q_scale!r} makes the shortest kernel {shortest} samples "
                f"long; it needs at least 3")

    def center_frequency(self, k):
        return self.f_min * 2.0 ** (k / self.bins_per_octave)

    @property
    def q_factor(self):
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)

    def window_length(self, k):
        """Samples in bin k's kernel: q_scale * Q periods of its frequency."""
        return int(math.ceil(self.q_scale * self.q_factor * self.sample_rate
                             / self.center_frequency(k)))

    @property
    def max_window(self):
        """The widest kernel's length, bin 0's, known without designing
        the filterbank."""
        return self.window_length(0)


@dataclass
class Filterbank:
    """All bin kernels as one matrix: row k is kernel k zero-padded to
    max_window columns, with every kernel's centre sample (length-1)//2 at
    column (max_window-1)//2. The transform is one linear operator, applied
    through two sets of real blocks of that matrix, each contiguous:

    - octaves: the bins lo:hi of each octave, over the columns its first
      (widest) kernel covers, which hold every kernel of the octave; stored
      as columns x [Re bins | Im bins] for the forward's frames-first product;
    - shells: the octaves' column supports are nested, so the columns that
      octaves 0..j cover and octave j+1 does not (a left and a right piece;
      one piece for the innermost octave) meet only the bins 0:hi of
      octaves 0..j. Each piece holds those bins over its columns, stored as
      [Re rows; Im rows] x columns for the adjoint.

    `octaves32` and `shells32` are their float32 copies, made at the first
    float32 apply, so float64 callers never pay for them.
    """

    config: CqtConfig
    center_frequencies: np.ndarray
    window_lengths: np.ndarray
    kernels: np.ndarray  # K x max_window complex, each row unit L1 norm
    octaves: list = field(init=False, repr=False)  # [(lo, hi, columns, block)]
    shells: list = field(init=False, repr=False)   # [(hi, [(columns, block)])]

    def __post_init__(self):
        k, width = self.kernels.shape
        mid = (width - 1) // 2

        def real_block(rows, cols):
            return np.concatenate([self.kernels.real[rows, cols],
                                   self.kernels.imag[rows, cols]])

        self.octaves = []
        for lo in range(0, k, self.config.bins_per_octave):
            hi = min(lo + self.config.bins_per_octave, k)
            length = int(self.window_lengths[lo])
            cols = slice(mid - (length - 1) // 2, mid - (length - 1) // 2 + length)
            self.octaves.append((lo, hi, cols,
                                 np.ascontiguousarray(real_block(slice(lo, hi), cols).T)))
        self.shells = []
        for j, (_, hi, outer, _) in enumerate(self.octaves):
            if j + 1 < len(self.octaves):
                inner = self.octaves[j + 1][2]
                pieces = [slice(outer.start, inner.start), slice(inner.stop, outer.stop)]
            else:
                pieces = [outer]
            self.shells.append((hi, [(cols, real_block(slice(0, hi), cols))
                                     for cols in pieces if cols.stop > cols.start]))

    @cached_property
    def octaves32(self):
        return [(lo, hi, cols, block.astype(np.float32)) for lo, hi, cols, block in self.octaves]

    @cached_property
    def shells32(self):
        return [(hi, [(cols, block.astype(np.float32)) for cols, block in pieces])
                for hi, pieces in self.shells]

    @property
    def max_window(self):
        return self.kernels.shape[1]


@dataclass
class Spectrogram:
    """K x T grid of log-compressed CQT magnitudes, float32 or float64."""

    values: np.ndarray
    config: CqtConfig

    def __post_init__(self):
        self.values = _real_array(self.values)

    @property
    def bins(self):
        return self.values.shape[0]

    @property
    def frames(self):
        return self.values.shape[1]


def design_filterbank(config):
    freqs = np.array([config.center_frequency(k) for k in range(config.n_bins)])
    lengths = np.array([config.window_length(k) for k in range(config.n_bins)])
    width = config.max_window
    kernels = np.zeros((config.n_bins, width), dtype=np.complex128)
    for k, (f, length) in enumerate(zip(freqs, lengths)):
        n = np.arange(length) - (length - 1) / 2.0
        window = np.hanning(length)
        kern = window * np.exp(2j * np.pi * f * n / config.sample_rate)
        start = (width - 1) // 2 - (length - 1) // 2
        kernels[k, start:start + length] = kern / np.abs(kern).sum()
    return Filterbank(config, freqs, lengths, kernels)


def n_frames(signal_length, hop):
    return signal_length // hop + 1


def forward_cqt(signal, filterbank):
    """Complex K x T grid; entry (k, t) is the inner product of kernel k
    against the window centred at t*hop (zero-padded at the edges).

    One contiguous T x max_window frame gather, then one real matmul per
    octave of those frames' columns its kernels cover by the octave's
    columns x [Re | Im] block. A float32 signal gives a complex64 grid, any
    other a complex128 one."""
    signal = _real_array(signal)
    width = filterbank.max_window
    if signal.size < width:
        raise SignalLengthError(
            f"signal of {signal.size} samples shorter than longest kernel "
            f"({width} samples)")
    mid = (width - 1) // 2
    padded = np.zeros(signal.size + width, signal.dtype)
    padded[mid:mid + signal.size] = signal
    # row t holds the max_window samples whose column mid is sample t*hop
    frames = np.ascontiguousarray(sliding_window_view(padded, width)[::filterbank.config.hop])
    grid = np.empty((filterbank.config.n_bins, frames.shape[0]),
                    dtype=np.result_type(signal.dtype, np.complex64))
    octaves = filterbank.octaves32 if signal.dtype == np.float32 else filterbank.octaves
    for lo, hi, cols, block in octaves:
        prods = frames[:, cols] @ block  # real, then imaginary parts, per frame
        grid.real[lo:hi] = prods[:, :hi - lo].T
        np.negative(prods[:, hi - lo:].T, out=grid.imag[lo:hi])
    return grid


def compress(grid, config):
    """Magnitude compression: log(1 + GAMMA*|z|), float32 for a complex64
    grid."""
    return Spectrogram(np.log1p(GAMMA * np.abs(grid)), config)


def decompress(values):
    """Inverse of compress, in the dtype of `values`."""
    return np.expm1(np.maximum(values, 0.0)) / GAMMA


def _adjoint_frames(grid, filterbank):
    """T x max_window frame products: row t is Re(grid[:, t] @ kernels).

    One real matmul per shell piece, over the rows [Re; -Im] of the bins
    whose kernels reach its columns, written in place into one array:
    float32 for a complex64 grid, else float64."""
    single = grid.dtype in (np.complex64, np.float32)
    frames = np.empty((grid.shape[1], filterbank.max_window),
                      np.float32 if single else np.float64)
    for hi, pieces in filterbank.shells32 if single else filterbank.shells:
        coeffs = np.concatenate([grid.real[:hi], -grid.imag[:hi]]).T
        for cols, block in pieces:
            np.matmul(coeffs, block, out=frames[:, cols])
    return frames


def _adjoint_cqt(grid, filterbank, signal_length):
    """Exact adjoint of forward_cqt under the real inner product.

    The frame products of _adjoint_frames are overlap-added where
    forward_cqt read frame t, at padded-signal samples t*hop onwards, by
    one slice add per frame in increasing t, so each sample sums its terms
    in frame order from +0.0: the same bytes as a bincount (np.add.at in
    float32) over a per-call T x max_window index, without building that
    index."""
    width = filterbank.max_window
    hop = filterbank.config.hop
    frames = _adjoint_frames(grid, filterbank)
    padded = np.zeros(signal_length + width, frames.dtype)
    for t, row in enumerate(frames):
        padded[t * hop:t * hop + width] += row
    mid = (width - 1) // 2
    return padded[mid:mid + signal_length]


def _lsq_synthesize(grid, filterbank, x0, ax0, cg_iterations):
    """Least-squares audio for a complex grid, warm-started from x0.

    CGLS: conjugate gradients on min ||A x - grid|| with the residual kept in
    grid space, so the start costs no apply beyond the analysis ax0 = A x0
    the caller already holds. Each step does one forward apply, and one
    adjoint apply when another step follows. Returns (x, A x), in the
    dtype of x0.
    """
    x, ax = x0, ax0
    r = grid - ax
    s = _adjoint_cqt(r, filterbank, x.size)
    p = s
    gamma = s @ s
    for step in range(cg_iterations):
        q = forward_cqt(p, filterbank)
        qq = np.vdot(q, q).real
        if qq <= 0:
            break
        alpha = gamma / qq
        x = x + alpha * p
        ax = ax + alpha * q
        if step == cg_iterations - 1:
            break
        r = r - alpha * q
        s = _adjoint_cqt(r, filterbank, x.size)
        gamma_next = s @ s
        if gamma_next < 1e-20 * gamma:
            break
        p = s + (gamma_next / gamma) * p
        gamma = gamma_next
    return x, ax


def inverse_cqt(spec, filterbank, iterations, signal_length, seed=0, return_errors=False):
    """Iterative phase recovery from a magnitude spectrogram: fast
    Griffin-Lim (Perraudin, Balazs & Soendergaard 2013) on a CGLS inner solve.

    Each round fits audio to the current grid by least squares, takes the
    analysis of that audio, replaces its magnitudes by the targets, and
    extrapolates from the previous round's projection by FGLA_ALPHA. A round
    costs CG_ITERATIONS forward and CG_ITERATIONS adjoint applies. Keeps the
    best iterate seen, so the reported error sequence is non-increasing by
    construction. `signal_length` is the length of the audio returned, which
    must analyse to the spectrogram's frame count.

    The rounds run in the spectrogram's dtype, and the audio is returned as
    float64 either way. A float32 inversion's reported errors are those of
    its float32 running analysis, so they can differ from a float64
    re-analysis of the returned audio in about the seventh digit.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = filterbank.config
    if spec.bins != cfg.n_bins:
        raise CqtConfigError(
            f"spectrogram has {spec.bins} bins, the filterbank has {cfg.n_bins}")
    target = decompress(spec.values)
    dtype = target.dtype
    t_frames = target.shape[1]
    if signal_length < filterbank.max_window:
        raise SignalLengthError(
            f"signal length {signal_length} shorter than longest kernel "
            f"({filterbank.max_window} samples)")
    if t_frames != n_frames(signal_length, cfg.hop):
        raise SignalLengthError(
            f"spectrogram has {t_frames} frames, a signal of {signal_length} samples "
            f"has {n_frames(signal_length, cfg.hop)}")
    target_norm = np.linalg.norm(target)
    if target_norm == 0.0:
        zeros = np.zeros(signal_length)
        return (zeros, [0.0] * iterations) if return_errors else zeros
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(target.shape))
    grid = proj = target * phases.astype(np.result_type(dtype, np.complex64), copy=False)
    audio = np.zeros(signal_length, dtype)
    analysis = np.zeros_like(grid)
    best_audio = audio
    best_error = np.inf
    errors = []
    for _ in range(iterations):
        audio, analysis = _lsq_synthesize(grid, filterbank, audio, analysis, CG_ITERATIONS)
        mags = np.abs(analysis)
        err = np.linalg.norm(mags - target) / target_norm
        if err < best_error:
            best_error = err
            best_audio = audio
        errors.append(best_error)
        prev_proj = proj
        # a floor of the working dtype: 1e-300 is 0 in float32, and an exactly
        # zero analysis entry would then make the grid NaN
        proj = target * analysis / np.maximum(mags, np.finfo(dtype).tiny)
        grid = proj + FGLA_ALPHA * (proj - prev_proj)
    best_audio = best_audio.astype(np.float64, copy=False)
    return (best_audio, errors) if return_errors else best_audio


def estimate_f0(spec):
    """Median across frames of the lowest strong local-maximum bin, in Hz.

    Returns None for silent input.
    """
    values = spec.values
    if values.shape[1] < 1:
        raise ValueError("spectrogram has no frames")
    # a bin qualifies if it is above the bin below it and not below the bin
    # above it (past either edge is -inf), and reaches PEAK_FRACTION of its
    # frame's peak; a frame whose peak is below SILENCE_THRESHOLD has none,
    # nor has a frame holding a NaN, whose peak is NaN. The peak meets the
    # threshold in float64, so a float32 grid and its float64 copy agree.
    edge = np.full((1, values.shape[1]), -np.inf)
    peak = values.max(axis=0)
    qualifies = ((values > np.concatenate([edge, values[:-1]]))
                 & (values >= np.concatenate([values[1:], edge]))
                 & (values >= PEAK_FRACTION * peak)
                 & (peak.astype(np.float64) >= SILENCE_THRESHOLD))
    voiced = qualifies.any(axis=0)
    if not voiced.any():
        return None
    median_bin = int(np.median(qualifies.argmax(axis=0)[voiced]))
    return spec.config.center_frequency(median_bin)


def frequency_to_bin(freq, config):
    """Nearest filterbank bin for a frequency in Hz."""
    return int(round(config.bins_per_octave * math.log2(freq / config.f_min)))
