from dataclasses import fields

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from voiceanalogy import cli, cqt
from voiceanalogy.corpus import make_speakers, make_words, synth_utterance
from voiceanalogy.cqt import (CqtConfig, CqtConfigError, SignalLengthError,
                              Spectrogram, _adjoint_cqt, _adjoint_frames, _lsq_synthesize,
                              compress, decompress, design_filterbank, estimate_f0,
                              forward_cqt, frequency_to_bin, inverse_cqt, n_frames)
from voiceanalogy.tensor import Tensor

# default; one whose max_window is odd (1241) with more bins per octave, a
# hop that is no power of two and shorter kernels; one whose last octave
# holds 4 of 12 bins; four octaves of 24 bins (max_window 2482, so that the
# 4000-sample signals below still hold the longest kernel); and the
# 4-bins-per-octave config of the CLI tests
OPERATOR_CONFIGS = [CqtConfig(), CqtConfig(bins_per_octave=24, hop=50, q_scale=0.5),
                    CqtConfig(n_bins=40),
                    CqtConfig(bins_per_octave=24, n_bins=96),
                    CqtConfig(bins_per_octave=4, n_bins=16, hop=256)]
OPERATOR_IDS = ["default", "b24_hop50_q05", "partial_octave", "b24_4_octaves",
                "b4_hop256"]


@pytest.fixture(scope="module")
def config():
    return CqtConfig()


@pytest.fixture(scope="module")
def filterbank(config):
    return design_filterbank(config)


def tone(freq, n=4000, sr=8000):
    return np.sin(2 * np.pi * freq * np.arange(n) / sr)


def reference_kernels(config):
    """Per-bin kernels of their own lengths, designed independently of the
    padded kernel matrix."""
    kernels = []
    for k in range(config.n_bins):
        f = config.center_frequency(k)
        length = int(np.ceil(config.q_scale * config.q_factor * config.sample_rate / f))
        n = np.arange(length) - (length - 1) / 2.0
        kern = np.hanning(length) * np.exp(2j * np.pi * f * n / config.sample_rate)
        kernels.append(kern / np.abs(kern).sum())
    return kernels


def reference_forward(signal, config):
    """Per-bin loop: inner product of each kernel with the window centred at
    t*hop, the signal zero-padded by the kernel's own length."""
    kernels = reference_kernels(config)
    t_frames = n_frames(signal.size, config.hop)
    out = np.empty((config.n_bins, t_frames), dtype=np.complex128)
    centers = np.arange(t_frames) * config.hop
    for k, kern in enumerate(kernels):
        pad = kern.size
        padded = np.concatenate([np.zeros(pad), signal, np.zeros(pad)])
        for t, c in enumerate(centers):
            s = c + pad - (kern.size - 1) // 2
            out[k, t] = padded[s:s + kern.size] @ np.conj(kern)
    return out


def reference_adjoint(grid, config, signal_length):
    """Per-bin, per-frame overlap-add of Re(grid[k, t] * kernel k)."""
    kernels = reference_kernels(config)
    pad = max(kern.size for kern in kernels)
    x = np.zeros(signal_length + 2 * pad)
    for k, kern in enumerate(kernels):
        for t in range(grid.shape[1]):
            s = t * config.hop + pad - (kern.size - 1) // 2
            x[s:s + kern.size] += np.real(grid[k, t] * kern)
    return x[pad:pad + signal_length]


def bincount_adjoint(grid, filterbank, signal_length):
    """The adjoint's overlap-add over a T x max_window index of padded-signal
    samples, in the dtype of the frame products: one bincount in float64,
    and np.add.at in float32, since bincount always returns float64. Both
    sum each sample's terms in frame order from +0.0, so the slice adds must
    give the same bytes."""
    width = filterbank.max_window
    frames = _adjoint_frames(grid, filterbank)
    index = (np.arange(grid.shape[1])[:, None] * filterbank.config.hop
             + np.arange(width)).ravel()
    if frames.dtype == np.float64:
        padded = np.bincount(index, frames.ravel(), minlength=signal_length + width)
    else:
        padded = np.zeros(signal_length + width, frames.dtype)
        np.add.at(padded, index, frames.ravel())
    mid = (width - 1) // 2
    return padded[mid:mid + signal_length]


def dense_basis(filterbank):
    """[Re kernels; Im kernels], 2K x max_window: the whole operator as one
    dense real matrix, zeros included."""
    return np.concatenate([filterbank.kernels.real, filterbank.kernels.imag])


def dense_frames(signal, filterbank):
    """T x max_window frame gather: row t is centred on sample t*hop."""
    width = filterbank.max_window
    mid = (width - 1) // 2
    padded = np.zeros(signal.size + width)
    padded[mid:mid + signal.size] = signal
    return sliding_window_view(padded, width)[::filterbank.config.hop]


def dense_forward(signal, filterbank):
    """forward_cqt as one matmul of the dense matrix against every frame."""
    prods = dense_basis(filterbank) @ dense_frames(signal, filterbank).T
    k = filterbank.config.n_bins
    return prods[:k] - 1j * prods[k:]


def dense_adjoint_frames(grid, filterbank):
    """_adjoint_frames as one transposed matmul of the dense matrix."""
    return np.concatenate([grid.real, -grid.imag]).T @ dense_basis(filterbank)


def normal_equation_cg(grid, filterbank, x0, cg_iterations):
    """Conjugate gradients on the normal equations A*A x = A* grid, the
    residual kept in signal space: the reference for the CGLS solver."""
    n = x0.size

    def normal_op(x):
        return _adjoint_cqt(forward_cqt(x, filterbank), filterbank, n)

    x = x0
    r = _adjoint_cqt(grid, filterbank, n) - normal_op(x)
    p = r.copy()
    rs = r @ r
    for _ in range(cg_iterations):
        np_ = normal_op(p)
        denom = p @ np_
        if denom <= 0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * np_
        rs_next = r @ r
        if rs_next < 1e-20 * rs:
            break
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x


def criterion_4_spectrograms(config, filterbank):
    """The two utterances the acceptance gate's criterion 4 inverts."""
    speakers, words = make_speakers(2), make_words(4)
    for speaker, word, seed in ((speakers[0], words[0], 3), (speakers[1], words[2], 8)):
        samples = synth_utterance(speaker, word, seed).samples
        yield compress(forward_cqt(samples, filterbank), config), samples.size


class TestFilterbank:
    def test_octave_doubles_center_frequency(self, config):
        assert config.center_frequency(12) == pytest.approx(2 * config.f_min, abs=0)
        for k in range(config.n_bins - config.bins_per_octave):
            ratio = (config.center_frequency(k + config.bins_per_octave)
                     / config.center_frequency(k))
            assert ratio == pytest.approx(2.0, rel=1e-14)

    def test_b12_center_at_one_octave(self):
        cfg = CqtConfig(f_min=55.0)
        assert cfg.center_frequency(12) == pytest.approx(110.0)

    def test_q_closed_form(self, config):
        assert config.q_factor == pytest.approx(1.0 / (2 ** (1 / 12) - 1))
        assert config.q_factor == pytest.approx(16.817, abs=0.001)

    def test_constant_q_within_two_percent(self, filterbank, config):
        q = config.q_factor
        qs = (filterbank.center_frequencies * filterbank.window_lengths
              / config.sample_rate)
        assert np.abs(qs - q).max() / q < 0.02

    def test_window_length_halves_per_octave(self, filterbank, config):
        b = config.bins_per_octave
        for k in range(config.n_bins - b):
            low, high = filterbank.window_lengths[k], filterbank.window_lengths[k + b]
            assert abs(low - 2 * high) <= 2  # +-1 sample of rounding on each

    def test_window_length_decreases_across_octaves(self, filterbank, config):
        b = config.bins_per_octave
        octaves = filterbank.window_lengths[::b]
        assert all(octaves[i] > octaves[i + 1] for i in range(len(octaves) - 1))

    def test_kernels_unit_l1(self, filterbank):
        for kern in filterbank.kernels:
            assert np.abs(kern).sum() == pytest.approx(1.0, rel=1e-12)

    def test_nyquist_guard(self):
        with pytest.raises(CqtConfigError):
            CqtConfig(sample_rate=8000, f_min=1000.0, n_bins=48)

    def test_wrongly_typed_values_rejected_by_name(self):
        for f in fields(CqtConfig):
            default = getattr(CqtConfig(), f.name)
            bad = [True, float(default), default + 0.5] if f.type is int else [True, "1"]
            for value in bad:
                with pytest.raises(CqtConfigError, match=rf"^{f.name} must be"):
                    CqtConfig(**{f.name: value})


class TestForward:
    def test_pure_tone_argmax_every_bin(self, filterbank, config):
        t_frames = 4000 // config.hop + 1
        interior = slice(t_frames // 4, 3 * t_frames // 4)
        for k in range(config.n_bins):
            grid = forward_cqt(tone(filterbank.center_frequencies[k]), filterbank)
            mags = np.abs(grid[:, interior])
            assert (mags.argmax(axis=0) == k).all(), f"bin {k}"

    def test_zero_signal(self, filterbank):
        grid = forward_cqt(np.zeros(4000), filterbank)
        np.testing.assert_array_equal(np.abs(grid), 0.0)

    def test_linearity(self, filterbank):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4000)
        y = rng.normal(size=4000)
        lhs = forward_cqt(x + y, filterbank)
        rhs = forward_cqt(x, filterbank) + forward_cqt(y, filterbank)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_short_signal_rejected(self, filterbank):
        with pytest.raises(SignalLengthError):
            forward_cqt(np.zeros(100), filterbank)

    def test_frame_count(self, filterbank, config):
        grid = forward_cqt(np.zeros(4000), filterbank)
        assert grid.shape == (config.n_bins, 4000 // config.hop + 1)


@pytest.mark.parametrize("cfg", OPERATOR_CONFIGS, ids=OPERATOR_IDS)
class TestOperator:
    @pytest.mark.parametrize("n", [4000, 4001])
    def test_forward_matches_per_bin_loop(self, cfg, n):
        x = np.random.default_rng(n).normal(size=n)
        got = forward_cqt(x, design_filterbank(cfg))
        want = reference_forward(x, cfg)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_adjoint_matches_per_bin_loop(self, cfg, n):
        rng = np.random.default_rng(n)
        shape = (cfg.n_bins, n_frames(n, cfg.hop))
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = _adjoint_cqt(y, design_filterbank(cfg), n)
        want = reference_adjoint(y, cfg, n)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_adjoint_bytes_equal_bincount_overlap_add(self, cfg, n):
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(n + 1)
        shape = (cfg.n_bins, n_frames(n, cfg.hop))
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        y[:, 1] = 0.0  # a silent frame adds signed zeros
        assert _adjoint_cqt(y, fb, n).tobytes() == bincount_adjoint(y, fb, n).tobytes()

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_products_match_dense_matrix(self, cfg, n):
        """The octave row products of the forward and the shell frame
        products of the adjoint are those of the dense kernel matrix."""
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(n + 2)
        x = rng.normal(size=n)
        got, want = forward_cqt(x, fb), dense_forward(x, fb)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        shape = (cfg.n_bins, n_frames(n, cfg.hop))
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got, want = _adjoint_frames(y, fb), dense_adjoint_frames(y, fb)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_adjoint_identity(self, cfg):
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(2)
        for n in (fb.max_window, 4000, 4001):
            x = rng.normal(size=n)
            shape = (cfg.n_bins, n_frames(n, cfg.hop))
            y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            lhs = np.real(np.vdot(y, forward_cqt(x, fb)))  # Re<Ax, y>
            rhs = x @ _adjoint_cqt(y, fb, n)               # <x, A*y>
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_dtype_follows_data(self, cfg):
        fb = design_filterbank(cfg)
        x = np.random.default_rng(5).normal(size=4000)
        for real, cplx in ((np.float32, np.complex64), (np.float64, np.complex128)):
            grid = forward_cqt(x.astype(real), fb)
            assert grid.dtype == cplx
            assert _adjoint_frames(grid, fb).dtype == real
            assert _adjoint_cqt(grid, fb, x.size).dtype == real
        # anything else is float64, as in tensor
        assert forward_cqt(x.astype(np.float16), fb).dtype == np.complex128

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_float32_matches_per_bin_loop(self, cfg, n):
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(n + 3)
        x = rng.normal(size=n)
        want = reference_forward(x, cfg)
        got = forward_cqt(x.astype(np.float32), fb)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        shape = (cfg.n_bins, n_frames(n, cfg.hop))
        y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = reference_adjoint(y, cfg, n)
        got = _adjoint_cqt(y.astype(np.complex64), fb, n)
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_float32_adjoint_identity(self, cfg):
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(6)
        for n in (fb.max_window, 4000, 4001):
            x = rng.normal(size=n).astype(np.float32)
            shape = (cfg.n_bins, n_frames(n, cfg.hop))
            y = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
            # the two products in float64, so only the operators round in float32
            lhs = np.real(np.vdot(y, forward_cqt(x, fb).astype(np.complex128)))
            rhs = x.astype(np.float64) @ _adjoint_cqt(y, fb, n)
            assert abs(lhs - rhs) <= 1e-5 * abs(lhs)

    @pytest.mark.parametrize("n", [4000, 4001])
    def test_float32_adjoint_bytes_equal_add_at_overlap_add(self, cfg, n):
        fb = design_filterbank(cfg)
        rng = np.random.default_rng(n + 4)
        shape = (cfg.n_bins, n_frames(n, cfg.hop))
        y = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(np.complex64)
        y[:, 1] = 0.0
        got = _adjoint_cqt(y, fb, n)
        assert got.dtype == np.float32
        assert got.tobytes() == bincount_adjoint(y, fb, n).tobytes()


class TestCompression:
    def test_zero_maps_to_zero(self, config):
        spec = compress(np.zeros((2, 2), dtype=complex), config)
        np.testing.assert_array_equal(spec.values, 0.0)

    def test_round_trip(self, config):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        spec = compress(z, config)
        np.testing.assert_allclose(decompress(spec.values), np.abs(z), atol=1e-12)

    def test_monotone(self, config):
        mags = np.array([[0.0, 0.1, 0.5, 2.0]])
        values = compress(mags.astype(complex), config).values
        assert (np.diff(values) > 0).all()

    def test_values_nonnegative(self, config, filterbank):
        spec = compress(forward_cqt(tone(220.0), filterbank), config)
        assert (spec.values >= 0).all()

    def test_dtype_follows_data(self, config):
        z = np.array([[0.5 + 1j, 0.0]])
        assert compress(z, config).values.dtype == np.float64
        assert compress(z.astype(np.complex64), config).values.dtype == np.float32
        for values, dtype in ((np.ones((2, 2), np.float32), np.float32),
                              (np.ones((2, 2)), np.float64),
                              (np.ones((2, 2), np.float16), np.float64),
                              (np.ones((2, 2), np.int64), np.float64)):
            spec = Spectrogram(values, config)
            assert spec.values.dtype == dtype
            assert decompress(spec.values).dtype == dtype


class TestInverse:
    def test_sine_round_trip(self, filterbank, config):
        sig = tone(filterbank.center_frequencies[15]) * np.hanning(4000)
        spec = compress(forward_cqt(sig, filterbank), config)
        audio, errors = inverse_cqt(spec, filterbank, iterations=50,
                                    signal_length=4000, return_errors=True)
        assert errors[-1] < 0.15
        assert errors[-1] <= errors[0]

    def test_errors_non_increasing(self, filterbank, config):
        sig = tone(330.0) * np.hanning(4000)
        spec = compress(forward_cqt(sig, filterbank), config)
        _, errors = inverse_cqt(spec, filterbank, iterations=12,
                                signal_length=4000, return_errors=True)
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    def test_zero_spectrogram(self, filterbank, config):
        spec = Spectrogram(np.zeros((config.n_bins, 20)), config)
        audio = inverse_cqt(spec, filterbank, iterations=2, signal_length=1250)
        np.testing.assert_array_equal(audio, 0.0)

    def test_signal_shorter_than_kernel_rejected(self, filterbank, config):
        spec = compress(forward_cqt(tone(220.0), filterbank), config)
        with pytest.raises(SignalLengthError, match="500"):
            inverse_cqt(spec, filterbank, iterations=1, signal_length=500)

    def test_frame_count_mismatch_rejected(self, filterbank, config):
        spec = compress(forward_cqt(tone(220.0), filterbank), config)
        with pytest.raises(SignalLengthError, match="63 frames"):
            inverse_cqt(spec, filterbank, iterations=1, signal_length=5000)

    def test_bin_count_mismatch_rejected(self, filterbank, config):
        spec = Spectrogram(np.ones((10, 63)), config)
        with pytest.raises(CqtConfigError, match="10 bins.* 48"):
            inverse_cqt(spec, filterbank, iterations=1, signal_length=4000)

    def test_float32_silent_tail_ends_as_float64(self, filterbank, config):
        """A float32 spectrogram whose tail is silent leaves exact zeros in
        the analysis; the magnitude floor must not turn them into NaN."""
        n = 8000
        values = compress(forward_cqt(tone(220.0, n=n), filterbank), config).values
        values[:, 60:] = 0.0
        errors = {}
        for dtype in (np.float64, np.float32):
            spec = Spectrogram(values.astype(dtype), config)
            audio, errors[dtype] = inverse_cqt(spec, filterbank, iterations=5,
                                               signal_length=n, return_errors=True)
            assert audio.dtype == np.float64 and np.isfinite(audio).all()
        assert errors[np.float64][-1] < 0.5
        np.testing.assert_allclose(errors[np.float32], errors[np.float64], rtol=0, atol=1e-4)

    def test_iterations_must_be_positive(self, filterbank, config):
        spec = Spectrogram(np.zeros((config.n_bins, 20)), config)
        with pytest.raises(ValueError):
            inverse_cqt(spec, filterbank, iterations=0, signal_length=1250)


class TestSolver:
    @pytest.fixture
    def problem(self, filterbank, config):
        """An inconsistent grid (no signal analyses to it) and a warm start."""
        rng = np.random.default_rng(4)
        shape = (config.n_bins, n_frames(4000, config.hop))
        grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return grid, rng.normal(size=4000)

    def test_matches_normal_equation_cg(self, filterbank, problem):
        grid, x0 = problem
        got, _ = _lsq_synthesize(grid, filterbank, x0, forward_cqt(x0, filterbank), 40)
        want = normal_equation_cg(grid, filterbank, x0, 40)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("steps", [1, 3, 40])
    def test_returns_analysis_of_its_audio(self, filterbank, problem, steps):
        grid, x0 = problem
        x, ax = _lsq_synthesize(grid, filterbank, x0, forward_cqt(x0, filterbank), steps)
        want = forward_cqt(x, filterbank)
        assert np.linalg.norm(ax - want) <= 1e-10 * np.linalg.norm(want)

    def test_consistent_grid_stops_at_its_signal(self, filterbank):
        x = tone(220.0)
        grid = forward_cqt(x, filterbank)
        got, ax = _lsq_synthesize(grid, filterbank, x, grid, 3)
        np.testing.assert_array_equal(got, x)
        np.testing.assert_array_equal(ax, grid)


class TestFastGriffinLim:
    def test_criterion_4_utterances_within_0_07_at_50_iterations(self, filterbank, config):
        for spec, n in criterion_4_spectrograms(config, filterbank):
            audio, errors = inverse_cqt(spec, filterbank, iterations=50, signal_length=n,
                                        return_errors=True)
            assert errors[-1] < 0.07
            # the reported error is that of the returned audio, measured afresh,
            # not the solver's running analysis carried across 50 rounds
            target = decompress(spec.values)
            measured = (np.linalg.norm(np.abs(forward_cqt(audio, filterbank)) - target)
                        / np.linalg.norm(target))
            assert measured == pytest.approx(errors[-1], rel=1e-9)

    def test_beats_plain_update_at_10_iterations(self, filterbank, config, monkeypatch):
        def final_errors():
            return [inverse_cqt(spec, filterbank, iterations=10, signal_length=n,
                                return_errors=True)[1][-1]
                    for spec, n in criterion_4_spectrograms(config, filterbank)]
        fast = final_errors()
        monkeypatch.setattr(cqt, "FGLA_ALPHA", 0.0)
        plain = final_errors()
        assert all(f < p for f, p in zip(fast, plain)), (fast, plain)

    @pytest.mark.parametrize("iterations", [10, 50])
    def test_same_final_errors_as_dense_operator(self, filterbank, config, monkeypatch,
                                                 iterations):
        def final_errors():
            return [inverse_cqt(spec, filterbank, iterations=iterations, signal_length=n,
                                return_errors=True)[1][-1] for spec, n in specs]
        specs = list(criterion_4_spectrograms(config, filterbank))
        sparse = final_errors()
        # the adjoint keeps its overlap-add and takes the dense frame products
        monkeypatch.setattr(cqt, "forward_cqt", dense_forward)
        monkeypatch.setattr(cqt, "_adjoint_frames", dense_adjoint_frames)
        dense = final_errors()
        assert sparse == pytest.approx(dense, rel=1e-9, abs=0)


def loop_estimate_f0(spec):
    """estimate_f0 as a per-frame, per-bin loop: the oracle of the
    vectorised estimator."""
    values = spec.values
    bins = []
    for t in range(values.shape[1]):
        frame = values[:, t]
        peak = frame.max()
        if peak < cqt.SILENCE_THRESHOLD:
            continue
        for k in range(frame.size):
            lo = frame[k - 1] if k > 0 else -np.inf
            hi = frame[k + 1] if k < frame.size - 1 else -np.inf
            if frame[k] > lo and frame[k] >= hi and frame[k] >= cqt.PEAK_FRACTION * peak:
                bins.append(k)
                break
    if not bins:
        return None
    return spec.config.center_frequency(int(np.median(bins)))


def f0_grids():
    """(name, values): random grids, grids of few levels (plateaus and ties),
    grids with silent frames and with NaN, from one bin up to the default 48."""
    rng = np.random.default_rng(11)
    for bins, frames in ((48, 64), (16, 7), (5, 9), (2, 4), (1, 5), (3, 1)):
        yield f"random_{bins}x{frames}", rng.random((bins, frames))
        yield f"levels_{bins}x{frames}", rng.integers(0, 3, (bins, frames)) / 2.0
        quiet = rng.random((bins, frames))
        quiet[:, ::2] *= 1e-7
        yield f"silent_frames_{bins}x{frames}", quiet
        nan = rng.random((bins, frames))
        nan[rng.integers(bins), ::3] = np.nan
        yield f"nan_{bins}x{frames}", nan
    yield "silent", np.zeros((48, 64))
    at_threshold = rng.random((6, 4)) * cqt.SILENCE_THRESHOLD
    at_threshold[3, :2] = cqt.SILENCE_THRESHOLD
    yield "peak_at_silence_threshold", at_threshold
    yield "all_nan", np.full((48, 64), np.nan)
    yield "inf", np.where(rng.random((8, 6)) < 0.2, np.inf, rng.random((8, 6)))
    yield "neg_inf", np.where(rng.random((8, 6)) < 0.3, -np.inf, rng.random((8, 6)))
    # two frames whose peak is float32(SILENCE_THRESHOLD): below the threshold
    # in float64, so silent, and equal to it in float32
    at_float32 = np.zeros((6, 4))
    at_float32[3, :2] = np.float32(cqt.SILENCE_THRESHOLD)
    at_float32[1, 2:] = 1.0
    yield "peak_at_float32_silence_threshold", at_float32


def f0_cases():
    """Each of f0_grids in float64, under pytest's own ids, then in float32."""
    grids = list(f0_grids())
    return ([pytest.param(name, values, id=f"{name}-values{i}")
             for i, (name, values) in enumerate(grids)]
            + [pytest.param(name, values.astype(np.float32), id=f"{name}-float32")
               for name, values in grids])


class TestEstimateF0:
    @pytest.mark.parametrize("name, values", f0_cases())
    def test_same_as_loop(self, config, name, values):
        """A float32 grid gives the loop's answer on its float64 copy."""
        want = loop_estimate_f0(Spectrogram(values.astype(np.float64), config))
        assert estimate_f0(Spectrogram(values, config)) == want

    def test_harmonic_tone(self, filterbank, config):
        sig = (tone(200.0) + 0.6 * tone(400.0) + 0.4 * tone(600.0)) / 2
        spec = compress(forward_cqt(sig, filterbank), config)
        f0 = estimate_f0(spec)
        got_bin = frequency_to_bin(f0, config)
        want_bin = frequency_to_bin(200.0, config)
        assert abs(got_bin - want_bin) <= 1

    def test_pure_sine_exact_bin(self, filterbank, config):
        k = 18
        spec = compress(forward_cqt(tone(filterbank.center_frequencies[k]),
                                    filterbank), config)
        assert estimate_f0(spec) == pytest.approx(config.center_frequency(k))

    def test_silence(self, filterbank, config):
        spec = compress(forward_cqt(np.zeros(4000), filterbank), config)
        assert estimate_f0(spec) is None


def test_cli_convert_d_wav_same_as_with_bincount_adjoint(tmp_path, monkeypatch):
    """CLI convert at griffin_lim_iters = 10 writes the d.wav bytes that the
    bincount overlap-add gives."""
    config = tmp_path / "tiny.cfg"
    config.write_text("version = 1\nbins_per_octave = 4\nn_bins = 16\nhop = 256\n"
                      "variants_per_cell = 3\nn_words = 2\nsteps = 2\nbatch_size = 4\n"
                      "griffin_lim_iters = 10\n")
    out = tmp_path / "run"
    run = ["--config", str(config), "--out", str(out)]
    assert cli.main(run + ["gen-data"]) == 0
    assert cli.main(run + ["train", str(out / "corpus.bin")]) == 0
    samples = out / "samples"
    inputs = [str(out / "final_checkpoint.bin"), str(out / "corpus.bin"),
              str(samples / "speaker0_red.wav"), str(samples / "speaker1_red.wav"),
              str(samples / "speaker0_blue.wav")]
    assert cli.main(run + ["convert", *inputs, str(out / "slices.wav")]) == 0
    monkeypatch.setattr(cqt, "_adjoint_cqt", bincount_adjoint)
    assert cli.main(run + ["convert", *inputs, str(out / "bincount.wav")]) == 0
    assert (out / "slices.wav").read_bytes() == (out / "bincount.wav").read_bytes()


def test_cli_convert_audio_floats_same_as_float32_oracle(tmp_path, monkeypatch):
    """The audio inverse_cqt returns in CLI convert, float32 values before
    16-bit PCM rounds them, has the bytes that the float32 bincount
    overlap-add gives with the generator's leaky ReLU on copies instead of
    in place."""
    config = tmp_path / "tiny.cfg"
    config.write_text("version = 1\nbins_per_octave = 4\nn_bins = 16\nhop = 256\n"
                      "variants_per_cell = 3\nn_words = 2\nsteps = 2\nbatch_size = 4\n"
                      "griffin_lim_iters = 10\n")
    out = tmp_path / "run"
    run = ["--config", str(config), "--out", str(out)]
    assert cli.main(run + ["gen-data"]) == 0
    assert cli.main(run + ["train", str(out / "corpus.bin")]) == 0
    samples = out / "samples"
    inputs = [str(out / "final_checkpoint.bin"), str(out / "corpus.bin"),
              str(samples / "speaker0_red.wav"), str(samples / "speaker1_red.wav"),
              str(samples / "speaker0_blue.wav")]
    audio = []

    def recorded(*args, **kwargs):
        audio.append(inverse_cqt(*args, **kwargs))
        return audio[-1]
    monkeypatch.setattr(cqt, "inverse_cqt", recorded)
    assert cli.main(run + ["convert", *inputs, str(out / "d.wav")]) == 0
    leaky_relu = Tensor.leaky_relu
    monkeypatch.setattr(Tensor, "leaky_relu",
                        lambda self, alpha=0.2, in_place=False: leaky_relu(self, alpha))
    monkeypatch.setattr(cqt, "_adjoint_cqt", bincount_adjoint)
    assert cli.main(run + ["convert", *inputs, str(out / "oracle.wav")]) == 0
    assert len(audio) == 2
    for a in audio:
        assert np.array_equal(a.astype(np.float32), a) and a.std() > 0
    assert audio[0].tobytes() == audio[1].tobytes()


def test_cli_convert_analyses_in_float64_and_inverts_in_float32(tmp_path, monkeypatch):
    """CLI convert analyses a, b and c in float64 and runs every apply of its
    phase recovery on the generator's float32 output in float32."""
    config = tmp_path / "tiny.cfg"
    config.write_text("version = 1\nbins_per_octave = 4\nn_bins = 16\nhop = 256\n"
                      "variants_per_cell = 3\nn_words = 2\nsteps = 2\nbatch_size = 4\n"
                      "griffin_lim_iters = 4\n")
    out = tmp_path / "run"
    run = ["--config", str(config), "--out", str(out)]
    assert cli.main(run + ["gen-data"]) == 0
    assert cli.main(run + ["train", str(out / "corpus.bin")]) == 0
    samples = out / "samples"
    inputs = [str(out / "final_checkpoint.bin"), str(out / "corpus.bin"),
              str(samples / "speaker0_red.wav"), str(samples / "speaker1_red.wav"),
              str(samples / "speaker0_blue.wav")]
    applies = []  # (apply, inside inverse_cqt, input dtype, output dtype)
    inside = []

    def recorded(name, fn):
        def apply(data, *args):
            out = fn(data, *args)
            applies.append((name, bool(inside), data.dtype.name, out.dtype.name))
            return out
        return apply

    def inverse(*args, **kwargs):
        inside.append(True)
        try:
            return inverse_cqt(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(cqt, "forward_cqt", recorded("forward", forward_cqt))
    monkeypatch.setattr(cqt, "_adjoint_cqt", recorded("adjoint", _adjoint_cqt))
    monkeypatch.setattr(cqt, "inverse_cqt", inverse)
    assert cli.main(run + ["convert", *inputs, str(out / "d.wav")]) == 0
    outside = [a for a in applies if not a[1]]
    assert outside == [("forward", False, "float64", "complex128")] * 3
    within = [a for a in applies if a[1]]
    assert len(within) == 2 * 4 * cqt.CG_ITERATIONS
    assert set(within) == {("forward", True, "float32", "complex64"),
                           ("adjoint", True, "complex64", "float32")}
