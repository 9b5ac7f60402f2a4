import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voiceanalogy.corpus import (AnalogyQuadruple, CorpusConfigError, SpeakerProfile,
                                 Utterance, WavFormatError, WordProfile, build_corpus,
                                 corpus_from_bytes, corpus_to_bytes, make_speakers,
                                 make_words, sample_quadruple, synth_utterance,
                                 wav_read, wav_write)
from voiceanalogy.cqt import (CqtConfig, compress, design_filterbank, estimate_f0,
                              forward_cqt, frequency_to_bin)


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(2, 2, 5, seed=7)


class TestProfiles:
    def test_speaker_f0_range_enforced(self):
        with pytest.raises(CorpusConfigError):
            SpeakerProfile(0, 500.0, 1.0, 5.0, 0.01)

    def test_word_needs_formants(self):
        with pytest.raises(CorpusConfigError):
            WordProfile(0, "x", (), ((0.0, 0.0), (1.0, 0.0)))

    def test_word_envelope_endpoints(self):
        with pytest.raises(CorpusConfigError):
            WordProfile(0, "x", ((500.0, 100.0, 1.0),), ((0.0, 0.5), (1.0, 0.0)))

    def test_speakers_log_spaced_endpoints(self):
        speakers = make_speakers(2)
        assert speakers[0].f0 == pytest.approx(130.0)
        assert speakers[1].f0 == pytest.approx(260.0)

    def test_color_word_names(self):
        names = [w.name for w in make_words(4)]
        assert names == ["red", "blue", "green", "white"]

    def test_procedural_words_beyond_four(self):
        words = make_words(6, seed=3)
        assert len(words) == 6
        assert all(w.formants for w in words)


class TestSynthesis:
    def test_deterministic(self):
        s = make_speakers(2)[0]
        w = make_words(4)[1]
        a = synth_utterance(s, w, seed=11)
        b = synth_utterance(s, w, seed=11)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_seed_changes_output(self):
        s = make_speakers(2)[0]
        w = make_words(4)[1]
        a = synth_utterance(s, w, seed=11)
        b = synth_utterance(s, w, seed=12)
        assert a.samples.tobytes() != b.samples.tobytes()

    def test_endpoints_silent(self):
        u = synth_utterance(make_speakers(2)[1], make_words(4)[2], seed=0)
        assert u.samples[0] == 0.0
        assert u.samples[-1] == 0.0

    def test_peak_bounded(self):
        u = synth_utterance(make_speakers(2)[0], make_words(4)[0], seed=5)
        assert np.abs(u.samples).max() <= 1.0

    def test_duration(self):
        u = synth_utterance(make_speakers(2)[0], make_words(4)[0], seed=5)
        assert u.samples.size == 4000

    def test_f0_recoverable_via_cqt(self):
        cfg = CqtConfig()
        fb = design_filterbank(cfg)
        for speaker in make_speakers(2):
            u = synth_utterance(speaker, make_words(4)[0], seed=1)
            spec = compress(forward_cqt(u.samples, fb), cfg)
            f0 = estimate_f0(spec)
            assert f0 is not None
            assert abs(frequency_to_bin(f0, cfg)
                       - frequency_to_bin(speaker.f0, cfg)) <= 1


class TestBuildCorpus:
    def test_counts(self):
        corpus = build_corpus(2, 4, 3, seed=0)
        assert len(corpus.utterances) == 24
        assert len(corpus.spectrograms) == 24

    def test_default_cell_count(self, small_corpus):
        assert len(small_corpus.utterances) == 2 * 2 * 5

    def test_byte_identical_rebuild(self):
        a = corpus_to_bytes(build_corpus(2, 2, 2, seed=42))
        b = corpus_to_bytes(build_corpus(2, 2, 2, seed=42))
        assert a == b

    def test_too_small_rejected(self):
        with pytest.raises(CorpusConfigError):
            build_corpus(1, 4, 2, seed=0)
        with pytest.raises(CorpusConfigError):
            build_corpus(2, 1, 2, seed=0)

    def test_one_variant_rejected(self):
        # one variant per cell puts every variant in the holdout range
        with pytest.raises(CorpusConfigError, match="variants per cell"):
            build_corpus(2, 2, 1, seed=0)

    def test_container_round_trip(self, small_corpus):
        blob = corpus_to_bytes(small_corpus)
        loaded = corpus_from_bytes(blob)
        assert corpus_to_bytes(loaded) == blob
        assert loaded.n_speakers == small_corpus.n_speakers
        np.testing.assert_array_equal(loaded.spectrograms[0].values,
                                      small_corpus.spectrograms[0].values)

    def test_speakers_separable_by_f0(self, small_corpus):
        cfg = small_corpus.cqt_config
        bins = {s.id: set() for s in small_corpus.speakers}
        for utt, spec in zip(small_corpus.utterances, small_corpus.spectrograms):
            f0 = estimate_f0(spec)
            bins[utt.speaker_id].add(frequency_to_bin(f0, cfg))
        assert not (bins[0] & bins[1])

    def test_words_separable_by_centroid(self):
        corpus = build_corpus(2, 4, 10, seed=0)
        cells = {}
        for utt, spec in zip(corpus.utterances, corpus.spectrograms):
            cells.setdefault((utt.speaker_id, utt.word_id),
                             []).append(spec.values.mean(axis=1))
        # first 7 variants of every (speaker, word) cell train the centroids
        centroids = {}
        for w in range(corpus.n_words):
            vecs = [v for (_, word), vs in cells.items() if word == w for v in vs[:7]]
            centroids[w] = np.mean(vecs, axis=0)
        total = correct = 0
        for (_, w), vecs in cells.items():
            for vec in vecs[7:]:
                pred = min(centroids, key=lambda c: np.linalg.norm(vec - centroids[c]))
                correct += pred == w
                total += 1
        assert correct / total > 0.9


class TestSampleQuadruple:
    def test_invariants_every_draw(self, small_corpus):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = sample_quadruple(small_corpus, rng)
            assert q.speaker_a != q.target_speaker
            assert q.word_a != q.target_word
            assert isinstance(q, AnalogyQuadruple)

    def test_reproducible(self, small_corpus):
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            q = sample_quadruple(small_corpus, rng)
            draws.append((q.speaker_a, q.target_speaker, q.word_a, q.target_word,
                          q.a.values.tobytes()))
        assert draws[0] == draws[1]

    def test_d_pair_frequencies_uniform(self):
        corpus = build_corpus(2, 4, 5, seed=1)
        rng = np.random.default_rng(2)
        n = 10_000
        counts = np.zeros((2, 4))
        for _ in range(n):
            q = sample_quadruple(corpus, rng)
            counts[q.target_speaker, q.target_word] += 1
        p = 1.0 / 8
        sigma = np.sqrt(n * p * (1 - p))
        assert (np.abs(counts - n * p) < 3 * sigma).all()


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-1.0, 1.0, size=4000)
        path = tmp_path / "clip.wav"
        wav_write(Utterance(0, 0, samples, 8000, 0), path)
        loaded = wav_read(path)
        assert loaded.sample_rate == 8000
        assert np.abs(loaded.samples - samples).max() <= 2 ** -15

    def test_data_chunk_size(self, tmp_path):
        path = tmp_path / "clip.wav"
        wav_write(Utterance(0, 0, np.zeros(4000), 8000, 0), path)
        raw = path.read_bytes()
        assert len(raw) == 44 + 8000
        idx = raw.index(b"data")
        assert raw[idx + 4:idx + 8] == (8000).to_bytes(4, "little")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(WavFormatError):
            wav_read(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError, match="byte 0"):
            wav_read(path)

    def test_unsupported_encoding(self, tmp_path):
        src = tmp_path / "ok.wav"
        wav_write(Utterance(0, 0, np.zeros(100), 8000, 0), src)
        raw = bytearray(src.read_bytes())
        raw[22] = 2  # stereo
        bad = tmp_path / "stereo.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(WavFormatError, match="unsupported"):
            wav_read(bad)

    def test_odd_length_data_chunk_rejected(self, tmp_path):
        # the pad byte keeps the file length, so only the size field is odd
        path = tmp_path / "odd.wav"
        wav_write(Utterance(0, 0, np.zeros(4000), 8000, 0), path)
        raw = bytearray(path.read_bytes())
        idx = raw.index(b"data")
        raw[idx + 4:idx + 8] = (7999).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(WavFormatError, match=f"odd length 7999 \\(at byte {idx}\\)"):
            wav_read(path)

    def test_overscale_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            wav_write(Utterance(0, 0, np.array([1.5]), 8000, 0), tmp_path / "x.wav")


@pytest.fixture(scope="module")
def wav_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "valid.wav"
    wav_write(Utterance(0, 0, np.sin(np.arange(400) / 7.0), 8000, 0), path)
    return path.read_bytes()


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_damaged_wav_reads_or_raises_typed_error(wav_blob, tmp_path_factory, data):
    """Cut a valid WAV at any offset or overwrite any one byte (half the draws
    in the 44-byte header): wav_read returns an Utterance or WavFormatError."""
    limit = data.draw(st.sampled_from([44, len(wav_blob)]))
    pos = data.draw(st.integers(0, limit - 1))
    if data.draw(st.booleans()):
        damaged = wav_blob[:pos]
    else:
        damaged = wav_blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + wav_blob[pos + 1:]
    path = tmp_path_factory.getbasetemp() / "damaged.wav"
    path.write_bytes(damaged)
    try:
        assert isinstance(wav_read(path), Utterance)
    except WavFormatError:
        pass
