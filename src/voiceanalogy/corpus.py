"""Synthetic multi-speaker, multi-word corpus with known ground truth.

Speakers are harmonic voices separated by fundamental frequency; words
are formant patterns plus amplitude envelopes. Everything is a pure
function of the corpus seed, so training targets are measurable.
"""

import io
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import container
from .cqt import CqtConfig, Spectrogram, compress, design_filterbank, forward_cqt, n_frames
from .typecheck import check_field_types, from_metadata

UTTERANCE_SECONDS = 0.5
SPEAKER_F0_RANGE = (130.0, 260.0)  # Hz, lowest and highest speaker fundamental
MAX_SYNTH_FREQ = 1600.0  # keep partials inside the default CQT range
CORPUS_MAGIC = b"AVCORP\x00"
CORPUS_VERSION = 3


class CorpusConfigError(ValueError):
    pass


class WavFormatError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class SpeakerProfile:
    id: int
    f0: float
    harmonic_rolloff: float
    vibrato_rate: float
    vibrato_depth: float

    def __post_init__(self):
        if not 110.0 <= self.f0 <= 440.0:
            raise CorpusConfigError(f"speaker f0 {self.f0} outside [110, 440] Hz")


@dataclass(frozen=True)
class WordProfile:
    id: int
    name: str
    formants: tuple  # (center_hz, bandwidth_hz, gain) triples
    envelope: tuple  # (time_fraction, amplitude) breakpoints, endpoints at 0

    def __post_init__(self):
        if not self.formants:
            raise CorpusConfigError(f"word {self.name!r} has no formants")
        env = self.envelope
        if env[0][1] != 0.0 or env[-1][1] != 0.0:
            raise CorpusConfigError(f"word {self.name!r} envelope must start and end at 0")


@dataclass
class Utterance:
    speaker_id: int
    word_id: int
    samples: np.ndarray
    sample_rate: int
    variant_seed: int


@dataclass
class AnalogyQuadruple:
    """a:b :: c:d with speaker varying a->b and word varying a->c; b and d
    are spoken by target_speaker, c and d say target_word."""

    a: Spectrogram
    b: Spectrogram
    c: Spectrogram
    d: Spectrogram
    speaker_a: int
    target_speaker: int
    word_a: int
    target_word: int


# Formant presets for the four color words; distinct spectral envelopes
# plus distinct temporal envelopes keep the words separable.
_COLOR_WORDS = [
    ("red", ((700.0, 250.0, 2.5), (1200.0, 350.0, 1.2)),
     ((0.0, 0.0), (0.1, 1.0), (0.7, 0.8), (1.0, 0.0))),
    ("blue", ((320.0, 150.0, 3.0), (900.0, 300.0, 0.8)),
     ((0.0, 0.0), (0.45, 1.0), (0.9, 0.9), (1.0, 0.0))),
    ("green", ((450.0, 180.0, 2.2), (1450.0, 400.0, 1.8)),
     ((0.0, 0.0), (0.15, 1.0), (0.45, 0.35), (0.65, 1.0), (1.0, 0.0))),
    ("white", ((1000.0, 350.0, 2.8), (550.0, 200.0, 1.0)),
     ((0.0, 0.0), (0.3, 0.6), (0.55, 1.0), (0.8, 0.5), (1.0, 0.0))),
]


def make_speakers(n_speakers):
    """Log-spaced fundamentals over SPEAKER_F0_RANGE."""
    if n_speakers < 2:
        raise CorpusConfigError("need at least 2 speakers")
    f0s = np.exp(np.linspace(*np.log(SPEAKER_F0_RANGE), n_speakers))
    speakers = []
    for i, f0 in enumerate(f0s):
        speakers.append(SpeakerProfile(
            id=i,
            f0=float(f0),
            harmonic_rolloff=0.7 + 0.15 * (i % 3),
            vibrato_rate=4.5 + 0.7 * i,
            vibrato_depth=0.008,
        ))
    return speakers


def make_words(n_words, seed=0):
    """The four color presets, then procedurally generated patterns."""
    if n_words < 2:
        raise CorpusConfigError("need at least 2 words")
    words = []
    for i in range(min(n_words, len(_COLOR_WORDS))):
        name, formants, envelope = _COLOR_WORDS[i]
        words.append(WordProfile(i, name, formants, envelope))
    rng = np.random.default_rng(seed ^ 0x5EED)
    for i in range(len(_COLOR_WORDS), n_words):
        formants = tuple(
            (float(rng.uniform(300.0, 1400.0)), float(rng.uniform(150.0, 400.0)),
             float(rng.uniform(1.0, 3.0)))
            for _ in range(2))
        attack = float(rng.uniform(0.08, 0.45))
        release = float(rng.uniform(0.55, 0.92))
        envelope = ((0.0, 0.0), (attack, 1.0), (release, float(rng.uniform(0.4, 1.0))),
                    (1.0, 0.0))
        words.append(WordProfile(i, f"word{i}", formants, envelope))
    return words


def _formant_gain(freq, formants):
    gain = 1.0
    for center, bandwidth, g in formants:
        gain += g * np.exp(-((freq - center) / bandwidth) ** 2)
    return gain


def clip_samples(sample_rate):
    """Samples in one utterance of UTTERANCE_SECONDS at `sample_rate`."""
    return int(round(UTTERANCE_SECONDS * sample_rate))


def synth_utterance(speaker, word, seed, sample_rate=8000):
    """Deterministic harmonic synthesis of one 0.5 s utterance."""
    rng = np.random.default_rng((seed * 0x9E3779B1 + speaker.id * 131 + word.id) & 0xFFFFFFFF)
    n = clip_samples(sample_rate)
    f0 = speaker.f0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    t = np.arange(n) / sample_rate

    inst_freq = f0 * (1.0 + speaker.vibrato_depth
                      * np.sin(2.0 * np.pi * speaker.vibrato_rate * t))
    phase = 2.0 * np.pi * np.cumsum(inst_freq) / sample_rate

    x = np.zeros(n)
    h = 1
    while h * f0 * (1.0 + speaker.vibrato_depth) < MAX_SYNTH_FREQ and h <= 8:
        amp = h ** (-speaker.harmonic_rolloff) * _formant_gain(h * f0, word.formants)
        x += amp * np.sin(h * phase)
        h += 1

    times = np.array([p[0] for p in word.envelope])
    amps = np.array([p[1] for p in word.envelope])
    warped = times.copy()
    jitter = 0.05 * rng.uniform(-1.0, 1.0, size=times.size - 2)
    warped[1:-1] = np.clip(times[1:-1] + jitter, 0.0, 1.0)
    warped[1:-1].sort()
    env = np.interp(np.arange(n) / (n - 1), warped, amps)
    x *= env

    peak = np.abs(x).max()
    if peak > 0:
        x *= 0.9 / peak
    return Utterance(speaker.id, word.id, x, sample_rate, seed)


@dataclass
class CorpusHeader:
    """What a corpus file's header says: enough to check a checkpoint
    against the corpus and to analyse new clips, without its arrays."""

    cqt_config: CqtConfig
    seed: int
    variants_per_cell: int
    speakers: list
    words: list

    @property
    def n_speakers(self):
        return len(self.speakers)

    @property
    def n_words(self):
        return len(self.words)

    @property
    def frames(self):
        """CQT frames in each clip's spectrogram."""
        return n_frames(clip_samples(self.cqt_config.sample_rate), self.cqt_config.hop)

    @property
    def holdout_start(self):
        """Variant indices at/above this are reserved for evaluation."""
        return self.variants_per_cell - max(1, self.variants_per_cell // 5)


@dataclass
class Corpus(CorpusHeader):
    utterances: list       # all cells, variant-major within a cell
    spectrograms: list     # parallel to utterances

    def index(self, speaker_id, word_id, variant):
        per_cell = self.variants_per_cell
        return ((speaker_id * self.n_words) + word_id) * per_cell + variant

    def spectrogram(self, speaker_id, word_id, variant):
        return self.spectrograms[self.index(speaker_id, word_id, variant)]


def _utterances(header):
    """(speaker, word, variant seed) of each utterance, in corpus order."""
    return [(s, w, header.seed * 1_000_003 + s.id * 10_007 + w.id * 101 + v)
            for s in header.speakers for w in header.words
            for v in range(header.variants_per_cell)]


def build_corpus(n_speakers, n_words, variants_per_cell, seed, cqt_config=None):
    if n_speakers < 2 or n_words < 2 or variants_per_cell < 2:
        # one variant per cell leaves no training variants below holdout_start
        raise CorpusConfigError("analogy quadruples need >= 2 speakers, >= 2 words "
                                f"and >= 2 variants per cell, got {n_speakers}, {n_words} "
                                f"and {variants_per_cell}")
    if cqt_config is None:
        cqt_config = CqtConfig()
    header = CorpusHeader(cqt_config, seed, variants_per_cell, make_speakers(n_speakers),
                          make_words(n_words, seed))
    filterbank = design_filterbank(cqt_config)
    samples = [synth_utterance(s, w, v, cqt_config.sample_rate).samples
               for s, w, v in _utterances(header)]
    return _corpus(header, {"samples": samples, "spectrograms": [
        compress(forward_cqt(x, filterbank), cqt_config).values for x in samples]})


def sample_quadruple(corpus, rng, holdout=False):
    """Uniform draw of speakers s1 != s2, words w1 != w2 and variants.

    a=(s1,w1), b=(s2,w1), c=(s1,w2), d=(s2,w2); labels of d are (w2, s2).
    """
    if corpus.n_speakers < 2 or corpus.n_words < 2:
        raise CorpusConfigError("corpus too small for quadruples")
    s1 = int(rng.integers(corpus.n_speakers))
    s2 = int(rng.integers(corpus.n_speakers - 1))
    if s2 >= s1:
        s2 += 1
    w1 = int(rng.integers(corpus.n_words))
    w2 = int(rng.integers(corpus.n_words - 1))
    if w2 >= w1:
        w2 += 1
    if holdout:
        lo, hi = corpus.holdout_start, corpus.variants_per_cell
    else:
        lo, hi = 0, corpus.holdout_start
    variants = rng.integers(lo, hi, size=4)
    return AnalogyQuadruple(
        a=corpus.spectrogram(s1, w1, int(variants[0])),
        b=corpus.spectrogram(s2, w1, int(variants[1])),
        c=corpus.spectrogram(s1, w2, int(variants[2])),
        d=corpus.spectrogram(s2, w2, int(variants[3])),
        speaker_a=s1, target_speaker=s2, word_a=w1, target_word=w2,
    )


# ---- WAV I/O (16-bit PCM mono) ----

def wav_write(utterance, path):
    samples = np.asarray(utterance.samples, dtype=np.float64)
    if np.abs(samples).max(initial=0.0) > 1.0:
        raise ValueError("samples exceed full scale; normalize before writing")
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    data = pcm.tobytes()
    with open(path, "wb") as f:
        f.write(b"RIFF")
        f.write(struct.pack("<I", 36 + len(data)))
        f.write(b"WAVE")
        f.write(b"fmt ")
        f.write(struct.pack("<IHHIIHH", 16, 1, 1, utterance.sample_rate,
                            utterance.sample_rate * 2, 2, 16))
        f.write(b"data")
        f.write(struct.pack("<I", len(data)))
        f.write(data)


def wav_read(path):
    with open(path, "rb") as f:
        raw = f.read()

    def need(offset, count, what):
        if offset + count > len(raw):
            raise WavFormatError(f"truncated file while reading {what}", offset)
        return raw[offset:offset + count]

    if need(0, 4, "RIFF tag") != b"RIFF":
        raise WavFormatError("not a RIFF file", 0)
    if need(8, 4, "WAVE tag") != b"WAVE":
        raise WavFormatError("not a WAVE file", 8)

    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = need(pos + 8, size, f"chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk too short", pos)
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk_id == b"data":
            if size % 2:
                raise WavFormatError(f"data chunk has odd length {size}", pos)
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise WavFormatError("missing fmt chunk", len(raw))
    if data is None:
        raise WavFormatError("missing data chunk", len(raw))
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1 or channels != 1 or bits != 16:
        raise WavFormatError(
            f"unsupported encoding (format={audio_format}, channels={channels}, bits={bits})")
    pcm = np.frombuffer(data, dtype="<i2")
    samples = pcm.astype(np.float64) / 32767.0
    return Utterance(-1, -1, samples, sample_rate, 0)


# ---- corpus container ----

def corpus_to_bytes(corpus):
    meta = {"cqt": asdict(corpus.cqt_config), "seed": corpus.seed,
            "variants_per_cell": corpus.variants_per_cell,
            "speakers": [asdict(s) for s in corpus.speakers],
            "words": [asdict(w) for w in corpus.words]}
    return container.pack(CORPUS_MAGIC, CORPUS_VERSION, meta, {
        "samples": [u.samples for u in corpus.utterances],
        "spectrograms": [s.values for s in corpus.spectrograms]})


def _read(f, prefixes):
    """(header, arrays) of the corpus container in the binary file `f`: the
    metadata, checked against every array entry, and the arrays whose names
    start with one of `prefixes`."""
    meta, entries, arrays = container.read(f, CORPUS_MAGIC, CORPUS_VERSION,
                                           CorpusConfigError, "corpus", prefixes)
    try:
        cfg = from_metadata(CqtConfig, meta["cqt"], "cqt")
        speakers = [from_metadata(SpeakerProfile, s, f"speakers[{i}]")
                    for i, s in enumerate(meta["speakers"])]
        words = [from_metadata(WordProfile, w, f"words[{i}]") for i, w in enumerate(meta["words"])]
        header = CorpusHeader(cfg, meta["seed"], meta["variants_per_cell"], speakers, words)
        check_field_types(header)
        if header.variants_per_cell < 2:
            raise ValueError(f"variants_per_cell must be >= 2, got {header.variants_per_cell}")
        if [p.id for p in speakers + words] != [*range(len(speakers)), *range(len(words))]:
            raise ValueError("speaker and word ids must count up from 0")
        n = len(speakers) * len(words) * header.variants_per_cell
        layout = {"samples": ("<f8", (n, clip_samples(cfg.sample_rate))),
                  "spectrograms": ("<f8", (n, cfg.n_bins, header.frames))}
    except container.MALFORMED as exc:
        raise CorpusConfigError(f"corpus: malformed metadata: {exc}") from None
    container.check_entries(entries, layout, CorpusConfigError, "corpus", "the header")
    return header, arrays


def _corpus(header, arrays):
    cfg = header.cqt_config
    utterances = [Utterance(s.id, w.id, x, cfg.sample_rate, v)
                  for (s, w, v), x in zip(_utterances(header), arrays["samples"])]
    return Corpus(**vars(header), utterances=utterances,
                  spectrograms=[Spectrogram(v, cfg) for v in arrays["spectrograms"]])


def corpus_from_bytes(blob):
    return _corpus(*_read(io.BytesIO(blob), ("",)))


def save_corpus(corpus, path):
    container.write_atomic(path, corpus_to_bytes(corpus))


def load_corpus(path):
    with open(path, "rb") as f:
        return _corpus(*_read(f, ("",)))


def load_corpus_header(path):
    """The checked header of the corpus at `path`, reading none of its arrays."""
    with open(path, "rb") as f:
        return _read(f, ())[0]
