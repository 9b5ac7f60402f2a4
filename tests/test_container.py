"""The named-array container behind corpus.bin and checkpoints.

The fuzz tests cut a valid file at any offset or overwrite any one byte:
the reader must then return a loaded object or raise its typed error.
"""

import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voiceanalogy import container
from voiceanalogy.corpus import (CORPUS_MAGIC, CORPUS_VERSION, CorpusConfigError, build_corpus,
                                 corpus_from_bytes, corpus_to_bytes, load_corpus,
                                 load_corpus_header, save_corpus)
from voiceanalogy.cqt import CqtConfig
from voiceanalogy.model import ModelConfig
from voiceanalogy.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError,
                                   Trainer, TrainConfig, load_checkpoint, read_checkpoint,
                                   save_checkpoint)

FUZZ = settings(max_examples=150, deadline=None, database=None)
# the message of a corpus array whose entry the header does not give
HEADER_NEEDS = r"corpus: (samples|spectrograms): file has float64 .*, the header needs float64 "
# the arrays `convert` and `eval` read from a checkpoint
INFERENCE_PREFIXES = {"convert": ("gen/",), "eval": ("gen/", "disc/")}


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(2, 2, 2, seed=1,
                        cqt_config=CqtConfig(bins_per_octave=4, n_bins=16, hop=256))


@pytest.fixture(scope="module")
def corpus_blob(corpus):
    return corpus_to_bytes(corpus)


@pytest.fixture(scope="module")
def checkpoint(corpus, tmp_path_factory):
    """(directory, bytes) of a checkpoint after one step, so Adam state is saved."""
    trainer = Trainer(corpus, TrainConfig(batch_size=4, steps=1),
                      ModelConfig(bins=16, frames=16, channels=(4, 6), latent=8,
                                  n_words=2, n_speakers=2))
    trainer.train_step()
    directory = tmp_path_factory.mktemp("checkpoint")
    return directory, save_checkpoint(trainer, directory / "valid.bin")


def damage(blob, magic, data):
    """`blob` cut at an offset or with one byte overwritten; half the draws
    land in the magic, version, length and JSON header."""
    header_end = len(magic) + 5 + int.from_bytes(blob[len(magic) + 1:len(magic) + 5],
                                                 "little")
    limit = data.draw(st.sampled_from([header_end + 16, len(blob)]))
    pos = data.draw(st.integers(0, limit - 1))
    if data.draw(st.booleans()):
        return blob[:pos]
    return blob[:pos] + bytes([data.draw(st.integers(0, 255))]) + blob[pos + 1:]


@FUZZ
@given(data=st.data())
def test_damaged_corpus_loads_or_raises_typed_error(corpus_blob, data):
    try:
        corpus_from_bytes(damage(corpus_blob, CORPUS_MAGIC, data))
    except CorpusConfigError:
        pass


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_typed_error(corpus, checkpoint, data):
    directory, blob = checkpoint
    path = directory / "damaged.bin"
    path.write_bytes(damage(blob, CHECKPOINT_MAGIC, data))
    try:
        load_checkpoint(path, corpus)
    except CheckpointError:
        pass


@FUZZ
@given(data=st.data())
def test_damaged_corpus_header_loads_or_raises_typed_error(corpus_blob, tmp_path_factory,
                                                           data):
    path = tmp_path_factory.getbasetemp() / "damaged_corpus.bin"
    path.write_bytes(damage(corpus_blob, CORPUS_MAGIC, data))
    try:
        load_corpus_header(path)
    except CorpusConfigError:
        pass


@pytest.mark.parametrize("command", INFERENCE_PREFIXES)
@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_inference_read_loads_or_raises_typed_error(corpus, checkpoint,
                                                                       command, data):
    directory, blob = checkpoint
    path = directory / f"damaged_{command}.bin"
    path.write_bytes(damage(blob, CHECKPOINT_MAGIC, data))
    try:
        read_checkpoint(path, corpus, INFERENCE_PREFIXES[command])
    except CheckpointError:
        pass


def test_read_gives_fresh_arrays_of_the_prefixes_asked_for():
    arrays = {"a/x": np.linspace(0, 1, 5), "a/empty": np.zeros((0, 4)),
              "b/y": np.arange(6, dtype=np.int64).reshape(2, 3)}
    blob = container.pack(b"TEST", 7, {"k": 1}, arrays)
    meta, entries, loaded = container.read(io.BytesIO(blob), b"TEST", 7, ValueError, "test",
                                           ("a/",))
    assert meta == {"k": 1}
    assert entries == {"a/empty": ("<f8", (0, 4)), "a/x": ("<f8", (5,)),
                       "b/y": ("<i8", (2, 3))}
    assert sorted(loaded) == ["a/empty", "a/x"]
    for name, arr in loaded.items():
        np.testing.assert_array_equal(arr, arrays[name])
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous
    assert container.read(io.BytesIO(blob), b"TEST", 7, ValueError, "test", ())[2] == {}


@pytest.mark.parametrize("prefixes", [("",), ("a/",), ("b/", "c/")])
def test_read_aligns_every_array_of_mixed_dtypes(prefixes):
    # in the file a float32 array of odd length leaves the next one misaligned
    rng = np.random.default_rng(0)
    arrays = {"a/f4_odd": rng.normal(size=3).astype("<f4"),
              "a/f8": rng.normal(size=(2, 3)),
              "b/f4_one": np.float32([1.5]), "b/i8": np.arange(5, dtype=np.int64),
              "c/f4_empty": np.zeros((0, 3), np.float32), "c/f4_5": np.ones(5, np.float32),
              "c/f8_scalar": np.array(2.5), "d/f4_7": np.arange(7, dtype=np.float32)}
    blob = container.pack(b"TEST", 7, {}, arrays)
    offsets = np.cumsum([0] + [arrays[name].nbytes for name in sorted(arrays)])
    assert any(offset % 8 for offset in offsets)
    _, _, loaded = container.read(io.BytesIO(blob), b"TEST", 7, ValueError, "test", prefixes)
    assert sorted(loaded) == sorted(name for name in arrays if name.startswith(prefixes))
    for name, arr in loaded.items():
        assert arr.flags.aligned and arr.flags.writeable, name
        assert arr.dtype == arrays[name].dtype and arr.shape == arrays[name].shape
        assert arr.tobytes() == arrays[name].tobytes()


def test_short_read_raises_typed_error():
    class ShortReads(io.BytesIO):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-1])

    blob = container.pack(b"TEST", 7, {}, {"x": np.ones(3)})
    with pytest.raises(CorpusConfigError, match="test: truncated inside array x"):
        container.read(ShortReads(blob), b"TEST", 7, CorpusConfigError, "test")


def test_round_trip_keeps_names_dtypes_and_shapes():
    arrays = {"b": np.arange(6, dtype=np.int64).reshape(2, 3), "a": np.linspace(0, 1, 5),
              "empty": np.zeros((0, 4)), "rows": [np.ones(3), np.full(3, 2.0)],
              "scalar": np.array(3.5)}
    blob = container.pack(b"TEST", 7, {"k": [1, "x"]}, arrays)
    meta, loaded = container.unpack(blob, b"TEST", 7, ValueError, "test")
    assert meta == {"k": [1, "x"]}
    assert list(loaded) == ["a", "b", "empty", "rows", "scalar"]
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.asarray(arr).dtype
        assert loaded[name].shape == np.shape(arr)
        np.testing.assert_array_equal(loaded[name], np.asarray(arr))


def test_rows_of_different_shapes_rejected():
    with pytest.raises(ValueError, match="rows differ"):
        container.pack(b"TEST", 7, {}, {"rows": [np.ones(3), np.ones(4)]})


def test_corpus_arrays_must_have_the_clip_length_and_frame_count(corpus_blob):
    # the model's input width is derived from the header, so the arrays must agree
    meta, arrays = container.unpack(corpus_blob, CORPUS_MAGIC, CORPUS_VERSION, ValueError,
                                    "corpus")
    for key, value, message in (
            ("hop", 128, "spectrograms: file has float64 (8, 16, 16), the header needs "
                         "float64 (8, 16, 32)"),
            ("sample_rate", 16000, "samples: file has float64 (8, 4000), the header needs "
                                   "float64 (8, 8000)")):
        edited = dict(meta, cqt={**meta["cqt"], key: value})
        with pytest.raises(CorpusConfigError, match=re.escape(f"corpus: {message}")):
            corpus_from_bytes(container.pack(CORPUS_MAGIC, CORPUS_VERSION, edited, arrays))


def test_version_1_corpus_rejected(corpus_blob):
    old = bytearray(corpus_blob)
    old[len(CORPUS_MAGIC)] = 1
    with pytest.raises(CorpusConfigError, match="unsupported version 1"):
        corpus_from_bytes(bytes(old))


def test_version_1_checkpoint_rejected(corpus, checkpoint):
    directory, blob = checkpoint
    old = bytearray(blob)
    old[len(CHECKPOINT_MAGIC)] = 1
    (directory / "v1.bin").write_bytes(bytes(old))
    with pytest.raises(CheckpointError, match="unsupported version 1"):
        load_checkpoint(directory / "v1.bin", corpus)


@pytest.mark.parametrize("old, new", [(b'"variants_per_cell": 2', b'"variants_per_cell": 3'),
                                      (b'"n_bins": 16', b'"n_bins": 12')])
def test_corpus_metadata_disagreeing_with_arrays_rejected(corpus_blob, old, new):
    assert corpus_blob.count(old) == 1
    with pytest.raises(CorpusConfigError, match=HEADER_NEEDS):
        corpus_from_bytes(corpus_blob.replace(old, new))


@pytest.mark.parametrize("old, new", [(b'"variants_per_cell": 2', b'"variants_per_cell": 3'),
                                      (b'"n_bins": 16', b'"n_bins": 12')])
def test_corpus_header_disagreeing_with_array_entries_rejected(corpus_blob, tmp_path, old,
                                                               new):
    path = tmp_path / "corpus.bin"
    path.write_bytes(corpus_blob.replace(old, new))
    with pytest.raises(CorpusConfigError, match=HEADER_NEEDS):
        load_corpus_header(path)


@pytest.mark.parametrize("read", [load_corpus, load_corpus_header])
@pytest.mark.parametrize("name", ["spectrograms", "-samples", "+bogus", "+ids"])
def test_wrong_corpus_entry_rejected_read_or_not(corpus_blob, tmp_path, read, name):
    # a name is reshaped, or dropped (-name), or added (+name); the ids of
    # version 2 follow from the header, so a file holding them is refused
    meta, arrays = container.unpack(corpus_blob, CORPUS_MAGIC, CORPUS_VERSION, ValueError,
                                    "corpus")
    key = name.lstrip("-+")
    if name.startswith("-"):
        del arrays[key]
        message = f"{key}: file has none, the header needs float64 (8, 4000)"
    elif name.startswith("+"):
        arrays[key] = np.zeros((8, 3), np.int64)
        message = f"{key}: file has int64 (8, 3), the header needs none"
    else:
        arrays[key] = arrays[key].reshape(8, 32, 8)
        message = f"{key}: file has float64 (8, 32, 8), the header needs float64 (8, 16, 16)"
    path = tmp_path / "corpus.bin"
    path.write_bytes(container.pack(CORPUS_MAGIC, CORPUS_VERSION, meta, arrays))
    with pytest.raises(CorpusConfigError, match=re.escape(f"corpus: {message}")):
        read(path)


@pytest.mark.parametrize("kind, path", [
    ("corpus", ("cqt", "+gamma")), ("corpus", ("cqt", "-f_min")),
    ("corpus", ("speakers", 1, "+pitch")), ("corpus", ("speakers", 0, "-f0")),
    ("corpus", ("words", 1, "+vowel")), ("corpus", ("words", 0, "-envelope")),
    ("checkpoint", ("train", "+stride")), ("checkpoint", ("train", "-lambda_adv")),
    ("checkpoint", ("model", "+kernel")), ("checkpoint", ("model", "-latent"))],
    ids=lambda value: ".".join(map(str, value)) if isinstance(value, tuple) else value)
def test_metadata_with_an_unknown_or_missing_key_rejected(corpus, corpus_blob, checkpoint,
                                                          kind, path):
    # a key is added (+key) or dropped (-key): a section holds exactly its
    # dataclass's fields, and no field falls back to its default
    magic, version, error, blob = (
        (CORPUS_MAGIC, CORPUS_VERSION, CorpusConfigError, corpus_blob) if kind == "corpus"
        else (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError, checkpoint[1]))
    meta, arrays = container.unpack(blob, magic, version, ValueError, kind)
    section = meta
    for key in path[:-1]:
        section = section[key]
    key = path[-1][1:]
    if path[-1].startswith("+"):
        section[key] = 1
        message = f"{key}: unknown key"
    else:
        del section[key]
        message = f"{key}: missing key"
    name = path[0] + "".join(f"[{i}]" for i in path[1:-1])
    edited = container.pack(magic, version, meta, arrays)
    with pytest.raises(error, match=re.escape(f"malformed metadata: {name}.{message}")):
        if kind == "corpus":
            corpus_from_bytes(edited)
        else:
            (checkpoint[0] / "edited.bin").write_bytes(edited)
            load_checkpoint(checkpoint[0] / "edited.bin", corpus)


def test_step_0_checkpoint_is_not_written(corpus, tmp_path):
    # before its first step a trainer has no Adam moments, and every reader
    # requires them
    trainer = Trainer(corpus, TrainConfig(batch_size=4, steps=1),
                      ModelConfig(bins=16, frames=16, channels=(4, 6), latent=8,
                                  n_words=2, n_speakers=2))
    with pytest.raises(CheckpointError, match=re.escape(
            "disc_opt/m/conv1_b: file has none, the model needs float32 (4, 1, 1)")):
        save_checkpoint(trainer, tmp_path / "step0.bin")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [*INFERENCE_PREFIXES, "resume"])
@pytest.mark.parametrize("name", ["gen/enc_fc_b", "disc/head_w", "gen_opt/m/dec_fc_w",
                                  "disc_opt/v/conv1_b", "-gen_opt/v/enc_fc_w",
                                  "+gen_opt/m/bogus", "+gen/bogus"])
def test_wrongly_shaped_checkpoint_entry_rejected_read_or_not(corpus, checkpoint, tmp_path,
                                                              command, name):
    # a name is reshaped, or dropped (-name), or added (+name)
    directory, blob = checkpoint
    meta, arrays = container.unpack(blob, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ValueError,
                                    "checkpoint")
    key = name.lstrip("-+")
    if name.startswith("-"):
        del arrays[key]
        message = f"{key}: file has none, the model needs float32"
    elif name.startswith("+"):
        arrays[key] = np.zeros(3, np.float32)
        message = f"{key}: file has float32 (3,), the model needs none"
    else:
        arrays[key] = arrays[key].reshape(-1)[1:]
        message = f"{key}: file has float32 ({arrays[key].size},), the model needs float32"
    path = tmp_path / "reshaped.bin"
    path.write_bytes(container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        if command == "resume":
            load_checkpoint(path, corpus)
        else:
            read_checkpoint(path, corpus, INFERENCE_PREFIXES[command])


@pytest.mark.parametrize("path, value, message", [
    (("model", "channels"), [4, 6.0], "channels[1] must be an integer"),
    (("train", "seed"), False, "seed must be an integer"),
    (("step",), 1.0, "step must be a non-negative integer"),
    (("step",), -1, "step must be a non-negative integer")])
def test_wrongly_typed_checkpoint_metadata_rejected(corpus, checkpoint, path, value, message):
    directory, blob = checkpoint
    meta, arrays = container.unpack(blob, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ValueError,
                                    "checkpoint")
    parent = meta
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    (directory / "typed.bin").write_bytes(
        container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load_checkpoint(directory / "typed.bin", corpus)


def break_write(monkeypatch, stage):
    """Make write_atomic fail: its file write stops halfway, or the rename fails."""
    if stage == "write":
        class HalfWrite(io.FileIO):
            def write(self, data):
                super().write(memoryview(data)[:len(data) // 2])
                raise OSError("disk full")
        monkeypatch.setattr(container, "open", HalfWrite, raising=False)
    else:
        def refuse(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(container.os, "replace", refuse)


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_checkpoint_write_keeps_previous_file(corpus, checkpoint, tmp_path,
                                                     monkeypatch, stage):
    trainer = load_checkpoint(checkpoint[0] / "valid.bin", corpus)
    path = tmp_path / "ckpt.bin"
    assert save_checkpoint(trainer, path) == path.read_bytes()
    previous = path.read_bytes()
    trainer.train_step()
    break_write(monkeypatch, stage)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(trainer, path)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["ckpt.bin"]


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_corpus_write_keeps_previous_file(corpus, tmp_path, monkeypatch, stage):
    path = tmp_path / "corpus.bin"
    path.write_bytes(b"previous corpus")
    break_write(monkeypatch, stage)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(corpus, path)
    assert path.read_bytes() == b"previous corpus"
    assert os.listdir(tmp_path) == ["corpus.bin"]


def test_corpus_write_replaces_previous_file(corpus, corpus_blob, tmp_path):
    path = tmp_path / "corpus.bin"
    path.write_bytes(b"previous corpus")
    save_corpus(corpus, path)
    assert path.read_bytes() == corpus_blob
    assert load_corpus(path).n_words == corpus.n_words
    assert os.listdir(tmp_path) == ["corpus.bin"]


def test_trailing_bytes_rejected(corpus_blob):
    with pytest.raises(CorpusConfigError, match="file has"):
        corpus_from_bytes(corpus_blob + b"\x00")
