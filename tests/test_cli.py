import io
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from voiceanalogy import cli, container, corpus as C, cqt as Q
from voiceanalogy.cli import (ConfigError, main, parse_config, write_pgm)
from voiceanalogy.corpus import CORPUS_MAGIC, CORPUS_VERSION, Utterance, wav_write
from voiceanalogy.model import ModelConfig
from voiceanalogy.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointError,
                                   TrainConfig, resume)


@pytest.fixture
def tiny_cfg(tmp_path):
    """Config small enough that gen-data/train finish in seconds."""
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "version = 1\n"
        "bins_per_octave = 4\n"
        "n_bins = 16\n"
        "hop = 256\n"
        "variants_per_cell = 3\n"
        "n_words = 2\n"
        "steps = 2\n"
        "batch_size = 4\n"
        "checkpoint_interval = 1\n"
        "log_interval = 1\n"
        "# a comment line\n")
    return path


def gen_and_train(config, out):
    assert main(["--config", str(config), "--out", str(out), "gen-data"]) == 0
    assert main(["--config", str(config), "--out", str(out), "train",
                 str(out / "corpus.bin")]) == 0
    return out / "corpus.bin", out / "final_checkpoint.bin"


def triple_wavs(out):
    return [str(out / "samples" / f"speaker{s}_{w}.wav")
            for s, w in ((0, "red"), (1, "red"), (0, "blue"))]


def no_filterbank_design(monkeypatch):
    def refuse(config):
        raise AssertionError("a filterbank was designed")
    monkeypatch.setattr(Q, "design_filterbank", refuse)
    monkeypatch.setattr(C, "design_filterbank", refuse)


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg["n_speakers"] == 2
        assert cfg["lambda_adv"] == 0.05

    def test_parse_file(self, tiny_cfg):
        cfg = parse_config(tiny_cfg)
        assert cfg["n_bins"] == 16
        assert cfg["steps"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("version=1\nbogus_key=3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(p)

    def test_missing_version_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("n_bins=16\n")
        with pytest.raises(ConfigError, match="version"):
            parse_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("version=1\nnot a pair\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_configuration_surface_is_pinned(self):
        # every setting there is: adding or removing one is an edit here
        assert [f.name for f in fields(Q.CqtConfig)] == [
            "sample_rate", "f_min", "bins_per_octave", "n_bins", "hop", "q_scale"]
        assert [f.name for f in fields(ModelConfig)] == [
            "bins", "frames", "channels", "latent", "n_words", "n_speakers", "transform"]
        assert [f.name for f in fields(TrainConfig)] == [
            "batch_size", "steps", "disc_steps_per_gen_step", "lambda_adv", "learning_rate",
            "beta1", "beta2", "epsilon", "seed", "checkpoint_interval", "log_interval"]
        assert list(cli.CONFIG_DEFAULTS) == [
            "version", "sample_rate", "f_min", "bins_per_octave", "n_bins", "hop", "q_scale",
            "n_speakers", "n_words", "variants_per_cell", "corpus_seed", "batch_size", "steps",
            "disc_steps_per_gen_step", "lambda_adv", "learning_rate", "beta1", "beta2",
            "epsilon", "train_seed", "checkpoint_interval", "log_interval", "transform",
            "griffin_lim_iters", "phase_seed"]


class TestPgm:
    def test_dimensions_and_header(self, tmp_path):
        values = np.random.default_rng(0).random((16, 20))
        path = tmp_path / "img.pgm"
        write_pgm(values, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n20 16\n255\n")
        assert len(raw) == len(b"P5\n20 16\n255\n") + 16 * 20

    def test_constant_maps_to_mid_gray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(np.full((4, 4), 7.0), path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        assert set(body) == {128}

    def test_low_bins_at_bottom(self, tmp_path):
        values = np.zeros((4, 3))
        values[0, :] = 1.0  # lowest bin bright
        path = tmp_path / "img.pgm"
        write_pgm(values, path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        rows = [body[i * 3:(i + 1) * 3] for i in range(4)]
        assert rows[-1] == b"\xff\xff\xff"  # bottom row
        assert rows[0] == b"\x00\x00\x00"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((0, 0)), tmp_path / "x.pgm")


class TestCommands:
    def test_gen_data_and_reproducibility(self, tiny_cfg, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        for out in (out1, out2):
            code = main(["--config", str(tiny_cfg), "--out", str(out), "gen-data"])
            assert code == 0
        assert (out1 / "corpus.bin").read_bytes() == (out2 / "corpus.bin").read_bytes()
        assert (out1 / "samples" / "speaker0_red.wav").exists()
        assert (out1 / "effective_config.txt").exists()

    def test_gen_data_bad_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("version=1\nwrong=1\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"])
        assert code == 2
        assert "wrong" in capsys.readouterr().err

    def test_gen_data_non_numeric_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("version=1\nsteps = abc\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"])
        assert code == 2
        assert "bad.cfg:2: steps expects int, got 'abc'" in capsys.readouterr().err

    def test_gen_data_kernel_longer_than_clip_exits_2(self, tmp_path, capsys, monkeypatch):
        # at q_scale 1e4 the design alone would allocate 9.4 GB
        no_filterbank_design(monkeypatch)
        for q_scale in (4.0, 1e4):
            bad = tmp_path / "bad.cfg"
            bad.write_text(f"version=1\nq_scale = {q_scale}\n")
            code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"])
            assert code == 2
            assert "longest kernel" in one_line_error(capsys)
            assert not (tmp_path / "o").exists()

    def test_render_kernel_longer_than_clip_exits_2(self, tmp_path, capsys, monkeypatch):
        no_filterbank_design(monkeypatch)
        wav = tmp_path / "clip.wav"
        wav_write(Utterance(0, 0, np.zeros(4000), 8000, 0), wav)
        bad = tmp_path / "bad.cfg"
        bad.write_text("version=1\nq_scale = 1e4\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "render", str(wav),
                     str(tmp_path / "x.pgm")])
        assert code == 2
        assert "longest kernel" in one_line_error(capsys)
        assert not (tmp_path / "x.pgm").exists()

    def test_convert_corpus_kernel_longer_than_clip_exits_2(self, tiny_cfg, tmp_path, capsys,
                                                           monkeypatch):
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        meta, arrays = container.unpack(corpus_path.read_bytes(), CORPUS_MAGIC,
                                        CORPUS_VERSION, ValueError, "corpus")
        meta["cqt"]["q_scale"] = 1e4
        corpus_path.write_bytes(container.pack(CORPUS_MAGIC, CORPUS_VERSION, meta, arrays))
        no_filterbank_design(monkeypatch)
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(out), "convert", str(ckpt),
                     str(corpus_path), *triple_wavs(out), str(out / "d.wav")])
        assert code == 2
        assert "longest kernel" in one_line_error(capsys)
        assert not (out / "d.wav").exists()

    def test_gen_data_one_variant_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("version=1\nvariants_per_cell = 1\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"])
        assert code == 2
        assert "variants per cell" in one_line_error(capsys)
        assert not (tmp_path / "o" / "corpus.bin").exists()

    @pytest.mark.parametrize("command, setting", [
        ("train", "batch_size = 7"), ("train", "batch_size = 0"), ("train", "steps = 0"),
        ("train", "transform = affine"), ("train", "log_interval = 0"),
        ("train", "checkpoint_interval = 0"), ("train", "disc_steps_per_gen_step = 0"),
        ("train", "learning_rate = -1"), ("train", "beta1 = 1.0"), ("train", "beta2 = -0.1"),
        ("train", "epsilon = 0"), ("train", "lambda_adv = -1"),
        ("convert", "griffin_lim_iters = 0"), ("gen-data", "corpus_seed = -1"),
        ("train", "train_seed = -1"), ("convert", "phase_seed = -1"),
        ("gen-data", "q_scale = 0"), ("gen-data", "q_scale = -1"), ("gen-data", "q_scale = inf"),
        ("gen-data", "q_scale = nan"), ("gen-data", "f_min = nan"), ("gen-data", "f_min = inf"),
        ("gen-data", "q_scale = 0.001"), ("train", "learning_rate = inf"),
        ("train", "epsilon = inf"), ("train", "lambda_adv = inf")])
    def test_bad_config_value_exits_2_before_any_work(self, tmp_path, capsys, command,
                                                      setting):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"version=1\n{setting}\n")
        out = tmp_path / "o"
        # the inputs do not exist: the config is checked before they are looked at
        n_inputs = {"gen-data": 0, "train": 1, "convert": 6}[command]
        inputs = [str(tmp_path / "nope.bin")] * n_inputs
        code = main(["--config", str(bad), "--out", str(out), command, *inputs])
        assert code == 2
        assert setting.split(" = ")[0] in one_line_error(capsys)
        assert not out.exists()

    def test_diverging_train_exits_2_with_one_line(self, tiny_cfg, tmp_path, capsys):
        # a finite weight this large overflows the float32 adversarial gradient;
        # with no checkpoint after step 1, step 2's loss check reports it
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(tiny_cfg.read_text() + "lambda_adv = 1e308\ncheckpoint_interval = 2\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            # any numpy warning would become an exception, and so exit 1
            warnings.simplefilter("error")
            code = main(["--config", str(cfg), "--out", str(out), "train",
                         str(out / "corpus.bin")])
        assert code == 2
        assert re.fullmatch(r"error: \w+_loss is (nan|-?inf) at step \d+\n",
                            one_line_error(capsys))
        assert not (out / "final_checkpoint.bin").exists()

    @pytest.mark.parametrize("setting, array", [
        ("lambda_adv = 1e308\nsteps = 1", r"gen/\w+"),
        ("lambda_adv = 1e30\nsteps = 3", r"gen_opt/v/\w+")])
    def test_non_finite_checkpoint_is_not_written(self, tiny_cfg, tmp_path, capsys, setting,
                                                  array):
        # every loss a step reports is finite, but the step leaves NaN weights
        # (1e308) or an Adam second moment overflowed to inf (1e30)
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(tiny_cfg.read_text() + setting + "\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "gen-data"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", str(cfg), "--out", str(out), "train",
                         str(out / "corpus.bin")])
        assert code == 2
        assert re.fullmatch(rf"error: {array} is not finite at step \d+\n",
                            one_line_error(capsys))
        assert [p.name for p in out.glob("*.bin*")] == ["corpus.bin"]

    def test_train_writes_same_bytes_with_one_or_two_blas_threads(self, tmp_path):
        # the thread count is read when BLAS loads, so each run is its own process
        cfg = tmp_path / "short.cfg"
        cfg.write_text("version = 1\nsteps = 10\nlog_interval = 1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "data"), "gen-data"]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "voiceanalogy.cli", "--config", str(cfg),
                            "--out", str(out), "train", str(tmp_path / "data" / "corpus.bin")],
                           env=env, check=True, capture_output=True)
            outputs.append([(out / name).read_bytes()
                            for name in ("metrics.log", "final_checkpoint.bin")])
        assert outputs[0][0].count(b"\n") == 11   # the header and steps 1-10
        assert outputs[0] == outputs[1]

    def test_negative_seed_flag_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--seed", "-1", "--out", str(out), "gen-data"]) == 2
        assert "corpus_seed" in one_line_error(capsys)
        assert not out.exists()

    def test_render_odd_length_wav_exits_2(self, tmp_path, capsys):
        wav = tmp_path / "odd.wav"
        wav_write(Utterance(0, 0, np.zeros(4000), 8000, 0), wav)
        raw = bytearray(wav.read_bytes())
        idx = raw.index(b"data")
        raw[idx + 4:idx + 8] = (7999).to_bytes(4, "little")
        wav.write_bytes(bytes(raw))
        code = main(["--out", str(tmp_path / "o"), "render", str(wav), str(tmp_path / "x.pgm")])
        assert code == 2
        assert "odd length 7999" in one_line_error(capsys)

    def test_train_truncated_corpus_exits_2(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "gen-data"]) == 0
        corpus_path = out / "corpus.bin"
        corpus_path.write_bytes(corpus_path.read_bytes()[:5000])
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(out), "train",
                     str(corpus_path)])
        assert code == 2
        assert "corpus: header lists" in one_line_error(capsys)

    def test_eval_truncated_checkpoint_exits_2(self, tiny_cfg, tmp_path, capsys):
        corpus_path, ckpt = gen_and_train(tiny_cfg, tmp_path / "run")
        ckpt.write_bytes(ckpt.read_bytes()[:3000])
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(tmp_path / "run"), "eval",
                     str(ckpt), str(corpus_path)])
        assert code == 2
        assert "final_checkpoint.bin" in one_line_error(capsys)

    def test_checkpoint_cut_in_optimizer_state_exits_2(self, tiny_cfg, tmp_path, capsys):
        # convert and eval read no optimizer state, so only the size check sees the cut
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        blob = ckpt.read_bytes()
        _, entries, _ = container.read(io.BytesIO(blob), CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                       ValueError, "checkpoint", ())
        assert max(entries).startswith("gen_opt/")  # the last array in the file
        ckpt.write_bytes(blob[:-8])
        for command in (["convert", str(ckpt), str(corpus_path), *triple_wavs(out),
                         str(out / "d.wav")],
                        ["eval", str(ckpt), str(corpus_path)]):
            capsys.readouterr()
            assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
            assert "final_checkpoint.bin: header lists" in one_line_error(capsys)
        assert not (out / "d.wav").exists()

    def test_float64_checkpoint_of_version_2_exits_2(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        meta, arrays = container.unpack(ckpt.read_bytes(), CHECKPOINT_MAGIC,
                                        CHECKPOINT_VERSION, ValueError, "checkpoint")
        # as version 2 wrote it: every array float64; as version 3 wrote it:
        # float32 arrays under the fixed geometry and a second transform
        v3_meta = {**meta, "train": {**meta["train"], "transform": "additive"},
                   "model": {**meta["model"], "kernel": 3, "stride": 2, "padding": 1,
                             "leaky_alpha": 0.2}}
        olds = {2: container.pack(CHECKPOINT_MAGIC, 2, meta,
                                  {name: arr.astype(np.float64)
                                   for name, arr in arrays.items()}),
                3: container.pack(CHECKPOINT_MAGIC, 3, v3_meta, arrays)}
        for version, blob in olds.items():
            old = out / f"v{version}.bin"
            old.write_bytes(blob)
            message = f"v{version}.bin: unsupported version {version}, expected 4"
            for command in (["convert", str(old), str(corpus_path), *triple_wavs(out),
                             str(out / "d.wav")],
                            ["eval", str(old), str(corpus_path)]):
                capsys.readouterr()
                assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
                assert message in one_line_error(capsys)
            assert not (out / "d.wav").exists()
            with pytest.raises(CheckpointError, match=message):
                resume(C.load_corpus(corpus_path), old)

    def test_convert_and_eval_read_no_optimizer_state(self, tiny_cfg, tmp_path, monkeypatch):
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        blob = ckpt.read_bytes()
        header_end = len(CHECKPOINT_MAGIC) + 5 + int.from_bytes(
            blob[len(CHECKPOINT_MAGIC) + 1:len(CHECKPOINT_MAGIC) + 5], "little")
        _, arrays = container.unpack(blob, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ValueError,
                                     "checkpoint")
        reads = []
        read = container.read

        class Counting:
            """The reader's file, counting the bytes read from it."""

            def __init__(self, f):
                self.f, self.bytes = f, 0

            def __getattr__(self, name):
                return getattr(self.f, name)

            def read(self, size):
                data = self.f.read(size)
                self.bytes += len(data)
                return data

            def readinto(self, buffer):
                n = self.f.readinto(buffer)
                self.bytes += n
                return n

        def spy(f, magic, *args):
            counted = Counting(f)
            meta, entries, arrays = read(counted, magic, *args)
            if magic == CHECKPOINT_MAGIC:
                reads.append((sorted(arrays), counted.bytes))
            return meta, entries, arrays
        monkeypatch.setattr(container, "read", spy)
        assert main(["--config", str(tiny_cfg), "--out", str(out), "convert", str(ckpt),
                     str(corpus_path), *triple_wavs(out), str(out / "d.wav")]) == 0
        assert main(["--config", str(tiny_cfg), "--out", str(out), "eval", str(ckpt),
                     str(corpus_path)]) == 0
        for (names, n_bytes), wanted in zip(reads, [("gen/",), ("gen/", "disc/")], strict=True):
            assert names == sorted(name for name in arrays if name.startswith(wanted))
            assert n_bytes == header_end + sum(arrays[name].nbytes for name in names)

    @pytest.mark.parametrize("section, key, value", [("model", "stride", 2),
                                                     ("train", "transform", "additive")])
    def test_eval_checkpoint_with_a_retired_field_exits_2(self, tiny_cfg, tmp_path, capsys,
                                                          section, key, value):
        # the fixed geometry is model constants and the transform is stored
        # once, in the model config; a version-4 file carries neither
        corpus_path, ckpt = gen_and_train(tiny_cfg, tmp_path / "run")
        meta, arrays = container.unpack(ckpt.read_bytes(), CHECKPOINT_MAGIC,
                                        CHECKPOINT_VERSION, ValueError, "checkpoint")
        assert key not in meta[section]
        meta[section][key] = value
        ckpt.write_bytes(container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays))
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(tmp_path / "run"), "eval",
                     str(ckpt), str(corpus_path)])
        assert code == 2
        assert one_line_error(capsys) == (f"error: checkpoint {ckpt}: malformed metadata: "
                                          f"{section}.{key}: unknown key\n")

    @pytest.mark.parametrize("section, key", [("train", "lambda_adv"), ("model", "latent")])
    def test_checkpoint_missing_a_key_exits_2(self, tiny_cfg, tmp_path, capsys, section, key):
        # a missing key is refused, not filled in with its default
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        meta, arrays = container.unpack(ckpt.read_bytes(), CHECKPOINT_MAGIC,
                                        CHECKPOINT_VERSION, ValueError, "checkpoint")
        del meta[section][key]
        ckpt.write_bytes(container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays))
        for command in (["eval", str(ckpt), str(corpus_path)],
                        ["convert", str(ckpt), str(corpus_path), *triple_wavs(out),
                         str(out / "d.wav")]):
            capsys.readouterr()
            assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
            assert one_line_error(capsys) == (f"error: checkpoint {ckpt}: malformed metadata: "
                                              f"{section}.{key}: missing key\n")
        assert not (out / "d.wav").exists()

    @pytest.mark.parametrize("section, key, value", [("train", "batch_size", 4.0),
                                                     ("train", "steps", 2.5),
                                                     ("model", "latent", True)])
    def test_eval_checkpoint_with_wrongly_typed_value_exits_2(self, tiny_cfg, tmp_path,
                                                              capsys, section, key, value):
        corpus_path, ckpt = gen_and_train(tiny_cfg, tmp_path / "run")
        meta, arrays = container.unpack(ckpt.read_bytes(), CHECKPOINT_MAGIC,
                                        CHECKPOINT_VERSION, ValueError, "checkpoint")
        meta[section][key] = value
        ckpt.write_bytes(container.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, meta, arrays))
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(tmp_path / "run"), "eval",
                     str(ckpt), str(corpus_path)])
        assert code == 2
        assert f"malformed metadata: {key} must be" in one_line_error(capsys)

    @pytest.mark.parametrize("key, value", [("n_bins", 16.0), ("hop", 256.0),
                                            ("sample_rate", 8000.0)])
    def test_corpus_with_wrongly_typed_cqt_value_exits_2(self, tiny_cfg, tmp_path, capsys,
                                                          key, value):
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        meta, arrays = container.unpack(corpus_path.read_bytes(), CORPUS_MAGIC,
                                        CORPUS_VERSION, ValueError, "corpus")
        meta["cqt"][key] = value
        corpus_path.write_bytes(container.pack(CORPUS_MAGIC, CORPUS_VERSION, meta, arrays))
        wavs = [str(out / "samples" / f"speaker{s}_{w}.wav")
                for s, w in ((0, "red"), (1, "red"), (0, "blue"))]
        for command in (["eval", str(ckpt), str(corpus_path)],
                        ["convert", str(ckpt), str(corpus_path), *wavs, str(out / "d.wav")],
                        ["train", str(corpus_path)]):
            capsys.readouterr()
            assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
            assert (f"corpus: malformed metadata: {key} must be an integer, got {value!r}"
                    in one_line_error(capsys))
        assert not (out / "d.wav").exists()

    @pytest.mark.parametrize("edit, message", [
        ("spectrograms", "spectrograms: file has float64 (12, 32, 8), the header needs "
                         "float64 (12, 16, 16)"),
        ("-samples", "samples: file has none, the header needs float64 (12, 4000)"),
        ("+bogus", "bogus: file has float64 (3,), the header needs none"),
        ("cqt.+gamma", "malformed metadata: cqt.gamma: unknown key"),
        ("cqt.-f_min", "malformed metadata: cqt.f_min: missing key")],
        ids=["spectrograms", "-samples", "+bogus", "cqt.+gamma", "cqt.-f_min"])
    def test_corpus_with_a_wrong_entry_or_key_exits_2(self, tiny_cfg, tmp_path, capsys, edit,
                                                      message):
        # an array is reshaped, or an array or a cqt key is dropped (-) or added (+)
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        meta, arrays = container.unpack(corpus_path.read_bytes(), CORPUS_MAGIC,
                                        CORPUS_VERSION, ValueError, "corpus")
        section, _, name = edit.rpartition(".")
        target = meta[section] if section else arrays
        if name.startswith("-"):
            del target[name[1:]]
        elif name.startswith("+"):
            target[name[1:]] = np.zeros(3) if target is arrays else 1.0
        else:
            target[name] = target[name].reshape(12, 32, 8)
        corpus_path.write_bytes(container.pack(CORPUS_MAGIC, CORPUS_VERSION, meta, arrays))
        for command in (["eval", str(ckpt), str(corpus_path)],
                        ["convert", str(ckpt), str(corpus_path), *triple_wavs(out),
                         str(out / "d.wav")],
                        ["train", str(corpus_path)]):
            capsys.readouterr()
            assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
            assert one_line_error(capsys) == f"error: corpus: {message}\n"
        assert not (out / "d.wav").exists()

    @pytest.mark.parametrize("kind", ["corpus", "checkpoint"])
    def test_deeply_nested_header_exits_2(self, tiny_cfg, tmp_path, capsys, kind):
        # json raises RecursionError, not ValueError, on arrays nested this deep
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        magic, version, path, what = {
            "corpus": (CORPUS_MAGIC, CORPUS_VERSION, corpus_path, "corpus"),
            "checkpoint": (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ckpt, f"checkpoint {ckpt}"),
        }[kind]
        header = b'{"arrays": [], "meta": ' + b"[" * 100000
        path.write_bytes(magic + bytes([version]) + len(header).to_bytes(4, "little") + header)
        for command in (["eval", str(ckpt), str(corpus_path)],
                        ["convert", str(ckpt), str(corpus_path), *triple_wavs(out),
                         str(out / "d.wav")]):
            capsys.readouterr()
            assert main(["--config", str(tiny_cfg), "--out", str(out), *command]) == 2
            assert one_line_error(capsys).startswith(f"error: {what}: malformed header: ")
        assert not (out / "d.wav").exists()

    def test_eval_twice_writes_identical_report(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(tiny_cfg, out)
        reports = []
        for _ in range(2):
            assert main(["--config", str(tiny_cfg), "--out", str(out), "eval", str(ckpt),
                         str(corpus_path)]) == 0
            reports.append((out / "eval_report.txt").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("change", ["n_words = 3", "n_bins = 20", "hop = 128"])
    def test_eval_mismatched_corpus_exits_2(self, tiny_cfg, tmp_path, capsys, change):
        _, ckpt = gen_and_train(tiny_cfg, tmp_path / "run")
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(tiny_cfg.read_text() + change + "\n")
        other = tmp_path / "other"
        assert main(["--config", str(other_cfg), "--out", str(other), "gen-data"]) == 0
        capsys.readouterr()
        code = main(["--config", str(tiny_cfg), "--out", str(other), "eval", str(ckpt),
                     str(other / "corpus.bin")])
        assert code == 2
        err = one_line_error(capsys)
        assert "corpus has" in err and "frames" in err

    @pytest.mark.parametrize("hop, frames", [(32, 128), (256, 16)])
    def test_pipeline_takes_model_frames_from_corpus(self, tiny_cfg, tmp_path, hop, frames):
        # a clip has 126 CQT frames at hop 32 and 16 at hop 256; the model's
        # input width is that count rounded up to a multiple of stride^2 = 4
        config = tmp_path / "hop.cfg"
        config.write_text(tiny_cfg.read_text().replace("hop = 256", f"hop = {hop}")
                          + "griffin_lim_iters = 2\n")
        out = tmp_path / "run"
        corpus_path, ckpt = gen_and_train(config, out)
        assert main(["--config", str(config), "--out", str(out), "eval", str(ckpt),
                     str(corpus_path)]) == 0
        d = out / "d.wav"
        assert main(["--config", str(config), "--out", str(out), "convert", str(ckpt),
                     str(corpus_path), *triple_wavs(out), str(d)]) == 0
        assert C.wav_read(d).samples.size == 4000
        meta, _ = container.unpack(ckpt.read_bytes(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                   ValueError, "checkpoint")
        assert meta["model"]["frames"] == frames

    def test_train_corpus_bins_not_multiple_of_4_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bins.cfg"
        config.write_text("version = 1\nn_bins = 42\nn_words = 2\nvariants_per_cell = 2\n")
        out = tmp_path / "run"
        assert main(["--config", str(config), "--out", str(out), "gen-data"]) == 0
        capsys.readouterr()
        code = main(["--config", str(config), "--out", str(out), "train",
                     str(out / "corpus.bin")])
        assert code == 2
        assert "n_bins" in one_line_error(capsys)
        assert not (out / "metrics.log").exists()
        assert not list(out.glob("*checkpoint*")) and not list(out.glob("ckpt_*"))

    def test_train_missing_corpus_exits_2(self, tiny_cfg, tmp_path, capsys):
        code = main(["--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
                     "train", str(tmp_path / "nope.bin")])
        assert code == 2
        assert "missing input: " in one_line_error(capsys)
        assert not (tmp_path / "o").exists()

    def test_full_pipeline(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "gen-data"]) == 0
        corpus_path = out / "corpus.bin"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "train",
                     str(corpus_path)]) == 0
        ckpt = out / "final_checkpoint.bin"
        assert ckpt.exists()
        assert (out / "metrics.log").exists()

        assert main(["--config", str(tiny_cfg), "--out", str(out), "eval",
                     str(ckpt), str(corpus_path)]) == 0
        assert (out / "eval_report.txt").exists()

        a = out / "samples" / "speaker0_red.wav"
        b = out / "samples" / "speaker1_red.wav"
        c = out / "samples" / "speaker0_blue.wav"
        d = out / "d.wav"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "convert",
                     str(ckpt), str(corpus_path), str(a), str(b), str(c),
                     str(d)]) == 0
        assert d.exists()
        assert (out / "convert_d.pgm").exists()

    def test_convert_wrong_rate_exits_2(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "gen-data"]) == 0
        corpus_path = out / "corpus.bin"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "train",
                     str(corpus_path)]) == 0
        bad = tmp_path / "bad.wav"
        wav_write(Utterance(0, 0, np.zeros(4000), 16000, 0), bad)
        code = main(["--config", str(tiny_cfg), "--out", str(out), "convert",
                     str(out / "final_checkpoint.bin"), str(corpus_path),
                     str(bad), str(bad), str(bad), str(tmp_path / "d.wav")])
        assert code == 2

    def test_render(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "gen-data"]) == 0
        wav = out / "samples" / "speaker0_red.wav"
        img = tmp_path / "spec.pgm"
        assert main(["--config", str(tiny_cfg), "--out", str(out), "render",
                     str(wav), str(img)]) == 0
        raw = img.read_bytes()
        assert raw.startswith(b"P5\n16 16\n")

    def test_render_missing_source_exits_2(self, tiny_cfg, tmp_path):
        code = main(["--config", str(tiny_cfg), "--out", str(tmp_path / "o"),
                     "render", str(tmp_path / "nope.wav"), str(tmp_path / "x.pgm")])
        assert code == 2

    def test_pure_tone_render_band(self, tmp_path):
        cfg = parse_config(None)
        cqt_cfg = cli.cqt_config_from(cfg)
        from voiceanalogy.cqt import compress, design_filterbank, forward_cqt
        fb = design_filterbank(cqt_cfg)
        k = 24
        sig = np.sin(2 * np.pi * fb.center_frequencies[k] * np.arange(4000) / 8000)
        spec = compress(forward_cqt(sig, fb), cqt_cfg)
        path = tmp_path / "tone.pgm"
        write_pgm(spec.values, path)
        body = path.read_bytes().split(b"255\n", 1)[1]
        img = np.frombuffer(body, dtype=np.uint8).reshape(48, 63)
        # brightest row is the tone's bin, counted from the bottom
        assert 48 - 1 - img.mean(axis=1).argmax() == k
