"""Command-line entry point: gen-data, train, convert, eval, render.

Configuration is a flat key=value text file with '#' comments and a
mandatory `version` key; unknown keys are rejected and the effective
config is echoed to the output directory. Exit codes: 0 success,
1 internal error, 2 usage/config error or a training run that diverged
(a loss that is not finite).
"""

import argparse
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import corpus as C
from . import cqt as Q
from . import training as TR
from .model import TRANSFORMS, ModelConfig, generator_forward, spec_batch
from .tensor import Tensor

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

CONFIG_VERSION = 1

# CQT, training and transform keys come from the dataclass defaults;
# TrainConfig.seed is spelled train_seed beside corpus_seed.
TRAIN_KEYS = {"seed": "train_seed"}

CONFIG_DEFAULTS = {
    "version": CONFIG_VERSION,
    **asdict(Q.CqtConfig()),
    # corpus
    "n_speakers": 2,
    "n_words": 4,
    "variants_per_cell": 20,
    "corpus_seed": 0,
    **{TRAIN_KEYS.get(k, k): v for k, v in asdict(TR.TrainConfig()).items()},
    "transform": ModelConfig.transform,
    # rendering / inversion
    "griffin_lim_iters": 30,
    "phase_seed": 0,
}

# numpy's default_rng accepts only non-negative seeds
SEED_KEYS = ("corpus_seed", "train_seed", "phase_seed")


class ConfigError(ValueError):
    pass


def parse_config(path=None, overrides=None):
    cfg = dict(CONFIG_DEFAULTS)
    seen_version = path is None
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = _coerce(key, value, f"{path}:{lineno}")
                if key == "version":
                    seen_version = True
    if not seen_version:
        raise ConfigError(f"{path}: missing mandatory 'version' key")
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {cfg['version']}")
    if overrides:
        cfg.update(overrides)
    for key in SEED_KEYS:
        if cfg[key] < 0:
            raise ConfigError(f"config: {key} must be non-negative, got {cfg[key]}")
    return cfg


def _coerce(key, value, where):
    kind = type(CONFIG_DEFAULTS[key])
    if kind is str:
        return value
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects {kind.__name__}, got {value!r}") from None


def echo_config(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.txt"), "w") as f:
        for key in sorted(cfg):
            f.write(f"{key}={cfg[key]}\n")


def cqt_config_from(cfg):
    return Q.CqtConfig(**{f.name: cfg[f.name] for f in fields(Q.CqtConfig)})


def train_config_from(cfg):
    try:
        return TR.TrainConfig(**{f.name: cfg[TRAIN_KEYS.get(f.name, f.name)]
                                 for f in fields(TR.TrainConfig)})
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None


def write_pgm(values, path):
    """Min-max normalized binary PGM; constant input maps to mid-gray.

    Rows are frequency bins, low bins at the bottom of the image."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty spectrogram")
    lo, hi = values.min(), values.max()
    if hi > lo:
        norm = (values - lo) / (hi - lo)
    else:
        norm = np.full_like(values, 0.5)
    img = np.round(norm * 255.0).astype(np.uint8)[::-1]
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


# ---- commands ----

def _require_inputs(*paths):
    """Raise FileNotFoundError naming the first of `paths` that does not exist."""
    for path in paths:
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing input: {path}")


def cmd_gen_data(cfg, out_dir):
    cqt_cfg = cqt_config_from(cfg)
    _check_kernel_fits_clip(cqt_cfg)
    echo_config(cfg, out_dir)
    corpus = C.build_corpus(cfg["n_speakers"], cfg["n_words"], cfg["variants_per_cell"],
                            cfg["corpus_seed"], cqt_cfg)
    corpus_path = os.path.join(out_dir, "corpus.bin")
    C.save_corpus(corpus, corpus_path)
    wav_dir = os.path.join(out_dir, "samples")
    os.makedirs(wav_dir, exist_ok=True)
    for s in corpus.speakers:
        for w in corpus.words:
            utt = corpus.utterances[corpus.index(s.id, w.id, 0)]
            C.wav_write(utt, os.path.join(wav_dir, f"speaker{s.id}_{w.name}.wav"))
    n = len(corpus.utterances)
    print(f"wrote {corpus_path}: {n} utterances "
          f"({corpus.n_speakers} speakers x {corpus.n_words} words x "
          f"{corpus.variants_per_cell} variants)")
    return EXIT_OK


def cmd_train(cfg, out_dir, corpus_path):
    train_cfg = train_config_from(cfg)
    if cfg["transform"] not in TRANSFORMS:
        raise ConfigError(f"config: transform must be one of {TRANSFORMS}, "
                          f"got {cfg['transform']!r}")
    _require_inputs(corpus_path)
    # the header alone fixes the model, so a corpus it cannot serve is
    # refused before anything is written
    model_cfg = TR.model_config_for(C.load_corpus_header(corpus_path), cfg["transform"])
    echo_config(cfg, out_dir)
    corpus = C.load_corpus(corpus_path)
    metrics_path = os.path.join(out_dir, "metrics.log")
    if os.path.exists(metrics_path):
        os.remove(metrics_path)

    def progress(rec):
        print(f"step {rec.step}: analogy {rec.analogy_loss:.4f} "
              f"disc {rec.disc_loss:.4f} adv {rec.gen_adv_loss:.4f} "
              f"real_acc {rec.disc_real_accuracy:.2f}")

    trainer, _ = TR.train(corpus, train_cfg, metrics_path=metrics_path,
                          checkpoint_dir=out_dir, model_config=model_cfg, progress=progress)
    final = os.path.join(out_dir, "final_checkpoint.bin")
    TR.save_checkpoint(trainer, final)
    print(f"wrote {final} and {metrics_path}")
    return EXIT_OK


def _check_kernel_fits_clip(cqt_cfg):
    """Refuse a CQT config whose widest kernel is longer than a clip before
    any filterbank is designed: the design alone can take gigabytes."""
    clip = C.clip_samples(cqt_cfg.sample_rate)
    if cqt_cfg.max_window > clip:
        raise Q.SignalLengthError(
            f"longest kernel ({cqt_cfg.max_window} samples) is longer than a clip "
            f"({clip} samples)")


def _load_clip(path, cqt_cfg):
    utt = C.wav_read(path)
    expected = C.clip_samples(cqt_cfg.sample_rate)
    if utt.sample_rate != cqt_cfg.sample_rate:
        raise ConfigError(f"{path}: sample rate {utt.sample_rate}, "
                          f"expected {cqt_cfg.sample_rate}")
    if utt.samples.size != expected:
        raise ConfigError(f"{path}: {utt.samples.size} samples, expected {expected}")
    return utt


def cmd_convert(cfg, out_dir, checkpoint_path, corpus_path, a_path, b_path, c_path,
                d_path):
    if cfg["griffin_lim_iters"] < 1:
        raise ConfigError(f"config: griffin_lim_iters must be at least 1, "
                          f"got {cfg['griffin_lim_iters']}")
    _require_inputs(checkpoint_path, corpus_path, a_path, b_path, c_path)
    echo_config(cfg, out_dir)
    header = C.load_corpus_header(corpus_path)
    cqt_cfg = header.cqt_config
    _check_kernel_fits_clip(cqt_cfg)
    trainer = TR.read_checkpoint(checkpoint_path, header, ("gen/",))
    fb = Q.design_filterbank(cqt_cfg)
    specs = []
    clips = []
    for p in (a_path, b_path, c_path):
        utt = _load_clip(p, cqt_cfg)
        clips.append(utt)
        specs.append(Q.compress(Q.forward_cqt(utt.samples, fb), cqt_cfg))
    mcfg = trainer.model_config
    x = [Tensor(spec_batch([s], mcfg)) for s in specs]
    pred = generator_forward(trainer.gen_params.frozen(), *x)
    t_frames = specs[0].frames
    # float32, as the generator computes, so the phase recovery runs in float32
    values = np.maximum(pred.data[0, 0, :, :t_frames], 0.0)
    out_spec = Q.Spectrogram(values, cqt_cfg)
    audio = Q.inverse_cqt(out_spec, fb, iterations=cfg["griffin_lim_iters"],
                          signal_length=clips[0].samples.size, seed=cfg["phase_seed"])
    peak = np.abs(audio).max()
    if peak > 1.0:
        audio = audio / peak
    C.wav_write(C.Utterance(-1, -1, audio, cqt_cfg.sample_rate, 0), d_path)
    for name, spec in zip(("a", "b", "c"), specs):
        write_pgm(spec.values, os.path.join(out_dir, f"convert_{name}.pgm"))
    write_pgm(values, os.path.join(out_dir, "convert_d.pgm"))
    print(f"wrote {d_path}")
    return EXIT_OK


def cmd_eval(cfg, out_dir, checkpoint_path, corpus_path):
    _require_inputs(checkpoint_path, corpus_path)
    echo_config(cfg, out_dir)
    corpus = C.load_corpus(corpus_path)
    trainer = TR.read_checkpoint(checkpoint_path, corpus, ("gen/", "disc/"))
    report = TR.evaluate(trainer, corpus)
    lines = report.lines()
    for line in lines:
        print(line)
    with open(os.path.join(out_dir, "eval_report.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_render(cfg, out_dir, source_path, image_path):
    _require_inputs(source_path)
    cqt_cfg = cqt_config_from(cfg)
    _check_kernel_fits_clip(cqt_cfg)
    fb = Q.design_filterbank(cqt_cfg)
    utt = _load_clip(source_path, cqt_cfg)
    spec = Q.compress(Q.forward_cqt(utt.samples, fb), cqt_cfg)
    write_pgm(spec.values, image_path)
    print(f"wrote {image_path} ({spec.frames}x{spec.bins})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="voiceanalogy",
                                     description="CQT analogy-GAN voice conversion")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override corpus and train seeds")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", help="synthesize the corpus and sample WAVs")
    p = sub.add_parser("train", help="run the adversarial training loop")
    p.add_argument("corpus", help="corpus container file")
    p = sub.add_parser("convert", help="analogy conversion a:b::c:? to audio")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("a_wav")
    p.add_argument("b_wav")
    p.add_argument("c_wav")
    p.add_argument("d_wav")
    p = sub.add_parser("eval", help="evaluate a trained checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p = sub.add_parser("render", help="render a WAV to a PGM spectrogram")
    p.add_argument("source_wav")
    p.add_argument("image")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["corpus_seed"] = args.seed
            overrides["train_seed"] = args.seed
        cfg = parse_config(args.config, overrides)
        if args.command == "gen-data":
            return cmd_gen_data(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.corpus)
        if args.command == "convert":
            return cmd_convert(cfg, args.out, args.checkpoint, args.corpus,
                               args.a_wav, args.b_wav, args.c_wav, args.d_wav)
        if args.command == "eval":
            return cmd_eval(cfg, args.out, args.checkpoint, args.corpus)
        if args.command == "render":
            return cmd_render(cfg, args.out, args.source_wav, args.image)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, C.CorpusConfigError, C.WavFormatError, Q.CqtConfigError,
            Q.SignalLengthError, TR.CheckpointError, TR.TrainingDivergedError,
            FileNotFoundError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
