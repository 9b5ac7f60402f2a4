"""Set-up, closed loop and output checks of the three benchmark workloads.

Every workload is a closed loop: one caller waits for each call into the
program before it makes the next. The workload seed drives the corpus,
training and phase seeds and the choice of conversion triples; the
program only sees the generated inputs.
"""

import contextlib
import gc
import io
import itertools
import math
import os
import shutil
import statistics
import time
import wave

import numpy as np

from voiceanalogy import cli, corpus as C, cqt as Q, model as M, training as TR
from voiceanalogy.tensor import Tensor

SETUP_REPEATS = 3
# A train session is `training.train` on the default TrainConfig (batch 16,
# additive transform, 2 speakers x 4 words x 20 variants corpus) with the
# schedule shortened to fit a run: log every 10 steps as the CLI does and
# checkpoint twice per session so the checkpoint stall is measured.
TRAIN_STEPS = 60
TRAIN_CHECKPOINT = 30
LOSS_WINDOW = 30            # analogy_loss averages the records logged in the last 30 steps
# Sixty steps bring the analogy loss to 0.25-0.45 of its step-1 value; with
# the generator frozen it stays near 1.
MAX_LOSS_RATIO = 0.75
BRIEF_STEPS = 10            # training that set-up gives the convert and eval checkpoints
N_TRIPLES = 8
# Phase-recovery iterations per convert call, pinned in the convert config.
# At the CLI default of 50 a call takes 5-7 s and a 25 s run held only four
# or five calls, too few for a steady median; at 10 a call takes 1-1.7 s and
# inverse_cqt is still about 95% of it.
CONVERT_ITERATIONS = 10
# The set-up checkpoint's spectrograms invert to 0.53-0.73 over 16 seeds (0.3
# after 100 steps of training); a silent or time-reversed d.wav reads 1 or more.
MAX_SPECTRAL_ERR = 0.9


class CheckFailed(Exception):
    pass


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_wav(path):
    """16-bit mono PCM through the standard library, independent of corpus.wav_read."""
    with wave.open(path, "rb") as f:
        check(f.getnchannels() == 1 and f.getsampwidth() == 2, f"{path}: not 16-bit mono")
        rate = f.getframerate()
        pcm = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
    return pcm.astype(np.float64) / 32767.0, rate


class Workload:
    """Subclasses define setup(directory), run_once(), check(outcome) and
    summary(): stage figures such as step_ms_p50, with their sample counts."""

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.corpus_seed, self.train_seed, self.phase_seed = (
            int(v) for v in rng.integers(0, 2 ** 20, size=3))
        self.op_s = []          # wall time of each operation
        self.busy_s = 0.0       # loop time spent in the program, checks excluded
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None

    def set_up(self):
        """Set up SETUP_REPEATS times from scratch; the last one is kept."""
        times = []
        for i in range(SETUP_REPEATS):
            directory = os.path.join(self.root, f"setup{i}")
            if i:
                shutil.rmtree(os.path.join(self.root, f"setup{i - 1}"))
            os.makedirs(directory)
            start = time.perf_counter()
            self.setup(directory)
            times.append(time.perf_counter() - start)
        return times

    def write_config(self, directory, **extra):
        path = os.path.join(directory, "bench.cfg")
        values = dict(version=1, corpus_seed=self.corpus_seed, train_seed=self.train_seed,
                      phase_seed=self.phase_seed, **extra)
        with open(path, "w") as f:
            f.writelines(f"{k} = {v}\n" for k, v in values.items())
        return path

    def run_cli(self, config, out_dir, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", config, "--out", out_dir, *argv])

    def gen_data_and_brief_train(self, directory, **extra):
        config = self.write_config(directory, steps=BRIEF_STEPS,
                                   checkpoint_interval=BRIEF_STEPS, **extra)
        check(self.run_cli(config, directory, "gen-data") == 0, "set-up gen-data failed")
        corpus_path = os.path.join(directory, "corpus.bin")
        check(self.run_cli(config, directory, "train", corpus_path) == 0, "set-up train failed")
        return config, corpus_path, os.path.join(directory, "final_checkpoint.bin")

    def measure(self, seconds, tracer=None):
        """Loop until `seconds` have passed; returns the op times of the
        untraced and of the traced iterations. With a tracer every other
        iteration is traced, so a drift in machine speed hits both alike."""
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            first = len(self.op_s)
            self.tracer = tracer if i % 2 else None
            if self.tracer:
                self.tracer.call = first
                with self.tracer.installed():
                    outcome = self.run_once()
            else:
                outcome = self.run_once()
            (traced if self.tracer else plain).extend(self.op_s[first:])
            self.tracer = None
            try:
                self.check(outcome)
            except Exception as exc:  # any defect in the outputs is a failed operation
                self.failed += outcome["ops"]
                self.problems.append(f"{type(exc).__name__}: {exc}")
            self.attempted += outcome["ops"]
            # Free this iteration's outputs (a train session holds a whole
            # Trainer) before the next one starts, as a fresh CLI process
            # would. Left to the cyclic collector, when they went depended on
            # allocation counts, and a train run's peak_rss_mb read 166 or
            # 185 MB by seed.
            del outcome
            gc.collect()
            if time.perf_counter() >= deadline and (tracer is None or traced):
                return plain, traced


class Train(Workload):
    """`training.train` sessions on a corpus built in set-up; one op is one step."""

    def setup(self, directory):
        config = self.write_config(directory)
        check(self.run_cli(config, directory, "gen-data") == 0, "set-up gen-data failed")
        self.corpus = C.load_corpus(os.path.join(directory, "corpus.bin"))
        self.directory = directory
        self.first_log = None
        self.loss = None

    def run_once(self):
        session = os.path.join(self.directory, "session")
        shutil.rmtree(session, ignore_errors=True)
        os.makedirs(session)
        config = TR.TrainConfig(steps=TRAIN_STEPS, checkpoint_interval=TRAIN_CHECKPOINT,
                                seed=self.train_seed)
        log = os.path.join(session, "metrics.log")
        first = len(self.op_s)
        step = TR.Trainer.train_step

        def timed_step(trainer):
            if self.tracer:
                self.tracer.call = len(self.op_s)
            start = time.perf_counter()
            record = step(trainer)
            self.op_s.append(time.perf_counter() - start)
            return record

        TR.Trainer.train_step = timed_step
        start = time.perf_counter()
        try:
            trainer, records = TR.train(self.corpus, config, metrics_path=log,
                                        checkpoint_dir=session)
            error = None
        except TR.TrainingDivergedError as exc:
            trainer = records = None
            error = str(exc)
        finally:
            self.busy_s += time.perf_counter() - start
            TR.Trainer.train_step = step
        done = len(self.op_s) - first
        return dict(ops=done if error is None else done + 1, error=error, trainer=trainer,
                    records=records, config=config, log=log, session=session)

    def check(self, outcome):
        check(outcome["error"] is None, f"training diverged: {outcome['error']}")
        config, trainer = outcome["config"], outcome["trainer"]
        with open(outcome["log"], "rb") as f:
            log = f.read()
        lines = log.decode().splitlines()
        logged = {1} | set(range(config.log_interval, config.steps + 1, config.log_interval))
        check(len(lines) == 1 + len(logged),
              f"metrics.log has {len(lines)} lines, schedule gives {1 + len(logged)}")
        for line in lines[1:]:
            check(all(math.isfinite(float(v)) for v in line.split()),
                  f"non-finite value in metrics.log: {line}")
        last = os.path.join(outcome["session"], f"ckpt_{config.steps:06d}.bin")
        reloaded = TR.load_checkpoint(last, self.corpus)
        check(reloaded.gen_params.content_hash() == trainer.gen_params.content_hash()
              and reloaded.disc_params.content_hash() == trainer.disc_params.content_hash(),
              "last checkpoint does not reload to the trained parameters")
        records = outcome["records"]
        window = statistics.fmean(r.analogy_loss for r in records
                                  if r.step > config.steps - LOSS_WINDOW)
        check(window < MAX_LOSS_RATIO * records[0].analogy_loss,
              f"analogy loss did not fall: {records[0].analogy_loss} at step 1, "
              f"{window} at the end")
        if self.first_log is None:
            self.first_log = log
            self.loss = window
        check(log == self.first_log, "metrics.log differs between identical sessions")

    def summary(self):
        ms = [1000.0 * t for t in self.op_s]
        return {
            "step_ms_p50": (statistics.median(ms), "ms", len(ms)),
            "step_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms",
                            len(ms)),
            "steps_per_s": (len(ms) / self.busy_s, "steps/s", len(ms)),
            "analogy_loss": (self.loss, "1", None),
        }


class Convert(Workload):
    """In-process `convert` calls on held-out a:b::c triples; one op is one call."""

    def setup(self, directory):
        self.config, self.corpus_path, self.checkpoint = self.gen_data_and_brief_train(
            directory, griffin_lim_iters=CONVERT_ITERATIONS)
        corpus = C.load_corpus(self.corpus_path)
        rng = np.random.default_rng([self.seed, 1])
        self.triples = []
        for i in range(N_TRIPLES):
            s1, s2 = (int(v) for v in rng.choice(corpus.n_speakers, 2, replace=False))
            w1, w2 = (int(v) for v in rng.choice(corpus.n_words, 2, replace=False))
            paths = []
            for name, s, w in (("a", s1, w1), ("b", s2, w1), ("c", s1, w2)):
                v = int(rng.integers(corpus.holdout_start, corpus.variants_per_cell))
                path = os.path.join(directory, f"triple{i}_{name}.wav")
                C.wav_write(corpus.utterances[corpus.index(s, w, v)], path)
                paths.append(path)
            self.triples.append(paths)
        self.directory = directory
        self.cqt_config = corpus.cqt_config
        self.predictions = {}
        self.errors = []

    def run_once(self):
        i = len(self.op_s) % N_TRIPLES
        out = os.path.join(self.directory, "d.wav")
        if os.path.exists(out):
            os.remove(out)
        start = time.perf_counter()
        code = self.run_cli(self.config, self.directory, "convert", self.checkpoint,
                            self.corpus_path, *self.triples[i], out)
        elapsed = time.perf_counter() - start
        self.op_s.append(elapsed)
        self.busy_s += elapsed
        return dict(ops=1, code=code, triple=i, out=out)

    def predicted_magnitudes(self, i):
        """The generator's magnitudes for triple i, computed apart from the CLI."""
        if i not in self.predictions:
            fb = Q.design_filterbank(self.cqt_config)
            trainer = TR.load_checkpoint(self.checkpoint, C.load_corpus(self.corpus_path))
            specs = [Q.compress(Q.forward_cqt(read_wav(p)[0], fb), self.cqt_config)
                     for p in self.triples[i]]
            x = [Tensor(M.spec_batch([s], trainer.model_config)) for s in specs]
            pred = M.generator_forward(trainer.gen_params, *x)
            values = np.maximum(pred.data[0, 0, :, :specs[0].frames], 0.0)
            self.predictions[i] = Q.decompress(values)
        return self.predictions[i]

    def check(self, outcome):
        check(outcome["code"] == 0, f"convert exited {outcome['code']}")
        d, rate = read_wav(outcome["out"])
        a, _ = read_wav(self.triples[outcome["triple"]][0])
        check(rate == self.cqt_config.sample_rate, f"d.wav rate {rate}")
        check(d.size == a.size, f"d.wav has {d.size} samples, input has {a.size}")
        check(np.isfinite(d).all() and np.abs(d).max() <= 1.0, "d.wav beyond full scale")
        check(np.abs(d).max() > 0.0, "d.wav is silent")
        target = self.predicted_magnitudes(outcome["triple"])
        fb = Q.design_filterbank(self.cqt_config)
        reanalysis = np.abs(Q.forward_cqt(d, fb))
        err = float(np.linalg.norm(reanalysis - target) / np.linalg.norm(target))
        self.errors.append(err)
        check(math.isfinite(err) and err < MAX_SPECTRAL_ERR, f"spectral_err {err}")

    def summary(self):
        return {
            "convert_s_p50": (statistics.median(self.op_s), "s", len(self.op_s)),
            "spectral_err": (statistics.fmean(self.errors) if self.errors else None, "1",
                             len(self.errors)),
        }


class DataEval(Workload):
    """`gen-data` then `eval` through the CLI; one op is one such cycle."""

    def setup(self, directory):
        self.config, corpus_path, self.checkpoint = self.gen_data_and_brief_train(directory)
        with open(corpus_path, "rb") as f:
            self.corpus_bytes = f.read()
        self.directory = os.path.join(self.root, "cycle")
        self.gen_data_s = []
        self.eval_s = []
        self.first_report = None
        self.recon = None
        self.cells = None

    def run_once(self):
        shutil.rmtree(self.directory, ignore_errors=True)
        corpus_path = os.path.join(self.directory, "corpus.bin")
        start = time.perf_counter()
        gen_code = self.run_cli(self.config, self.directory, "gen-data")
        middle = time.perf_counter()
        eval_code = self.run_cli(self.config, self.directory, "eval", self.checkpoint,
                                 corpus_path)
        end = time.perf_counter()
        self.gen_data_s.append(middle - start)
        self.eval_s.append(end - middle)
        self.op_s.append(end - start)
        self.busy_s += end - start
        return dict(ops=1, gen_code=gen_code, eval_code=eval_code, corpus=corpus_path)

    def check(self, outcome):
        check(outcome["gen_code"] == 0, f"gen-data exited {outcome['gen_code']}")
        check(outcome["eval_code"] == 0, f"eval exited {outcome['eval_code']}")
        with open(outcome["corpus"], "rb") as f:
            blob = f.read()
        check(blob == self.corpus_bytes, "corpus.bin differs from the set-up corpus")
        if self.cells is None:
            # later cycles wrote the same bytes, so one round trip covers them
            corpus = C.load_corpus(outcome["corpus"])
            check(C.corpus_to_bytes(corpus) == blob, "corpus.bin does not round-trip")
            self.cells = corpus.n_speakers * corpus.n_words
        wavs = os.listdir(os.path.join(self.directory, "samples"))
        check(len(wavs) == self.cells, f"{len(wavs)} sample WAVs for {self.cells} cells")
        with open(os.path.join(self.directory, "eval_report.txt")) as f:
            report = f.read()
        values = dict(line.rsplit(":", 1) for line in report.splitlines())
        values = {k: float(v) for k, v in values.items()}
        check(all(math.isfinite(v) for v in values.values()), f"non-finite eval: {values}")
        for rate in ("f0 transfer score", "discriminator real-class accuracy"):
            check(0.0 <= values[rate] <= 1.0, f"{rate} {values[rate]} outside [0, 1]")
        if self.first_report is None:
            self.first_report = report
            self.recon = values["analogy reconstruction error"]
        check(report == self.first_report, "eval report differs between identical cycles")

    def summary(self):
        n = len(self.op_s)
        return {
            "gen_data_s": (statistics.median(self.gen_data_s), "s", n),
            "eval_s": (statistics.median(self.eval_s), "s", n),
            "eval_reconstruction_error": (self.recon, "1", None),
        }


WORKLOADS = {"train": Train, "convert": Convert, "data-eval": DataEval}
