from dataclasses import fields

import numpy as np
import pytest

from voiceanalogy import model
from voiceanalogy.corpus import build_corpus
from voiceanalogy.cqt import CqtConfig
from voiceanalogy.model import (ModelConfig, discriminator_forward, discriminator_loss,
                                generator_forward, generator_total_loss, spec_batch)
from voiceanalogy.tensor import Tensor
from voiceanalogy.training import (CheckpointError, MetricsRecord, Trainer,
                                   TrainConfig, TrainingDivergedError, evaluate,
                                   load_checkpoint, make_batch, resume,
                                   save_checkpoint, train)

# tiny CQT + corpus so trainer tests stay fast
TINY_CQT = CqtConfig(sample_rate=8000, f_min=110.0, bins_per_octave=4,
                     n_bins=16, hop=256)
TINY_MODEL = dict(bins=16, frames=16, channels=(4, 6), latent=8)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(2, 2, 5, seed=3, cqt_config=TINY_CQT)


def tiny_trainer(corpus, **overrides):
    cfg = TrainConfig(batch_size=4, steps=overrides.pop("steps", 4),
                      seed=overrides.pop("seed", 0), log_interval=1,
                      checkpoint_interval=overrides.pop("checkpoint_interval", 100),
                      **overrides)
    mcfg = ModelConfig(n_words=corpus.n_words, n_speakers=corpus.n_speakers, **TINY_MODEL)
    return Trainer(corpus, cfg, mcfg), cfg, mcfg


class TestConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=7)

    @pytest.mark.parametrize("kind", [TrainConfig, ModelConfig])
    def test_wrongly_typed_values_rejected_by_name(self, kind):
        for field in fields(kind):
            default = getattr(kind(), field.name)
            if field.type is int:
                bad = [True, float(default), default + 0.5]
            elif field.type is float:
                bad = [True]
            elif field.type is tuple:
                bad = [default[:-1] + (float(default[-1]),), default[:-1] + (True,)]
            else:
                continue
            for value in bad:
                with pytest.raises(ValueError, match=rf"^{field.name}\b"):
                    kind(**{field.name: value})

    def test_nonpositive_steps_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)


class TestMakeBatch:
    def test_half_and_half(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus)
        batch = make_batch(corpus, mcfg, np.random.default_rng(0), 16)
        assert batch.real_x.shape[0] == 8
        assert batch.gen_a.shape == (8, 1, mcfg.bins, mcfg.frames)
        assert len(batch.target_classes) == 8

    def test_reproducible(self, corpus):
        mcfg = ModelConfig(n_words=2, n_speakers=2, **TINY_MODEL)
        a = make_batch(corpus, mcfg, np.random.default_rng(5), 8)
        b = make_batch(corpus, mcfg, np.random.default_rng(5), 8)
        assert a.real_x.tobytes() == b.real_x.tobytes()
        assert a.real_classes == b.real_classes
        assert a.target_classes == b.target_classes

    def test_label_frequencies_uniform(self, corpus):
        mcfg = ModelConfig(n_words=2, n_speakers=2, **TINY_MODEL)
        rng = np.random.default_rng(6)
        counts = np.zeros(4)
        n_batches = 2000
        for _ in range(n_batches):
            batch = make_batch(corpus, mcfg, rng, 4)
            for c in batch.real_classes:
                counts[c] += 1
        n = counts.sum()
        p = 0.25
        sigma = np.sqrt(n * p * (1 - p))
        assert (np.abs(counts - n * p) < 3 * sigma).all()


class TestSteps:
    def test_disc_step_leaves_generator_untouched(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus)
        before = trainer.gen_params.content_hash()
        batch = make_batch(corpus, mcfg, trainer.rng, 4)
        trainer.disc_step(batch)
        assert trainer.gen_params.content_hash() == before
        assert trainer.disc_params.content_hash() != before

    def test_gen_step_leaves_discriminator_untouched(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus)
        before = trainer.disc_params.content_hash()
        gen_before = trainer.gen_params.content_hash()
        batch = make_batch(corpus, mcfg, trainer.rng, 4)
        trainer.gen_step(batch)
        assert trainer.disc_params.content_hash() == before
        assert trainer.gen_params.content_hash() != gen_before

    def test_init_real_accuracy_near_chance(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus)
        rng = np.random.default_rng(7)
        n = 1000
        hits = 0
        for _ in range(n // 4):
            batch = make_batch(corpus, mcfg, rng, 8)
            logits = discriminator_forward(trainer.disc_params,
                                           Tensor(batch.real_x))
            # zero head ties every logit; argmax would always pick class 0,
            # so score a uniform draw the way an untrained classifier behaves
            pred = rng.integers(mcfg.n_classes, size=4)
            hits += (pred == np.array(batch.real_classes)).sum()
        p = 1.0 / mcfg.n_classes
        sigma = np.sqrt(n * p * (1 - p)) * 4 / 4
        assert abs(hits - n * p) < 3 * sigma

    def test_disc_loss_decreases_on_frozen_generator(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus, steps=200)
        first = last = None
        for i in range(200):
            batch = make_batch(corpus, mcfg, trainer.rng, 4)
            loss, _, _ = trainer.disc_step(batch)
            if i < 10:
                first = loss if first is None else first
            last = loss
        assert last < first

    def test_gen_step_lambda_zero_matches_pure_analogy(self, corpus):
        runs = []
        for lam in (0.0, 0.0):
            trainer, _, mcfg = tiny_trainer(corpus, lambda_adv=lam)
            batch = make_batch(corpus, mcfg, np.random.default_rng(8), 4)
            trainer.gen_step(batch)
            runs.append(trainer.gen_params.content_hash())
        assert runs[0] == runs[1]

    def test_nan_guard(self, corpus):
        trainer, _, mcfg = tiny_trainer(corpus)
        trainer.gen_params["enc_fc_w"].data[:] = np.nan
        batch = make_batch(corpus, mcfg, trainer.rng, 4)
        with pytest.raises(TrainingDivergedError, match="step"):
            trainer.gen_step(batch)


def taped_disc_step(trainer, batch):
    """disc_step as it was with the generator forward on the tape."""
    gen_x = generator_forward(trainer.gen_params, Tensor(batch.gen_a),
                              Tensor(batch.gen_b), Tensor(batch.gen_c))
    loss, logits = discriminator_loss(trainer.disc_params, batch.real_x,
                                      batch.real_classes, gen_x)
    trainer.gen_params.zero_grads()
    trainer.disc_params.zero_grads()
    loss.backward()
    trainer.disc_opt.step(trainer.disc_params.named())
    pred = logits.data.argmax(axis=1)
    n_real = len(batch.real_classes)
    return (float(loss.data[0]),
            float((pred[:n_real] == np.array(batch.real_classes)).mean()),
            float((pred[n_real:] == trainer.model_config.fake_class).mean()))


def test_disc_step_matches_taped_path(corpus):
    new, _, mcfg = tiny_trainer(corpus, seed=5)
    old, _, _ = tiny_trainer(corpus, seed=5)
    for trainer in (new, old):
        trainer.train_step()     # a trained head, so the logits are not all tied
    for _ in range(3):
        batch = make_batch(corpus, mcfg, new.rng, 4)
        assert new.disc_step(batch) == taped_disc_step(old, batch)
        assert new.disc_params.content_hash() == old.disc_params.content_hash()
        assert new.disc_opt.state_tensors().keys() == old.disc_opt.state_tensors().keys()
        for name, arr in new.disc_opt.state_tensors().items():
            assert arr.tobytes() == old.disc_opt.state_tensors()[name].tobytes()
        assert all(p.grad is None for _, p in new.gen_params.items())
    assert new.gen_params.content_hash() == old.gen_params.content_hash()


class TestDeterminism:
    def test_metrics_log_byte_identical(self, corpus, tmp_path):
        logs = []
        for run in range(2):
            trainer, cfg, mcfg = tiny_trainer(corpus, steps=5, seed=11)
            path = tmp_path / f"metrics_{run}.log"
            train(corpus, cfg, metrics_path=path, model_config=mcfg)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_different_seed_differs(self, corpus, tmp_path):
        outs = []
        for seed in (1, 2):
            trainer, cfg, mcfg = tiny_trainer(corpus, steps=3, seed=seed)
            path = tmp_path / f"m{seed}.log"
            train(corpus, cfg, metrics_path=path, model_config=mcfg)
            outs.append(path.read_bytes())
        assert outs[0] != outs[1]


class TestCheckpoint:
    def test_round_trip_byte_identical(self, corpus, tmp_path):
        trainer, _, _ = tiny_trainer(corpus, steps=3)
        for _ in range(3):
            trainer.train_step()
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_checkpoint(trainer, p1)
        loaded = load_checkpoint(p1, corpus)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_draws_no_weights_and_steps_as_the_saved_trainer(self, corpus, tmp_path,
                                                                  monkeypatch):
        trainer, _, _ = tiny_trainer(corpus)
        trainer.train_step()
        path = tmp_path / "a.bin"
        save_checkpoint(trainer, path)

        def no_draw(*args):
            raise AssertionError("a load drew initial weights")
        monkeypatch.setattr(model, "_he_init", no_draw)
        loaded = load_checkpoint(path, corpus)
        assert loaded.gen_params.content_hash() == trainer.gen_params.content_hash()
        assert loaded.disc_params.content_hash() == trainer.disc_params.content_hash()
        opts = (loaded.gen_opt, loaded.disc_opt)
        assert all(opt._m and opt._v for opt in opts)
        loaded.train_step()
        trainer.train_step()
        for new, old in zip(opts, (trainer.gen_opt, trainer.disc_opt)):
            for name, arr in new.state_tensors().items():
                assert arr.tobytes() == old.state_tensors()[name].tobytes()
        assert loaded.gen_params.content_hash() == trainer.gen_params.content_hash()
        assert loaded.disc_params.content_hash() == trainer.disc_params.content_hash()

    def test_bad_magic(self, corpus, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(p, corpus)

    def test_resume_matches_uninterrupted(self, corpus, tmp_path):
        # uninterrupted run
        trainer, cfg, mcfg = tiny_trainer(corpus, steps=6, seed=4,
                                          checkpoint_interval=3)
        full_log = tmp_path / "full.log"
        full, _ = train(corpus, cfg, metrics_path=full_log, checkpoint_dir=tmp_path,
                        model_config=mcfg)
        # resume from the checkpoint written at step 3
        resumed_log = tmp_path / "resumed.log"
        resumed, _ = resume(corpus, tmp_path / "ckpt_000003.bin",
                            metrics_path=resumed_log)
        assert resumed.step == full.step
        assert resumed.gen_params.content_hash() == full.gen_params.content_hash()
        assert resumed.disc_params.content_hash() == full.disc_params.content_hash()
        full_lines = full_log.read_text().splitlines()
        resumed_lines = resumed_log.read_text().splitlines()
        assert resumed_lines == [l for l in full_lines
                                 if not l.startswith("#")
                                 and int(l.split()[0]) > 3]


class TestEvaluate:
    def test_untrained_report_fields(self, corpus):
        trainer, _, _ = tiny_trainer(corpus)
        report = evaluate(trainer, corpus)
        assert report.n_quadruples == 64
        assert report.reconstruction_error > 0
        assert 0.0 <= report.f0_transfer_score <= 1.0
        assert 0.0 <= report.disc_real_accuracy <= 1.0

    def test_copy_d_oracle(self, corpus):
        from voiceanalogy.corpus import sample_quadruple
        from voiceanalogy import tensor as T
        mcfg = ModelConfig(n_words=2, n_speakers=2, **TINY_MODEL)
        rng = np.random.default_rng(10)
        quads = [sample_quadruple(corpus, rng, holdout=True) for _ in range(8)]
        d = spec_batch([q.d for q in quads], mcfg)
        assert T.mse_loss(Tensor(d), d).data[0] == 0.0

    def test_metrics_record_log_line_excludes_wall_time(self):
        rec = MetricsRecord(3, 1.0, 2.0, 3.0, 0.5, 0.25, 123.456)
        assert "123.456" not in rec.log_line()
        assert rec.log_line().split()[0] == "3"


class TestFloat32:
    """A float64 array slipping into the step costs the float32 speed-up
    without failing a numeric test, so the dtypes are checked directly."""

    @pytest.fixture(scope="class")
    def trainer(self):
        # the default CQT config, and so the default model
        return Trainer(build_corpus(2, 4, 3, seed=0), TrainConfig())

    def test_gen_step_graph_and_gradients_are_float32(self, trainer, monkeypatch):
        assert trainer.model_config == ModelConfig()
        # a node casts what it accumulates to its own dtype, so the vjps'
        # outputs are recorded before the cast
        handed = []
        accumulate = Tensor._accumulate

        def recording(node, g):
            handed.append(g.dtype)
            accumulate(node, g)
        monkeypatch.setattr(Tensor, "_accumulate", recording)
        batch = make_batch(trainer.corpus, trainer.model_config, np.random.default_rng(0),
                           trainer.config.batch_size)
        pred = generator_forward(trainer.gen_params, Tensor(batch.gen_a),
                                 Tensor(batch.gen_b), Tensor(batch.gen_c))
        total, _, _ = generator_total_loss(pred, batch.gen_d, trainer.disc_params.frozen(),
                                           batch.target_classes, trainer.config.lambda_adv)
        trainer.gen_params.zero_grads()
        total.backward()
        nodes, stack = {}, [total]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        tensors = [n for n in nodes.values() if n.data.size > 1]
        assert len(tensors) > 40
        assert {n.data.dtype for n in tensors} == {np.dtype(np.float32)}
        assert {n.grad.dtype for n in tensors if n._track} == {np.dtype(np.float32)}
        # the float64 total, its two losses and the weighted adversarial
        # term take a float64 gradient
        assert len(handed) > 40
        assert handed.count(np.dtype(np.float64)) == 4
        assert set(handed) == {np.dtype(np.float32), np.dtype(np.float64)}
        assert total.data.dtype == np.float64

    def test_parameters_and_moments_stay_float32(self, trainer):
        trainer.train_step()
        arrays = trainer.named_tensors()
        assert arrays.pop("gen_opt/step_count").dtype == np.float64
        assert arrays.pop("disc_opt/step_count").dtype == np.float64
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}
        assert len(arrays) == 3 * (len(trainer.gen_params.named())
                                   + len(trainer.disc_params.named()))
