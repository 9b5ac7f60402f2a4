import numpy as np
import pytest

from voiceanalogy import tensor as T
from voiceanalogy.model import (DiscriminatorParams, GeneratorParams, ModelConfig,
                                analogy_loss, decode, discriminator_forward,
                                discriminator_loss, encode, generator_adversarial_loss,
                                generator_forward, generator_total_loss, spec_batch,
                                transform)
from voiceanalogy.tensor import Tensor

TOY = ModelConfig(bins=8, frames=8, channels=(2, 3), latent=6, n_words=4, n_speakers=2)


@pytest.fixture
def gen_params():
    return GeneratorParams(TOY, np.random.default_rng(0))


@pytest.fixture
def disc_params():
    return DiscriminatorParams(TOY, np.random.default_rng(1))


def toy_batch(n, seed):
    return np.random.default_rng(seed).normal(size=(n, 1, TOY.bins, TOY.frames))


class TestConfig:
    def test_feature_size(self):
        assert TOY.feature_size == 3 * 2 * 2

    def test_class_layout(self):
        assert TOY.n_classes == 9
        assert TOY.fake_class == 8
        assert TOY.class_index(0, 0) == 0
        assert TOY.class_index(3, 1) == 7

    def test_full_size_config(self):
        cfg = ModelConfig()
        assert cfg.feature_size == 32 * 12 * 16

    def test_bad_transform_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(transform="affine")

    @pytest.mark.parametrize("field, value, name", [
        ("latent", -4, "latent"), ("channels", (16, 0), r"channels\[1\]")])
    def test_bad_size_names_the_field(self, field, value, name):
        with pytest.raises(ValueError, match=name):
            ModelConfig(**{field: value})


class TestEncodeDecode:
    def test_encode_shape_and_determinism(self, gen_params):
        x = Tensor(toy_batch(3, 2))
        a = encode(gen_params, x)
        b = encode(gen_params, x)
        assert a.shape == (3, TOY.latent)
        assert a.data.tobytes() == b.data.tobytes()

    def test_zero_input_gives_bias_pathway(self, gen_params):
        z = encode(gen_params, Tensor(np.zeros((1, 1, TOY.bins, TOY.frames))))
        # conv biases are zero at init, so the latent is exactly the fc bias
        np.testing.assert_array_equal(z.data[0], gen_params["enc_fc_b"].data)

    def test_decode_shape(self, gen_params):
        z = Tensor(np.random.default_rng(3).normal(size=(2, TOY.latent)))
        out = decode(gen_params, z)
        assert out.shape == (2, 1, TOY.bins, TOY.frames)

    def test_decode_deterministic(self, gen_params):
        z = Tensor(np.random.default_rng(4).normal(size=(1, TOY.latent)))
        assert decode(gen_params, z).data.tobytes() == decode(gen_params, z).data.tobytes()

    def test_encoder_gradient_wrt_input(self, gen_params):
        # the float32 weights are held fixed: a float64 gradient may not
        # reach a float32 tensor, so only the float64 input is tracked
        x = Tensor(toy_batch(1, 5), requires_grad=True)
        weights = gen_params.frozen()
        err = T.gradient_check(lambda: (encode(weights, x) * encode(weights, x)).sum(),
                               {"x": x})
        assert err < 1e-4

    def test_decode_gradient(self, gen_params):
        z = Tensor(np.random.default_rng(6).normal(size=(1, TOY.latent)),
                   requires_grad=True)
        weights = gen_params.frozen()
        err = T.gradient_check(lambda: (decode(weights, z) * decode(weights, z)).sum(),
                               {"z": z})
        assert err < 1e-4


class TestTransform:
    def test_additive_identity(self, gen_params):
        z = Tensor(np.random.default_rng(7).normal(size=(2, TOY.latent)))
        zc = Tensor(np.random.default_rng(8).normal(size=(2, TOY.latent)))
        out = transform(gen_params, z, z, zc)
        np.testing.assert_array_equal(out.data, zc.data)

    def test_additive_arithmetic(self, gen_params):
        za = Tensor(np.full((1, TOY.latent), 1.0))
        zb = Tensor(np.full((1, TOY.latent), 3.0))
        zc = Tensor(np.full((1, TOY.latent), 5.0))
        np.testing.assert_array_equal(transform(gen_params, za, zb, zc).data, 7.0)

    def test_deep_variant_sensitive_to_zc(self):
        cfg = ModelConfig(bins=8, frames=8, channels=(2, 3), latent=6,
                          transform="deep")
        params = GeneratorParams(cfg, np.random.default_rng(9))
        z = Tensor(np.random.default_rng(10).normal(size=(1, 6)))
        zc1 = Tensor(np.random.default_rng(11).normal(size=(1, 6)))
        zc2 = Tensor(zc1.data + 0.5)
        out1 = transform(params, z, z, zc1)
        out2 = transform(params, z, z, zc2)
        assert np.abs(out1.data - out2.data).max() > 1e-6


class TestGenerator:
    def test_additive_identity_end_to_end(self, gen_params):
        a = toy_batch(2, 12)
        c = toy_batch(2, 13)
        pred = generator_forward(gen_params, Tensor(a), Tensor(a), Tensor(c))
        direct = decode(gen_params, encode(gen_params, Tensor(c)))
        assert pred.data.tobytes() == direct.data.tobytes()

    def test_batch_permutation_no_leakage(self, gen_params):
        a, b, c = toy_batch(3, 14), toy_batch(3, 15), toy_batch(3, 16)
        out = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c)).data
        perm = [2, 0, 1]
        out_p = generator_forward(gen_params, Tensor(a[perm]), Tensor(b[perm]),
                                  Tensor(c[perm])).data
        np.testing.assert_array_equal(out_p, out[perm])

    def test_analogy_loss_constant_offset(self, gen_params):
        d = toy_batch(1, 17)
        pred = Tensor(d + 0.5)
        loss = analogy_loss(pred, d)
        np.testing.assert_allclose(loss.data[0], 0.5 * TOY.bins * TOY.frames * 0.25)

    def test_full_generator_gradient(self, gen_params):
        a, b, c = toy_batch(1, 18), toy_batch(1, 19), toy_batch(1, 20)
        d = toy_batch(1, 21)

        def loss():
            pred = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c))
            return analogy_loss(pred, d)

        err = T.gradient_check(loss, gen_params.named(), max_coords_per_tensor=8,
                               rng=np.random.default_rng(22))
        assert err < 1e-4

    def test_gradient_check_of_float32_generator_runs_in_float64(self, gen_params,
                                                                disc_params):
        disc_params["head_w"].data[:] = np.random.default_rng(23).normal(
            size=disc_params["head_w"].shape) * 0.1
        a, b, c, d = (toy_batch(2, seed).astype(np.float32) for seed in (24, 25, 26, 27))
        before = {name: (p.data, p.data.tobytes()) for name, p in gen_params.items()}
        dtypes = []

        def loss():
            pred = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c))
            dtypes.append(pred.data.dtype)
            return generator_total_loss(pred, d, disc_params.frozen(), [1, 6], 0.05)[0]

        err = T.gradient_check(loss, gen_params.named(), max_coords_per_tensor=8,
                               rng=np.random.default_rng(28))
        assert err < 1e-4
        assert set(dtypes) == {np.dtype(np.float64)}
        for name, p in gen_params.items():
            data, raw = before[name]
            assert p.data is data and p.data.dtype == np.float32
            assert p.data.tobytes() == raw and p.grad is None


class TestDiscriminator:
    def test_logit_count(self, disc_params):
        logits = discriminator_forward(disc_params, Tensor(toy_batch(2, 23)))
        assert logits.shape == (2, 9)

    def test_softmax_simplex(self, disc_params):
        logits = discriminator_forward(disc_params, Tensor(toy_batch(5, 24))).data
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_zero_head_uniform_loss(self, disc_params):
        loss, _ = discriminator_loss(disc_params, toy_batch(4, 25), [0, 1, 2, 3],
                                     Tensor(toy_batch(4, 26)))
        np.testing.assert_allclose(loss.data[0], np.log(9), atol=1e-12)

    def test_confident_loss_approaches_zero(self, disc_params):
        x = toy_batch(2, 27)
        logits = discriminator_forward(disc_params, Tensor(x))
        # drive the head so the correct class wins by a wide margin
        disc_params["head_b"].data[:] = 0.0
        disc_params["head_b"].data[3] = 50.0
        loss = T.softmax_cross_entropy(discriminator_forward(disc_params, Tensor(x)),
                                       [3, 3])
        assert loss.data[0] < 1e-9

    def test_empty_half_rejected(self, disc_params):
        with pytest.raises(ValueError):
            discriminator_loss(disc_params, np.zeros((0, 1, 8, 8)), [],
                               Tensor(toy_batch(1, 28)))

    def test_disc_loss_gradient(self):
        params = DiscriminatorParams(TOY, np.random.default_rng(29))
        # non-degenerate head so the check exercises every path
        params["head_w"].data[:] = np.random.default_rng(30).normal(
            size=params["head_w"].shape) * 0.1
        real = toy_batch(1, 31)
        fake = toy_batch(1, 32)

        def loss():
            value, _ = discriminator_loss(params, real, [2], Tensor(fake))
            return value

        err = T.gradient_check(loss, params.named(), max_coords_per_tensor=8,
                               rng=np.random.default_rng(33))
        assert err < 1e-4


class TestAdversarialLoss:
    def test_uniform_disc_gives_log9(self, gen_params, disc_params):
        gen = Tensor(toy_batch(3, 34))
        loss = generator_adversarial_loss(disc_params.frozen(), gen, [0, 4, 7])
        np.testing.assert_allclose(loss.data[0], np.log(9), atol=1e-12)

    def test_decreases_with_target_mass(self, disc_params):
        x = Tensor(toy_batch(1, 35))
        base = generator_adversarial_loss(disc_params.frozen(), x, [2]).data[0]
        disc_params["head_b"].data[2] = 3.0
        better = generator_adversarial_loss(disc_params.frozen(), x, [2]).data[0]
        assert better < base

    def test_gradient_isolation(self, gen_params, disc_params):
        a, b, c = (toy_batch(1, seed).astype(np.float32) for seed in (36, 37, 38))
        pred = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c))
        frozen = disc_params.frozen()
        loss = generator_adversarial_loss(frozen, pred, [5])
        loss.backward()
        assert all(p.grad is None for p in disc_params.named().values())
        assert all(p.grad is not None for p in gen_params.named().values())

    def test_detached_generated_blocks_generator(self, gen_params, disc_params):
        a, b, c, real = (toy_batch(1, seed).astype(np.float32) for seed in (39, 40, 41, 42))
        pred = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c))
        loss, _ = discriminator_loss(disc_params, real, [0], pred)
        loss.backward()
        assert all(p.grad is None for p in gen_params.named().values())

    def test_total_loss_arithmetic(self, gen_params, disc_params):
        a, b, c = toy_batch(2, 43), toy_batch(2, 44), toy_batch(2, 45)
        d = toy_batch(2, 46)
        pred = generator_forward(gen_params, Tensor(a), Tensor(b), Tensor(c))
        total, a_loss, adv = generator_total_loss(pred, d, disc_params.frozen(),
                                                  [1, 6], 0.05)
        np.testing.assert_allclose(total.data[0],
                                   a_loss.data[0] + 0.05 * adv.data[0], rtol=1e-12)
        total0, a0, _ = generator_total_loss(pred, d, disc_params.frozen(), [1, 6], 0.0)
        np.testing.assert_allclose(total0.data[0], a0.data[0], rtol=1e-12)


class TestSpecBatch:
    def test_pads_frames(self):
        class Fake:
            values = np.ones((8, 5))

        out = spec_batch([Fake()], TOY)
        assert out.shape == (1, 1, 8, 8)
        np.testing.assert_array_equal(out[0, 0, :, 5:], 0.0)

    def test_wrong_bins_rejected(self):
        class Fake:
            values = np.ones((5, 8))

        with pytest.raises(T.ShapeMismatchError):
            spec_batch([Fake()], TOY)

    def test_float32_batch(self):
        class Fake:
            values = np.full((8, 5), 0.1)

        out = spec_batch([Fake()], TOY)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out[0, 0, :, :5], np.float32(0.1))


@pytest.mark.parametrize("params", [GeneratorParams, DiscriminatorParams])
def test_weights_are_float32_casts_of_the_same_draws(params):
    got = params(ModelConfig(transform="deep"), np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for name, (shape, fan_in) in params.layout(got.config).items():
        want = (np.zeros(shape) if fan_in is None
                else rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))
        assert got[name].data.dtype == np.float32
        assert got[name].data.tobytes() == want.astype(np.float32).tobytes()


# Written out, not derived from `layout`: the checkpoint names, their order
# (the draw order) and each He fan-in; None marks a zero-initialised array.
CONV_STACK = [("conv1_w", (16, 1, 3, 3), 9), ("conv1_b", (16, 1, 1), None),
              ("conv2_w", (32, 16, 3, 3), 144), ("conv2_b", (32, 1, 1), None)]
GENERATOR_LAYOUT = [
    *[("enc_" + name, shape, fan_in) for name, shape, fan_in in CONV_STACK],
    ("enc_fc_w", (6144, 64), 6144), ("enc_fc_b", (64,), None),
    ("dec_fc_w", (64, 6144), 64), ("dec_fc_b", (6144,), None),
    ("dec_tconv1_w", (32, 16, 3, 3), 288), ("dec_tconv1_b", (16, 1, 1), None),
    ("dec_tconv2_w", (16, 1, 3, 3), 144), ("dec_tconv2_b", (1, 1, 1), None)]
DEEP_TRANSFORM_LAYOUT = [("tr_fc1_w", (128, 128), 128), ("tr_fc1_b", (128,), None),
                         ("tr_fc2_w", (128, 64), 128), ("tr_fc2_b", (64,), None)]
CRITIC_LAYOUT = [*CONV_STACK, ("head_w", (6144, 9), None), ("head_b", (9,), None)]
# (transform, seed) -> content_hash of the generator and then the critic,
# drawn from one generator seeded with `seed`, in that order, as Trainer does
INITIAL_HASHES = {
    ("additive", 0): ("b792ddd3736252f234b02371591f0e75f624128ca286be4a96e8487cc32b3630",
                      "636496364ea1682cc848ece6872c30697c414fdf468c50c2319da5ea0ff09442"),
    ("additive", 1): ("16f2d74a4f0087f54c55963cdae82092dd76885a876dce461da8b49cbab7a1e9",
                      "01c91119353d1e960a2334014be91cb4860c602eb0cc9883989f38ec7bf57e16"),
    ("deep", 0): ("1b3aeccd5c44a8f4a3070cb24e51a20b11fa0c9cc9f92ca6f504e64d450ec315",
                  "8a7c34d72212680320ae0b09cff020787ddae48f24ccae92dd4f45916748f2c4"),
    ("deep", 1): ("ce5026265a50b9c741b007123847f8ca7da663572443ff6e7317cd1c2b7e96c3",
                  "85bd635317f2ea788180391adea670b78eee6f1ed6ee05b7aca422e2c7d3e624"),
}


@pytest.mark.parametrize("transform", ["additive", "deep"])
def test_parameter_names_shapes_and_fan_ins_are_pinned(transform):
    cfg = ModelConfig(transform=transform)
    deep = DEEP_TRANSFORM_LAYOUT if transform == "deep" else []
    for params, want in ((GeneratorParams, GENERATOR_LAYOUT + deep),
                         (DiscriminatorParams, CRITIC_LAYOUT)):
        got = [(name, shape, fan_in) for name, (shape, fan_in) in params.layout(cfg).items()]
        assert got == want
        made = params(cfg, np.random.default_rng(0))
        assert [(name, p.data.shape) for name, p in made.items()] == \
            [(name, shape) for name, shape, _ in want]


@pytest.mark.parametrize("transform, seed", sorted(INITIAL_HASHES))
def test_initial_weights_of_each_seed_are_pinned(transform, seed):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(transform=transform)
    gen = GeneratorParams(cfg, rng)
    disc = DiscriminatorParams(cfg, rng)
    assert (gen.content_hash(), disc.content_hash()) == INITIAL_HASHES[transform, seed]
