import json

import numpy as np
import pytest

import neural_reference
from corrlab import corpus, gan, mc, neural, rng
from corrlab.core import validate
from corrlab.exceptions import (ConfigError, CorruptData, InvalidInput,
                                TrainingDiverged)
from corrlab.gan import GanConfig, REGIMES
from corrlab.samplers import RegimeLabel


@pytest.fixture(scope="module")
def small_corpus():
    return corpus.build_surrogate(10, 16, seed=3)


@pytest.fixture(scope="module")
def trained(small_corpus):
    config = GanConfig(dim=16, epochs=2, batch_size=8, seed=5)
    return gan.train(gan.build(config), small_corpus)


class TestConfig:
    def test_tri_len(self):
        assert GanConfig(dim=16).tri_len == 120
        assert GanConfig(dim=80).tri_len == 3160

    def test_dict_round_trip(self):
        c = GanConfig(dim=32, epochs=5, seed=9)
        assert GanConfig.from_dict(c.to_dict()) == c

    def test_regime_count_of_older_configs(self):
        c = GanConfig(dim=32, epochs=5, seed=9)
        old = {**c.to_dict(), "regime_count": len(REGIMES)}
        assert "regime_count" not in c.to_dict()
        assert GanConfig.from_dict(old) == c
        for bad in (4, 2, 3.0, True, None):
            with pytest.raises(ConfigError):
                GanConfig.from_dict({**old, "regime_count": bad})

    def test_unknown_keys(self, tmp_path):
        c = GanConfig(dim=16, epochs=1)
        with pytest.raises(ConfigError, match=r"unknown keys \['extra_key'\]"):
            GanConfig.from_dict({**c.to_dict(), "extra_key": 1})
        gan.save_checkpoint(gan.build(c), tmp_path)
        meta = json.loads((tmp_path / "gan.json").read_text())
        meta["config"]["extra_key"] = 1
        (tmp_path / "gan.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptData, match="extra_key"):
            gan.load_checkpoint(tmp_path)

    def test_rejects_unsupported(self):
        with pytest.raises(ConfigError):
            GanConfig(dim=17)
        with pytest.raises(ConfigError):
            GanConfig(batch_size=4)
        with pytest.raises(ConfigError):
            GanConfig(arch="transformer")


class TestTriangle:
    def test_round_trip(self):
        g = np.random.Generator(np.random.PCG64(0))
        t = g.uniform(-1, 1, 120)
        m = gan.matrix_from_tri(t, 16)
        assert np.array_equal(gan.tri_from_matrix(m), t)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 1.0)

    def test_one_hot(self):
        assert list(gan.one_hot(RegimeLabel.STRESSED)) == [1.0, 0.0, 0.0]
        assert list(gan.one_hot(RegimeLabel.RALLY)) == [0.0, 0.0, 1.0]


class TestBuild:
    def test_dense_shapes(self):
        ck = gan.build(GanConfig(dim=16))
        assert ck.generator.output_shape == (120,)
        assert ck.discriminator.output_shape == (1,)
        assert not ck.trained

    def test_conv_shapes(self):
        ck = gan.build(GanConfig(dim=16, arch="conv"))
        assert ck.generator.output_shape == (120,)
        assert ck.discriminator.output_shape == (1,)

    def test_untrained_sample_constraints(self):
        ck = gan.build(GanConfig(dim=16))
        batch = gan.sample(ck, RegimeLabel.NORMAL, 3, seed=1, project=False)
        assert batch.untrained_warning
        for m in batch.matrices:
            assert np.array_equal(m, m.T)
            assert np.all(np.diag(m) == 1.0)
            assert np.all(np.abs(m) <= 1.0)


class TestLoss:
    def test_saturated_logits_keep_their_gradient(self):
        logit = np.float32([[30.0], [-30.0], [30.0], [-30.0]])
        target = np.float32([[0.0], [1.0], [1.0], [0.0]])
        loss, dlogit = gan._bce_logits(logit, target)
        l64 = logit.astype(np.float64)
        expected = (1.0 / (1.0 + np.exp(-l64)) - target) / len(logit)
        assert dlogit.dtype == np.float32
        np.testing.assert_allclose(dlogit, expected, rtol=1e-6, atol=1e-12)
        assert dlogit[0, 0] == np.float32(0.25)
        assert dlogit[1, 0] == np.float32(-0.25)
        assert np.isclose(loss, 15.0, rtol=1e-6)
        # a float32 sigmoid rounds to 1 at l = 30, so its backward through
        # the BCE of the probability loses the gradient of a confident fake
        y, cache = neural.Sigmoid().forward(logit)
        dy = (y - target) / np.clip(y * (1 - y), 1e-12, None) / len(logit)
        assert neural.Sigmoid().backward(cache, dy)[0][0, 0] == 0.0

    @pytest.mark.parametrize("target", ["mixed", 1.0, 0.0])
    def test_gradient_matches_finite_differences(self, target):
        g = np.random.Generator(np.random.PCG64(8))
        logit = 4.0 * g.standard_normal((6, 1))
        if target == "mixed":
            target = (g.uniform(size=(6, 1)) < 0.5).astype(np.float64)
        _, dlogit = gan._bce_logits(logit, target)
        h = 1e-6
        for k in range(len(logit)):
            step = np.zeros_like(logit)
            step[k] = h
            lp, _ = gan._bce_logits(logit + step, target)
            lm, _ = gan._bce_logits(logit - step, target)
            assert np.isclose((lp - lm) / (2 * h), dlogit[k, 0],
                              rtol=1e-7, atol=1e-10)

    @pytest.mark.parametrize("arch", ["dense", "conv"])
    def test_stacked_pass_equals_separate_passes(self, arch):
        config = GanConfig(dim=16, arch=arch, seed=6)
        disc = gan.build(config).discriminator
        disc.set_dtype(np.float64)
        g = np.random.Generator(np.random.PCG64(9))
        tri = np.tanh(g.standard_normal((2, 8, config.tri_len)))
        hot = np.eye(3)[g.integers(0, 3, size=(2, 8))]
        logit, cache = disc.forward(
            gan._disc_input(config, np.concatenate(tri), np.concatenate(hot))
        )
        target = np.repeat([[1.0], [0.0]], 8, axis=0)
        loss, dlogit = gan._bce_logits(logit, target)
        _, grad = disc.backward(cache, dlogit)

        losses, grads = [], []
        for side, t in ((0, 1.0), (1, 0.0)):
            y, c = disc.forward(gan._disc_input(config, tri[side], hot[side]))
            side_loss, dy = gan._bce_logits(y, t)
            losses.append(side_loss)
            grads.append(disc.backward(c, dy / 2)[1])
        assert np.isclose(loss, 0.5 * sum(losses), rtol=1e-14)
        np.testing.assert_allclose(grad, grads[0] + grads[1], rtol=0,
                                   atol=1e-12)
        assert np.abs(grad).max() > 1e-3


class TestTrain:
    def test_smoke_contract(self, trained):
        assert trained.trained
        assert trained.epoch == 2
        assert len(trained.loss_history) == 2
        for g_loss, d_loss in trained.loss_history:
            assert np.isfinite(g_loss)
            assert np.isfinite(d_loss)

    def test_training_bytes_equal_reference_engine(self, small_corpus,
                                                   monkeypatch):
        """The branch-free LeakyReLU and the gradient-skipping backward
        train the same weights, bit for bit, as the select-based LeakyReLU
        and the full backward."""
        def train(arch, epochs):
            config = GanConfig(dim=16, arch=arch, epochs=epochs, batch_size=8,
                               seed=5)
            ckpt = gan.train(gan.build(config), small_corpus)
            return (ckpt.generator.weight_bytes(),
                    ckpt.discriminator.weight_bytes(), ckpt.loss_history)

        runs = [("dense", 2), ("conv", 1)]
        engine = [train(*run) for run in runs]
        neural_reference.install(monkeypatch)
        assert [train(*run) for run in runs] == engine

    def test_training_deterministic(self, small_corpus):
        config = GanConfig(dim=16, epochs=2, batch_size=8, seed=5)
        a = gan.train(gan.build(config), small_corpus)
        b = gan.train(gan.build(config), small_corpus)
        assert a.generator.weight_bytes() == b.generator.weight_bytes()
        assert a.discriminator.weight_bytes() == b.discriminator.weight_bytes()

    def test_projected_samples_valid(self, trained):
        batch = gan.sample(trained, RegimeLabel.STRESSED, 5, seed=2)
        assert batch.projected
        assert not batch.untrained_warning
        for m, disp in zip(batch.matrices, batch.displacements):
            assert validate(m).is_valid
            assert disp >= 0.0

    def test_sample_rejects_empty_count(self, trained):
        with pytest.raises(InvalidInput):
            gan.sample(trained, RegimeLabel.NORMAL, 0)

    def test_sampling_deterministic(self, trained):
        a = gan.sample(trained, RegimeLabel.NORMAL, 2, seed=7)
        b = gan.sample(trained, RegimeLabel.NORMAL, 2, seed=7)
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)

    def test_optimizer_bug_is_not_divergence(self, small_corpus, monkeypatch):
        def broken_step(self, grads):
            raise TypeError("bug in the optimizer")

        monkeypatch.setattr(neural.Adam, "step", broken_step)
        ckpt = gan.build(GanConfig(dim=16, epochs=1, batch_size=8, seed=5))
        with pytest.raises(TypeError, match="bug in the optimizer"):
            gan.train(ckpt, small_corpus)

    def test_sigmoid_discriminator_is_refused(self, small_corpus, tmp_path):
        config = GanConfig(dim=16, epochs=1, batch_size=8, seed=5)
        ckpt = gan.build(config)
        disc = ckpt.discriminator
        ckpt.discriminator = neural.Network(
            disc.layers + [neural.Sigmoid()], disc.input_shape)
        gan.save_checkpoint(ckpt, tmp_path / "ck")
        old = gan.load_checkpoint(tmp_path / "ck")
        assert old.discriminator.specs()[-1] == {"kind": "sigmoid"}
        a = gan.sample(ckpt, RegimeLabel.RALLY, 2, seed=3)
        b = gan.sample(old, RegimeLabel.RALLY, 2, seed=3)
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)
        with pytest.raises(ConfigError, match="dense logit layer"):
            gan.train(old, small_corpus)

    def test_nan_gradient_is_divergence(self, small_corpus):
        ckpt = gan.build(GanConfig(dim=16, epochs=1, batch_size=8, seed=5))
        ckpt.discriminator.layers[0].w[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="NaN/Inf gradient") as info:
            gan.train(ckpt, small_corpus)
        assert info.value.last_checkpoint is ckpt


def test_mc_runs_every_stream_of_untrained_checkpoint(capsys):
    """Projected draws of an untrained generator factor in every Monte
    Carlo stream; none is skipped as not positive definite."""
    ckpt = gan.build(GanConfig(dim=16))
    config = mc.McConfig(count_per_regime=20, dim=16, t_in=60, t_out=60)

    def draw(regime, stream):
        seed = rng.mix(config.seed, stream)
        return gan.sample(ckpt, regime, 1, seed=seed).matrices[0]

    records = mc.run(config, generator_fn=draw)
    assert len(records) == 60
    assert "skipped" not in capsys.readouterr().out


class TestCheckpoint:
    def test_round_trip(self, trained, tmp_path):
        gan.save_checkpoint(trained, tmp_path / "ck")
        back = gan.load_checkpoint(tmp_path / "ck")
        assert back.config == trained.config
        assert back.epoch == trained.epoch
        assert back.generator.weight_bytes() == trained.generator.weight_bytes()
        assert (back.discriminator.weight_bytes()
                == trained.discriminator.weight_bytes())
        a = gan.sample(trained, RegimeLabel.RALLY, 2, seed=3)
        b = gan.sample(back, RegimeLabel.RALLY, 2, seed=3)
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)
