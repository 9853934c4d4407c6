"""Training loop tests: determinism, null updates, shuffling, descent."""

from dataclasses import replace

import numpy as np
import pytest

from dermfeat import data, model
from dermfeat.data import SynthSpec
from dermfeat.model import EncoderConfig
from dermfeat.train import TrainConfig, predict, train

TINY_ENCODER = EncoderConfig(channels=(4, 8), in_channels=3)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    data.generate(SynthSpec(image_size=16, cell=4, seed=3), 6, root)
    return data.load(root / "manifest.json")


def tiny_config(**kw) -> TrainConfig:
    defaults = dict(batch_size=3, epochs=2, learning_rate=0.05, momentum=0.9,
                    seed=1, encoder=TINY_ENCODER)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestConfig:
    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            tiny_config(epochs=0).validate()

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="batch"):
            tiny_config(batch_size=0).validate()


class TestTrain:
    def test_zero_learning_rate_keeps_params_bit_exact(self, tiny_dataset):
        cfg = tiny_config(learning_rate=0.0)
        params, report = train(tiny_dataset, cfg)
        initial = model.init_params(cfg.encoder, cfg.seed)
        for a, b in zip(params.values(), initial.values()):
            np.testing.assert_array_equal(a, b)
        # With frozen params every epoch sees the same loss.
        assert report.losses()[0] == report.losses()[1]

    def test_deterministic_for_fixed_seed(self, tiny_dataset):
        p1, r1 = train(tiny_dataset, tiny_config())
        p2, r2 = train(tiny_dataset, tiny_config())
        assert r1.losses() == r2.losses()
        for a, b in zip(p1.values(), p2.values()):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_trajectory(self, tiny_dataset):
        _, r1 = train(tiny_dataset, tiny_config(seed=1))
        _, r2 = train(tiny_dataset, tiny_config(seed=2))
        assert r1.losses() != r2.losses()

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train([], tiny_config())

    def test_rejects_wrong_image_size_naming_sample(self, tiny_dataset):
        odd = replace(tiny_dataset[4], image=np.zeros((3, 32, 32)))
        dataset = tiny_dataset[:4] + [odd] + tiny_dataset[5:]
        with pytest.raises(ValueError, match=r"sample 'sample_00004\.ppm': "
                           r"image shape \(3, 32, 32\) differs from the "
                           r"first sample's \(3, 16, 16\)"):
            train(dataset, tiny_config())

    def test_rejects_indivisible_image_naming_sample(self, tiny_dataset):
        odd = replace(tiny_dataset[0], image=np.zeros((3, 15, 16)))
        with pytest.raises(ValueError, match=r"sample 'sample_00000\.ppm': "
                           r"image extents 15x16 must be divisible by 2"):
            train([odd] + tiny_dataset[1:], tiny_config())

    def test_every_sample_visited_once_per_epoch(self, tiny_dataset, monkeypatch):
        seen = []
        real_forward = model.forward

        def recording_forward(params, cfg, image):
            seen.append(id(image))
            return real_forward(params, cfg, image)

        monkeypatch.setattr(model, "forward", recording_forward)
        train(tiny_dataset, tiny_config(epochs=3, learning_rate=0.0))
        expected = {id(s.image) for s in tiny_dataset}
        n = len(tiny_dataset)
        assert len(seen) == 3 * n
        for e in range(3):
            epoch_ids = seen[e * n:(e + 1) * n]
            assert set(epoch_ids) == expected
            assert len(epoch_ids) == len(set(epoch_ids))

    def test_short_final_batch_is_kept(self, tiny_dataset, monkeypatch):
        calls = []
        real_forward = model.forward

        def recording_forward(params, cfg, image):
            calls.append(id(image))
            return real_forward(params, cfg, image)

        monkeypatch.setattr(model, "forward", recording_forward)
        train(tiny_dataset, tiny_config(epochs=1, batch_size=4))
        assert len(calls) == len(tiny_dataset)  # 4 + 2, nothing dropped

    def test_loss_trajectory_finite(self, tiny_dataset):
        _, report = train(tiny_dataset, tiny_config(epochs=3))
        assert all(np.isfinite(v) for v in report.losses())

    def test_losses_descend_on_small_overfit(self, tiny_dataset):
        cfg = tiny_config(epochs=40, batch_size=6, learning_rate=0.1)
        _, report = train(tiny_dataset, cfg)
        assert report.losses()[-1] < report.losses()[0]

    def test_divergence_fails_fast_naming_epoch_batch_and_sample(
            self, tiny_dataset):
        # Weights of ~1e300 overflow the second batch's forward pass.
        cfg = tiny_config(learning_rate=1e300, momentum=0.0)
        with pytest.raises(
                FloatingPointError,
                match=r"epoch 1, batch 2: prediction for 'sample_\d+\.ppm' "
                      r"is not finite"):
            train(tiny_dataset, cfg)

    def test_non_finite_batch_loss_fails_fast(self, tiny_dataset, monkeypatch):
        import dermfeat.train as train_mod
        real_loss = train_mod.f1_loss
        monkeypatch.setattr(train_mod, "f1_loss", lambda p, t, c: (
            float("nan"), real_loss(p, t, c)[1]))
        with pytest.raises(FloatingPointError,
                           match="epoch 1, batch 1: batch loss is not finite"):
            train(tiny_dataset, tiny_config())

    def test_non_finite_update_fails_fast_naming_tensor(self, tiny_dataset,
                                                        monkeypatch):
        calls = []
        real_backward = model.backward

        def overflowing_backward(params, cfg, cache, grad_probs):
            grads, extra = real_backward(params, cfg, cache, grad_probs)
            calls.append(None)
            if len(calls) == 7:  # first sample of epoch 2, batch 1
                grads["head.bias"][0] = np.inf
            return grads, extra

        monkeypatch.setattr(model, "backward", overflowing_backward)
        with pytest.raises(FloatingPointError,
                           match="epoch 2, batch 1: head.bias is not finite"):
            train(tiny_dataset, tiny_config())

    def test_report_json_excludes_wall_time_by_default(self, tiny_dataset):
        _, report = train(tiny_dataset, tiny_config())
        doc = report.to_json_dict()
        assert all("wall_time_s" not in rec for rec in doc["epochs"])


class TestPredict:
    def test_deterministic_and_in_range(self, tiny_dataset):
        params, _ = train(tiny_dataset, tiny_config(epochs=1))
        image = tiny_dataset[0].image
        a = predict(params, TINY_ENCODER, image)
        b = predict(params, TINY_ENCODER, image)
        np.testing.assert_array_equal(a, b)
        assert (a > 0.0).all() and (a < 1.0).all()

    def test_zero_params_give_half(self):
        params = model.init_params(TINY_ENCODER, 0)
        for a in params.values():
            a[...] = 0.0
        out = predict(params, TINY_ENCODER, np.zeros((3, 16, 16)))
        np.testing.assert_array_equal(out, np.full((4, 16, 16), 0.5))

    def test_fcn_output_size_tracks_input(self, tiny_dataset):
        params, _ = train(tiny_dataset, tiny_config(epochs=1))
        for hw in (16, 24):
            rng = np.random.default_rng(hw)
            out = predict(params, TINY_ENCODER, rng.random((3, hw, hw)))
            assert out.shape == (4, hw, hw)
