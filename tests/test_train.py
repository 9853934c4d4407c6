"""Training loop tests: determinism, null updates, shuffling, descent."""

import os
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from dermfeat import data, model, netpbm
from dermfeat.cli import main
from dermfeat import train as train_mod
from dermfeat.data import SynthSpec
from dermfeat.model import EncoderConfig
from dermfeat.train import TrainConfig, image_map, predict, train

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
            tiny_config(epochs=0)

    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="batch"):
            tiny_config(batch_size=0)

    def test_rejects_nan_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate must be >= 0, got nan"):
            tiny_config(learning_rate=float("nan"))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            tiny_config(seed=-1)

    @pytest.mark.parametrize("field", ["learning_rate", "eps"])
    def test_rejects_infinite_value(self, field):
        with pytest.raises(ValueError, match=f"{field} must be finite, got inf"):
            tiny_config(**{field: float("inf")})

    def test_is_frozen(self):
        cfg = tiny_config()
        with pytest.raises(FrozenInstanceError):
            cfg.learning_rate = 0.0


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

    def test_rejects_an_image_not_stored_as_uint8_naming_sample(
            self, tiny_dataset):
        odd = replace(tiny_dataset[2],
                      image=data.input_image(tiny_dataset[2].image))
        with pytest.raises(ValueError, match=r"sample 'sample_00002\.ppm': "
                           r"image dtype float64 is not the stored uint8"):
            train(tiny_dataset[:2] + [odd] + tiny_dataset[3:], tiny_config())

    def test_train_and_predict_feed_the_forward_the_same_float64_image(
            self, tmp_path, monkeypatch):
        # 0 and 255 are the ends of the scale, and every other byte value
        # is in one of the three images as well.
        data.generate(SynthSpec(image_size=16, cell=4, seed=3), 3, tmp_path)
        values = np.arange(3 * 16 * 16 * 3) % 256
        rgbs = [values[i::3].astype(np.uint8).reshape(16, 16, 3)
                for i in range(3)]
        for i, rgb in enumerate(rgbs):
            netpbm.write_ppm8(tmp_path / f"sample_{i:05d}.ppm", rgb)
        seen = []
        real_forward = model.forward

        def recording_forward(params, cfg, image):
            seen.append(image.tobytes())
            return real_forward(params, cfg, image)

        monkeypatch.setattr(model, "forward", recording_forward)
        manifest = str(tmp_path / "manifest.json")
        params, _ = train(data.load(manifest),
                          tiny_config(epochs=1, learning_rate=0.0))
        trained, seen[:] = seen[:], []
        model.save_params(params, TINY_ENCODER, tmp_path / "w.hfcn")
        assert main(["predict", "--weights", str(tmp_path / "w.hfcn"),
                     "--data", manifest, "--out", str(tmp_path / "run")]) == 0
        expected = {(rgb.transpose(2, 0, 1) / 255.0).tobytes() for rgb in rgbs}
        assert len(trained) == 3 and set(trained) == set(seen) == expected
        pixels = np.frombuffer(b"".join(seen), dtype=np.float64)
        assert 0.0 in pixels and 1.0 in pixels

    def test_every_sample_visited_once_per_epoch(self, tiny_dataset, monkeypatch):
        seen = []
        real_forward = model.forward

        def recording_forward(params, cfg, image):
            seen.append(image.tobytes())
            return real_forward(params, cfg, image)

        monkeypatch.setattr(model, "forward", recording_forward)
        train(tiny_dataset, tiny_config(epochs=3, learning_rate=0.0))
        expected = {data.input_image(s.image).tobytes() for s in tiny_dataset}
        assert len(expected) == len(tiny_dataset)
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
            self, tiny_dataset, workers):
        # Weights of ~1e300 overflow the second batch's forward pass. The
        # suite turns a numpy RuntimeWarning into an error, so a pool
        # thread without train's errstate fails with that instead.
        cfg = tiny_config(learning_rate=1e300, momentum=0.0)
        threads = threading.active_count()
        with pytest.raises(
                FloatingPointError,
                match=r"epoch 1, batch 2: prediction for 'sample_\d+\.ppm' "
                      r"is not finite"):
            train(tiny_dataset, cfg)
        assert threading.active_count() == threads  # the pool is shut down

    def test_non_finite_batch_loss_fails_fast(self, tiny_dataset, monkeypatch):
        real_loss = train_mod.f1_loss_grad
        monkeypatch.setattr(train_mod, "f1_loss_grad", lambda p, t, c: (
            float("nan"), *real_loss(p, t, c)[1:]))
        with pytest.raises(FloatingPointError,
                           match="epoch 1, batch 1: batch loss is not finite"):
            train(tiny_dataset, tiny_config())

    def test_loss_checks_and_counts_each_batch_once(self, tiny_dataset,
                                                     monkeypatch):
        # f1_loss is replaced wherever train or f1_loss_grad looks it up,
        # so every checked and counted pass over a batch is recorded, with
        # the dtype its truth masks reach it in: as stored, not float64.
        import dermfeat.loss as loss_mod
        calls = []
        real_loss = loss_mod.f1_loss

        def counting_loss(pred, truth, eps):
            calls.append((pred.shape[0], truth.dtype))
            return real_loss(pred, truth, eps)

        monkeypatch.setattr(loss_mod, "f1_loss", counting_loss)
        monkeypatch.setattr(train_mod, "f1_loss", counting_loss, raising=False)
        train(tiny_dataset, tiny_config(batch_size=4, epochs=3))
        # 6 samples in batches of 4: sizes 4 and 2 in each of 3 epochs.
        assert calls == [(4, np.uint8), (2, np.uint8)] * 3

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

    def test_peak_grows_by_cache_and_loss_gradient_per_batch_pixel(
            self, tmp_path):
        # Through a batch's backward, train holds each image's forward
        # cache (the float64 image, the taps and the output: 178 bytes a
        # pixel for the default encoder) and the loss gradient (32), one
        # backward's temporaries aside; measured: 209-210 bytes per added
        # batch pixel. A cache that also kept each pooled block input (30
        # more) took 239-240.
        data.generate(SynthSpec(image_size=64, cell=8, seed=4), 8, tmp_path)
        dataset = data.load(tmp_path / "manifest.json")

        def peak(batch_size):
            tracemalloc.start()
            try:
                train(dataset, TrainConfig(batch_size=batch_size, epochs=1,
                                           seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(8) - peak(2)) / (6 * 64 * 64) < 225

    def test_report_json_excludes_wall_time_by_default(self, tiny_dataset):
        _, report = train(tiny_dataset, tiny_config())
        doc = report.to_json_dict()
        assert all("wall_time_s" not in rec for rec in doc["epochs"])


@pytest.fixture()
def cpus(monkeypatch):
    """Sets the CPU affinity that image_map reads to n CPUs."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


def started_threads(pixels, items, round_size):
    """Threads alive beyond the caller's once image_map(pixels) has run
    `items` items, counted before the pool shuts down. Each item waits
    until `round_size` items run at once, so a thread that finished its
    item cannot take the next one, as it could with a quick fn."""
    barrier = threading.Barrier(round_size, timeout=10)
    threads = threading.active_count()
    with image_map(pixels) as each:
        list(each(lambda x: barrier.wait(), range(items)))
        return threading.active_count() - threads


class TestImageWorkers:
    """The threads image_map runs, counted while they are alive."""

    def test_small_images_run_serially(self, cpus):
        cpus(3)
        threads = threading.active_count()
        with image_map(train_mod.PARALLEL_MIN_PIXELS - 1) as each:
            ran_on = list(each(lambda x: threading.get_ident(), range(8)))
            assert threading.active_count() == threads
        assert ran_on == [threading.get_ident()] * 8

    def test_large_images_take_one_thread_per_cpu_up_to_the_count(self, cpus):
        cpus(3)
        pixels = train_mod.PARALLEL_MIN_PIXELS
        assert [started_threads(pixels, n, min(3, n))
                for n in (1, 2, 3, 6)] == [0, 1, 2, 2]

    def test_every_cpu_counts_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert started_threads(train_mod.PARALLEL_MIN_PIXELS, 8, 4) == 3


def overflow_off_the_caller(caller):
    """fn whose items overflow a float64 product on pool threads only."""
    def fn(x):
        value = np.full(2, 1e300 if threading.get_ident() != caller else 1.0)
        return value * value
    return fn


class TestImageMap:
    def test_results_in_item_order_with_every_nth_item_on_the_caller(
            self, cpus):
        cpus(3)
        with image_map(train_mod.PARALLEL_MIN_PIXELS) as each:
            out = list(each(lambda x: (x * x, threading.get_ident()), range(7)))
        assert [v for v, _ in out] == [x * x for x in range(7)]
        caller = [t == threading.get_ident() for _, t in out]
        assert caller == [i % 3 == 0 for i in range(7)]

    def test_one_worker_starts_no_thread(self, cpus):
        cpus(1)
        threads = threading.active_count()
        with image_map(train_mod.PARALLEL_MIN_PIXELS) as each:
            out = list(each(lambda x: (x, threading.active_count()), range(4)))
        assert out == [(x, threads) for x in range(4)]

    # Item 2's round runs in full, and no later round starts.
    @pytest.mark.parametrize(("n", "ran"),
                             [(1, [0, 1]), (2, [0, 1, 3]), (3, [0, 1])])
    def test_raises_first_failing_item_and_leaves_no_thread(self, cpus, n,
                                                             ran):
        done = []

        def fn(x):
            if x in (2, 4):
                raise ValueError(f"item {x}")
            done.append(x)

        cpus(n)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="item 2"):
            with image_map(train_mod.PARALLEL_MIN_PIXELS) as each:
                list(each(fn, range(6)))
        assert threading.active_count() == threads
        assert sorted(done) == ran

    # A new thread starts under numpy's default error state, where an
    # overflow warns: with warnings as errors, a pool thread that did not
    # take the caller's state would fail both tests with a RuntimeWarning.
    def test_pool_threads_keep_an_ignoring_error_state(self, cpus):
        cpus(3)
        fn = overflow_off_the_caller(threading.get_ident())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"), \
                    image_map(train_mod.PARALLEL_MIN_PIXELS) as each:
                out = list(each(fn, range(3)))
        assert [np.isinf(v).all() for v in out] == [False, True, True]

    def test_pool_threads_keep_a_raising_error_state(self, cpus):
        cpus(3)
        fn = overflow_off_the_caller(threading.get_ident())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                with np.errstate(over="raise"), \
                        image_map(train_mod.PARALLEL_MIN_PIXELS) as each:
                    list(each(fn, range(3)))


class TestPredict:
    def test_deterministic_and_in_range(self, tiny_dataset):
        params, _ = train(tiny_dataset, tiny_config(epochs=1))
        image = data.input_image(tiny_dataset[0].image)
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
