"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.
"""

import time

import numpy as np
import pytest

from dermfeat import checks, data, metrics
from dermfeat.cli import main as cli_main
from dermfeat.data import SynthSpec
from dermfeat.loss import dice_loss, f1_loss, fuzzy_counts
from dermfeat.metrics import auroc, auroc_oracle
from dermfeat.model import EncoderConfig, forward, init_params
from dermfeat.superpixels import grid_superpixels, labels_to_mask, mask_to_scores
from dermfeat.train import TrainConfig, predict, train


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    """200 train / 50 test synthetic images at 64x64 (train stream seed 7)."""
    root = tmp_path_factory.mktemp("desk")
    data.generate(SynthSpec(image_size=64, cell=8, seed=7), 200,
                  root / "train", split="train")
    data.generate(SynthSpec(image_size=64, cell=8, seed=1007), 50,
                  root / "test", split="test")
    return (data.load(root / "train" / "manifest.json"),
            data.load(root / "test" / "manifest.json"))


def test_c1_gradient_correctness():
    t0 = time.perf_counter()
    tol = 1e-5
    results = []
    for i in range(40):
        results.append(checks.check_f1_loss(seed=i, shape=(4, 8, 8),
                                            tolerance=tol))
    for i in range(20):
        results.append(checks.check_f1_loss(seed=100 + i, shape=(4, 16, 16),
                                            tolerance=tol))
    for i in range(60):
        results.append(checks.check_dice_loss(seed=200 + i, shape=(1, 12, 12),
                                              tolerance=tol))
    for i in range(20):
        results.append(checks.check_model_params(seed=300 + i, tolerance=tol))
    for i in range(20):
        results.append(checks.check_model_input(seed=400 + i, tolerance=tol))
    elapsed = time.perf_counter() - t0

    worst = max(r.max_rel_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    report("gradient-correctness", ok,
           f"{len(results)} instances, worst rel error {worst:.3e} "
           f"(tolerance {tol:.0e}), {elapsed:.1f}s")
    assert all(r.passed for r in results), \
        [r.summary() for r in results if not r.passed]
    assert len(results) >= 100
    assert elapsed < 120.0


def test_c2_score_round_trip():
    rng = np.random.default_rng(42)
    for trial in range(1000):
        h = int(rng.integers(1, 21))
        w = int(rng.integers(1, 21))
        cell = int(rng.integers(1, 7))
        smap = grid_superpixels(h, w, cell)
        labels = (rng.random((smap.count, 4)) < 0.5).astype(np.float64)
        scores = mask_to_scores(smap, labels_to_mask(smap, labels))
        assert (scores == labels).all(), f"trial {trial}: inexact recovery"
    report("score-round-trip", True,
           "1000 random (grid, labels) pairs recovered exactly")


def test_c3_loss_golden_values():
    # Perfect binary prediction, 10 positives per class, eps 1 -> loss 1/21.
    truth = np.zeros((4, 8, 8))
    for c in range(4):
        truth[c].ravel()[5 * c:5 * c + 10] = 1.0
    golden, _ = f1_loss(truth, truth)
    err = abs(golden - 1.0 / 21.0)

    zero_loss, _ = f1_loss(np.zeros_like(truth), truth)

    rng = np.random.default_rng(43)
    pred1 = rng.random((1, 9, 9))
    truth1 = (rng.random((1, 9, 9)) < 0.4).astype(np.float64)
    dice, _ = dice_loss(pred1, truth1)
    tp, fp, fn = fuzzy_counts(pred1, truth1, 0)
    f1_term = 2 * tp / (2 * tp + fp + fn + 1.0)

    ok = err < 1e-12 and zero_loss == 1.0 and dice == 1.0 - f1_term
    report("loss-golden-values", ok,
           f"perfect-prediction loss off 1/21 by {err:.2e}; all-zero loss "
           f"{zero_loss}; dice == f1 term: {dice == 1.0 - f1_term}")
    assert err < 1e-12
    assert zero_loss == 1.0
    assert dice == 1.0 - f1_term


def test_c4_auroc_oracle_equivalence():
    frozen = auroc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
    frozen_oracle = auroc_oracle([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])

    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n).astype(np.float64)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        scores = rng.integers(0, max(2, n // 3), n) / 8.0  # injected duplicates
        worst = max(worst, abs(auroc(scores, labels)
                               - auroc_oracle(scores, labels)))
    ok = worst < 1e-12 and frozen == 0.75 and frozen_oracle == 0.75
    report("auroc-oracle-equivalence", ok,
           f"1000 instances, max |sort - oracle| = {worst:.2e}; "
           f"frozen case = {frozen}")
    assert frozen == 0.75 and frozen_oracle == 0.75
    assert worst < 1e-12


def test_c5_single_image_overfit(desk_dataset):
    train_samples, _ = desk_dataset
    sample = next(s for s in train_samples if (s.labels.sum(axis=0) > 0).all())
    truth = labels_to_mask(sample.smap, sample.labels)

    t0 = time.perf_counter()
    cfg = TrainConfig(batch_size=1, epochs=200, seed=7,
                      encoder=EncoderConfig())
    params, rep = train([sample], cfg)
    probs = predict(params, cfg.encoder, sample.image)
    final, _ = f1_loss(probs, truth)
    elapsed = time.perf_counter() - t0

    ok = final < 0.25 and elapsed < 120.0
    report("single-image-overfit", ok,
           f"loss {rep.losses()[0]:.3f} -> {final:.3f} after 200 steps "
           f"({elapsed:.1f}s)")
    assert final < 0.25
    assert elapsed < 120.0


def test_c6_end_to_end_learning(desk_dataset):
    train_samples, test_samples = desk_dataset
    t0 = time.perf_counter()
    cfg = TrainConfig(batch_size=8, epochs=5, seed=7,
                      encoder=EncoderConfig())
    params, rep = train(train_samples, cfg)
    predictions = [mask_to_scores(s.smap, predict(params, cfg.encoder, s.image))
                   for s in test_samples]
    result = metrics.evaluate(predictions, [s.labels for s in test_samples],
                              sample_ids=[s.name for s in test_samples])
    elapsed = time.perf_counter() - t0

    macro = result.macro_average
    per_class = {c.name: None if c.auroc is None else round(c.auroc, 4)
                 for c in result.per_class}
    ok = macro is not None and macro >= 0.85 and elapsed <= 600.0
    report("end-to-end-learning", ok,
           f"macro AUROC {macro:.4f} (bar 0.85), per-class {per_class}, "
           f"losses {[round(v, 3) for v in rep.losses()]}, {elapsed:.0f}s")
    assert macro is not None and macro >= 0.85
    assert elapsed <= 600.0


def test_c7_pipeline_determinism(tmp_path):
    def run_chain(root):
        ds = root / "ds"
        run = root / "run"
        assert cli_main(["gen-data", "--out", str(ds), "--count", "10",
                         "--size", "32", "--cell", "8", "--seed", "3"]) == 0
        assert cli_main(["train", "--data", str(ds / "manifest.json"),
                         "--out", str(run), "--epochs", "2", "--batch", "4",
                         "--channels", "4,8", "--seed", "5"]) == 0
        assert cli_main(["predict", "--weights", str(run / "weights.hfcn"),
                         "--data", str(ds / "manifest.json"),
                         "--out", str(run)]) == 0
        assert cli_main(["eval", "--pred", str(run / "predictions.json"),
                         "--data", str(ds / "manifest.json"),
                         "--out", str(run)]) == 0
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    a = run_chain(tmp_path / "a")
    b = run_chain(tmp_path / "b")
    identical = a.keys() == b.keys() and all(a[k] == b[k] for k in a)
    report("pipeline-determinism", identical,
           f"{len(a)} files byte-identical across reruns")
    assert identical


def test_c8_fcn_size_generality():
    cfg = EncoderConfig()
    params = init_params(cfg, seed=9)
    rng = np.random.default_rng(9)
    out64, _ = forward(params, cfg, rng.random((3, 64, 64)))
    out96, _ = forward(params, cfg, rng.random((3, 96, 96)))
    ok = out64.shape == (4, 64, 64) and out96.shape == (4, 96, 96)
    report("fcn-size-generality", ok,
           f"same weights -> {out64.shape} and {out96.shape}")
    assert out64.shape == (4, 64, 64)
    assert out96.shape == (4, 96, 96)
