"""AUROC tests: oracle equivalence, tie handling, pooled evaluation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dermfeat.metrics import auroc, evaluate
from oracles import auroc_oracle


class TestAuroc:
    def test_frozen_four_point_example(self):
        # Pairs: (0.9,0.8) wrong? No: positives {0.9, 0.3}, negatives {0.8, 0.2}.
        # 0.9>0.8 ok, 0.9>0.2 ok, 0.3<0.8 wrong, 0.3>0.2 ok -> 3/4.
        scores = [0.9, 0.8, 0.3, 0.2]
        labels = [1, 0, 1, 0]
        assert auroc_oracle(scores, labels) == 0.75
        assert auroc(scores, labels) == 0.75

    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert auroc(scores, labels) == 1.0
        assert auroc_oracle(scores, labels) == 1.0

    def test_all_ties_give_half(self):
        scores = [0.5] * 6
        labels = [1, 0, 1, 0, 1, 0]
        assert auroc(scores, labels) == 0.5
        assert auroc_oracle(scores, labels) == 0.5

    def test_single_class_is_undefined_not_a_crash(self):
        assert math.isnan(auroc([0.1, 0.2], [1, 1]))
        assert math.isnan(auroc([0.1, 0.2], [0, 0]))
        assert math.isnan(auroc_oracle([0.1, 0.2], [1, 1]))

    def test_matches_oracle_with_duplicates(self):
        rng = np.random.default_rng(60)
        for trial in range(1000):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, n).astype(np.float64)
            if labels.min() == labels.max():
                labels[0] = 1.0 - labels[0]
            # Quantized scores inject plenty of exact duplicates.
            scores = rng.integers(0, max(2, n // 4), n) / 10.0
            fast = auroc(scores, labels)
            slow = auroc_oracle(scores, labels)
            assert abs(fast - slow) < 1e-12, f"trial {trial}"

    def test_bit_identical_to_loop_over_tied_runs(self):
        def loop_auroc(scores, labels):
            order = np.argsort(scores, kind="stable")
            ranks = np.empty(scores.size)
            bounds = np.flatnonzero(np.diff(scores[order]) != 0.0) + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [scores.size]))
            for s, e in zip(starts, ends):
                ranks[order[s:e]] = 0.5 * (s + 1 + e)
            p = int(labels.sum())
            u = ranks[labels == 1.0].sum() - p * (p + 1) / 2.0
            return float(u / (p * (scores.size - p)))

        rng = np.random.default_rng(61)
        for trial in range(300):
            n = int(rng.integers(2, 301))
            labels = rng.integers(0, 2, n).astype(np.float64)
            labels[:2] = (0.0, 1.0)
            scores = rng.integers(0, int(rng.integers(1, n + 1)), n) / 7.0
            assert auroc(scores, labels) == loop_auroc(scores, labels), trial

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(61)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50).astype(np.float64)
        labels[:2] = [0, 1]
        base = auroc(scores, labels)
        assert auroc(np.exp(3.0 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(scores ** 3, labels) == pytest.approx(base, abs=1e-12)

    def test_label_flip_complement(self):
        rng = np.random.default_rng(62)
        scores = rng.integers(0, 15, 60) / 7.0  # with ties
        labels = rng.integers(0, 2, 60).astype(np.float64)
        labels[:2] = [0, 1]
        total = auroc(scores, labels) + auroc(scores, 1.0 - labels)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite_score(self):
        # Unchecked, the NaN sorts last and the result reads a perfect 1.0.
        with pytest.raises(ValueError, match="finite"):
            auroc([np.nan, 0.2, 0.3], [1, 0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="scores"):
            auroc([0.1, 0.2], [1])

    def test_oracle_rejects_oversized_input(self):
        with pytest.raises(ValueError, match="1e4"):
            auroc_oracle(np.zeros(10 ** 4 + 1), np.zeros(10 ** 4 + 1))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 1)),
                    min_size=2, max_size=60).filter(
                        lambda xs: len({l for _, l in xs}) == 2))
    def test_oracle_equivalence_property(self, pairs):
        scores = [s / 3.0 for s, _ in pairs]
        labels = [l for _, l in pairs]
        assert abs(auroc(scores, labels) - auroc_oracle(scores, labels)) < 1e-12


class TestEvaluate:
    def test_perfect_predictions_score_one(self):
        rng = np.random.default_rng(63)
        truths = [(rng.random((10, 4)) < 0.4).astype(np.float64)
                  for _ in range(5)]
        for t in truths:
            t[0] = [1, 0, 1, 0]  # ensure both classes present per column
            t[1] = [0, 1, 0, 1]
        result = evaluate([t.copy() for t in truths], truths)
        for c in result.per_class:
            assert c.auroc == 1.0
        assert result.macro_average == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(64)
        truths = [(rng.random((100, 4)) < 0.3).astype(np.float64)
                  for _ in range(100)]
        preds = [rng.random((100, 4)) for _ in range(100)]
        result = evaluate(preds, truths)
        assert abs(result.macro_average - 0.5) < 0.03

    def test_absent_class_excluded_from_macro(self):
        truth = np.zeros((8, 4))
        truth[:2, 0] = 1.0  # only class 0 has positives
        pred = np.linspace(0, 1, 32).reshape(8, 4)
        result = evaluate([pred], [truth])
        assert result.per_class[0].auroc is not None
        for c in result.per_class[1:]:
            assert c.auroc is None
            assert c.positives == 0
        assert result.macro_average == result.per_class[0].auroc

    def test_macro_within_defined_range(self):
        rng = np.random.default_rng(65)
        truths = [(rng.random((40, 4)) < 0.4).astype(np.float64)]
        preds = [rng.random((40, 4))]
        result = evaluate(preds, truths)
        defined = [c.auroc for c in result.per_class if c.auroc is not None]
        assert min(defined) <= result.macro_average <= max(defined)

    def test_pools_across_images(self):
        # Pooled scoring equals scoring the concatenation directly.
        rng = np.random.default_rng(66)
        truths = [(rng.random((12, 4)) < 0.4).astype(np.float64)
                  for _ in range(3)]
        preds = [rng.random((12, 4)) for _ in range(3)]
        pooled = evaluate(preds, truths)
        merged = evaluate([np.concatenate(preds)], [np.concatenate(truths)])
        for a, b in zip(pooled.per_class, merged.per_class):
            assert a.auroc == b.auroc

    def test_traced_peak_per_superpixel(self):
        # Each class is pooled straight from the per-image tables, 89 bytes
        # a superpixel at peak; concatenating the [N,4] tables first, then
        # copying each strided column, read 153.
        rng = np.random.default_rng(67)
        truths = [(rng.random((1024, 4)) < 0.3).astype(np.float64)
                  for _ in range(16)]
        preds = [rng.random((1024, 4)) for _ in range(16)]
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            evaluate(preds, truths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * 1024) < 120

    def test_mismatch_names_the_image(self):
        with pytest.raises(ValueError, match="sample_7"):
            evaluate([np.zeros((3, 4))], [np.zeros((5, 4))],
                     sample_ids=["sample_7"])

    def test_sample_id_count_mismatch_names_both_counts(self):
        # zip would stop at the shorter list and drop the second image.
        with pytest.raises(ValueError, match="1 sample ids but 2 prediction sets"):
            evaluate([np.zeros((3, 4))] * 2, [np.zeros((3, 4))] * 2,
                     sample_ids=["a"])

    def test_non_finite_score_names_the_image(self):
        preds = [np.full((3, 4), 0.5), np.full((3, 4), 0.5)]
        preds[1][2, 0] = np.inf
        with pytest.raises(ValueError, match="sample_9.*finite"):
            evaluate(preds, [np.zeros((3, 4))] * 2,
                     sample_ids=["sample_8", "sample_9"])

    @pytest.mark.parametrize("bad", [7.0, -3.0, 1.0 + 1e-12, -0.5e-300])
    def test_score_outside_unit_interval_names_the_image(self, bad):
        preds = [np.full((3, 4), 0.5), np.full((3, 4), 0.5)]
        preds[1][1, 2] = bad
        with pytest.raises(ValueError,
                           match=r"^sample_9: prediction scores must lie in \[0, 1\]$"):
            evaluate(preds, [np.zeros((3, 4))] * 2,
                     sample_ids=["sample_8", "sample_9"])

    def test_json_payload_shape(self):
        truth = np.zeros((4, 4))
        truth[0] = 1.0
        result = evaluate([np.linspace(0, 1, 16).reshape(4, 4)], [truth])
        doc = result.to_json_dict()
        assert {c["class"] for c in doc["per_class"]} == {
            "pigment_network", "negative_network", "milia_like_cyst", "streaks"}
        assert "macro_average" in doc
