"""Superpixel map, conversion, and codec tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dermfeat import netpbm
from dermfeat.superpixels import (CLASS_COUNT, SuperpixelMap, grid_superpixels,
                                  labels_to_mask, mask_to_scores, read_labels,
                                  read_superpixel_map, write_labels,
                                  write_superpixel_map)


class TestGrid:
    def test_4x4_cell_2(self):
        smap = grid_superpixels(4, 4, 2)
        assert smap.count == 4
        np.testing.assert_array_equal(smap.pixel_counts(), [4, 4, 4, 4])

    def test_single_superpixel_when_cell_covers_image(self):
        smap = grid_superpixels(3, 5, 8)
        assert smap.count == 1
        assert (smap.index == 0).all()

    def test_5x5_cell_2_ragged_sizes(self):
        # Cells enumerated by hand: 2x2, 2x2, 2x1 / 2x2, 2x2, 2x1 / 1x2, 1x2, 1x1.
        smap = grid_superpixels(5, 5, 2)
        assert smap.count == 9
        np.testing.assert_array_equal(smap.pixel_counts(),
                                      [4, 4, 2, 4, 4, 2, 2, 2, 1])

    def test_partition_property(self):
        for h, w, cell in ((6, 10, 3), (7, 7, 2), (4, 4, 4), (9, 5, 2)):
            smap = grid_superpixels(h, w, cell)
            assert smap.pixel_counts().sum() == h * w
            smap.validate()  # contiguity

    def test_row_major_cell_order(self):
        smap = grid_superpixels(4, 6, 2)
        assert smap.index[0, 0] == 0
        assert smap.index[0, 2] == 1
        assert smap.index[0, 4] == 2
        assert smap.index[2, 0] == 3


class TestConversions:
    def test_labels_to_mask_example(self):
        index = np.array([[0, 1], [0, 1]])
        smap = SuperpixelMap(index=index, count=2)
        labels = np.array([[1, 0, 0, 0], [0, 0, 0, 1]], dtype=np.float64)
        mask = labels_to_mask(smap, labels)
        np.testing.assert_array_equal(mask[0], [[1, 0], [1, 0]])
        np.testing.assert_array_equal(mask[3], [[0, 1], [0, 1]])
        np.testing.assert_array_equal(mask[1], np.zeros((2, 2)))
        np.testing.assert_array_equal(mask[2], np.zeros((2, 2)))

    def test_all_zero_labels(self):
        smap = grid_superpixels(4, 4, 2)
        mask = labels_to_mask(smap, np.zeros((4, 4)))
        assert (mask == 0).all()

    def test_single_superpixel_all_classes(self):
        smap = grid_superpixels(3, 3, 4)
        mask = labels_to_mask(smap, np.ones((1, 4)))
        assert (mask == 1).all()

    def test_rejects_row_count_mismatch(self):
        smap = grid_superpixels(4, 4, 2)
        with pytest.raises(ValueError, match="rows"):
            labels_to_mask(smap, np.zeros((3, 4)))

    def test_scores_are_channel_means(self):
        index = np.array([[0, 0, 0], [1, 1, 1]])
        smap = SuperpixelMap(index=index, count=2)
        mask = np.zeros((4, 2, 3))
        mask[2, 0] = [0.2, 0.4, 0.6]
        scores = mask_to_scores(smap, mask)
        np.testing.assert_allclose(scores[0, 2], 0.4)

    def test_rejects_non_finite_mask(self):
        smap = grid_superpixels(2, 2, 1)
        mask = np.full((4, 2, 2), 0.5)
        mask[3, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            mask_to_scores(smap, mask)

    @pytest.mark.parametrize("shape, message", [
        ((4, 3, 2), "mask height 3 != expected 2"),
        ((4, 2, 3), "mask width 3 != expected 2"),
    ], ids=["height", "width"])
    def test_rejects_mask_not_the_map_size(self, shape, message):
        with pytest.raises(ValueError, match=message):
            mask_to_scores(grid_superpixels(2, 2, 1), np.full(shape, 0.5))

    def test_two_pixel_half(self):
        index = np.array([[0], [0]])
        smap = SuperpixelMap(index=index, count=1)
        mask = np.zeros((4, 2, 1))
        mask[0] = [[0.0], [1.0]]
        assert mask_to_scores(smap, mask)[0, 0] == 0.5

    def test_round_trip_recovers_labels_exactly(self):
        rng = np.random.default_rng(20)
        smap = grid_superpixels(12, 10, 3)
        labels = (rng.random((smap.count, 4)) < 0.5).astype(np.float64)
        scores = mask_to_scores(smap, labels_to_mask(smap, labels))
        np.testing.assert_array_equal(scores, labels)

    def test_scores_bounded_by_superpixel_extremes(self):
        rng = np.random.default_rng(21)
        smap = grid_superpixels(8, 8, 3)
        mask = rng.random((4, 8, 8))
        scores = mask_to_scores(smap, mask)
        for i in range(smap.count):
            sel = smap.index == i
            for c in range(4):
                vals = mask[c][sel]
                assert vals.min() - 1e-12 <= scores[i, c] <= vals.max() + 1e-12

    def test_pixel_visit_order_invariance(self):
        # Permuting pixels together with their ids leaves means unchanged.
        rng = np.random.default_rng(22)
        smap = grid_superpixels(6, 6, 2)
        mask = rng.random((4, 6, 6))
        base = mask_to_scores(smap, mask)
        perm = rng.permutation(36)
        index_p = smap.index.ravel()[perm].reshape(6, 6)
        mask_p = mask.reshape(4, 36)[:, perm].reshape(4, 6, 6)
        permuted = mask_to_scores(SuperpixelMap(index=index_p, count=smap.count),
                                  mask_p)
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), cell=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16))
    def test_round_trip_property(self, h, w, cell, seed):
        smap = grid_superpixels(h, w, cell)
        rng = np.random.default_rng(seed)
        labels = (rng.random((smap.count, CLASS_COUNT)) < 0.5).astype(np.float64)
        scores = mask_to_scores(smap, labels_to_mask(smap, labels))
        assert (scores == labels).all()


class TestInvariants:
    def test_rejects_out_of_range_id(self):
        smap = SuperpixelMap(index=np.array([[0, 3]]), count=2)
        with pytest.raises(ValueError, match="outside"):
            smap.validate()

    def test_rejects_empty_superpixel(self):
        smap = SuperpixelMap(index=np.array([[0, 2]]), count=3)
        with pytest.raises(ValueError, match="empty superpixel 1"):
            smap.validate()


class TestMapCodec:
    def test_round_trip(self, tmp_path):
        smap = grid_superpixels(7, 9, 3)
        path = tmp_path / "map.pgm"
        write_superpixel_map(smap, path)
        loaded = read_superpixel_map(path)
        np.testing.assert_array_equal(loaded.index, smap.index)
        assert loaded.count == smap.count

    def test_rejects_empty_superpixel_file(self, tmp_path):
        path = tmp_path / "map.pgm"
        netpbm.write_pgm16(path, np.array([[0, 2], [0, 2]]), comment="K=3")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed superpixel map: empty superpixel 1")):
            read_superpixel_map(path)

    def test_rejects_out_of_range_ids(self, tmp_path):
        path = tmp_path / "map.pgm"
        netpbm.write_pgm16(path, np.array([[0, 5]]), comment="K=2")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed superpixel map: superpixel id 5 outside")):
            read_superpixel_map(path)

    def test_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_superpixel_map(grid_superpixels(4, 4, 2), path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="truncated"):
            read_superpixel_map(path)

    def test_rejects_missing_count_comment(self, tmp_path):
        path = tmp_path / "map.pgm"
        netpbm.write_pgm16(path, np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*K="):
            read_superpixel_map(path)
        netpbm.write_pgm16(path, np.zeros((2, 2), dtype=np.int64),
                           comment="K=one")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: malformed superpixel map: invalid literal")):
            read_superpixel_map(path)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "map.pgm"
        path.write_bytes(b"P5\n# K=1\nxx yy\n65535\n")
        with pytest.raises(ValueError):
            read_superpixel_map(path)

    def test_big_endian_two_byte_encoding(self, tmp_path):
        smap = SuperpixelMap(index=np.array([[1, 0], [0, 1]]), count=2)
        path = tmp_path / "map.pgm"
        write_superpixel_map(smap, path)
        raster = path.read_bytes()[-8:]
        assert raster == b"\x00\x01\x00\x00\x00\x00\x00\x01"


class TestLabelCodec:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        labels = (rng.random((6, 4)) < 0.5).astype(np.float64)
        path = tmp_path / "labels.json"
        write_labels(labels, path)
        np.testing.assert_array_equal(read_labels(path), labels)

    def test_rejects_wrong_class_list(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('{"superpixel_count": 1, "classes": ["a"], '
                        '"labels": [[0,0,0,0]]}')
        with pytest.raises(ValueError, match="class list"):
            read_labels(path)

    def test_rejects_non_binary(self, tmp_path):
        path = tmp_path / "labels.json"
        write_labels(np.zeros((2, 4)), path)
        doc = path.read_text().replace("0,", "0.5,", 1)
        path.write_text(doc)
        with pytest.raises(ValueError, match="0 or 1"):
            read_labels(path)

    def test_rejects_count_mismatch(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text('{"superpixel_count": 3, "classes": '
                        '["pigment_network","negative_network",'
                        '"milia_like_cyst","streaks"], "labels": [[0,0,0,0]]}')
        with pytest.raises(ValueError, match="rows"):
            read_labels(path)
