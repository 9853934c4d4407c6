"""Synthetic dataset generation and manifest I/O tests."""

import json
import tracemalloc

import numpy as np
import pytest

from dermfeat import data, netpbm
from dermfeat.data import Region, SynthSpec
from dermfeat.superpixels import (grid_superpixels, labels_to_mask,
                                  mask_to_scores, write_labels,
                                  write_superpixel_map)

FAST_SPEC = SynthSpec(image_size=16, cell=4, seed=5)


def read_all_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestGenerate:
    def test_deterministic_byte_for_byte(self, tmp_path):
        data.generate(FAST_SPEC, 5, tmp_path / "a")
        data.generate(FAST_SPEC, 5, tmp_path / "b")
        a = read_all_bytes(tmp_path / "a")
        b = read_all_bytes(tmp_path / "b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], name

    def test_zero_prevalence_gives_all_zero_labels(self, tmp_path):
        spec = SynthSpec(image_size=16, cell=4, prevalence=(0, 0, 0, 0), seed=1)
        data.generate(spec, 8, tmp_path)
        for sample in data.load(tmp_path / "manifest.json"):
            assert (sample.truth == 0).all()

    def test_rejects_unsatisfiable_geometry(self):
        with pytest.raises(ValueError, match="does not fit"):
            SynthSpec(image_size=16, region_radius_frac=(0.2, 0.6))

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError, match="divisible"):
            SynthSpec(image_size=60)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SynthSpec(seed=-1)

    def test_grid_fits_the_map_format_id_range(self):
        assert SynthSpec(image_size=256, cell=1).image_size == 256  # 65536 ids
        with pytest.raises(ValueError, match="73984 .* 65536 ids"):
            SynthSpec(image_size=272, cell=1)

    def test_rejects_bad_count(self, tmp_path):
        with pytest.raises(ValueError, match="count"):
            data.generate(FAST_SPEC, 0, tmp_path)


class TestRegionLabels:
    def test_region_covering_one_superpixel_exactly(self):
        # A circle of radius^2 = 4.6 centred on the 4x4 block covers its
        # corners (distance^2 = 1.5^2 + 1.5^2 = 4.5) while the nearest
        # outside pixel sits at 2.5^2 + 0.5^2 = 6.5.
        smap = grid_superpixels(16, 16, 4)
        region = Region(center=(1.5, 1.5), radii=(np.sqrt(4.6), np.sqrt(4.6)),
                        classes=(2,))
        mask = region.mask(16, 16)
        expected = np.zeros((16, 16), dtype=bool)
        expected[:4, :4] = True
        np.testing.assert_array_equal(mask, expected)

        labels = data.labels_from_regions(smap, [region])
        assert labels[0, 2] == 1.0
        labels[0, 2] = 0.0
        assert (labels == 0.0).all()

    def test_half_coverage_counts_as_positive(self):
        smap = grid_superpixels(8, 8, 4)
        # A flat ellipse over rows 0..1, cols 0..3: exactly 8 of the
        # top-left superpixel's 16 pixels, so coverage is exactly 0.5.
        region = Region(center=(0.5, 1.5), radii=(1.2, 2.0), classes=(0,))
        mask = region.mask(8, 8)
        assert mask.sum() == 8 and mask[:2, :4].all()
        labels = data.labels_from_regions(smap, [region])
        assert labels[0, 0] == 1.0

    def test_multi_class_region(self):
        smap = grid_superpixels(8, 8, 8)
        region = Region(center=(3.5, 3.5), radii=(6.0, 6.0), classes=(1, 3))
        labels = data.labels_from_regions(smap, [region])
        np.testing.assert_array_equal(labels[0], [0, 1, 0, 1])


class TestLoad:
    def test_round_trips_labels_exactly(self, tmp_path):
        manifest, labels = data.generate(FAST_SPEC, 6, tmp_path)
        samples = data.load(tmp_path / "manifest.json")
        assert len(samples) == len(manifest.samples) == len(labels)
        smap = grid_superpixels(16, 16, 4)
        for i, sample in enumerate(samples):
            rng = np.random.default_rng([FAST_SPEC.seed, i])
            regions = data.sample_regions(FAST_SPEC, rng)
            np.testing.assert_array_equal(
                labels[i], data.labels_from_regions(smap, regions))
            assert sample.truth.dtype == np.uint8
            assert sample.truth.tobytes() == labels_to_mask(
                smap, labels[i]).astype(np.uint8).tobytes()

    def test_representation_chain_consistency(self, tmp_path):
        _, labels = data.generate(FAST_SPEC, 6, tmp_path)
        smap = grid_superpixels(16, 16, 4)
        for sample, expected in zip(data.load(tmp_path / "manifest.json"),
                                    labels):
            recovered = mask_to_scores(smap, sample.truth)
            np.testing.assert_array_equal(recovered, expected)

    def test_retains_seven_bytes_per_pixel(self, tmp_path):
        # Each sample keeps its stored image (3 bytes a pixel) and uint8
        # truth mask (4); measured: 7.24 a pixel with the objects around
        # them. A float64 image and an int64 superpixel map took 32.8.
        data.generate(SynthSpec(image_size=64, cell=8, seed=4), 16, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "few.json").write_text(
            json.dumps({**doc, "samples": doc["samples"][:4]}))

        def retained(manifest):
            tracemalloc.start()
            try:
                samples = data.load(tmp_path / manifest)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            return held, samples

        (few, _), (many, _) = retained("few.json"), retained("manifest.json")
        assert (many - few) / (12 * 64 * 64) < 8

    def test_missing_file_names_path(self, tmp_path):
        data.generate(FAST_SPEC, 2, tmp_path)
        (tmp_path / "sample_00001.ppm").unlink()
        with pytest.raises(FileNotFoundError, match="sample_00001.ppm"):
            data.load(tmp_path / "manifest.json")

    def test_image_values_scaled_exactly(self, tmp_path):
        rgb = np.zeros((16, 16, 3), dtype=np.uint8)
        rgb[0, 0] = [255, 128, 0]
        netpbm.write_ppm8(tmp_path / "img.ppm", rgb)
        write_superpixel_map(grid_superpixels(16, 16, 4), tmp_path / "sp.pgm")
        write_labels(np.zeros((16, 4)), tmp_path / "lb.json")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "split": "test", "image_size": 16, "seed": 0,
            "samples": [{"image": "img.ppm", "superpixels": "sp.pgm",
                         "labels": "lb.json"}]}))
        sample = data.load(tmp_path / "manifest.json")[0]
        assert sample.image.dtype == np.uint8
        np.testing.assert_array_equal(sample.image, rgb.transpose(2, 0, 1))
        image = data.input_image(sample.image)
        assert image[0, 0, 0] == 1.0
        assert image[1, 0, 0] == 128.0 / 255.0
        assert image[2, 0, 0] == 0.0

    def test_dimension_mismatch_names_sample(self, tmp_path):
        data.generate(FAST_SPEC, 1, tmp_path)
        write_superpixel_map(grid_superpixels(8, 8, 4),
                             tmp_path / "sample_00000_superpixels.pgm")
        with pytest.raises(ValueError, match="sample_00000"):
            data.load(tmp_path / "manifest.json")

    def test_label_row_mismatch_names_sample(self, tmp_path):
        data.generate(FAST_SPEC, 1, tmp_path)
        write_labels(np.zeros((3, 4)), tmp_path / "sample_00000_labels.json")
        with pytest.raises(ValueError, match="sample_00000"):
            data.load(tmp_path / "manifest.json")


def test_region_prevalence_statistics():
    spec = SynthSpec(image_size=64, cell=8, prevalence=(0.2, 0.5, 0.7, 0.4),
                     seed=9)
    carried = np.zeros(4)
    total = 0
    for i in range(500):
        rng = np.random.default_rng([spec.seed, i])
        for region in data.sample_regions(spec, rng):
            for c in region.classes:
                carried[c] += 1
            total += 1
    measured = carried / total
    np.testing.assert_allclose(measured, spec.prevalence, atol=0.05)


def test_textures_are_deterministic_and_distinct():
    ii = np.arange(24)[:, None]
    jj = np.arange(24)[None, :]
    masks = [tex(ii, jj) for tex in data.TEXTURES]
    for a in range(4):
        assert masks[a].any() and not masks[a].all()
        for b in range(a + 1, 4):
            assert (masks[a] != masks[b]).any()
