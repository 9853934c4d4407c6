"""Synthetic dataset generation with exactly known superpixel ground truth,
plus dataset manifest I/O.

Each sample is a background texture with 0..3 elliptical lesion regions.
Every region independently carries each feature class with the configured
prevalence, and each carried class renders its own deterministic texture
inside the region: mesh lines, inverted mesh, bright dots, or parallel
streak lines. A superpixel is labelled positive for a class when at least
half of its pixels lie inside a region carrying that class.

Generation is fully deterministic: sample i draws from a generator seeded
with (seed, i), so serial and parallel generation agree.

A manifest entry is read in two parts: `read_sample` reads its image and
superpixel map and checks their extents, and `read_labels` its labels.
Predict reads one sample's image and map at a time, and eval only the
labels. `load` builds train's in-memory dataset from both and keeps each
sample at its stored size: the image as its uint8 PPM values and the
labels painted once into a uint8 truth mask, 7 bytes per pixel. It keeps
no superpixel map and no float64 image. Train and predict both make the
network's float64 input with `input_image`, one image at a time.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import netpbm
from .jsonio import by_key, json_field, read_json, write_json
from .model import EncoderConfig
from .superpixels import (CLASS_COUNT, MAX_SUPERPIXELS, SuperpixelMap,
                          grid_superpixels, labels_to_mask, mask_to_scores,
                          read_labels, read_superpixel_map, write_labels,
                          write_superpixel_map)

BACKGROUND_RGB = (0.80, 0.66, 0.58)
LESION_RGB = (0.52, 0.38, 0.33)
TEXTURE_RGB = (
    (0.15, 0.10, 0.25),  # pigment_network: dark mesh lines
    (0.92, 0.88, 0.55),  # negative_network: bright inverted mesh
    (0.98, 0.97, 0.90),  # milia_like_cyst: near-white dots
    (0.25, 0.30, 0.60),  # streaks: dark blue parallel lines
)


def _mesh(ii, jj):
    return (ii % 4 == 0) | (jj % 4 == 0)


def _inverted_mesh(ii, jj):
    return (ii % 5 != 0) & (jj % 5 != 0)


def _dots(ii, jj):
    return ((ii % 6) // 2 == 1) & ((jj % 6) // 2 == 1)


def _streaks(ii, jj):
    return (ii + jj) % 6 < 2


TEXTURES = (_mesh, _inverted_mesh, _dots, _streaks)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic dataset settings; construction checks that the encoder
    accepts the images, the regions fit and the grid's ids fit a map file."""

    image_size: int = 64
    cell: int = 8
    prevalence: tuple[float, float, float, float] = (0.5, 0.5, 0.5, 0.5)
    seed: int = 0
    max_regions: int = 3
    region_radius_frac: tuple[float, float] = (0.12, 0.30)

    def __post_init__(self):
        # Extents the default encoder accepts.
        size_multiple = EncoderConfig().size_multiple
        if self.image_size < 1:
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        if self.image_size % size_multiple:
            raise ValueError(f"image_size {self.image_size} must be divisible "
                             f"by {size_multiple}")
        if self.cell < 1:
            raise ValueError(f"cell must be positive, got {self.cell}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        superpixels = ((self.image_size + self.cell - 1) // self.cell) ** 2
        if superpixels > MAX_SUPERPIXELS:
            raise ValueError(f"superpixel count {superpixels} of a "
                             f"{self.image_size}x{self.image_size} grid with "
                             f"cell {self.cell} exceeds the {MAX_SUPERPIXELS} "
                             f"ids of the P5 superpixel map format")
        if len(self.prevalence) != CLASS_COUNT:
            raise ValueError(f"prevalence needs {CLASS_COUNT} entries, got "
                             f"{len(self.prevalence)}")
        if any(not 0.0 <= p <= 1.0 for p in self.prevalence):
            raise ValueError(f"prevalences must lie in [0,1], got {self.prevalence}")
        if self.max_regions < 0:
            raise ValueError(f"max_regions must be >= 0, got {self.max_regions}")
        if len(self.region_radius_frac) != 2:
            raise ValueError(f"region_radius_frac needs 2 entries, got "
                             f"{len(self.region_radius_frac)}")
        lo, hi = self.region_radius_frac
        if not 0.0 < lo <= hi:
            raise ValueError(f"region radius fractions must be increasing and "
                             f"positive, got {self.region_radius_frac}")
        if hi * self.image_size > (self.image_size - 1) / 2:
            raise ValueError(
                f"max region radius {hi * self.image_size:.1f} does not fit in "
                f"a {self.image_size}x{self.image_size} image")


@dataclass(frozen=True)
class Region:
    """Elliptical region: center (row, col), radii (row, col), carried classes."""

    center: tuple[float, float]
    radii: tuple[float, float]
    classes: tuple[int, ...]

    def mask(self, height: int, width: int) -> np.ndarray:
        cy, cx = self.center
        ry, rx = self.radii
        ii = np.arange(height)[:, None]
        jj = np.arange(width)[None, :]
        return ((ii - cy) / ry) ** 2 + ((jj - cx) / rx) ** 2 <= 1.0


def sample_regions(spec: SynthSpec, rng: np.random.Generator) -> list[Region]:
    """Draw 0..max_regions regions with class memberships by prevalence."""
    size = spec.image_size
    r_lo = spec.region_radius_frac[0] * size
    r_hi = spec.region_radius_frac[1] * size
    regions = []
    for _ in range(int(rng.integers(0, spec.max_regions + 1))):
        ry = rng.uniform(r_lo, r_hi)
        rx = rng.uniform(r_lo, r_hi)
        cy = rng.uniform(ry, size - 1 - ry)
        cx = rng.uniform(rx, size - 1 - rx)
        carried = tuple(int(c) for c in np.flatnonzero(rng.random(CLASS_COUNT)
                                                       < np.asarray(spec.prevalence)))
        regions.append(Region((cy, cx), (ry, rx), carried))
    return regions


def class_masks(regions: list[Region], height: int, width: int) -> np.ndarray:
    """Boolean [4,H,W]: pixel belongs to some region carrying the class."""
    masks = np.zeros((CLASS_COUNT, height, width), dtype=bool)
    for region in regions:
        m = region.mask(height, width)
        for c in region.classes:
            masks[c] |= m
    return masks


def labels_from_regions(smap: SuperpixelMap,
                        regions: list[Region]) -> np.ndarray:
    """Label a superpixel 1 for class c iff >= 50% of its pixels lie in a
    region carrying c."""
    masks = class_masks(regions, smap.height, smap.width)
    coverage = mask_to_scores(smap, masks.astype(np.float64))
    return (coverage >= 0.5).astype(np.float64)


def render_image(spec: SynthSpec, regions: list[Region],
                 rng: np.random.Generator) -> np.ndarray:
    """Render a sample to [H,W,3] uint8. Consumes a fixed number of rng
    draws regardless of region geometry."""
    size = spec.image_size
    img = np.asarray(BACKGROUND_RGB) + rng.uniform(-0.05, 0.05, (size, size, 3))
    lesion_noise = rng.uniform(-0.03, 0.03, (size, size, 3))

    any_region = np.zeros((size, size), dtype=bool)
    for region in regions:
        any_region |= region.mask(size, size)
    img[any_region] = (np.asarray(LESION_RGB) + lesion_noise)[any_region]

    ii = np.arange(size)[:, None]
    jj = np.arange(size)[None, :]
    masks = class_masks(regions, size, size)
    for c in range(CLASS_COUNT):
        tex = masks[c] & TEXTURES[c](ii, jj)
        img[tex] = TEXTURE_RGB[c]
    return np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)


@dataclass
class ManifestEntry:
    image: str
    superpixels: str
    labels: str


@dataclass
class DatasetManifest:
    split: str
    image_size: int
    seed: int
    samples: list[ManifestEntry]


def _parse_manifest(doc: dict) -> DatasetManifest:
    entries = [{key: json_field(s, key, str) for key in
                ("image", "superpixels", "labels")} for s in doc["samples"]]
    # Predictions are keyed by image, so an image listed twice is an error.
    samples = [ManifestEntry(**e) for e in by_key(entries, "image").values()]
    return DatasetManifest(split=json_field(doc, "split", str),
                           image_size=json_field(doc, "image_size", int),
                           seed=json_field(doc, "seed", int), samples=samples)


def read_manifest(path: str | os.PathLike) -> DatasetManifest:
    manifest = read_json(path, "manifest", _parse_manifest)
    if not manifest.samples:
        raise ValueError(f"{os.fspath(path)}: manifest lists no samples")
    return manifest


def generate(spec: SynthSpec, count: int, out_dir: str | os.PathLike,
             split: str = "train") -> tuple[DatasetManifest, list[np.ndarray]]:
    """Write `count` samples plus manifest.json into out_dir; returns the
    manifest and each sample's [K,4] labels, in manifest order."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    smap = grid_superpixels(spec.image_size, spec.image_size, spec.cell)
    entries, all_labels = [], []
    for i in range(count):
        rng = np.random.default_rng([spec.seed, i])
        regions = sample_regions(spec, rng)
        image = render_image(spec, regions, rng)
        labels = labels_from_regions(smap, regions)

        stem = f"sample_{i:05d}"
        entry = ManifestEntry(image=f"{stem}.ppm",
                              superpixels=f"{stem}_superpixels.pgm",
                              labels=f"{stem}_labels.json")
        netpbm.write_ppm8(out / entry.image, image)
        write_superpixel_map(smap, out / entry.superpixels)
        write_labels(labels, out / entry.labels)
        entries.append(entry)
        all_labels.append(labels)

    manifest = DatasetManifest(split=split, image_size=spec.image_size,
                               seed=spec.seed, samples=entries)
    write_json(out / "manifest.json", asdict(manifest))
    return manifest, all_labels


@dataclass
class Sample:
    """One training sample as `load` keeps it: 3 + 4 bytes per pixel."""

    name: str
    image: np.ndarray  # [3,H,W] uint8, the stored PPM values
    truth: np.ndarray  # [4,H,W] uint8 0/1, the labels painted per pixel


def input_image(stored: np.ndarray) -> np.ndarray:
    """The network's input for a stored [3,H,W] uint8 image: C-contiguous
    float64 in [0,1], each value its byte / 255."""
    image = stored.astype(np.float64, order="C")
    image /= 255.0
    return image


def read_sample(base: Path, entry: ManifestEntry,
                image_size: int) -> tuple[np.ndarray, SuperpixelMap]:
    """One manifest entry's image, as its stored [3,H,W] uint8 values, and
    its superpixel map, with paths relative to `base`. Checks that the
    image is image_size x image_size and that the map has its extents; the
    labels are read on their own (`read_labels`)."""
    # A missing file is the FileNotFoundError of its open, naming it.
    rgb = netpbm.read_ppm8(base / entry.image)
    if rgb.shape[:2] != (image_size, image_size):
        raise ValueError(f"{entry.image}: image is {rgb.shape[1]}x{rgb.shape[0]}, "
                         f"manifest says {image_size}")
    smap = read_superpixel_map(base / entry.superpixels)
    if (smap.height, smap.width) != rgb.shape[:2]:
        raise ValueError(f"{entry.image}: superpixel map is "
                         f"{smap.width}x{smap.height}, image is "
                         f"{rgb.shape[1]}x{rgb.shape[0]}")
    return rgb.transpose(2, 0, 1), smap


def load(manifest_path: str | os.PathLike) -> list[Sample]:
    """Load every sample of a manifest: its image and map through
    read_sample, and labels with as many rows as the map has superpixels,
    painted into the truth mask. The map is not kept."""
    manifest = read_manifest(manifest_path)
    base = Path(manifest_path).parent
    samples = []
    for entry in manifest.samples:
        image, smap = read_sample(base, entry, manifest.image_size)
        labels = read_labels(base / entry.labels)
        if labels.shape[0] != smap.count:
            raise ValueError(f"{entry.image}: {labels.shape[0]} label rows but "
                             f"{smap.count} superpixels")
        samples.append(Sample(name=entry.image, image=image,
                              truth=labels_to_mask(smap, labels).astype(np.uint8)))
    return samples
