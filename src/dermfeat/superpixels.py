"""Superpixel maps, per-superpixel labels, and the two conversions between
superpixel labellings and per-class mask volumes.

A superpixel map assigns every pixel a contiguous id in [0, count).
Labels are per-superpixel binary vectors over the four feature classes
(overlaps allowed); masks are [4,H,W] volumes where channel c holds the
class-c values painted per pixel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import netpbm
from .jsonio import json_field, parsing, read_json, write_json
from .ops import as_f64

CLASS_NAMES = ("pigment_network", "negative_network", "milia_like_cyst", "streaks")
CLASS_COUNT = len(CLASS_NAMES)
# Ids are stored as 16-bit P5 samples, so a map holds at most 2**16 of them.
MAX_SUPERPIXELS = 65536


@dataclass(frozen=True)
class SuperpixelMap:
    """Per-pixel superpixel index field with `count` contiguous ids;
    construction checks that each id in [0, count) has pixels, no other
    id occurs and the field is 2-D."""

    index: np.ndarray  # [H,W] int64
    count: int

    @property
    def height(self) -> int:
        return self.index.shape[0]

    @property
    def width(self) -> int:
        return self.index.shape[1]

    def __post_init__(self):
        if self.index.ndim != 2:
            raise ValueError(f"superpixel index field must be 2D, got "
                             f"{self.index.ndim} dimensions")
        if self.count < 1:
            raise ValueError(f"superpixel count must be positive, got {self.count}")
        if self.index.min() < 0 or self.index.max() >= self.count:
            bad = int(self.index.max() if self.index.max() >= self.count
                      else self.index.min())
            raise ValueError(f"superpixel id {bad} outside [0, {self.count})")
        # At most index.size ids have pixels, so counting one id past that
        # finds an empty one: no array is sized by a declared count.
        counts = np.bincount(self.index.ravel(),
                             minlength=min(self.count, self.index.size + 1))
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ValueError(f"empty superpixel {int(missing[0])} of {self.count}")

    def pixel_counts(self) -> np.ndarray:
        """Number of pixels per superpixel id, shape [count]."""
        return np.bincount(self.index.ravel(), minlength=self.count)


def grid_superpixels(height: int, width: int, cell: int) -> SuperpixelMap:
    """Partition an image into cell x cell rectangles, ids in row-major
    cell order; the last row/column of cells may be ragged."""
    if cell < 1:
        raise ValueError(f"grid cell must be positive, got {cell}")
    if height < 1 or width < 1:
        raise ValueError(f"grid extents must be positive, got {height}x{width}")
    cols = (width + cell - 1) // cell
    ri = np.arange(height) // cell
    cj = np.arange(width) // cell
    index = (ri[:, None] * cols + cj[None, :]).astype(np.int64)
    return SuperpixelMap(index=index, count=int(index.max()) + 1)


def validate_labels(labels: np.ndarray, count: int) -> np.ndarray:
    """Check a [K,4] binary label matrix against a superpixel count."""
    labels = as_f64(labels)
    if labels.ndim != 2 or labels.shape[1] != CLASS_COUNT:
        raise ValueError(f"label matrix must be [K,{CLASS_COUNT}], got shape "
                         f"{labels.shape}")
    if labels.shape[0] != count:
        raise ValueError(f"label matrix has {labels.shape[0]} rows, superpixel "
                         f"map has {count}")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError("label matrix entries must be 0 or 1")
    return labels


def validate_mask(mask: np.ndarray, height: int, width: int) -> np.ndarray:
    """Check a [4,H,W] mask volume: shape and finite [0,1] values."""
    mask = as_f64(mask)
    if mask.ndim != 3 or mask.shape[0] != CLASS_COUNT:
        raise ValueError(f"mask must be [{CLASS_COUNT},H,W], got shape {mask.shape}")
    if mask.shape[1] != height:
        raise ValueError(f"mask height {mask.shape[1]} != expected {height}")
    if mask.shape[2] != width:
        raise ValueError(f"mask width {mask.shape[2]} != expected {width}")
    if not np.isfinite(mask).all():
        raise ValueError("mask values must be finite")
    if mask.min() < 0.0 or mask.max() > 1.0:
        raise ValueError("mask values must lie in [0, 1]")
    return mask


def labels_to_mask(smap: SuperpixelMap, labels: np.ndarray) -> np.ndarray:
    """Paint per-superpixel labels into a binary [4,H,W] mask volume:
    mask[c,i,j] = labels[smap.index[i,j], c]."""
    labels = validate_labels(labels, smap.count)
    return np.ascontiguousarray(labels[smap.index].transpose(2, 0, 1))


def mask_to_scores(smap: SuperpixelMap, mask: np.ndarray) -> np.ndarray:
    """Average each mask channel over every superpixel's pixels.

    Returns [count,4] scores; row i, column c is the mean of mask[c]
    over the pixels with id i.
    """
    mask = validate_mask(mask, smap.height, smap.width)
    flat = smap.index.ravel()
    counts = smap.pixel_counts()
    scores = np.empty((smap.count, CLASS_COUNT))
    for c in range(CLASS_COUNT):
        scores[:, c] = np.bincount(flat, weights=mask[c].ravel(),
                                   minlength=smap.count) / counts
    return scores


def write_superpixel_map(smap: SuperpixelMap, path: str | os.PathLike) -> None:
    """Write as binary P5, two bytes per pixel MSB first, with a
    '# K=<count>' header comment carrying the declared count."""
    if smap.count > MAX_SUPERPIXELS:
        raise ValueError(f"superpixel count {smap.count} exceeds the 16-bit "
                         f"id range of the P5 format")
    netpbm.write_pgm16(path, smap.index, comment=f"K={smap.count}")


def read_superpixel_map(path: str | os.PathLike) -> SuperpixelMap:
    """Read a P5 superpixel map and validate both contiguity invariants."""
    values, comments = netpbm.read_pgm16(path)
    with parsing(path, "superpixel map"):
        counts = [int(c[2:]) for c in comments if c.startswith("K=")]
        if not counts:
            raise ValueError("missing '# K=<count>' header comment")
        return SuperpixelMap(index=values, count=counts[-1])


def write_labels(labels: np.ndarray, path: str | os.PathLike) -> None:
    """Write a [K,4] binary label matrix as a JSON document."""
    labels = validate_labels(labels, labels.shape[0])
    write_json(path, {
        "superpixel_count": int(labels.shape[0]),
        "classes": list(CLASS_NAMES),
        "labels": labels.astype(np.int64).tolist(),
    })


def _parse_labels(doc: dict) -> np.ndarray:
    if tuple(doc["classes"]) != CLASS_NAMES:
        raise ValueError(f"class list {doc['classes']} does not match "
                         f"{list(CLASS_NAMES)}")
    labels = np.asarray(doc["labels"], dtype=np.float64)
    if labels.ndim != 2:
        raise ValueError("labels must be a list of rows")
    return validate_labels(labels, json_field(doc, "superpixel_count", int))


def read_labels(path: str | os.PathLike) -> np.ndarray:
    """Read and validate a label JSON document into a [K,4] float array."""
    return read_json(path, "labels", _parse_labels)
