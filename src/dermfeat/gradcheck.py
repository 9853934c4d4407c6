"""Finite-difference gradient checking for scalar-valued functions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ops import as_f64


@dataclass
class GradCheckReport:
    """Outcome of comparing an analytic gradient against central differences.

    Per-element relative error is |analytic - numeric| divided by
    max(|analytic|, |numeric|, floor); the floor keeps noise in
    near-zero gradient entries from registering as spurious error while
    still certifying |analytic - numeric| <= tolerance * floor there.
    """

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...]
    analytic_at_worst: float
    numeric_at_worst: float
    tolerance: float
    step: float
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} max_rel_error={self.max_rel_error:.3e} at "
            f"index {self.worst_index} (analytic={self.analytic_at_worst:.6e}, "
            f"numeric={self.numeric_at_worst:.6e}, tolerance={self.tolerance:.1e})"
        )
        if self.failures:
            line += "; " + "; ".join(self.failures)
        return line


def gradcheck(fn: Callable[[np.ndarray], float], point: np.ndarray,
              analytic: np.ndarray, *, step: float = 1e-5,
              tolerance: float = 1e-5, floor: float = 1e-4) -> GradCheckReport:
    """Compare `analytic` to central differences of `fn` at `point`.

    fn must map an array of point's shape to a finite scalar. Central
    differences (fn(x+h) - fn(x-h)) / (2h) are formed per element. A
    non-finite fn value at any perturbed point is reported as a failure
    with its location rather than raised.
    """
    if step <= 0.0:
        raise ValueError(f"gradcheck step must be positive, got {step}")
    if tolerance <= 0.0:
        raise ValueError(f"gradcheck tolerance must be positive, got {tolerance}")
    point = as_f64(point)
    analytic = as_f64(analytic)
    if analytic.shape != point.shape:
        raise ValueError(
            f"analytic gradient shape {analytic.shape} does not match "
            f"point shape {point.shape}"
        )

    numeric = np.zeros_like(point)
    failures: list[str] = []
    flat = point.ravel().copy()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        f_plus = float(fn(flat.reshape(point.shape)))
        flat[j] = orig - step
        f_minus = float(fn(flat.reshape(point.shape)))
        flat[j] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            loc = tuple(int(i) for i in np.unravel_index(j, point.shape))
            failures.append(f"non-finite value at perturbed index {loc}")
            continue
        numeric.ravel()[j] = (f_plus - f_minus) / (2.0 * step)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    rel = np.abs(analytic - numeric) / denom
    j = int(np.argmax(rel))
    worst = np.unravel_index(j, point.shape)
    max_rel = float(rel.ravel()[j])
    return GradCheckReport(
        passed=(max_rel < tolerance) and not failures,
        max_rel_error=max_rel,
        worst_index=tuple(int(i) for i in worst),
        analytic_at_worst=float(analytic.ravel()[j]),
        numeric_at_worst=float(numeric.ravel()[j]),
        tolerance=tolerance,
        step=step,
        failures=failures,
    )
