"""H-representation polyhedra and interval uncertainty tubes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PolyhedronH", "UncertaintyTube"]


@dataclass(frozen=True)
class PolyhedronH:
    """Rows s_i^T z <= r_i with a physical label per row."""

    coefficients: np.ndarray   # (M, n)
    bounds: np.ndarray         # (M,)
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients, dtype=float)
        if coeff.ndim != 2:
            coeff = coeff.reshape(0, 0) if coeff.size == 0 else np.atleast_2d(coeff)
        bounds = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "labels", tuple(self.labels))
        if coeff.shape[0] != bounds.shape[0] or coeff.shape[0] != len(self.labels):
            raise ValueError("row count mismatch between coefficients, bounds, labels")
        if coeff.size and not np.all(np.isfinite(coeff)):
            raise ValueError("polyhedron coefficients must be finite")
        if bounds.size and not np.all(np.isfinite(bounds)):
            raise ValueError("polyhedron bounds must be finite")
        if coeff.size and np.any(np.all(coeff == 0.0, axis=1)):
            raise ValueError("zero rows are not allowed in an H-representation")

    @property
    def n_rows(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dimension(self) -> int:
        return self.coefficients.shape[1]

    def violations(self, z: np.ndarray) -> np.ndarray:
        """s_i^T z - r_i per row (positive = violated); z is (n,) or (..., n)."""
        return np.asarray(z, dtype=float) @ self.coefficients.T - self.bounds

    @staticmethod
    def empty(dimension: int) -> "PolyhedronH":
        return PolyhedronH(np.zeros((0, dimension)), np.zeros(0), ())

    @staticmethod
    def from_box_rows(
        rows: list[tuple[np.ndarray, float, float, str]], dimension: int
    ) -> "PolyhedronH":
        """Build pairs (s^T z <= hi, -s^T z <= -lo) from (s, lo, hi, label).

        An infinite bound limits nothing, so its row is left out; a NaN
        bound is kept, for the finiteness check to refuse."""
        coeff = []
        bound = []
        labels = []
        for s, lo, hi, label in rows:
            if hi != np.inf:
                coeff.append(s)
                bound.append(hi)
                labels.append(f"{label} upper")
            if lo != -np.inf:
                coeff.append(-np.asarray(s))
                bound.append(-lo)
                labels.append(f"{label} lower")
        if not coeff:
            return PolyhedronH.empty(dimension)
        return PolyhedronH(np.vstack(coeff), np.array(bound), tuple(labels))


@dataclass(frozen=True)
class UncertaintyTube:
    """Per-step interval sets for the disturbance vector, shapes (T, n_w).

    A budget on each channel's normalized deviation sequence is not part of
    the tube: it is an argument of the tightening and sampling that use it.
    """

    w_min: np.ndarray
    w_center: np.ndarray
    w_max: np.ndarray

    def __post_init__(self) -> None:
        for name in ("w_min", "w_center", "w_max"):
            a = np.asarray(getattr(self, name), dtype=float)
            a = np.atleast_2d(a)
            object.__setattr__(self, name, a)
        if not (self.w_min.shape == self.w_center.shape == self.w_max.shape):
            raise ValueError("tube arrays must share one shape")
        if np.any(self.w_max - self.w_min < -1e-12):
            raise ValueError("negative interval width in the uncertainty tube")
        if np.any(self.w_min > self.w_center + 1e-12) or np.any(
            self.w_center > self.w_max + 1e-12
        ):
            raise ValueError("tube ordering w_min <= w_center <= w_max violated")

    @property
    def horizon(self) -> int:
        return self.w_min.shape[0]

    @property
    def n_channels(self) -> int:
        return self.w_min.shape[1]

    @property
    def half_width(self) -> np.ndarray:
        """Diagonal entries of the per-channel scaling, (T, n_w)."""
        return (self.w_max - self.w_min) / 2.0

    @property
    def center_shift(self) -> np.ndarray:
        """Deviation-set center (w_max + w_min)/2 - w_center, (T, n_w)."""
        return (self.w_max + self.w_min) / 2.0 - self.w_center

    def deviation_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of the deviation w - w_center, (lo, hi)."""
        return self.w_min - self.w_center, self.w_max - self.w_center
