"""Embedding maps between coordinate systems and pullback metric tensors.

An embedding is fitted per output coordinate by regression over a shared
dictionary; the ambient Euclidean metric pulls back to J^T J with J the
analytic Jacobian of the fitted map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureBasis
from .model_fit import ScalarFunctionModel, fit_regression

__all__ = ["SmoothMapModel", "fit_map", "pullback_metric"]


@dataclass
class SmoothMapModel:
    """Theta: R^m -> R^n, one fitted scalar model per output coordinate."""

    components: list[ScalarFunctionModel]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one output component")
        dims = {c.basis.dimension for c in self.components}
        if len(dims) != 1:
            raise ValueError("components disagree on input dimension")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.column_stack([c(points) for c in self.components])

    def jacobian(self, point) -> np.ndarray:
        """(n_out, m) Jacobian at a single point."""
        p = np.asarray(point, dtype=float)[None, :]
        return np.vstack([c.gradient(p) for c in self.components])


def fit_map(
    source: np.ndarray, image: np.ndarray, basis: FeatureBasis
) -> SmoothMapModel:
    """Per-output least-squares regression image ~ Theta(source)."""
    source = np.atleast_2d(np.asarray(source, dtype=float))
    image = np.atleast_2d(np.asarray(image, dtype=float))
    if source.shape[0] != image.shape[0]:
        raise ValueError("source and image must pair row by row")
    return SmoothMapModel(
        [fit_regression(source, image[:, j], basis) for j in range(image.shape[1])]
    )


def pullback_metric(map_model: SmoothMapModel, point) -> np.ndarray:
    """J^T J of the fitted map at the point (constructed exactly symmetric)."""
    point = np.asarray(point, dtype=float)
    if not np.all(np.isfinite(point)):
        raise ValueError("point must be finite")
    J = map_model.jacobian(point)
    g = J.T @ J
    return (g + g.T) / 2.0
