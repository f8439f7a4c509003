"""Estimation of machine-learning functions from tabular data.

Covers polynomial/trig regression of targets, constrained level-set
estimation with elbow-based component selection, the two degeneracy
workarounds (projection onto discovered affine components, artificial
column extension), and weighted Gaussian kernel density estimation with
analytic gradients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .features import (
    FeatureAtom,
    FeatureBasis,
    _graded_lex_exponents,
    design_matrix,
    jacobian_stack,
)

__all__ = [
    "ScalarFunctionModel",
    "LevelSetModel",
    "KdeModel",
    "ElbowTrace",
    "EmptyLevelSetError",
    "AffineFrame",
    "fit_regression",
    "fit_level_set",
    "select_components_elbow",
    "project_onto_affine",
    "extend_degenerate_columns",
    "kde_fit",
    "kde_eval",
    "kde_gradient",
    "kde_eval_mirrored",
]

ELBOW_LOSS_FLOOR = 1e-12
# one row block of kernel values holds about this many doubles (512 KB), so
# the exponent, its exponential and the weighted sums stay in cache
KERNEL_BLOCK_ELEMENTS = 1 << 16


class EmptyLevelSetError(ValueError):
    """The affine level-set system has no solution point."""


@dataclass
class ScalarFunctionModel:
    """f(x) = coefficients . (atom values at x)."""

    basis: FeatureBasis
    coefficients: np.ndarray
    residual: float = 0.0
    ridge_fallback: bool = False

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (len(self.basis),):
            raise ValueError("coefficient length does not match basis")
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return design_matrix(self.basis, points) @ self.coefficients

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """(N, n) array of gradients."""
        J = jacobian_stack(self.basis, points)
        return np.einsum("m,imj->ij", self.coefficients, J)

    def degree(self) -> int:
        nz = np.nonzero(self.coefficients)[0]
        return max((self.basis.atoms[i].degree() for i in nz), default=0)


@dataclass
class LevelSetModel:
    """F(x) = W^T b(x) with orthonormal coefficient columns."""

    basis: FeatureBasis
    W: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[0] != len(self.basis):
            raise ValueError("W must be (n_atoms, k)")
        if self.W.shape[1] > 0:
            err = np.abs(self.W.T @ self.W - np.eye(self.W.shape[1])).max()
            if err > manifold.ORTHONORMALITY_TOL:
                raise ValueError(
                    f"columns not orthonormal (deviation {err:.2e})"
                )

    @property
    def n_components(self) -> int:
        return self.W.shape[1]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return design_matrix(self.basis, points) @ self.W

    def jacobians(self, points: np.ndarray) -> np.ndarray:
        """(N, k, n) array of Jacobians of F."""
        J = jacobian_stack(self.basis, points)
        return np.einsum("mk,imj->ikj", self.W, J)

    def strip_artificial(self) -> "LevelSetModel":
        """Drop artificially extended columns and renormalize each column."""
        keep = [i for i, a in enumerate(self.basis.atoms) if not a.artificial]
        W = self.W[keep]
        W = W / np.linalg.norm(W, axis=0, keepdims=True)
        # renormalized columns may no longer be mutually orthonormal; keep
        # them only when they are
        return LevelSetModel(self.basis.strip_artificial(), W)


@dataclass
class ElbowTrace:
    losses: list = field(default_factory=list)  # (component_count, loss)
    selected: int = 0
    no_elbow: bool = False

    def to_dict(self) -> dict:
        return {
            "losses": [[int(k), float(v)] for k, v in self.losses],
            "selected": int(self.selected),
            "no_elbow": self.no_elbow,
        }


def fit_regression(
    data: np.ndarray, targets: np.ndarray, basis: FeatureBasis
) -> ScalarFunctionModel:
    """Ordinary least squares of targets over the feature dictionary."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    targets = np.asarray(targets, dtype=float)
    B = design_matrix(basis, data)
    gram = B.T @ B
    rhs = B.T @ targets
    ridge = False
    try:
        with np.errstate(all="ignore"):
            cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e14:
            raise np.linalg.LinAlgError("rank deficient")
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        lam = 1e-10 * (np.trace(gram) / len(basis) + 1.0)
        coeffs = np.linalg.solve(gram + lam * np.eye(len(basis)), rhs)
        ridge = True
    resid = float(np.sqrt(np.mean((B @ coeffs - targets) ** 2)))
    return ScalarFunctionModel(basis, coeffs, residual=resid, ridge_fallback=ridge)


def fit_level_set(
    data: np.ndarray,
    basis: FeatureBasis,
    k: int,
    config: manifold.OptimizerConfig,
) -> tuple[LevelSetModel, float]:
    """Estimate k orthonormal coefficient columns with B W ~ 0."""
    B = design_matrix(basis, np.atleast_2d(np.asarray(data, dtype=float)))
    W, trace = manifold.minimize(B, k, config)
    return LevelSetModel(basis, W), trace.final_loss


def select_components_elbow(
    data: np.ndarray,
    basis: FeatureBasis,
    k_max: int,
    config: manifold.OptimizerConfig,
    elbow_ratio: float = 10.0,
) -> ElbowTrace:
    """Pick the component count just before the first large loss jump."""
    if not (np.isfinite(elbow_ratio) and elbow_ratio > 0):
        raise ValueError("elbow_ratio must be finite and positive")
    trace = ElbowTrace()
    losses = []
    for k in range(1, k_max + 1):
        _, loss = fit_level_set(data, basis, k, config)
        losses.append(loss)
        trace.losses.append((k, loss))
    for k in range(1, k_max):
        if losses[k] / max(losses[k - 1], ELBOW_LOSS_FLOOR) > elbow_ratio:
            trace.selected = k
            return trace
    trace.selected = k_max
    trace.no_elbow = True
    return trace


@dataclass
class AffineFrame:
    """Orthonormal chart of the affine subspace {x : W^T phi(x) = 0}."""

    origin: np.ndarray
    axes: np.ndarray  # (n, n - k), orthonormal columns


def _affine_system(model: LevelSetModel) -> tuple[np.ndarray, np.ndarray]:
    """Rows C x + d = 0 from a constant+linear level-set model."""
    n = model.basis.dimension
    C = np.zeros((model.n_components, n))
    d = np.zeros(model.n_components)
    for j in range(model.n_components):
        for coeff, atom in zip(model.W[:, j], model.basis.atoms):
            if coeff == 0.0:
                continue
            if atom.kind != "monomial" or atom.degree() > 1:
                raise ValueError("model is not restricted to affine atoms")
            if atom.degree() == 0:
                d[j] += coeff
            else:
                C[j, list(atom.exponents).index(1)] += coeff
    return C, d


def project_onto_affine(
    data: np.ndarray, model: LevelSetModel
) -> tuple[np.ndarray, AffineFrame]:
    """Coordinates of data orthogonally projected onto the affine level set."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n = model.basis.dimension
    C, d = _affine_system(model)
    if C.shape[0] == 0:
        return data.copy(), AffineFrame(np.zeros(n), np.eye(n))

    origin, residual, rank, _ = np.linalg.lstsq(C, -d, rcond=None)
    if np.linalg.norm(C @ origin + d) > 1e-8 * max(1.0, np.linalg.norm(d)):
        raise EmptyLevelSetError("affine components are inconsistent")

    # null-space basis oriented along the coordinate axes where possible:
    # Gram-Schmidt of the projected axes keeps e.g. the (x, y) plane as (x, y)
    _, s, Vt = np.linalg.svd(C)
    tol = max(C.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    null = Vt[np.sum(s > tol):].T
    proj = null @ null.T
    axes = []
    for j in range(n):
        v = proj @ np.eye(n)[:, j]
        for u in axes:
            v = v - u * (u @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            axes.append(v / norm)
    axes = np.column_stack(axes) if axes else np.zeros((n, 0))
    reduced = (data - origin[None, :]) @ axes
    return reduced, AffineFrame(origin, axes)


def extend_degenerate_columns(
    basis: FeatureBasis, known, degree: int
) -> FeatureBasis:
    """Append artificial atoms h * f for monomials h with deg(h f) <= degree."""
    n = basis.dimension
    extra = []
    for model in known:
        f_deg = model.degree()
        factor = tuple(
            (atom, float(c))
            for atom, c in zip(model.basis.atoms, model.coefficients)
            if c != 0.0
        )
        h_max = degree - f_deg
        for exps in _graded_lex_exponents(n, h_max):
            if sum(exps) == 0:
                continue  # constant * f duplicates f itself
            atom = FeatureAtom("product", exponents=exps, factor=factor)
            if atom not in extra:
                extra.append(atom)
    return basis.extend(extra)


@dataclass
class KdeModel:
    """Weighted Gaussian mixture density with a shared isotropic bandwidth."""

    centers: np.ndarray
    weights: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.centers.shape[0],):
            raise ValueError("one weight per center required")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("centers must be finite")
        if not (np.all(np.isfinite(self.weights)) and np.all(self.weights >= 0)
                and self.weights.sum() > 0):
            raise ValueError("weights must be finite, nonnegative, with positive sum")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be finite and positive")

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]


def scott_bandwidth(data: np.ndarray) -> float:
    """N^(-1/(n+4)) times the mean marginal standard deviation."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    N, n = data.shape
    return float(N ** (-1.0 / (n + 4)) * np.mean(data.std(axis=0)))


def kde_fit(
    data: np.ndarray,
    weights: np.ndarray | None = None,
    bandwidth="scott",
) -> KdeModel:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] > 2:
        warnings.warn(
            "kernel density estimation degrades beyond two dimensions",
            stacklevel=2,
        )
    if weights is None:
        weights = np.ones(data.shape[0])
    h = scott_bandwidth(data) if bandwidth == "scott" else float(bandwidth)
    return KdeModel(data, weights, h)


def _kernel_sums(
    model: KdeModel,
    points: np.ndarray,
    want_gradient: bool,
    point_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Sums of the kernel matrix K[i, j] = k(p_i - c_j) over cache-sized row
    blocks: the weighted row sums K w, their gradient sums if want_gradient,
    and the column sums u K if point_weights u (one per point) are given."""
    # centring keeps the cancellation in |p|^2 + |c|^2 - 2 p.c independent
    # of where the data sit
    shift = model.centers.mean(axis=0)
    C = model.centers - shift
    P = np.atleast_2d(np.asarray(points, dtype=float))
    if P.ndim != 2 or P.shape[1] != model.dimension:
        raise ValueError(f"points of shape {P.shape} for a "
                         f"{model.dimension}-dimensional density")
    P = P - shift
    h2 = model.bandwidth**2
    # a block's exponents -|p - c|^2 / (2 h^2) are one product [p, -1, -|p|^2] . rhs
    rhs = np.vstack([2.0 * C.T, (C * C).sum(axis=1), np.ones(len(C))]) / (2.0 * h2)
    lhs = np.column_stack([P, -np.ones(len(P)), -(P * P).sum(axis=1)])
    wC = model.weights[:, None] * C
    vals = np.empty(len(P))
    grads = np.empty(P.shape) if want_gradient else None
    cols = None if point_weights is None else np.zeros(len(C))
    rows = max(1, KERNEL_BLOCK_ELEMENTS // len(C))
    buf = np.empty((min(rows, len(P)), len(C)))
    for lo in range(0, len(P), rows):
        blk = slice(lo, lo + rows)
        K = np.matmul(lhs[blk], rhs, out=buf[: len(P) - lo])
        np.exp(np.minimum(K, 0.0, out=K), out=K)
        vals[blk] = v = K @ model.weights
        if want_gradient:
            grads[blk] = (K @ wC - v[:, None] * P[blk]) / h2
        if cols is not None:
            cols += point_weights[blk] @ K
    return vals, grads, cols


def _kde_norm(model: KdeModel) -> float:
    n = model.dimension
    return float(
        model.weights.sum() * (2.0 * np.pi * model.bandwidth**2) ** (n / 2.0)
    )


def kde_eval(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """Density values of the weighted Gaussian mixture."""
    vals, _, _ = _kernel_sums(model, points, want_gradient=False)
    return vals / _kde_norm(model)


def kde_gradient(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """(N, n) array of analytic density gradients."""
    _, grads, _ = _kernel_sums(model, points, want_gradient=True)
    return grads / _kde_norm(model)


def _rotate(points: np.ndarray, theta: float) -> np.ndarray:
    """Planar points turned by the rotation S(theta) of discrete's rotation
    family."""
    c, s = np.cos(theta), np.sin(theta)
    return points @ np.array([[c, s], [-s, c]]).T


def kde_eval_mirrored(
    model: KdeModel, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Densities at the model's own centres c turned by theta and by -theta,
    (p(S(theta) c), p(S(-theta) c)), from one kernel pass.

    With K[i, j] = k(S(theta) c_i - c_j), the row sums K w give p(S(theta) c)
    and the column sums w K give p(S(-theta) c), because
    |S(theta) c_i - c_j| = |c_i - S(-theta) c_j|.
    """
    turned = _rotate(model.centers, theta)
    vals, _, cols = _kernel_sums(model, turned, False, point_weights=model.weights)
    norm = _kde_norm(model)
    return vals / norm, cols / norm
