"""Estimation of machine-learning functions from tabular data.

Covers polynomial/trig regression of targets by one SVD least-squares
solve, level-set estimation with elbow-based component selection, the two
degeneracy workarounds (projection onto discovered affine components,
artificial column extension), and weighted Gaussian kernel density
estimation: exact densities and analytic gradients from cache-blocked kernel
sums, and a planar density tabulated once and read by bicubic interpolation.
"""

from __future__ import annotations

import math
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
]

ELBOW_RATIO = 10.0
ELBOW_LOSS_FLOOR = 1e-12
# one row block of kernel values holds about this many doubles (512 KB), so
# the exponent, its exponential and the weighted sums stay in cache
KERNEL_BLOCK_ELEMENTS = 1 << 16
# _kernel_sums' largest rounding of a kernel exponent, relative to 1, before
# it forms exponents from differences; the benchmark's kernel sums (disc-rot
# at N = 1000 and 1500, the CLI grid) read 6.1e-14 to 9.0e-14 and keep the
# faster product form
KERNEL_EXPONENT_RTOL = 1e-12
# _kde_table's node spacing in bandwidths: at h/20 density rotation's angle
# lies within 1.9e-6 of the exact loss's optimum on the benchmark's twelve
# disc-rot fits (5.4e-6 at h/16, 2.5e-5 at h/10)
TABLE_SPACING = 1.0 / 20.0
# _kde_table's most cells, a 17 MB table: room for criterion 6's N = 20000
# fits, which need 0.74 and 1.07 million cells at seeds 3 and 401.  Past it
# the nodes spread wider rather than the fit reading kde_eval, whose search
# took 184 s on the seed-3 fit against 3.2 s on the table (2-core VM).  At
# 300 cells a side (nodes h / 11 to h / 13 apart), the disc-rot fits at
# N = 1000 and 1500 keep their angles to 3.9e-6
TABLE_MAX_CELLS = 1 << 21


class EmptyLevelSetError(ValueError):
    """The affine level-set system has no solution point."""


@dataclass
class ScalarFunctionModel:
    """f(x) = coefficients . (atom values at x)."""

    basis: FeatureBasis
    coefficients: np.ndarray
    residual: float = 0.0
    rank_deficient: bool = False

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
        # a NaN deviation would pass the orthonormality test below
        if not np.all(np.isfinite(self.W)):
            raise ValueError("W must be finite")
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
        """Drop the artificial atoms' rows of W and orthonormalize the rest by
        QR, which keeps their span and so the level set W^T b(x) = 0.  Kept
        rows of lower rank, as when a column lay wholly on artificial atoms,
        raise manifold.RetractionSingularError."""
        keep = [i for i, a in enumerate(self.basis.atoms) if not a.artificial]
        W = self.W[keep]
        return LevelSetModel(self.basis.strip_artificial(),
                             manifold.retract(np.zeros_like(W), W))


@dataclass
class ElbowTrace:
    losses: list = field(default_factory=list)  # (component_count, loss)
    selected: int = 0
    no_elbow: bool = False
    model: LevelSetModel | None = field(default=None, compare=False)  # the fit at selected

    def to_dict(self) -> dict:
        return {
            "losses": [[int(k), float(v)] for k, v in self.losses],
            "selected": int(self.selected),
            "no_elbow": self.no_elbow,
        }


def fit_regression(
    data: np.ndarray, targets: np.ndarray, basis: FeatureBasis
) -> ScalarFunctionModel:
    """Least squares of targets over the feature dictionary: the minimum-norm
    SVD solution, rank_deficient when it dropped a direction of the design
    matrix (a singular value below manifold.LSTSQ_RCOND times the largest)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    B = design_matrix(basis, data)
    coeffs, rank = manifold._lstsq(B, targets)
    resid = float(np.sqrt(np.mean((B @ coeffs - targets) ** 2)))
    return ScalarFunctionModel(basis, coeffs, residual=resid,
                               rank_deficient=rank < len(basis))


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
) -> ElbowTrace:
    """Pick the component count just before the first large loss jump: the
    first k < k_max with loss(k + 1) > ELBOW_RATIO * max(loss(k),
    ELBOW_LOSS_FLOOR), else k_max with no_elbow set."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got k_max={k_max}")
    trace = ElbowTrace()
    models, losses = [], []
    for k in range(1, k_max + 1):
        model, loss = fit_level_set(data, basis, k, config)
        models.append(model)
        losses.append(loss)
        trace.losses.append((k, loss))
    trace.selected = next(
        (k for k in range(1, k_max)
         if losses[k] / max(losses[k - 1], ELBOW_LOSS_FLOOR) > ELBOW_RATIO), k_max)
    trace.no_elbow = trace.selected == k_max
    trace.model = models[trace.selected - 1]
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

    U, s, Vt = np.linalg.svd(C)
    tol = max(C.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    origin = Vt[:rank].T @ ((U[:, :rank].T @ -d) / s[:rank])  # pseudo-inverse
    if np.linalg.norm(C @ origin + d) > 1e-8 * max(1.0, np.linalg.norm(d)):
        raise EmptyLevelSetError("affine components are inconsistent")

    # null-space basis oriented along the coordinate axes where possible:
    # Gram-Schmidt of the projected axes keeps e.g. the (x, y) plane as (x, y)
    null = Vt[rank:].T
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
        # the kernel divides by h^2, which must be a finite normal number
        with np.errstate(all="ignore"):
            h2 = np.float64(self.bandwidth) ** 2
        if not (self.bandwidth > 0 and np.finfo(float).tiny <= h2 < np.inf):
            raise ValueError("bandwidth must be positive with a finite normal square")

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


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused at the end
def _kernel_sums(
    model: KdeModel, points: np.ndarray, want_gradient: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Weighted row sums K w of the kernel matrix K[i, j] = k(p_i - c_j), and
    their gradient sums if want_gradient, over cache-sized row blocks.

    A block's exponents -|p - c|^2 / (2 h^2) are one product of centred
    coordinates, |p|^2 + |c|^2 - 2 p.c, which rounds by about
    eps (|p| + |c|)^2.  Where that over 2 h^2 exceeds KERNEL_EXPONENT_RTOL,
    as at a bandwidth narrow against the data, the exponents and the
    gradient sums are summed from the differences p - c instead.
    """
    # centring keeps the cancellation in |p|^2 + |c|^2 - 2 p.c independent
    # of where the data sit
    shift = model.centers.mean(axis=0)
    C = model.centers - shift
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != model.dimension:
        raise ValueError(f"points of shape {points.shape} for a "
                         f"{model.dimension}-dimensional density")
    P = points - shift
    h2 = model.bandwidth**2
    pp = (P * P).sum(axis=1)
    cc = (C * C).sum(axis=1)
    # eps reach^2 / (2 h^2) > rtol, without overflow; a reach that is not
    # finite keeps the product form, whose overflow is refused below
    reach = math.sqrt(pp.max(initial=0.0)) + math.sqrt(cc.max(initial=0.0))
    direct = math.isfinite(reach) and reach / model.bandwidth > math.sqrt(
        2.0 * KERNEL_EXPONENT_RTOL / np.finfo(float).eps)
    rhs = np.vstack([2.0 * C.T, cc, np.ones(len(C))]) / (2.0 * h2)
    lhs = np.column_stack([P, -np.ones(len(P)), -pp])
    wC = model.weights[:, None] * C
    vals = np.empty(len(P))
    grads = np.empty(P.shape) if want_gradient else None
    rows = max(1, KERNEL_BLOCK_ELEMENTS // len(C))
    buf = np.empty((min(rows, len(P)), len(C)))
    for lo in range(0, len(P), rows):
        blk = slice(lo, lo + rows)
        K = buf[: len(P) - lo]
        if direct:
            # from the uncentred coordinates, whose differences are exact
            # for near pairs; a far pair's exponent may overflow to -inf
            K[...] = 0.0
            for axis in range(model.dimension):
                D = np.subtract.outer(points[blk, axis], model.centers[:, axis])
                K += D * D
            K /= -2.0 * h2
        else:
            np.matmul(lhs[blk], rhs, out=K)
        np.exp(np.minimum(K, 0.0, out=K), out=K)
        vals[blk] = v = K @ model.weights
        if want_gradient and direct:
            # sum_j w_j k (c_j - p) without the centred product's rounding
            for axis in range(model.dimension):
                D = np.subtract.outer(points[blk, axis], model.centers[:, axis])
                grads[blk, axis] = (K * D) @ model.weights / -h2
        elif want_gradient:
            grads[blk] = (K @ wC - v[:, None] * P[blk]) / h2
    # a point or centre too many bandwidths out overflows the exponent
    if not (np.all(np.isfinite(vals)) and (grads is None or np.all(np.isfinite(grads)))):
        raise FloatingPointError("kernel sums overflowed: points or centres lie "
                                 "too many bandwidths apart")
    return vals, grads


def _kde_norm(model: KdeModel) -> float:
    n = model.dimension
    return float(
        model.weights.sum() * (2.0 * np.pi * model.bandwidth**2) ** (n / 2.0)
    )


def kde_eval(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """Density values of the weighted Gaussian mixture."""
    vals, _ = _kernel_sums(model, points, want_gradient=False)
    return vals / _kde_norm(model)


def kde_gradient(model: KdeModel, points: np.ndarray) -> np.ndarray:
    """(N, n) array of analytic density gradients."""
    _, grads = _kernel_sums(model, points, want_gradient=True)
    return grads / _kde_norm(model)


def _kde_table(model: KdeModel, radius: float):
    """points -> density of a planar model on the square |x|, |y| <= radius,
    read by Catmull-Rom interpolation (Keys 1981) from a table of the exact
    density at nodes TABLE_SPACING bandwidths apart; where that would need
    more than TABLE_MAX_CELLS cells, the nodes spread wider,
    isqrt(TABLE_MAX_CELLS) cells a side.  radius must be finite.

    The nodes span the square and one node past each edge for the
    interpolation stencil.  The Gaussian kernel is separable, so the table
    is one product sum_j w_j k(x_a - c_j,x) k(y_b - c_j,y), built over blocks
    of centres in one reused buffer: 2 nodes x centres exponentials, where
    kde_eval on the nodes takes nodes^2 x centres.

    A read is node-major: each point's four Catmull-Rom weights per axis go
    into one (4, 2, points) array, its 4 x 4 stencil is one take of
    (16, points) table values, and one einsum sums w_x[a] v[a, b] w_y[b]
    over each point's stencil.  The weights and the stencil values have the
    points last, so the gather and the sum run along contiguous rows.
    """
    side = math.isqrt(TABLE_MAX_CELLS)
    step = max(TABLE_SPACING * model.bandwidth, radius / (side / 2))
    cells = min(max(math.ceil(radius / step * 2), 1), side)
    nodes = -radius + step * np.arange(-1, cells + 2)
    table = np.zeros((len(nodes), len(nodes)))
    rows = max(1, KERNEL_BLOCK_ELEMENTS // len(nodes))
    buf = np.empty((2, min(rows, len(model.centers)), len(nodes)))
    for lo in range(0, len(model.centers), rows):
        c = model.centers[lo:lo + rows]
        kx, ky = buf[:, : len(c)]
        for k, axis in ((kx, 0), (ky, 1)):
            np.subtract(nodes, c[:, axis, None], out=k)
            with np.errstate(over="ignore"):  # a far node's kernel is exp(-inf) = 0
                k /= model.bandwidth
                np.exp(-0.5 * k * k, out=k)
        kx *= model.weights[lo:lo + rows, None]
        table += kx.T @ ky
    table /= _kde_norm(model)
    flat = table.ravel()
    stencil = np.arange(-1, 3)
    # the 4 x 4 stencil's flat offsets from its cell's low corner node
    offsets = (stencil[:, None] * len(nodes) + stencil).ravel()

    def density(points):
        u = np.asarray(points, dtype=float).T / step + (radius / step + 1.0)
        k = np.clip(np.floor(u), 1, cells).astype(int)  # each cell's low node
        t = u - k
        w = np.empty((4, *t.shape))  # w[i, axis, p]
        w[0] = ((2.0 - t) * t - 1.0) * t
        w[1] = (3.0 * t - 5.0) * t * t + 2.0
        w[2] = ((4.0 - 3.0 * t) * t + 1.0) * t
        w[3] = (t - 1.0) * t * t
        w *= 0.5
        values = flat.take(offsets[:, None] + (k[0] * len(nodes) + k[1]))
        return np.einsum("ap,abp,bp->p", w[:, 0], values.reshape(4, 4, -1), w[:, 1])

    return density
