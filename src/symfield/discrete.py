"""Discrete parametric symmetry fitting.

Fits the parameters of a transformation family so that a fitted function
(or an estimated density) is preserved: reflections about a line through
the origin, planar rotations by a fixed angle, and user-supplied linear
families whose matrix entries are expression trees over the parameters.
The multi-start finite-difference descent runs its starts and probes in
lockstep: each epoch transforms the data by every probe's matrix at once and
calls f once on all the transformed points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .manifold import OptimizerConfig, retract, tangent_project
from .model_fit import KdeModel, ScalarFunctionModel, kde_eval

__all__ = [
    "ParametricFamily",
    "DiscreteFitResult",
    "reflection_family",
    "rotation_family",
    "user_linear_family",
    "fit_discrete",
    "fit_density_rotation",
    "rotation_generator",
    "generator_cosine",
    "similarity_matrix",
]


def eval_expression(tree, params: np.ndarray):
    """Evaluate a JSON-style expression tree at a parameter vector (a float)
    or at each row of a (k, n_params) stack (k values)."""
    P = np.asarray(params, dtype=float)
    if P.ndim == 1:
        return float(eval_expression(tree, P[None])[0])
    if isinstance(tree, (int, float)):
        return np.full(len(P), float(tree))
    if "const" in tree:
        return np.full(len(P), float(tree["const"]))
    if "param" in tree:
        return P[:, int(tree["param"])]
    op = tree["op"]
    args = [eval_expression(a, P) for a in tree.get("args", [])]
    # left-to-right folds, so a row's value never depends on the stack size
    if op == "add":
        return reduce(np.add, args, np.zeros(len(P)))
    if op == "mul":
        return reduce(np.multiply, args, np.ones(len(P)))
    if op == "neg":
        return -args[0]
    if op == "sin":
        return np.sin(args[0])
    if op == "cos":
        return np.cos(args[0])
    if op == "pow":
        return args[0] ** int(tree["exponent"])
    raise ValueError(f"unknown expression op {op!r}")


_UNARY_OPS = ("neg", "sin", "cos", "pow")


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _check_expression(tree, n_params: int) -> None:
    """Raise ValueError unless eval_expression can evaluate tree at a vector
    of n_params parameters."""
    if _is_number(tree):
        return
    if not isinstance(tree, dict):
        raise ValueError(f"expression node {tree!r} is not a number or an object")
    if "const" in tree:
        if not _is_number(tree["const"]):
            raise ValueError(f"const {tree['const']!r} is not a number")
        return
    if "param" in tree:
        if not (_is_number(tree["param"], int) and 0 <= tree["param"] < n_params):
            raise ValueError(
                f"param index {tree['param']!r} is not an integer in [0, {n_params})"
            )
        return
    op = tree.get("op")
    if op not in ("add", "mul") + _UNARY_OPS:
        raise ValueError(f"unknown expression op {op!r}")
    args = tree.get("args", [])
    if not isinstance(args, list) or (op in _UNARY_OPS and len(args) != 1):
        raise ValueError(f"op {op!r} has arguments {args!r}")
    if op == "pow" and not _is_number(tree.get("exponent"), int):
        raise ValueError("pow needs an integer exponent")
    for arg in args:
        _check_expression(arg, n_params)


@dataclass
class ParametricFamily:
    """A parameterized linear transformation family with a constraint."""

    kind: str  # "reflection-2d" | "rotation-2d" | "user-linear"
    constraint: str  # "unit-norm" | "interval"
    n_params: int
    dimension: int
    interval: tuple[float, float] | None = None
    entries: list | None = None  # user-linear: n x n nested expression trees

    def __post_init__(self):
        if self.kind not in ("reflection-2d", "rotation-2d", "user-linear"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.constraint not in ("unit-norm", "interval"):
            raise ValueError(f"unknown constraint {self.constraint!r}")
        if self.n_params < 1:
            raise ValueError("a family needs n_params >= 1")
        if self.constraint == "interval":
            bounds = np.array(self.interval, dtype=float)  # None becomes nan
            if bounds.shape != (2,) or not (
                    np.isfinite(bounds).all() and bounds[0] < bounds[1]):
                raise ValueError("interval constraint needs finite lo < hi")
            self.interval = tuple(bounds.tolist())
        if self.kind == "user-linear":
            n = self.dimension
            if not (isinstance(self.entries, list) and len(self.entries) == n >= 1
                    and all(isinstance(row, list) and len(row) == n
                            for row in self.entries)):
                raise ValueError(
                    f"entries must be a non-empty n x n list of lists, n = {n}"
                )
            for row in self.entries:
                for tree in row:
                    _check_expression(tree, self.n_params)

    def matrix(self, params: np.ndarray) -> np.ndarray:
        """The matrix at a parameter vector; a (k, n_params) stack gives k."""
        P = np.asarray(params, dtype=float)
        if P.ndim == 1:
            return self.matrix(P[None])[0]
        if self.kind == "reflection-2d":
            a, b = (P / np.linalg.norm(P, axis=1, keepdims=True)).T
            rows = [[b * b - a * a, -2 * a * b], [-2 * a * b, a * a - b * b]]
        elif self.kind == "rotation-2d":
            c, s = np.cos(P[:, 0]), np.sin(P[:, 0])
            rows = [[c, s], [-s, c]]
        else:
            rows = [[eval_expression(e, P) for e in row] for row in self.entries]
        M = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
        if not np.all(np.isfinite(M)):
            raise ValueError("family matrix is not finite")
        return M


def reflection_family() -> ParametricFamily:
    """Reflection of the plane about the line a x + b y = 0."""
    return ParametricFamily("reflection-2d", "unit-norm", 2, 2)


def rotation_family(lo: float, hi: float) -> ParametricFamily:
    """Planar rotation by a fixed angle constrained to (lo, hi)."""
    return ParametricFamily("rotation-2d", "interval", 1, 2, interval=(lo, hi))


def user_linear_family(
    entries: list, n_params: int, constraint: str = "unit-norm",
    interval: tuple[float, float] | None = None,
) -> ParametricFamily:
    return ParametricFamily(
        "user-linear",
        constraint,
        n_params,
        len(entries) if isinstance(entries, list) else 0,
        interval=interval,
        entries=entries,
    )


@dataclass
class DiscreteFitResult:
    parameters: np.ndarray
    final_loss: float
    excluded_region_active: bool = False

    def to_dict(self) -> dict:
        return {
            "parameters": np.asarray(self.parameters).tolist(),
            "final_loss": float(self.final_loss),
            "excluded_region_active": bool(self.excluded_region_active),
        }


def _residual_losses(f, data, base, family, P, loss_kind) -> np.ndarray:
    """Residual loss at each row of P, with base = f(data): one call of f."""
    points = data @ family.matrix(P).swapaxes(-1, -2)
    r = f(points.reshape(-1, data.shape[1])).reshape(len(P), -1) - base
    if loss_kind == "mean-squared":
        return np.mean(r * r, axis=1)
    return np.mean(np.abs(r), axis=1)


def _residual_loss(f, data, family, params, loss_kind) -> float:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return float(_residual_losses(f, data, f(data), family, [params], loss_kind)[0])


_FD_STEP = 1e-6


def fit_discrete(
    f: ScalarFunctionModel,
    data: np.ndarray,
    family: ParametricFamily,
    config: OptimizerConfig,
    n_starts: int = 8,
) -> DiscreteFitResult:
    """Minimize the transformation residual of f over the family parameters.

    Unit-norm families run Riemannian descent on the parameter sphere;
    interval families run gradient descent with clamping; gradients are
    central differences.  The starts run in lockstep: one call of f per
    epoch evaluates every start's 2 n_params probes.  Multi-start with
    deterministic tie-breaking by (loss, parameters).
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != family.dimension:
        raise ValueError("family dimension does not match data")
    base = f(data)

    def losses(P):
        return _residual_losses(f, data, base, family, P, config.loss)

    n = family.n_params
    if family.constraint == "unit-norm":
        G = np.random.default_rng(config.seed).standard_normal((n_starts, n, 1))
        P = retract(np.zeros_like(G), G)[:, :, 0]
    else:
        lo, hi = family.interval
        mids = lo + (hi - lo) * (np.arange(n_starts) + 0.5) / n_starts
        P = np.repeat(mids[:, None], n, axis=1)

    # probe rows (start, sign, i): P[start] +- _FD_STEP in coordinate i
    H = np.stack([np.eye(n), -np.eye(n)]) * _FD_STEP
    acc = np.zeros_like(P)
    for _ in range(config.epochs):
        L = losses((P[:, None, None] + H).reshape(-1, n)).reshape(n_starts, 2, n)
        g = (L[:, 0] - L[:, 1]) / (2 * _FD_STEP)
        if config.algorithm == "riemannian-adagrad":
            step = config.learning_rate * g / np.sqrt(acc + config.adagrad_epsilon)
            acc += g * g
        else:
            step = config.learning_rate * g
        if family.constraint == "unit-norm":
            W = P[:, :, None]
            P = retract(W, -tangent_project(W, step[:, :, None]))[:, :, 0]
        else:
            P = np.clip(P - step, lo, hi)

    final = losses(P)
    k = min(range(n_starts), key=lambda i: (final[i], tuple(P[i])))
    p, loss = P[k].copy(), float(final[k])
    boundary = False
    if family.constraint == "interval":
        tol = 1e-6 * (hi - lo)
        boundary = bool(np.any(p - lo < tol) or np.any(hi - p < tol))
    if family.constraint == "unit-norm":
        # canonical sign: largest-magnitude parameter positive
        k = np.argmax(np.abs(p))
        if p[k] < 0:
            p = -p
    return DiscreteFitResult(p, loss, excluded_region_active=boundary)


def _rotate(points: np.ndarray, theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return points @ np.array([[c, s], [-s, c]]).T


def fit_density_rotation(
    kde: KdeModel,
    data: np.ndarray,
    theta_min: float,
    config: OptimizerConfig | None = None,
    grid_size: int = 64,
    coarse_queries: int | None = 4096,
    coarse_centers: int | None = 4096,
    refine_xatol: float = 1e-5,
) -> DiscreteFitResult:
    """Rotation angle in (theta_min, 2 pi) matching the estimated density.

    Minimizes mean |p(S(theta) x_i) - p(x_i)| by a coarse angle grid
    followed by bounded scalar refinement.  The coarse pass may thin both
    query points and mixture centers (deterministic strides) to keep the
    pairwise kernel sums affordable; refinement always uses the full model
    and the full dataset.
    """
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import minimize_scalar

    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != 2 or kde.dimension != 2:
        raise ValueError("density rotation fitting is two-dimensional")
    if not 0.0 < theta_min < np.pi:
        raise ValueError("theta_min must lie in (0, pi)")
    # the excluded region around the identity is symmetric: angles within
    # theta_min of a full turn are just as trivial as small ones
    theta_max = 2.0 * np.pi - theta_min

    def thin(arr, count):
        if count is None or arr.shape[0] <= count:
            return arr
        stride = arr.shape[0] // count
        return arr[::stride][:count]

    coarse_data = thin(data, coarse_queries)
    if coarse_centers is not None and kde.centers.shape[0] > coarse_centers:
        stride = kde.centers.shape[0] // coarse_centers
        coarse_kde = KdeModel(
            kde.centers[::stride][:coarse_centers],
            kde.weights[::stride][:coarse_centers],
            kde.bandwidth,
        )
    else:
        coarse_kde = kde

    def loss_with(model, points, base):
        def L(theta):
            return float(
                np.mean(np.abs(kde_eval(model, _rotate(points, theta)) - base))
            )
        return L

    coarse_loss = loss_with(
        coarse_kde, coarse_data, kde_eval(coarse_kde, coarse_data)
    )
    grid = np.linspace(theta_min, theta_max, grid_size + 2)
    coarse_vals = np.array([coarse_loss(t) for t in grid])

    # refine every interior local minimum of the coarse profile, then take
    # the smallest angle whose loss is comparable to the best: every
    # multiple of the generating angle is a symmetry, so the smallest
    # comparable angle is the generator
    candidates = []
    for i in range(1, grid_size + 1):
        if coarse_vals[i] <= coarse_vals[i - 1] and coarse_vals[i] <= coarse_vals[i + 1]:
            res = minimize_scalar(
                coarse_loss,
                bounds=(grid[i - 1], grid[i + 1]),
                method="bounded",
                options={"xatol": max(refine_xatol, 1e-4)},
            )
            candidates.append((float(res.x), float(res.fun)))
    if not candidates:
        i = int(np.argmin(coarse_vals[1:-1])) + 1
        candidates.append((float(grid[i]), float(coarse_vals[i])))

    best_loss = min(loss for _, loss in candidates)
    theta0 = min(
        t for t, loss in candidates if loss <= 2.0 * best_loss + 1e-15
    )

    spacing = (theta_max - theta_min) / (grid_size + 1)
    lo = max(theta_min, theta0 - spacing)
    hi = min(theta_max, theta0 + spacing)
    full_loss = loss_with(kde, data, kde_eval(kde, data))
    res = minimize_scalar(
        full_loss, bounds=(lo, hi), method="bounded",
        options={"xatol": refine_xatol},
    )
    theta = float(res.x)
    boundary = lo == theta_min and theta - theta_min < 10.0 * refine_xatol
    return DiscreteFitResult(
        np.array([theta]), float(res.fun), excluded_region_active=boundary
    )


def rotation_generator(angle: float) -> np.ndarray:
    """Homogeneous one-parameter generator of the fitted planar rotation.

    Direction of the subgroup through the fitted rotation, with the
    homogeneous slot advancing at the same rate as the rotation angle.
    """
    return float(angle) * np.array(
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    )


def generator_cosine(A: np.ndarray, B: np.ndarray) -> float:
    """|cosine| of two generator matrices flattened to vectors."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("matrices must be finite")
    na, nb = np.linalg.norm(A), np.linalg.norm(B)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot compare against a zero matrix")
    return float(abs(np.sum(A * B)) / (na * nb))


def similarity_matrix(angle: float, reference: np.ndarray) -> float:
    """|cosine| between the fitted-angle generator and a reference matrix."""
    return generator_cosine(rotation_generator(angle), reference)
