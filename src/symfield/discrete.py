"""Discrete parametric symmetry fitting.

Fits the parameters of a transformation family so that a fitted function (or
an estimated density) is preserved.  Every family, the built-in reflection
about a line through the origin and planar rotation by a fixed angle
included, is an n x n matrix of expression trees over its parameters under a
unit-norm or an interval constraint; each tree is checked and compiled once,
when the family is made, into a function of the parameter columns.  A
unit-norm family is evaluated at p/|p|; for an even one, M(-p) = M(p),
fit_discrete reports p with its largest entry positive.  fit_discrete's
_angle_search scores an angle on a coarse grid, refines every grid minimum by
Brent's bounded minimisation and takes the smallest angle of comparable
refined loss; it runs along one line of the parameter set at a time (a
coordinate of an interval family, a turn in one coordinate plane of a
unit-norm family) and sweeps the lines until the parameters stop moving.  A
unit-norm fit of three or more parameters starts at the best of a fixed set
of unit vectors and ends each sweep with a turn along the great circle that
the sweep moved on.  The Brent runs of one line advance in lockstep, so each
step of all of them is one set of angles, and every set of angles, the grid's
or a step's, is scored by one blocked scorer: stacked calls of f, each for at
most _BLOCK_POINTS // N angles, N the number of data rows.  When f is a
ScalarFunctionModel whose atoms are all monomials, the scorer works in
coefficient space: f o M is a polynomial of f's degree, so each angle costs
f at a fixed set of probe points, one small least-squares solve and a loss
read from the coefficients, whatever N is (_coefficient_losses).  Any other
f, a table closure or a trig basis, is read at every transformed data point
(_residual_losses), at most _BLOCK_POINTS of them per call.  The reported
loss is always one direct _residual_losses call.  fit_density fits a planar
family to an estimated density: it is fit_discrete under the mean-absolute
loss, with f the density read from a table, and fit_density_rotation is
fit_density on a rotation family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .features import design_matrix, monomial_basis
from .manifold import OptimizerConfig
from .model_fit import KdeModel, ScalarFunctionModel, _kde_table, kde_eval

__all__ = [
    "ParametricFamily",
    "DiscreteFitResult",
    "reflection_family",
    "rotation_family",
    "user_linear_family",
    "fit_discrete",
    "fit_density",
    "fit_density_rotation",
]


_FUNCTIONS = {"neg": np.negative, "sin": np.sin, "cos": np.cos}
_UNARY_OPS = (*_FUNCTIONS, "pow")


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _compile(tree, n_params: int):
    """tree as a function of the parameter columns, columns[i] holding
    parameter i's values: its value at each parameter vector, a float where
    tree reads no parameter.  Raises ValueError on a malformed tree: a node
    is a number or an object holding exactly one of const, param and op."""
    if _is_number(tree):
        tree = {"const": tree}
    if not isinstance(tree, dict):
        raise ValueError(f"expression node {tree!r} is not a number or an object")
    if sum(key in tree for key in ("const", "param", "op")) > 1:
        raise ValueError(
            f"expression node {tree!r} holds more than one of const, param and op")
    if "const" in tree:
        if not _is_number(tree["const"]):
            raise ValueError(f"const {tree['const']!r} is not a number")
        value = float(tree["const"])
        return lambda columns: value
    if "param" in tree:
        index = tree["param"]
        if not (_is_number(index, int) and 0 <= index < n_params):
            raise ValueError(
                f"param index {index!r} is not an integer in [0, {n_params})")
        return lambda columns: columns[index]
    op = tree.get("op")
    if op not in ("add", "mul") + _UNARY_OPS:
        raise ValueError(f"unknown expression op {op!r}")
    args = tree.get("args", [])
    if not isinstance(args, list) or (op in _UNARY_OPS and len(args) != 1):
        raise ValueError(f"op {op!r} has arguments {args!r}")
    if op == "pow" and not _is_number(tree.get("exponent"), int):
        raise ValueError("pow needs an integer exponent")
    parts = [_compile(arg, n_params) for arg in args]
    # left-to-right folds, so a row's value never depends on the stack size
    if op in ("add", "mul"):
        fold, empty = (np.add, 0.0) if op == "add" else (np.multiply, 1.0)
        return lambda columns: (reduce(fold, [part(columns) for part in parts])
                                if parts else empty)
    (part,) = parts
    if op == "pow":
        exponent = int(tree["exponent"])
        return lambda columns: part(columns) ** exponent
    function = _FUNCTIONS[op]
    return lambda columns: function(part(columns))


@dataclass
class ParametricFamily:
    """A linear transformation family: an n x n matrix whose entries are
    expression trees over n_params parameters, under a constraint."""

    entries: list  # n x n nested expression trees
    n_params: int
    constraint: str = "unit-norm"  # or "interval"
    interval: tuple[float, float] | None = None

    def __post_init__(self):
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
        if not (isinstance(self.entries, list) and self.entries
                and all(isinstance(row, list) and len(row) == len(self.entries)
                        for row in self.entries)):
            raise ValueError("entries must be a non-empty n x n list of lists")
        self._compiled = [[_compile(tree, self.n_params) for tree in row]
                          for row in self.entries]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def matrix(self, params: np.ndarray) -> np.ndarray:
        """The matrix at a parameter vector; a (k, n_params) stack gives k.
        A unit-norm family is evaluated at p / |p|."""
        P = np.asarray(params, dtype=float)
        if P.ndim == 1:
            return self.matrix(P[None])[0]
        if self.constraint == "unit-norm":  # np.linalg.norm's sum, bit for bit
            P = P / np.sqrt(np.add.reduce(P * P, axis=1, keepdims=True))
        M = np.empty((len(P), self.dimension, self.dimension))
        for i, row in enumerate(self._compiled):
            for j, entry in enumerate(row):
                M[:, i, j] = entry(P.T)
        if not np.all(np.isfinite(M)):
            raise ValueError("family matrix is not finite")
        return M


_A, _B = {"param": 0}, {"param": 1}
_SIN, _COS = {"op": "sin", "args": [_A]}, {"op": "cos", "args": [_A]}
_ROTATION = [[_COS, _SIN], [{"op": "neg", "args": [_SIN]}, _COS]]
_A2, _B2 = ({"op": "pow", "args": [t], "exponent": 2} for t in (_A, _B))
_CROSS = {"op": "mul", "args": [{"const": -2}, _A, _B]}
_REFLECTION = [  # [[b^2 - a^2, -2 a b], [-2 a b, a^2 - b^2]] at unit (a, b)
    [{"op": "add", "args": [_B2, {"op": "neg", "args": [_A2]}]}, _CROSS],
    [_CROSS, {"op": "add", "args": [_A2, {"op": "neg", "args": [_B2]}]}],
]


def reflection_family() -> ParametricFamily:
    """Reflection of the plane about the line a x + b y = 0."""
    return ParametricFamily(_REFLECTION, 2)


def rotation_family(lo: float, hi: float) -> ParametricFamily:
    """Planar rotation by a fixed angle constrained to (lo, hi)."""
    return ParametricFamily(_ROTATION, 1, "interval", (lo, hi))


user_linear_family = ParametricFamily  # a family of any entries


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


@dataclass(frozen=True)
class _CoefficientSpace:
    """A polynomial f of degree d in the full monomial basis of degree d (m
    atoms): the probe points Z, f's values there, the least-squares solver
    that maps values at Z to coefficients, and the rows the loss reads: R,
    the triangular factor of Phi / sqrt(N), for the mean-squared loss, and
    Phi^T for the mean-absolute one, with Phi the basis at the data."""

    probes: np.ndarray  # (2 m, n)
    values: np.ndarray  # (2 m,)
    solver: np.ndarray  # (m, 2 m)
    rows: np.ndarray  # R, (min(N, m), m), or Phi^T, (m, N)
    loss_kind: str


_monomials = lru_cache(maxsize=64)(monomial_basis)


@lru_cache(maxsize=64)
def _unit_probes(count: int, n: int) -> np.ndarray:
    """count seeded uniform draws in [-1, 1]^n, drawn once per shape."""
    probes = np.random.default_rng(0).uniform(-1.0, 1.0, (count, n))
    probes.flags.writeable = False
    return probes


def _coefficient_space(f, data: np.ndarray,
                       loss_kind: str) -> _CoefficientSpace | None:
    """f in coefficient space, or None where f is not a ScalarFunctionModel
    whose atoms are all monomials, or a monomial of f's degree is not finite
    at the data or the probes.  The 2 m probes are seeded uniform
    draws in the box |z_j| <= max |x_j| of the data (an axis that is 0 at
    every point takes the widest axis's reach, all-zero data a reach of 1);
    the solver is the pseudo-inverse of their design matrix with its columns
    scaled to a largest entry of 1."""
    if not (isinstance(f, ScalarFunctionModel) and f.basis.is_polynomial()):
        return None
    n = data.shape[1]
    basis = _monomials(n, f.degree())
    c = np.zeros(len(basis))
    for atom, value in zip(f.basis.atoms, f.coefficients):
        if value:
            c[basis.index(atom)] = value
    reach = np.max(np.abs(data), axis=0)
    reach[reach == 0] = reach.max() if reach.max() > 0 else 1.0
    probes = reach * _unit_probes(2 * len(c), n)
    with np.errstate(over="ignore", invalid="ignore"):
        at_both = design_matrix(basis, np.concatenate([probes, data]))
    if not np.all(np.isfinite(at_both)):
        return None
    at_probes, at_data = at_both[:len(probes)], at_both[len(probes):]
    scale = np.max(np.abs(at_probes), axis=0)
    solver = np.linalg.pinv(at_probes / scale) / scale[:, None]
    if loss_kind == "mean-squared":
        rows = np.linalg.qr(at_data / math.sqrt(len(data)), mode="r")
    else:
        rows = np.ascontiguousarray(at_data.T)
    return _CoefficientSpace(probes, at_probes @ c, solver, rows, loss_kind)


def _coefficient_losses(f, space: _CoefficientSpace, family, P) -> np.ndarray:
    """Residual loss at each row of P of a polynomial f, read in coefficient
    space: one call of f, at the probes turned by each M.  f o M - f is a
    polynomial of f's degree, so its coefficients are delta = solver (f(Z
    M^T) - f(Z)), its values at the data Phi delta and their mean square
    |R delta|^2, which never reads N.  The difference is taken before the
    solve, as the direct path takes f(X M^T) - f(X): solving first and
    subtracting f's coefficients carried 17 times the direct path's rounding
    on the benchmark's reflection.  Each product is summed within its row, so
    a row's loss does not depend on the other rows of P."""
    probes = space.probes @ family.matrix(P).swapaxes(-1, -2)
    values = f(probes.reshape(-1, probes.shape[-1])).reshape(len(P), 1, -1)
    delta = ((values - space.values) * space.solver).sum(axis=-1)
    if space.loss_kind == "mean-squared":
        r = (delta[:, None, :] * space.rows).sum(axis=-1)
        return (r * r).sum(axis=1)
    r = delta[:, :1] * space.rows[0]
    for j in range(1, len(space.rows)):
        r += delta[:, j:j + 1] * space.rows[j]
    return np.mean(np.abs(r), axis=1)


_GRID = 64  # every line's grid has _GRID + 2 angles
_BLOCK_POINTS = 1 << 12  # most transformed points in one grid call of f
_FIT_XATOL = 1e-10  # fit_discrete's line-search tolerance
_SWEEP_TOL = 1e-8  # fit_discrete stops when a sweep moves no coordinate further
_MAX_SWEEPS = 50
# starts a unit-norm fit of three or more parameters scores: 256 found the
# planted normal of the three-parameter Householder family in 200 of 200 fits
_STARTS = 256
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent(a: float, b: float, xatol: float):
    """Brent's method (Brent 1973, ch. 5) on [a, b] as a generator: it yields
    each x whose loss it needs, takes that loss by send and returns (x, loss)
    at the minimum it found.  Golden-section steps with parabolic
    interpolation.

    Step for step the same as scipy.optimize.minimize_scalar(method="bounded")
    with the given xatol and its default of at most 500 losses; the caller
    decides how each loss is computed, so many runs can share calls of f.
    """
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield xf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < 500:
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return float(xf), float(fx)


def _refine(losses, brackets, xatol: float) -> list[tuple[float, float]]:
    """(x, loss) of a _brent run in each (a, b) of brackets, the runs advanced
    in lockstep: each round scores the next x of every run still going in
    one call of losses, which maps an array of angles to their losses."""
    runs = [_brent(a, b, xatol) for a, b in brackets]
    asks = [next(run) for run in runs]
    found = [None] * len(runs)
    active = list(range(len(runs)))
    while active:
        scores = losses(np.array([asks[i] for i in active])).tolist()
        going = []
        for i, fx in zip(active, scores):
            try:
                asks[i] = runs[i].send(fx)
                going.append(i)
            except StopIteration as stop:
                found[i] = stop.value
        active = going
    return found


def _angle_search(losses, grid: np.ndarray, xatol: float) -> float:
    """The smallest angle whose loss is comparable to the best.

    losses maps an array of angles to their losses; it scores the grid in
    one call, then each round of _refine in one call.  Every interior local
    minimum of the grid is refined by _brent between its two neighbours.
    Every multiple of a generating angle is a symmetry too, so among the
    refined minima the smallest angle whose loss is at most 2 best +
    sqrt(eps) (grid loss range) is the generator: _brent locates an angle
    only to about sqrt(eps) relative, so on a zero-residual family the
    minima's losses differ by that much of the loss's scale.  With no
    interior local minimum the best grid point, an end, is returned.
    """
    vals = losses(grid).tolist()
    candidates = _refine(losses, [
        (grid[i - 1], grid[i + 1]) for i in range(1, len(grid) - 1)
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]
    ], xatol)
    if not candidates:
        i = int(np.argmin(vals))
        candidates = [(float(grid[i]), vals[i])]
    best = min(loss for _, loss in candidates)
    floor = 2.0 * best + _SQRT_EPS * (max(vals) - min(vals))
    return min(t for t, loss in candidates if loss <= floor)


def fit_discrete(
    f: ScalarFunctionModel,
    data: np.ndarray,
    family: ParametricFamily,
    config: OptimizerConfig,
) -> DiscreteFitResult:
    """Minimize the transformation residual of f over the family parameters.

    Coordinate descent with exact line searches (Wright 2015): each line
    through p is searched by _angle_search.  On an interval family p starts
    at the box midpoint and each line is one coordinate, on linspace(lo, hi,
    _GRID + 2).  On a unit-norm family each line turns p by t in one
    coordinate plane, with t on a grid one spacing past both ends of
    [0, 2 pi].  With one parameter the better of
    +-e0 is taken, with two p starts at e0, and with three or more p starts
    at the best of _STARTS fixed unit vectors (normalised Gaussian draws of
    seed 0), scored in one blocked call of the loss, and each sweep that
    moves p ends with one more search, along the great circle from the
    sweep's start through p (Powell 1964).  Sweeps repeat until no
    coordinate moves by more than _SWEEP_TOL, at most _MAX_SWEEPS times; one
    line gets one search.  Each set of angles a search scores, its grid or
    one lockstep step of its Brent runs, is scored in blocks of
    _BLOCK_POINTS // N angles (at least one), one call of f per block; a
    row's loss does not depend on its block.  A ScalarFunctionModel whose
    atoms are all monomials is scored in coefficient space (see
    _coefficient_space: its call of f reads 2 m probe points per angle, m
    the number of monomials of f's degree, not the N data points); any
    other f, or a polynomial one with a monomial of its degree that
    overflows at the data, by _residual_losses at the transformed data.
    final_loss is one _residual_losses call at the returned p on either
    path.  Only config.loss is read.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != family.dimension:
        raise ValueError("family dimension does not match data")
    base = f(data)
    if not np.all(np.isfinite(base)):
        raise ValueError("the model is not finite at the data")
    per_call = max(1, _BLOCK_POINTS // len(data))
    space = _coefficient_space(f, data, config.loss)
    if space is None:
        score = lambda P: _residual_losses(f, data, base, family, P, config.loss)
    else:
        score = lambda P: _coefficient_losses(f, space, family, P)

    def losses(P):
        return np.concatenate([score(P[i:i + per_call])
                               for i in range(0, len(P), per_call)])

    n = family.n_params
    if family.constraint == "interval":
        lo, hi = family.interval
        p = np.full(n, 0.5 * (lo + hi))
        grid = np.linspace(lo, hi, _GRID + 2)
        lines = list(range(n))

        def moved(p, i, t):
            q = p.copy()
            q[i] = t
            return q
    else:
        if n >= 3:  # sweeps from e0 alone can end in a local minimum
            starts = np.random.default_rng(0).standard_normal((_STARTS, n))
            starts /= np.linalg.norm(starts, axis=1, keepdims=True)
            p = starts[np.argmin(losses(starts))]
        else:
            p = np.eye(n)[0]
        grid = 2 * np.pi / _GRID * np.arange(-1, _GRID + 1)
        lines = list(combinations(range(n), 2))

        def moved(p, line, t):
            (i, j), c, s = line, np.cos(t), np.sin(t)
            q = p.copy()
            q[i], q[j] = c * p[i] - s * p[j], s * p[i] + c * p[j]
            return q

    for _ in range(1 if len(lines) == 1 else _MAX_SWEEPS):
        start = p
        for line in lines:
            t = _angle_search(
                lambda ts: losses(np.array([moved(p, line, t) for t in ts])),
                grid, _FIT_XATOL)
            p = moved(p, line, t)
        if np.max(np.abs(p - start)) <= _SWEEP_TOL:
            break
        if family.constraint == "unit-norm" and n >= 3:
            # one more search, along the great circle from the sweep's start
            # through p: coupled parameters otherwise converge only linearly
            d = p - (start @ p) * start
            d -= (start @ d) * start  # twice is enough (Kahan; Parlett 1980)
            d /= np.linalg.norm(d)
            arc = lambda ts: np.cos(ts)[:, None] * start + np.sin(ts)[:, None] * d
            t = _angle_search(lambda ts: losses(arc(ts)), grid, _FIT_XATOL)
            p = arc(np.array([t]))[0]
            p /= np.linalg.norm(p)  # so the next sweep starts on the sphere
    if not lines:
        p = min((p, -p), key=lambda q: losses(q[None])[0])
    if (family.constraint == "unit-norm" and p[np.argmax(np.abs(p))] < 0
            and np.array_equal(family.matrix(-p), family.matrix(p))):
        p = -p  # an even family: report p with its largest entry positive
    boundary = False
    if family.constraint == "interval":
        tol = 1e-6 * (hi - lo)
        boundary = bool(np.any(p - lo < tol) or np.any(hi - p < tol))
    final = _residual_losses(f, data, base, family, p[None], config.loss)[0]
    return DiscreteFitResult(p, float(final), excluded_region_active=boundary)


def fit_density(kde: KdeModel, data: np.ndarray,
                family: ParametricFamily) -> DiscreteFitResult:
    """Parameters of a planar family that best preserve the estimated density.

    Minimizes mean |p(M x_i) - p(x_i)| by fit_discrete, with p read from a
    table (model_fit's _kde_table) over the square that holds the disc of
    radius max |x_i|: turns and reflections keep |x|.  A scored point off
    that square, as under an expanding family, raises ValueError.
    final_loss is the exact loss, from one kde_eval of the data and one of
    their image.  Data whose radius is not finite, or whose density and its
    image's are 0 everywhere, raise FloatingPointError.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != 2 or kde.dimension != 2:
        raise ValueError("density symmetry fitting is two-dimensional")
    with np.errstate(over="ignore"):
        radius = float(np.max(np.hypot(data[:, 0], data[:, 1])))
    if not np.isfinite(radius):
        raise FloatingPointError("the data's distance from the origin is not finite")
    table = _kde_table(kde, radius)
    bound = radius * (1.0 + 1e-12)  # a turn's matrix and product round by eps

    def density(points):
        if np.abs(points).max() > bound:
            raise ValueError("the family moves a point off the density table "
                             f"|x|, |y| <= {radius:.6g}")
        return table(points)

    fit = fit_discrete(density, data, family, OptimizerConfig(loss="mean-absolute"))
    image = data @ family.matrix(fit.parameters).T
    at_image, at_data = kde_eval(kde, image), kde_eval(kde, data)
    if not (np.any(at_image) or np.any(at_data)):
        raise FloatingPointError("the density is 0 at the data and their image: "
                                 "no angle is singled out")
    fit.final_loss = float(np.mean(np.abs(at_image - at_data)))
    return fit


def fit_density_rotation(
    kde: KdeModel, data: np.ndarray, theta_min: float
) -> DiscreteFitResult:
    """Rotation angle in (theta_min, 2 pi - theta_min) matching the estimated
    density: fit_density on rotation_family(theta_min, 2 pi - theta_min)."""
    if not 0.0 < theta_min < np.pi:
        raise ValueError("theta_min must lie in (0, pi)")
    # the excluded region around the identity is symmetric: angles within
    # theta_min of a full turn are just as trivial as small ones
    return fit_density(kde, data, rotation_family(theta_min, 2.0 * np.pi - theta_min))
