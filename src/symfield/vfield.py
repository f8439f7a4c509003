"""Vector-field symmetry machinery.

A vector field X = sum_i alpha^i d/dx_i has one component function per
coordinate, each a combination over a feature dictionary.  VectorFieldModel,
the one field type, holds c such fields over one dictionary; a field whose
closed-form components use different bases is one over the union of those
bases (VectorFieldModel.from_components, also named BasisVectorField).

The module builds the extended feature matrix whose nullspace columns are
coefficient vectors of annihilating vector fields, estimates those fields,
estimates additional functions the fields annihilate (invariant features),
fits flow parameters, integrates flows, and supports restricted searches
over a user-supplied basis of vector fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import manifold
from .features import (FeatureBasis, _power, design_matrix, jacobian_stack,
                       monomial_basis)
from .model_fit import LevelSetModel, ScalarFunctionModel

__all__ = [
    "VectorFieldModel",
    "BasisVectorField",
    "FlowDivergedError",
    "FlowParameterResult",
    "extended_feature_matrix",
    "estimate_vector_fields",
    "escalate_vector_fields",
    "invariant_feature_matrix",
    "estimate_invariants",
    "estimate_flow_parameter",
    "flow_integrate",
    "basis_restricted_search",
]


# escalate_vector_fields stops at the first family whose loss is below this
ESCALATION_LOSS = 1e-4
# estimate_flow_parameter flags an RMS residual of X(theta) - 1 above this
FLOW_PARAMETER_RESIDUAL = 1e-3


class FlowDivergedError(FloatingPointError):
    def __init__(self, step: int):
        super().__init__(f"flow state became non-finite at step {step}")
        self.step = step


@dataclass
class VectorFieldModel:
    """c vector fields X_j = sum_i alpha^i_j d/dx_i over one coefficient
    dictionary.

    Column j of ``columns`` stacks n blocks of m coefficients; block i holds
    the coefficients of component alpha^i of field j.  from_components (also
    named BasisVectorField) builds one field from a closed-form component per
    coordinate.  A one-field model lists its components, evaluates itself and
    applies itself to a function; field(j) takes one field of several.
    """

    basis: FeatureBasis
    columns: np.ndarray  # (n * m, c)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim == 1:
            self.columns = self.columns[:, None]
        if self.columns.ndim != 2:
            raise ValueError("coefficient columns must form an (n * m, c) matrix")
        n, m = self.basis.dimension, len(self.basis)
        if self.columns.shape[0] != n * m:
            raise ValueError("coefficient column length must be n * m")
        if not np.all(np.isfinite(self.columns)):
            raise ValueError("coefficient columns must be finite")

    @classmethod
    def from_components(
        cls, components: list[ScalarFunctionModel]
    ) -> "VectorFieldModel":
        """One field from one scalar model per coordinate, over the union of
        their bases with each coefficient at its atom's index."""
        dims = {c.basis.dimension for c in components}
        if len(dims) != 1 or len(components) != dims.pop():
            raise ValueError("need one component per coordinate")
        basis = FeatureBasis(len(components))
        for comp in components:
            basis = basis.extend(comp.basis.atoms)
        C = np.zeros((len(components), len(basis)))
        for row, comp in zip(C, components):
            row[[basis.index(a) for a in comp.basis.atoms]] = comp.coefficients
        return cls(basis, C.ravel())

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    @property
    def n_fields(self) -> int:
        return self.columns.shape[1]

    def blocks(self, j: int) -> np.ndarray:
        """(n, m) coefficient blocks of field j."""
        return self.columns[:, j].reshape(
            self.basis.dimension, len(self.basis)
        )

    def _one_field(self) -> np.ndarray:
        """The blocks of a one-field model; several fields are refused."""
        if self.n_fields != 1:
            raise ValueError(
                f"need a single field; the model holds {self.n_fields}")
        return self.blocks(0)

    def values(self, points: np.ndarray) -> np.ndarray:
        """(N, c, n) component values alpha^i_j of every field at each point."""
        B = design_matrix(self.basis, points)
        out = np.empty((B.shape[0], self.n_fields, self.dimension))
        for j in range(self.n_fields):
            out[:, j, :] = B @ self.blocks(j).T
        return out

    def field(self, j: int = 0) -> "VectorFieldModel":
        """Field j as a one-field model."""
        return VectorFieldModel(self.basis, self.columns[:, j])

    @property
    def components(self) -> list[ScalarFunctionModel]:
        """The component functions alpha^i of a one-field model."""
        return [ScalarFunctionModel(self.basis, row) for row in self._one_field()]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """(N, n) component values of a one-field model at each point.  One
        design matrix B serves every component, and column i is B @ alpha^i,
        the product ScalarFunctionModel takes, so it has the same bits."""
        rows = self._one_field()
        B = design_matrix(self.basis, points)
        return np.column_stack([B @ row for row in rows])

    def apply_to(self, f: ScalarFunctionModel, points: np.ndarray) -> np.ndarray:
        """X(f) at each point: alpha . grad f."""
        return np.einsum("ij,ij->i", self(points), f.gradient(points))


# the closed-form field of one component model per coordinate
BasisVectorField = VectorFieldModel.from_components


def _jacobians(model, points: np.ndarray) -> np.ndarray:
    """(N, k, n) Jacobians J(F)(x_i) of a fitted level set, KDE or scalar F."""
    if isinstance(model, LevelSetModel):
        J = model.jacobians(points)
    else:
        J = model.gradient(points)[:, None, :]
    if not np.all(np.isfinite(J)):
        raise ValueError("model produced non-finite Jacobians")
    return J


def extended_feature_matrix(
    model, data: np.ndarray, vf_basis: FeatureBasis
) -> np.ndarray:
    """(k N, n m) matrix M with (M W)[(i, l), j] = X_j(f_l)(x_i)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    J = _jacobians(model, data)  # (N, k, n)
    B = design_matrix(vf_basis, data)  # (N, m)
    N, k, n = J.shape
    m = B.shape[1]
    return np.einsum("ikr,im->ikrm", J, B).reshape(N * k, n * m)


def estimate_vector_fields(
    model,
    data: np.ndarray,
    vf_basis: FeatureBasis,
    c: int,
    config: manifold.OptimizerConfig,
) -> tuple[VectorFieldModel, manifold.OptimizationTrace]:
    """Estimate c annihilating fields over the given coefficient dictionary."""
    M = extended_feature_matrix(model, data, vf_basis)
    W, trace = manifold.minimize(M, c, config)
    return VectorFieldModel(vf_basis, W), trace


def degree_escalation_bases(n: int) -> list[FeatureBasis]:
    """Constant, linear (no constant), affine, quadratic dictionaries."""
    return [
        monomial_basis(n, 0),
        monomial_basis(n, 1, include_constant=False),
        monomial_basis(n, 1),
        monomial_basis(n, 2),
    ]


def escalate_vector_fields(
    model,
    data: np.ndarray,
    c: int,
    config: manifold.OptimizerConfig,
):
    """Search low-complexity coefficient families first.

    Returns (model, trace) of the first family of degree_escalation_bases
    whose final loss drops below ESCALATION_LOSS, or the best family when
    none does.  Searching small dictionaries first sidesteps the
    X-versus-hX ambiguity.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    best = None
    for basis in degree_escalation_bases(data.shape[1]):
        fields, trace = estimate_vector_fields(model, data, basis, c, config)
        if trace.final_loss < ESCALATION_LOSS:
            return fields, trace
        if best is None or trace.final_loss < best[1].final_loss:
            best = (fields, trace)
    return best


def invariant_feature_matrix(
    fields: VectorFieldModel, data: np.ndarray, candidate_basis: FeatureBasis
) -> np.ndarray:
    """(c N, m2) matrix with entry [(i, j), k] = X_j(b^k)(x_i)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    Jc = jacobian_stack(candidate_basis, data)  # (N, m2, n)
    alphas = fields.values(data)  # (N, c, n)
    N, c, _ = alphas.shape
    return np.einsum("imn,icn->icm", Jc, alphas).reshape(
        N * c, len(candidate_basis)
    )


def estimate_invariants(
    fields: VectorFieldModel,
    data: np.ndarray,
    candidate_basis: FeatureBasis,
    q: int,
    config: manifold.OptimizerConfig,
) -> tuple[list[ScalarFunctionModel], manifold.OptimizationTrace]:
    """Estimate q orthonormal feature combinations annihilated by all fields."""
    if candidate_basis.has_constant():
        raise ValueError(
            "candidate basis must exclude the constant atom "
            "(constants are trivially invariant)"
        )
    M2 = invariant_feature_matrix(fields, data, candidate_basis)
    V, trace = manifold.minimize(M2, q, config)
    models = [
        ScalarFunctionModel(candidate_basis, V[:, j]) for j in range(q)
    ]
    return models, trace


@dataclass
class FlowParameterResult:
    model: ScalarFunctionModel
    residual: float
    flagged: bool  # "no-polynomial-flow-parameter"


def estimate_flow_parameter(
    fields: VectorFieldModel,
    data: np.ndarray,
    candidate_basis: FeatureBasis,
) -> FlowParameterResult:
    """Least squares for theta with X(theta) = 1 over the candidate features;
    flagged when the RMS residual exceeds FLOW_PARAMETER_RESIDUAL."""
    fields._one_field()  # refuses a model of several fields
    M2 = invariant_feature_matrix(fields, data, candidate_basis)
    v = manifold.minimize_affine_target(M2, np.ones(M2.shape[0]))
    residual = float(
        np.sqrt(np.mean((M2 @ v - 1.0) ** 2))
    )
    return FlowParameterResult(
        ScalarFunctionModel(candidate_basis, v),
        residual,
        flagged=residual > FLOW_PARAMETER_RESIDUAL,
    )


def _velocity(field: VectorFieldModel):
    """y -> alpha(y) for a one-field model, from its (n, m) coefficient blocks.

    A polynomial basis evaluates its atoms as one product over a table of
    coordinate powers, one row per distinct exponent; any other basis takes a
    design-matrix row.  Each power is features._power, the repeated squaring
    FeatureAtom.values uses, and each component is its own (1, m) @ (m,)
    product, as in ScalarFunctionModel, so the field gives the same bits as
    evaluating its components one by one.
    """
    basis, rows = field.basis, field._one_field()[:, None, :]
    if not basis.is_polynomial():
        return lambda y: (rows @ design_matrix(basis, y[None, :])[0])[:, 0]
    E = np.array([a.exponents for a in basis.atoms], dtype=int).reshape(
        len(basis), basis.dimension
    )
    # powers[i, j] = y_j ^ exponents[i], one row per distinct exponent;
    # atom k's factors are powers.flat[index[k]]
    exponents, inverse = np.unique(E, return_inverse=True)
    powers = np.ones((len(exponents), basis.dimension))
    index = inverse.reshape(E.shape) * basis.dimension + np.arange(basis.dimension)
    raised = [(i, e) for i, e in enumerate(exponents.tolist()) if e]

    def velocity(y):
        for i, e in raised:
            powers[i] = _power(y, e)
        return (rows @ powers.take(index).prod(axis=1))[:, 0]

    return velocity


def flow_integrate(
    field: VectorFieldModel, x0, t: float, steps: int
) -> np.ndarray:
    """Classical fixed-step RK4 trajectory of dx/dt = alpha(x).

    The velocity is built once per call (``_velocity``): each RK4 stage
    multiplies one (n, m) coefficient matrix by the atom values, which a
    polynomial basis takes from one product over a table of coordinate
    powers, indexed by its (m, n) exponent table, not from a design-matrix
    row.  The model must hold one field; x0 must be a finite length-n vector
    and t finite.

    Returns the (steps + 1, n) array of states including the start point.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.array(x0, dtype=float)
    if x.shape != (field.dimension,):
        raise ValueError(
            f"x0 must be a vector of length {field.dimension}, "
            f"got shape {x.shape}"
        )
    if not (np.all(np.isfinite(x)) and np.isfinite(t)):
        raise ValueError("x0 and t must be finite")
    velocity = _velocity(field)

    h = t / steps
    out = np.empty((steps + 1, x.size))
    out[0] = x
    # overflow here is the signal for divergence, not an anomaly
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = velocity(x)
            k2 = velocity(x + 0.5 * h * k1)
            k3 = velocity(x + 0.5 * h * k2)
            k4 = velocity(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise FlowDivergedError(i)
            out[i + 1] = x
    return out


def basis_restricted_search(
    basis_fields: list[VectorFieldModel],
    f: ScalarFunctionModel,
    data: np.ndarray,
    config: manifold.OptimizerConfig,
) -> tuple[np.ndarray, manifold.OptimizationTrace]:
    """Unit-norm combination of given fields minimizing || sum a_j X_j(f) ||."""
    if not basis_fields:
        raise ValueError("need at least one basis field")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    A = np.column_stack([X.apply_to(f, data) for X in basis_fields])
    a, trace = manifold.minimize(A, 1, config)
    return a[:, 0], trace
