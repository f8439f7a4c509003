import tracemalloc

import numpy as np
import pytest

import symfield as sf
from conftest import poly_field, poly_model, rotation_field_2d
from symfield import vfield
from symfield.features import FeatureAtom, FeatureBasis, monomial_basis, trig_extend
from symfield.manifold import _fix_column_signs
from symfield.vfield import (
    BasisVectorField,
    FlowDivergedError,
    VectorFieldModel,
    basis_restricted_search,
    escalate_vector_fields,
    estimate_flow_parameter,
    estimate_invariants,
    estimate_vector_fields,
    extended_feature_matrix,
    flow_integrate,
    invariant_feature_matrix,
)

MSE = lambda ep=5000, lr=0.1, seed=0: sf.OptimizerConfig(
    "riemannian-adagrad", "mean-squared", lr, ep, seed)


# --- extended feature matrix ------------------------------------------------

def test_extended_matrix_f_equals_x():
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    M = extended_feature_matrix(f, np.array([[0.3, -0.7]]), monomial_basis(2, 0))
    assert np.allclose(M, [[1.0, 0.0]])


def test_extended_matrix_quadratic_row():
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    M = extended_feature_matrix(
        f, np.array([[1.0, 2.0]]), monomial_basis(2, 1)
    )
    assert np.allclose(M, [2.0 * np.array([1, 1, 2, 2, 2, 4])])
    # the rotation field's coefficients annihilate f at this point
    w = np.array([0, 0, -1.0, 1.0, 0, 0])  # -y d/dx + x d/dy
    assert abs(M @ w) <= 1e-12


def test_extended_matrix_shape():
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, (2000, 2))
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0})
    M = extended_feature_matrix(f, data, monomial_basis(2, 2))
    assert M.shape == (2000, 12)


def test_extended_matrix_linear_in_jacobians():
    rng = np.random.default_rng(1)
    data = rng.uniform(-1, 1, (10, 2))
    basis = monomial_basis(2, 2)
    f = poly_model(basis, {(2, 0): 1.0, (1, 1): -0.5})
    f2 = sf.ScalarFunctionModel(basis, 2.0 * f.coefficients)
    M1 = extended_feature_matrix(f, data, monomial_basis(2, 1))
    M2 = extended_feature_matrix(f2, data, monomial_basis(2, 1))
    assert np.allclose(M2, 2.0 * M1)


def test_extended_matrix_dimension_mismatch():
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    with pytest.raises(ValueError):
        extended_feature_matrix(f, np.zeros((4, 3)), monomial_basis(2, 1))


# --- vector field estimation ------------------------------------------------

def test_estimate_field_orthogonal_to_gradient_of_x():
    rng = np.random.default_rng(2)
    data = rng.uniform(-1, 1, (200, 2))
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    model, trace = estimate_vector_fields(
        f, data, monomial_basis(2, 0), 1, MSE(ep=500)
    )
    # field must be c * d/dy
    comp = model.values(data[:5])
    assert np.abs(comp[:, 0, 0]).max() <= 1e-6
    assert trace.final_loss <= 1e-10


def test_annihilation_recomputation_identity():
    data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 300, 0))
    f = sf.fit_regression(data, targets, monomial_basis(2, 2))
    cfg = sf.OptimizerConfig("riemannian-adagrad", "mean-absolute", 0.1, 800)
    model, trace = estimate_vector_fields(f, data, monomial_basis(2, 1), 1, cfg)
    Xf = model.field(0).apply_to(f, data)
    assert np.mean(np.abs(Xf)) == pytest.approx(trace.final_loss, rel=1e-10)


def test_flow_invariance_of_fitted_function():
    data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 500, 0))
    f = sf.fit_regression(data, targets, monomial_basis(2, 2))
    model, trace = estimate_vector_fields(f, data, monomial_basis(2, 1), 1, MSE())
    field = model.field(0)
    x0 = data[0]
    for t in (-1.0, 0.5, 1.0):
        traj = flow_integrate(field, x0, t, 200)
        grad_norms = np.linalg.norm(f.gradient(traj), axis=1)
        bound = 10 * max(trace.final_loss, 1e-9) * abs(t) * grad_norms.max()
        drift = abs(f(traj[-1:])[0] - f(traj[:1])[0])
        assert drift <= max(bound, 1e-6)


@pytest.mark.parametrize("n_points", [200, 2000])
def test_field_sign_is_not_decided_by_rounding(n_points):
    # the gaussian-quadratic field (4 - 4y) d/dx + (x - 1) d/dy has entries
    # c0 = -c2 = 4 / sqrt(34), whose fitted magnitudes differ by about 1e-15
    # either way; signing by the largest entry flipped 3 of these 14 fits
    for seed in (401, 0, 11, 1, 2, 3, 977):
        data, targets = sf.generate(
            sf.GeneratorSpec("gaussian-quadratic", n_points, seed))
        f = sf.fit_regression(data, targets, monomial_basis(2, 2))
        model, _ = estimate_vector_fields(f, data, monomial_basis(2, 1), 1,
                                          sf.OptimizerConfig(loss="mean-squared"))
        c = model.columns[:, 0]
        assert c[0] > 0 > c[2]
        rng = np.random.default_rng(seed)
        for _ in range(10):
            nudged = c + 1e-13 * rng.standard_normal(len(c))
            for W in (nudged[:, None], -nudged[:, None]):
                assert _fix_column_signs(W)[0, 0] > 0


def test_degree_escalation_prefers_low_degree():
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 500, 0))
    ls, _ = sf.fit_level_set(data, monomial_basis(2, 2), 1, MSE())
    model, trace = escalate_vector_fields(ls, data, 1, MSE())
    # linear components with no constant term suffice for the circle
    assert all(sum(a.exponents) == 1 for a in model.basis.atoms)
    assert trace.final_loss <= 1e-4


# --- invariant features -----------------------------------------------------

def test_invariant_matrix_rotation_annihilates_radius():
    X = VectorFieldModel(
        monomial_basis(2, 1),
        np.array([0, 0, -1.0, 0, 1.0, 0]),
    )
    cand = sf.FeatureBasis(2, (
        sf.FeatureAtom("monomial", (2, 0)),
        sf.FeatureAtom("monomial", (0, 2)),
        sf.FeatureAtom("monomial", (1, 1)),
    ))
    data = np.random.default_rng(3).uniform(-2, 2, (30, 2))
    M2 = invariant_feature_matrix(X, data, cand)
    assert np.abs(M2 @ np.array([1.0, 1.0, 0.0])).max() <= 1e-12


def test_invariant_matrix_translation_columns():
    X = VectorFieldModel(monomial_basis(2, 0), np.array([1.0, 0.0]))
    cand = monomial_basis(2, 1, include_constant=False)
    data = np.random.default_rng(4).uniform(-1, 1, (7, 2))
    M2 = invariant_feature_matrix(X, data, cand)
    assert np.allclose(M2, np.tile([1.0, 0.0], (7, 1)))


def test_estimate_invariants_translation_gives_y():
    X = VectorFieldModel(monomial_basis(2, 0), np.array([1.0, 0.0]))
    data = np.random.default_rng(5).uniform(-1, 1, (100, 2))
    models, trace = estimate_invariants(
        X, data, monomial_basis(2, 1, include_constant=False), 1, MSE(ep=1000)
    )
    assert abs(abs(models[0].coefficients[1]) - 1.0) <= 1e-6
    assert trace.final_loss <= 1e-8


def test_estimate_invariants_rejects_constant_atom():
    X = VectorFieldModel(monomial_basis(2, 0), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        estimate_invariants(X, np.zeros((5, 2)), monomial_basis(2, 1), 1, MSE(ep=1))


def test_invariants_scaling_freedom():
    # X and (1 + x^2) X have the same invariants on exact data
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 400, 0))
    data = data * np.random.default_rng(6).uniform(0.5, 2.0, (400, 1))
    basis3 = monomial_basis(2, 3)
    X = VectorFieldModel(
        basis3,
        np.concatenate([
            poly_model(basis3, {(0, 1): -1.0}).coefficients,
            poly_model(basis3, {(1, 0): 1.0}).coefficients,
        ]),
    )
    hX = VectorFieldModel(
        basis3,
        np.concatenate([
            poly_model(basis3, {(0, 1): -1.0, (2, 1): -1.0}).coefficients,
            poly_model(basis3, {(1, 0): 1.0, (3, 0): 1.0}).coefficients,
        ]),
    )
    cand = monomial_basis(2, 2, include_constant=False)
    va, _ = estimate_invariants(X, data, cand, 1, MSE(ep=20000))
    vb, _ = estimate_invariants(hX, data, cand, 1, MSE(ep=20000))
    a, b = va[0].coefficients, vb[0].coefficients
    angle = np.arccos(min(abs(a @ b), 1.0))
    assert angle <= 1e-2


# --- flow parameter ---------------------------------------------------------

def test_flow_parameter_translation():
    X = VectorFieldModel(monomial_basis(2, 0), np.array([1.0, 0.0]))
    data = np.random.default_rng(7).uniform(-1, 1, (100, 2))
    res = estimate_flow_parameter(
        X, data, monomial_basis(2, 1, include_constant=False)
    )
    assert res.model.coefficients[0] == pytest.approx(1.0, abs=1e-8)
    assert res.residual <= 1e-10
    assert not res.flagged


def test_flow_parameter_scaled_translation():
    X = VectorFieldModel(monomial_basis(2, 0), np.array([2.0, 0.0]))
    data = np.random.default_rng(8).uniform(-1, 1, (100, 2))
    res = estimate_flow_parameter(
        X, data, monomial_basis(2, 1, include_constant=False)
    )
    assert res.model.coefficients[0] == pytest.approx(0.5, abs=1e-8)


def test_flow_parameter_rotation_flagged():
    X = VectorFieldModel(
        monomial_basis(2, 1), np.array([0, 0, -1.0, 0, 1.0, 0])
    )
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 300, 0))
    res = estimate_flow_parameter(
        X, data, monomial_basis(2, 2, include_constant=False)
    )
    assert res.flagged  # the polar angle is not polynomial
    assert res.residual > 1e-3


# --- flow integration -------------------------------------------------------

def test_flow_quarter_turn():
    traj = flow_integrate(rotation_field_2d(), [1.0, 0.0], np.pi / 2, 1000)
    assert np.allclose(traj[-1], [0.0, 1.0], atol=1e-8)


def test_flow_translation_exact():
    X = poly_field(2, 0, {(0, 0): 1.0}, {})
    traj = flow_integrate(X, [0.0, 0.0], 3.0, 10)
    assert np.allclose(traj[-1], [3.0, 0.0])
    assert traj.shape == (11, 2)


def test_flow_group_law():
    X = rotation_field_2d()
    rng = np.random.default_rng(9)
    for _ in range(3):
        s, t = rng.uniform(-1, 1, 2)
        x0 = rng.uniform(-1, 1, 2)
        a = flow_integrate(X, flow_integrate(X, x0, t, 400)[-1], s, 400)[-1]
        b = flow_integrate(X, x0, s + t, 800)[-1]
        assert np.abs(a - b).max() <= 1e-6


def test_flow_divergence_reported():
    X = poly_field(1, 2, {(2,): 1.0})  # dx/dt = x^2 blows up at t = 1
    with pytest.raises(FlowDivergedError):
        flow_integrate(X, [1.0], 2.0, 20)


def test_flow_requires_steps():
    with pytest.raises(ValueError):
        flow_integrate(rotation_field_2d(), [1.0, 0.0], 1.0, 0)


@pytest.mark.parametrize("x0,t", [
    ([1.0], 1.0), ([1.0, 0.0, 0.0], 1.0), ([[1.0, 0.0]], 1.0), (1.0, 1.0),
    ([np.nan, 1.0], 1.0), ([np.inf, 0.0], 1.0),
    ([1.0, 0.0], np.inf), ([1.0, 0.0], -np.inf), ([1.0, 0.0], np.nan),
])
def test_flow_rejects_bad_start_or_time(x0, t):
    with pytest.raises(ValueError):
        flow_integrate(rotation_field_2d(), x0, t, 10)


def test_flow_refuses_a_model_of_several_fields():
    basis = monomial_basis(2, 1)
    X = VectorFieldModel(basis, np.ones((2 * len(basis), 2)))
    with pytest.raises(ValueError, match="single field"):
        flow_integrate(X, [1.0, 0.0], 1.0, 10)
    assert flow_integrate(VectorFieldModel(basis, X.columns[:, :1]),
                          [1.0, 0.0], 1.0, 10).shape == (11, 2)


def _reference_flow(components, x0, t, steps):
    """flow_integrate before the velocity was built once: per RK4 stage, each
    component scalar model through its own design-matrix row."""
    x = np.asarray(x0, dtype=float).copy()

    def velocity(y):
        return np.array([c(y[None, :])[0] for c in components])

    h = t / steps
    out = np.empty((steps + 1, x.size))
    out[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = velocity(x)
            k2 = velocity(x + 0.5 * h * k1)
            k3 = velocity(x + 0.5 * h * k2)
            k4 = velocity(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x)):
                raise FlowDivergedError(i)
            out[i + 1] = x
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_flow_bitwise_equals_reference(n, degree):
    rng = np.random.default_rng(10 * n + degree)
    basis = monomial_basis(n, degree)
    # one field whose blocks are a strided view of a two-column array
    X = VectorFieldModel(basis, (0.3 * rng.standard_normal((n * len(basis), 2)))[:, :1])
    assert not X.blocks(0).flags.contiguous
    x0 = rng.uniform(-1, 1, n)
    assert np.array_equal(flow_integrate(X, x0, 0.7, 60),
                          _reference_flow(X.components, x0, 0.7, 60))
    # the form a saved field loads in: one shared basis, contiguous rows
    single = VectorFieldModel(basis, X.columns[:, 0].copy()).field(0)
    assert np.array_equal(flow_integrate(single, x0, 0.7, 60),
                          _reference_flow(single.components, x0, 0.7, 60))


def test_mixed_basis_field_flow_matches_reference():
    rng = np.random.default_rng(3)
    sin_x = FeatureAtom("sin", axis=0)
    product = FeatureAtom("product", (0, 1, 0), factor=(
        (FeatureAtom("monomial", (0, 0, 0)), 0.5), (sin_x, 1.0)))
    bases = [
        monomial_basis(3, 2).extend([product]),
        trig_extend(monomial_basis(3, 0)),
        monomial_basis(3, 1, include_constant=False),
    ]
    # the field is one over the union of the bases; the reference evaluates
    # each component over its own basis, which sums in another order
    components = [sf.ScalarFunctionModel(b, 0.5 * rng.standard_normal(len(b)))
                  for b in bases]
    x0 = rng.uniform(-1, 1, 3)
    traj = flow_integrate(BasisVectorField(components), x0, 1.5, 150)
    assert np.allclose(traj, _reference_flow(components, x0, 1.5, 150),
                       rtol=1e-13, atol=0)


def test_diverging_flow_fails_at_reference_step():
    X = poly_field(1, 2, {(2,): 1.0})  # dx/dt = x^2 from x0 = 1
    with pytest.raises(FlowDivergedError) as reference:
        _reference_flow(X.components, [1.0], 2.0, 20)
    with pytest.raises(FlowDivergedError) as fast:
        flow_integrate(X, [1.0], 2.0, 20)
    assert fast.value.step == reference.value.step


def test_polynomial_flow_never_builds_a_design_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("design_matrix called")

    monkeypatch.setattr(vfield, "design_matrix", refuse)
    X = VectorFieldModel(monomial_basis(2, 2), np.arange(12.0) / 12)
    flow_integrate(X, [0.1, 0.2], 0.5, 10)
    flow_integrate(rotation_field_2d(), [1.0, 0.0], 0.5, 10)
    trig = VectorFieldModel(trig_extend(monomial_basis(2, 0)), np.ones(10))
    with pytest.raises(AssertionError):
        flow_integrate(trig, [0.1, 0.2], 0.5, 10)


def test_velocity_tabulates_only_the_exponents_that_occur():
    # the table of powers had one row per exponent up to the largest, so
    # x1^100000000 allocated (10^8 + 1) x 2 doubles; its rows are now the
    # three distinct exponents 0, 1 and 10^8
    atoms = [FeatureAtom("monomial", exponents=(10**8, 0)),
             FeatureAtom("monomial", exponents=(0, 1))]
    X = BasisVectorField([sf.ScalarFunctionModel(FeatureBasis(2, (a,)), [1.0])
                          for a in atoms])
    tracemalloc.start()
    try:
        velocity = vfield._velocity(X)
        value = velocity(np.array([1.0, 0.5]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value.tolist() == [1.0, 0.5]
    assert peak < 1 << 16


# --- restricted basis search ------------------------------------------------

def test_restricted_search_picks_orthogonal_direction():
    fields = [
        poly_field(2, 0, {(0, 0): 1.0}, {}),  # d/dx
        poly_field(2, 0, {}, {(0, 0): 1.0}),  # d/dy
    ]
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    data = np.random.default_rng(10).uniform(-1, 1, (100, 2))
    a, trace = basis_restricted_search(fields, f, data, MSE(ep=1000))
    assert abs(abs(a[1]) - 1.0) <= 1e-8
    assert trace.final_loss <= 1e-10


def test_restricted_search_degenerate_span():
    X = rotation_field_2d()
    X2 = poly_field(2, 1, {(0, 1): -2.0}, {(1, 0): 2.0})
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 100, 0))
    a, trace = basis_restricted_search([X, X2], f, data, MSE(ep=1000))
    assert trace.final_loss <= 1e-6  # any unit combination solves it


def test_restricted_search_needs_fields():
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    with pytest.raises(ValueError):
        basis_restricted_search([], f, np.zeros((5, 2)), MSE(ep=1))


# --- model containers -------------------------------------------------------

def test_vector_field_model_blocks_and_eval():
    model = VectorFieldModel(
        monomial_basis(2, 1), np.array([0, 0, -1.0, 0, 1.0, 0])
    )
    pts = np.array([[2.0, 3.0]])
    comp = model.values(pts)
    assert np.allclose(comp[0, 0], [-3.0, 2.0])
    field = model.field(0)
    assert np.allclose(field(pts), [[-3.0, 2.0]])


def test_vector_field_column_length_checked():
    with pytest.raises(ValueError):
        VectorFieldModel(monomial_basis(2, 1), np.ones(5))


def test_vector_field_columns_must_be_a_matrix():
    # one level of nesting more than (n * m, c) used to load and integrate
    with pytest.raises(ValueError, match="matrix"):
        VectorFieldModel(monomial_basis(1, 0), [[[1.0]]])


def test_from_components_puts_each_coefficient_at_its_atom():
    x, y = FeatureAtom("monomial", (1, 0)), FeatureAtom("monomial", (0, 1))
    sin_y = FeatureAtom("sin", axis=1)
    X = BasisVectorField([
        sf.ScalarFunctionModel(FeatureBasis(2, (y, x)), [2.0, 3.0]),
        sf.ScalarFunctionModel(FeatureBasis(2, (sin_y, x)), [5.0, 7.0]),
    ])
    assert X.basis.atoms == (y, x, sin_y)
    assert X.blocks(0).tolist() == [[2.0, 3.0, 0.0], [0.0, 7.0, 5.0]]
    assert [c.basis for c in X.components] == [X.basis, X.basis]


@pytest.mark.parametrize("components", [
    [], [poly_model(monomial_basis(2, 1), {(1, 0): 1.0})],
    [poly_model(monomial_basis(1, 1), {(1,): 1.0}),
     poly_model(monomial_basis(2, 1), {(1, 0): 1.0})],
])
def test_from_components_needs_one_component_per_coordinate(components):
    with pytest.raises(ValueError, match="one component per coordinate"):
        BasisVectorField(components)


def test_one_field_operations_refuse_several_fields():
    basis = monomial_basis(2, 1)
    X = VectorFieldModel(basis, np.arange(12.0).reshape(6, 2))
    f = poly_model(basis, {(1, 0): 1.0})
    pts = np.array([[0.5, -1.0]])
    for use in (lambda: X.components, lambda: X(pts), lambda: X.apply_to(f, pts)):
        with pytest.raises(ValueError, match="single field"):
            use()
    second = X.field(1)
    assert second.n_fields == 1
    assert np.array_equal(second(pts)[0], X.values(pts)[0, 1])


def test_similarity_sign_invariance_of_estimate():
    data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 300, 0))
    f = sf.fit_regression(data, targets, monomial_basis(2, 2))
    model, _ = estimate_vector_fields(f, data, monomial_basis(2, 1), 1, MSE())
    flipped = VectorFieldModel(model.basis, -model.columns)
    truth = poly_field(2, 1, {(0, 0): 4.0, (0, 1): -4.0},
                       {(0, 0): -1.0, (1, 0): 1.0})
    dom = sf.domain_from_data(data)
    s1 = sf.similarity(truth, model, dom).aggregate
    s2 = sf.similarity(truth, flipped, dom).aggregate
    assert s1 == pytest.approx(s2, abs=1e-12)
