import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfield as sf
from conftest import einsum_table_reader, poly_model
from symfield.features import FeatureAtom, design_matrix, monomial_basis, trig_extend
from symfield import model_fit
from symfield.manifold import LSTSQ_RCOND, RetractionSingularError
from symfield.model_fit import (
    KERNEL_BLOCK_ELEMENTS,
    TABLE_SPACING,
    EmptyLevelSetError,
    KdeModel,
    LevelSetModel,
    extend_degenerate_columns,
    fit_level_set,
    fit_regression,
    _kde_table,
    kde_eval,
    kde_fit,
    kde_gradient,
    project_onto_affine,
    scott_bandwidth,
    select_components_elbow,
)

MSE = lambda ep=5000, lr=0.1, seed=0: sf.OptimizerConfig(
    "riemannian-adagrad", "mean-squared", lr, ep, seed)


# --- regression -------------------------------------------------------------

def test_regression_expanded_quadratic():
    data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 500, 0))
    model = fit_regression(data, targets, monomial_basis(2, 2))
    assert np.allclose(
        model.coefficients, [5.0, -2.0, -8.0, 1.0, 0.0, 4.0], atol=1e-6
    )
    assert model.residual <= 1e-8
    assert not model.rank_deficient


def test_regression_constant_targets():
    rng = np.random.default_rng(0)
    data = rng.uniform(-1, 1, (50, 2))
    model = fit_regression(data, np.full(50, 3.5), monomial_basis(2, 2))
    assert model.coefficients[0] == pytest.approx(3.5, abs=1e-10)
    assert np.abs(model.coefficients[1:]).max() <= 1e-10


def test_regression_cubic():
    data, targets = sf.generate(sf.GeneratorSpec("cubic", 2000, 0))
    model = fit_regression(data, targets, monomial_basis(2, 3))
    c = {a.exponents: v for a, v in zip(model.basis.atoms, model.coefficients)}
    assert c[(3, 0)] == pytest.approx(1.0, abs=1e-6)
    assert c[(0, 2)] == pytest.approx(-1.0, abs=1e-6)


def test_regression_ridge_fallback_on_collinear_features():
    t = np.linspace(0, 1, 40)
    data = np.column_stack([t, 2 * t])  # y = 2x makes features collinear
    model = fit_regression(data, t, monomial_basis(2, 1))
    assert model.rank_deficient
    assert np.all(np.isfinite(model.coefficients))


def _spectrum_design(s, rows=60, seed=0):
    """rows x len(s) matrix U diag(s) V^T with seeded orthonormal U and V."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((rows, len(s))))[0]
    V = np.linalg.qr(rng.standard_normal((len(s), len(s))))[0]
    return U @ np.diag(s) @ V.T


@pytest.mark.parametrize("ratio, flagged", [(0.9 * LSTSQ_RCOND, True),
                                             (1.1 * LSTSQ_RCOND, False)])
def test_rank_deficient_fires_only_below_the_cut_off(ratio, flagged):
    data = _spectrum_design([1.0, 0.5, ratio])
    basis = monomial_basis(3, 1, include_constant=False)
    assert np.array_equal(design_matrix(basis, data), data)  # B is the data
    model = fit_regression(data, data @ [1.0, -2.0, 3.0], basis)
    assert model.rank_deficient == flagged


def test_rank_deficient_regression_is_the_pseudo_inverse_solution():
    # the collinear design above, with targets off its column space: the
    # minimum-norm least-squares solution, not a ridge
    t = np.linspace(0, 1, 40)
    data = np.column_stack([t, 2 * t])
    basis = monomial_basis(2, 1)
    y = np.sin(3 * t)
    model = fit_regression(data, y, basis)
    B = design_matrix(basis, data)
    assert model.rank_deficient
    assert np.allclose(model.coefficients, np.linalg.pinv(B) @ y, rtol=0, atol=1e-12)
    assert model.residual == pytest.approx(
        np.sqrt(np.mean((B @ np.linalg.pinv(B) @ y - y) ** 2)), rel=1e-12)


def test_model_gradient():
    model = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 4.0})
    g = model.gradient(np.array([[1.0, 2.0]]))
    assert np.allclose(g, [[2.0, 16.0]])


# --- level sets and elbow ---------------------------------------------------

def test_level_set_plane_x_equals_zero():
    rng = np.random.default_rng(1)
    data = np.column_stack([np.zeros(100), rng.uniform(-1, 1, 100)])
    model, loss = fit_level_set(data, monomial_basis(2, 1), 1, MSE())
    w = np.abs(model.W[:, 0])
    assert w[1] == pytest.approx(1.0, abs=1e-6)
    assert loss <= 1e-10


def test_level_set_circle_affine_component():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 1000, 0))
    model, _ = fit_level_set(data, monomial_basis(3, 1), 1, MSE())
    w = model.W[:, 0]
    if w[3] < 0:
        w = -w
    assert w[0] == pytest.approx(-np.sqrt(0.5), abs=1e-4)
    assert w[3] == pytest.approx(np.sqrt(0.5), abs=1e-4)
    assert np.abs(w[1:3]).max() < 1e-4


def test_level_set_trig_dictionary():
    data, _ = sf.generate(sf.GeneratorSpec("sincos", 2048, 0))
    basis = trig_extend(monomial_basis(3, 1))
    model, _ = fit_level_set(data, basis, 1, MSE(ep=20000))
    ref = np.zeros(10)
    ref[3], ref[5], ref[7] = -1, -1, 1
    ref /= np.sqrt(3)
    w = model.W[:, 0]
    if w @ ref < 0:
        w = -w
    assert np.abs(w - ref).max() <= 1e-2


def test_elbow_circle_selects_one():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 500, 0))
    trace = select_components_elbow(data, monomial_basis(3, 1), 2, MSE())
    assert trace.selected == 1
    assert not trace.no_elbow
    assert trace.losses[0][1] <= 1e-8
    assert trace.losses[1][1] >= 1e-3
    # the trace keeps the fit at the selected count, so no caller refits it
    refit, _ = fit_level_set(data, monomial_basis(3, 1), 1, MSE())
    assert np.array_equal(trace.model.W, refit.W)


def test_elbow_scale_invariance():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 500, 0))
    a = select_components_elbow(data, monomial_basis(3, 1), 2, MSE())
    b = select_components_elbow(2.0 * data, monomial_basis(3, 1), 2, MSE())
    assert a.selected == b.selected == 1


def test_elbow_no_jump_flag():
    rng = np.random.default_rng(2)
    data = rng.uniform(-1, 1, (200, 2))  # generic data: no level set at all
    trace = select_components_elbow(data, monomial_basis(2, 1), 2, MSE(ep=500))
    assert trace.no_elbow
    assert trace.selected == 2


@pytest.mark.parametrize("k_max", [0, -1])
def test_elbow_needs_at_least_one_component(k_max):
    # 0 used to give a trace selecting 0 components
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 50, 0))
    with pytest.raises(ValueError, match="k_max"):
        select_components_elbow(data, monomial_basis(3, 1), k_max, MSE())


@pytest.mark.parametrize("second,selected", [(9e-6, 2), (1.1e-5, 1)])
def test_elbow_is_the_first_jump_of_more_than_tenfold(monkeypatch, second, selected):
    # losses 1e-6 then second: a jump of 9 is no elbow, one of 11 is
    assert sf.model_fit.ELBOW_RATIO == 10.0
    losses = iter([1e-6, second])
    monkeypatch.setattr(sf.model_fit, "fit_level_set",
                        lambda data, basis, k, config: (None, next(losses)))
    trace = select_components_elbow(np.zeros((3, 2)), monomial_basis(2, 1), 2, MSE())
    assert trace.selected == selected and trace.no_elbow == (selected == 2)


@pytest.mark.parametrize("losses,selected", [
    ([1.0, 10.0], 2), ([0.0, 5e-12], 2), ([0.0, 2e-11], 1)],
    ids=["tenfold", "floor-fivefold", "floor-twentyfold"])
def test_elbow_jump_is_strict_and_measured_from_the_loss_floor(
        monkeypatch, losses, selected):
    # a jump of exactly ELBOW_RATIO is no elbow; a zero loss counts as
    # ELBOW_LOSS_FLOOR, so the next loss is measured against 1e-12
    assert sf.model_fit.ELBOW_LOSS_FLOOR == 1e-12
    it = iter(losses)
    monkeypatch.setattr(sf.model_fit, "fit_level_set",
                        lambda data, basis, k, config: (None, next(it)))
    trace = select_components_elbow(np.zeros((3, 2)), monomial_basis(2, 1), 2, MSE())
    assert trace.selected == selected and trace.no_elbow == (selected == 2)


# --- affine projection ------------------------------------------------------

def plane_z_model():
    # z - 1 = 0 over affine atoms in R^3
    basis = monomial_basis(3, 1)
    w = np.zeros((4, 1))
    w[0, 0], w[3, 0] = -np.sqrt(0.5), np.sqrt(0.5)
    return LevelSetModel(basis, w)


def test_project_plane_z_one():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 100, 0))
    reduced, frame = project_onto_affine(data, plane_z_model())
    assert reduced.shape == (100, 2)
    assert np.allclose(reduced, data[:, :2], atol=1e-12)
    assert np.allclose(frame.origin, [0, 0, 1], atol=1e-12)


def test_frame_restore_roundtrip():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 50, 1))
    reduced, frame = project_onto_affine(data, plane_z_model())
    ambient = frame.origin + reduced @ frame.axes.T
    assert np.abs(ambient - data).max() <= 1e-10


def test_project_zero_components_identity():
    data = np.random.default_rng(3).uniform(-1, 1, (20, 3))
    model = LevelSetModel(monomial_basis(3, 1), np.zeros((4, 0)))
    reduced, frame = project_onto_affine(data, model)
    assert np.array_equal(reduced, data)
    assert np.allclose(frame.axes, np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_level_set_model_refuses_a_non_finite_w(bad):
    # a NaN deviation from orthonormality passed the tolerance test
    with pytest.raises(ValueError, match="finite"):
        LevelSetModel(monomial_basis(2, 1), [[bad], [1.0], [0.0]])


def test_project_inconsistent_system():
    basis = monomial_basis(2, 1)
    W = np.zeros((3, 2))
    W[1, 0] = 1.0  # x = 0
    W[0, 1] = 1.0  # 1 = 0, unsatisfiable
    with pytest.raises(EmptyLevelSetError):
        project_onto_affine(np.zeros((5, 2)), LevelSetModel(basis, W))


def test_project_rejects_nonaffine_model():
    basis = monomial_basis(2, 2)
    w = np.zeros((6, 1))
    w[3, 0] = 1.0  # x^2
    with pytest.raises(ValueError):
        project_onto_affine(np.zeros((5, 2)), LevelSetModel(basis, w))


# --- artificial column extension -------------------------------------------

def test_extend_degenerate_columns_linear_factor():
    basis = monomial_basis(3, 1)
    f2 = poly_model(basis, {(0, 0, 1): 1.0, (0, 0, 0): -1.0})  # z - 1
    extended = extend_degenerate_columns(basis, [f2], 2)
    added = [a for a in extended.atoms if a.artificial]
    assert {a.exponents for a in added} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_extend_degree_equal_adds_nothing():
    basis = monomial_basis(3, 1)
    f2 = poly_model(basis, {(0, 0, 1): 1.0, (0, 0, 0): -1.0})
    extended = extend_degenerate_columns(basis, [f2], f2.degree())
    assert extended.atoms == basis.atoms


def test_extend_two_components_dedupes():
    basis = monomial_basis(2, 1)
    f1 = poly_model(basis, {(1, 0): 1.0})
    extended = extend_degenerate_columns(basis, [f1, f1], 2)
    artificial = [a for a in extended.atoms if a.artificial]
    assert len(artificial) == len(set(artificial)) == 2  # x*f1, y*f1


def test_strip_artificial_model():
    basis = monomial_basis(2, 1)
    f1 = poly_model(basis, {(1, 0): 1.0})
    extended = extend_degenerate_columns(basis, [f1], 2)
    w = np.zeros((len(extended), 1))
    w[2, 0] = 1.0
    stripped = LevelSetModel(extended, w).strip_artificial()
    assert all(not a.artificial for a in stripped.basis.atoms)
    assert np.linalg.norm(stripped.W[:, 0]) == pytest.approx(1.0)


def _fit_extended_circle3d(k):
    """circle3d (z = 1) with the known function z: a degree-2 level set over
    the basis extended by x z, y z and z^2, and the rows kept by stripping."""
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 300, 0))
    known = poly_model(monomial_basis(3, 1), {(0, 0, 1): 1.0})
    basis = extend_degenerate_columns(monomial_basis(3, 2), [known], 2)
    model, _ = fit_level_set(data, basis, k, MSE())
    keep = [i for i, a in enumerate(basis.atoms) if not a.artificial]
    return model, model.W[keep]


@pytest.mark.parametrize("k", [2, 3])
def test_strip_artificial_orthonormalizes_and_keeps_the_level_set(k):
    model, kept = _fit_extended_circle3d(k)
    renormalized = kept / np.linalg.norm(kept, axis=0)
    # renormalizing each column alone left them at an angle
    assert np.abs(renormalized.T @ renormalized - np.eye(k)).max() > 1e-3
    stripped = model.strip_artificial()
    assert not any(a.artificial for a in stripped.basis.atoms)
    assert np.abs(stripped.W.T @ stripped.W - np.eye(k)).max() <= 1e-12
    # the same column span, so the same level set W^T b(x) = 0
    assert np.allclose(stripped.W @ (stripped.W.T @ kept), kept, rtol=0, atol=1e-12)


def test_strip_artificial_refuses_a_column_wholly_on_artificial_atoms():
    basis = monomial_basis(2, 1)
    extended = extend_degenerate_columns(basis, [poly_model(basis, {(1, 0): 1.0})], 2)
    w = np.zeros((len(extended), 2))
    w[2, 0] = 1.0
    w[len(basis), 1] = 1.0  # the second column is x * f alone
    with pytest.raises(RetractionSingularError):
        LevelSetModel(extended, w).strip_artificial()


# --- kernel density estimation ---------------------------------------------

def test_kde_single_center_normalization():
    model = KdeModel(np.array([[0.0, 0.0]]), np.array([1.0]), 0.5)
    val = kde_eval(model, np.array([[0.0, 0.0]]))[0]
    assert val == pytest.approx((2 * np.pi * 0.25) ** -1, rel=1e-12)


def test_kde_model_calls_are_kde_eval_and_kde_gradient():
    rng = np.random.default_rng(0)
    model = kde_fit(rng.standard_normal((300, 2)), rng.uniform(0.5, 1.0, 300))
    points = 2.0 * rng.standard_normal((50, 2))
    assert model(points).tobytes() == kde_eval(model, points).tobytes()
    assert model.gradient(points).tobytes() == kde_gradient(model, points).tobytes()


@pytest.mark.parametrize("points", [np.zeros((5, 1)), np.zeros((5, 3)), np.zeros(1)])
def test_kde_refuses_points_of_another_dimension(points):
    # (n, 1) points used to broadcast against a 2-D model's centres
    model = KdeModel(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2), 0.5)
    for evaluate in (kde_eval, kde_gradient):
        with pytest.raises(ValueError, match="2-dimensional density"):
            evaluate(model, points)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kde_refuses_non_finite_centres(bad):
    # a fixed bandwidth used to give a model with a nan centre
    data = np.random.default_rng(0).standard_normal((20, 2))
    data[3, 1] = bad
    with pytest.raises(ValueError, match="centers must be finite"):
        kde_fit(data, bandwidth=0.5)


def test_kde_gradient_zero_at_center_and_midpoint():
    lone = KdeModel(np.array([[1.0, 2.0]]), np.array([1.0]), 0.3)
    assert np.abs(kde_gradient(lone, np.array([[1.0, 2.0]]))).max() <= 1e-14
    pair = KdeModel(np.array([[0.0, 0.0], [2.0, 0.0]]),
                    np.array([1.0, 1.0]), 0.7)
    assert np.abs(kde_gradient(pair, np.array([[1.0, 0.0]]))).max() <= 1e-12


def direct_kde(model, points):
    """Density and gradient from explicit pairwise (x - c)^2 sums."""
    diff = points[:, None, :] - model.centers[None, :, :]
    K = np.exp(-(diff**2).sum(axis=2) / (2 * model.bandwidth**2))
    K *= model.weights
    norm = model.weights.sum() * (
        2 * np.pi * model.bandwidth**2) ** (model.dimension / 2)
    grad = -(K[:, :, None] * diff).sum(axis=1) / model.bandwidth**2
    return K.sum(axis=1) / norm, grad / norm


@pytest.mark.parametrize(
    "queries, centers, dim",
    [
        (1, 300, 2),  # a single query
        (500, 1, 2),  # a single centre
        (1000, 1000, 2),  # blocks of 65 rows: 1000 = 15 * 65 + 25
        (1000, 1000, 3),  # three dimensions
        (3, KERNEL_BLOCK_ELEMENTS + 7, 2),  # more centres than one block holds
    ],
)
def test_kde_matches_direct_pairwise_sums(queries, centers, dim):
    rng = np.random.default_rng(queries + centers + dim)
    model = KdeModel(rng.standard_normal((centers, dim)) * 1.5 + 0.5,
                     rng.uniform(0.1, 1.0, centers), 0.4)
    points = rng.standard_normal((queries, dim)) * 1.2
    vals, grads = direct_kde(model, points)
    np.testing.assert_allclose(kde_eval(model, points), vals, rtol=1e-12)
    np.testing.assert_allclose(kde_gradient(model, points), grads, rtol=1e-12,
                               atol=1e-12 * np.abs(grads).max())


@pytest.mark.parametrize("bandwidth", [1e-6, 1e-8, 1e-10])
def test_kde_at_a_narrow_bandwidth_matches_direct_pairwise_sums(bandwidth):
    # |p|^2 + |c|^2 - 2 p.c rounds by about eps |c|^2, which over 2 h^2 read
    # the density at a model's own centres as low as 0.9996, 0.082 and 0 of
    # the truth at these bandwidths; near a centre the kernel is about 0.6.
    # The gradient sums w k (c - p) / h^2 over centred coordinates as
    # K (w c) - (K w) p rounded by about eps |c| / h^2, which put them off
    # by 3.3e-10, 7.1e-9 and 1.7e-6 of the largest entry a bandwidth away
    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 2))
    model = KdeModel(data, rng.uniform(0.1, 1.0, 12), bandwidth)
    for points in (data, data + bandwidth * rng.standard_normal((12, 2))):
        vals, grads = direct_kde(model, points)
        np.testing.assert_allclose(kde_eval(model, points), vals, rtol=1e-12)
        np.testing.assert_allclose(kde_gradient(model, points), grads, rtol=1e-12)


@pytest.mark.parametrize(
    "centers, block_elements",
    [
        (1, KERNEL_BLOCK_ELEMENTS),  # a lone Gaussian, the hardest to interpolate
        (1000, KERNEL_BLOCK_ELEMENTS),  # blocks of 216 centres: 1000 = 4 * 216 + 136
        (300, 4096),  # blocks of 13 centres: 300 = 23 * 13 + 1
    ],
)
def test_kde_table_matches_kde_eval_at_nodes_and_midpoints(
        monkeypatch, centers, block_elements):
    # at a node the interpolant is the tabulated density, which differs from
    # kde_eval only by rounding; at the middle of a cell Catmull-Rom at
    # TABLE_SPACING = h / 20 is within 8.8e-7 of the peak for a lone Gaussian
    # (3.4e-7 on the benchmark's disc-rot density)
    monkeypatch.setattr(model_fit, "KERNEL_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(centers)
    model = KdeModel(rng.standard_normal((centers, 2)) * [1.5, 0.7] + 0.5,
                     rng.uniform(0.1, 1.0, centers), 0.4)
    radius = 3.0
    density = _kde_table(model, radius)
    step = TABLE_SPACING * model.bandwidth
    nodes = -radius + step * np.arange(math.ceil(2 * radius / step) + 1)
    peak = kde_eval(model, model.centers).max()
    for axis, atol in ((nodes, 1e-13), (nodes[:-1] + step / 2, 2e-6)):
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        np.testing.assert_allclose(density(points), kde_eval(model, points),
                                   rtol=0, atol=atol * peak)


def test_kde_table_spreads_its_nodes_past_the_cap(monkeypatch):
    # at h / 20 a radius of 30 bandwidths takes 1200**2 cells (11.6 MB); under
    # a cap of 100**2 the table is 103**2 doubles (85 KB, and one product of
    # that size while it is summed), still exact at its nodes, now 0.6
    # bandwidths apart
    monkeypatch.setattr(model_fit, "TABLE_MAX_CELLS", 100**2)
    model = KdeModel(np.zeros((1, 2)), np.ones(1), 0.4)
    radius = 30 * model.bandwidth
    tracemalloc.start()
    try:
        density = _kde_table(model, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
    axis = np.linspace(-radius, radius, 101)
    points = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    np.testing.assert_allclose(density(points), kde_eval(model, points),
                               rtol=0, atol=1e-13 * kde_eval(model, np.zeros((1, 2)))[0])


def _disc_rot_table(n_points):
    """The benchmark's disc-rot density (seed 401, weights target^8), its
    table and the table's radius."""
    data, targets = sf.generate(sf.GeneratorSpec("disc-rot", n_points, 401))
    weights = targets**8
    model = kde_fit(data, weights / weights.sum())
    radius = float(np.max(np.hypot(data[:, 0], data[:, 1])))
    return _kde_table(model, radius), radius


@pytest.mark.parametrize("n_points", [1000, 1500])
def test_node_major_table_read_matches_einsum_read(n_points):
    # the same products of weights and table values, summed by a node-major
    # einsum rather than a point-major one: at every seventh node, at random
    # points of the disc, and on the square's edges and one cell past them,
    # where the clip to the outer cells engages
    density, radius = _disc_rot_table(n_points)
    reference = einsum_table_reader(density)
    table = inspect.getclosurevars(density).nonlocals
    nodes, step = table["nodes"][1:-1:7], table["step"]
    rng = np.random.default_rng(n_points)
    r, phi = radius * np.sqrt(rng.uniform(size=4096)), rng.uniform(0, 2 * np.pi, 4096)
    s = rng.uniform(-radius, radius, 256)
    at_nodes = np.stack(np.meshgrid(nodes, nodes), -1).reshape(-1, 2)
    in_disc = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    on_edges = np.concatenate([
        np.column_stack([s, np.full_like(s, end)])[:, ::order]
        for end in (-radius - step, -radius, radius, radius + step) for order in (1, -1)])
    peak = reference(at_nodes).max()
    for points in (at_nodes, in_disc, on_edges):
        np.testing.assert_allclose(density(points), reference(points),
                                   rtol=0, atol=1e-15 * peak)


def test_node_major_table_read_holds_no_more_than_einsum_read():
    # one read of 4096 points, a grid call's most; the einsum read held a
    # (4096, 16) index and its values, the (4096, 2, 4) weights and their
    # stacked temporaries at once
    density, radius = _disc_rot_table(1000)
    reference = einsum_table_reader(density)
    points = np.random.default_rng(3).uniform(-radius, radius, (4096, 2)) / math.sqrt(2)
    peaks = []
    for read in (density, reference):
        tracemalloc.start()
        try:
            read(points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def dyadic(x):
    """Round to a multiple of 2^-20, so that a shift by |t| <= 1e5 is exact."""
    return np.round(np.asarray(x) * 2.0**20) / 2.0**20


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
def test_kde_invariant_under_joint_translation(t):
    # every shifted coordinate is exact, so the model sees the same geometry
    # and any change comes from the kernel sums' own arithmetic
    t = dyadic(t)
    rng = np.random.default_rng(11)
    centers = dyadic(rng.standard_normal((300, 2)))
    weights = rng.uniform(0.1, 1.0, 300)
    queries = dyadic(rng.standard_normal((40, 2)))
    base = KdeModel(centers, weights, 0.38)
    moved = KdeModel(centers + t, weights, 0.38)
    np.testing.assert_allclose(kde_eval(moved, queries + t),
                               kde_eval(base, queries), rtol=1e-12)
    grad = kde_gradient(base, queries)
    np.testing.assert_allclose(kde_gradient(moved, queries + t), grad,
                               rtol=1e-12, atol=1e-12 * np.abs(grad).max())


def test_kde_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    model = kde_fit(rng.standard_normal((40, 2)), rng.uniform(0.1, 1, 40))
    pts = rng.standard_normal((5, 2))
    g = kde_gradient(model, pts)
    step = 1e-5
    for i, p in enumerate(pts):
        for j in range(2):
            up, dn = p.copy(), p.copy()
            up[j] += step
            dn[j] -= step
            fd = (kde_eval(model, up[None])[0] - kde_eval(model, dn[None])[0]
                  ) / (2 * step)
            assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_kde_ring_density_nearly_rotation_invariant():
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 4000, 0))
    model = kde_fit(data)
    angles = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    vals = kde_eval(model, ring)
    assert vals.std() < 0.1 * vals.mean()


def test_kde_sector_weighted_maxima():
    data, targets = sf.generate(sf.GeneratorSpec("disc-rot", 4000, 0))
    w = targets**8
    model = kde_fit(data, w / w.sum())
    # high weights concentrate just past each sector boundary; the density
    # on a ring should peak near angle 0 mod 2 pi / 7 (measured from +y)
    angles = np.linspace(0, 2 * np.pi, 7 * 64, endpoint=False)
    ring = np.column_stack([np.sin(angles), np.cos(angles)])
    vals = kde_eval(model, ring)
    peak = angles[np.argmax(vals)]
    dist = np.abs(np.mod(peak + np.pi / 7, 2 * np.pi / 7) - np.pi / 7)
    assert dist < 0.2


def test_scott_bandwidth_formula():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((100, 2)) * [2.0, 1.0]
    expect = 100 ** (-1 / 6) * data.std(axis=0).mean()
    assert scott_bandwidth(data) == pytest.approx(expect, rel=1e-12)


def test_kde_warns_above_two_dimensions():
    with pytest.warns(UserWarning):
        kde_fit(np.zeros((10, 3)) + np.random.default_rng(6).random((10, 3)))


def test_kde_rejects_bad_weights():
    data = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kde_fit(data, np.array([1.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        kde_fit(data, np.zeros(3))
    for bad in (np.nan, np.inf):  # NaN passes "< 0" and "sum <= 0"
        with pytest.raises(ValueError, match="finite"):
            KdeModel(data, np.array([1.0, bad, 0.0]), 0.5)


@pytest.mark.parametrize("bandwidth", [1e-300, 1e-160, 1e155, 1e300, 0.0, -1.0,
                                       np.nan, np.inf])
def test_kde_refuses_a_bandwidth_whose_square_is_not_a_finite_normal_number(
        bandwidth):
    # 1e-160 and 1e-300 gave a model whose density was nan everywhere, and
    # 1e300 raised OverflowError in the kernel sums
    with pytest.raises(ValueError, match="bandwidth"):
        kde_fit(np.zeros((3, 2)), bandwidth=bandwidth)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("centre_scale, query_scale", [(1e155, None), (1e100, 1e300)])
def test_kernel_sums_refuse_an_exponent_that_overflows(centre_scale, query_scale):
    # |c|^2 / (2 h^2) past the float range, or p . c past it, made inf - inf:
    # the density and its gradient were NaN everywhere, with no error
    data = np.random.default_rng(0).standard_normal((12, 2))
    model = KdeModel(centre_scale * data, np.ones(12), 1.0)
    points = model.centers if query_scale is None else query_scale * data
    for evaluate in (kde_eval, kde_gradient):
        with pytest.raises(FloatingPointError, match="overflowed"):
            evaluate(model, points)


def test_kde_takes_a_bandwidth_whose_square_is_normal():
    for bandwidth in (1e-150, 1e150):
        model = kde_fit(np.zeros((3, 2)), bandwidth=bandwidth)
        assert np.isfinite(kde_eval(model, np.zeros((1, 2)))).all()
