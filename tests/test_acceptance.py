"""End-to-end acceptance gate.

One test per acceptance criterion; each prints a single labeled PASS/FAIL
line (visible with ``pytest -s`` and in captured output on failure) and
asserts the stated tolerance.
"""

import time

import numpy as np
import pytest

import symfield as sf
from conftest import poly_field, poly_model
from symfield.discrete import fit_density_rotation
from symfield.features import FeatureAtom, FeatureBasis, monomial_basis, trig_extend
from symfield.model_fit import (
    fit_level_set,
    fit_regression,
    kde_fit,
    project_onto_affine,
    select_components_elbow,
)
from symfield.similarity import domain_from_data, similarity
from symfield.vfield import (
    BasisVectorField,
    basis_restricted_search,
    estimate_invariants,
    estimate_vector_fields,
    flow_integrate,
)

MSE = lambda ep=5000, lr=0.1, seed=0: sf.OptimizerConfig(
    "riemannian-adagrad", "mean-squared", lr, ep, seed)
L1 = lambda ep=5000, lr=0.1, seed=0: sf.OptimizerConfig(
    "riemannian-adagrad", "mean-absolute", lr, ep, seed)


def _report(num, label, ok, detail):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _estimated_field(name, n_points, seed, fn_degree, vf_degree, config):
    data, targets = sf.generate(sf.GeneratorSpec(name, n_points, seed))
    f = fit_regression(data, targets, monomial_basis(2, fn_degree))
    model, _ = estimate_vector_fields(
        f, data, monomial_basis(2, vf_degree), 1, config
    )
    return model.field(0), domain_from_data(data)


def test_criterion_01_affine_symmetry():
    truth = poly_field(2, 1, {(0, 0): 4.0, (0, 1): -4.0},
                       {(0, 0): -1.0, (1, 0): 1.0})
    counts, slowest = {}, 0.0
    for n_points in (200, 2000):
        hits = 0
        for seed in range(10):
            start = time.monotonic()
            est, domain = _estimated_field(
                "gaussian-quadratic", n_points, seed, 2, 1, MSE(seed=seed)
            )
            score = similarity(truth, est, domain).aggregate
            slowest = max(slowest, time.monotonic() - start)
            hits += score >= 0.99
        counts[n_points] = hits
    ok = all(h >= 9 for h in counts.values()) and slowest <= 30
    _report(1, "affine-symmetry", ok,
            f"hits>=0.99 {counts}, slowest trial {slowest:.1f}s")


def test_criterion_02_nonaffine_symmetry():
    truth = poly_field(2, 2, {(0, 1): 2.0}, {(2, 0): 3.0})
    scores, slowest = [], 0.0
    for seed in range(10):
        start = time.monotonic()
        est, domain = _estimated_field("cubic", 2000, seed, 3, 2, MSE(seed=seed))
        scores.append(similarity(truth, est, domain).aggregate)
        slowest = max(slowest, time.monotonic() - start)
    median = float(np.median(scores))
    ok = median >= 0.99 and slowest <= 60
    _report(2, "nonaffine-symmetry", ok,
            f"median sim {median:.4f}, slowest trial {slowest:.1f}s")


def test_criterion_03_trig_level_set():
    data, _ = sf.generate(sf.GeneratorSpec("sincos", 2048, 0))
    model, _ = fit_level_set(
        data, trig_extend(monomial_basis(3, 1)), 1, MSE(ep=20000)
    )
    ref = np.zeros(10)
    ref[3], ref[5], ref[7] = -1.0, -1.0, 1.0
    ref /= np.sqrt(3)
    w = model.W[:, 0]
    if w @ ref < 0:
        w = -w
    dev = float(np.abs(w - ref).max())
    _report(3, "trig-level-set", dev <= 1e-2, f"max coefficient dev {dev:.2e}")


def test_criterion_04_nonpolynomial_truth():
    data, _ = sf.generate(sf.GeneratorSpec("sincos", 2048, 0))
    xy, z = data[:, :2], data[:, 2]
    f = fit_regression(xy, z, trig_extend(monomial_basis(2, 1)))
    best = None
    for seed in range(10):
        model, trace = estimate_vector_fields(
            f, xy, monomial_basis(2, 2), 1, L1(seed=seed)
        )
        if best is None or trace.final_loss < best[1]:
            best = (model, trace.final_loss)
    truth = BasisVectorField([
        sf.ScalarFunctionModel(
            FeatureBasis(2, (FeatureAtom("sin", axis=1),)), [1.0]),
        sf.ScalarFunctionModel(
            FeatureBasis(2, (FeatureAtom("cos", axis=0),)), [-1.0]),
    ])
    score = similarity(
        truth, best[0].field(0), domain_from_data(xy), mc_seed=0
    ).aggregate
    _report(4, "nonpolynomial-truth", 0.5 <= score <= 0.75,
            f"sim {score:.4f} target band [0.5, 0.75]")


def test_criterion_05_circle_pipeline():
    data, _ = sf.generate(sf.GeneratorSpec("circle3d", 1000, 0))

    affine, _ = fit_level_set(data, monomial_basis(3, 1), 1, MSE())
    w = affine.W[:, 0]
    if w[3] < 0:
        w = -w
    ref = np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    affine_dev = float(np.abs(w - ref).max())

    trace = select_components_elbow(data, monomial_basis(3, 1), 2, MSE())
    jump_ok = trace.losses[0][1] <= 1e-8 and trace.losses[1][1] >= 1e-3

    reduced, _ = project_onto_affine(data, affine)
    fields, _ = estimate_vector_fields(
        fit_level_set(reduced, monomial_basis(2, 2), 1, MSE(ep=20000))[0],
        reduced, monomial_basis(2, 1), 1, MSE(ep=20000),
    )
    rot = poly_field(2, 1, {(0, 1): -1.0}, {(1, 0): 1.0})
    field_sim = similarity(
        rot, fields.field(0), domain_from_data(reduced)
    ).aggregate

    invariants, _ = estimate_invariants(
        fields, reduced, monomial_basis(2, 2, include_constant=False), 1,
        MSE(ep=20000),
    )
    v = invariants[0].coefficients
    target = np.zeros(len(v))
    for i, atom in enumerate(invariants[0].basis.atoms):
        if atom.exponents in ((2, 0), (0, 2)):
            target[i] = 1.0
    cosine = float(
        abs(v @ target) / (np.linalg.norm(v) * np.linalg.norm(target))
    )

    ok = affine_dev <= 1e-2 and jump_ok and field_sim >= 0.99 and cosine >= 0.98
    _report(5, "circle-pipeline", ok,
            f"affine dev {affine_dev:.1e}, elbow jump {jump_ok}, "
            f"field sim {field_sim:.4f}, invariant cosine {cosine:.4f}")


def test_criterion_06_discrete_rotation():
    start = time.monotonic()
    results = {}
    for n_points, tol in ((20000, 5e-4), (1000, 0.08)):
        data, targets = sf.generate(sf.GeneratorSpec("disc-rot", n_points, 3))
        weights = targets**8
        kde = kde_fit(data, weights / weights.sum())
        fit = fit_density_rotation(kde, data, np.pi / 6)
        theta = fit.parameters[0]
        results[n_points] = (abs(theta - 2 * np.pi / 7), tol)
    elapsed = time.monotonic() - start
    ok = all(err <= tol for err, tol in results.values()) and elapsed <= 120
    detail = ", ".join(
        f"N={n}: |dtheta|={err:.2e} (tol {tol})"
        for n, (err, tol) in results.items()
    )
    _report(6, "discrete-rotation", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_07_killing_combination():
    basis_fields = [
        poly_field(3, 3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1}, {},
                   {(3, 0, 0): 2, (1, 2, 0): 2, (1, 0, 1): -2, (1, 0, 0): 5}),
        poly_field(3, 3, {}, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1},
                   {(2, 1, 0): 2, (0, 3, 0): 2, (0, 1, 1): -2, (0, 1, 0): 1}),
        poly_field(3, 1, {}, {}, {(0, 0, 0): 1}),
        poly_field(3, 2, {(0, 1, 0): -1}, {(1, 0, 0): 5}, {(1, 1, 0): 8}),
        poly_field(3, 1, {}, {(0, 0, 0): 1}, {(0, 1, 0): 2}),
        poly_field(3, 1, {(0, 0, 0): 1}, {}, {(1, 0, 0): 2}),
    ]
    data, targets = sf.generate(sf.GeneratorSpec("killing4d", 2000, 0))
    f = fit_regression(data, targets, monomial_basis(3, 2))
    a, _ = basis_restricted_search(basis_fields, f, data, MSE())
    others = np.abs(np.delete(a, 3)).max()
    ok = abs(a[3]) >= 0.999 and others <= 0.02
    _report(7, "killing-combination", ok,
            f"|a4| {abs(a[3]):.4f}, max other {others:.4f}")


def test_criterion_08_ten_dimensional_elbow():
    data, _ = sf.generate(sf.GeneratorSpec("hypercube10", 2000, 0))
    affine_trace = select_components_elbow(
        data, monomial_basis(10, 1), 8, MSE()
    )
    affine, _ = fit_level_set(
        data, monomial_basis(10, 1), affine_trace.selected, MSE()
    )
    reduced, _ = project_onto_affine(data, affine)
    quad_trace = select_components_elbow(
        reduced, monomial_basis(reduced.shape[1], 2), 3,
        MSE(ep=20000, lr=0.5),
    )
    ok = affine_trace.selected == 5 and quad_trace.selected == 1
    _report(8, "ten-dimensional-elbow", ok,
            f"affine stage {affine_trace.selected} (want 5), "
            f"quadratic stage {quad_trace.selected} (want 1)")


def test_criterion_09_property_suites():
    failures = []

    # Stiefel orthonormality after retraction
    rng = np.random.default_rng(0)
    from symfield.manifold import retract, tangent_project
    W = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    for _ in range(20):
        W = retract(W, 0.1 * tangent_project(W, rng.standard_normal((8, 3))))
        if np.abs(W.T @ W - np.eye(3)).max() > 1e-8:
            failures.append("retraction orthonormality")
            break

    # analytic Jacobians vs finite differences
    basis = trig_extend(monomial_basis(2, 2))
    from symfield.features import design_matrix, jacobian_stack
    pts = rng.uniform(-1, 1, (5, 2))
    step = 1e-6
    J = jacobian_stack(basis, pts)
    for axis in range(2):
        up, dn = pts.copy(), pts.copy()
        up[:, axis] += step
        dn[:, axis] -= step
        fd = (design_matrix(basis, up) - design_matrix(basis, dn)) / (2 * step)
        if np.abs(J[:, :, axis] - fd).max() > 1e-6:
            failures.append("feature Jacobians")
            break

    # flow group law
    rot = poly_field(2, 1, {(0, 1): -1.0}, {(1, 0): 1.0})
    x0 = np.array([1.0, 0.3])
    one = flow_integrate(rot, x0, 0.7, 700)[-1]
    two = flow_integrate(rot, one, 0.5, 500)[-1]
    direct = flow_integrate(rot, x0, 1.2, 1200)[-1]
    if np.abs(two - direct).max() > 1e-6:
        failures.append("flow group law")

    # sim(X, cX) = 1
    X = poly_field(2, 2, {(1, 1): 1.0, (0, 0): -0.5}, {(2, 0): 2.0})
    Xc = poly_field(2, 2, {(1, 1): -3.0, (0, 0): 1.5}, {(2, 0): -6.0})
    box = domain_from_data(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    if abs(similarity(X, Xc, box).aggregate - 1.0) > 1e-12:
        failures.append("sim(X, cX) = 1")

    # X vs (1+x^2)X invariant-nullspace agreement
    data = rng.uniform(-1, 1, (400, 2))
    cand = monomial_basis(2, 2, include_constant=False)
    subspaces = []
    for scale in ({(0, 0): 1.0}, {(0, 0): 1.0, (2, 0): 1.0}):
        comps = []
        for base in ({(0, 1): -1.0}, {(1, 0): 1.0}):
            prod = {}
            for (e1, c1) in scale.items():
                for (e2, c2) in base.items():
                    key = (e1[0] + e2[0], e1[1] + e2[1])
                    prod[key] = prod.get(key, 0.0) + c1 * c2
            comps.append(prod)
        field = poly_field(2, 3, *comps)
        inv, _ = estimate_invariants(field, data, cand, 1, MSE(ep=20000))
        subspaces.append(inv[0].coefficients)
    u, v = subspaces
    angle = np.arccos(
        min(1.0, abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    )
    if angle > 1e-2:
        failures.append("scaling-freedom invariants")

    # analytic vs Monte-Carlo similarity
    for seed in range(3):
        r = np.random.default_rng(seed)
        A = poly_field(2, 2, *(
            {a.exponents: c for a, c in
             zip(monomial_basis(2, 2).atoms, r.standard_normal(6))}
            for _ in range(2)))
        B = poly_field(2, 2, *(
            {a.exponents: c for a, c in
             zip(monomial_basis(2, 2).atoms, r.standard_normal(6))}
            for _ in range(2)))
        exact = similarity(A, B, box, method="analytic").aggregate
        mc = similarity(A, B, box, method="monte-carlo",
                        mc_samples=1_000_000, mc_seed=0).aggregate
        if abs(exact - mc) > 1e-2:
            failures.append("analytic vs Monte-Carlo")
            break

    _report(9, "property-suites", not failures,
            "all properties hold" if not failures else ", ".join(failures))


def test_criterion_10_desk_scale_exclusions():
    # External-model comparisons (adversarially trained generator columns),
    # random-forest scores, and real-survey figures need artifacts that are
    # not reproducible offline; the pipelines that would consume them run on
    # synthetic stand-ins instead (the circle pipeline doubles as the
    # ellipse-style geographic fit, and the angle-coordinate regression
    # oracle stands in for the forest scores).
    _report(10, "desk-scale-exclusions", True,
            "excluded comparisons documented; synthetic stand-ins exercised")
