"""The benchmark's four workloads, built from a seed.

Each workload is a list of operations.  An operation's ``run`` calls
symfield and returns its result arrays (or, for the CLI, the bytes of the
files a stage wrote); only ``run`` is timed.  Its ``check`` compares those
results with truths from ``checks`` and raises on a mismatch.

symfield is reached through module attributes (``vfield.flow_integrate``,
not a name imported from it), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import symfield
from symfield import datasets, discrete, features, geometry, manifold, model_fit, vfield

# the package re-exports the function similarity() under the module's name
similarity = importlib.import_module("symfield.similarity")

from checks import (
    abs_cosine,
    atom_partials,
    atom_values,
    check_annihilates,
    check_close,
    check_cosine,
    check_level_preserved,
    check_mse_solution,
    check_orthonormal,
    coefficient_vector,
    field_values,
    invariant_matrix,
    kde_density,
    reflection_matrix,
    require,
    rotation_matrix,
    rotation_tolerance,
    scalar_gradient,
    scalar_values,
    vf_matrix,
)

MSE = "mean-squared"
L1 = "mean-absolute"


def config(loss=MSE, lr=0.1, epochs=5000):
    """Optimizer settings; the optimizer seed is fixed, the data carry --seed."""
    return manifold.OptimizerConfig("riemannian-adagrad", loss, lr, epochs, 0)


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], None]
    # traced runs only: () -> (seconds, kernel pairs) of one kde_eval
    probe: Callable[[], tuple] | None = None


def heldout_rng(seed: int, stream: int) -> np.random.Generator:
    """Held-out points come from a stream apart from the generator's."""
    return np.random.default_rng([seed, stream])


# --- continuous -----------------------------------------------------------


def field_op(name, data, targets, fn_basis, vf_basis, cfg, truth, grad, field,
             held, ann_tol, flow=None):
    """Fit f, estimate one annihilating field, optionally integrate its flow.

    ``truth``/``grad``/``field`` are the closed-form f, its gradient and the
    analytic symmetry; ``flow`` is (x0, t, steps).
    """

    def run():
        f = model_fit.fit_regression(data, targets, fn_basis)
        fields, trace = vfield.estimate_vector_fields(f, data, vf_basis, 1, cfg)
        out = {"f": f.coefficients, "columns": fields.columns,
               "loss": np.float64(trace.final_loss)}
        if flow is not None:
            out["trajectory"] = vfield.flow_integrate(fields, *flow)
        return out

    def check(out):
        f = SimpleNamespace(basis=fn_basis, coefficients=out["f"])
        check_close(scalar_values(f, held), truth(held), 1e-6, 1e-9, f"{name} f")
        E = field_values(vf_basis.atoms, out["columns"], held)
        check_annihilates(E, grad(held), ann_tol, f"{name} X(f)")
        check_cosine(field(held), E, 0.99, f"{name} field")
        if cfg.loss == MSE:
            A = vf_matrix(scalar_gradient(f, data), atom_values(vf_basis.atoms, data))
            check_mse_solution(A, out["columns"], float(out["loss"]), name)
        else:
            check_orthonormal(out["columns"], name)
        if flow is not None:
            check_level_preserved(truth(out["trajectory"]), 1e-3, f"{name} flow")

    return Op(name, run, check)


def quadratic_truth(X):
    return (X[:, 0] - 1) ** 2 + 4 * (X[:, 1] - 1) ** 2


def quadratic_grad(X):
    return np.column_stack([2 * (X[:, 0] - 1), 8 * (X[:, 1] - 1)])


def quadratic_field(X):
    return np.column_stack([-4 * (X[:, 1] - 1), X[:, 0] - 1])


def gaussian_quadratic_points(rng, N):
    return np.column_stack([1 + 2 * rng.standard_normal(N), 1 + rng.standard_normal(N)])


def circle3d_op(seed):
    data, _ = datasets.generate(datasets.GeneratorSpec("circle3d", 1000, seed))
    affine_basis = features.monomial_basis(3, 1)
    conic_basis = features.monomial_basis(2, 2)
    vf_basis = features.monomial_basis(2, 1)
    cand = features.monomial_basis(2, 2, include_constant=False)
    box = heldout_rng(seed, 2).uniform(-1.5, 1.5, (1024, 2))
    affine_cfg = config(lr=0.5, epochs=3000)
    cfg = config(epochs=3000)

    def run():
        elbow = model_fit.select_components_elbow(data, affine_basis, 2, affine_cfg)
        affine, affine_loss = model_fit.fit_level_set(data, affine_basis, elbow.selected, affine_cfg)
        reduced, _ = model_fit.project_onto_affine(data, affine)
        conic, conic_loss = model_fit.fit_level_set(reduced, conic_basis, 1, cfg)
        fields, ftrace = vfield.estimate_vector_fields(conic, reduced, vf_basis, 1, cfg)
        inv, itrace = vfield.estimate_invariants(fields, reduced, cand, 1, cfg)
        start = reduced[0]
        return {
            "elbow": np.array([loss for _, loss in elbow.losses]),
            "selected": np.int64(elbow.selected),
            "affine": affine.W, "affine_loss": np.float64(affine_loss),
            "reduced": reduced,
            "conic": conic.W, "conic_loss": np.float64(conic_loss),
            "columns": fields.columns, "field_loss": np.float64(ftrace.final_loss),
            "invariant": inv[0].coefficients, "inv_loss": np.float64(itrace.final_loss),
            "trajectory": vfield.flow_integrate(fields, start, np.pi, 1000),
        }

    def check(out):
        losses = out["elbow"]
        require(int(out["selected"]) == 1, f"circle3d: elbow selected {int(out['selected'])}, want 1")
        require(losses[1] >= 1e-3 and losses[1] >= 1e3 * max(losses[0], 1e-12),
                f"circle3d: elbow losses {losses[0]:.1e}, {losses[1]:.1e} show no jump")
        plane = coefficient_vector(affine_basis.atoms, {(0, 0, 0): -1.0, (0, 0, 1): 1.0})
        check_cosine(out["affine"], plane, 1 - 1e-4, "circle3d plane z = 1")
        check_mse_solution(atom_values(affine_basis.atoms, data), out["affine"],
                           float(out["affine_loss"]), "circle3d affine")
        R = out["reduced"]
        radius = np.abs(np.linalg.norm(R, axis=1) - 1).max()
        require(radius <= 1e-3, f"circle3d: projected radius off by {radius:.1e}")
        conic = coefficient_vector(conic_basis.atoms, {(0, 0): -1.0, (2, 0): 1.0, (0, 2): 1.0})
        check_cosine(out["conic"], conic, 1 - 1e-4, "circle3d x^2 + y^2 = 1")
        check_mse_solution(atom_values(conic_basis.atoms, R), out["conic"],
                           float(out["conic_loss"]), "circle3d conic")
        conic_grad = np.einsum("m,imj->ij", out["conic"][:, 0], atom_partials(conic_basis.atoms, R))
        check_mse_solution(vf_matrix(conic_grad, atom_values(vf_basis.atoms, R)),
                           out["columns"], float(out["field_loss"]), "circle3d field")
        E = field_values(vf_basis.atoms, out["columns"], box)
        check_annihilates(E, 2 * box, 1e-3, "circle3d X(x^2 + y^2)")
        check_cosine(np.column_stack([-box[:, 1], box[:, 0]]), E, 0.99, "circle3d rotation")
        radius2 = coefficient_vector(cand.atoms, {(2, 0): 1.0, (0, 2): 1.0})
        check_cosine(out["invariant"], radius2, 0.999, "circle3d invariant x^2 + y^2")
        M2 = invariant_matrix(field_values(vf_basis.atoms, out["columns"], R),
                              atom_partials(cand.atoms, R))
        check_mse_solution(M2, out["invariant"], float(out["inv_loss"]), "circle3d invariant")
        T = out["trajectory"]
        check_level_preserved(T[:, 0] ** 2 + T[:, 1] ** 2, 1e-3, "circle3d flow")

    return Op("circle3d", run, check)


def hypercube10_op(seed):
    data, _ = datasets.generate(datasets.GeneratorSpec("hypercube10", 2000, seed))
    affine_basis = features.monomial_basis(10, 1)
    cfg = config(lr=0.5, epochs=3000)
    # at 5000 epochs the one-component quadratic fit stalls at 9e-3 on seed 310
    quad_cfg = config(lr=0.5, epochs=10000)
    # the five affine relations of the generator: x5 = 2 x1, x7 = 4, x8 = 0,
    # x9 = x1 - x4, x10 = 1
    e = lambda *idx: tuple(1 if i in idx else 0 for i in range(1, 11))
    relations = [{e(5): 1.0, e(1): -2.0}, {e(7): 1.0, e(): -4.0}, {e(8): 1.0},
                 {e(9): 1.0, e(1): -1.0, e(4): 1.0}, {e(10): 1.0, e(): -1.0}]
    truth_span = np.linalg.qr(np.column_stack(
        [coefficient_vector(affine_basis.atoms, r) for r in relations]))[0]

    def run():
        a = model_fit.select_components_elbow(data, affine_basis, 6, cfg)
        affine, loss = model_fit.fit_level_set(data, affine_basis, a.selected, cfg)
        reduced, _ = model_fit.project_onto_affine(data, affine)
        quad_basis = features.monomial_basis(reduced.shape[1], 2)
        q = model_fit.select_components_elbow(reduced, quad_basis, 2, quad_cfg)
        return {"affine_selected": np.int64(a.selected),
                "affine_elbow": np.array([v for _, v in a.losses]),
                "affine": affine.W, "affine_loss": np.float64(loss),
                "reduced": reduced, "quad_selected": np.int64(q.selected),
                "quad_elbow": np.array([v for _, v in q.losses])}

    def check(out):
        require(int(out["affine_selected"]) == 5,
                f"hypercube10: affine elbow selected {int(out['affine_selected'])}, want 5")
        require(int(out["quad_selected"]) == 1,
                f"hypercube10: quadratic elbow selected {int(out['quad_selected'])}, want 1")
        W = out["affine"]
        check_mse_solution(atom_values(affine_basis.atoms, data), W,
                           float(out["affine_loss"]), "hypercube10 affine")
        cosines = np.linalg.svd(truth_span.T @ W, compute_uv=False)
        require(cosines.min() >= 1 - 1e-4,
                f"hypercube10: affine span misses the relations (cos {cosines.min():.6f})")
        require(out["reduced"].shape[1] == 5, f"hypercube10: reduced to {out['reduced'].shape[1]} dims, want 5")

    return Op("hypercube10", run, check)


def killing4d_op(seed):
    data, targets = datasets.generate(datasets.GeneratorSpec("killing4d", 2000, seed))
    fn_basis = features.monomial_basis(3, 2)
    held = heldout_rng(seed, 3).uniform(-1, 1, (1024, 3))
    probes = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.3, -0.5, 0.2]])

    def poly(degree, coeffs):
        basis = features.monomial_basis(3, degree)
        return symfield.ScalarFunctionModel(basis, coefficient_vector(basis.atoms, coeffs))

    def field(degree, *components):
        return vfield.BasisVectorField([poly(degree, c) for c in components])

    # Killing fields of the metric induced on the embedded surface
    killing = [
        field(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1}, {},
              {(3, 0, 0): 2, (1, 2, 0): 2, (1, 0, 1): -2, (1, 0, 0): 5}),
        field(3, {}, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1},
              {(2, 1, 0): 2, (0, 3, 0): 2, (0, 1, 1): -2, (0, 1, 0): 1}),
        field(1, {}, {}, {(0, 0, 0): 1}),
        field(2, {(0, 1, 0): -1}, {(1, 0, 0): 5}, {(1, 1, 0): 8}),
        field(1, {}, {(0, 0, 0): 1}, {(0, 1, 0): 2}),
        field(1, {(0, 0, 0): 1}, {}, {(1, 0, 0): 2}),
    ]

    def embed(X):
        u, v, w = X.T
        return np.column_stack([u, v, u**2 + v**2 - w, 2 * u])

    def killing_values(X):
        return np.stack([np.column_stack([scalar_values(c, X) for c in k.components])
                         for k in killing])  # (6, N, 3)

    def run():
        f = model_fit.fit_regression(data, targets, fn_basis)
        a, trace = vfield.basis_restricted_search(killing, f, data, config())
        emb = geometry.fit_map(data, embed(data), fn_basis)
        metrics = np.stack([geometry.pullback_metric(emb, p) for p in probes])
        return {"f": f.coefficients, "a": a, "loss": np.float64(trace.final_loss),
                "metrics": metrics}

    def check(out):
        a = out["a"]
        others = np.abs(np.delete(a, 3)).max()
        require(abs(a[3]) >= 0.999 and others <= 0.02,
                f"killing4d: combination {np.round(a, 4)} is not the fourth field")
        E = np.einsum("j,jnd->nd", a, killing_values(held))
        u, v = held[:, 0], held[:, 1]
        check_annihilates(E, np.column_stack([18 * u, 2 * v, np.ones_like(u)]), 1e-3,
                          "killing4d X(f)")
        f = SimpleNamespace(basis=fn_basis, coefficients=out["f"])
        A = np.einsum("jnd,nd->nj", killing_values(data), scalar_gradient(f, data))
        check_mse_solution(A, a, float(out["loss"]), "killing4d")
        for p, g in zip(probes, out["metrics"]):
            J = np.array([[1, 0, 0], [0, 1, 0], [2 * p[0], 2 * p[1], -1], [2, 0, 0]])
            check_close(g, J.T @ J, 1e-8, 1e-8, f"killing4d pullback at {p}")

    return Op("killing4d", run, check)


def sincos_op(seed):
    data, _ = datasets.generate(datasets.GeneratorSpec("sincos", 2048, seed))
    xy, z = data[:, :2], data[:, 2]
    fn_basis = features.trig_extend(features.monomial_basis(2, 1))
    vf_basis = features.trig_extend(features.monomial_basis(2, 0))
    held = heldout_rng(seed, 4).uniform(0, 2 * np.pi, (4096, 2))
    inner = field_op(
        "sincos", xy, z, fn_basis, vf_basis, config(loss=L1),
        lambda X: np.sin(X[:, 0]) - np.cos(X[:, 1]),
        lambda X: np.column_stack([np.cos(X[:, 0]), np.sin(X[:, 1])]),
        lambda X: np.column_stack([np.sin(X[:, 1]), -np.cos(X[:, 0])]),
        held, 1e-2)
    truth = vfield.BasisVectorField([
        symfield.ScalarFunctionModel(features.FeatureBasis(2, (features.FeatureAtom("sin", axis=1),)), [1.0]),
        symfield.ScalarFunctionModel(features.FeatureBasis(2, (features.FeatureAtom("cos", axis=0),)), [-1.0]),
    ])

    def run():
        out = inner.run()
        fields = vfield.VectorFieldModel(vf_basis, out["columns"])
        report = similarity.similarity(truth, fields, similarity.domain_from_data(xy),
                                       method="monte-carlo")
        out["similarity"] = np.float64(report.aggregate)
        return out

    def check(out):
        inner.check(out)
        E = field_values(vf_basis.atoms, out["columns"], held)
        T = np.column_stack([np.sin(held[:, 1]), -np.cos(held[:, 0])])
        mine = np.mean([abs_cosine(T[:, i], E[:, i]) for i in range(2)])
        require(abs(float(out["similarity"]) - mine) <= 0.01,
                f"sincos: Monte-Carlo similarity {float(out['similarity']):.4f} vs {mine:.4f}")

    return Op("sincos", run, check)


def continuous(seed: int, ctx) -> list[Op]:
    """The paper's continuous-symmetry experiments as library calls."""
    ops = []
    rng = heldout_rng(seed, 1)
    for N in (200, 2000):
        data, targets = datasets.generate(datasets.GeneratorSpec("gaussian-quadratic", N, seed))
        held = gaussian_quadratic_points(rng, 1024)
        flow = (held[0], 3.0, 1000) if N == 2000 else None
        ops.append(field_op(
            f"quadratic-{N}", data, targets, features.monomial_basis(2, 2),
            features.monomial_basis(2, 1), config(), quadratic_truth, quadratic_grad,
            quadratic_field, held, 1e-3, flow))
    data, targets = datasets.generate(datasets.GeneratorSpec("cubic", 2000, seed))
    # lr 0.5: at lr 0.1 Adagrad stalls on some seeds (see CHANGES.md)
    ops.append(field_op(
        "cubic", data, targets, features.monomial_basis(2, 3),
        features.monomial_basis(2, 2), config(lr=0.5),
        lambda X: X[:, 0] ** 3 - X[:, 1] ** 2,
        lambda X: np.column_stack([3 * X[:, 0] ** 2, -2 * X[:, 1]]),
        lambda X: np.column_stack([2 * X[:, 1], 3 * X[:, 0] ** 2]),
        2 * rng.standard_normal((1024, 2)), 1e-3))
    ops.append(sincos_op(seed))
    ops.append(circle3d_op(seed))
    ops.append(hypercube10_op(seed))
    ops.append(killing4d_op(seed))
    return ops


# --- density-rotation -----------------------------------------------------


def density_rotation(seed: int, ctx) -> list[Op]:
    """Seven-fold weighted KDE, criterion 6's N = 1000 and a larger N = 1500."""
    ops = []
    for N in (1000, 1500):
        data, targets = datasets.generate(datasets.GeneratorSpec("disc-rot", N, seed))
        ops.append(density_op(N, data, targets))
    return ops


def density_op(N, data, targets):
    k = 7
    sectors = np.mod(np.arctan2(data[:, 0], data[:, 1]), 2 * np.pi / k)

    def weights():
        w = targets**8
        return w / w.sum()

    def run():
        kde = model_fit.kde_fit(data, weights())
        fit = discrete.fit_density_rotation(kde, data, np.pi / 6)
        return {"bandwidth": np.float64(kde.bandwidth), "theta": fit.parameters,
                "loss": np.float64(fit.final_loss)}

    def check(out):
        check_close(targets, 1 / (1 + sectors), 1e-12, 0, f"disc-rot {N} targets")
        h = N ** (-1 / 6) * np.mean(data.std(axis=0))
        check_close(out["bandwidth"], h, 1e-12, 0, f"disc-rot {N} bandwidth")
        theta = float(out["theta"][0])
        err = abs(theta - 2 * np.pi / k)
        require(err <= rotation_tolerance(N),
                f"disc-rot {N}: |theta - 2 pi/7| = {err:.2e} > {rotation_tolerance(N):.2e}")
        w = weights()
        base = kde_density(data, w, h, data)
        turned = kde_density(data, w, h, data @ rotation_matrix(theta).T)
        check_close(out["loss"], np.mean(np.abs(turned - base)), 1e-6, 1e-15,
                    f"disc-rot {N} loss")

    return Op(f"disc-rot-{N}", run, check, probe=lambda: probe_kde(data, weights()))


def probe_kde(data, w):
    """Times one kde_eval of the workload's own points against its centres."""
    kde = model_fit.kde_fit(data, w)
    start = time.perf_counter()
    vals = model_fit.kde_eval(kde, data)
    elapsed = time.perf_counter() - start
    check_close(vals, kde_density(data, w, kde.bandwidth, data), 1e-9, 1e-15, "kde_eval probe")
    return elapsed, data.shape[0] * data.shape[0]


# --- parametric-discrete --------------------------------------------------


class CountingModel(model_fit.ScalarFunctionModel):
    """A scalar model that counts how often it is evaluated."""

    calls = 0

    def __call__(self, points):
        self.calls += 1
        return super().__call__(points)


def _p(i):
    return {"param": i}


def _op(op, *args, **extra):
    return {"op": op, "args": list(args), **extra}


# the reflection about a x + b y = 0, written out as user-linear entries
REFLECTION_ENTRIES = [
    [_op("add", _op("pow", _p(1), exponent=2), _op("neg", _op("pow", _p(0), exponent=2))),
     _op("mul", {"const": -2}, _p(0), _p(1))],
    [_op("mul", {"const": -2}, _p(0), _p(1)),
     _op("add", _op("pow", _p(0), exponent=2), _op("neg", _op("pow", _p(1), exponent=2)))],
]


def parametric_discrete(seed: int, ctx) -> list[Op]:
    """Reflection, interval rotation and a user-linear family by fit_discrete."""
    rng = heldout_rng(seed, 5)
    x = rng.uniform(-2, 2, 300)
    parabola = np.column_stack([x, x**2])
    plane = rng.standard_normal((300, 2))
    cfg = config(lr=0.05, epochs=500)
    basis2, basis3 = features.monomial_basis(2, 2), features.monomial_basis(2, 3)
    f_parabola = CountingModel(basis2, coefficient_vector(basis2.atoms, {(0, 1): 1.0, (2, 0): -1.0}))
    f_three = CountingModel(basis3, coefficient_vector(basis3.atoms, {(3, 0): 1.0, (1, 2): -3.0}))
    truth_parabola = lambda X: X[:, 1] - X[:, 0] ** 2
    truth_three = lambda X: X[:, 0] ** 3 - 3 * X[:, 0] * X[:, 1] ** 2

    reflect = lambda p: reflection_matrix(p)
    rotate = lambda p: rotation_matrix(p[0])
    return [
        discrete_op("reflection", f_parabola, parabola, discrete.reflection_family(), cfg,
                    np.array([1.0, 0.0]), truth_parabola, reflect),
        discrete_op("rotation", f_three, plane, discrete.rotation_family(1.0, 3.0), cfg,
                    np.array([2 * np.pi / 3]), truth_three, rotate),
        discrete_op("user-linear", f_parabola, parabola,
                    discrete.user_linear_family(REFLECTION_ENTRIES, 2), cfg,
                    np.array([1.0, 0.0]), truth_parabola, reflect),
    ]


def discrete_op(name, f, data, family, cfg, want, truth, matrix):
    def run():
        f.calls = 0
        fit = discrete.fit_discrete(f, data, family, cfg)
        return {"parameters": fit.parameters, "loss": np.float64(fit.final_loss),
                "f_evals": np.int64(f.calls)}

    def check(out):
        p = out["parameters"]
        check_close(p, want, 0, 1e-3, f"{name} parameters")
        residual = truth(data @ matrix(p).T) - truth(data)
        check_close(out["loss"], np.mean(residual**2), 1e-6, 1e-12, f"{name} residual")

    return Op(name, run, check)


# --- cli-pipeline ---------------------------------------------------------


def read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(t) for t in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def json_atoms(basis: dict):
    return [SimpleNamespace(kind=a["kind"], exponents=tuple(a.get("exponents", ())),
                            axis=a.get("axis", -1)) for a in basis["atoms"]]


def json_scalar(d: dict):
    return SimpleNamespace(basis=SimpleNamespace(atoms=json_atoms(d["basis"])),
                           coefficients=np.array(d["coefficients"]))


class StageFailed(RuntimeError):
    """A CLI stage exited with a non-zero code."""


class CliRunner:
    """Runs CLI stages in child interpreters and collects their output files.

    Each pass gets a fresh directory.  With ``traced`` set, a stage runs under
    ``cli_traced.py``, and the span summary it writes is kept in ``summaries``.
    """

    def __init__(self, root, workdir, env):
        self.root = root
        self.workdir = workdir
        self.env = env
        self.traced = False
        self.summaries = []
        self.pass_dir = None
        self.peak_rss_kb = 0

    def begin_pass(self, k):
        self.pass_dir = os.path.join(self.workdir, f"pass{k}")
        os.makedirs(self.pass_dir)

    def run(self, argv, outputs):
        if not self.traced:
            cmd = [sys.executable, "-m", "symfield.cli", *argv]
        else:
            summary = os.path.join(self.pass_dir, f"trace-{argv[0]}-{len(self.summaries)}.json")
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_traced.py"), summary, *argv]
        with open(os.path.join(self.pass_dir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.pass_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced and os.path.exists(summary):
            self.summaries.append(load_json(summary))
        if proc.returncode != 0:
            with open(os.path.join(self.pass_dir, "stderr.txt")) as fh:
                tail = fh.read().strip().splitlines()[-1:] or [""]
            raise StageFailed(f"symfield {argv[0]} exited {proc.returncode}: {tail[0]}")
        out = {}
        for name in outputs:
            with open(os.path.join(self.pass_dir, name), "rb") as fh:
                out[name] = fh.read()
        return out


def cli_pipeline(seed: int, ctx) -> list[Op]:
    """Demo 06's stages, then the rest of the pipeline, as symfield subprocesses."""
    cli = ctx.cli
    p = lambda name: os.path.join(cli.pass_dir, name)
    opt = os.path.join(cli.workdir, "opt.json")
    truth = os.path.join(cli.workdir, "truth.json")
    held = gaussian_quadratic_points(heldout_rng(seed, 6), 1024)
    steps = 1000

    def stage(name, argv, outputs, check):
        return Op(name, lambda: cli.run(argv, outputs), check)

    def data():
        header, table = read_table(p("data.csv"))
        return table[:, :2], table[:, 2]

    def check_gen(out):
        spec = load_json(p("data.json"))
        require(spec["name"] == "gaussian-quadratic" and spec["size"] == 2000 and spec["seed"] == seed,
                f"gen: spec {spec}")
        X, t = data()
        require(X.shape == (2000, 2), f"gen: data shape {X.shape}")
        check_close(t, quadratic_truth(X), 1e-12, 1e-12, "gen targets")

    def check_fit_fn(out):
        f = json_scalar(load_json(p("f.json")))
        want = coefficient_vector(f.basis.atoms, {(0, 0): 5.0, (1, 0): -2.0, (0, 1): -8.0,
                                                  (2, 0): 1.0, (1, 1): 0.0, (0, 2): 4.0})
        check_close(f.coefficients, want, 0, 1e-8, "fit-fn coefficients")

    def field():
        d = load_json(p("field.json"))
        return json_atoms(d["basis"]), np.array(d["columns"]).T

    def check_find_vf(out):
        atoms, columns = field()
        E = field_values(atoms, columns, held)
        check_annihilates(E, quadratic_grad(held), 1e-3, "find-vf X(f)")
        check_cosine(quadratic_field(held), E, 0.99, "find-vf field")
        X, _ = data()
        f = json_scalar(load_json(p("f.json")))
        A = vf_matrix(scalar_gradient(f, X), atom_values(atoms, X))
        check_mse_solution(A, columns, load_json(p("trace.json"))["final_loss"], "find-vf")

    def check_flow(out):
        _, T = read_table(p("trajectory.csv"))
        require(T.shape == (steps + 1, 2), f"flow: trajectory shape {T.shape}")
        check_close(T[0], [2.0, 1.0], 0, 0, "flow start")
        check_level_preserved(quadratic_truth(T), 1e-3, "flow")

    def check_invariants(out):
        d = load_json(p("inv.json"))
        h = json_scalar(d["models"][0])
        want = coefficient_vector(h.basis.atoms, {(1, 0): -2.0, (0, 1): -8.0, (2, 0): 1.0, (0, 2): 4.0})
        check_cosine(h.coefficients, want, 0.999, "find-invariants h ~ f - 5")
        X, _ = data()
        atoms, columns = field()
        M2 = invariant_matrix(field_values(atoms, columns, X), atom_partials(h.basis.atoms, X))
        check_mse_solution(M2, h.coefficients, d["final_loss"], "find-invariants")

    def check_flow_param(out):
        d = load_json(p("fp.json"))
        theta = json_scalar(d)
        X, _ = data()
        atoms, columns = field()
        M2 = invariant_matrix(field_values(atoms, columns, X), atom_partials(theta.basis.atoms, X))
        residual = np.sqrt(np.mean((M2 @ theta.coefficients - 1) ** 2))
        check_close(d["residual"], residual, 1e-6, 1e-12, "flow-param residual")
        require(d["no_polynomial_flow_parameter"] == (residual > 1e-3), "flow-param: flag disagrees")

    def check_sim(out):
        agg = load_json(p("sim.json"))["aggregate"]
        atoms, columns = field()
        lo, hi = data()[0].min(0), data()[0].max(0)
        box = heldout_rng(seed, 7).uniform(lo, hi, (200_000, 2))
        E, T = field_values(atoms, columns, box), quadratic_field(box)
        mine = np.mean([abs_cosine(T[:, i], E[:, i]) for i in range(2)])
        require(agg >= 0.99 and abs(agg - mine) <= 0.01, f"sim: aggregate {agg:.4f}, numpy {mine:.4f}")

    def check_transform(out):
        header, table = read_table(p("coords.csv"))
        require(header == ["h1", "theta"], f"transform: header {header}")
        X, _ = data()
        h = json_scalar(load_json(p("inv.json"))["models"][0])
        theta = json_scalar(load_json(p("fp.json")))
        check_close(table[:, 0], scalar_values(h, X), 1e-9, 1e-12, "transform h1")
        check_close(table[:, 1], scalar_values(theta, X), 1e-9, 1e-12, "transform theta")

    def check_kde(out):
        d = load_json(p("kde.json"))
        X, _ = data()
        header, centers = read_table(p(d["centers_file"]))
        check_close(centers[:, :2], X, 0, 0, "fit-kde centres")
        check_close(centers[:, 2], np.ones(len(X)), 0, 0, "fit-kde weights")
        h = len(X) ** (-1 / 6) * np.mean(X.std(axis=0))
        check_close(d["bandwidth"], h, 1e-12, 0, "fit-kde bandwidth")

    def check_grid(out):
        header, table = read_table(p("grid.csv"))
        require(table.shape == (144, 3), f"grid: table shape {table.shape}")
        X, _ = data()
        h = load_json(p("kde.json"))["bandwidth"]
        want = kde_density(X, np.ones(len(X)), h, table[:, :2])
        check_close(table[:, 2], want, 1e-9, 1e-15, "grid densities")

    def check_flow_negative(out):
        _, T = read_table(p("negative.csv"))
        check_close(T[0], [-1.0, 0.5], 0, 0, "flow from a negative start")
        check_level_preserved(quadratic_truth(T), 1e-3, "flow from a negative start")

    return [
        stage("gen", ["gen", "--name", "gaussian-quadratic", "--size", "2000", "--seed", str(seed),
                      "--out", "data.csv"], ["data.csv", "data.json"], check_gen),
        stage("fit-fn", ["fit-fn", "--data", "data.csv", "--degree", "2", "--out", "f.json"],
              ["f.json"], check_fit_fn),
        stage("find-vf", ["find-vf", "--model", "f.json", "--data", "data.csv", "--vf-degree", "1",
                          "--c", "1", "--opt-config", opt, "--out", "field.json",
                          "--trace-out", "trace.json"], ["field.json", "trace.json"], check_find_vf),
        stage("flow", ["flow", "--field", "field.json", "--x0", "2,1", "--t", "3",
                       "--steps", str(steps), "--out", "trajectory.csv"],
              ["trajectory.csv"], check_flow),
        stage("find-invariants", ["find-invariants", "--vf", "field.json", "--data", "data.csv",
                                  "--degree", "2", "--q", "1", "--opt-config", opt,
                                  "--out", "inv.json"], ["inv.json"], check_invariants),
        stage("flow-param", ["flow-param", "--vf", "field.json", "--data", "data.csv",
                             "--degree", "2", "--out", "fp.json"], ["fp.json"], check_flow_param),
        stage("sim", ["sim", "--truth", truth, "--estimate", "field.json", "--data", "data.csv",
                      "--out", "sim.json"], ["sim.json"], check_sim),
        stage("transform", ["transform", "--data", "data.csv", "--invariants", "inv.json",
                            "--flow-param", "fp.json", "--out", "coords.csv"],
              ["coords.csv"], check_transform),
        stage("fit-kde", ["fit-kde", "--data", "data.csv", "--out", "kde.json"],
              ["kde.json", "kde.centers.csv"], check_kde),
        # the --opt=value form keeps argparse from reading a negative bound as an option
        stage("grid", ["grid", "--model", "kde.json", "--lower=-3,-1", "--upper", "5,3",
                       "--resolution", "12", "--out", "grid.csv"], ["grid.csv"], check_grid),
        # fails every time: argparse reads "-1,0.5" as an option and exits 2
        stage("flow-negative", ["flow", "--field", "field.json", "--x0", "-1,0.5", "--t", "0.05",
                                "--steps", "10", "--out", "negative.csv"],
              ["negative.csv"], check_flow_negative),
    ]


def prepare_cli(root, env):
    """The work directory, optimizer config and truth field for the CLI stages."""
    workdir = os.path.join(root, "bench", ".work", f"cli-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "opt.json"), "w") as fh:
        json.dump({"algorithm": "riemannian-adagrad", "loss": MSE,
                   "learning_rate": 0.1, "epochs": 5000}, fh)
    affine = {"dimension": 2, "atoms": [{"kind": "monomial", "exponents": e}
                                        for e in ([0, 0], [1, 0], [0, 1])]}
    with open(os.path.join(workdir, "truth.json"), "w") as fh:
        json.dump({"type": "basisfield", "components": [
            {"basis": affine, "coefficients": [4.0, 0.0, -4.0]},
            {"basis": affine, "coefficients": [-1.0, 1.0, 0.0]}]}, fh)
    return CliRunner(root, workdir, env)


WORKLOADS = {
    "continuous": continuous,
    "density-rotation": density_rotation,
    "parametric-discrete": parametric_discrete,
    "cli-pipeline": cli_pipeline,
}
