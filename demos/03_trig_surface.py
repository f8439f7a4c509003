"""Trigonometric dictionaries: a surface the polynomial basis cannot see.

Data lies on z = sin(x) - cos(y).  Extending the affine dictionary with
sin/cos atoms lets the level-set fit recover the exact defining equation;
a polynomial vector-field estimate then partially matches the
non-polynomial ground-truth symmetry sin(y) d/dx - cos(x) d/dy.
"""

import numpy as np

import symfield as sf
from symfield.features import FeatureAtom, FeatureBasis, monomial_basis, trig_extend
from symfield.model_fit import fit_level_set, fit_regression
from symfield.similarity import domain_from_data, similarity
from symfield.vfield import estimate_vector_fields, BasisVectorField

data, _ = sf.generate(sf.GeneratorSpec("sincos", 2048, 0))
basis = trig_extend(monomial_basis(3, 1))
print("dictionary atoms:")
print("  " + ", ".join(a.label() for a in basis.atoms))

config = sf.OptimizerConfig(loss="mean-squared")
model, loss = fit_level_set(data, basis, 1, config)
print(f"\nlevel-set loss: {loss:.2e}")
print("coefficients (expect -z - cos(y) + sin(x) up to scale):")
for atom, c in zip(basis.atoms, model.W[:, 0]):
    if abs(c) > 1e-3:
        print(f"  {atom.label()}: {c:+.5f}")

xy, z = data[:, :2], data[:, 2]
f = fit_regression(xy, z, trig_extend(monomial_basis(2, 1)))
print(f"\nregression residual of z over the trig dictionary: {f.residual:.2e}")

l1 = lambda seed: sf.OptimizerConfig(
    "riemannian-adagrad", "mean-absolute", 0.1, 5000, seed)
best = None
for seed in range(10):
    est, trace = estimate_vector_fields(f, xy, monomial_basis(2, 2), 1, l1(seed))
    if best is None or trace.final_loss < best[1]:
        best = (est, trace.final_loss, seed)
print(f"best of 10 restarts: seed {best[2]}, loss {best[1]:.4f}")

truth = BasisVectorField([
    sf.ScalarFunctionModel(FeatureBasis(2, (FeatureAtom("sin", axis=1),)), [1.0]),
    sf.ScalarFunctionModel(FeatureBasis(2, (FeatureAtom("cos", axis=0),)), [-1.0]),
])
score = similarity(truth, best[0].field(0), domain_from_data(xy), mc_seed=0)
print(f"similarity of the degree-2 estimate to sin(y) d/dx - cos(x) d/dy: "
      f"{score.aggregate:.4f}")
print("(a polynomial dictionary can only partially capture the trig field)")
