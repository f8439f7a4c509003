"""Discover the affine symmetry of a quadratic bowl.

Targets f = (x-1)^2 + 4(y-1)^2 are rotationally symmetric in stretched
coordinates around (1, 1).  We regress f, estimate a single annihilating
vector field over the affine dictionary, score it against the closed-form
generator, and integrate its flow to watch f stay constant.
"""

import numpy as np

import symfield as sf
from symfield.features import monomial_basis
from symfield.model_fit import fit_regression
from symfield.similarity import domain_from_data, similarity
from symfield.vfield import BasisVectorField, estimate_vector_fields, flow_integrate

data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 2000, 0))
f = fit_regression(data, targets, monomial_basis(2, 2))
print("fitted coefficients (1, x, y, x^2, xy, y^2):")
print(np.round(f.coefficients, 6))

config = sf.OptimizerConfig(loss="mean-squared")
model, trace = estimate_vector_fields(f, data, monomial_basis(2, 1), 1, config)
print(f"\nannihilation loss after optimization: {trace.final_loss:.2e}")
print("field coefficient blocks (rows: d/dx, d/dy; columns: 1, x, y):")
print(np.round(model.blocks(0), 4))

truth = BasisVectorField([
    sf.ScalarFunctionModel(monomial_basis(2, 1), [4.0, 0.0, -4.0]),
    sf.ScalarFunctionModel(monomial_basis(2, 1), [-1.0, 1.0, 0.0]),
])
score = similarity(truth, model.field(0), domain_from_data(data))
print(f"\nsimilarity to -(4y-4) d/dx + (x-1) d/dy: {score.aggregate:.4f}")

x0 = data[0]
trajectory = flow_integrate(model.field(0), x0, 3.0, 3000)
values = f(trajectory)
print(f"\nf along the flow from {np.round(x0, 3)}:")
print(f"  start {values[0]:.6f}, end {values[-1]:.6f}, "
      f"max drift {np.abs(values - values[0]).max():.2e}")
