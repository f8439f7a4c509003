"""Restricted search over a Killing basis, plus the pullback metric.

The data lies on a surface embedded by (u, v, w) -> (u, v, u^2+v^2-w, 2u).
Given six externally supplied Killing fields of the induced metric, the
restricted search finds the unit combination annihilating the target
function f = 9u^2 + v^2 + w; the pullback of the ambient Euclidean metric
is computed from the fitted embedding map.
"""

import numpy as np

import symfield as sf
from symfield.datasets import killing4d_embedding
from symfield.features import monomial_basis
from symfield.geometry import fit_map, pullback_metric
from symfield.model_fit import fit_regression
from symfield.vfield import BasisVectorField, basis_restricted_search


def poly(n, degree, coeffs):
    basis = monomial_basis(n, degree)
    vec = np.zeros(len(basis))
    for i, atom in enumerate(basis.atoms):
        vec[i] = coeffs.get(atom.exponents, 0.0)
    return sf.ScalarFunctionModel(basis, vec)


def field(degree, *component_maps):
    return BasisVectorField([poly(3, degree, m) for m in component_maps])


killing_basis = [
    field(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1}, {},
          {(3, 0, 0): 2, (1, 2, 0): 2, (1, 0, 1): -2, (1, 0, 0): 5}),
    field(3, {}, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 1): -1},
          {(2, 1, 0): 2, (0, 3, 0): 2, (0, 1, 1): -2, (0, 1, 0): 1}),
    field(1, {}, {}, {(0, 0, 0): 1}),
    field(2, {(0, 1, 0): -1}, {(1, 0, 0): 5}, {(1, 1, 0): 8}),
    field(1, {}, {(0, 0, 0): 1}, {(0, 1, 0): 2}),
    field(1, {(0, 0, 0): 1}, {}, {(1, 0, 0): 2}),
]

data, targets = sf.generate(sf.GeneratorSpec("killing4d", 2000, 0))
f = fit_regression(data, targets, monomial_basis(3, 2))

config = sf.OptimizerConfig(loss="mean-squared")
a, trace = basis_restricted_search(killing_basis, f, data, config)
print("unit combination over the six Killing fields:")
print(np.round(a, 4))
print(f"residual loss: {trace.final_loss:.2e}")
print("(the fourth field alone annihilates f = 9u^2 + v^2 + w)")

image = killing4d_embedding(data)
embedding = fit_map(data, image, monomial_basis(3, 2))
for point in ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]):
    g = pullback_metric(embedding, point)
    print(f"\npullback metric at {point}:")
    print(np.round(g, 4))
