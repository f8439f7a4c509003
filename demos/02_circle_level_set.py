"""Level-set pipeline on a circle embedded in three dimensions.

Data lies on the unit circle in the z = 1 plane.  The pipeline: find the
affine component (the plane), read the component count off the elbow
curve, project onto the plane, recover the rotation field in the reduced
coordinates, and extract the invariant feature x^2 + y^2.
"""

import numpy as np

import symfield as sf
from symfield.features import monomial_basis
from symfield.model_fit import (
    fit_level_set,
    project_onto_affine,
    select_components_elbow,
)
from symfield.similarity import domain_from_data, similarity
from symfield.vfield import (
    BasisVectorField,
    estimate_invariants,
    estimate_vector_fields,
)

data, _ = sf.generate(sf.GeneratorSpec("circle3d", 1000, 0))
config = sf.OptimizerConfig(loss="mean-squared")

trace = select_components_elbow(data, monomial_basis(3, 1), 2, config)
print("elbow curve over the affine dictionary:")
for k, loss in trace.losses:
    print(f"  k={k}: loss {loss:.2e}")
print(f"selected {trace.selected} affine component(s)")

affine = trace.model  # the elbow kept its fit at the selected count
w = affine.W[:, 0]
print(f"\naffine component (1, x, y, z): {np.round(w, 4)}  "
      f"~ (z - 1)/sqrt(2)")

reduced, frame = project_onto_affine(data, affine)
print(f"\nreduced coordinates: {reduced.shape[1]} columns, "
      f"radius spread {np.ptp(np.linalg.norm(reduced, axis=1)):.2e}")

fitted, _ = fit_level_set(reduced, monomial_basis(2, 2), 1, config)
fields, _ = estimate_vector_fields(
    fitted, reduced, monomial_basis(2, 1), 1, config
)
rotation = BasisVectorField([
    sf.ScalarFunctionModel(monomial_basis(2, 1), [0.0, 0.0, -1.0]),
    sf.ScalarFunctionModel(monomial_basis(2, 1), [0.0, 1.0, 0.0]),
])
score = similarity(rotation, fields.field(0), domain_from_data(reduced))
print(f"similarity to -y d/dx + x d/dy: {score.aggregate:.4f}")

invariants, _ = estimate_invariants(
    fields, reduced, monomial_basis(2, 2, include_constant=False), 1, config,
)
print("\ninvariant feature coefficients (x, y, x^2, xy, y^2):")
print(np.round(invariants[0].coefficients, 4))
print("(proportional to x^2 + y^2, the squared radius)")
