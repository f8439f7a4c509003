"""Discrete rotational symmetry of a density.

Targets with a seven-fold angular sawtooth weight a kernel density
estimate; minimizing the density-matching loss over rotation angles
recovers 2*pi/7 without ever seeing the sector structure directly.
"""

import numpy as np

import symfield as sf
from symfield.discrete import fit_density_rotation
from symfield.model_fit import kde_fit

data, targets = sf.generate(sf.GeneratorSpec("disc-rot", 1000, 3))
weights = targets**8  # sharpen the sector contrast before density fitting
kde = kde_fit(data, weights / weights.sum())

result = fit_density_rotation(kde, data, np.pi / 6)
theta = result.parameters[0]
print(f"fitted rotation angle: {theta:.4f}")
print(f"2*pi/7             : {2 * np.pi / 7:.4f}")
print(f"density-matching loss: {result.final_loss:.2e}")
print(f"boundary of the excluded region active: {result.excluded_region_active}")
