"""Shared fixtures and factories for the test suite."""

import inspect

import numpy as np
import pytest

import symfield as sf
from symfield.features import monomial_basis


def poly_model(basis, coeff_map):
    """Scalar model over ``basis`` from an exponents -> coefficient map."""
    c = np.zeros(len(basis))
    for i, atom in enumerate(basis.atoms):
        if atom.exponents in coeff_map:
            c[i] = coeff_map[atom.exponents]
    return sf.ScalarFunctionModel(basis, c)


def poly_field(n, degree, *component_maps):
    """Vector field with polynomial components given as exponent maps."""
    basis = monomial_basis(n, degree)
    return sf.BasisVectorField([poly_model(basis, m) for m in component_maps])


def rotation_field_2d():
    """-y d/dx + x d/dy."""
    return poly_field(2, 1, {(0, 1): -1.0}, {(1, 0): 1.0})


def einsum_table_reader(density):
    """The point-major reader that model_fit._kde_table's node-major read
    replaced, over the table of the density it returned: a (points, 2, 4)
    stack of weights, a (points, 16) take and one einsum over
    (points, 4, 4) stencils."""
    table = inspect.getclosurevars(density).nonlocals
    flat, step, radius, cells = (table[k] for k in ("flat", "step", "radius", "cells"))
    side, offsets = len(table["nodes"]), table["offsets"]

    def read(points):
        u = np.asarray(points, dtype=float) / step + (radius / step + 1.0)
        k = np.clip(np.floor(u), 1, cells).astype(int)
        t = u - k
        w = 0.5 * np.stack([((2.0 - t) * t - 1.0) * t, (3.0 * t - 5.0) * t * t + 2.0,
                            ((4.0 - 3.0 * t) * t + 1.0) * t, (t - 1.0) * t * t], -1)
        corner = k[:, 0] * side + k[:, 1]
        values = flat.take(corner[:, None] + offsets).reshape(-1, 4, 4)
        return np.einsum("pa,pab,pb->p", w[:, 0], values, w[:, 1])

    return read


@pytest.fixture
def experiment_config():
    """Optimizer settings that reliably converge on the benchmark problems."""
    return sf.OptimizerConfig("riemannian-adagrad", "mean-squared", 0.1, 5000)
