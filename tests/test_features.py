import numpy as np
import pytest

from symfield.features import (
    FeatureAtom,
    FeatureBasis,
    _power,
    design_matrix,
    jacobian_stack,
    monomial_basis,
    trig_extend,
)


def fd_jacobian(basis, point, step=1e-5):
    point = np.asarray(point, dtype=float)
    J = np.zeros((len(basis), point.size))
    for j in range(point.size):
        up, dn = point.copy(), point.copy()
        up[j] += step
        dn[j] -= step
        J[:, j] = (design_matrix(basis, [up])[0]
                   - design_matrix(basis, [dn])[0]) / (2 * step)
    return J


def test_monomial_order_degree2():
    basis = monomial_basis(2, 2)
    assert [a.exponents for a in basis.atoms] == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]


def test_monomial_order_is_stable():
    a = monomial_basis(3, 3)
    b = monomial_basis(3, 3)
    assert a.atoms == b.atoms


def test_monomial_values():
    basis = monomial_basis(2, 2)
    row = design_matrix(basis, [(2.0, 3.0)])[0]
    assert np.allclose(row, [1, 2, 3, 4, 6, 9])


def test_power_is_exact_to_two_and_close_beyond():
    # repeated squaring: x ** 1 and x ** 2 round once at most, as numpy's
    # pow does; higher powers within e eps relative of libm's pow
    x = np.random.default_rng(3).uniform(-3, 3, 1000)
    assert np.array_equal(_power(x, 0), np.ones_like(x))
    for e in (1, 2):
        assert np.array_equal(_power(x, e), x ** e)
    eps = np.finfo(float).eps
    for e in range(3, 17):
        np.testing.assert_allclose(_power(x, e), x ** e, rtol=e * eps, atol=0)


def test_power_overflows_to_inf_as_pow_does():
    x = np.array([1e200, -1e200, 1e40, -1e40, 3e102, -3e102])
    with np.errstate(over="ignore"):
        for e in (2, 3, 8, 9):
            want, got = x ** e, _power(x, e)
            assert np.isinf(want).any()
            assert np.isinf(got).tolist() == np.isinf(want).tolist()
            assert np.sign(got).tolist() == np.sign(want).tolist()


def test_jacobian_quadratic_atoms():
    basis = FeatureBasis(2, (
        FeatureAtom("monomial", (2, 0)), FeatureAtom("monomial", (1, 1)),
    ))
    J = jacobian_stack(basis, [(2.0, 3.0)])[0]
    assert np.allclose(J, [[4, 0], [3, 2]])


def test_jacobian_sin_at_origin():
    basis = FeatureBasis(3, (FeatureAtom("sin", axis=0),))
    J = jacobian_stack(basis, [(0.0, 0.0, 0.0)])[0]
    assert np.allclose(J, [[1, 0, 0]])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    basis = trig_extend(monomial_basis(3, 3))
    for _ in range(5):
        point = rng.uniform(-2, 2, 3)
        J = jacobian_stack(basis, [point])[0]
        ref = fd_jacobian(basis, point)
        assert np.abs(J - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


def test_trig_extend_order():
    basis = trig_extend(monomial_basis(2, 1))
    kinds = [(a.kind, a.axis) for a in basis.atoms[3:]]
    assert kinds == [("cos", 0), ("cos", 1), ("sin", 0), ("sin", 1)]


def test_duplicate_atoms_rejected():
    atom = FeatureAtom("monomial", (1, 0))
    with pytest.raises(ValueError):
        FeatureBasis(2, (atom, atom))


@pytest.mark.parametrize("kind", ["monomial", "product"])
@pytest.mark.parametrize("exponent", [2.0, 1.5, True])
def test_non_integer_exponent_rejected(kind, exponent):
    # the powers are taken by repeated squaring, which needs an integer
    with pytest.raises(ValueError, match="integers"):
        FeatureAtom(kind, (exponent, 0))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        FeatureAtom("monomial", (-1, 0))


@pytest.mark.parametrize("atom", [
    FeatureAtom("monomial", (1,)),  # too few exponents for R^2
    FeatureAtom("monomial", (1, 0, 0)),
    FeatureAtom("sin", axis=2),
    FeatureAtom("cos", axis=7),
    FeatureAtom("product", (1, 0), factor=((FeatureAtom("monomial", (1,)), 1.0),)),
    FeatureAtom("product", (1, 0), factor=((FeatureAtom("sin", axis=5), 1.0),)),
])
def test_atom_must_fit_basis_dimension(atom):
    with pytest.raises(ValueError, match="does not fit dimension 2"):
        FeatureBasis(2, (atom,))
    with pytest.raises(ValueError):
        monomial_basis(2, 1).extend([atom])


def test_trig_atom_needs_axis():
    with pytest.raises(ValueError):
        FeatureAtom("sin")


def test_product_atom_value_and_partials():
    # x * (z - 1) over R^3
    inner = (
        (FeatureAtom("monomial", (0, 0, 1)), 1.0),
        (FeatureAtom("monomial", (0, 0, 0)), -1.0),
    )
    atom = FeatureAtom("product", (1, 0, 0), factor=inner)
    assert atom.artificial
    assert atom.degree() == 2
    pts = np.array([[2.0, 5.0, 3.0]])
    assert np.allclose(atom.values(pts), [4.0])
    # d/dx = z - 1, d/dz = x
    assert np.allclose(atom.partials(pts), [[2.0, 0.0, 2.0]])


def test_product_atom_partials_match_fd():
    inner = (
        (FeatureAtom("monomial", (2, 0)), 0.5),
        (FeatureAtom("monomial", (0, 1)), -2.0),
    )
    basis = FeatureBasis(2, (FeatureAtom("product", (1, 1), factor=inner),))
    point = np.array([0.7, -1.3])
    assert np.allclose(jacobian_stack(basis, [point])[0],
                       fd_jacobian(basis, point), atol=1e-6)


def test_strip_artificial_and_drop_constant():
    basis = monomial_basis(2, 1)
    extended = basis.extend([
        FeatureAtom("product", (1, 0),
                    factor=((FeatureAtom("monomial", (0, 1)), 1.0),)),
    ])
    assert len(extended) == 4
    assert extended.strip_artificial().atoms == basis.atoms
    assert not monomial_basis(2, 1, include_constant=False).has_constant()
    assert basis.has_constant()


def test_design_and_jacobian_shapes():
    basis = trig_extend(monomial_basis(2, 2))
    pts = np.random.default_rng(1).uniform(-1, 1, (7, 2))
    assert design_matrix(basis, pts).shape == (7, len(basis))
    assert jacobian_stack(basis, pts).shape == (7, len(basis), 2)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        design_matrix(monomial_basis(2, 1), np.zeros((3, 3)))


def test_is_polynomial():
    assert monomial_basis(3, 2).is_polynomial()
    assert not trig_extend(monomial_basis(3, 2)).is_polynomial()


def test_atom_labels():
    assert FeatureAtom("monomial", (0, 0)).label() == "1"
    assert FeatureAtom("monomial", (2, 1)).label() == "x1^2*x2"
    assert FeatureAtom("sin", axis=1).label() == "sin(x2)"
    inner = ((FeatureAtom("monomial", (0, 1)), 2.0),)
    assert FeatureAtom("product", (1, 0), factor=inner).label() == "x1*(2*x2)"
