import numpy as np
import pytest

import symfield as sf
from conftest import poly_field, poly_model, rotation_field_2d
from symfield.features import FeatureAtom, FeatureBasis, monomial_basis
from symfield.similarity import (
    IntegrationDomain,
    _monomial_box_integral,
    domain_from_data,
    similarity,
)

BOX = IntegrationDomain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def random_quadratic_field(seed):
    rng = np.random.default_rng(seed)
    basis = monomial_basis(2, 2)
    return sf.BasisVectorField([
        sf.ScalarFunctionModel(basis, rng.standard_normal(6)),
        sf.ScalarFunctionModel(basis, rng.standard_normal(6)),
    ])


def test_domain_from_data():
    dom = domain_from_data(np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert np.allclose(dom.lower, [0, 0])
    assert np.allclose(dom.upper, [1, 2])
    assert dom.degenerate_axes == []


def test_domain_degenerate_axis_flagged():
    dom = domain_from_data(np.array([[1.0, 3.0], [2.0, 3.0]]))
    assert dom.degenerate_axes == [1]
    assert dom.lower[1] < 3.0 < dom.upper[1]


def test_domain_needs_two_points():
    with pytest.raises(ValueError):
        domain_from_data(np.array([[1.0, 2.0]]))


def test_monomial_integral_unit_box():
    dom = IntegrationDomain(np.array([0.0]), np.array([1.0]))
    for p in range(9):
        assert _monomial_box_integral((p,), dom) == pytest.approx(1 / (p + 1))


def test_scaled_field_scores_one():
    X = random_quadratic_field(0)
    for c in (2.0, -0.3):
        Xc = sf.BasisVectorField([
            sf.ScalarFunctionModel(m.basis, c * m.coefficients)
            for m in X.components
        ])
        for method in ("analytic", "monte-carlo"):
            rep = similarity(X, Xc, BOX, method=method)
            assert rep.aggregate == pytest.approx(1.0, abs=1e-12)


def test_odd_integrands_vanish():
    X = rotation_field_2d()
    Y = poly_field(2, 1, {(1, 0): 1.0}, {(0, 1): 1.0})  # x d/dx + y d/dy
    rep = similarity(X, Y, BOX)
    assert rep.aggregate == pytest.approx(0.0, abs=1e-14)


def test_symmetry_of_score():
    X, Y = random_quadratic_field(1), random_quadratic_field(2)
    assert similarity(X, Y, BOX).aggregate == pytest.approx(
        similarity(Y, X, BOX).aggregate, abs=1e-14
    )


def test_component_sign_invariance():
    X, Y = random_quadratic_field(3), random_quadratic_field(4)
    Yf = sf.BasisVectorField([
        sf.ScalarFunctionModel(Y.components[0].basis,
                               -Y.components[0].coefficients),
        Y.components[1],
    ])
    assert similarity(X, Y, BOX).aggregate == pytest.approx(
        similarity(X, Yf, BOX).aggregate, abs=1e-14
    )


def test_analytic_vs_monte_carlo():
    for seed in range(3):
        X = random_quadratic_field(10 + seed)
        Y = random_quadratic_field(20 + seed)
        exact = similarity(X, Y, BOX, method="analytic").aggregate
        mc = similarity(X, Y, BOX, method="monte-carlo",
                        mc_samples=1_000_000).aggregate
        assert mc == pytest.approx(exact, abs=1e-2)


def test_monte_carlo_converges_with_samples():
    X = random_quadratic_field(30)
    Y = random_quadratic_field(31)
    exact = similarity(X, Y, BOX, method="analytic").aggregate
    errs = []
    for samples in (1000, 4000, 16000, 64000):
        devs = [
            abs(similarity(X, Y, BOX, method="monte-carlo",
                           mc_samples=samples, mc_seed=s).aggregate - exact)
            for s in range(10)
        ]
        errs.append(np.mean(devs))
    assert errs[-1] < errs[0]
    assert errs[-1] < 3e-3


def test_zero_norm_conventions():
    zero = poly_field(2, 1, {}, {(1, 0): 1.0})
    other = poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): 1.0})
    both = similarity(zero, zero, BOX)
    assert both.per_component[0] == 1.0
    assert 0 in both.zero_norm_components
    one = similarity(zero, other, BOX)
    assert one.per_component[0] == 0.0
    assert one.aggregate == pytest.approx(0.5)


def test_analytic_rejects_trig_fields():
    trig = sf.BasisVectorField([
        sf.ScalarFunctionModel(FeatureBasis(2, (FeatureAtom("sin", axis=0),)),
                               [1.0]),
        poly_model(monomial_basis(2, 1), {(1, 0): 1.0}),
    ])
    with pytest.raises(ValueError):
        similarity(trig, trig, BOX, method="analytic")
    rep = similarity(trig, trig, BOX)  # auto falls back to sampling
    assert rep.method == "monte-carlo"
    assert rep.aggregate == pytest.approx(1.0, abs=1e-12)


def test_product_atoms_integrate_analytically():
    inner = ((FeatureAtom("monomial", (0, 1)), 2.0),)
    prod_basis = FeatureBasis(2, (FeatureAtom("product", (1, 0), factor=inner),))
    via_product = sf.BasisVectorField([
        sf.ScalarFunctionModel(prod_basis, [1.0]),  # x * (2y)
        poly_model(monomial_basis(2, 1), {}),
    ])
    direct = poly_field(2, 2, {(1, 1): 2.0}, {})
    rep = similarity(direct, via_product, BOX)
    assert rep.method == "analytic"
    assert rep.per_component[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lower,upper", [
    ([np.nan, 0.0], [1.0, 1.0]), ([0.0, 0.0], [np.inf, 1.0]),
    ([-np.inf, 0.0], [1.0, 1.0]),
])
def test_domain_bounds_must_be_finite(lower, upper):
    with pytest.raises(ValueError, match="finite"):
        IntegrationDomain(np.array(lower), np.array(upper))


def test_dimension_checks():
    X = random_quadratic_field(5)
    Y3 = poly_field(3, 1, {}, {}, {})
    with pytest.raises(ValueError):
        similarity(X, Y3, BOX)
    dom3 = IntegrationDomain(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        similarity(X, X, dom3)


def test_report_serialization():
    rep = similarity(random_quadratic_field(6), random_quadratic_field(7),
                     BOX, method="monte-carlo", mc_samples=1000, mc_seed=3)
    d = rep.to_dict()
    assert d["method"] == "monte-carlo"
    assert d["mc_samples"] == 1000
    assert d["mc_seed"] == 3
    assert len(d["per_component"]) == 2


@pytest.mark.parametrize("samples", [0, -5, 2.5, 10.0, True, None])
def test_mc_samples_must_be_a_positive_integer(samples):
    # zero samples used to give a NaN aggregate
    X = random_quadratic_field(8)
    with pytest.raises(ValueError, match="mc_samples"):
        similarity(X, X, BOX, method="monte-carlo", mc_samples=samples)
