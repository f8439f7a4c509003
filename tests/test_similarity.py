import tracemalloc

import numpy as np
import pytest

import symfield as sf
from conftest import poly_field, poly_model, rotation_field_2d
from symfield.features import (
    FeatureAtom,
    FeatureBasis,
    design_matrix,
    monomial_basis,
    trig_extend,
)
from symfield.similarity import (
    IntegrationDomain,
    _as_poly,
    _monomial_box_integral,
    _poly_inner,
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


@pytest.mark.parametrize("offset", [1e8, 1e12, -1e12])
def test_constant_axis_far_from_the_origin_is_widened(offset):
    # x -+ 1e-9 round to x there; the axis is widened by spacings of |x|
    dom = domain_from_data(np.array([[0.0, offset], [1.0, offset]]))
    assert dom.degenerate_axes == [1]
    assert dom.lower[1] < offset < dom.upper[1]
    assert dom.upper[1] - dom.lower[1] == 8 * np.spacing(abs(offset))


@pytest.mark.parametrize("offset", [0.0, 3.0, -2.5e3, 1e6, 2.0**23, 2.0**24])
def test_constant_axis_widened_by_1e9_keeps_its_bounds(offset):
    # wherever 1e-9 widens the axis, its bounds are x -+ 1e-9 as computed
    dom = domain_from_data(np.array([[0.0, offset], [1.0, offset]]))
    assert dom.lower[1].hex() == (offset - 1e-9).hex()
    assert dom.upper[1].hex() == (offset + 1e-9).hex()


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


def _random_component(basis, rng):
    return sf.ScalarFunctionModel(basis, rng.standard_normal(len(basis)))


def _shared_matrix_pairs():
    rng = np.random.default_rng(5)
    trig = trig_extend(monomial_basis(2, 1))
    model = sf.VectorFieldModel(trig, rng.standard_normal((2 * len(trig), 1)))
    # components over distinct bases, and over two equal bases that are
    # distinct objects, each field one over the union of its bases
    distinct = sf.BasisVectorField([_random_component(monomial_basis(2, 2), rng),
                                    _random_component(trig, rng)])
    equal = sf.BasisVectorField([_random_component(monomial_basis(2, 3), rng),
                                 _random_component(monomial_basis(2, 3), rng)])
    return [(model, model.field(0)), (distinct, equal), (model, distinct),
            (equal, model)]


@pytest.mark.parametrize("pair", range(4))
def test_shared_design_matrix_matches_one_call_per_component(monkeypatch, pair):
    X, Y = _shared_matrix_pairs()[pair]
    box = IntegrationDomain(np.array([-1.0, 0.5]), np.array([2.0, 3.0]))
    fast = similarity(X, Y, box, method="monte-carlo", mc_samples=5000, mc_seed=3)
    # each component evaluated by its own c(S), one design matrix per call
    monkeypatch.setattr(sf.VectorFieldModel, "__call__", lambda field, S:
                        np.column_stack([c(S) for c in field.components]))
    exact = similarity(X, Y, box, method="monte-carlo", mc_samples=5000, mc_seed=3)
    assert [v.hex() for v in fast.per_component] == [
        v.hex() for v in exact.per_component]
    assert fast.aggregate.hex() == exact.aggregate.hex()


def test_analytic_score_of_components_over_different_bases():
    # each component is integrated over the union of the field's bases, so
    # _poly_inner may sum its terms in another order than over the
    # component's own basis: the scores agree within 1e-14
    rng = np.random.default_rng(9)
    odd = FeatureBasis(2, (FeatureAtom("monomial", (0, 2)),
                           FeatureAtom("monomial", (1, 0))))
    f = [_random_component(monomial_basis(2, 1), rng),
         _random_component(monomial_basis(2, 3), rng)]
    g = [_random_component(monomial_basis(2, 2), rng), _random_component(odd, rng)]
    report = similarity(sf.BasisVectorField(f), sf.BasisVectorField(g), BOX)
    assert report.method == "analytic"
    for score, fi, gi in zip(report.per_component, f, g):
        p, q = _as_poly(fi), _as_poly(gi)
        own = abs(_poly_inner(p, q, BOX)) / np.sqrt(
            _poly_inner(p, p, BOX) * _poly_inner(q, q, BOX))
        assert score == pytest.approx(own, rel=1e-14, abs=1e-14)


def test_similarity_compares_single_fields():
    X = random_quadratic_field(8)
    two = sf.VectorFieldModel(X.basis, np.column_stack([X.columns, X.columns]))
    with pytest.raises(ValueError, match="single field"):
        similarity(X, two, BOX)


def test_monte_carlo_holds_one_design_matrix_at_a_time():
    # building one design matrix peaks at about twice its size (its columns
    # and their stack); a second matrix held beside it adds a whole matrix
    rng = np.random.default_rng(6)
    wide = monomial_basis(2, 8)
    wider = wide.extend([FeatureAtom("sin", axis=0)])
    X = sf.BasisVectorField([_random_component(wide, rng),
                             _random_component(wider, rng)])
    Y = sf.BasisVectorField([_random_component(wider, rng),
                             _random_component(wide, rng)])
    samples = 20_000
    S = rng.uniform(-1.0, 1.0, (samples, 2))
    tracemalloc.start()
    try:
        size = design_matrix(wider, S).nbytes
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        similarity(X, Y, BOX, method="monte-carlo", mc_samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= one + size / 2


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
