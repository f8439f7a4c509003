import numpy as np
import pytest

import symfield as sf
from symfield.features import FeatureAtom, FeatureBasis, monomial_basis, trig_extend
from symfield.model_fit import (
    KdeModel,
    LevelSetModel,
    ScalarFunctionModel,
    kde_eval,
    kde_fit,
)
from symfield.serialize import (
    atom_from_dict,
    atom_to_dict,
    basis_from_dict,
    basis_to_dict,
    load_json,
    load_model,
    model_from_dict,
    model_to_dict,
    read_csv,
    save_model,
    write_csv,
)
from symfield.vfield import VectorFieldModel

EXTREME = [0.0, -0.0, 1.0, -1.5, 1e-308, -1e308, np.pi, 1 / 3, 2**-53]


def test_atom_roundtrip_all_kinds():
    inner = ((FeatureAtom("monomial", (0, 1)), 2.5), (FeatureAtom("sin", axis=0), -0.25))
    atoms = [
        FeatureAtom("monomial", (2, 0)),
        FeatureAtom("sin", axis=1),
        FeatureAtom("cos", axis=0),
        FeatureAtom("product", (1, 0), factor=inner),
    ]
    for atom in atoms:
        assert atom_from_dict(atom_to_dict(atom)) == atom
    with pytest.raises(ValueError):
        atom_from_dict({"kind": "exp"})


def test_basis_roundtrip_preserves_order():
    basis = trig_extend(monomial_basis(2, 2))
    again = basis_from_dict(basis_to_dict(basis))
    assert again == basis
    assert again.atoms == basis.atoms


def test_scalar_model_roundtrip(tmp_path):
    basis = monomial_basis(2, 2)
    model = sf.ScalarFunctionModel(basis, EXTREME[: len(basis)])
    path = str(tmp_path / "scalar.json")
    save_model(model, path)
    again = load_model(path)
    assert again.basis == basis
    assert np.array_equal(again.coefficients, model.coefficients)


def test_levelset_model_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    W = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    model = LevelSetModel(monomial_basis(2, 2), W)
    path = str(tmp_path / "levelset.json")
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(again.W, model.W)
    assert again.basis == model.basis


def test_vectorfield_model_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    basis = monomial_basis(2, 1)
    model = VectorFieldModel(basis, rng.standard_normal((2 * len(basis), 3)))
    path = str(tmp_path / "vf.json")
    save_model(model, path)
    again = load_model(path)
    assert np.array_equal(again.columns, model.columns)
    assert again.basis == basis


def _mono(*exponents):
    return {"kind": "monomial", "exponents": list(exponents)}


# components over a monomial, a trig and a product-atom basis, which share
# the atoms x2 and 1 in another order
BASISFIELD = {"type": "basisfield", "components": [
    {"basis": {"dimension": 3, "atoms": [_mono(0, 0, 0), _mono(1, 0, 0),
                                         _mono(0, 1, 0), _mono(2, 0, 1)]},
     "coefficients": [0.5, -1.25, 3.0, 0.1]},
    {"basis": {"dimension": 3, "atoms": [
        {"kind": "sin", "axis": 2}, {"kind": "cos", "axis": 0}, _mono(0, 1, 0)]},
     "coefficients": [1.0, -0.75, 2.5]},
    {"basis": {"dimension": 3, "atoms": [
        {"kind": "product", "exponents": [1, 0, 0],
         "factor": [[_mono(0, 0, 1), 2.0], [{"kind": "sin", "axis": 1}, -0.5]]},
        _mono(0, 0, 0)]},
     "coefficients": [1.5, -2.0]},
]}


def test_basisfield_model_roundtrip(tmp_path):
    """A basisfield JSON loads as one field over the union of its bases, is
    written back as a vectorfield and round-trips bit for bit."""
    field = model_from_dict(BASISFIELD)
    assert isinstance(field, VectorFieldModel) and field.n_fields == 1
    assert len(field.basis) == 7  # 4 + 3 + 2 atoms, x2 and 1 twice
    points = np.random.default_rng(4).uniform(-2.0, 2.0, (200, 3))
    values = field(points)
    for i, c in enumerate(BASISFIELD["components"]):
        own = ScalarFunctionModel(basis_from_dict(c["basis"]), c["coefficients"])
        # over the union basis the products sum in another order
        assert np.allclose(values[:, i], own(points), rtol=1e-14, atol=1e-14)
    path = str(tmp_path / "bf.json")
    save_model(field, path)
    assert load_json(path)["type"] == "vectorfield"
    again = load_model(path)
    assert again.basis == field.basis
    assert np.array_equal(again.columns, field.columns)
    save_model(again, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "bf.json").read_bytes()


def test_kde_model_roundtrip_with_sidecar(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((50, 2))
    kde = kde_fit(data, weights=rng.uniform(0.1, 1.0, 50))
    path = str(tmp_path / "density.json")
    save_model(kde, path)
    assert (tmp_path / "density.centers.csv").exists()
    again = load_model(path)
    assert isinstance(again, KdeModel)
    assert np.array_equal(again.centers, kde.centers)
    assert np.array_equal(again.weights, kde.weights)
    assert again.bandwidth == kde.bandwidth
    q = rng.standard_normal((10, 2))
    assert np.array_equal(kde_eval(again, q), kde_eval(kde, q))


def test_kde_dict_requires_centers_file():
    kde = kde_fit(np.random.default_rng(3).standard_normal((20, 2)))
    with pytest.raises(ValueError):
        model_to_dict(kde)


def test_model_json_is_sorted_with_trailing_newline(tmp_path):
    model = sf.ScalarFunctionModel(monomial_basis(2, 1), [1.0, 2.0, 3.0])
    path = tmp_path / "m.json"
    save_model(model, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    d = load_json(str(path))
    assert list(d.keys()) == sorted(d.keys())


def _scalar_dict():
    return model_to_dict(ScalarFunctionModel(monomial_basis(2, 1), np.ones(3)))


@pytest.mark.parametrize("model", [
    {**_scalar_dict(), "basis": 5},
    {**_scalar_dict(), "basis": {"dimension": 2, "atoms": 5}},
    {**_scalar_dict(), "basis": {"dimension": 2, "atoms": [5, 6, 7]}},
    {**_scalar_dict(), "basis": {"atoms": []}},
    {"type": "scalar", "basis": {"dimension": 2, "atoms": [
        {"kind": "sin", "axis": 7}]}, "coefficients": [1.0]},
    {"type": "scalar", "basis": {"dimension": 2, "atoms": [
        {"kind": "monomial", "exponents": [1]}]}, "coefficients": [1.0]},
    {"type": "scalar", "basis": {"dimension": 2, "atoms": [
        {"kind": "monomial", "exponents": 5}]}, "coefficients": [1.0]},
    {"type": "basisfield", "components": [1, 2]},
    {"type": "basisfield", "components": 5},
    {"type": "basisfield", "components": BASISFIELD["components"][:2]},
    {"type": "vectorfield", "basis": basis_to_dict(monomial_basis(1, 0)),
     "columns": [[[1.0]]]},
    {"type": "levelset", "basis": _scalar_dict()["basis"]},
    {"basis": 5},
])
def test_malformed_model_parts_raise_value_error(model):
    with pytest.raises(ValueError):
        model_from_dict(model)


def test_unknown_payloads_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"type": "mystery"})
    with pytest.raises(TypeError):
        model_to_dict(object())


def test_csv_roundtrip_exact(tmp_path):
    data = np.array(EXTREME + [4.2]).reshape(5, 2)
    targets = np.array([1e16 + 1, -0.1, 3.0, 5e-324, 0.0])
    path = str(tmp_path / "d.csv")
    write_csv(path, data, targets)
    rdata, rtargets = read_csv(path)
    assert np.array_equal(rdata, data)
    assert np.array_equal(rtargets, targets)


def test_csv_header_and_no_target(tmp_path):
    path = tmp_path / "plain.csv"
    write_csv(str(path), np.arange(6.0).reshape(2, 3))
    assert path.read_text().splitlines()[0] == "x1,x2,x3"
    rdata, rtargets = read_csv(str(path))
    assert rtargets is None
    assert np.array_equal(rdata, np.arange(6.0).reshape(2, 3))


def test_ragged_csv_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_csv(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_csv_refuses_a_non_finite_cell_and_writes_nothing(tmp_path, bad):
    # read_csv refuses such a cell, so writing one made an unreadable file
    data = np.ones((3, 2))
    data[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(str(tmp_path / "d.csv"), data)
    assert not (tmp_path / "d.csv").exists()
