"""JSON and CSV persistence for models and datasets.

Every model round-trips through a plain-JSON dictionary keyed by "type".
Vector fields are written as "vectorfield" (a basis and coefficient
columns); a "basisfield" dictionary (one basis and coefficient list per
component) is still read, as one field over the union of its bases.  KDE
models reference their mixture centers through a sidecar CSV so the
JSON stays small.  CSV files carry a header row (x1..xn, optional extras)
and shortest-roundtrip decimal floats, so parse(emit(D)) == D exactly for
finite doubles.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .features import FeatureAtom, FeatureBasis
from .model_fit import KdeModel, LevelSetModel, ScalarFunctionModel
from .vfield import VectorFieldModel

__all__ = [
    "atom_to_dict",
    "atom_from_dict",
    "basis_to_dict",
    "basis_from_dict",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "write_csv",
    "read_csv",
    "save_json",
    "load_json",
]


def atom_to_dict(atom: FeatureAtom) -> dict:
    if atom.kind == "monomial":
        return {"kind": "monomial", "exponents": list(atom.exponents)}
    if atom.kind in ("sin", "cos"):
        return {"kind": atom.kind, "axis": atom.axis}
    return {
        "kind": "product",
        "exponents": list(atom.exponents),
        "factor": [[atom_to_dict(a), float(c)] for a, c in atom.factor],
    }


def _integer(value) -> int:
    """An integral JSON number; 1.5, NaN, true and "1" are refused."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def atom_from_dict(d: dict) -> FeatureAtom:
    kind = d["kind"]
    if kind == "monomial":
        return FeatureAtom("monomial", tuple(_integer(e) for e in d["exponents"]))
    if kind in ("sin", "cos"):
        return FeatureAtom(kind, axis=_integer(d["axis"]))
    if kind == "product":
        return FeatureAtom(
            "product",
            tuple(_integer(e) for e in d["exponents"]),
            factor=tuple(
                (atom_from_dict(a), float(c)) for a, c in d["factor"]
            ),
        )
    raise ValueError(f"unknown atom kind {kind!r}")


def basis_to_dict(basis: FeatureBasis) -> dict:
    return {
        "dimension": basis.dimension,
        "atoms": [atom_to_dict(a) for a in basis.atoms],
    }


def basis_from_dict(d: dict) -> FeatureBasis:
    return FeatureBasis(
        _integer(d["dimension"]), tuple(atom_from_dict(a) for a in d["atoms"])
    )


def model_to_dict(model, centers_file: str | None = None) -> dict:
    """Dictionary form of any supported model.

    KDE models need ``centers_file``, the (relative) path of the CSV that
    stores their centers and weights; the caller is responsible for writing
    that file (see save_model).
    """
    if isinstance(model, ScalarFunctionModel):
        return {
            "type": "scalar",
            "basis": basis_to_dict(model.basis),
            "coefficients": [float(c) for c in model.coefficients],
        }
    if isinstance(model, LevelSetModel):
        return {
            "type": "levelset",
            "basis": basis_to_dict(model.basis),
            "W": [[float(v) for v in model.W[:, j]] for j in range(model.W.shape[1])],
        }
    if isinstance(model, KdeModel):
        if centers_file is None:
            raise ValueError("KDE serialization needs a centers_file path")
        return {
            "type": "kde",
            "bandwidth": float(model.bandwidth),
            "centers_file": centers_file,
        }
    if isinstance(model, VectorFieldModel):
        return {
            "type": "vectorfield",
            "dimension": model.dimension,
            "basis": basis_to_dict(model.basis),
            "columns": [
                [float(v) for v in model.columns[:, j]]
                for j in range(model.n_fields)
            ],
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(d: dict, base_dir: str = "."):
    """Inverse of model_to_dict; a malformed part raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("a model JSON must be an object")
    try:
        return _model_from_dict(d, base_dir)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model: {type(exc).__name__}: {exc}") from exc


def _model_from_dict(d: dict, base_dir: str):
    kind = d["type"]
    if kind == "scalar":
        return ScalarFunctionModel(
            basis_from_dict(d["basis"]), np.array(d["coefficients"], dtype=float)
        )
    if kind == "levelset":
        W = np.array(d["W"], dtype=float).T
        return LevelSetModel(basis_from_dict(d["basis"]), W)
    if kind == "kde":
        path = os.path.join(base_dir, d["centers_file"])
        table, header = _read_table(path)
        if header[-1] != "weight":
            raise ValueError("KDE centers file must end with a weight column")
        return KdeModel(table[:, :-1], table[:, -1], float(d["bandwidth"]))
    if kind == "vectorfield":
        return VectorFieldModel(
            basis_from_dict(d["basis"]),
            np.array(d["columns"], dtype=float).T,
        )
    if kind == "basisfield":
        return VectorFieldModel.from_components(
            [
                ScalarFunctionModel(
                    basis_from_dict(c["basis"]),
                    np.array(c["coefficients"], dtype=float),
                )
                for c in d["components"]
            ]
        )
    raise ValueError(f"unknown model type {kind!r}")


def save_json(obj: dict, path: str) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_model(model, path: str) -> None:
    """Write a model JSON; KDE centers go to a sidecar next to the JSON."""
    if isinstance(model, KdeModel):
        sidecar = os.path.splitext(os.path.basename(path))[0] + ".centers.csv"
        table = np.column_stack([model.centers, model.weights])
        header = [f"x{i + 1}" for i in range(model.dimension)] + ["weight"]
        _write_table(os.path.join(os.path.dirname(path) or ".", sidecar),
                     table, header)
        save_json(model_to_dict(model, centers_file=sidecar), path)
    else:
        save_json(model_to_dict(model), path)


def load_model(path: str):
    return model_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".")


def _format(v: float) -> str:
    return repr(float(v))


def _write_table(path: str, table: np.ndarray, header: list[str]) -> None:
    table = np.atleast_2d(np.asarray(table, dtype=float))
    if table.shape[1] != len(header):
        raise ValueError("header length does not match column count")
    # _read_table refuses such a cell, so none is written
    if not np.all(np.isfinite(table)):
        raise ValueError(f"refusing to write non-finite values to {path!r}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(_format(v) for v in row) + "\n")


def _read_table(path: str) -> tuple[np.ndarray, list[str]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    if not rows:
        raise ValueError(f"no data rows in {path!r}")
    table = np.array(rows, dtype=float)
    if table.shape[1] != len(header):
        raise ValueError(f"ragged CSV {path!r}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"non-finite value in {path!r}")
    return table, header


def write_csv(
    path: str, data: np.ndarray, targets: np.ndarray | None = None
) -> None:
    """Dataset CSV with header x1..xn and an optional target column."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    header = [f"x{i + 1}" for i in range(data.shape[1])]
    if targets is not None:
        data = np.column_stack([data, np.asarray(targets, dtype=float)])
        header.append("target")
    _write_table(path, data, header)


def read_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of write_csv: (data, targets-or-None)."""
    table, header = _read_table(path)
    if header and header[-1] == "target":
        return table[:, :-1], table[:, -1]
    return table, None
