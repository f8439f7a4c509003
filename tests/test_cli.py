import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import symfield as sf
from conftest import poly_field, poly_model
from symfield.cli import UNREAD_OPTIONS, _attach_negative_values, build_parser, main
from symfield.features import monomial_basis, trig_extend
from symfield.serialize import (
    load_json,
    load_model,
    model_to_dict,
    read_csv,
    save_json,
    save_model,
    write_csv,
)

EXPERIMENT_OPT = {
    "algorithm": "riemannian-adagrad",
    "loss": "mean-squared",
    "learning_rate": 0.1,
    "epochs": 5000,
}


def run(*argv):
    return main([str(a) for a in argv])


def trig_field():
    """(x2, -x1 + sin x1): its one trig atom with a coefficient other than
    zero sends sim to Monte Carlo."""
    basis = trig_extend(monomial_basis(2, 1))  # 1, x1, x2, cos x1, cos x2, sin x1, sin x2
    return sf.BasisVectorField([sf.ScalarFunctionModel(basis, np.array(c)) for c in (
        [0, 0, 1.0, 0, 0, 0, 0], [0, -1.0, 0, 0, 0, 1.0, 0])])


def opt_config_file(tmp_path, **overrides):
    path = tmp_path / "opt.json"
    save_json({**EXPERIMENT_OPT, **overrides}, str(path))
    return str(path)


def test_gen_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "d.csv"
    assert run("gen", "--name", "cubic", "--size", "50", "--seed", "3",
               "--out", out) == 0
    data, targets = read_csv(str(out))
    assert data.shape == (50, 2)
    assert np.array_equal(targets, data[:, 0] ** 3 - data[:, 1] ** 2)
    sidecar = load_json(str(tmp_path / "d.json"))
    assert sidecar["name"] == "cubic"
    assert sidecar["seed"] == 3


def test_fit_fn_reproduces_polynomial(tmp_path):
    data_csv = tmp_path / "gq.csv"
    model_json = tmp_path / "f.json"
    assert run("gen", "--name", "gaussian-quadratic", "--size", "500",
               "--seed", "0", "--out", data_csv) == 0
    assert run("fit-fn", "--data", data_csv, "--degree", "2",
               "--out", model_json) == 0
    model = load_model(str(model_json))
    # (x-1)^2 + 4(y-1)^2 expanded over (1, x, y, x^2, xy, y^2)
    assert np.allclose(model.coefficients, [5, -2, -8, 1, 0, 4], atol=1e-8)
    assert load_json(str(model_json))["residual"] <= 1e-10


def test_fit_fn_on_an_overflowing_design_exits_2_without_lapack_noise(
        tmp_path, monkeypatch, capfd):
    # x^2 of 1e300 overflows the degree-2 design; LAPACK's least squares on
    # it prints "On entry to DLASCL ..." to the process's stderr, so the
    # finiteness check comes first
    monkeypatch.chdir(tmp_path)
    data = np.random.default_rng(0).standard_normal((20, 2))
    write_csv("huge.csv", 1e300 * np.sign(data), data[:, 0])
    assert run("fit-fn", "--data", "huge.csv", "--degree", "2", "--out", "f.json") == 2
    assert not (tmp_path / "f.json").exists()
    out, err = capfd.readouterr()
    assert "must be finite" in err
    assert "DLASCL" not in out + err


def test_fit_fn_reports_a_rank_deficient_design(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    t = np.linspace(0, 1, 40)
    write_csv("line.csv", np.column_stack([t, 2 * t]), t)  # y = 2x
    assert run("fit-fn", "--data", "line.csv", "--degree", "1", "--out", "f.json") == 0
    assert load_json("f.json")["rank_deficient"] is True
    write_csv("curve.csv", np.column_stack([t, t**2]), t)  # y = x^2
    assert run("fit-fn", "--data", "curve.csv", "--degree", "1", "--out", "f.json") == 0
    assert load_json("f.json")["rank_deficient"] is False


def test_pipeline_recovers_annihilating_field(tmp_path):
    data_csv = tmp_path / "gq.csv"
    run("gen", "--name", "gaussian-quadratic", "--size", "2000",
        "--seed", "0", "--out", data_csv)
    run("fit-fn", "--data", data_csv, "--degree", "2", "--out",
        tmp_path / "f.json")
    assert run("find-vf", "--model", tmp_path / "f.json", "--data", data_csv,
               "--vf-degree", "1", "--c", "1",
               "--opt-config", opt_config_file(tmp_path),
               "--out", tmp_path / "vf.json",
               "--trace-out", tmp_path / "trace.json") == 0
    assert load_json(str(tmp_path / "trace.json"))["final_loss"] <= 1e-6

    # truth: 4(y-1) d/dx - (x-1) d/dy annihilates (x-1)^2 + 4(y-1)^2
    truth = poly_field(2, 1, {(0, 0): -4.0, (0, 1): 4.0},
                       {(0, 0): 1.0, (1, 0): -1.0})
    save_model(truth, str(tmp_path / "truth.json"))
    estimate = load_model(str(tmp_path / "vf.json")).field(0)
    save_model(estimate, str(tmp_path / "est.json"))
    assert run("sim", "--truth", tmp_path / "truth.json",
               "--estimate", tmp_path / "est.json",
               "--data", data_csv, "--out", tmp_path / "sim.json") == 0
    report = load_json(str(tmp_path / "sim.json"))
    assert report["aggregate"] >= 0.99


def test_find_vf_on_a_kde_recovers_annihilating_field(tmp_path, monkeypatch):
    # the density of gaussian-quadratic is constant on the level sets of
    # (x-1)^2 + 4(y-1)^2, so the pipeline's truth field annihilates its KDE
    monkeypatch.chdir(tmp_path)
    save_json({"loss": "mean-squared"}, "opt.json")
    assert run("gen", "--name", "gaussian-quadratic", "--size", "2000",
               "--seed", "0", "--out", "d.csv") == 0
    assert run("fit-kde", "--data", "d.csv", "--out", "kde.json") == 0
    assert run("find-vf", "--model", "kde.json", "--data", "d.csv",
               "--vf-degree", "1", "--opt-config", "opt.json",
               "--out", "vf.json") == 0
    save_model(poly_field(2, 1, {(0, 0): 4.0, (0, 1): -4.0},
                          {(0, 0): -1.0, (1, 0): 1.0}), "truth.json")
    assert run("sim", "--truth", "truth.json", "--estimate", "vf.json",
               "--data", "d.csv", "--out", "sim.json") == 0
    assert load_json("sim.json")["aggregate"] >= 0.99  # 0.9982 on seed 0


def test_fit_levelset_project_affine_circle(tmp_path):
    data_csv = tmp_path / "c.csv"
    run("gen", "--name", "circle3d", "--size", "400", "--seed", "0",
        "--out", data_csv)
    out_dir = tmp_path / "ls"
    assert run("fit-levelset", "--data", data_csv, "--degree", "2",
               "--strategy", "project-affine",
               "--opt-config", opt_config_file(tmp_path),
               "--out", out_dir) == 0
    frame = load_json(str(out_dir / "frame.json"))
    assert len(frame["axes"]) == 2
    reduced, _ = read_csv(str(out_dir / "reduced.csv"))
    assert reduced.shape == (400, 2)
    assert np.abs(np.linalg.norm(reduced, axis=1) - 1.0).max() <= 1e-5

    elbow = load_json(str(out_dir / "reduced_elbow.json"))
    assert elbow["selected"] == 1 and not elbow["no_elbow"]
    model = load_model(str(out_dir / "reduced_model.json"))
    w = model.W[:, 0]
    expect = np.array([-1.0, 0, 0, 1.0, 0, 1.0]) / np.sqrt(3)
    assert min(np.abs(w - expect).max(), np.abs(w + expect).max()) <= 1e-2


def test_fit_levelset_project_affine_onto_a_point_writes_no_empty_table(
        tmp_path, monkeypatch):
    # n affine constraints leave no coordinates; reduced.csv used to be
    # written as bare newlines, which read_csv refuses
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((12, 2)))
    assert run("fit-levelset", "--data", "d.csv", "--strategy", "project-affine",
               "--k", "2", "--out", "ls") == 0
    assert sorted(os.listdir("ls")) == ["affine_model.json", "frame.json"]
    assert load_json("ls/frame.json")["axes"] == []


def test_fit_levelset_extend_columns(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 300)
    data = np.column_stack([x, 2 * x])
    write_csv(str(tmp_path / "line.csv"), data)
    known = poly_model(monomial_basis(2, 1), {(0, 1): 1.0, (1, 0): -2.0})
    save_model(known, str(tmp_path / "known.json"))
    out_dir = tmp_path / "ext"
    assert run("fit-levelset", "--data", tmp_path / "line.csv",
               "--degree", "2", "--strategy", "extend-columns",
               "--known", tmp_path / "known.json", "--k", "1",
               "--opt-config", opt_config_file(tmp_path),
               "--out", out_dir) == 0
    full = load_model(str(out_dir / "model_full.json"))
    stripped = load_model(str(out_dir / "model.json"))
    assert len(full.basis) > len(stripped.basis)
    assert not any(a.artificial for a in stripped.basis.atoms)


@pytest.mark.parametrize("k", [["--k", "2"], ["--k", "3"], []])
def test_fit_levelset_extend_columns_keeps_several_columns(tmp_path, monkeypatch, k):
    # the stripped columns were renormalized one by one, at an angle to each
    # other, and the model was refused as not orthonormal (exit 2)
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--name", "circle3d", "--size", "300", "--seed", "0",
               "--out", "c.csv") == 0
    save_model(poly_model(monomial_basis(3, 1), {(0, 0, 1): 1.0}), "z.json")
    assert run("fit-levelset", "--data", "c.csv", "--strategy", "extend-columns",
               "--known", "z.json", "--degree", "2", *k,
               "--opt-config", opt_config_file(tmp_path), "--out", "ext") == 0
    full, stripped = load_model("ext/model_full.json"), load_model("ext/model.json")
    W = stripped.W
    assert W.shape[1] == full.W.shape[1] >= 2
    assert np.abs(W.T @ W - np.eye(W.shape[1])).max() <= 1e-12


def test_flow_quarter_turn(tmp_path):
    field = poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0})  # y d/dx - x d/dy
    save_model(field, str(tmp_path / "rot.json"))
    assert run("flow", "--field", tmp_path / "rot.json", "--x0", "1,0",
               "--t", np.pi / 2, "--steps", "2000",
               "--out", tmp_path / "traj.csv") == 0
    traj, _ = read_csv(str(tmp_path / "traj.csv"))
    assert traj.shape == (2001, 2)
    assert np.allclose(traj[0], [1.0, 0.0])
    assert np.allclose(traj[-1], [0.0, -1.0], atol=1e-8)


def test_negative_leading_vector_values(tmp_path):
    """"--x0 -1,0.5" and "--lower -3,-1" parse like their "=" forms."""
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}),
               str(tmp_path / "rot.json"))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               str(tmp_path / "m.json"))
    outputs = {}
    for form in ("split", "joined"):
        def vec(option, value):
            return [option, value] if form == "split" else [f"{option}={value}"]
        out = tmp_path / f"traj-{form}.csv"
        assert run("flow", "--field", tmp_path / "rot.json",
                   *vec("--x0", "-1,0.5"), "--t", "0.5", "--steps", "20",
                   "--out", out) == 0
        grid = tmp_path / f"grid-{form}.csv"
        assert run("grid", "--model", tmp_path / "m.json",
                   *vec("--lower", "-3,-1"), "--upper", "1,1",
                   "--resolution", "4", "--out", grid) == 0
        outputs[form] = (out.read_bytes(), grid.read_bytes())
    assert outputs["split"] == outputs["joined"]
    traj, _ = read_csv(str(tmp_path / "traj-split.csv"))
    assert np.allclose(traj[0], [-1.0, 0.5])


def test_flow_divergence_exit_code(tmp_path):
    field = poly_field(2, 2, {(2, 0): 1.0}, {})  # x^2 d/dx blows up
    save_model(field, str(tmp_path / "bad.json"))
    assert run("flow", "--field", tmp_path / "bad.json", "--x0", "1,0",
               "--t", "5", "--steps", "200",
               "--out", tmp_path / "traj.csv") == 3


@pytest.mark.parametrize("field,x0,t,code", [
    ("rot", "nan,1", "1", 2),
    ("rot", "1,0", "inf", 2),
    ("rot", "1,0", "nan", 2),
    ("rot", "2", "1", 2),
    ("rot", "2,1,0", "1", 2),
    ("blowup", "1,0", "5", 3),
])
def test_flow_input_exit_codes(tmp_path, monkeypatch, field, x0, t, code):
    """Bad starts and times are validation errors; divergence is numerical."""
    monkeypatch.chdir(tmp_path)
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(poly_field(2, 2, {(2, 0): 1.0}, {}), "blowup.json")
    assert run("flow", "--field", f"{field}.json", "--x0", x0, "--t", t,
               "--steps", "200", "--out", "traj.csv") == code
    assert not (tmp_path / "traj.csv").exists()


def test_demo_06_pipeline(tmp_path, monkeypatch):
    """demos/06_cli_pipeline.sh's stages in process, with the demo's arguments:
    the flow of the estimated field keeps the fitted f constant."""
    monkeypatch.chdir(tmp_path)
    save_json({"loss": "mean-squared"}, "opt.json")
    assert run("gen", "--name", "gaussian-quadratic", "--size", "2000",
               "--seed", "0", "--out", "data.csv") == 0
    assert run("fit-fn", "--data", "data.csv", "--degree", "2",
               "--out", "f.json") == 0
    assert run("find-vf", "--model", "f.json", "--data", "data.csv",
               "--vf-degree", "1", "--c", "1", "--opt-config", "opt.json",
               "--out", "field.json", "--trace-out", "trace.json") == 0
    assert run("flow", "--field", "field.json", "--x0", "2,1", "--t", "3",
               "--steps", "3000", "--out", "trajectory.csv") == 0
    trajectory, _ = read_csv("trajectory.csv")
    assert trajectory.shape == (3001, 2)
    values = load_model("f.json")(trajectory)
    assert np.abs(values - values[0]).max() <= 1e-3


def test_transform_invariant_plus_angle(tmp_path):
    theta = np.linspace(0.1, 2.0, 25)
    data = np.column_stack([np.cos(theta), np.sin(theta)])
    write_csv(str(tmp_path / "circ.csv"), data)
    inv = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    save_json({"models": [model_to_dict(inv)]}, str(tmp_path / "inv.json"))
    assert run("transform", "--data", tmp_path / "circ.csv",
               "--invariants", tmp_path / "inv.json", "--angle",
               "--out", tmp_path / "t.csv") == 0
    with open(tmp_path / "t.csv") as fh:
        assert fh.readline().strip() == "h1,theta"
    table, _ = read_csv(str(tmp_path / "t.csv"))
    assert np.allclose(table[:, 0], 1.0, atol=1e-12)
    assert np.allclose(table[:, 1], theta, atol=1e-12)


def test_transform_angle_only_single_column(tmp_path):
    write_csv(str(tmp_path / "d.csv"), np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert run("transform", "--data", tmp_path / "d.csv", "--angle",
               "--out", tmp_path / "t.csv") == 0
    table, _ = read_csv(str(tmp_path / "t.csv"))
    assert table.shape == (2, 1)
    assert table[0, 0] == pytest.approx(np.pi / 4)


def test_transform_without_outputs_fails(tmp_path):
    write_csv(str(tmp_path / "d.csv"), np.zeros((3, 2)))
    assert run("transform", "--data", tmp_path / "d.csv",
               "--out", tmp_path / "t.csv") == 2


def _binned_r2(key, targets, bins):
    """In-sample R^2 of a piecewise-constant predictor over equal-count cells."""
    order = np.argsort(key)
    edges = np.array_split(order, bins)
    pred = np.full_like(targets, targets.mean())
    for cell in edges:
        if cell.size:
            pred[cell] = targets[cell].mean()
    ss_res = np.sum((targets - pred) ** 2)
    ss_tot = np.sum((targets - targets.mean()) ** 2)
    return 1.0 - ss_res / ss_tot


def test_angle_coordinate_explains_sector_targets(tmp_path):
    run("gen", "--name", "disc-rot", "--size", "2000", "--seed", "0",
        "--out", tmp_path / "d.csv")
    data, targets = read_csv(str(tmp_path / "d.csv"))
    assert run("transform", "--data", tmp_path / "d.csv", "--angle",
               "--out", tmp_path / "theta.csv") == 0
    theta = read_csv(str(tmp_path / "theta.csv"))[0][:, 0]

    r2_theta = _binned_r2(theta, targets, 196)
    # same cell count in the raw coordinates: a 14x14 grid
    qs = np.linspace(0, 1, 15)[1:-1]
    xcell = np.digitize(data[:, 0], np.quantile(data[:, 0], qs))
    ycell = np.digitize(data[:, 1], np.quantile(data[:, 1], qs))
    raw_key = xcell * 14 + ycell
    pred = np.full_like(targets, targets.mean())
    for cell in np.unique(raw_key):
        mask = raw_key == cell
        pred[mask] = targets[mask].mean()
    r2_raw = 1.0 - np.sum((targets - pred) ** 2) / np.sum(
        (targets - targets.mean()) ** 2
    )
    assert r2_theta >= 0.9
    assert r2_raw <= 0.7


def test_fit_fn_without_targets_fails(tmp_path):
    write_csv(str(tmp_path / "d.csv"), np.zeros((5, 2)))
    assert run("fit-fn", "--data", tmp_path / "d.csv",
               "--out", tmp_path / "f.json") == 2


def test_missing_input_file_fails(tmp_path):
    assert run("fit-fn", "--data", tmp_path / "nope.csv",
               "--out", tmp_path / "f.json") == 2


@pytest.mark.parametrize("command", [
    ["fit-fn"],
    ["fit-levelset", "--k", "1"],
    ["find-vf", "--model", "m.json"],
])
def test_header_only_csv_fails(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("x1,x2,target\n")
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               "m.json")
    assert run(*command, "--data", "d.csv", "--out", "out") == 2


def test_opt_config_wrong_type_fails(tmp_path):
    run("gen", "--name", "gaussian-quadratic", "--size", "50", "--seed", "0",
        "--out", tmp_path / "d.csv")
    run("fit-fn", "--data", tmp_path / "d.csv", "--out", tmp_path / "f.json")
    assert run("find-vf", "--model", tmp_path / "f.json",
               "--data", tmp_path / "d.csv",
               "--opt-config", opt_config_file(tmp_path, epochs="x"),
               "--out", tmp_path / "vf.json") == 2


@pytest.mark.parametrize("config, name", [
    ('{"learning-rate": 0.5}', "learning-rate"),
    ('{"learning_rate": NaN}', "learning_rate"),
    ('{"learning_rate": Infinity}', "learning_rate"),
    ('{"adagrad_epsilon": NaN}', "adagrad_epsilon"),
    ('{"algorithm": "riemannian-sgd"}', "riemannian-sgd"),
    ('{"adagrad_epsilon": 1e-10}', "adagrad_epsilon"),
], ids=["unknown-key", "nan-rate", "inf-rate", "nan-epsilon", "sgd", "epsilon"])
@pytest.mark.parametrize("command", [
    ["find-vf", "--model", "f.json", "--data", "d.csv"],
    ["discrete", "--model", "f.json", "--data", "d.csv", "--family", "reflection"],
], ids=["find-vf", "discrete"])
def test_opt_config_unknown_key_or_nonfinite_rate_fails(
        tmp_path, monkeypatch, capsys, command, config, name):
    # an unknown key used to be dropped and the defaults ran; a NaN or
    # infinite rate passed validation; Adagrad with a fixed epsilon is the
    # one update rule, and sgd or an epsilon used to run
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    (tmp_path / "opt.json").write_text(config + "\n")
    assert run(*command, "--opt-config", "opt.json", "--out", "out.json") == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMFIELD_SEED", "7")
    run("gen", "--name", "cubic", "--size", "40", "--seed", "5",
        "--out", tmp_path / "env.csv")
    monkeypatch.delenv("SYMFIELD_SEED")
    run("gen", "--name", "cubic", "--size", "40", "--seed", "7",
        "--out", tmp_path / "direct.csv")
    run("gen", "--name", "cubic", "--size", "40", "--seed", "5",
        "--out", tmp_path / "five.csv")
    env = (tmp_path / "env.csv").read_bytes()
    assert env == (tmp_path / "direct.csv").read_bytes()
    assert env != (tmp_path / "five.csv").read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        run("gen", "--name", "gaussian-quadratic", "--size", "200",
            "--seed", "1", "--out", d / "d.csv")
        run("fit-fn", "--data", d / "d.csv", "--out", d / "f.json")
        run("fit-levelset", "--data", d / "d.csv", "--k", "1",
            "--opt-config", opt_config_file(d, epochs=200),
            "--out", d / "ls")
        outs.append(d)
    for rel in ("d.csv", "f.json", "ls/model.json"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_grid_command(tmp_path):
    model = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    save_model(model, str(tmp_path / "m.json"))
    assert run("grid", "--model", tmp_path / "m.json", "--lower=-1,-1",
               "--upper", "1,1", "--resolution", "5",
               "--out", tmp_path / "g.csv") == 0
    with open(tmp_path / "g.csv") as fh:
        assert fh.readline().strip() == "x1,x2,value"
    table, _ = read_csv(str(tmp_path / "g.csv"))
    assert table.shape == (25, 3)
    assert np.allclose(table[:, 2], table[:, 0] ** 2 + table[:, 1] ** 2)
    assert run("grid", "--model", tmp_path / "m.json", "--lower", "1,1",
               "--upper", "0,0", "--out", tmp_path / "g2.csv") == 2


@pytest.mark.parametrize("case", ["levelset", "field"])
def test_grid_writes_every_output(tmp_path, case):
    # grid used to write only the first output of a multi-output model
    if case == "levelset":  # F = (x, y) over (1, x, y)
        model = sf.LevelSetModel(monomial_basis(2, 1),
                                 np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    else:
        model = poly_field(2, 1, {(0, 1): -1.0}, {(1, 0): 2.0})
    save_model(model, str(tmp_path / "m.json"))
    assert run("grid", "--model", tmp_path / "m.json", "--lower=-1,-1",
               "--upper", "1,2", "--resolution", "4",
               "--out", tmp_path / "g.csv") == 0
    with open(tmp_path / "g.csv") as fh:
        assert fh.readline().strip() == "x1,x2,value1,value2"
    table, _ = read_csv(str(tmp_path / "g.csv"))
    assert table.shape == (16, 4)
    assert np.array_equal(table[:, 2:], model(table[:, :2]))


def test_grid_reads_a_found_field_as_its_basisfield_form(tmp_path, monkeypatch):
    # grid refused find-vf's vectorfield output and gridded the same field
    # written as basisfield components
    monkeypatch.chdir(tmp_path)
    data, targets = sf.generate(sf.GeneratorSpec("gaussian-quadratic", 200, 0))
    write_csv("d.csv", data, targets)
    save_json({"loss": "mean-squared"}, "opt.json")
    assert run("fit-fn", "--data", "d.csv", "--out", "f.json") == 0
    assert run("find-vf", "--model", "f.json", "--data", "d.csv",
               "--opt-config", "opt.json", "--out", "vf.json") == 0
    found = load_json("vf.json")
    column, m = found["columns"][0], len(found["basis"]["atoms"])
    save_json({"type": "basisfield", "components": [
        {"basis": found["basis"], "coefficients": column[i * m:(i + 1) * m]}
        for i in range(2)]}, "bf.json")
    for name in ("vf", "bf"):
        assert run("grid", "--model", f"{name}.json", "--lower=-1,-1", "--upper",
                   "1,1", "--resolution", "7", "--out", f"{name}.csv") == 0
    assert (tmp_path / "vf.csv").read_bytes() == (tmp_path / "bf.csv").read_bytes()
    with open(tmp_path / "vf.csv") as fh:
        assert fh.readline().strip() == "x1,x2,value1,value2"


@pytest.mark.parametrize("option", ["--invariants", "--flow-param"])
def test_transform_model_of_another_dimension_fails(tmp_path, monkeypatch,
                                                    option):
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    model = poly_model(monomial_basis(3, 1), {(1, 0, 0): 1.0})
    if option == "--invariants":
        save_json({"models": [model_to_dict(model)]}, "m.json")
    else:
        save_model(model, "m.json")
    assert run("transform", "--data", "d.csv", option, "m.json",
               "--out", "t.csv") == 2
    assert not (tmp_path / "t.csv").exists()


def _tree(op, *args, **extra):
    return {"op": op, "args": list(args), **extra}


@pytest.mark.parametrize("family", ["reflection", "rotation"])
def test_discrete_builtin_family_is_user_linear_data(tmp_path, monkeypatch,
                                                     family):
    # a built-in family and its entries given as user-linear trees write the
    # same bytes
    monkeypatch.chdir(tmp_path)
    a, b = {"param": 0}, {"param": 1}
    if family == "reflection":
        x = np.random.default_rng(2).uniform(-2, 2, 300)
        write_csv("d.csv", np.column_stack([x, x**2]))
        save_model(poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0}),
                   "f.json")
        square = lambda t: _tree("pow", t, exponent=2)
        cross = _tree("mul", {"const": -2}, a, b)
        entries = [[_tree("add", square(b), _tree("neg", square(a))), cross],
                   [cross, _tree("add", square(a), _tree("neg", square(b)))]]
        options = ["--n-params", "2"]
    else:
        write_csv("d.csv", np.random.default_rng(3).standard_normal((300, 2)))
        save_model(poly_model(monomial_basis(2, 3), {(3, 0): 1.0, (1, 2): -3.0}),
                   "f.json")
        entries = [[_tree("cos", a), _tree("sin", a)],
                   [_tree("neg", _tree("sin", a)), _tree("cos", a)]]
        options = ["--n-params", "1", "--lo", "1.0", "--hi", "3.0"]
    save_json({"entries": entries}, "entries.json")
    common = ["discrete", "--model", "f.json", "--data", "d.csv"]
    assert run(*common, "--family", family, *options[2:],
               "--out", "builtin.json") == 0
    assert run(*common, "--family", "user-linear", "--entries", "entries.json",
               *options, "--out", "user.json") == 0
    assert (tmp_path / "builtin.json").read_bytes() == (
        tmp_path / "user.json").read_bytes()
    want = [1.0, 0.0] if family == "reflection" else [2 * np.pi / 3]
    np.testing.assert_allclose(load_json("builtin.json")["parameters"], want,
                               rtol=0, atol=1e-6)


def test_discrete_command_reflection(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 300)
    write_csv(str(tmp_path / "p.csv"), np.column_stack([x, x**2]))
    f = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
    save_model(f, str(tmp_path / "f.json"))
    assert run("discrete", "--model", tmp_path / "f.json",
               "--data", tmp_path / "p.csv", "--family", "reflection",
               "--opt-config", opt_config_file(tmp_path, learning_rate=0.05,
                                               epochs=2000),
               "--out", tmp_path / "r.json") == 0
    result = load_json(str(tmp_path / "r.json"))
    a, b = result["parameters"]
    assert abs(a) == pytest.approx(1.0, abs=1e-3)
    assert abs(b) <= 1e-3


@pytest.mark.parametrize("family,bounds", [
    ("rotation", []),
    ("rotation", ["--lo", "1.0"]),
    ("rotation", ["--lo", "nan", "--hi", "3.0"]),
    ("user-linear", ["--lo", "1.0"]),
    ("user-linear", ["--hi", "3.0"]),
])
def test_discrete_interval_needs_finite_bounds(tmp_path, monkeypatch,
                                               family, bounds):
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               "f.json")
    save_json({"entries": [[{"op": "cos", "args": [{"param": 0}]}, 0],
                           [0, {"op": "cos", "args": [{"param": 0}]}]]},
              "entries.json")
    entries = ["--entries", "entries.json"] if family == "user-linear" else []
    assert run("discrete", "--model", "f.json", "--data", "d.csv",
               "--family", family, *entries, *bounds, "--out", "r.json") == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("family,options", [
    ("reflection", ["--lo", "0.1", "--hi", "0.2"]),
    ("reflection", ["--hi", "0.2"]),
    ("reflection", ["--n-params", "5"]),
    ("reflection", ["--entries", "nonexist.json"]),
    ("reflection", ["--theta-min", "9"]),
    ("rotation", ["--lo", "1", "--hi", "3", "--n-params", "1"]),
    ("rotation", ["--lo", "1", "--hi", "3", "--entries", "entries.json"]),
])
def test_discrete_refuses_an_option_its_family_does_not_read(
        tmp_path, monkeypatch, family, options):
    # each exited 0 and wrote the bytes the command wrote without the option
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    save_json({"entries": [[1, 0], [0, 1]]}, "entries.json")
    try:
        code = run("discrete", "--model", "f.json", "--data", "d.csv",
                   "--family", family, *options, "--out", "r.json")
    except SystemExit as exc:  # an option that no family reads
        code = exc.code
    assert code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command,options", [
    (["find-vf", "--model", "f.json", "--data", "d.csv", "--escalate"],
     ["--vf-degree", "3"]),
    (["fit-levelset", "--data", "d.csv", "--k", "1"], ["--k-max", "3"]),
    (["fit-levelset", "--data", "d.csv"], ["--known", "f.json"]),
    (["fit-levelset", "--data", "line.csv", "--strategy", "project-affine"],
     ["--known", "f.json"]),
    (["fit-kde", "--data", "d.csv"], ["--weight-power", "3"]),
    (["fit-kde", "--data", "d.csv", "--weights", "none"], ["--weight-power", "1"]),
    (["sim", "--truth", "rot.json", "--estimate", "rot.json", "--data", "d.csv"],
     ["--lower", "0,0", "--upper", "1,1"]),
    (["sim", "--truth", "rot.json", "--estimate", "rot.json", "--data", "d.csv"],
     ["--upper", "1,1"]),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "reflection"],
     ["--entries", "entries.json"]),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "rotation",
      "--lo", "1", "--hi", "3"], ["--n-params", "1"]),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "reflection"],
     ["--lo", "0.1", "--hi", "0.2"]),
], ids=["escalate-vf-degree", "k-k-max", "plain-known",
        "project-affine-known", "weight-power", "weights-none-weight-power",
        "data-box", "data-upper", "reflection-entries",
        "rotation-n-params", "reflection-bounds"])
def test_an_option_its_path_leaves_unread_exits_2(tmp_path, monkeypatch, capsys,
                                                   command, options):
    # each pair but the two discrete ones exited 0 with the option dropped;
    # the command line without it exits 0
    monkeypatch.chdir(tmp_path)
    data = np.random.default_rng(0).standard_normal((20, 2))
    write_csv("d.csv", data, data[:, 0] ** 2 + 1)
    write_csv("line.csv", np.column_stack([data[:, 0], 2 * data[:, 0] + 1]))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               "f.json")
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_json({"entries": [[1, 0], [0, 1]]}, "entries.json")
    assert run(*command, "--out", "valid") == 0
    capsys.readouterr()
    assert run(*command, *options, "--out", "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command[0]} ") and err.count("\n") == 1
    assert f"reads no {options[0]}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,option", [
    (["fit-levelset", "--data", "d.csv", "--k-max", "2"], ["--elbow-ratio", "10"]),
    (["fit-levelset", "--data", "d.csv", "--k", "1"], ["--elbow-ratio", "10"]),
    (["sim", "--truth", "rot.json", "--estimate", "rot.json", "--lower", "0,0",
      "--upper", "1,1"], ["--method", "auto"]),
    (["sim", "--truth", "rot.json", "--estimate", "rot.json", "--lower", "0,0",
      "--upper", "1,1"], ["--method", "analytic"]),
    (["sim", "--truth", "trig.json", "--estimate", "trig.json", "--lower", "0,0",
      "--upper", "1,1"], ["--method", "monte-carlo"]),
], ids=["k-max-elbow-ratio", "k-elbow-ratio", "sim-auto", "sim-analytic",
        "sim-monte-carlo"])
def test_a_deleted_option_is_unrecognised(tmp_path, monkeypatch, capsys,
                                          command, option):
    # the elbow ratio is the constant ELBOW_RATIO and sim takes its method
    # from the fields; the command line without the option exits 0
    monkeypatch.chdir(tmp_path)
    run("gen", "--name", "circle3d", "--size", "100", "--out", "d.csv")
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(trig_field(), "trig.json")
    assert run(*command, "--out", "valid") == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        run(*command, *option, "--out", "out")
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unread_options_are_options_of_their_command_that_default_to_none():
    # main sees an option as set when its parsed value is not None
    parsers = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices
    for command, paths in UNREAD_OPTIONS.items():
        actions = {s: a for a in parsers[command]._actions for s in a.option_strings}
        for _, _, options in paths:
            for option in options:
                assert actions[option].default is None, (command, option)


@pytest.mark.parametrize("config", [{"algorithm": "riemannian-sgd"},
                                    {"loss": "mean-squared"}])
def test_discrete_refuses_an_opt_config_on_a_kde(tmp_path, monkeypatch, config):
    # a density fit is always mean-absolute and reads no optimizer settings:
    # both files exited 0, the first one invalid on a scalar model
    _kde_inputs(tmp_path, monkeypatch)
    save_json(config, "opt.json")
    assert run("discrete", "--model", "kde.json", "--data", "d.csv",
               "--family", "reflection", "--opt-config", "opt.json",
               "--out", "r.json") == 2
    assert not (tmp_path / "r.json").exists()


def test_user_linear_without_n_params_has_one_parameter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    save_json({"entries": [[_tree("cos", {"param": 0}), 0], [0, 1]]}, "entries.json")
    common = ["discrete", "--model", "f.json", "--data", "d.csv",
              "--family", "user-linear", "--entries", "entries.json"]
    assert run(*common, "--out", "default.json") == 0
    assert run(*common, "--n-params", "1", "--out", "one.json") == 0
    assert (tmp_path / "default.json").read_bytes() == (
        tmp_path / "one.json").read_bytes()


@pytest.mark.parametrize("entries,n_params", [
    ({"entries": [[{"param": 1}, 0], [0, 1]]}, "1"),
    ({"entries": [[{"op": "pow", "args": [{"param": 0}]}, 0], [0, 1]]}, "1"),
    ({"entries": [[{"op": "exp", "args": [{"param": 0}]}, 0], [0, 1]]}, "1"),
    ({"entries": [[1, 0], [0, 1], [0, 0]]}, "1"),
    ({"entries": 5}, "1"),
    ({"entries": [[1, 0], [0, 1]]}, "0"),
    ([[1, 0], [0, 1]], "1"),  # a bare list, not an object
    ({"matrix": [[1, 0], [0, 1]]}, "1"),
    (None, "1"),  # no --entries at all
    # the checker read the const and the evaluator parameter 5: exit 1
    ({"entries": [[{"const": 1, "param": 5}, 0], [0, 1]]}, "1"),
])
def test_discrete_user_linear_bad_entries_fail(tmp_path, monkeypatch,
                                               entries, n_params):
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               "f.json")
    option = []
    if entries is not None:
        save_json(entries, "entries.json")
        option = ["--entries", "entries.json"]
    assert run("discrete", "--model", "f.json", "--data", "d.csv",
               "--family", "user-linear", *option, "--n-params", n_params,
               "--out", "r.json") == 2
    assert not (tmp_path / "r.json").exists()


def _kde_inputs(tmp_path, monkeypatch):
    """d.csv holding four-fold blobs, their KDE kde.json and a scalar model
    f.json, in the working directory."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(6)
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    data = centers[rng.integers(0, 4, 400)] + 0.1 * rng.standard_normal((400, 2))
    write_csv("d.csv", data)
    save_model(sf.kde_fit(data), "kde.json")
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0}),
               "f.json")
    return read_csv("d.csv")[0]


def test_discrete_fits_a_reflection_to_a_kde(tmp_path, monkeypatch):
    # a KDE model was taken by density-rotation alone; reflection exited 2
    data = _kde_inputs(tmp_path, monkeypatch)
    assert run("discrete", "--model", "kde.json", "--data", "d.csv",
               "--family", "reflection", "--out", "r.json") == 0
    want = sf.fit_density(load_model("kde.json"), data, sf.reflection_family())
    assert load_json("r.json") == want.to_dict()


def test_density_rotation_is_the_rotation_family_on_a_kde(tmp_path, monkeypatch):
    # a density rotation with excluded region 0.5 is the rotation family
    # over (0.5, 2 pi - 0.5)
    data = _kde_inputs(tmp_path, monkeypatch)
    assert run("discrete", "--model", "kde.json", "--data", "d.csv",
               "--family", "rotation", "--lo", "0.5",
               "--hi", "5.783185307179586", "--out", "rotation.json") == 0
    want = sf.fit_density_rotation(load_model("kde.json"), data, 0.5)
    assert load_json("rotation.json") == want.to_dict()


def test_discrete_refuses_a_family_that_leaves_the_density_table(
        tmp_path, monkeypatch, capsys):
    _kde_inputs(tmp_path, monkeypatch)
    scale = _tree("add", 1, {"param": 0})
    save_json({"entries": [[scale, 0], [0, scale]]}, "entries.json")
    assert run("discrete", "--model", "kde.json", "--data", "d.csv",
               "--family", "user-linear", "--entries", "entries.json",
               "--lo", "0.1", "--hi", "1", "--out", "r.json") == 2
    assert "density table" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_density_rotation_needs_a_kde(tmp_path, monkeypatch):
    # density-rotation is no family of its own: rotation takes a KDE
    _kde_inputs(tmp_path, monkeypatch)
    for model in ("f.json", "kde.json"):
        with pytest.raises(SystemExit) as exit_:
            run("discrete", "--model", model, "--data", "d.csv",
                "--family", "density-rotation", "--out", "r.json")
        assert exit_.value.code == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", [
    ["sim", "--truth", "f.json", "--estimate", "vf.json", "--data", "d.csv"],
    ["sim", "--truth", "vf.json", "--estimate", "f.json", "--data", "d.csv"],
    ["flow", "--field", "f.json", "--x0", "1,0", "--t", "1"],
    ["flow", "--field", "list.json", "--x0", "1,0", "--t", "1"],
    ["grid", "--model", "list.json", "--lower", "0,0", "--upper", "1,1"],
    ["find-invariants", "--vf", "f.json", "--data", "d.csv"],
    ["flow-param", "--vf", "f.json", "--data", "d.csv"],
    ["transform", "--data", "d.csv", "--flow-param", "vf.json"],
])
def test_wrong_model_type_fails(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "vf.json")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    assert run(*command, "--out", "out.csv") == 2
    assert not (tmp_path / "out.csv").exists()


def test_grid_resolution_below_one_fails(tmp_path):
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}),
               str(tmp_path / "m.json"))
    for resolution in ("0", "-3"):
        assert run("grid", "--model", tmp_path / "m.json", "--lower", "0,0",
                   "--upper", "1,1", "--resolution", resolution,
                   "--out", tmp_path / "g.csv") == 2
    assert not (tmp_path / "g.csv").exists()


def test_grid_refuses_values_that_overflow(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "m.json")
    assert run("grid", "--model", "m.json", "--lower", "0,0",
               "--upper", "1e300,1e300", "--resolution", "2",
               "--out", "g.csv") == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_cli_import_does_not_load_scipy_optimize():
    """No stage needs scipy: a fresh interpreter that imports the CLI and
    fits a discrete symmetry and a density rotation never loads it."""
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = """
import sys
import numpy as np
import symfield as sf, symfield.cli
data = np.random.default_rng(0).standard_normal((60, 2))
f = sf.ScalarFunctionModel(sf.monomial_basis(2, 2), np.arange(6.0))
sf.fit_discrete(f, data, sf.reflection_family(), sf.OptimizerConfig())
sf.fit_density_rotation(sf.kde_fit(data), data, np.pi / 6)
sys.exit(any(name.split(".")[0] == "scipy" for name in sys.modules))
"""
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("argv,dest,value", [
    (["flow", "--field", "f.json", "--x0", "1,0", "--t", "-1e-3"], "t", -1e-3),
    (["flow", "--field", "f.json", "--x0", "-1e-3,2", "--t", "1"], "x0", [-1e-3, 2]),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "rotation",
      "--lo", "-2E-1", "--hi", "3"], "lo", -0.2),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "rotation",
      "--lo", "-3", "--hi", "-1e-1"], "hi", -0.1),
    (["discrete", "--model", "f.json", "--data", "d.csv", "--family", "user-linear",
      "--entries", "e.json", "--lo", "-.5e-2", "--hi", "1"], "lo", -5e-3),
    (["grid", "--model", "m.json", "--lower", "-1e-1,-1", "--upper", "1,1"],
     "lower", [-0.1, -1]),
    (["sim", "--truth", "a.json", "--estimate", "b.json", "--lower", "0,0",
      "--upper", "-1e-1,1"], "upper", [-0.1, 1]),
    (["pullback", "--source", "s.csv", "--image", "i.csv", "--point", "-2e0,1"],
     "point", [-2, 1]),
])
def test_negative_numeric_values_parse_like_attached_form(argv, dest, value):
    """Every numeric option takes a negative value in exponent notation
    after a space, as its "=" form does."""
    split = vars(build_parser().parse_args(
        _attach_negative_values(argv + ["--out", "o"])))
    assert np.array_equal(split[dest], value)
    i = argv.index("--" + dest.replace("_", "-"))
    joined = argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2:]
    joined = vars(build_parser().parse_args(joined + ["--out", "o"]))
    assert joined.keys() == split.keys()
    assert all(np.array_equal(joined[key], split[key]) for key in split)


def test_flow_negative_exponent_time(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    assert run("flow", "--field", "rot.json", "--x0", "1,0", "--t", "-1e-3",
               "--steps", "10", "--out", "split.csv") == 0
    assert run("flow", "--field", "rot.json", "--x0", "1,0", "--t=-1e-3",
               "--steps", "10", "--out", "joined.csv") == 0
    split, joined = tmp_path / "split.csv", tmp_path / "joined.csv"
    assert split.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("command", [
    ["grid", "--model", "vfm2.json", "--lower", "0,0", "--upper", "1,1"],
    ["find-vf", "--model", "vfm.json", "--data", "d.csv"],
    ["flow", "--field", "deep.json", "--x0", "1", "--t", "1"],
    ["sim", "--truth", "deep.json", "--estimate", "deep.json", "--lower", "0",
     "--upper", "1"],
    ["transform", "--data", "d.csv", "--invariants", "list.json"],
    ["transform", "--data", "d.csv", "--invariants", "kde_invariants.json"],
    ["find-vf", "--model", "f.json", "--data", "d.csv", "--opt-config", "list.json"],
    ["discrete", "--model", "f.json", "--data", "d.csv", "--family", "reflection",
     "--opt-config", "list.json"],
    ["fit-kde", "--data", "d.csv", "--bandwidth", "nan"],
    ["fit-kde", "--data", "d.csv", "--bandwidth", "inf"],
    ["fit-kde", "--data", "d.csv", "--bandwidth", "0"],
    ["fit-kde", "--data", "d.csv", "--bandwidth", "1e-300"],
    ["fit-kde", "--data", "d.csv", "--bandwidth", "1e300"],
])
def test_malformed_model_and_config_inputs_fail(tmp_path, monkeypatch, command):
    """A model of several fields gridded as one, a vector-field model where a
    function is needed, vector-field columns nested deeper than a matrix, an
    invariants or optimizer file that is not an object, and a bandwidth that
    is not positive with a finite normal square are validation errors."""
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), [0, 0, 1.0, 0, -1.0, 0]),
               "vfm.json")
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), np.eye(6)[:, :2]),
               "vfm2.json")
    save_json({"type": "vectorfield", "dimension": 1, "columns": [[[1.0]]], "basis":
               {"dimension": 1, "atoms": [{"kind": "monomial", "exponents": [0]}]}},
              "deep.json")
    save_model(sf.kde_fit(read_csv("d.csv")[0]), "kde.json")
    save_json({"models": [load_json("kde.json")]}, "kde_invariants.json")
    (tmp_path / "list.json").write_text("[1, 2]\n")
    assert run(*command, "--out", "out.json") == 2
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sim_monte_carlo_needs_a_sample(tmp_path, monkeypatch, capsys, samples):
    # zero samples used to exit 0 and write a NaN aggregate
    monkeypatch.chdir(tmp_path)
    save_model(trig_field(), "trig.json")
    assert run("sim", "--truth", "trig.json", "--estimate", "trig.json",
               "--lower", "0,0", "--upper", "1,1",
               "--mc-samples", samples, "--out", "sim.json") == 2
    assert "mc_samples must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sim.json").exists()


def test_sim_reports_the_method_the_fields_chose(tmp_path, monkeypatch):
    # polynomial fields integrate exactly and report no sample; a trig atom
    # samples --mc-samples points from --seed, which SYMFIELD_SEED overrides
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SYMFIELD_SEED", raising=False)
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(trig_field(), "trig.json")

    def sim(truth, seed, out):
        assert run("sim", "--truth", truth, "--estimate", "rot.json", "--lower",
                   "0,0", "--upper", "1,1", "--mc-samples", "1000", "--seed",
                   seed, "--out", out) == 0
        return load_json(out)

    poly = sim("rot.json", "5", "poly.json")
    assert poly["method"] == "analytic"
    assert "mc_samples" not in poly and "mc_seed" not in poly
    mc = sim("trig.json", "5", "mc.json")
    assert (mc["method"], mc["mc_samples"], mc["mc_seed"]) == ("monte-carlo", 1000, 5)
    seven = sim("trig.json", "7", "seven.json")
    assert seven["mc_seed"] == 7 and seven["aggregate"] != mc["aggregate"]
    monkeypatch.setenv("SYMFIELD_SEED", "7")
    sim("trig.json", "5", "env.json")
    assert (tmp_path / "env.json").read_bytes() == (tmp_path / "seven.json").read_bytes()


def test_sim_reports_a_degenerate_axis(tmp_path, monkeypatch):
    # a constant column is widened by 1e-9 each way; the domain used to be
    # written with no flag
    monkeypatch.chdir(tmp_path)
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    write_csv("flat.csv", np.array([[0.0, 2.0], [1.0, 2.0], [0.5, 2.0]]))
    write_csv("box.csv", np.array([[0.0, 2.0], [1.0, 3.0]]))
    for name in ("flat", "box"):
        assert run("sim", "--truth", "rot.json", "--estimate", "rot.json",
                   "--data", f"{name}.csv", "--out", f"{name}.json") == 0
    flat = load_json("flat.json")["domain"]
    assert flat["degenerate_axes"] == [1]
    assert flat["lower"][1] < 2.0 < flat["upper"][1]
    assert "degenerate_axes" not in load_json("box.json")["domain"]


@pytest.mark.parametrize("k,code", [("2.7", 2), ("1", 2), ("7.0", 0)])
def test_gen_disc_rot_k_must_be_integral(tmp_path, k, code):
    out = tmp_path / "d.csv"
    assert run("gen", "--name", "disc-rot", "--size", "50", "--param", f"k={k}",
               "--out", out) == code
    if code == 0:
        run("gen", "--name", "disc-rot", "--size", "50", "--out", tmp_path / "e.csv")
        assert out.read_bytes() == (tmp_path / "e.csv").read_bytes()
    else:
        assert not out.exists()


def test_gen_refuses_a_parameter_its_generator_does_not_read(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run("gen", "--name", "cubic", "--size", "50", "--param", "foo=1",
               "--out", out) == 2
    assert "foo" in capsys.readouterr().err
    assert not out.exists()


def test_grid_refuses_one_dimensional_points_for_a_planar_density(
        tmp_path, monkeypatch, capsys):
    # the (n, 1) grid points used to broadcast against the 2-D centres, so
    # the density was written at (x, x)
    monkeypatch.chdir(tmp_path)
    run("gen", "--name", "disc-rot", "--size", "200", "--out", "d.csv")
    assert run("fit-kde", "--data", "d.csv", "--out", "kde.json") == 0
    assert run("grid", "--model", "kde.json", "--lower", "0", "--upper", "1",
               "--out", "g.csv") == 2
    assert "2-dimensional density" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


def test_flow_refuses_a_model_of_several_fields(tmp_path, monkeypatch, capsys):
    # find-vf --c 2 writes such a model; flow used to integrate field 0
    monkeypatch.chdir(tmp_path)
    columns = np.zeros((6, 2))
    columns[[2, 4], 0] = [1.0, -1.0]
    columns[[1, 5], 1] = [1.0, 1.0]
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), columns), "vf.json")
    assert run("flow", "--field", "vf.json", "--x0", "1,0", "--t", "1",
               "--out", "t.csv") == 2
    assert "single field" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_flow_refuses_a_vector_field_with_a_nan_coefficient(
        tmp_path, monkeypatch, capsys):
    # the field used to load, and flow exited 3 with "flow state became
    # non-finite at step 0"
    monkeypatch.chdir(tmp_path)
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), [0, 0, 1.0, 0, -1.0, 0]),
               "vf.json")
    d = load_json("vf.json")
    d["columns"][0][2] = float("nan")
    (tmp_path / "vf.json").write_text(json.dumps(d))  # writes the literal NaN
    assert run("flow", "--field", "vf.json", "--x0", "1,0", "--t", "1",
               "--out", "t.csv") == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", [
    ["sim", "--truth", "rot.json", "--estimate", "rot.json",
     "--lower", "nan,0", "--upper", "1,1"],
    ["sim", "--truth", "rot.json", "--estimate", "rot.json",
     "--lower", "0,0", "--upper", "inf,1"],
    ["grid", "--model", "rot.json", "--lower", "nan,0", "--upper", "1,1"],
    ["grid", "--model", "rot.json", "--lower", "0,0", "--upper", "1,-inf"],
    ["flow", "--field", "rot.json", "--x0", "1,inf", "--t", "1"],
    ["pullback", "--source", "d.csv", "--image", "d.csv", "--point", "nan,0"],
    ["fit-kde", "--data", "t.csv", "--weights", "target", "--weight-power", "nan"],
    ["transform", "--data", "nan.csv", "--angle"],
    ["transform", "--data", "inf.csv", "--angle"],
    ["fit-kde", "--data", "nan.csv", "--bandwidth", "0.5"],
    ["grid", "--model", "nan_kde.json", "--lower", "0,0", "--upper", "1,1"],
    ["discrete", "--model", "kde.json", "--data", "nan.csv",
     "--family", "rotation", "--lo", "0.5", "--hi", "5.78"],
    # numpy warned on the way to each of the refusals below, and under
    # warnings as errors they exited 1
    ["transform", "--data", "huge.csv", "--invariants", "inv.json"],
    ["transform", "--data", "huge.csv", "--flow-param", "sq.json"],
    ["fit-levelset", "--data", "huge.csv", "--k", "1"],
    ["fit-levelset", "--data", "huge.csv", "--k", "1", "--opt-config", "mae.json"],
    ["discrete", "--model", "sq.json", "--data", "huge.csv", "--family", "reflection"],
    ["discrete", "--model", "sq.json", "--data", "d.csv", "--family", "user-linear",
     "--n-params", "2", "--entries", "recip.json"],
    ["fit-kde", "--data", "huge.csv"],
])
def test_non_finite_numbers_fail(tmp_path, monkeypatch, capsys, command):
    # sim wrote "aggregate": NaN, which is not JSON; grid and fit-kde wrote NaN;
    # from a CSV cell, transform wrote a nan angle, fit-kde a nan centre, grid
    # all-nan densities and density rotation "final_loss": NaN
    monkeypatch.chdir(tmp_path)
    data = np.random.default_rng(0).standard_normal((20, 2))
    write_csv("d.csv", data)
    write_csv("t.csv", np.random.default_rng(1).standard_normal((20, 2)),
              np.random.default_rng(2).uniform(0.5, 1.0, 20))
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(sf.kde_fit(data), "kde.json")
    save_model(sf.kde_fit(data), "nan_kde.json")
    sidecar = tmp_path / "nan_kde.centers.csv"
    sidecar.write_text(sidecar.read_text().replace(repr(float(data[3, 1])), "nan"))
    # write_csv refuses a non-finite cell, so each bad file is edited text
    for bad in ("nan", "inf"):
        (tmp_path / f"{bad}.csv").write_text(
            (tmp_path / "d.csv").read_text().replace(repr(float(data[3, 1])), bad))
    write_csv("huge.csv", 1e300 * data)
    square = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    save_model(square, "sq.json")
    save_json({"type": "invariants", "models": [model_to_dict(square)]}, "inv.json")
    save_json({"loss": "mean-absolute"}, "mae.json")
    # 1 / b is infinite at the fit's start (1, 0)
    save_json({"entries": [[{"op": "pow", "args": [{"param": 1}], "exponent": -1}, 0],
                           [0, 1]]}, "recip.json")
    assert run(*command, "--out", "out.json") == 2
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "out.centers.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("targets,power", [
    ([1.0, -1.0, 0.5, -0.5], "1"),  # weights that sum to 0
    ([1.0, -1.0, 0.5, 2.0], "0.5"),  # a negative target's square root
], ids=["zero-sum", "negative-root"])
def test_fit_kde_refuses_target_weights_that_are_not_finite(
        tmp_path, monkeypatch, targets, power):
    # forming the weights warned, and under warnings as errors exited 1
    monkeypatch.chdir(tmp_path)
    write_csv("t.csv", np.random.default_rng(1).standard_normal((4, 2)),
              np.array(targets))
    assert run("fit-kde", "--data", "t.csv", "--weights", "target",
               "--weight-power", power, "--out", "kde.json") == 2
    assert not (tmp_path / "kde.json").exists()
    assert not (tmp_path / "kde.centers.csv").exists()


def _malformed_model_files():
    scalar = model_to_dict(poly_model(monomial_basis(2, 1), {(1, 0): 1.0}))
    levelset = model_to_dict(sf.LevelSetModel(monomial_basis(2, 1),
                                              [[0.0], [1.0], [0.0]]))
    return {
        # json reads the NaN literal; the orthonormality test passed it
        "nan_levelset.json": {**levelset, "W": [[float("nan"), 1.0, 0.0]]},
        "basis5.json": {**scalar, "basis": 5},
        "atoms5.json": {**scalar, "basis": {"dimension": 2, "atoms": 5}},
        "components.json": {"type": "basisfield", "components": [1, 2]},
        "sin7.json": {"type": "scalar", "coefficients": [1.0], "basis": {
            "dimension": 2, "atoms": [{"kind": "sin", "axis": 7}]}},
        "short.json": {"type": "scalar", "coefficients": [1.0], "basis": {
            "dimension": 2, "atoms": [{"kind": "monomial", "exponents": [1]}]}},
        # int() read these as x1 and as the sine of x1
        "half.json": {"type": "scalar", "coefficients": [1.0], "basis": {
            "dimension": 2, "atoms": [{"kind": "monomial", "exponents": [1.5, 0]}]}},
        "true.json": {"type": "scalar", "coefficients": [1.0], "basis": {
            "dimension": 2, "atoms": [{"kind": "monomial", "exponents": [True, 0]}]}},
        "axis.json": {"type": "scalar", "coefficients": [1.0], "basis": {
            "dimension": 2, "atoms": [{"kind": "sin", "axis": 0.5}]}},
    }


@pytest.mark.parametrize("command", [
    ["grid", "--model", name, "--lower", "0,0", "--upper", "1,1"]
    for name in sorted(_malformed_model_files())
] + [
    ["sim", "--truth", "components.json", "--estimate", "components.json",
     "--data", "d.csv"],
    ["fit-levelset", "--data", "d.csv", "--strategy", "extend-columns",
     "--known", "basis5.json"],
    # discrete reads its model through the same checked loader
    ["discrete", "--model", "components.json", "--data", "d.csv",
     "--family", "reflection"],
    ["find-vf", "--model", "nan_levelset.json", "--data", "d.csv"],
])
def test_malformed_input_files_fail(tmp_path, monkeypatch, command):
    # each of these raised a TypeError or IndexError (exit 1), except the
    # monomial with too few exponents, which grid evaluated as if x2 were absent
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    centers = np.array([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    write_csv("d.csv", centers[rng.integers(0, 3, 90)]
              + 0.1 * rng.standard_normal((90, 2)))
    for name, model in _malformed_model_files().items():
        (tmp_path / name).write_text(json.dumps(model))  # save_json refuses NaN
    out = "out" if command[0] == "fit-levelset" else "out.json"
    assert run(*command, "--out", out) == 2
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("probe", [
    ["--k", "0"],
    ["--strategy", "project-affine", "--k", "0"],
    ["--strategy", "extend-columns", "--known", "basis5.json"],
])
def test_failed_fit_levelset_creates_no_output_directory(tmp_path, monkeypatch,
                                                          probe):
    # a command that fails validation writes nothing, not even a directory
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((40, 2)))
    save_json(_malformed_model_files()["basis5.json"], "basis5.json")
    assert run("fit-levelset", "--data", "d.csv", *probe, "--out", "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,seeded", [
    ("gen", True), ("fit-levelset", True), ("find-vf", True),
    ("find-invariants", True), ("sim", True), ("fit-fn", False),
    ("fit-kde", False), ("flow-param", False), ("flow", False),
    ("pullback", False), ("transform", False), ("grid", False),
    ("discrete", False),
])
def test_only_commands_that_read_a_seed_take_seed(capsys, command, seeded):
    with pytest.raises(SystemExit):
        run(command, "--help")
    assert ("--seed" in capsys.readouterr().out) == seeded


def test_transform_angle_and_flow_param_are_exclusive(tmp_path, monkeypatch):
    # --angle used to drop the flow parameter silently
    monkeypatch.chdir(tmp_path)
    write_csv("d.csv", np.random.default_rng(0).standard_normal((20, 2)))
    save_model(poly_model(monomial_basis(2, 1), {(1, 0): 1.0}), "fp.json")
    with pytest.raises(SystemExit) as exit_:
        run("transform", "--data", "d.csv", "--flow-param", "fp.json",
            "--angle", "--out", "c.csv")
    assert exit_.value.code == 2
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("field,options", [
    ("rot.json", ["--upper", "1e160,1e160"]),
    ("trig.json", ["--upper", "1e300,1e300", "--mc-samples", "10"]),
], ids=["analytic", "monte-carlo"])
def test_sim_over_a_domain_too_large_to_integrate_fails(tmp_path, monkeypatch,
                                                        field, options):
    # both wrote "aggregate": NaN and exited 0
    monkeypatch.chdir(tmp_path)
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(trig_field(), "trig.json")
    assert run("sim", "--truth", field, "--estimate", field,
               "--lower", "0,0", *options, "--out", "sim.json") == 3
    assert not (tmp_path / "sim.json").exists()


def test_find_invariants_on_one_row_writes_no_nan_correlations(
        tmp_path, monkeypatch):
    # two invariants of one point have NaN correlations, written as bare NaN
    monkeypatch.chdir(tmp_path)
    write_csv("one.csv", np.array([[0.3, 0.7]]))
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), [0, 0, 1.0, 0, -1.0, 0]),
               "vf.json")
    assert run("find-invariants", "--vf", "vf.json", "--data", "one.csv",
               "--q", "2", "--out", "inv.json") == 2
    assert not (tmp_path / "inv.json").exists()


def _field_with_exponent(e):
    """The field (x1, x2) with x1's exponent replaced by e."""
    field = model_to_dict(poly_field(2, 1, {(1, 0): 1.0}, {(0, 1): 1.0}))
    field["basis"]["atoms"][1]["exponents"] = [e, 0]
    return field


def test_flow_with_an_exponent_past_a_c_long_is_a_numerical_failure(
        tmp_path, monkeypatch):
    # the velocity's integer exponent table raised OverflowError (exit 1)
    monkeypatch.chdir(tmp_path)
    save_json(_field_with_exponent(1e20), "big.json")
    assert run("flow", "--field", "big.json", "--x0", "0.5,0", "--t", "1",
               "--steps", "3", "--out", "t.csv") == 3
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command,target", [
    (["grid", "--model", "f.json", "--lower", "0,0", "--upper", "1,1",
      "--resolution", "100000"], "symfield.cli.np.meshgrid"),
    (["gen", "--name", "cubic", "--size", "10000000000"],
     "symfield.datasets.generate"),
    (["flow", "--field", "rot.json", "--x0", "1,0", "--t", "1",
      "--steps", "10000000000"], "symfield.vfield.flow_integrate"),
    (["sim", "--truth", "trig.json", "--estimate", "trig.json", "--lower", "0,0",
      "--upper", "1,1", "--mc-samples", "10000000000"], "symfield.cli.similarity"),
], ids=["grid", "gen", "flow", "sim"])
def test_memory_exhaustion_is_a_numerical_failure(tmp_path, monkeypatch,
                                                  command, target):
    # these sizes raised numpy's _ArrayMemoryError (exit 1); the library call
    # is replaced, so nothing is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.0 PiB")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, exhausted)
    save_model(poly_model(monomial_basis(2, 2), {(2, 0): 1.0}), "f.json")
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), "rot.json")
    save_model(trig_field(), "trig.json")
    assert run(*command, "--out", "out.csv") == 3
    assert not (tmp_path / "out.csv").exists()


# The CLI fuzz: every subcommand from a valid command line, with up to three
# options replaced by a malformed value or input file.  Each pool holds
# valid, malformed and out-of-range values; None drops the option, True
# gives a flag.  Every size is small: resolution^n, steps and size stay in
# the tens.
FUZZ_POOLS = {
    "csv": ["d.csv", "pts.csv", "one.csv", "wide.csv", "huge.csv", "nan.csv",
            "ragged.csv", "empty.csv", "header.csv", "text.csv", "nope.csv"],
    "model": ["f.json", "f3.json", "ls.json", "kde.json", "vf.json", "vf2.json",
              "rot.json", "inv.json", "list.json", "broken.json", "nan_coef.json",
              "no_type.json", "nan_kde.json", "lost_kde.json", "narrow_kde.json",
              "big_power.json",
              *sorted(_malformed_model_files())],
    "opt": ["opt.json", "opt_mae.json", "opt_huge_rate.json", "opt_epochs0.json",
            "opt_epochs_text.json", "opt_nan_rate.json", "opt_unknown.json",
            "list.json", "broken.json", None],
    "entries": ["entries.json", "entries_param1.json", "entries_3x2.json",
                "entries_nan.json", "list.json", "broken.json", None],
    "invariants": ["inv.json", "kde_invariants.json", "list.json", "f.json", None],
    "vector": ["1,0", "0,0", "-1,0.5", "0.5,-2,1", "1", "nan,0", "inf,1",
               "1e300,1e300", "-1e300,0", "", ",", "1,", "a,b", None],
    "float": ["1", "0", "-1", "-.5", "3", "1e-300", "nan", "inf", "-inf",
              "1e300", "-1e300", "", "x", None],
    "count": ["-1", "0", "1", "2", "3", "1.5", "nan", "", None],
    "param": ["k=7", "k=3", "k=2.7", "k", "=1", "k=", "k=nan", "k=inf",
              "k=1e300", "k=-3", "k=0", "foo=1", None],
    "bandwidth": ["scott", "0.5", "0", "-1", "nan", "inf", "1e300", "1e-300",
                  "x", None],
    "name": [*sf.GENERATOR_NAMES, "bogus", None],
    "family": ["reflection", "rotation", "user-linear", "bogus"],
    "strategy": ["plain", "project-affine", "extend-columns", "bogus"],
    "weights": ["none", "target", "bogus"],
    "seed": ["3", "-1", "1.5", None],
    "flag": [True, False],
}

# the pools of file names, and None for an output file
FUZZ_FILE_POOLS = ("csv", "model", "opt", "entries", "invariants", None)

# each command's valid command line as (option, value, pool) triples; an
# option without a pool is an output file and is never replaced
FUZZ_COMMANDS = {
    "gen": [("--name", "disc-rot", "name"), ("--size", "7", "count"),
            ("--param", "k=7", "param"), ("--seed", "3", "seed"),
            ("--out", "out.csv", None)],
    "fit-fn": [("--data", "d.csv", "csv"), ("--degree", "2", "count"),
               ("--trig", False, "flag"), ("--out", "out.json", None)],
    "fit-levelset": [("--data", "d.csv", "csv"), ("--degree", "2", "count"),
                     ("--trig", False, "flag"), ("--k", None, "count"),
                     ("--k-max", "3", "count"),
                     ("--strategy", "plain", "strategy"),
                     ("--known", None, "model"),
                     ("--opt-config", "opt.json", "opt"), ("--seed", "3", "seed"),
                     ("--out", "out", None)],
    "fit-kde": [("--data", "d.csv", "csv"), ("--weights", "target", "weights"),
                ("--weight-power", "1", "float"),
                ("--bandwidth", "scott", "bandwidth"), ("--out", "out.json", None)],
    "find-vf": [("--model", "f.json", "model"), ("--data", "d.csv", "csv"),
                ("--vf-degree", "1", "count"), ("--c", "1", "count"),
                ("--escalate", False, "flag"), ("--opt-config", "opt.json", "opt"),
                ("--trace-out", "trace.json", None), ("--out", "out.json", None)],
    "find-invariants": [("--vf", "vf.json", "model"), ("--data", "d.csv", "csv"),
                        ("--degree", "2", "count"), ("--trig", False, "flag"),
                        ("--q", "1", "count"), ("--opt-config", "opt.json", "opt"),
                        ("--out", "out.json", None)],
    "flow-param": [("--vf", "vf.json", "model"), ("--data", "d.csv", "csv"),
                   ("--degree", "2", "count"), ("--trig", False, "flag"),
                   ("--out", "out.json", None)],
    "flow": [("--field", "rot.json", "model"), ("--x0", "1,0", "vector"),
             ("--t", "1", "float"), ("--steps", "3", "count"),
             ("--out", "out.csv", None)],
    "sim": [("--truth", "rot.json", "model"), ("--estimate", "rot.json", "model"),
            ("--data", None, "csv"), ("--lower", "0,0", "vector"),
            ("--upper", "1,1", "vector"), ("--mc-samples", "3", "count"),
            ("--seed", "3", "seed"),
            ("--out", "out.json", None)],
    "discrete": [("--model", "f.json", "model"), ("--data", "d.csv", "csv"),
                 ("--family", "reflection", "family"), ("--lo", None, "float"),
                 ("--hi", None, "float"), ("--entries", None, "entries"),
                 ("--n-params", None, "count"),
                 ("--opt-config", "opt.json", "opt"), ("--out", "out.json", None)],
    "pullback": [("--source", "d.csv", "csv"), ("--image", "d.csv", "csv"),
                 ("--degree", "1", "count"), ("--point", "0,0", "vector"),
                 ("--out", "out.json", None)],
    "transform": [("--data", "d.csv", "csv"),
                  ("--invariants", "inv.json", "invariants"),
                  ("--flow-param", None, "model"), ("--angle", True, "flag"),
                  ("--out", "out.csv", None)],
    "grid": [("--model", "f.json", "model"), ("--lower", "-1,-1", "vector"),
             ("--upper", "1,1", "vector"), ("--resolution", "3", "count"),
             ("--out", "out.csv", None)],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding every input file a fuzzed command may name."""
    root = tmp_path_factory.mktemp("fuzz")

    def path(name):
        return str(root / name)

    rng = np.random.default_rng(0)
    data = rng.standard_normal((12, 2))
    targets = (data[:, 0] - 1) ** 2 + 4 * (data[:, 1] - 1) ** 2
    write_csv(path("d.csv"), data, targets)
    write_csv(path("pts.csv"), data)
    write_csv(path("one.csv"), data[:1], targets[:1])
    write_csv(path("wide.csv"), rng.standard_normal((12, 3)))
    write_csv(path("huge.csv"), 1e300 * np.sign(data), targets)
    for name, text in {
        "nan.csv": "x1,x2\n1,2\nnan,0\n0,1\n",
        "ragged.csv": "x1,x2\n1,2\n3\n",
        "empty.csv": "",
        "header.csv": "x1,x2,target\n",
        "text.csv": "x1,x2\na,b\n",
        "broken.json": "{",
        "list.json": "[1, 2]\n",
        "nan_coef.json": '{"type": "scalar", "coefficients": [NaN], "basis": '
                         '{"dimension": 1, "atoms": [{"kind": "monomial", '
                         '"exponents": [1]}]}}',
        "nan_kde.json": '{"type": "kde", "bandwidth": NaN, '
                        '"centers_file": "kde.centers.csv"}',
        "opt_nan_rate.json": '{"learning_rate": NaN}',
    }.items():
        (root / name).write_text(text)
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    save_model(f, path("f.json"))
    save_model(poly_model(monomial_basis(3, 1), {(1, 0, 0): 1.0}), path("f3.json"))
    save_model(sf.LevelSetModel(monomial_basis(2, 2), np.array(
        [[-1.0], [0], [0], [1], [0], [1]]) / np.sqrt(3)), path("ls.json"))
    save_model(sf.kde_fit(data), path("kde.json"))
    # too narrow for the density table's h / 20 nodes within its cell cap
    save_model(sf.kde_fit(data, bandwidth=1e-3), path("narrow_kde.json"))
    save_json({**load_json(path("kde.json")), "centers_file": "gone.csv"},
              path("lost_kde.json"))
    columns = np.zeros((6, 2))
    columns[[2, 4], 0] = [1.0, -1.0]
    columns[[1, 5], 1] = [1.0, 1.0]
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), columns[:, 0]),
               path("vf.json"))
    save_model(sf.VectorFieldModel(monomial_basis(2, 1), columns),
               path("vf2.json"))
    save_model(poly_field(2, 1, {(0, 1): 1.0}, {(1, 0): -1.0}), path("rot.json"))
    save_json({"models": [model_to_dict(f)]}, path("inv.json"))
    save_json({"models": [load_json(path("kde.json"))]}, path("kde_invariants.json"))
    save_json({"coefficients": [1.0]}, path("no_type.json"))
    save_json(_field_with_exponent(1e20), path("big_power.json"))
    for name, model in _malformed_model_files().items():
        (root / name).write_text(json.dumps(model))  # save_json refuses NaN
    for name, opt in {"opt": {"loss": "mean-squared"},
                      "opt_mae": {"loss": "mean-absolute", "epochs": 20},
                      "opt_huge_rate": {"loss": "mean-absolute", "epochs": 5,
                                        "learning_rate": 1e300},
                      "opt_epochs0": {"epochs": 0},
                      "opt_epochs_text": {"epochs": "x"},
                      "opt_unknown": {"learning-rate": 0.5}}.items():
        save_json(opt, path(name + ".json"))
    a = {"param": 0}
    cos, sin = _tree("cos", a), _tree("sin", a)
    for name, entries in {"entries": [[cos, sin], [_tree("neg", sin), cos]],
                          "entries_param1": [[{"param": 1}, 0], [0, 1]],
                          "entries_3x2": [[1, 0], [0, 1], [0, 0]]}.items():
        save_json({"entries": entries}, path(name + ".json"))
    (root / "entries_nan.json").write_text(
        '{"entries": [[{"const": NaN}, 0], [0, {"param": 0}]]}')
    return str(root)


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _check_outputs(tmp, inputs, argv):
    """Every file the command wrote parses strictly and has its shape."""
    for dirpath, _, names in os.walk(tmp):
        for name in names:
            path = os.path.join(dirpath, name)
            if os.path.relpath(path, tmp) in inputs:
                continue
            with open(path) as fh:
                text = fh.read()
            if name.endswith(".json"):
                _strict_json(text)
            else:
                read_csv(path)  # refuses ragged, empty and non-finite tables
    args = build_parser().parse_args(_attach_negative_values(argv))
    out = args.out
    assert os.path.exists(out)
    if args.command == "flow":
        assert read_csv(out)[0].shape == (args.steps + 1, args.x0.size)
    elif args.command == "grid":
        n, model = args.lower.size, load_model(args.model)
        k = model.W.shape[1] if isinstance(model, sf.LevelSetModel) else (
            n if isinstance(model, sf.VectorFieldModel) else 1)
        assert read_csv(out)[0].shape == (args.resolution**n, n + k)
    elif args.command == "gen":
        assert len(read_csv(out)[0]) == args.size
    elif args.command == "transform":
        assert len(read_csv(out)[0]) == len(read_csv(args.data)[0])
    elif args.command == "fit-levelset":
        reduced = os.path.join(out, "reduced.csv")
        if os.path.exists(reduced):
            assert len(read_csv(reduced)[0]) == len(read_csv(args.data)[0])
    elif args.command == "pullback":
        report = load_json(out)
        assert np.shape(report["metric"]) == (len(report["point"]),) * 2


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_cli_fuzz_exits_0_2_or_3_and_writes_only_valid_output(
        fuzz_inputs, command, draw):
    """Malformed options and input files exit 2 or 3; what exits 0 writes
    strict JSON and CSVs of the expected shape."""
    options = FUZZ_COMMANDS[command]
    order = draw.draw(st.permutations(
        [i for i, (_, _, pool) in enumerate(options) if pool]))
    mutate = order[:draw.draw(st.integers(1, 3))]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(fuzz_inputs, tmp, dirs_exist_ok=True)
        argv = [command]
        for i, (option, value, pool) in enumerate(options):
            if i in mutate:
                value = draw.draw(st.sampled_from(FUZZ_POOLS[pool]),
                                  label=option)
            if value is True:
                argv.append(option)
            elif isinstance(value, str):
                if pool in FUZZ_FILE_POOLS:
                    value = os.path.join(tmp, value)
                joined = draw.draw(st.booleans(), label=option + " joined")
                argv += [f"{option}={value}"] if joined else [option, value]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        event(f"{command} exits {code}")
        assert code in (0, 2, 3), argv
        if code == 0:
            _check_outputs(tmp, os.listdir(fuzz_inputs), argv)


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
def test_every_fuzz_base_line_exits_0(fuzz_inputs, tmp_path, command):
    """Each command's unmutated fuzz line is valid, so a refusal rule cannot
    turn its fuzz target into one that only exits 2."""
    shutil.copytree(fuzz_inputs, tmp_path, dirs_exist_ok=True)
    argv = [command]
    for option, value, pool in FUZZ_COMMANDS[command]:
        if value is True:
            argv.append(option)
        elif isinstance(value, str):
            argv += [option, str(tmp_path / value) if pool in FUZZ_FILE_POOLS
                     else value]
    assert main(argv) == 0
    _check_outputs(str(tmp_path), os.listdir(fuzz_inputs), argv)


def test_density_rotation_on_a_narrow_kde_exits_0(fuzz_inputs, tmp_path):
    """A bandwidth far below the data's extent needs more table cells than
    the cap, so the nodes spread wider than the bandwidth; the fit still
    exits 0 with a valid result.  The fuzz rarely draws this command line."""
    shutil.copytree(fuzz_inputs, tmp_path, dirs_exist_ok=True)
    argv = ["discrete", "--model", str(tmp_path / "narrow_kde.json"),
            "--data", str(tmp_path / "d.csv"), "--family", "rotation",
            "--lo", "0.5", "--hi", "5.78", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    _check_outputs(str(tmp_path), os.listdir(fuzz_inputs), argv)
