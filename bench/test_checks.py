"""Each benchmark check accepts symfield's real output and rejects a wrong one.

    python3 -m pytest bench/test_checks.py

Every test runs an operation once, confirms its check passes, then tampers
with one output and confirms the check raises.
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SEED = 0


def ops_by_name(build, ctx=None):
    return {op.name: op for op in build(SEED, ctx)}


@pytest.fixture(scope="module")
def continuous():
    ops = ops_by_name(workloads.continuous)
    return {name: (op, op.run()) for name, op in ops.items()}


def rejects(op, out, **changes):
    bad = copy.deepcopy(out)
    for key, change in changes.items():
        bad[key] = change(bad[key])
    with pytest.raises(CheckError):
        op.check(bad)


def test_real_outputs_pass(continuous):
    for op, out in continuous.values():
        op.check(out)


def test_field_checks(continuous):
    op, out = continuous["quadratic-2000"]

    def nudge(c):
        c = c.copy()
        c[2, 0] += 0.05  # the y coefficient of the field's first component
        return c

    rejects(op, out, columns=nudge)  # no longer annihilates f
    rejects(op, out, columns=lambda c: 1.1 * c)  # not orthonormal
    rejects(op, out, loss=lambda v: v - 1e-3)  # below the Ky Fan optimum
    rejects(op, out, f=lambda c: c * 1.001)  # wrong fitted function
    rejects(op, out, trajectory=lambda T: T * 1.01)  # flow leaves the level set
    op, out = continuous["cubic"]
    rejects(op, out, columns=lambda c: np.roll(c, 1, axis=0))
    op, out = continuous["sincos"]
    rejects(op, out, similarity=lambda v: v - 0.05)
    rejects(op, out, columns=lambda c: np.roll(c, 3, axis=0))


def test_circle3d_checks(continuous):
    op, out = continuous["circle3d"]
    rejects(op, out, selected=lambda k: np.int64(2))
    rejects(op, out, affine=lambda W: np.roll(W, 1, axis=0))
    rejects(op, out, reduced=lambda R: 1.01 * R)
    rejects(op, out, invariant=lambda v: v * np.array([1, 1, 1, 1, -1.0]))
    rejects(op, out, columns=lambda c: np.roll(c, 2, axis=0))


def test_hypercube10_checks(continuous):
    op, out = continuous["hypercube10"]
    rejects(op, out, affine_selected=lambda k: np.int64(4))
    rejects(op, out, quad_selected=lambda k: np.int64(2))
    rejects(op, out, affine=lambda W: np.roll(W, 1, axis=0))


def test_killing4d_checks(continuous):
    op, out = continuous["killing4d"]
    tilt = np.zeros(6)
    tilt[0] = 0.1
    rejects(op, out, a=lambda a: (a + tilt) / np.linalg.norm(a + tilt))
    rejects(op, out, metrics=lambda g: g + 1e-4)


def test_density_rotation_checks():
    op = ops_by_name(workloads.density_rotation)["disc-rot-1000"]
    out = op.run()
    op.check(out)
    rejects(op, out, theta=lambda t: t + 0.1)
    rejects(op, out, loss=lambda v: v * 1.01)
    rejects(op, out, bandwidth=lambda h: h * 1.001)


def test_parametric_checks():
    ops = ops_by_name(workloads.parametric_discrete)
    op = ops["rotation"]
    out = op.run()
    op.check(out)
    assert out["f_evals"] > 0
    rejects(op, out, parameters=lambda p: p + 0.01)
    rejects(op, out, loss=lambda v: v + 1e-6)


def test_rotation_tolerance_shrinks_with_n():
    from checks import rotation_tolerance

    assert rotation_tolerance(1000) == pytest.approx(0.08)
    assert rotation_tolerance(2000) < rotation_tolerance(1000)


@pytest.fixture(scope="module")
def pipeline():
    ctx = run.Workload("cli-pipeline", SEED)
    ctx.begin_pass(0)
    ops = {op.name: op for op in ctx.ops}
    outs = {}
    for name, op in ops.items():
        try:
            outs[name] = op.run()
        except workloads.StageFailed:
            outs[name] = None
    yield ctx, ops, outs
    ctx.close()


def rewrite_json(path, change):
    with open(path) as fh:
        d = json.load(fh)
    change(d)
    with open(path, "w") as fh:
        json.dump(d, fh)


def test_cli_stages_pass_and_negative_start_fails(pipeline):
    ctx, ops, outs = pipeline
    assert outs["flow-negative"] is None
    for name, out in outs.items():
        if out is not None:
            ops[name].check(out)


def test_cli_checks_reject_tampered_files(pipeline):
    ctx, ops, outs = pipeline
    path = lambda name: os.path.join(ctx.cli.pass_dir, name)
    cases = [
        ("sim.json", lambda d: d.update(aggregate=0.95), "sim"),
        ("f.json", lambda d: d["coefficients"].__setitem__(0, 5.01), "fit-fn"),
        ("field.json", lambda d: d["columns"][0].__setitem__(0, d["columns"][0][0] + 0.05), "find-vf"),
        ("fp.json", lambda d: d.update(residual=d["residual"] * 1.01), "flow-param"),
        ("kde.json", lambda d: d.update(bandwidth=d["bandwidth"] * 1.001), "fit-kde"),
    ]
    for name, change, stage in cases:
        with open(path(name)) as fh:
            saved = fh.read()
        rewrite_json(path(name), change)
        with pytest.raises(CheckError):
            ops[stage].check(None)
        with open(path(name), "w") as fh:
            fh.write(saved)
    with open(path("trajectory.csv")) as fh:
        lines = fh.read().splitlines()
    lines[-1] = "2.5,1.5"
    with open(path("trajectory.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        ops["flow"].check(None)


def test_negative_start_check_accepts_a_correct_flow(pipeline):
    """The --x0=VALUE form gets past argparse; its output passes the check."""
    ctx, ops, outs = pipeline
    ctx.cli.run(["flow", "--field", "field.json", "--x0=-1,0.5", "--t", "0.05",
                 "--steps", "10", "--out", "negative.csv"], [])
    ops["flow-negative"].check(None)


def test_digest_sees_one_changed_byte():
    a = {"x": np.arange(4.0), "f": b"abc"}
    b = {"x": np.arange(4.0), "f": b"abd"}
    assert run.digest(a) == run.digest(copy.deepcopy(a))
    assert run.digest(a) != run.digest(b)
