import math

import numpy as np
import pytest

import symfield as sf
from conftest import einsum_table_reader, poly_model
from symfield import discrete, model_fit
from symfield.discrete import (
    fit_density_rotation,
    fit_discrete,
    reflection_family,
    rotation_family,
    user_linear_family,
    _BLOCK_POINTS,
    _STARTS,
    _angle_search,
    _brent,
    _coefficient_losses,
    _coefficient_space,
    _compile,
    _refine,
    _residual_losses,
)
from symfield.features import design_matrix, monomial_basis, trig_extend
from symfield.model_fit import kde_eval, kde_fit

CFG = sf.OptimizerConfig("riemannian-adagrad", "mean-absolute", 0.05, 400)


def test_reflection_involution():
    family = reflection_family()
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.standard_normal(2)
        p /= np.linalg.norm(p)
        S = family.matrix(p)
        assert np.abs(S @ S - np.eye(2)).max() <= 1e-12


def test_reflection_scale_invariance():
    # a unit-norm family is evaluated at p / |p|
    family = reflection_family()
    f = poly_model(monomial_basis(2, 2), {(1, 1): 1.0})
    data = np.random.default_rng(1).standard_normal((30, 2))
    p = np.array([0.6, 0.8])
    a, b = _residual_losses(f, data, f(data), family, np.stack([p, 7.0 * p]),
                            "mean-absolute")
    assert a == pytest.approx(b, rel=1e-12)


def test_rotation_inverse():
    family = rotation_family(0.1, 6.0)
    for theta in (0.3, 1.7, 4.0):
        S = family.matrix([theta]) @ family.matrix([-theta])
        assert np.abs(S - np.eye(2)).max() <= 1e-12


def test_parabola_reflection_about_x_axis_line():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 300)
    data = np.column_stack([x, x**2])
    f = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
    cfg = sf.OptimizerConfig("riemannian-adagrad", "mean-squared", 0.05, 2000)
    result = fit_discrete(f, data, reflection_family(), cfg)
    a, b = result.parameters
    assert abs(a) == pytest.approx(1.0, abs=1e-3)
    assert abs(b) <= 1e-3
    assert np.linalg.norm(result.parameters) == pytest.approx(1.0, abs=1e-8)


def test_reflection_fixing_f_equals_x():
    data = np.random.default_rng(3).standard_normal((300, 2))
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0})
    result = fit_discrete(f, data, reflection_family(), CFG)
    a, b = result.parameters
    assert abs(b) == pytest.approx(1.0, abs=1e-3)
    assert abs(a) <= 1e-3


def test_full_rotational_symmetry_any_angle():
    data = np.random.default_rng(4).standard_normal((200, 2))
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    result = fit_discrete(
        f, data, rotation_family(np.pi / 6, 2 * np.pi), CFG
    )
    assert result.final_loss <= 1e-8
    assert np.pi / 6 <= result.parameters[0] <= 2 * np.pi


def test_final_loss_recomputes():
    data = np.random.default_rng(5).standard_normal((50, 2))
    f = poly_model(monomial_basis(2, 2), {(1, 1): 1.0})
    family = reflection_family()
    result = fit_discrete(f, data, family, CFG)
    again = _residual_losses(f, data, f(data), family, [result.parameters],
                             CFG.loss)[0]
    assert result.final_loss == pytest.approx(again, rel=1e-12)


def test_fit_refuses_a_model_that_is_not_finite_at_the_data():
    # x^2 + y^2 is not finite at 1e300, where every residual was NaN and the
    # angle search raised "min() arg is an empty sequence"; errstate as in
    # the CLI's main
    data = 1e300 * np.random.default_rng(5).standard_normal((50, 2))
    f = poly_model(monomial_basis(2, 2), {(2, 0): 1.0, (0, 2): 1.0})
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="model is not finite at the data"):
        fit_discrete(f, data, reflection_family(), CFG)


def _tree_values(tree, P):
    """tree's value at each row of P, the (1, 1) entry of a one-entry family
    (an interval family, so P is not normalised)."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    family = user_linear_family([[tree]], P.shape[1], "interval", (-10.0, 10.0))
    return family.matrix(P)[:, 0, 0]


def test_expression_trees():
    assert _tree_values({"op": "add", "args": [{"const": 1}, {"param": 0}]},
                        [2.0]) == 3.0
    assert _tree_values(
        {"op": "mul", "args": [{"op": "cos", "args": [{"param": 0}]},
                               {"const": 2}]}, [0.0]) == 2.0
    assert _tree_values({"op": "pow", "args": [{"param": 0}],
                         "exponent": 3}, [2.0]) == 8.0
    # an empty sum or product, which _compile accepts, is 0 or 1
    assert _tree_values({"op": "add", "args": []}, [2.0]) == 0.0
    assert _tree_values({"op": "mul"}, [2.0]) == 1.0
    assert _tree_values({"op": "add", "args": []},
                        np.ones((3, 1))).tolist() == [0.0] * 3
    assert _tree_values({"op": "mul", "args": []},
                        np.ones((3, 1))).tolist() == [1.0] * 3
    for evaluate in (_tree_values, lambda tree, P: _compile(tree, 1)(P)):
        with pytest.raises(ValueError, match="unknown expression op"):
            evaluate({"op": "exp", "args": []}, np.array([2.0]))


def test_user_linear_family_rotation_entries():
    entries = [
        [{"op": "cos", "args": [{"param": 0}]},
         {"op": "sin", "args": [{"param": 0}]}],
        [{"op": "neg", "args": [{"op": "sin", "args": [{"param": 0}]}]},
         {"op": "cos", "args": [{"param": 0}]}],
    ]
    family = user_linear_family(entries, 1, constraint="interval",
                                interval=(0.0, 2 * np.pi))
    ref = rotation_family(0.0, 2 * np.pi)
    for theta in (0.4, 2.2):
        assert np.allclose(family.matrix([theta]), ref.matrix([theta]))


def test_density_rotation_uniform_ring_flat_loss():
    data, _ = sf.generate(sf.GeneratorSpec("circle-uniform", 4000, 0))
    kde = kde_fit(data, bandwidth=0.8)
    result = fit_density_rotation(kde, data, np.pi / 6)
    assert result.final_loss <= 1e-3
    # the sample's density changes least under the turns nearest the
    # identity, so the fit is pinned at an end of the allowed range (here
    # 2 pi - theta_min), and the flag says so
    theta = result.parameters[0]
    assert min(theta - np.pi / 6, 11 * np.pi / 6 - theta) < 1e-4
    assert result.excluded_region_active


def test_density_rotation_recovers_square_symmetry():
    # four-fold symmetric blob pattern: minimum nontrivial angle pi / 2
    rng = np.random.default_rng(6)
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    data = (centers[rng.integers(0, 4, 1200)]
            + 0.1 * rng.standard_normal((1200, 2)))
    kde = kde_fit(data)
    result = fit_density_rotation(kde, data, np.pi / 6)
    assert result.parameters[0] == pytest.approx(np.pi / 2, abs=0.05)


def _one_at_a_time(loss):
    """A vectorised loss that calls a scalar loss once per angle."""
    return lambda ts: np.array([loss(t) for t in ts])


def _brent_alone(loss, a, b, xatol):
    """(x, loss) of one _brent run driven by a scalar loss."""
    run = _brent(a, b, xatol)
    x = next(run)
    while True:
        try:
            x = run.send(loss(x))
        except StopIteration as stop:
            return stop.value


def _loss_one_angle_per_pass(model, points):
    """theta -> mean |p(S(theta) x) - p(x)|, one kernel pass per angle."""
    base = kde_eval(model, points)
    turn = rotation_family(0.0, 2 * np.pi).matrix
    return lambda theta: float(
        np.mean(np.abs(kde_eval(model, points @ turn([theta]).T) - base)))


def _density_rotation_one_angle_per_pass(kde, data, theta_min):
    """fit_density_rotation as it was before the mirrored passes: the coarse
    grid is linspace(theta_min, 2 pi - theta_min, 66), scored one angle per
    kernel pass at the data, and the coarse angle is refined at xatol 1e-5
    within one grid spacing."""
    theta_max = 2.0 * np.pi - theta_min
    loss = _loss_one_angle_per_pass(kde, data)
    grid = np.linspace(theta_min, theta_max, 66)
    theta0 = _angle_search(_one_at_a_time(loss), grid, 1e-4)
    spacing = (theta_max - theta_min) / 65
    lo, hi = max(theta_min, theta0 - spacing), min(theta_max, theta0 + spacing)
    return _brent_alone(loss, lo, hi, 1e-5)


def _disc_rot_kde(n_points, seed):
    data, targets = sf.generate(sf.GeneratorSpec("disc-rot", n_points, seed))
    weights = targets**8
    return kde_fit(data, weights / weights.sum()), data


@pytest.mark.parametrize("n_points,seed,max_cells", [
    *((n, seed, None) for n in (1000, 1500) for seed in (401, 11, 977)),
    (1500, 977, 300**2),
])
def test_density_rotation_matches_one_angle_per_pass(
        monkeypatch, n_points, seed, max_cells):
    # the benchmark's disc-rot inputs, read from the table at the module's
    # cap (max_cells None) or at a cap below the h / 20 node rule's 515**2
    # cells, where 300 cells a side put the nodes h / 11.7 apart: the angle
    # agrees with the reference's xatol, and the loss is exact
    if max_cells is not None:
        monkeypatch.setattr(model_fit, "TABLE_MAX_CELLS", max_cells)
    kde, data = _disc_rot_kde(n_points, seed)
    theta, loss = _density_rotation_one_angle_per_pass(kde, data, np.pi / 6)
    result = fit_density_rotation(kde, data, np.pi / 6)
    assert result.parameters[0] == pytest.approx(theta, rel=0, abs=1e-5)
    assert result.final_loss == pytest.approx(loss, rel=1e-7, abs=0)


@pytest.mark.parametrize("n_points", [1000, 1500])
def test_density_rotation_on_node_major_reads_matches_einsum_reads(
        monkeypatch, n_points):
    # the benchmark's disc-rot fits, with the table read node-major and by
    # the point-major einsum that read replaced
    kde, data = _disc_rot_kde(n_points, 401)
    result = fit_density_rotation(kde, data, np.pi / 6)
    monkeypatch.setattr(discrete, "_kde_table", lambda model, radius:
                        einsum_table_reader(model_fit._kde_table(model, radius)))
    parent = fit_density_rotation(kde, data, np.pi / 6)
    assert abs(result.parameters[0] - parent.parameters[0]) <= 1e-7
    assert result.excluded_region_active == parent.excluded_region_active


def test_density_rotation_flags_both_ends_of_the_excluded_region():
    # three blobs whose best turn lies inside the excluded region: the fit is
    # pinned at theta_min, and for the reflected data at 2 pi - theta_min
    rng = np.random.default_rng(1)
    centers = np.array([[0.3, 0.0], [-0.1, 0.25], [-0.1, -0.3]])
    data = (centers[rng.integers(0, 3, 600)]
            + 0.35 * rng.standard_normal((600, 2)))
    for points, end in ((data, np.pi / 6), (data * [1, -1], 11 * np.pi / 6)):
        result = fit_density_rotation(kde_fit(points), points, np.pi / 6)
        assert result.parameters[0] == pytest.approx(end, abs=1e-4)
        assert result.excluded_region_active


def test_density_rotation_refuses_data_whose_radius_overflows():
    # |x| of (1.5e308, 1.5e308) is inf, and kde_eval there is NaN, which no
    # angle search can rank
    data = np.random.default_rng(0).standard_normal((12, 2))
    with pytest.raises(FloatingPointError, match="not finite"):
        fit_density_rotation(kde_fit(data), 1.5e308 * np.sign(data), 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_density_rotation_refuses_a_density_that_is_zero_everywhere():
    # points at +-1e300 lie where the density of standard-normal centres is
    # 0, so is every turn of them, and every angle had loss 0
    data = np.random.default_rng(0).standard_normal((12, 2))
    kde = model_fit.KdeModel(data, np.ones(12), 0.5)
    with pytest.raises(FloatingPointError, match="no angle is singled out"):
        fit_density_rotation(kde, 1e300 * np.sign(data), 0.5)


def _mirror_line_degrees(p):
    """Direction in [0, 180) of the line a x + b y = 0, p = (a, b)."""
    return math.degrees(math.atan2(-p[0], p[1])) % 180.0


@pytest.mark.parametrize("loss", ["mean-absolute", "mean-squared"])
def test_density_reflection_finds_the_mirror_lines(loss):
    # a reflection keeps |x|, so the density table covers every image.  The
    # square blobs have mirror lines every 45 degrees; the ellipse centred
    # on (1, 0) has only the x-axis.  Over ten seeds each the lines lay
    # 0.01-0.45 and 0.12-1.40 degrees off (sampling error, mean-absolute);
    # here 0.34 and 0.53, and 0.29 and 0.56 under the mean-squared loss
    rng = np.random.default_rng(6)
    centers = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    square = (centers[rng.integers(0, 4, 1200)]
              + 0.1 * rng.standard_normal((1200, 2)))
    ellipse = ([1.0, 0.0] + np.random.default_rng(0).standard_normal((1000, 2))
               * [0.6, 0.25])
    for data, spacing in ((square, 45.0), (ellipse, 180.0)):
        result = fit_discrete(kde_fit(data), data, reflection_family(),
                              sf.OptimizerConfig(loss=loss))
        off = _mirror_line_degrees(result.parameters) % spacing
        assert min(off, spacing - off) <= 1.0


def test_density_fit_refuses_a_family_that_leaves_the_table():
    # x -> (1 + p) x moves every point off the disc of the data's radius,
    # where the table read would be clipped
    data = np.random.default_rng(0).standard_normal((200, 2))
    p = {"param": 0}
    scale = {"op": "add", "args": [1, p]}
    family = user_linear_family([[scale, 0], [0, scale]], 1, "interval", (0.1, 1.0))
    with pytest.raises(ValueError, match="density table"):
        fit_discrete(kde_fit(data), data, family, sf.OptimizerConfig())


def test_kde_fit_reports_the_exact_density_loss():
    # the search reads the density table; final_loss is read from kde_eval
    kde, data = _disc_rot_kde(1000, 401)
    family = reflection_family()
    result = fit_discrete(kde, data, family, sf.OptimizerConfig())
    M = family.matrix(result.parameters)
    want = np.mean(np.abs(kde_eval(kde, data @ M.T) - kde_eval(kde, data)))
    assert result.final_loss.hex() == want.hex()


def test_mean_squared_density_fit_finds_the_seven_fold_rotation():
    # within criterion 6's 0.08 at N = 1000: 0.024 off here, and 0.0236
    # under the mean-absolute loss
    kde, data = _disc_rot_kde(1000, 401)
    result = fit_discrete(kde, data, rotation_family(np.pi / 6, 11 * np.pi / 6),
                          sf.OptimizerConfig(loss="mean-squared"))
    assert abs(result.parameters[0] - 2 * np.pi / 7) <= 0.08


def test_family_validation():
    with pytest.raises(ValueError):
        rotation_family(2.0, 1.0)
    with pytest.raises(ValueError):
        sf.ParametricFamily(ROTATION_ENTRIES, 1, "spiral")


@pytest.mark.parametrize("interval", [
    None, (1.0,), (None, None), (1.0, None), (np.nan, 2.0), (0.0, np.inf),
    (1.0, 1.0), ("a", 1.0), (1.0, 2.0, 3.0),
])
def test_interval_family_needs_finite_ordered_bounds(interval):
    with pytest.raises(ValueError):
        sf.ParametricFamily(ROTATION_ENTRIES, 1, "interval", interval)


@pytest.mark.parametrize("entries,n_params", [
    ([[{"param": 1}, 0], [0, 1]], 1),  # index past n_params
    ([[{"param": -1}, 0], [0, 1]], 1),
    ([[{"param": 0.0}, 0], [0, 1]], 1),  # index not an integer
    ([[{"param": "0"}, 0], [0, 1]], 1),
    ([[{"param": True}, 0], [0, 1]], 2),
    ([[{"op": "pow", "args": [{"param": 0}]}, 0], [0, 1]], 1),  # no exponent
    ([[{"op": "pow", "args": [{"param": 0}], "exponent": 2.5}, 0], [0, 1]], 1),
    ([[{"op": "pow", "args": [{"param": 0}], "exponent": "2"}, 0], [0, 1]], 1),
    ([[{"op": "exp", "args": [{"param": 0}]}, 0], [0, 1]], 1),  # unknown op
    ([[{"args": [{"param": 0}]}, 0], [0, 1]], 1),
    ([[{"op": "neg", "args": []}, 0], [0, 1]], 1),  # unary op arity
    ([[{"op": "add", "args": {"param": 0}}, 0], [0, 1]], 1),
    ([[{"op": "add", "args": [{"op": "exp", "args": []}]}, 0], [0, 1]], 1),
    ([[{"const": "two"}, 0], [0, 1]], 1),
    ([["x", 0], [0, 1]], 1),
    ([[None, 0], [0, 1]], 1),
    ([[1, 0], [0]], 1),  # not n x n
    ([[1, 0, 0], [0, 1, 0]], 1),
    ([1, 0], 1),
    ([], 1),
    ({"entries": [[1, 0], [0, 1]]}, 1),
    ("[[1, 0], [0, 1]]", 1),
    ([[1, 0], [0, 1]], 0),  # no parameters
    # a node of more than one kind: the evaluator read parameter 5 of 1
    ([[{"const": 1, "param": 5}, 0], [0, 1]], 1),
    ([[{"param": 0, "op": "neg", "args": [1]}, 0], [0, 1]], 1),
])
def test_user_linear_family_rejects_bad_entries(entries, n_params):
    with pytest.raises(ValueError):
        user_linear_family(entries, n_params)


def test_user_linear_entries_must_match_dimension():
    entries = [[{"param": 0}, 0], [0, 1]]
    assert user_linear_family(entries, 1).dimension == 2
    with pytest.raises(ValueError):
        sf.ParametricFamily(None, 1)


def test_builtin_families_are_expression_trees():
    assert reflection_family() == user_linear_family(REFLECTION_ENTRIES, 2)
    assert rotation_family(1.0, 3.0) == user_linear_family(
        ROTATION_ENTRIES, 1, "interval", (1.0, 3.0))


def _p(i):
    return {"param": i}


def _op(op, *args, **extra):
    return {"op": op, "args": list(args), **extra}


ROTATION_ENTRIES = [
    [_op("cos", _p(0)), _op("sin", _p(0))],
    [_op("neg", _op("sin", _p(0))), _op("cos", _p(0))],
]
# the reflection about a x + b y = 0 for unit (a, b)
REFLECTION_ENTRIES = [
    [_op("add", _op("pow", _p(1), exponent=2),
         _op("neg", _op("pow", _p(0), exponent=2))),
     _op("mul", {"const": -2}, _p(0), _p(1))],
    [_op("mul", {"const": -2}, _p(0), _p(1)),
     _op("add", _op("pow", _p(0), exponent=2),
         _op("neg", _op("pow", _p(1), exponent=2)))],
]
# a symmetric matrix over three parameters, to exercise n_params > 2
SYMMETRIC_ENTRIES = [
    [_op("add", _p(0), _op("mul", {"const": 0.5}, _p(2))), _p(1)],
    [_p(1), _op("add", _op("cos", _p(2)), 1.0, _op("neg", _p(0)))],
]


# a two-parameter rotation-like matrix, to exercise interval families with
# n_params > 1
TWO_ANGLE_ENTRIES = [
    [_op("cos", _p(0)), _op("sin", _p(1))],
    [_op("neg", _op("sin", _p(1))), _op("cos", _p(0))],
]
# [[p0, p1], [p1, -p0]] is odd in p: M(-p) = -M(p), so no sign may be flipped
ODD_ENTRIES = [[_p(0), _p(1)], [_p(1), _op("neg", _p(0))]]
# the same with a third parameter, so that p turns in three planes
ODD_THREE_ENTRIES = [[_p(0), _op("add", _p(1), _p(2))], [_p(1), _op("neg", _p(0))]]


def _parametric_inputs(seed):
    """The benchmark's parametric-discrete inputs: a parabola's points, plane
    points, f = y - x^2 and f = x^3 - 3 x y^2."""
    rng = np.random.default_rng([seed, 5])
    x = rng.uniform(-2, 2, 300)
    parabola = np.column_stack([x, x**2])
    plane = rng.standard_normal((300, 2))
    f_parabola = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
    f_three = poly_model(monomial_basis(2, 3), {(3, 0): 1.0, (1, 2): -3.0})
    return parabola, plane, f_parabola, f_three


def _one_dimensional_reference(f, data, family, loss_kind):
    """fit_discrete's one-dimensional path before the coordinate sweeps:
    theta itself on an interval family with one parameter, and
    p = (cos phi, sin phi) on a unit-norm family with two, one angle per
    call of f.  Returns p, its loss and the number of angles in each call of
    the search's vectorised loss."""
    base = f(data)

    def losses(P):
        return _residual_losses(f, data, base, family, P, loss_kind)

    if family.constraint == "interval":
        grid, params = np.linspace(*family.interval, 66), np.atleast_1d
    else:
        grid = 2 * np.pi / 64 * np.arange(-1, 65)
        params = lambda t: np.array([np.cos(t), np.sin(t)])
    sizes = []
    scalar = _one_at_a_time(lambda t: float(losses(params(t)[None])[0]))
    p = params(_angle_search(lambda ts: sizes.append(len(ts)) or scalar(ts),
                             grid, 1e-10))
    if (family.constraint == "unit-norm" and p[np.argmax(np.abs(p))] < 0
            and np.array_equal(family.matrix(-p), family.matrix(p))):
        p = -p
    return p, float(losses(p[None])[0]), sizes


def _counted(f):
    calls = []
    return lambda X: calls.append(1) or f(X), calls


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("seed", [401, 11, 977])
@pytest.mark.parametrize("case", ["rotation", "reflection", "user-linear-one",
                                  "user-linear-two", "user-linear-odd"])
def test_one_line_families_match_one_dimensional_reference(case, seed, loss):
    # a family with one line gets one search, bit for bit the path it had;
    # the reference scores one angle per call of f, the fit a block of
    # _BLOCK_POINTS // len(data) angles per call: the grid in blocks, then one
    # block per Brent step holding every run still going
    parabola, plane, f_parabola, f_three = _parametric_inputs(seed)
    f, data, family = {
        "rotation": (f_three, plane, rotation_family(1.0, 3.0)),
        "reflection": (f_parabola, parabola, reflection_family()),
        "user-linear-one": (f_three, plane, user_linear_family(
            ROTATION_ENTRIES, 1, "interval", (1.0, 3.0))),
        "user-linear-two": (f_parabola, parabola,
                            user_linear_family(REFLECTION_ENTRIES, 2)),
        "user-linear-odd": (f_parabola, parabola,
                            user_linear_family(ODD_ENTRIES, 2)),
    }[case]
    counted, calls = _counted(f)
    result = fit_discrete(counted, data, family, sf.OptimizerConfig(loss=loss))
    counted_ref, calls_ref = _counted(f)
    p, final_loss, sizes = _one_dimensional_reference(counted_ref, data, family,
                                                      loss)
    assert result.parameters.tolist() == p.tolist()
    assert result.final_loss == final_loss
    per_call = _BLOCK_POINTS // len(data)
    grid, steps = sizes[0], sizes[1:]
    assert grid == 66 and all(k <= per_call for k in steps)
    assert len(calls_ref) == 2 + sum(sizes)  # base, angles, final
    assert len(calls) == 2 + math.ceil(grid / per_call) + len(steps)


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("n_points", [300, 500, 682])  # last block 1, 2, full
@pytest.mark.parametrize("case", ["two-angle", "odd-three",
                                  "two-angle-coefficients", "odd-three-coefficients"])
def test_stacked_grid_losses_equal_one_angle_losses(monkeypatch, case,
                                                    n_points, loss):
    # f as a plain callable is scored at the transformed data by
    # _residual_losses; the model itself (a -coefficients case) in
    # coefficient space by _coefficient_losses, and its final loss by one
    # _residual_losses call
    rng = np.random.default_rng(n_points)
    data = rng.standard_normal((n_points, 2))
    if case.startswith("two-angle"):
        model = poly_model(monomial_basis(2, 3), {(3, 0): 1.0, (1, 2): -3.0})
        family = user_linear_family(TWO_ANGLE_ENTRIES, 2, "interval", (1.0, 3.0))
    else:
        model = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
        family = user_linear_family(ODD_THREE_ENTRIES, 3)
    coefficients = case.endswith("-coefficients")
    f = model if coefficients else (lambda X: model(X))
    # (arguments, result) of each call of either scorer, and where P is
    calls = {"_residual_losses": [], "_coefficient_losses": []}
    rows_at = {"_residual_losses": 4, "_coefficient_losses": 3}
    searches = []  # angles in each call of a line's loss, a list per search

    def recorder(name):
        scorer = getattr(discrete, name)

        def recording(*args):
            calls[name].append((args, scorer(*args)))
            return calls[name][-1][1]

        return recording, scorer

    def recording_search(losses, grid, xatol):
        sizes = []
        searches.append(sizes)
        return angle_search(lambda ts: sizes.append(len(ts)) or losses(ts),
                            grid, xatol)

    angle_search = discrete._angle_search
    scorers = {}
    for name in calls:
        recording, scorers[name] = recorder(name)
        monkeypatch.setattr(discrete, name, recording)
    monkeypatch.setattr(discrete, "_angle_search", recording_search)
    fit_discrete(f, data, family, sf.OptimizerConfig(loss=loss))
    name = "_coefficient_losses" if coefficients else "_residual_losses"
    at = rows_at[name]
    for args, out in calls[name]:
        if len(args[at]) > 1:
            for row, value in zip(args[at], out):
                alone = scorers[name](*args[:at], row[None], *args[at + 1:])
                assert value.hex() == alone[0].hex()
    # each call of a line's loss, its 66 grid angles or one angle per Brent
    # run still going, comes in blocks of per_call, the last holding what is
    # left; so do the _STARTS starts of the three-parameter unit-norm fit,
    # scored first; the final loss is one more, direct call.  A block holds
    # _BLOCK_POINTS // v angles, v the values one angle costs the scorer:
    # N transformed points on the residual path, 2 m probes in coefficient
    # space, and there max(2 m, N) under the mean-absolute loss
    per_angle = n_points
    if coefficients:
        per_angle = 2 * len(monomial_basis(2, model.degree()))
        if loss == "mean-absolute":
            per_angle = max(per_angle, n_points)
    per_call = _BLOCK_POINTS // per_angle
    assert len(searches) >= 2 and all(sizes[0] == 66 for sizes in searches)
    assert any(k > 1 for sizes in searches for k in sizes[1:])  # stacked steps
    scored = [_STARTS] if case.startswith("odd-three") else []
    blocks = [min(per_call, k - i)
              for k in scored + [k for sizes in searches for k in sizes]
              for i in range(0, k, per_call)]
    sizes = {name: [len(args[rows_at[name]]) for args, _ in calls[name]]
             for name in calls}
    if coefficients:
        assert sizes == {"_coefficient_losses": blocks, "_residual_losses": [1]}
    else:
        assert sizes == {"_coefficient_losses": [], "_residual_losses": blocks + [1]}


class _RowCountingModel(model_fit.ScalarFunctionModel):
    """A scalar model that records the rows of each call."""

    def __call__(self, points):
        self.rows.append(len(points))
        return super().__call__(points)


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("n_points", [300, 5000])
@pytest.mark.parametrize("scorer", ["residual", "coefficient"])
def test_grid_calls_of_f_stay_within_the_block_cap(scorer, n_points, loss):
    # f as a plain callable is read at the N transformed points of each
    # angle, the model itself at 2 m probes per angle, with N residuals per
    # angle under the mean-absolute loss; a call holds _BLOCK_POINTS // v
    # angles of v values each, and above the cap one angle, as unstacked.
    # So the coefficient path's mean-squared grid is one call of f
    plane = np.random.default_rng(7).standard_normal((n_points, 2))
    basis = monomial_basis(2, 3)
    model = _RowCountingModel(basis, poly_model(
        basis, {(3, 0): 1.0, (1, 2): -3.0}).coefficients)
    model.rows = []
    f = model if scorer == "coefficient" else (lambda X: model(X))
    fit_discrete(f, plane, rotation_family(1.0, 3.0), sf.OptimizerConfig(loss=loss))
    points = n_points if scorer == "residual" else 2 * len(basis)
    per_angle = max(points, n_points) if loss == "mean-absolute" else points
    per_call = max(1, _BLOCK_POINTS // per_angle)
    base, *scored, final = model.rows
    assert base == final == n_points
    assert all(r % points == 0 for r in scored)
    angles = [r // points for r in scored]
    assert max(angles) * per_angle <= max(_BLOCK_POINTS, per_angle)
    assert angles[:math.ceil(66 / per_call)] == [
        min(per_call, 66 - i) for i in range(0, 66, per_call)]


def test_fit_reads_only_the_loss_of_its_config():
    parabola, _, f_parabola, _ = _parametric_inputs(401)
    family = user_linear_family(ODD_THREE_ENTRIES, 3)
    a = fit_discrete(f_parabola, parabola, family, sf.OptimizerConfig(
        "riemannian-adagrad", "mean-squared", 0.05, 10, seed=1))
    b = fit_discrete(f_parabola, parabola, family, sf.OptimizerConfig(
        "riemannian-adagrad", "mean-squared", 0.5, 300, seed=7))
    assert a.parameters.tolist() == b.parameters.tolist()
    assert a.final_loss == b.final_loss


@pytest.mark.parametrize("loss,tol", [("mean-squared", 1e-12),
                                      ("mean-absolute", 1e-6)])
def test_two_angle_interval_family_reaches_planted_rotation(loss, tol):
    # Re (x + i y)^3 is preserved by [[cos a, sin b], [-sin b, cos a]] on
    # (1, 3)^2 only at the turn by 2 pi / 3: a = 2 pi / 3 and b = pi / 3 or
    # 2 pi / 3, of which the smaller is taken
    rng = np.random.default_rng(11)
    rng.uniform(-2, 2, 40)
    plane = rng.standard_normal((40, 2))
    f_three = poly_model(monomial_basis(2, 3), {(3, 0): 1.0, (1, 2): -3.0})
    family = user_linear_family(TWO_ANGLE_ENTRIES, 2, "interval", (1.0, 3.0))
    result = fit_discrete(f_three, plane, family, sf.OptimizerConfig(loss=loss))
    np.testing.assert_allclose(result.parameters, [2 * np.pi / 3, np.pi / 3],
                               rtol=0, atol=1e-6)
    assert result.final_loss <= tol
    assert not result.excluded_region_active


@pytest.mark.parametrize("loss,tol", [("mean-squared", 1e-12),
                                      ("mean-absolute", 1e-6)])
def test_three_parameter_unit_norm_family_reaches_planted_reflection(loss, tol):
    # f = y - x^2 is preserved by [[p0, p1 + p2], [p1, -p0]] on the unit
    # sphere only at p = (-1, 0, 0), which is diag(-1, 1)
    data = np.random.default_rng(17).standard_normal((300, 2))
    f = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
    family = user_linear_family(ODD_THREE_ENTRIES, 3)
    result = fit_discrete(f, data, family, sf.OptimizerConfig(loss=loss))
    np.testing.assert_allclose(result.parameters, [-1.0, 0.0, 0.0],
                               rtol=0, atol=1e-6)
    assert result.final_loss <= tol


@pytest.mark.parametrize("coefficients", [False, True])
@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_unit_norm_fit_stays_on_the_sphere(scale, loss, coefficients):
    # the great-circle step took d = p - (start . p) start once and never
    # renormalised p, so |p| drifted from 1 sweep by sweep: 0.255 at scale
    # 10 mean-squared on the direct path
    _, plane, f_parabola, _ = _parametric_inputs(401)
    f = f_parabola if coefficients else (lambda X: f_parabola(X))
    result = fit_discrete(f, scale * plane, user_linear_family(ODD_THREE_ENTRIES, 3),
                          sf.OptimizerConfig(loss=loss))
    assert abs(np.linalg.norm(result.parameters) - 1.0) <= 1e-12


def test_one_parameter_unit_norm_family_compares_both_points():
    # the unit sphere of one parameter is +-1; here -1 is the identity
    data = np.random.default_rng(18).standard_normal((50, 2))
    f = poly_model(monomial_basis(2, 1), {(1, 0): 1.0, (0, 1): 1.0})
    family = user_linear_family([[_op("neg", _p(0)), 0], [0, 1]], 1)
    result = fit_discrete(f, data, family, sf.OptimizerConfig())
    assert result.parameters.tolist() == [-1.0]
    assert result.final_loss == 0.0


def _random_profile(rng):
    """A smooth, kinked or plateaued function of one variable."""
    kind = rng.integers(3)
    c, w, a = rng.uniform(-3, 3), rng.uniform(0.1, 5), rng.uniform(0.5, 2)
    if kind == 0:
        return lambda x: float(a * np.sin(w * x + c) + 0.1 * x * x)
    if kind == 1:
        return lambda x: float(a * abs(x - c) + 0.3 * np.cos(w * x))
    return lambda x: float(np.round(a * max(abs(x - c) - 1.0 / w, 0.0), 2))


def test_brent_equals_scipy_bounded_bit_for_bit():
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(14)
    for _ in range(600):
        loss = _random_profile(rng)
        a = rng.uniform(-4, 2)
        b = a + rng.uniform(1e-3, 4)
        xatol = 10.0 ** rng.uniform(-12, -1)
        calls = []
        x, fx = _brent_alone(lambda t: calls.append(t) or loss(t), a, b, xatol)
        ref = minimize_scalar(loss, bounds=(a, b), method="bounded",
                              options={"xatol": xatol})
        assert (x, fx, len(calls)) == (float(ref.x), float(ref.fun), ref.nfev)


def test_lockstep_runs_equal_runs_alone():
    # _refine advances every run by one step per call of the loss, and each
    # run gives the (x, loss) and takes the steps it takes alone
    rng = np.random.default_rng(21)
    for _ in range(100):
        loss = _random_profile(rng)
        ends = np.sort(rng.uniform(-4, 4, (rng.integers(2, 8), 2)), axis=1)
        brackets = [(a, b + 1e-3) for a, b in ends]
        xatol = 10.0 ** rng.uniform(-12, -1)
        alone, steps = [], []
        for a, b in brackets:
            calls = []
            alone.append(_brent_alone(lambda t: calls.append(t) or loss(t),
                                      a, b, xatol))
            steps.append(len(calls))
        sizes = []
        together = _refine(lambda ts: sizes.append(len(ts)) or
                           _one_at_a_time(loss)(ts), brackets, xatol)
        assert together == alone
        assert sizes == [sum(n > k for n in steps) for k in range(max(steps))]


def test_angle_search_takes_smallest_comparable_minimum():
    # minima of equal depth at 1 and 4: the smaller angle is the generator
    loss = lambda t: float(min((t - 1.0) ** 2, (t - 4.0) ** 2))
    grid = np.linspace(0.3, 6.0, 66)
    t = _angle_search(_one_at_a_time(loss), grid, 1e-10)
    assert t == pytest.approx(1.0, abs=1e-8)
    # a profile falling towards an end returns that end
    grid = np.linspace(0.5, 2.0, 66)
    assert _angle_search(lambda ts: ts, grid, 1e-10) == 0.5


def _seam_case(phi, rng):
    """Data and f = y' - x'^2 in coordinates turned by phi: reflection about the
    line through the origin with unit normal (cos phi, sin phi) preserves f."""
    c, s = np.cos(phi), np.sin(phi)
    x = rng.standard_normal((300, 2))

    def f(X):
        u = X @ np.array([c, s])  # along the normal: reflected to -u
        v = X @ np.array([-s, c])
        return v - u * u

    return f, x


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("phi", [0.0, np.pi / 2])
def test_unit_norm_angle_fit_recovers_reflection_on_each_seam(phi, loss):
    f, data = _seam_case(phi, np.random.default_rng(15))
    family = reflection_family()
    cfg = sf.OptimizerConfig("riemannian-adagrad", loss, 0.05, 500)
    result = fit_discrete(f, data, family, cfg)
    np.testing.assert_allclose(result.parameters, [np.cos(phi), np.sin(phi)],
                               rtol=0, atol=1e-6)
    again = _residual_losses(f, data, f(data), family, [result.parameters], loss)
    assert result.final_loss == again[0]


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("k,interval", [(3, (1.0, 3.0)), (5, (0.5, 2.0)),
                                        (7, (0.3, 1.5))])
def test_interval_angle_fit_recovers_generating_angle(k, interval, loss):
    # Re (x + i y)^k is preserved by rotations through multiples of 2 pi / k;
    # each interval holds one of them
    data = np.random.default_rng(16).standard_normal((200, 2))
    f = lambda X: np.real((X[:, 0] + 1j * X[:, 1]) ** k)
    family = rotation_family(*interval)
    cfg = sf.OptimizerConfig("riemannian-adagrad", loss, 0.05, 500)
    result = fit_discrete(f, data, family, cfg)
    assert result.parameters[0] == pytest.approx(2 * np.pi / k, abs=1e-6)
    assert not result.excluded_region_active


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
def test_angle_fit_prefers_generator_over_its_multiples(loss):
    # (0.5, 6.0) holds 1 to 4 times 2 pi / 5, all exact symmetries; the
    # refined minima's losses differ by Brent's accuracy times the loss
    # scale, and an absolute tie-break returned 4 or 3 times 2 pi / 5
    data = np.random.default_rng(16).standard_normal((200, 2))
    f = lambda X: np.real((X[:, 0] + 1j * X[:, 1]) ** 5)
    cfg = sf.OptimizerConfig("riemannian-adagrad", loss, 0.05, 500)
    result = fit_discrete(f, data, rotation_family(0.5, 6.0), cfg)
    assert result.parameters[0] == pytest.approx(2 * np.pi / 5, abs=1e-6)


def test_rotation_fit_on_benchmark_seed_977():
    # the benchmark's parametric-discrete rotation input: the lockstep descent
    # ended at 2.9658 with loss 58.2 here
    rng = np.random.default_rng([977, 5])
    rng.uniform(-2, 2, 300)
    plane = rng.standard_normal((300, 2))
    f_three = poly_model(monomial_basis(2, 3), {(3, 0): 1.0, (1, 2): -3.0})
    cfg = sf.OptimizerConfig("riemannian-adagrad", "mean-squared", 0.05, 500)
    result = fit_discrete(f_three, plane, rotation_family(1.0, 3.0), cfg)
    assert result.parameters[0] == pytest.approx(2 * np.pi / 3, abs=1e-6)
    assert result.final_loss <= 1e-12



@pytest.mark.parametrize("entries,n_params", [(ODD_ENTRIES, 2),
                                              (ODD_THREE_ENTRIES, 3)])
def test_odd_user_linear_family_keeps_its_sign(entries, n_params):
    # f = y - x^2 is preserved by diag(-1, 1), which is p = (-1, 0, ...)
    data = np.random.default_rng(17).standard_normal((300, 2))
    f = poly_model(monomial_basis(2, 2), {(0, 1): 1.0, (2, 0): -1.0})
    family = user_linear_family(entries, n_params)
    cfg = sf.OptimizerConfig("riemannian-adagrad", "mean-squared", 0.05, 500)
    result = fit_discrete(f, data, family, cfg)
    again = _residual_losses(f, data, f(data), family, [result.parameters],
                             cfg.loss)[0]
    assert result.final_loss == pytest.approx(again, rel=1e-12, abs=1e-300)
    assert result.parameters[0] < -0.99


# the Householder reflection I - 2 p p^T: even in p, M(-p) = M(p)
HOUSEHOLDER_ENTRIES = [
    [_op("add", 1.0, _op("mul", {"const": -2}, _p(i), _p(j))) if i == j
     else _op("mul", {"const": -2}, _p(i), _p(j)) for j in range(3)]
    for i in range(3)
]


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("n", [(-0.8, 0.36, 0.48), (0.48, 0.36, -0.8),
                               (0.36, -0.8, 0.48), (0.6, 0.0, 0.8)])
def test_even_unit_norm_family_reports_largest_entry_positive(n, loss):
    # f is preserved by the reflection with unit normal n alone; n and -n
    # give the same matrix, and the fit reports the one whose largest entry
    # is positive.  Sweeps from e0 alone ended at a non-symmetry (loss 2.2 to
    # 2.6 mean-squared, 1.11 to 1.16 mean-absolute) for all but the first n
    n = np.array(n)
    expected = n if n[np.argmax(np.abs(n))] > 0 else -n
    u = np.cross(n, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    f = lambda X: (X @ n) ** 2 + X @ u + (X @ v) ** 3
    data = np.random.default_rng(19).standard_normal((300, 3))
    family = user_linear_family(HOUSEHOLDER_ENTRIES, 3)
    result = fit_discrete(f, data, family, sf.OptimizerConfig(loss=loss))
    np.testing.assert_allclose(result.parameters, expected, rtol=0, atol=1e-6)
    assert np.array_equal(family.matrix(-result.parameters),
                          family.matrix(result.parameters))
    again = _residual_losses(f, data, f(data), family, [result.parameters], loss)
    assert result.final_loss == again[0]


@pytest.mark.parametrize("entries,n_params", [
    (ROTATION_ENTRIES, 1), (REFLECTION_ENTRIES, 2), (SYMMETRIC_ENTRIES, 3),
])
def test_stacked_matrix_and_expressions_equal_per_row(entries, n_params):
    P = np.random.default_rng(12).standard_normal((7, n_params))
    families = [user_linear_family(entries, n_params)]
    if n_params == 1:
        families.append(rotation_family(-5.0, 5.0))
    if n_params == 2:
        families.append(reflection_family())
    for family in families:
        M = family.matrix(P)
        assert M.shape == (7, 2, 2)
        for k in range(7):
            assert np.array_equal(M[k], family.matrix(P[k]))
    for row in entries:
        for tree in row:
            entry = _compile(tree, n_params)
            values = entry(P.T)
            assert values.shape == (7,)
            assert [float(v) for v in values] == [
                float(entry(P[k])) for k in range(7)]
    assert _tree_values(2.5, P).tolist() == [2.5] * 7


def _householder_model():
    """A cubic in three variables that the Householder reflection with unit
    normal n = (0.48, 0.36, -0.8) alone preserves, as monomial coefficients
    (a least-squares expansion, exact up to rounding)."""
    n = np.array([0.48, 0.36, -0.8])
    u = np.cross(n, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    g = lambda X: ((X @ n) ** 2 * (X @ u) + (X @ v) ** 3 + 2 * (X @ u) ** 3
                   + (X @ u) * (X @ v) ** 2)
    basis = monomial_basis(3, 3)
    Z = np.random.default_rng(3).standard_normal((60, 3))
    return sf.ScalarFunctionModel(
        basis, np.linalg.lstsq(design_matrix(basis, Z), g(Z), rcond=None)[0])


def _coefficient_cases(case):
    """(model, data, family) of each family the coefficient path is checked
    on.  Each model is homogeneous, or its family has one line, so scaling
    the data scales the loss and leaves the search's minimum where it was."""
    parabola, plane, f_parabola, f_three = _parametric_inputs(401)
    f_mirror = poly_model(monomial_basis(2, 3), {(2, 1): 1.0, (0, 3): 1.0})
    interval = ("interval", (1.0, 3.0))
    return {
        "reflection": (f_parabola, parabola, reflection_family()),
        "rotation": (f_three, plane, rotation_family(1.0, 3.0)),
        "reflection-entries": (f_parabola, parabola,
                               user_linear_family(REFLECTION_ENTRIES, 2)),
        "odd": (f_mirror, plane, user_linear_family(ODD_ENTRIES, 2)),
        "odd-three": (f_mirror, plane, user_linear_family(ODD_THREE_ENTRIES, 3)),
        "two-angle": (f_three, plane,
                      user_linear_family(TWO_ANGLE_ENTRIES, 2, *interval)),
        "householder": (_householder_model(),
                        np.random.default_rng(19).standard_normal((300, 3)),
                        user_linear_family(HOUSEHOLDER_ENTRIES, 3)),
        "constant-axis": (f_three, np.column_stack([plane[:, 0], np.full(300, 2.0)]),
                          rotation_family(1.0, 3.0)),
        "fewer-rows-than-probes": (f_three, plane[:7], rotation_family(1.0, 3.0)),
    }[case]


def _term_scale(model, points):
    """RMS over the points of sum_j |c_j b_j(x)|: the size of the terms whose
    rounding both paths' residuals carry."""
    terms = np.abs(design_matrix(model.basis, points)) @ np.abs(model.coefficients)
    return math.sqrt(np.mean(terms * terms))


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("case", [
    "reflection", "rotation", "reflection-entries", "odd", "odd-three",
    "two-angle", "householder", "constant-axis", "fewer-rows-than-probes"])
def test_coefficient_path_matches_direct_path(case, scale, loss):
    # the model is scored in coefficient space; the same model as a plain
    # callable at the transformed data
    model, data, family = _coefficient_cases(case)
    data = scale * data
    rng = np.random.default_rng(0)
    P = (rng.uniform(*family.interval, (40, family.n_params))
         if family.constraint == "interval"
         else rng.standard_normal((40, family.n_params)))
    space = _coefficient_space(model, data, loss)
    fast = _coefficient_losses(model, space, family, P)
    direct = _residual_losses(model, data, model(data), family, P, loss)
    if loss == "mean-squared":  # compare RMS residuals, norms as mean |r| is
        fast, direct = np.sqrt(fast), np.sqrt(direct)
    # both differ from the exact residual by rounding of the terms: at most
    # 4.8e-15 of their size on these cases (the benchmark's reflection)
    terms = _term_scale(model, data) + max(
        _term_scale(model, data @ M.T) for M in family.matrix(P))
    assert np.max(np.abs(fast - direct)) <= 1e-13 * terms
    # the fits end at the same parameters: at most 2e-11 apart on these
    # cases (the three-parameter odd family's coupled sweeps), and the
    # reported loss is the direct one at each fit's parameters
    config = sf.OptimizerConfig(loss=loss)
    a = fit_discrete(model, data, family, config)
    b = fit_discrete(lambda X: model(X), data, family, config)
    np.testing.assert_allclose(a.parameters, b.parameters, rtol=0, atol=1e-9)
    assert a.final_loss == _residual_losses(model, data, model(data), family,
                                            a.parameters[None], loss)[0]


@pytest.mark.parametrize("loss", ["mean-squared", "mean-absolute"])
def test_trig_models_and_densities_take_the_direct_path(monkeypatch, loss):
    # a basis with a trig atom, and a KDE's density table, are read at
    # every transformed point, bit for bit as when f is a plain callable
    scored = []
    monkeypatch.setattr(discrete, "_coefficient_losses",
                        lambda *args: scored.append(args) or _coefficient_losses(*args))
    _, plane, _, _ = _parametric_inputs(401)
    basis = trig_extend(monomial_basis(2, 3))
    c = np.zeros(len(basis))
    c[[basis.index(sf.FeatureAtom("monomial", (3, 0))),
       basis.index(sf.FeatureAtom("monomial", (1, 2)))]] = [1.0, -3.0]
    c[basis.index(sf.FeatureAtom("cos", axis=0))] = 1e-3
    trig = sf.ScalarFunctionModel(basis, c)
    config = sf.OptimizerConfig(loss=loss)
    family = rotation_family(1.0, 3.0)
    a = fit_discrete(trig, plane, family, config)
    b = fit_discrete(lambda X: trig(X), plane, family, config)
    assert (a.parameters.tolist(), a.final_loss) == (b.parameters.tolist(),
                                                     b.final_loss)
    kde, data = _disc_rot_kde(1000, 401)
    fit_density_rotation(kde, data, np.pi / 6)
    assert scored == []


def test_polynomial_whose_monomials_overflow_at_the_data_takes_the_direct_path():
    # f = x^3 is finite at the data and at its images under x -> x cos p, but
    # y^3, an atom of the full cubic basis, is not: the fit is the plain
    # callable's, bit for bit
    x3 = sf.FeatureBasis(2, (sf.FeatureAtom("monomial", (3, 0)),))
    f = sf.ScalarFunctionModel(x3, [1.0])
    data = np.random.default_rng(0).standard_normal((50, 2)) * [1.0, 1e200]
    assert _coefficient_space(f, data, "mean-squared") is None
    family = user_linear_family([[_op("cos", _p(0)), 0], [0, 1]], 1, "interval",
                                (1.0, 3.0))
    a = fit_discrete(f, data, family, CFG)
    b = fit_discrete(lambda X: f(X), data, family, CFG)
    assert (a.parameters.tolist(), a.final_loss) == (b.parameters.tolist(),
                                                     b.final_loss)

