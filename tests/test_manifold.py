import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfield.datasets import GeneratorSpec, generate
from symfield.features import monomial_basis, trig_extend
from symfield.manifold import (
    DivergenceError,
    OptimizerConfig,
    RetractionSingularError,
    _fix_column_signs,
    minimize,
    minimize_affine_target,
    random_orthonormal,
    retract,
    tangent_project,
)
from symfield.model_fit import fit_regression
from symfield.vfield import extended_feature_matrix


def test_retraction_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        W = random_orthonormal(8, 3, rng)
        T = tangent_project(W, rng.standard_normal((8, 3)))
        Q = retract(W, 0.1 * T)
        assert np.abs(Q.T @ Q - np.eye(3)).max() <= 1e-8


def test_tangent_projection_is_tangent():
    rng = np.random.default_rng(1)
    W = random_orthonormal(6, 2, rng)
    T = tangent_project(W, rng.standard_normal((6, 2)))
    sym = W.T @ T + T.T @ W
    assert np.abs(sym).max() <= 1e-12


def test_retraction_singular():
    W = np.zeros((3, 2))
    with pytest.raises(RetractionSingularError):
        retract(W, np.zeros((3, 2)))


def test_retraction_rank_threshold_is_relative():
    # the rank test is relative to the matrix's own scale: a tiny or a huge
    # full-rank matrix is retracted
    E = np.eye(3)[:, :2]
    assert np.array_equal(retract(1e-7 * E, np.zeros_like(E)), E)
    assert np.array_equal(retract(1e6 * E, np.zeros_like(E)), E)
    # a rank-deficient W + T is refused
    rng = np.random.default_rng(13)
    W = retract(np.zeros((4, 2)), rng.standard_normal((4, 2)))
    T = -W
    T[:, 1] += W[:, 0]
    with pytest.raises(RetractionSingularError):
        retract(W, T)


def test_random_init_deterministic():
    a = random_orthonormal(5, 2, np.random.default_rng(7))
    b = random_orthonormal(5, 2, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_minimize_finds_nullspace_direction():
    rng = np.random.default_rng(2)
    # A with an exact one-dimensional nullspace spanned by v
    v = np.array([3.0, -1.0, 2.0, 0.5])
    v /= np.linalg.norm(v)
    basisN = rng.standard_normal((200, 3))
    comp = np.linalg.svd(v[None, :])[2][1:]  # orthogonal complement of v
    A = basisN @ comp
    W, trace = minimize(
        A, 1, OptimizerConfig("riemannian-adagrad", "mean-squared", 0.1, 3000)
    )
    assert abs(abs(W[:, 0] @ v) - 1.0) <= 1e-6
    assert trace.final_loss <= 1e-10


def test_adagrad_first_epoch_matches_rescaled_sgd():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((50, 4))
    eps = 1e-10
    lr = 0.01
    ada, _ = minimize(
        A, 1, OptimizerConfig("riemannian-adagrad", "mean-absolute", lr, 1,
                              seed=5, adagrad_epsilon=eps)
    )
    sgd, _ = minimize(
        A, 1, OptimizerConfig("riemannian-sgd", "mean-absolute",
                              lr / np.sqrt(eps), 1, seed=5)
    )
    assert np.allclose(ada, sgd, atol=1e-12)


def test_sign_convention():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((100, 5))
    W, _ = minimize(A, 2, OptimizerConfig(epochs=10))
    for j in range(2):
        k = np.argmax(np.abs(W[:, j]))
        assert W[k, j] > 0


def test_final_loss_recomputed_at_returned_point():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((80, 4))
    W, trace = minimize(
        A, 1, OptimizerConfig("riemannian-sgd", "mean-absolute", 0.01, 50)
    )
    expect = np.abs(A @ W).sum() / (80 * 1)
    assert trace.final_loss == pytest.approx(expect, rel=1e-12)


def test_mse_loss_nonnegative():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((40, 6))
    A = A - A @ np.outer(*(2 * [np.eye(6)[:, 0]]))  # exact nullspace e1
    _, trace = minimize(
        A, 1, OptimizerConfig("riemannian-adagrad", "mean-squared", 0.5, 2000)
    )
    assert all(l >= 0.0 for l in trace.losses)
    assert trace.final_loss >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 60),
    p=st.integers(1, 12),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.integers(-6, 6),
)
def test_mean_squared_is_ky_fan_optimum(rows, p, data, seed, log_scale):
    q = data.draw(st.integers(1, p), label="q")
    rank = data.draw(st.integers(0, min(rows, p)), label="rank")
    rng = np.random.default_rng(seed)
    A = 10.0**log_scale * (
        rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, p))
    )
    W, trace = minimize(A, q, OptimizerConfig(loss="mean-squared"))
    assert W.shape == (p, q)
    assert np.abs(W.T @ W - np.eye(q)).max() <= 1e-10
    eigenvalues = np.linalg.eigvalsh(A.T @ A)
    optimum = eigenvalues[:q].sum() / (rows * q)
    tol = 1e-12 * max(eigenvalues[-1], 0.0) / (rows * q)
    assert abs(trace.final_loss - optimum) <= tol
    assert trace.losses == [trace.final_loss]

    # the closed form reads no update-rule setting
    other = OptimizerConfig(
        algorithm=data.draw(
            st.sampled_from(["riemannian-sgd", "riemannian-adagrad"])),
        loss="mean-squared",
        learning_rate=data.draw(st.floats(1e-6, 10.0)),
        epochs=data.draw(st.integers(1, 10**6)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    W2, trace2 = minimize(A, q, other)
    assert W2.tobytes() == W.tobytes()
    assert trace2.final_loss == trace.final_loss


@pytest.mark.parametrize("bad", [
    dict(algorithm="adam"),
    dict(loss="huber"),
    dict(learning_rate=0.0),
    dict(epochs=0),
    dict(adagrad_epsilon=0.0),
    dict(epochs="x"),
    dict(epochs=10.0),
    dict(epochs=True),
    dict(seed="0"),
    dict(seed=1.5),
    dict(seed=False),
    dict(learning_rate="0.1"),
    dict(learning_rate=None),
    dict(learning_rate=True),
    dict(adagrad_epsilon=[1e-10]),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        OptimizerConfig(**bad)


@pytest.mark.parametrize("name", ["learning_rate", "adagrad_epsilon"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_nonfinite_rates(name, value):
    with pytest.raises(ValueError, match=name):
        OptimizerConfig(**{name: value})


def test_config_from_dict_reads_every_field():
    cfg = OptimizerConfig.from_dict(
        {"algorithm": "riemannian-sgd", "loss": "mean-squared",
         "learning_rate": 0.5, "epochs": 7, "seed": 3, "adagrad_epsilon": 1e-6}
    )
    assert cfg == OptimizerConfig("riemannian-sgd", "mean-squared", 0.5, 7, 3, 1e-6)


@pytest.mark.parametrize("extra", ["learning-rate", "comment", "lr"])
def test_config_from_dict_rejects_unknown_keys(extra):
    # a misspelt key used to be dropped, and the defaults ran silently
    with pytest.raises(ValueError, match=extra):
        OptimizerConfig.from_dict({"epochs": 7, extra: 0.5})


def test_config_accepts_json_integer_rates():
    cfg = OptimizerConfig.from_dict({"learning_rate": 1, "adagrad_epsilon": 1})
    assert cfg.learning_rate == 1 and cfg.adagrad_epsilon == 1


def test_minimize_rejects_nonfinite():
    A = np.array([[1.0, np.nan]])
    with pytest.raises(ValueError):
        minimize(A, 1, OptimizerConfig(epochs=1))


def test_minimize_q_bounds():
    A = np.ones((3, 2))
    with pytest.raises(ValueError):
        minimize(A, 3, OptimizerConfig(epochs=1))


def test_affine_target_exact():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((50, 3))
    w = np.array([1.0, -2.0, 0.5])
    assert np.allclose(minimize_affine_target(A, A @ w), w, atol=1e-10)


@pytest.mark.parametrize("ratio, kept", [(1e-9, False), (1e-6, True)])
def test_affine_target_drops_a_direction_below_the_rank_cut_off(ratio, kept):
    # a direction whose singular value is 1e-9 of the largest is dropped,
    # leaving w's part along the leading direction; one at 1e-6 is kept
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((30, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    A = U @ np.diag([1.0, ratio]) @ V.T
    w = np.array([1.0, -2.0])
    want = w if kept else V[:, 0] * (V[:, 0] @ w)
    assert np.allclose(minimize_affine_target(A, A @ w), want, rtol=0, atol=1e-8)


def test_affine_target_rank_deficient_min_norm():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    w = minimize_affine_target(A, np.array([2.0, 4.0]))
    # minimum-norm solution of x + y = 2
    assert np.allclose(w, [1.0, 1.0], atol=1e-10)


def _qr_minimize(A, config):
    """minimize's one-column mean-absolute loop as it was, with a (p, 1)
    W and the QR retraction."""
    rows, p = A.shape
    scale = rows

    def loss_and_grad(W):
        res = A @ W
        return float(np.abs(res).sum()) / scale, (A.T @ np.sign(res)) / scale

    W = random_orthonormal(p, 1, np.random.default_rng(config.seed))
    acc = np.zeros((p, 1))
    for _ in range(config.epochs):
        _, g = loss_and_grad(W)
        if config.algorithm == "riemannian-adagrad":
            step = config.learning_rate * g / np.sqrt(acc + config.adagrad_epsilon)
            acc += g * g
        else:
            step = config.learning_rate * g
        W = retract(W, -tangent_project(W, step))
    W = _fix_column_signs(W)
    return W, loss_and_grad(W)[0]


def _sincos_matrix(seed, vf_basis):
    data, _ = generate(GeneratorSpec("sincos", 2048, seed))
    xy, z = data[:, :2], data[:, 2]
    f = fit_regression(xy, z, trig_extend(monomial_basis(2, 1)))
    return extended_feature_matrix(f, xy, vf_basis)


def _sphere_cases():
    # criterion 4's matrix with its ten optimizer seeds
    A = _sincos_matrix(0, monomial_basis(2, 2))
    for seed in range(10):
        yield A, OptimizerConfig("riemannian-adagrad", "mean-absolute", 0.1,
                                 5000, seed)
    # the benchmark's sincos solve
    for seed in (401, 11, 977):
        yield (_sincos_matrix(seed, trig_extend(monomial_basis(2, 0))),
               OptimizerConfig("riemannian-adagrad", "mean-absolute", 0.1,
                               5000, 0))
    # constant-rate sgd: this map grows a rounding difference by about
    # 0.75 % an epoch with no residual changing sign (two QR loops that
    # differ only in how A^T is stored part by 9e-15 at epoch 400 and
    # 1.6e-9 at 2000), so the run stops at 500
    A = np.random.default_rng(9).standard_normal((300, 7))
    yield A, OptimizerConfig("riemannian-sgd", "mean-absolute", 0.01, 500, 3)


def test_sphere_loop_matches_qr_retraction():
    for A, config in _sphere_cases():
        W, trace = minimize(A, 1, config)
        ref_W, ref_loss = _qr_minimize(A, config)
        assert W.shape == (A.shape[1], 1)
        assert np.abs(W - ref_W).max() <= 1e-12
        assert trace.final_loss == pytest.approx(ref_loss, rel=1e-12)


def test_sphere_loop_takes_no_qr_after_the_start(monkeypatch):
    real_qr = np.linalg.qr
    calls = []

    def qr_for_the_start_only(M):
        calls.append(M.shape)
        if len(calls) > 1:
            raise AssertionError("QR retraction reached in the q = 1 loop")
        return real_qr(M)

    monkeypatch.setattr(np.linalg, "qr", qr_for_the_start_only)
    A = np.random.default_rng(10).standard_normal((100, 5))
    for algorithm in ("riemannian-sgd", "riemannian-adagrad"):
        calls.clear()
        W, _ = minimize(A, 1, OptimizerConfig(algorithm, "mean-absolute",
                                              0.1, 200))
        assert calls == [(5, 1)]  # random_orthonormal's seeded start
        assert abs(np.linalg.norm(W) - 1.0) <= 1e-12
    # more columns still retract by QR every epoch
    calls.clear()
    with pytest.raises(AssertionError, match="QR retraction"):
        minimize(A, 2, OptimizerConfig(epochs=2))


def test_sphere_loop_huge_step_stays_unit():
    A = np.random.default_rng(11).standard_normal((60, 4))
    for lr in (1e8, 1e200):
        W, trace = minimize(
            A, 1, OptimizerConfig("riemannian-sgd", "mean-absolute", lr, 20))
        assert np.all(np.isfinite(W))
        assert abs(np.linalg.norm(W) - 1.0) <= 1e-12
        assert np.isfinite(trace.final_loss)


def test_sphere_loop_nonfinite_step_diverges():
    A = np.random.default_rng(12).standard_normal((60, 4))
    # lr / sqrt(epsilon) overflows: the first step is infinite
    config = OptimizerConfig("riemannian-adagrad", "mean-absolute", 1e305, 3,
                             adagrad_epsilon=1e-10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            minimize(A, 1, config)
    assert info.value.epoch == 1


@pytest.mark.parametrize("q", [1, 2])
def test_nonfinite_last_step_diverges(q):
    # with one epoch the infinite step is the last one, taken after the
    # epoch's loss was checked: W and the recomputed loss are NaN
    A = np.random.default_rng(13).standard_normal((60, 4))
    config = OptimizerConfig("riemannian-adagrad", "mean-absolute", 1e305, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as info:
            minimize(A, q, config)
    assert info.value.epoch == 1
