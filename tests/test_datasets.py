import numpy as np
import pytest

from symfield.datasets import (
    GENERATOR_NAMES,
    GeneratorSpec,
    disc_rot_targets,
    generate,
    killing4d_embedding,
)


def test_regeneration_is_bit_identical():
    for name in GENERATOR_NAMES:
        a, ta = generate(GeneratorSpec(name, 64, 11))
        b, tb = generate(GeneratorSpec(name, 64, 11))
        assert np.array_equal(a, b)
        assert (ta is None and tb is None) or np.array_equal(ta, tb)


def test_seed_changes_data():
    a, _ = generate(GeneratorSpec("cubic", 64, 0))
    b, _ = generate(GeneratorSpec("cubic", 64, 1))
    assert not np.array_equal(a, b)


def test_gaussian_quadratic_targets_definitional():
    data, targets = generate(GeneratorSpec("gaussian-quadratic", 3, 5))
    x, y = data[:, 0], data[:, 1]
    assert np.array_equal(targets, (x - 1) ** 2 + 4 * (y - 1) ** 2)


def test_gaussian_quadratic_moments():
    data, _ = generate(GeneratorSpec("gaussian-quadratic", 20000, 0))
    assert np.allclose(data.mean(axis=0), [1.0, 1.0], atol=0.05 * 2)
    assert np.allclose(data.var(axis=0), [4.0, 1.0], rtol=0.05)


def test_circle3d_on_circle():
    data, _ = generate(GeneratorSpec("circle3d", 200, 0))
    assert np.abs(data[:, 0] ** 2 + data[:, 1] ** 2 - 1).max() <= 1e-12
    assert np.array_equal(data[:, 2], np.ones(200))


def test_hypercube_exact_columns():
    data, _ = generate(GeneratorSpec("hypercube10", 100, 0))
    assert np.array_equal(data[:, 4], 2 * data[:, 0])
    assert np.all(data[:, 6] == 4.0)
    assert np.all(data[:, 7] == 0.0)
    assert np.all(data[:, 9] == 1.0)
    assert np.array_equal(data[:, 8], data[:, 0] - data[:, 3])
    assert np.allclose(data[:, 5], data[:, 1] ** 2 + data[:, 2] ** 2 - data[:, 0])


def test_disc_rot_targets_invariant_under_sector_rotation():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 500))
    base = disc_rot_targets(x, y, 7)
    theta = 2 * np.pi / 7
    xr = np.cos(theta) * x + np.sin(theta) * y
    yr = -np.sin(theta) * x + np.cos(theta) * y
    rotated = disc_rot_targets(xr, yr, 7)
    assert np.abs(rotated - base).max() <= 1e-9


def test_disc_rot_k_parameter():
    data, targets = generate(
        GeneratorSpec("disc-rot", 100, 0, {"k": 4})
    )
    x, y = data[:, 0], data[:, 1]
    assert np.array_equal(targets, disc_rot_targets(x, y, 4))
    with pytest.raises(ValueError):
        generate(GeneratorSpec("disc-rot", 10, 0, {"k": 1}))


def test_disc_rot_k_must_be_integral():
    # a whole float is its integer; a fractional k used to be truncated
    whole = generate(GeneratorSpec("disc-rot", 50, 0, {"k": 7.0}))[1]
    assert np.array_equal(whole, generate(GeneratorSpec("disc-rot", 50, 0))[1])
    for bad in (2.7, 1.0, 0, -3, float("nan"), float("inf"), True, "7", None):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("disc-rot", 10, 0, {"k": bad}))


def test_killing4d_embedding_definitional():
    data, targets = generate(GeneratorSpec("killing4d", 50, 0))
    u, v, w = data.T
    amb = killing4d_embedding(data)
    assert np.array_equal(amb[:, 0], u)
    assert np.array_equal(amb[:, 1], v)
    assert np.array_equal(amb[:, 2], u**2 + v**2 - w)
    assert np.array_equal(amb[:, 3], 2 * u)
    assert np.array_equal(targets, 9 * u**2 + v**2 + w)


def test_sincos_surface():
    data, _ = generate(GeneratorSpec("sincos", 100, 0))
    x, y, z = data.T
    assert np.abs(z - (np.sin(x) - np.cos(y))).max() <= 1e-15
    assert x.min() >= 0 and x.max() <= 2 * np.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("unknown", 10)
    with pytest.raises(ValueError):
        GeneratorSpec("cubic", 0)


def test_spec_refuses_parameters_its_generator_does_not_read():
    with pytest.raises(ValueError, match="foo"):
        GeneratorSpec("cubic", 10, 0, {"foo": 1.0})
    with pytest.raises(ValueError, match="kk"):
        GeneratorSpec("disc-rot", 10, 0, {"k": 7, "kk": 1.0})
    with pytest.raises(ValueError):
        GeneratorSpec("circle-uniform", 10, 0, {"k": 7})


def test_spec_roundtrip():
    spec = GeneratorSpec("disc-rot", 42, 7, {"k": 5})
    again = GeneratorSpec.from_dict(spec.to_dict())
    assert again == spec
