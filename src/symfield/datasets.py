"""Deterministic generators for the synthetic benchmark datasets.

Every generator is driven by a single PCG64 uniform stream; normal samples
use Box-Muller on that stream so regeneration is bit-identical for a fixed
seed regardless of platform-specific ziggurat tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

__all__ = ["GeneratorSpec", "generate", "GENERATOR_NAMES"]

GENERATOR_NAMES = (
    "gaussian-quadratic",
    "cubic",
    "sincos",
    "circle3d",
    "circle-uniform",
    "disc-rot",
    "killing4d",
    "hypercube10",
)


@dataclass
class GeneratorSpec:
    name: str
    size: int
    seed: int = 0
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in GENERATOR_NAMES:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        unread = set(self.parameters) - ({"k"} if self.name == "disc-rot" else set())
        if unread:
            raise ValueError(f"{self.name} reads no parameter {sorted(unread)}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "size": int(self.size),
            "seed": int(self.seed),
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratorSpec":
        return cls(
            d["name"], d["size"], d.get("seed", 0), dict(d.get("parameters", {}))
        )


def _normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """Box-Muller standard normals from the sequential uniform stream."""
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1]
    u2 = rng.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.column_stack([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
    return z.ravel()[:count]


def disc_rot_targets(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """1 / (1 + (polar angle of (x, y) mod 2 pi / k)).

    The full polar angle (atan2, measured from the y axis) makes the target
    exactly invariant under rotation by 2 pi / k; a principal-branch arctan
    of the ratio x / y would instead be pi-periodic and admit the half-turn
    as a spurious, stronger symmetry.
    """
    return 1.0 / (1.0 + np.mod(np.arctan2(x, y), 2.0 * np.pi / k))


def generate(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """Dataset matrix plus targets where the experiment defines them."""
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    N = spec.size
    name = spec.name

    if name == "gaussian-quadratic":
        z = _normals(rng, 2 * N)
        x = 1.0 + 2.0 * z[:N]
        y = 1.0 + z[N:]
        data = np.column_stack([x, y])
        return data, (x - 1.0) ** 2 + 4.0 * (y - 1.0) ** 2

    if name == "cubic":
        z = _normals(rng, 2 * N)
        x = 2.0 * z[:N]
        y = 2.0 * z[N:]
        return np.column_stack([x, y]), x**3 - y**2

    if name == "sincos":
        x = rng.uniform(0.0, 2.0 * np.pi, N)
        y = rng.uniform(0.0, 2.0 * np.pi, N)
        z = np.sin(x) - np.cos(y)
        return np.column_stack([x, y, z]), None

    if name == "circle3d":
        theta = np.mod(_normals(rng, N), 2.0 * np.pi)
        return (
            np.column_stack([np.cos(theta), np.sin(theta), np.ones(N)]),
            None,
        )

    if name == "circle-uniform":
        theta = rng.uniform(0.0, 2.0 * np.pi, N)
        return np.column_stack([np.cos(theta), np.sin(theta)]), None

    if name == "disc-rot":
        k = spec.parameters.get("k", 7)
        # the CLI passes every --param as a float: 7.0 is the integer 7
        if (isinstance(k, bool) or not isinstance(k, Real)
                or not (k >= 2 and float(k).is_integer())):
            raise ValueError(f"disc-rot needs an integer k >= 2, got {k!r}")
        k = int(k)
        z = _normals(rng, 2 * N)
        x, y = z[:N], z[N:]
        return np.column_stack([x, y]), disc_rot_targets(x, y, k)

    if name == "killing4d":
        u = rng.uniform(-1.0, 1.0, N)
        v = rng.uniform(-1.0, 1.0, N)
        w = rng.uniform(-1.0, 1.0, N)
        return np.column_stack([u, v, w]), 9.0 * u**2 + v**2 + w

    if name == "hypercube10":
        t = rng.uniform(-2.0, 2.0, N)
        x = rng.uniform(-2.0, 2.0, N)
        y = rng.uniform(-2.0, 2.0, N)
        z = rng.uniform(-2.0, 2.0, N)
        data = np.column_stack(
            [
                t,
                x,
                y,
                z,
                2.0 * t,
                x**2 + y**2 - t,
                np.full(N, 4.0),
                np.zeros(N),
                t - z,
                np.ones(N),
            ]
        )
        return data, None

    raise ValueError(f"unknown generator {name!r}")


def killing4d_embedding(reduced: np.ndarray) -> np.ndarray:
    """Ambient (x, y, z, t) coordinates of reduced (u, v, w) points."""
    reduced = np.atleast_2d(np.asarray(reduced, dtype=float))
    u, v, w = reduced[:, 0], reduced[:, 1], reduced[:, 2]
    return np.column_stack([u, v, u**2 + v**2 - w, 2.0 * u])
