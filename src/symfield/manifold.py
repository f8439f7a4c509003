"""Minimization of ||A W|| with orthonormal-column constraint.

The constraint surface is the unit sphere when W has one column and the
Stiefel manifold otherwise.  The mean-squared loss is solved in closed
form: the q eigenvectors of A^T A with the smallest eigenvalues are a
global optimum (Ky Fan).  The mean-absolute loss uses Riemannian gradient
descent or a Riemannian Adagrad variant (per-entry squared gradient
accumulator applied before tangent projection).  One column runs on the
sphere as a vector and retracts by normalisation, which is the QR
retraction for one column; more columns retract by QR.  Everything is
full-batch and deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real

import numpy as np

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "RetractionSingularError",
    "DivergenceError",
    "tangent_project",
    "retract",
    "random_orthonormal",
    "minimize",
    "minimize_affine_target",
]

ORTHONORMALITY_TOL = 1e-8
# least squares drops sigma < LSTSQ_RCOND sigma_max: cond(A^T A) > 1e14 on A
LSTSQ_RCOND = 1e-7


class RetractionSingularError(np.linalg.LinAlgError):
    """W + T was rank deficient, no QR retraction exists."""


class DivergenceError(FloatingPointError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class OptimizerConfig:
    algorithm: str = "riemannian-adagrad"
    loss: str = "mean-absolute"
    learning_rate: float = 0.01
    epochs: int = 5000
    seed: int = 0
    adagrad_epsilon: float = 1e-10

    def __post_init__(self):
        if self.algorithm not in ("riemannian-sgd", "riemannian-adagrad"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.loss not in ("mean-absolute", "mean-squared"):
            raise ValueError(f"unknown loss {self.loss!r}")
        for name, kind in (("epochs", Integral), ("seed", Integral),
                           ("learning_rate", Real), ("adagrad_epsilon", Real)):
            value = getattr(self, name)
            # bool is an Integral, but a JSON true is never a count or a rate
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind.__name__.lower()}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.adagrad_epsilon) and self.adagrad_epsilon > 0):
            raise ValueError("adagrad_epsilon must be finite and positive")

    @classmethod
    def from_dict(cls, d: dict) -> "OptimizerConfig":
        if not isinstance(d, dict):
            raise ValueError("an optimizer configuration must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown optimizer configuration keys: {unknown}")
        return cls(**d)


@dataclass
class OptimizationTrace:
    losses: list = field(default_factory=list)
    final_loss: float = np.inf


def tangent_project(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project G onto the tangent space of the Stiefel manifold at W."""
    WtG = W.T @ G
    return G - W @ ((WtG + WtG.T) / 2.0)


def retract(W: np.ndarray, T: np.ndarray) -> np.ndarray:
    """QR retraction of W + T, with R's diagonal forced positive."""
    Q, R = np.linalg.qr(W + T)
    diag = np.diag(R)
    if np.any(np.abs(diag) < 1e-12 * max(1.0, np.abs(diag).max(initial=0.0))):
        raise RetractionSingularError("W + T is rank deficient")
    return Q * np.where(diag < 0, -1.0, 1.0)


def random_orthonormal(p: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded standard-normal p x q matrix orthonormalized by QR."""
    return retract(np.zeros((p, q)), rng.standard_normal((p, q)))


def _fix_column_signs(W: np.ndarray) -> np.ndarray:
    """Flip each column so that its first entry whose magnitude is within
    ORTHONORMALITY_TOL (relative) of the column's largest is positive.

    Taking the largest entry alone would let rounding pick the sign of a
    column with two entries of equal magnitude, as a rotation field has.
    """
    W = W.copy()
    for j in range(W.shape[1]):
        size = np.abs(W[:, j])
        k = np.argmax(size >= (1.0 - ORTHONORMALITY_TOL) * size.max())
        if W[k, j] < 0:
            W[:, j] = -W[:, j]
    return W


def minimize(
    A: np.ndarray,
    q: int,
    config: OptimizerConfig,
) -> tuple[np.ndarray, OptimizationTrace]:
    """Minimize loss(A W, 0) over p x q matrices with orthonormal columns.

    The mean-squared loss takes one eigensolve and reads only config.loss;
    the mean-absolute loss runs config.epochs steps from a seeded start.
    Returns the sign-normalized solution and the loss trace; the trace's
    final_loss is recomputed at the returned point.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("A must be finite")
    rows, p = A.shape
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= {p}, got q={q}")
    scale = rows * q
    if config.loss == "mean-squared":
        W = _fix_column_signs(np.linalg.eigh(A.T @ A)[1][:, :q])
        loss = float(np.sum((A @ W) ** 2)) / scale
        return W, OptimizationTrace([loss], loss)

    At = np.ascontiguousarray(A.T)

    def loss_and_grad(W):
        res = A @ W
        return float(np.abs(res).sum()) / scale, (At @ np.sign(res)) / scale

    W = random_orthonormal(p, q, np.random.default_rng(config.seed))
    if q == 1:
        W = W[:, 0]  # one column runs on the sphere as a vector
    lr = config.learning_rate
    acc = np.zeros_like(W)
    trace = OptimizationTrace()
    for epoch in range(config.epochs):
        loss, g = loss_and_grad(W)
        if not math.isfinite(loss):
            raise DivergenceError(epoch)
        trace.losses.append(loss)
        if config.algorithm == "riemannian-adagrad":
            # accumulator lags one step: a fresh run's first update is the
            # sgd update with learning rate lr / sqrt(epsilon)
            step = lr * g / np.sqrt(acc + config.adagrad_epsilon)
            acc += g * g
        else:
            step = lr * g
        if q == 1:
            # the QR retraction of one column is normalisation; t is
            # tangent at the unit vector W, so ||W - t|| >= 1 and no
            # RetractionSingularError can arise
            t = step - W * (W @ step)
            W = W - t
            W /= math.hypot(*W.tolist())  # overflow-safe norm
        else:
            W = retract(W, -tangent_project(W, step))

    W = _fix_column_signs(W.reshape(p, q))
    trace.final_loss = loss_and_grad(W)[0]
    # the last epoch's step is taken after its loss was checked
    if not (math.isfinite(trace.final_loss) and np.all(np.isfinite(W))):
        raise DivergenceError(config.epochs)
    return W, trace


def _lstsq(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(w, rank): the minimum-norm least-squares solution of A w ~ b by SVD,
    with singular values below LSTSQ_RCOND times the largest dropped."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    # checked first: LAPACK prints to stderr on a non-finite matrix
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("least-squares inputs must be finite")
    w, _, rank, _ = np.linalg.lstsq(A, b, rcond=LSTSQ_RCOND)
    return w, int(rank)


def minimize_affine_target(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unconstrained least squares A w ~ b: _lstsq's minimum-norm solution."""
    return _lstsq(A, b)[0]
