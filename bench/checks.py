"""Independent numpy truths for the benchmark's correctness checks.

Nothing here calls symfield code: fitted models are read only for their
coefficients and atom descriptions (kind, exponents, axis), and every value
a check compares against is recomputed with plain numpy from closed forms.
Each check raises CheckError with a one-line reason when it fails.
"""

from __future__ import annotations

import numpy as np


class CheckError(AssertionError):
    """A symfield output disagrees with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# --- dictionaries ---------------------------------------------------------


def atom_values(atoms, X: np.ndarray) -> np.ndarray:
    """(N, m) values of monomial / sin / cos atoms at the rows of X."""
    cols = []
    for a in atoms:
        if a.kind == "monomial":
            cols.append(np.prod(X ** np.asarray(a.exponents, dtype=float), axis=1))
        elif a.kind == "sin":
            cols.append(np.sin(X[:, a.axis]))
        elif a.kind == "cos":
            cols.append(np.cos(X[:, a.axis]))
        else:
            raise CheckError(f"unexpected atom kind {a.kind!r}")
    return np.column_stack(cols)


def atom_partials(atoms, X: np.ndarray) -> np.ndarray:
    """(N, m, n) partial derivatives of the atoms at the rows of X."""
    N, n = X.shape
    out = np.zeros((N, len(atoms), n))
    for k, a in enumerate(atoms):
        if a.kind == "monomial":
            e = np.asarray(a.exponents, dtype=float)
            for j in range(n):
                if e[j]:
                    ej = e.copy()
                    ej[j] -= 1
                    out[:, k, j] = e[j] * np.prod(X**ej, axis=1)
        elif a.kind == "sin":
            out[:, k, a.axis] = np.cos(X[:, a.axis])
        elif a.kind == "cos":
            out[:, k, a.axis] = -np.sin(X[:, a.axis])
        else:
            raise CheckError(f"unexpected atom kind {a.kind!r}")
    return out


def scalar_values(model, X) -> np.ndarray:
    return atom_values(model.basis.atoms, X) @ np.asarray(model.coefficients)


def scalar_gradient(model, X) -> np.ndarray:
    return np.einsum("m,imj->ij", np.asarray(model.coefficients),
                     atom_partials(model.basis.atoms, X))


def field_values(atoms, column, X) -> np.ndarray:
    """(N, n) values of the field whose stacked coefficient blocks are ``column``.

    Block i of the column holds the coefficients of component i over the atoms.
    """
    blocks = np.asarray(column, dtype=float).reshape(X.shape[1], len(atoms))
    return atom_values(atoms, X) @ blocks.T


def coefficient_vector(atoms, coeffs_by_exponents: dict) -> np.ndarray:
    """Coefficients of a polynomial over the given monomial atoms."""
    return np.array([coeffs_by_exponents.get(tuple(a.exponents), 0.0) for a in atoms])


# --- checks ---------------------------------------------------------------


def abs_cosine(u: np.ndarray, v: np.ndarray) -> float:
    u, v = np.ravel(u), np.ravel(v)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    require(nu > 0 and nv > 0, "zero vector in a cosine")
    return float(abs(u @ v) / (nu * nv))


def check_cosine(u, v, minimum: float, what: str) -> float:
    c = abs_cosine(u, v)
    require(c >= minimum, f"{what}: cosine {c:.6f} < {minimum}")
    return c


def check_annihilates(field_vals, grad_vals, tol: float, what: str) -> float:
    """Relative RMS of X(f) = alpha . grad f against |alpha| |grad f|."""
    num = np.sqrt(np.mean(np.einsum("ij,ij->i", field_vals, grad_vals) ** 2))
    den = np.sqrt(np.mean(np.sum(field_vals**2, 1) * np.sum(grad_vals**2, 1)))
    require(den > 0, f"{what}: field or gradient vanishes")
    rel = float(num / den)
    require(rel <= tol, f"{what}: relative X(f) {rel:.2e} > {tol:.0e}")
    return rel


def check_orthonormal(W: np.ndarray, what: str) -> None:
    W = np.asarray(W)
    dev = float(np.abs(W.T @ W - np.eye(W.shape[1])).max())
    require(dev <= 1e-8, f"{what}: W^T W deviates from I by {dev:.1e}")


def ky_fan_optimum(A: np.ndarray, q: int) -> float:
    """Global minimum of tr(W^T A^T A W) / (rows q) over orthonormal W."""
    ev = np.linalg.eigvalsh(A.T @ A)
    return float(ev[:q].sum() / (A.shape[0] * q))


def check_mse_solution(A: np.ndarray, W: np.ndarray, loss: float, what: str) -> float:
    """W is orthonormal, loss is its mean-squared loss and not below Ky Fan."""
    W = np.asarray(W)
    if W.ndim == 1:
        W = W[:, None]
    check_orthonormal(W, what)
    rows, q = A.shape[0], W.shape[1]
    scale = float(np.linalg.eigvalsh(A.T @ A)[-1]) / (rows * q)
    tol = 1e-9 * scale + 1e-14
    recomputed = float(np.sum((A @ W) ** 2)) / (rows * q)
    require(abs(recomputed - loss) <= 1e-6 * abs(loss) + tol,
            f"{what}: reported loss {loss:.6e} != recomputed {recomputed:.6e}")
    optimum = ky_fan_optimum(A, q)
    require(loss >= optimum - tol,
            f"{what}: loss {loss:.6e} below the Ky Fan optimum {optimum:.6e}")
    return loss - optimum


def vf_matrix(grad: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows grad_r f(x_i) b_m(x_i): the (N, n m) extended feature matrix, k = 1."""
    N, n = grad.shape
    return np.einsum("ir,im->irm", grad, B).reshape(N, n * B.shape[1])


def invariant_matrix(field_vals: np.ndarray, cand_partials: np.ndarray) -> np.ndarray:
    """Rows X(b^k)(x_i) for one field: the (N, m2) invariant feature matrix."""
    return np.einsum("imn,in->im", cand_partials, field_vals)


def check_close(a, b, rtol: float, atol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = np.abs(a - b)
    bad = err > atol + rtol * np.abs(b)
    require(not bad.any(), f"{what}: max deviation {err.max():.2e}")


def check_level_preserved(values: np.ndarray, tol: float, what: str) -> float:
    """A flow keeps its invariant: max |f(x(t)) - f(x(0))| relative to |f(x(0))|."""
    drift = float(np.abs(values - values[0]).max() / max(abs(values[0]), 1.0))
    require(drift <= tol, f"{what}: invariant drifts by {drift:.2e} > {tol:.0e}")
    return drift


def kde_density(centers, weights, h, X) -> np.ndarray:
    """Weighted Gaussian mixture density by direct pairwise sums.

    Rows go 256 at a time so that the check stays small next to the program's
    own memory peak.
    """
    norm = weights.sum() * (2 * np.pi * h * h) ** (centers.shape[1] / 2)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], 256):
        d2 = ((X[lo:lo + 256, None, :] - centers[None, :, :]) ** 2).sum(-1)
        out[lo:lo + 256] = np.exp(-d2 / (2 * h * h)) @ weights
    return out / norm


def rotation_matrix(theta: float) -> np.ndarray:
    """The rotation that maps x to S x in symfield's (c, s; -s, c) convention."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def reflection_matrix(normal) -> np.ndarray:
    """Reflection about the line through 0 orthogonal to the given normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    return np.eye(2) - 2.0 * np.outer(n, n)


def rotation_tolerance(N: int) -> float:
    """|theta - 2 pi / 7| allowance for N points: criterion 6's 0.08 at N = 1000,
    shrinking as 1 / N."""
    return 80.0 / N
