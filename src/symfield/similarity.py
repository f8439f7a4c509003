"""Similarity of vector fields via normalized component inner products.

Each field is a one-field VectorFieldModel, and its component functions are
compared with L2 inner products over the axis-aligned box spanned by a
dataset; the score is the mean of the absolute normalized inner products, so
it ignores per-component sign and scale.  Polynomial components integrate in
closed form; anything else falls back to seeded Monte Carlo, where each
field's components are read from one design matrix of its basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .model_fit import ScalarFunctionModel
from .vfield import VectorFieldModel

__all__ = [
    "IntegrationDomain",
    "SimilarityReport",
    "domain_from_data",
    "similarity",
]

ZERO_NORM_TOL = 1e-14


@dataclass
class IntegrationDomain:
    lower: np.ndarray
    upper: np.ndarray
    degenerate_axes: list = field(default_factory=list)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound shapes differ")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("need lower < upper componentwise")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def to_dict(self) -> dict:
        d = {"lower": self.lower.tolist(), "upper": self.upper.tolist()}
        if self.degenerate_axes:
            d["degenerate_axes"] = self.degenerate_axes
        return d


@dataclass
class SimilarityReport:
    per_component: np.ndarray
    aggregate: float
    method: str
    domain: IntegrationDomain
    mc_samples: int | None = None
    mc_seed: int | None = None
    zero_norm_components: list = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {
            "per_component": [float(v) for v in self.per_component],
            "aggregate": float(self.aggregate),
            "method": self.method,
            "domain": self.domain.to_dict(),
        }
        if self.method == "monte-carlo":
            d["mc_samples"] = self.mc_samples
            d["mc_seed"] = self.mc_seed
        if self.zero_norm_components:
            d["zero_norm_components"] = self.zero_norm_components
        return d


def domain_from_data(data: np.ndarray) -> IntegrationDomain:
    """Componentwise bounding box; degenerate axes are inflated and flagged."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] < 2:
        raise ValueError("need at least two points")
    lower = data.min(axis=0)
    upper = data.max(axis=0)
    degenerate = [int(i) for i in np.nonzero(upper - lower <= 0)[0]]
    for i in degenerate:
        lower[i] -= 1e-9
        upper[i] += 1e-9
    return IntegrationDomain(lower, upper, degenerate)


def _as_poly(model: ScalarFunctionModel) -> dict | None:
    """Exponent-tuple -> coefficient map, or None for non-polynomials."""
    poly: dict[tuple, float] = {}
    for atom, c in zip(model.basis.atoms, model.coefficients):
        if c == 0.0:
            continue
        if atom.kind == "monomial":
            key = tuple(atom.exponents)
            poly[key] = poly.get(key, 0.0) + float(c)
        elif atom.kind == "product" and all(
            a.kind == "monomial" for a, _ in atom.factor
        ):
            for inner, ci in atom.factor:
                key = tuple(
                    e1 + e2 for e1, e2 in zip(atom.exponents, inner.exponents)
                )
                poly[key] = poly.get(key, 0.0) + float(c) * float(ci)
        else:
            return None
    return poly


def _monomial_box_integral(exps, domain: IntegrationDomain) -> float:
    out = 1.0
    for p, lo, hi in zip(exps, domain.lower, domain.upper):
        out *= (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
    return out


def _poly_inner(f: dict, g: dict, domain: IntegrationDomain) -> float:
    total = 0.0
    for ef, cf in f.items():
        for eg, cg in g.items():
            exps = tuple(a + b for a, b in zip(ef, eg))
            total += cf * cg * _monomial_box_integral(exps, domain)
    return total


def similarity(
    X: VectorFieldModel,
    X_hat: VectorFieldModel,
    domain: IntegrationDomain,
    method: str = "auto",
    mc_samples: int = 100_000,
    mc_seed: int = 0,
) -> SimilarityReport:
    """Mean absolute cosine of the component functions of two one-field
    models over the domain box.

    The Monte-Carlo method evaluates the components at mc_samples seeded
    uniform points, each field's from one design matrix of its basis, which
    is freed before the other field's is built.
    """
    if (isinstance(mc_samples, bool) or not isinstance(mc_samples, Integral)
            or mc_samples < 1):
        raise ValueError(f"mc_samples must be an integer >= 1, got {mc_samples!r}")
    f = X.components
    g = X_hat.components
    if len(f) != len(g):
        raise ValueError("fields have different dimensions")
    if len(f) != domain.dimension:
        raise ValueError("domain dimension does not match fields")

    f_polys = [_as_poly(c) for c in f]
    g_polys = [_as_poly(c) for c in g]
    polynomial = all(p is not None for p in f_polys + g_polys)
    if method == "auto":
        method = "analytic" if polynomial else "monte-carlo"
    if method == "analytic" and not polynomial:
        raise ValueError(
            "analytic similarity unsupported for non-polynomial fields; "
            "use monte-carlo"
        )

    n = len(f)
    if method == "analytic":
        inner = np.empty(n)
        norm_f = np.empty(n)
        norm_g = np.empty(n)
        for i in range(n):
            inner[i] = _poly_inner(f_polys[i], g_polys[i], domain)
            norm_f[i] = np.sqrt(max(_poly_inner(f_polys[i], f_polys[i], domain), 0.0))
            norm_g[i] = np.sqrt(max(_poly_inner(g_polys[i], g_polys[i], domain), 0.0))
        mc_samples = mc_seed = None
    elif method == "monte-carlo":
        rng = np.random.default_rng(mc_seed)
        S = rng.uniform(domain.lower, domain.upper, size=(mc_samples, n))
        fv = X(S)
        gv = X_hat(S)
        inner = np.mean(fv * gv, axis=0)
        norm_f = np.sqrt(np.mean(fv * fv, axis=0))
        norm_g = np.sqrt(np.mean(gv * gv, axis=0))
    else:
        raise ValueError(f"unknown method {method!r}")
    if not np.all(np.isfinite([inner, norm_f, norm_g])):
        raise FloatingPointError("an inner product or norm is not finite")

    cosines = np.empty(n)
    zero_norm = []
    for i in range(n):
        zf = norm_f[i] <= ZERO_NORM_TOL
        zg = norm_g[i] <= ZERO_NORM_TOL
        if zf and zg:
            cosines[i] = 1.0  # both components vanish identically: agreement
            zero_norm.append(i)
        elif zf or zg:
            cosines[i] = 0.0  # exactly one vanishes: maximal disagreement
            zero_norm.append(i)
        else:
            cosines[i] = min(abs(inner[i]) / (norm_f[i] * norm_g[i]), 1.0)
    return SimilarityReport(
        per_component=cosines,
        aggregate=float(np.mean(cosines)),
        method=method,
        domain=domain,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
        zero_norm_components=zero_norm,
    )
