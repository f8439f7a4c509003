"""Evaluable, analytically differentiable function dictionaries.

A basis is an ordered list of scalar atoms b_k : R^n -> R.  Supported atoms
are monomials, sines/cosines of single coordinates, and products of a
monomial with a previously fitted linear combination (used to absorb
degenerate level-set columns).  All atoms expose exact partial derivatives,
so feature Jacobians never rely on finite differences.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "FeatureAtom",
    "FeatureBasis",
    "monomial_basis",
    "trig_extend",
    "design_matrix",
    "jacobian_stack",
]


def _power(x: np.ndarray, e: int) -> np.ndarray:
    """x ** e for an integer e >= 0 by repeated squaring (Knuth, TAOCP vol.
    2, 4.6.3), in place of numpy's per-element libm pow: exact for e <= 2,
    about 2 log2(e) roundings otherwise, and inf where the power overflows.
    e = 1 returns x itself."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else result * x
        e >>= 1
        if e:
            x = x * x
    return np.ones_like(x) if result is None else result


@dataclass(frozen=True)
class FeatureAtom:
    """One dictionary element.

    kind is one of "monomial", "sin", "cos", "product".  A product atom
    multiplies the monomial given by ``exponents`` with the fixed linear
    combination ``factor`` (pairs of (atom, coefficient)); these atoms are
    artificial scaffolding and can be stripped from reported models.
    """

    kind: str
    exponents: tuple[int, ...] = ()
    axis: int = -1
    factor: tuple[tuple["FeatureAtom", float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("monomial", "sin", "cos", "product"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        # _power raises them by repeated squaring
        if not all(isinstance(e, numbers.Integral) and not isinstance(e, bool)
                   for e in self.exponents):
            raise ValueError("exponents must be integers")
        if self.kind == "monomial" and any(e < 0 for e in self.exponents):
            raise ValueError("monomial exponents must be nonnegative")
        if self.kind in ("sin", "cos") and self.axis < 0:
            raise ValueError("trig atom needs a coordinate axis")

    def fits(self, n: int) -> bool:
        """Whether the atom is a function on R^n: one exponent per coordinate,
        or a trig axis below n."""
        if self.kind in ("sin", "cos"):
            return self.axis < n
        return len(self.exponents) == n and all(a.fits(n) for a, _ in self.factor)

    @property
    def artificial(self) -> bool:
        return self.kind == "product"

    def label(self) -> str:
        """Human-readable form, e.g. ``x1^2*x3`` or ``sin(x2)``."""
        if self.kind in ("sin", "cos"):
            return f"{self.kind}(x{self.axis + 1})"
        parts = [
            f"x{j + 1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(self.exponents)
            if e
        ]
        mono = "*".join(parts) if parts else "1"
        if self.kind == "monomial":
            return mono
        inner = " + ".join(
            f"{c:g}*{a.label()}" for a, c in self.factor if c != 0.0
        )
        return f"{mono}*({inner})"

    def degree(self) -> int:
        """Total polynomial degree (trig atoms count as degree 0)."""
        if self.kind == "monomial":
            return sum(self.exponents)
        if self.kind == "product":
            inner = max(
                (a.degree() for a, c in self.factor if c != 0.0), default=0
            )
            return sum(self.exponents) + inner
        return 0

    def values(self, points: np.ndarray) -> np.ndarray:
        """Atom values at an (N, n) array of points.  A monomial multiplies
        _power(x_j, e_j) over its coordinates, left to right."""
        if self.kind == "monomial":
            out = np.ones(points.shape[0])
            for j, e in enumerate(self.exponents):
                if e:
                    out = out * _power(points[:, j], e)
            return out
        if self.kind == "sin":
            return np.sin(points[:, self.axis])
        if self.kind == "cos":
            return np.cos(points[:, self.axis])
        mono = FeatureAtom("monomial", self.exponents).values(points)
        inner = np.zeros(points.shape[0])
        for atom, coeff in self.factor:
            inner += coeff * atom.values(points)
        return mono * inner

    def partials(self, points: np.ndarray) -> np.ndarray:
        """(N, n) array of partial derivatives at each point."""
        npts, n = points.shape
        out = np.zeros((npts, n))
        if self.kind == "monomial":
            for j, e in enumerate(self.exponents):
                if e == 0:
                    continue
                col = np.full(npts, float(e))
                for k, ek in enumerate(self.exponents):
                    p = ek - 1 if k == j else ek
                    if p:
                        col = col * _power(points[:, k], p)
                out[:, j] = col
            return out
        if self.kind == "sin":
            out[:, self.axis] = np.cos(points[:, self.axis])
            return out
        if self.kind == "cos":
            out[:, self.axis] = -np.sin(points[:, self.axis])
            return out
        mono = FeatureAtom("monomial", self.exponents)
        mono_v = mono.values(points)
        mono_g = mono.partials(points)
        inner_v = np.zeros(npts)
        inner_g = np.zeros((npts, n))
        for atom, coeff in self.factor:
            inner_v += coeff * atom.values(points)
            inner_g += coeff * atom.partials(points)
        return mono_g * inner_v[:, None] + mono_v[:, None] * inner_g


@dataclass(frozen=True)
class FeatureBasis:
    """Ordered, duplicate-free dictionary of atoms over R^n."""

    dimension: int
    atoms: tuple[FeatureAtom, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("basis contains duplicate atoms")
        for atom in self.atoms:
            if not atom.fits(self.dimension):
                raise ValueError(
                    f"atom {atom.label()} does not fit dimension {self.dimension}")

    def __len__(self) -> int:
        return len(self.atoms)

    def index(self, atom: FeatureAtom) -> int:
        return self.atoms.index(atom)

    def extend(self, extra) -> "FeatureBasis":
        atoms = list(self.atoms)
        for a in extra:
            if a not in atoms:
                atoms.append(a)
        return FeatureBasis(self.dimension, tuple(atoms))

    def strip_artificial(self) -> "FeatureBasis":
        return FeatureBasis(
            self.dimension, tuple(a for a in self.atoms if not a.artificial)
        )

    def has_constant(self) -> bool:
        return FeatureAtom("monomial", (0,) * self.dimension) in self.atoms

    def is_polynomial(self) -> bool:
        return all(a.kind == "monomial" for a in self.atoms)


def _graded_lex_exponents(n: int, max_degree: int):
    """All exponent tuples with total degree <= max_degree, graded lex order."""
    for total in range(max_degree + 1):
        batch = []
        for combo in combinations_with_replacement(range(n), total):
            exps = [0] * n
            for j in combo:
                exps[j] += 1
            batch.append(tuple(exps))
        # lex within a degree level: higher power on earlier axes first
        batch.sort(reverse=True)
        yield from batch


def monomial_basis(
    n: int, max_degree: int, include_constant: bool = True
) -> FeatureBasis:
    """All monomials of total degree <= max_degree in canonical order."""
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    atoms = [
        FeatureAtom("monomial", exps)
        for exps in _graded_lex_exponents(n, max_degree)
    ]
    if not include_constant:
        atoms = [a for a in atoms if sum(a.exponents) > 0]
    return FeatureBasis(n, tuple(atoms))


def trig_extend(basis: FeatureBasis) -> FeatureBasis:
    """Append cos(x_i) then sin(x_i) atoms for every coordinate."""
    n = basis.dimension
    trig = [FeatureAtom("cos", axis=i) for i in range(n)]
    trig += [FeatureAtom("sin", axis=i) for i in range(n)]
    return basis.extend(trig)


def design_matrix(basis: FeatureBasis, points: np.ndarray) -> np.ndarray:
    """(N, m) matrix with row i holding all atom values at point i."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.dimension:
        raise ValueError(
            f"points have dimension {points.shape[1]}, "
            f"basis expects {basis.dimension}"
        )
    return np.column_stack([a.values(points) for a in basis.atoms])


def jacobian_stack(basis: FeatureBasis, points: np.ndarray) -> np.ndarray:
    """(N, m, n) array of analytic feature Jacobians at each point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.dimension:
        raise ValueError("point dimension does not match basis")
    return np.stack([a.partials(points) for a in basis.atoms], axis=1)
