"""Nonlinear terms: integer powers u^p and the 3D Hartree term (|x|^-1 * u^2) u.

Convention: the exponent parameter p counts the power of u in the power-type
term, so p = 3 is the cubic equation.  The variational exponent that enters
the action, the stabilization exponent and the linearization identities is
p + 1 for the power type and 4 for the Hartree type (the term itself being
cubic but its pairing with u quartic).

The free-space Coulomb convolution on the periodic box uses the spherically
truncated kernel with radius R = L/2 (spectral symbol 4*pi*(1-cos(R|xi|))/|xi|^2,
zero mode 2*pi*R^2), which reproduces the free-space result exactly whenever
the squared field is supported in the ball of radius R/2.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, SpectralField, _forward, _inverse, _real_values, sobolev_norm

__all__ = [
    "NonlinearitySpec",
    "power",
    "hartree",
    "evaluate",
    "hartree_potential",
    "linearize",
    "taylor_remainder",
    "multilinear_ratio",
    "RatioStats",
]

LADDER_EPS = 1.0e-3  # offset used when a Sobolev exponent lands exactly on n/2


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power-type u^p (integer p >= 3) or 3D Hartree (|x|^-1 * u^2) u."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "power":
            if not isinstance(self.p, int) or self.p < 3:
                raise ValueError(f"power-type exponent must be an integer >= 3, got {self.p!r}")
        elif self.kind == "hartree":
            if self.p is not None:
                raise ValueError("hartree nonlinearity does not take an exponent")
        else:
            raise ValueError(f"kind must be 'power' or 'hartree', got {self.kind!r}")

    @property
    def degree(self) -> int:
        """Homogeneity degree of the term (p for powers, 3 for Hartree)."""
        return self.p if self.kind == "power" else 3

    @property
    def variational_exponent(self) -> int:
        """Exponent in the action pairing: degree + 1 (4 for Hartree)."""
        return self.degree + 1

    def validate_dimension(self, n: int) -> None:
        """Cross-field admissibility: Hartree needs n = 3; powers must be subcritical."""
        if self.kind == "hartree":
            if n != 3:
                raise ValueError("hartree nonlinearity is only defined in dimension n = 3")
            return
        if n >= 2:
            bound = 2 * n / (n - 1)
            if self.p >= bound:
                raise ValueError(
                    f"power exponent p={self.p} violates subcriticality: requires p < 2n/(n-1) = {bound:g} for n={n}"
                )


def power(p: int) -> NonlinearitySpec:
    return NonlinearitySpec("power", p)


def hartree() -> NonlinearitySpec:
    return NonlinearitySpec("hartree")


@lru_cache(maxsize=16)
def _coulomb_symbol(grid: Grid, octant: bool = False) -> np.ndarray:
    """Truncated-kernel symbol on the full lattice, or on the octant (read-only)."""
    radius = 0.5 * grid.length
    t = grid.octant_xi_sq if octant else grid.xi_sq
    out = np.empty_like(t)
    nz = t > 0
    out[nz] = 4.0 * np.pi * (1.0 - np.cos(radius * np.sqrt(t[nz]))) / t[nz]
    out[~nz] = 2.0 * np.pi * radius**2
    out.setflags(write=False)
    return out


def _coulomb_values(grid: Grid, density: np.ndarray) -> np.ndarray:
    """Coulomb potential of a full-grid or an octant density, in the same representation."""
    # unnormalized transform pair: the dx^n forward and 1/(L^n) inverse weights cancel
    octant = density.shape == grid.octant_shape
    return _inverse(grid, _coulomb_symbol(grid, octant) * _forward(grid, density))


def _term_values(spec: NonlinearitySpec, grid: Grid, u: np.ndarray) -> np.ndarray:
    """N(u) on raw real arrays (full grid or octant): u^p, or (|x|^-1 * u^2) u."""
    if spec.kind == "power":
        return u**spec.p
    return _coulomb_values(grid, u * u) * u


def _derivative(spec: NonlinearitySpec, grid: Grid, u0: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map v -> N'(u0) v on raw real arrays in u0's representation (full grid or octant).

    The power weight p u0^(p-1), or the Coulomb potential phi0 of u0^2, is
    computed once; v is u0 reuses phi0 as the cross potential.
    """
    if spec.kind == "power":
        weight = spec.p * u0 ** (spec.p - 1)
        return lambda v: weight * v
    phi0 = _coulomb_values(grid, u0 * u0)

    def apply(v: np.ndarray) -> np.ndarray:
        cross = phi0 if v is u0 else _coulomb_values(grid, u0 * v)
        return phi0 * v + 2.0 * u0 * cross

    return apply


def hartree_potential(u: SpectralField) -> SpectralField:
    """Free-space Coulomb potential of u^2 via the truncated kernel."""
    grid, (values,) = _real_values(u)
    if grid.n != 3:
        raise ValueError("hartree potential requires a three-dimensional grid")
    return SpectralField(grid, _coulomb_values(grid, values * values))


def evaluate(spec: NonlinearitySpec, u: SpectralField) -> SpectralField:
    """Pointwise u^p, or the Hartree term (|x|^-1 * u^2) u."""
    grid, (values,) = _real_values(u)
    spec.validate_dimension(grid.n)
    return SpectralField(grid, _term_values(spec, grid, values))


def linearize(spec: NonlinearitySpec, u0: SpectralField, v: SpectralField) -> SpectralField:
    """Derivative of the nonlinearity at u0 applied to v (linear in v)."""
    grid, (base, direction) = _real_values(u0, v)
    spec.validate_dimension(grid.n)
    return SpectralField(grid, _derivative(spec, grid, base)(direction))


def taylor_remainder(spec: NonlinearitySpec, u0: SpectralField, w: SpectralField) -> SpectralField:
    """Second-order remainder N(u0+w) - N(u0) - N'(u0) w.

    Hartree branch uses the explicit three-term expansion
    (|x|^-1 * w^2) u0 + 2 (|x|^-1 * (u0 w)) w + (|x|^-1 * w^2) w,
    which agrees with the subtractive form identically.
    """
    grid, (base, step) = _real_values(u0, w)
    spec.validate_dimension(grid.n)
    if spec.kind == "power":
        linear = _derivative(spec, grid, base)(step)
        return SpectralField(grid, (base + step) ** spec.p - base**spec.p - linear)
    ww = _coulomb_values(grid, step * step)
    uw = _coulomb_values(grid, base * step)
    return SpectralField(grid, ww * base + 2.0 * uw * step + ww * step)


@dataclass(frozen=True)
class RatioStats:
    max: float
    mean: float
    min: float
    count: int


def _power_target_order(degree: int, s: float, n: int) -> float:
    # product of `degree` factors: target H^{degree*s - n(degree-1)/2} below n/2,
    # H^{(n-eps)/2} exactly at n/2, H^s above n/2
    if s > 0.5 * n:
        return s
    if s == 0.5 * n:
        return 0.5 * (n - LADDER_EPS)
    return degree * s - 0.5 * n * (degree - 1)


def multilinear_ratio(spec: NonlinearitySpec, s: float, samples) -> RatioStats:
    """Empirical product-estimate ratios: LHS/RHS over the given factor tuples.

    Hartree samples are triples (v1, v2, v3) with
    LHS = || (|x|^-1 * (v1 v2)) v3 ||_{H^s}; power samples are `degree`-tuples
    with LHS the product norm in the target order. RHS is the product of the
    factor H^s norms.  A boundedness diagnostic, not a constant estimate.
    """
    if s < 0.5:
        raise ValueError(f"multilinear diagnostics require s >= 1/2, got {s}")
    expected = 3 if spec.kind == "hartree" else spec.degree
    ratios = []
    for fields in samples:
        fields = tuple(fields)
        if len(fields) != expected:
            raise ValueError(f"expected factor tuples of length {expected}, got {len(fields)}")
        grid, values = _real_values(*fields)
        denom = 1.0
        for v in fields:
            nv = sobolev_norm(v, s)
            if nv == 0.0:
                raise ValueError("multilinear diagnostics require nonzero factors")
            denom *= nv
        if spec.kind == "hartree":
            spec.validate_dimension(grid.n)
            conv = _coulomb_values(grid, values[0] * values[1])
            lhs_field = SpectralField(grid, conv * values[2])
            target = s
        else:
            lhs_field = SpectralField(grid, np.prod(values, axis=0))
            target = _power_target_order(spec.degree, s, grid.n)
        ratios.append(sobolev_norm(lhs_field, target) / denom)
    if not ratios:
        raise ValueError("no samples provided")
    arr = np.asarray(ratios)
    return RatioStats(float(arr.max()), float(arr.mean()), float(arr.min()), len(ratios))
