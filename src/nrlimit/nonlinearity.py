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

from .grid import Grid, SpectralField, _as_integer, _forward, _inverse, _real_values

__all__ = [
    "NonlinearitySpec",
    "power",
    "hartree",
    "evaluate",
    "hartree_potential",
    "linearize",
    "taylor_remainder",
]


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power-type u^p (integer p >= 3, stored as an int) or 3D Hartree (|x|^-1 * u^2) u."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "power":
            object.__setattr__(self, "p", _as_integer(self.p, "power-type exponent", 3))
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

    def validate_dimension(self, n: int, relativistic: bool = False) -> None:
        """The one admissibility rule: Hartree needs n = 3, and a power must be subcritical.

        At c = inf (the default) the action lives on H^1: p < 2n/(n-1).  At
        finite c (`relativistic`, from the operator's kind) it lives on
        H^(1/2), which embeds in L^(2n/(n-1)): p + 1 < 2n/(n-1), so every power
        in 1D and none in 2D (whose cubic is H^(1/2)-critical) or 3D.  n must
        be an integer 1, 2 or 3.
        """
        n = _as_integer(n, "dimension")
        if n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
        if self.kind == "hartree":
            if n != 3:
                raise ValueError("hartree nonlinearity is only defined in dimension n = 3")
            return
        if n >= 2:
            bound = 2 * n / (n - 1)
            exponent, name, where = (self.p + 1, "p + 1", " at finite c") if relativistic else (self.p, "p", "")
            if exponent >= bound:
                raise ValueError(
                    f"power exponent p={self.p} violates subcriticality{where}: "
                    f"requires {name} < 2n/(n-1) = {bound:g} for n={n}"
                )


def power(p: int) -> NonlinearitySpec:
    return NonlinearitySpec("power", p)


def hartree() -> NonlinearitySpec:
    return NonlinearitySpec("hartree")


@lru_cache(maxsize=16)
def _coulomb_symbol(grid: Grid, octant: bool = False) -> np.ndarray:
    """Truncated-kernel symbol on the full lattice, or on the octant (read-only).

    4 pi (1 - cos(R |xi|)) / |xi|^2 is built in the output array, one step at a
    time in the order of that expression, with the divide taken where
    |xi|^2 > 0 and the zero mode 2 pi R^2 written last: the array and its
    mask are all it allocates.
    """
    radius = 0.5 * grid.length
    t = grid.octant_xi_sq if octant else grid.xi_sq
    out = np.sqrt(t)
    out *= radius
    np.cos(out, out=out)
    np.subtract(1.0, out, out=out)
    out *= 4.0 * np.pi
    nz = np.greater(t, 0.0)
    np.divide(out, t, out=out, where=nz)
    out[np.logical_not(nz, out=nz)] = 2.0 * np.pi * radius**2
    out.setflags(write=False)
    return out


def _coulomb_values(
    grid: Grid, density: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Coulomb potential of a full-grid or an octant density, in the same representation; `out` and `work`
    serve the transforms as in `_forward` (out may be the density)."""
    # unnormalized transform pair: the dx^n forward and 1/(L^n) inverse weights cancel
    coeff = _forward(grid, density, out=work, work=out)
    coeff *= _coulomb_symbol(grid, density.shape == grid.octant_shape)
    return _inverse(grid, coeff, out=out, work=coeff)


def _term_values(
    spec: NonlinearitySpec, grid: Grid, u: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """N(u) on raw real arrays (full grid or octant): u^p, or (|x|^-1 * u^2) u, into `out` through `work`."""
    if spec.kind == "power":
        return np.power(u, spec.p, out=out)
    density = np.multiply(u, u, out=work)
    return np.multiply(_coulomb_values(grid, density, out=density, work=out), u, out=out)


def _derivative(spec: NonlinearitySpec, grid: Grid, u0: np.ndarray) -> Callable[..., np.ndarray]:
    """The map (v, out=None, work=None) -> N'(u0) v on raw real arrays in u0's representation (full grid or octant).

    The power weight p u0^(p-1), or the Coulomb potential phi0 of u0^2, is
    computed once; v is u0 reuses phi0 as the cross potential.  `out` and
    `work` (new arrays if None, neither v) take the result and the Coulomb pair.
    """
    if spec.kind == "power":
        weight = spec.p * u0 ** (spec.p - 1)
        return lambda v, out=None, work=None: np.multiply(weight, v, out=out)
    phi0 = _coulomb_values(grid, u0 * u0)

    def apply(v: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
        cross = phi0 if v is u0 else _coulomb_values(grid, np.multiply(u0, v, out=work), out=work, work=out)
        term = np.multiply(u0, 2.0, out=out)
        term *= cross
        return np.add(np.multiply(phi0, v, out=work), term, out=term)  # phi0 v + (2 u0) cross

    return apply


def hartree_potential(u: SpectralField) -> SpectralField:
    """Free-space Coulomb potential of u^2 via the truncated kernel."""
    grid, (values,) = _real_values(u)
    hartree().validate_dimension(grid.n)
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

