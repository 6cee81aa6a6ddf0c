"""Linear Fourier multipliers: the relativistic kinetic symbol and -Delta + 1.

The relativistic symbol sqrt(c^2|xi|^2 + c^4/4) - c^2/2 + 1 is evaluated in
rationalized form to avoid the catastrophic cancellation of the square root
against c^2/2 when c >> |xi|; the same trick gives the pointwise difference
(1+|xi|^2) - P_c(xi) = c^2 |xi|^4 / D^2 exactly, with
D = sqrt(c^2|xi|^2 + c^4/4) + c^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, _EvenField, _as_integer, _as_real, _coefficients, _inverse

__all__ = [
    "OperatorSpec",
    "pseudo_relativistic",
    "nonrelativistic",
    "symbol",
    "symbol_defect",
    "apply_multiplier",
    "symbol_gap_ratio",
    "symbol_gap_scan",
    "taylor_residual",
]

PSEUDO = "pseudo_relativistic"
NONREL = "nonrelativistic"


@dataclass(frozen=True)
class OperatorSpec:
    """Which kinetic multiplier to use; c is the light-speed parameter, stored as a float: a real number >= 1 for the
    pseudo-relativistic kind, and inf, its default, for the nonrelativistic one."""

    kind: str
    c: float = float("inf")

    def __post_init__(self) -> None:
        if self.kind not in (PSEUDO, NONREL):
            raise ValueError(f"kind must be {PSEUDO!r} or {NONREL!r}, got {self.kind!r}")
        c = _as_real(self.c, "light-speed parameter")
        if self.kind == NONREL and c != np.inf:
            raise ValueError(f"the {NONREL} kind has light-speed parameter inf, got {self.c!r}")
        if self.kind == PSEUDO and not (np.isfinite(c) and c >= 1.0):
            raise ValueError(f"light-speed parameter must be finite and >= 1, got {c}")
        object.__setattr__(self, "c", c)


def pseudo_relativistic(c: float) -> OperatorSpec:
    return OperatorSpec(PSEUDO, c)


def nonrelativistic() -> OperatorSpec:
    return OperatorSpec(NONREL)


def _sqrt_denominator(c: float, xi_sq, out: np.ndarray | None = None):
    d = np.sqrt(np.add(np.multiply(xi_sq, c * c, out=out), 0.25 * c**4, out=out), out=out)
    return np.add(d, 0.5 * c * c, out=out)


def symbol(spec: OperatorSpec, xi_sq):
    """Multiplier value at squared frequency xi_sq (scalar or array).

    Relativistic branch: 1 + c^2 |xi|^2 / D, which equals
    sqrt(c^2|xi|^2 + c^4/4) - c^2/2 + 1 without cancellation.
    """
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    if np.any(xi_sq < 0):
        raise ValueError("squared frequency must be nonnegative")
    if spec.kind == NONREL:
        return 1.0 + xi_sq
    c = spec.c
    return 1.0 + c * c * xi_sq / _sqrt_denominator(c, xi_sq)


def symbol_defect(spec: OperatorSpec, xi_sq):
    """Pointwise (1 + |xi|^2) - P(xi), always >= 0; zero for the nonrelativistic kind.

    Evaluated as c^2 |xi|^4 / D^2, exact and cancellation-free.
    """
    xi_sq = np.asarray(xi_sq, dtype=np.float64)
    if spec.kind == NONREL:
        return np.zeros_like(xi_sq)
    return _symbol_defect(spec.c, xi_sq)


def _symbol_defect(c: float, xi_sq, out: np.ndarray | None = None, work: np.ndarray | None = None):
    """`symbol_defect` at light speed c, bit for bit, in `out` with D^2 formed in `work` (new arrays if None)."""
    d = _sqrt_denominator(c, xi_sq, work)
    d = np.multiply(d, d, out=work)
    return np.divide(np.multiply(np.multiply(xi_sq, c * c, out=out), xi_sq, out=out), d, out=out)


def apply_multiplier(f: SpectralField, spec: OperatorSpec, mode: str = "forward") -> SpectralField:
    """Multiply spectral coefficients by the symbol or its reciprocal.

    The reciprocal is always well defined since the symbol is >= 1 on the
    lattice.  Output representation matches the input representation; the
    output of an exactly even real field is exactly even and keeps its octant.
    """
    if mode not in ("forward", "inverse_of_symbol"):
        raise ValueError(f"mode must be 'forward' or 'inverse_of_symbol', got {mode!r}")
    grid, (coeff,), xi_sq = _coefficients(f)
    values = symbol(spec, xi_sq)
    coeff = coeff * (1.0 / values if mode == "inverse_of_symbol" else values)  # carried coefficients are read-only
    if f.space == "freq":
        return SpectralField(grid, coeff * grid.cell_volume, space="freq")
    out = _inverse(grid, coeff)
    return _EvenField(grid, out) if out.shape == grid.octant_shape else SpectralField(grid, out)


def symbol_gap_ratio(spec: OperatorSpec, grid: Grid) -> float:
    """min over the lattice of P(xi) / sqrt(1 + |xi|^2).

    Taken over the octant, which holds every lattice value of |xi|^2.
    """
    ratio = symbol(spec, grid.octant_xi_sq) / np.sqrt(1.0 + grid.octant_xi_sq)
    return float(np.min(ratio))


def symbol_gap_scan(spec: OperatorSpec, xi_max: float = 1.0e3, samples: int = 200_001) -> float:
    """Dense off-lattice scan of P(xi) / sqrt(1 + |xi|^2) over |xi| in [0, xi_max].

    The minimum over the samples np.linspace(0, xi_max, samples), taken as one
    array (a NaN propagates).  No command runs it: the symbol table reads the
    proven minimum (`_proven_min_ratio`), which this scan witnesses.
    """
    samples = _as_integer(samples, "samples", 1)
    xi_max = _as_real(xi_max, "xi_max")
    if not (np.isfinite(xi_max) and xi_max > 0.0):
        raise ValueError(f"xi_max must be finite and > 0, got {xi_max!r}")
    xi = np.linspace(0.0, xi_max, samples)
    t = xi * xi
    return float(np.min(symbol(spec, t) / np.sqrt(1.0 + t)))


def _proven_min_ratio(spec: OperatorSpec) -> float:
    """min over every xi of P_c(xi) / sqrt(1 + |xi|^2), attained at xi = 0: with D as above and x = D/c^2 >= 1,
    P_c^2 - 1 - |xi|^2 = c^2 (x - 1) [(c^2 - 1)(x - 1) + 1] >= 0 for every c >= 1, zero only at xi = 0.
    `symbol_gap_scan` samples the same ratio densely, the proof's independent witness."""
    return float(symbol(spec, 0.0) / np.sqrt(1.0 + 0.0))


def taylor_residual(spec: OperatorSpec, grid: Grid, cutoff_fraction: float) -> float:
    """max over lattice 0 < |xi| <= cutoff_fraction * c of c^2 ((1+|xi|^2) - P_c) / |xi|^4.

    Certifies that the multiplier gap scales like |xi|^4 / c^2 in the window
    below the relativistic frequency scale; the max tends to 1 as c grows.
    Taken over the octant, which holds every lattice value of |xi|^2.
    """
    if spec.kind != PSEUDO:
        raise ValueError("taylor_residual is defined for the pseudo_relativistic kind")
    cutoff_fraction = _as_real(cutoff_fraction, "cutoff_fraction")
    if not 0.0 < cutoff_fraction <= 0.5:
        raise ValueError(f"cutoff_fraction must lie in (0, 1/2], got {cutoff_fraction}")
    t = grid.octant_xi_sq
    window = (t > 0.0) & (np.sqrt(t) <= cutoff_fraction * spec.c)
    if not np.any(window):
        raise ValueError("frequency window below the cutoff contains no nonzero lattice mode")
    tw = t[window]
    ratio = spec.c**2 * symbol_defect(spec, tw) / (tw * tw)
    return float(np.max(ratio))
