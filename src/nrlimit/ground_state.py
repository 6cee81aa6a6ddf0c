"""Ground-state solver: Anderson-mixed stabilized iteration on the even octant.

The map G(u) = M^gamma P(D)^{-1} N(u) with M = <P(D)u, u> / <N(u), u> is the
classical stabilized (Petviashvili) iteration for homogeneous nonlinearities,
with the stabilization exponent gamma = degree/(degree - 1).  The ground
state is positive and radial, hence even in every axis, so the iteration runs
on the octant of the grid (see `grid`): a 64^3 solve works on 33^3 arrays,
every transform is a DCT-I, and the image of an even field is even by
construction.  Recentering pins the translation mode.  The iterates are not
G(u) itself but its type-II Anderson mixing of depth ANDERSON_DEPTH (Walker &
Ni, SIAM J. Numer. Anal. 49, 2011), with the octant-weighted dot product, which
takes a 3D Hartree solve from about 85 iterations to about 20 with no extra
transform.

Per iteration a solve takes three whole-field transforms (u and N(u) forward,
the update back), five with the Hartree term's Coulomb pair; the residual of
the final iterate adds two (four).  On grids up to N = 126 an octant
transform is three products with the cached DCT-I matrix in 3D (one in 1D);
on larger grids it is one `numpy.fft.rfft` per axis (see `grid._dct`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _abs_sq,
    _forward,
    _inverse,
    _kernel_values,
    _lattice_sum,
    _real_values,
    _recentered_octant,
    _unfold,
    sobolev_norm,
)
from .nonlinearity import NonlinearitySpec, _term_values
from .operators import OperatorSpec, symbol

__all__ = [
    "SolverConfig",
    "GroundStateResult",
    "GroundStateError",
    "solve",
    "residual",
    "action",
    "gaussian_guess",
    "initialization_stability",
]

COLLAPSE_NORM = 1.0e-8
ANDERSON_DEPTH = 3


class GroundStateError(RuntimeError):
    """Raised when the iteration collapses, turns non-finite or its quadratic pairings degenerate."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; tolerance is the relative L^2 residual target.

    The stabilization exponent is not a control: it is fixed at
    gamma = degree/(degree - 1), the one value at which G(a u) = G(u) for every
    a > 0, so the amplitude direction is contracted in one step.  It lies inside
    the convergence window 1 < gamma < (degree + 1)/(degree - 1) (Pelinovsky &
    Stepanyants, SIAM J. Numer. Anal. 42, 2004) for every degree.
    """

    tolerance: float = 1.0e-12
    max_iterations: int = 2000
    initial_guess: float | SpectralField = 1.0

    def __post_init__(self) -> None:
        if not 1.0e-14 <= self.tolerance <= 1.0e-4:
            raise ValueError(f"tolerance must lie in [1e-14, 1e-4], got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class GroundStateResult:
    field: SpectralField
    residual: float
    action: float
    iterations: int
    converged: bool
    residual_history: tuple[float, ...] = ()


def gaussian_guess(grid: Grid, width: float = 1.0) -> SpectralField:
    """Centered Gaussian exp(-|x|^2 / (2 width^2))."""
    return SpectralField(grid, np.exp(-grid.radius_sq() / (2.0 * width**2)))


def _octant_gaussian(grid: Grid, width: float) -> np.ndarray:
    """`gaussian_guess` on the octant coordinates x <= 0, whose last entry is the peak at x = 0."""
    x = grid.axis[: grid.octant_shape[0]]
    radius_sq = sum(a * a for a in np.meshgrid(*([x] * grid.n), indexing="ij"))
    return np.exp(-radius_sq / (2.0 * width**2))


def _l2_norm(grid: Grid, u: np.ndarray) -> float:
    # np.sum (inside _lattice_sum), not the BLAS dot behind np.linalg.norm: on
    # a 64^3 grid that dot is threaded, and its spinning worker doubles the CPU
    # time of a solve
    return float(np.sqrt(_lattice_sum(grid, u * u)))


def _residual_state(grid: Grid, sym: np.ndarray, nl: NonlinearitySpec, u: np.ndarray, norm_u: float):
    """Coefficients of u and N(u), N(u) itself, and the relative residual.

    u is an octant or a full-grid array, and sym the symbol on the matching
    frequencies.  The residual ||P(D)u - N(u)|| / ||u|| is taken from the
    coefficients by Parseval (unnormalized transform: sum |r|^2 = sum |r_hat|^2 / N^n).
    """
    uh = _forward(grid, u)
    nu = _term_values(nl, grid, u)
    nh = _forward(grid, nu)
    res = np.sqrt(_lattice_sum(grid, _abs_sq(sym * uh - nh)) / grid.size) / norm_u
    return uh, nu, nh, float(res)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # np.sum for the same reason as _l2_norm
    return float(np.sum(a * b))


class _AndersonMixer:
    """Type-II Anderson mixing, mixing parameter 1, of a fixed-point map G.

    Keeps the last ANDERSON_DEPTH differences of f = G(u) - u and of G(u) in a
    preallocated ring buffer and their Gram matrix, one new row per step.  The
    next iterate is G(u) - dG alpha with alpha minimizing ||f - dF alpha||, in
    the dot product weighted by `weight` (the octant multiplicities, so that
    it is the full-grid dot product of the even fields).
    The step is bound by memory traffic: the projections <dF_j, f> of the
    older columns are updated from the new Gram row instead of recomputed,
    and the scaled columns of the update go through one scratch array.
    Neither u nor G(u) is written to, so the previous pair is held by reference.
    """

    def __init__(self, shape: tuple[int, ...], weight: np.ndarray | float = 1.0) -> None:
        m = ANDERSON_DEPTH
        self.weight = weight
        self.df = np.empty((m, *shape))
        self.dg = np.empty((m, *shape))
        self.gram = np.empty((m, m))
        self.proj = np.zeros(m)
        self.scratch = np.empty(shape)
        self.f_prev: np.ndarray | None = None
        self.g_prev: np.ndarray | None = None
        self.columns = 0
        self.slot = 0

    def mix(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Next iterate from u and its image g = G(u)."""
        f = g - u
        f_prev, g_prev = self.f_prev, self.g_prev
        self.f_prev, self.g_prev = f, g
        if f_prev is None:
            return g
        s = self.slot
        np.subtract(f, f_prev, out=self.df[s])
        np.subtract(g, g_prev, out=self.dg[s])
        self.slot = (s + 1) % ANDERSON_DEPTH
        self.columns = k = min(self.columns + 1, ANDERSON_DEPTH)
        weighted = np.multiply(self.df[s], self.weight, out=self.scratch)
        for j in range(k):
            self.gram[s, j] = self.gram[j, s] = _dot(weighted, self.df[j])
        # <dF_j, f> = <dF_j, f_prev> + <dF_j, dF_s>; only the new column needs a dot
        self.proj[:k] += self.gram[:k, s]
        self.proj[s] = _dot(weighted, f)
        try:
            alpha = np.linalg.solve(self.gram[:k, :k], self.proj[:k])
        except np.linalg.LinAlgError:
            alpha = None
        if alpha is None or not np.all(np.isfinite(alpha)):
            # singular or overflowing system: take the plain step, restart the history
            self.columns = self.slot = 0
            return g
        u_next = np.multiply(self.dg[0], -alpha[0])
        u_next += g
        for a, d in zip(alpha[1:], self.dg[1:k]):
            u_next -= np.multiply(d, a, out=self.scratch)
        return u_next


def _action_value(
    grid: Grid, sym: np.ndarray, nl: NonlinearitySpec, u: np.ndarray, uh: np.ndarray, nu: np.ndarray
) -> float:
    quad = _lattice_sum(grid, sym * _abs_sq(uh)) * grid.cell_volume**2 / grid.volume
    pairing = _lattice_sum(grid, nu * u) * grid.cell_volume
    return 0.5 * quad - pairing / nl.variational_exponent


def solve(op: OperatorSpec, nl: NonlinearitySpec, grid: Grid, cfg: SolverConfig = SolverConfig()) -> GroundStateResult:
    """Compute the positive even ground state of P(D)u = N(u) on the grid.

    Returns a result with converged=False (carrying the best iterate) if the
    tolerance is not reached within max_iterations; raises GroundStateError on
    collapse to the zero field or on a non-finite iterate or residual.  The
    stabilized map is Anderson-mixed with depth ANDERSON_DEPTH.  A field guess
    is recentered and symmetrized once, a Gaussian width is sampled on the
    octant directly; from then on the whole iteration runs on the octant.  An
    iteration takes three whole-field DCT-I transforms (u and N(u) forward,
    the update back), five with the Hartree term's Coulomb pair;
    the residual and the Rayleigh factor come from the coefficients by
    Parseval, and the mixing adds no transform.
    """
    nl.validate_dimension(grid.n)
    sym = symbol(op, grid.octant_xi_sq)
    gamma = nl.degree / (nl.degree - 1.0)

    if isinstance(cfg.initial_guess, SpectralField):
        _, (guess,) = _real_values(cfg.initial_guess, grid=grid)
        u = _recentered_octant(grid, guess)
    else:
        u = _octant_gaussian(grid, cfg.initial_guess)

    mixer = _AndersonMixer(u.shape, grid.octant_weight)
    history: list[float] = []
    best_res = np.inf
    best_u = u
    iterations = 0

    for _ in range(cfg.max_iterations + 1):
        norm_u = _l2_norm(grid, u)
        if not np.isfinite(norm_u):
            raise GroundStateError(f"non-finite iterate at iteration {iterations}")
        if norm_u * np.sqrt(grid.cell_volume) < COLLAPSE_NORM:
            raise GroundStateError("iterate collapsed to the zero field; bad initial guess")
        uh, nu, nh, res = _residual_state(grid, sym, nl, u, norm_u)
        if not np.isfinite(res):
            raise GroundStateError(f"non-finite residual at iteration {iterations}")
        history.append(res)
        if res < best_res:
            best_res = res
            best_u = u
        if res <= cfg.tolerance or iterations >= cfg.max_iterations:
            break

        num = _lattice_sum(grid, sym * uh * uh)
        den = _lattice_sum(grid, nh * uh)
        if den <= 0.0:
            raise GroundStateError("nonlinear pairing lost positivity during iteration")
        image = _recentered_octant(grid, _inverse(grid, (num / den) ** gamma * nh / sym))
        u = mixer.mix(u, image)
        iterations += 1

    converged = history[-1] <= cfg.tolerance
    if converged:
        field = SpectralField(grid, _unfold(grid, u))
        final_res = history[-1]
        final_action = _action_value(grid, sym, nl, u, uh, nu)
    else:
        field = SpectralField(grid, _unfold(grid, best_u))
        final_res = best_res
        final_action = action(field, op, nl)
    return GroundStateResult(
        field=field,
        residual=float(final_res),
        action=final_action,
        iterations=iterations,
        converged=bool(converged),
        residual_history=tuple(history),
    )


def residual(u: SpectralField, op: OperatorSpec, nl: NonlinearitySpec) -> float:
    """Relative equation residual ||P(D)u - N(u)||_{L^2} / ||u||_{L^2}.

    An exactly even field is evaluated on its octant, as in `solve`, so the
    residual of a solved field equals the one `solve` reports bit for bit;
    any other field on the full lattice.
    """
    grid, (values,), xi_sq = _kernel_values(u)
    nl.validate_dimension(grid.n)
    norm_u = _l2_norm(grid, values)
    if norm_u == 0.0:
        raise ValueError("residual of the zero field is undefined")
    return _residual_state(grid, symbol(op, xi_sq), nl, values, norm_u)[3]


def action(u: SpectralField, op: OperatorSpec, nl: NonlinearitySpec) -> float:
    """Action value (1/2) <P(D)u, u> - (1/p) <N(u), u> with the mass term included.

    P(D) is the full symbol (its zero-frequency value is 1 for both kinds) and
    p is the variational exponent: degree + 1 for powers, 4 for Hartree.  Like
    `residual`, it evaluates an exactly even field on its octant.
    """
    grid, (values,), xi_sq = _kernel_values(u)
    nl.validate_dimension(grid.n)
    uh = _forward(grid, values)
    return _action_value(grid, symbol(op, xi_sq), nl, values, uh, _term_values(nl, grid, values))


def initialization_stability(
    op: OperatorSpec, nl: NonlinearitySpec, grid: Grid, cfg: SolverConfig = SolverConfig()
) -> float:
    """Max pairwise H^1 distance of solves started from perturbed initial data."""
    guesses = [
        gaussian_guess(grid, 1.0),
        gaussian_guess(grid, 0.7),
        gaussian_guess(grid, 1.4),
    ]
    bump = 1.0 + 0.1 * np.cos(2.0 * np.pi * grid.coordinates()[0] / grid.length)
    guesses.append(SpectralField(grid, gaussian_guess(grid, 1.0).values * bump))

    results = []
    for g in guesses:
        res = solve(op, nl, grid, replace(cfg, initial_guess=g))
        if not res.converged:
            raise GroundStateError("perturbed initialization failed to converge")
        results.append(res.field)

    worst = 0.0
    for a, b in combinations(results, 2):
        diff = SpectralField(grid, a.values - b.values)
        worst = max(worst, sobolev_norm(diff, 1.0))
    return worst
