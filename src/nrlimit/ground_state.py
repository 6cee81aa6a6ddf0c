"""Ground-state solver: Anderson-mixed stabilized iteration on the even octant, on two grid levels.

The map G(u) = M^gamma P(D)^{-1} N(u) with M = <P(D)u, u> / <N(u), u> is the
classical stabilized (Petviashvili) iteration for homogeneous nonlinearities,
with the stabilization exponent gamma = degree/(degree - 1).  The ground
state is positive and radial, hence even in every axis, so the iteration runs
on the octant of the grid (see `grid`): a 64^3 solve works on 33^3 arrays,
every transform is a DCT-I, and the image of an even field is even by
construction.  Recentering pins the translation mode.  The iterates are not
G(u) itself but its type-II Anderson mixing of depth ANDERSON_DEPTH (Walker &
Ni, SIAM J. Numer. Anal. 49, 2011), with the octant-weighted dot product, which
takes a one-level 3D Hartree solve from about 85 iterations to about 20 with
no extra transform.

On 3D grids with N/2 even and at least 32 a solve is nested iteration
(Brandt, Math. Comp. 31, 1977) on two levels (`_solve_octant`).  The ground state is
smooth, so on 64^3 the prolonged 32^3 solution has a residual of about 7e-9
and the fine loop takes 3-4 iterations instead of 13-18, after a coarse
solve whose iterations cost about an eighth as much.  1D, 2D and smaller 3D
grids take one level (`_coarse_grid`).

The mixer mixes DCT-I coefficients, so an iteration takes two whole-field
transforms (N(u) forward, the mixed coefficients back), four with the
Hartree term's Coulomb pair, and allocates no array: a level holds 12
octant arrays, the last f = G(u) - u and G(u) waiting in the mixer's ring
(`_AndersonMixer`), and a fine level started from the prolongation eight,
its mixer of depth 1 keeping one difference pair instead of three.  No
level keeps an image buffer: G(u) is formed in the buffer of N(u)'s
transform after its last read.  A level adds the start transform, the final
N(u) and one transform per confirm (`_solve_level`), and a two-level solve
the prolongation's one inverse transform, and, where the rule rejects the
prolongation, the start transform and N(u) of its one residual.  On grids
up to N = 126 an octant transform is three products with the cached DCT-I
matrix in 3D (one in 1D), on larger grids one `numpy.fft.rfft` per axis
(`grid._dct`).  The mixer's small Gram system is solved in Python floats
(`_small_solve`): no LAPACK call.

The solve is the private core `_solve_octant`, which `solve` calls; the
c-sweep solves each point through `solve`, so the start from a field is
decided here alone.  Its result is a `GroundStateResult` whose field is the
last iterate kept as its octant and the coefficients the loop ended with
(`grid._EvenField`): it unfolds to the full grid only where a caller reads
`values`, such as `nrlimit solve`'s field output.  Every diagnostic, and a
solve started from a solved field, reads those, and transforms nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _EvenField,
    _as_integer,
    _as_real,
    _forward,
    _inverse,
    _kernel_coefficients,
    _lattice_dot,
    _prolonged,
    _real_grid,
    _recentered_octant,
    _stored,
)
from .nonlinearity import NonlinearitySpec, _term_values
from .operators import PSEUDO, OperatorSpec, symbol

__all__ = [
    "SolverConfig",
    "GroundStateResult",
    "GroundStateError",
    "solve",
    "residual",
    "action",
    "gaussian_guess",
]

COLLAPSE_NORM = 1.0e-8
ANDERSON_DEPTH = 3
_PROLONGED_DEPTH = 1
"""The Anderson depth of a fine level started from an accepted prolongation.  On the 3D report's five
solves (64^3 Hartree) depth 1 takes 3/4/3/3/3 fine iterations, as depth 3 does, and the plain step
3/5/4/3/3; its ring holds two octant arrays instead of six."""


class GroundStateError(RuntimeError):
    """Raised when the iteration collapses, turns non-finite or its quadratic pairings degenerate."""


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls; tolerance is the relative L^2 residual target, and a
    solve starts from initial_guess, or from `gaussian_guess(grid)` if it is None.

    The stabilization exponent is not a control: it is fixed at
    gamma = degree/(degree - 1), the one value at which G(a u) = G(u) for every
    a > 0, so the amplitude direction is contracted in one step.  It lies inside
    the convergence window 1 < gamma < (degree + 1)/(degree - 1) (Pelinovsky &
    Stepanyants, SIAM J. Numer. Anal. 42, 2004) for every degree.
    """

    tolerance: float = 1.0e-12
    max_iterations: int = 2000
    initial_guess: SpectralField | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tolerance", _as_real(self.tolerance, "tolerance"))
        if not 1.0e-14 <= self.tolerance <= 1.0e-4:
            raise ValueError(f"tolerance must lie in [1e-14, 1e-4], got {self.tolerance}")
        object.__setattr__(self, "max_iterations", _as_integer(self.max_iterations, "max_iterations"))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not (self.initial_guess is None or isinstance(self.initial_guess, SpectralField)):
            raise TypeError(f"initial_guess must be a SpectralField or None, got {self.initial_guess!r}")


@dataclass(frozen=True)
class GroundStateResult:
    """A solve's last iterate and its record; a solved field is exactly even and keeps its octant."""

    field: SpectralField
    residual: float
    action: float
    iterations: int
    converged: bool
    residual_history: tuple[float, ...] = ()
    coarse_iterations: int = 0
    coarse_start: bool = False


def gaussian_guess(grid: Grid, width: float = 1.0) -> SpectralField:
    """Centered Gaussian exp(-|x|^2 / (2 width^2)); the width must be positive and finite."""
    width = _as_real(width, "width")
    if not 0.0 < width < np.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    return SpectralField(grid, np.exp(-grid.radius_sq() / (2.0 * width**2)))


def _octant_gaussian(grid: Grid) -> np.ndarray:
    """`gaussian_guess(grid)` on the octant coordinates x <= 0, whose last entry is the peak at x = 0."""
    x = grid.axis[: grid.octant_shape[0]]
    radius_sq = sum(a * a for a in np.meshgrid(*([x] * grid.n), indexing="ij", sparse=True))
    return np.exp(-radius_sq / 2.0)


def _l2_norm(grid: Grid, u: np.ndarray, work: np.ndarray | None = None) -> float:
    # an np.sum (inside _lattice_dot), not np.linalg.norm: see grid._dot
    return float(np.sqrt(_lattice_dot(grid, u, u, work)))


def _residual_value(
    grid: Grid, sym_uh: np.ndarray, nh: np.ndarray, norm_u: float, work: np.ndarray | None = None
) -> float:
    """||P(D)u - N(u)|| / ||u|| from the coefficients sym_uh of P(D)u and nh of N(u) (octant or full lattice),
    by Parseval: sum |r|^2 = sum |r_hat|^2 / N^n, r_hat formed in `work` (a new array if None)."""
    r = np.subtract(sym_uh, nh, out=work)
    return float(np.sqrt(_lattice_dot(grid, r, r, r) / grid.size) / norm_u)


def _small_solve(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Solution of a small dense linear system, or None if a pivot is exactly zero.

    Gaussian elimination with partial pivoting, as LAPACK's gesv, in Python
    floats: for the mixer's k <= ANDERSON_DEPTH unknowns it costs a few
    microseconds, while a process's first LAPACK call adds about 0.6 MB to its
    peak RSS.  As with LAPACK, a NaN entry gives a NaN solution.
    """
    k = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for col in range(k):
        pivot_row = max(range(col, k), key=lambda i: abs(rows[i][col]))
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        if pivot[col] == 0.0:
            return None
        for row in rows[col + 1 :]:
            factor = row[col] / pivot[col]
            for j in range(col + 1, k + 1):
                row[j] -= factor * pivot[j]
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (rows[i][k] - sum(rows[i][j] * x[j] for j in range(i + 1, k))) / rows[i][i]
    return x


class _AndersonMixer:
    """Type-II Anderson mixing, mixing parameter 1, of a fixed-point map G.

    Keeps the last `depth` (ANDERSON_DEPTH, or _PROLONGED_DEPTH) differences of
    f = G(u) - u and of G(u) in a preallocated ring buffer and their Gram
    matrix, one new row per step.  The next iterate is G(u) - dG alpha with
    alpha minimizing ||f - dF alpha||, in `grid._lattice_dot` on `grid` (the
    octant multiplicities weight an octant's products, so that it is the
    full-grid dot product of the even fields; any other shape is unweighted).
    The multiplicities are powers of two, so weighting each product gives the
    bits that weighting dF_s once would, with no array to hold it.  The step
    is bound by memory traffic: the projections <dF_j, f> of the older
    columns are updated from the new Gram row instead of recomputed, f is
    formed in the first of the caller's two scratch arrays, products in the
    other.  f and G(u) then wait in the ring slot whose old column no later
    step reads, where the next step turns them into its difference columns in
    place: the mixer holds no array beyond its ring.  The k x k Gram system
    (k <= depth) is solved by `_small_solve`, not LAPACK; an exactly
    zero pivot or a non-finite alpha restarts the history with the plain step.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        grid: Grid,
        scratch: tuple[np.ndarray, np.ndarray],
        depth: int = ANDERSON_DEPTH,
    ) -> None:
        self.depth = m = depth
        self.grid = grid
        self.df = np.empty((m, *shape))
        self.dg = np.empty((m, *shape))
        self.gram = np.empty((m, m))
        self.proj = np.zeros(m)
        self.f, self.product = scratch
        self.restart()

    def restart(self) -> None:
        self.columns, self.slot = -1, 0  # -1: no f and G(u) parked yet

    def mix(self, u: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Next iterate from u and its image g = G(u), written to `out` (it may be u, not g)."""
        f = np.subtract(g, u, out=self.f)
        s, alpha = self.slot, None
        if self.columns >= 0:
            np.subtract(f, self.df[s], out=self.df[s])
            np.subtract(g, self.dg[s], out=self.dg[s])
            self.slot = (s + 1) % self.depth
            self.columns = k = min(self.columns + 1, self.depth)
            for j in range(k):
                self.gram[s, j] = self.gram[j, s] = _lattice_dot(self.grid, self.df[s], self.df[j], self.product)
            # <dF_j, f> = <dF_j, f_prev> + <dF_j, dF_s>; only the new column needs a dot
            self.proj[:k] += self.gram[:k, s]
            self.proj[s] = _lattice_dot(self.grid, self.df[s], f, self.product)
            alpha = _small_solve(self.gram[:k, :k].tolist(), self.proj[:k].tolist())
        if alpha is None or not all(map(math.isfinite, alpha)):
            # a first step, or a singular or overflowing system: take the plain step, restart the history
            self.columns = self.slot = 0
            np.copyto(out, g)
        else:
            np.multiply(self.dg[0], -alpha[0], out=out)
            out += g
            for a, d in zip(alpha[1:], self.dg[1:]):
                out -= np.multiply(d, a, out=self.product)
        np.copyto(self.df[self.slot], f)
        np.copyto(self.dg[self.slot], g)
        return out


def _action_value(
    grid: Grid,
    sym: np.ndarray,
    nl: NonlinearitySpec,
    u: np.ndarray,
    uh: np.ndarray,
    nu: np.ndarray,
    work: np.ndarray | None = None,
) -> float:
    quad = _lattice_dot(grid, np.multiply(sym, uh, out=work), uh, work) * grid.cell_volume**2 / grid.volume
    pairing = _lattice_dot(grid, nu, u, work) * grid.cell_volume
    return 0.5 * quad - pairing / nl.variational_exponent


@lru_cache(maxsize=16)
def _coarse_grid(grid: Grid) -> Grid | None:
    """The N/2 grid of a two-level solve on `grid`, or None where there is none.

    There is one for n = 3 when N/2 is even (so coarse index j is fine index
    2j on the octant, and both end at x = 0) and at least 32, the only case
    measured to pay off.  On 32^3 the N/2 = 16 grid under-resolves the state:
    the start rule rejects its prolongation, and the coarse solve would only
    add its iterations to the one-level solve's.  1D takes none: a 513-point
    octant iteration is bound by per-call overhead, so a coarse iteration
    costs about as much as a fine one, and 1D stops ride the round-off
    floor, which a prolonged start can take longer to meet.  2D takes none
    either: a 2D solve runs only at c = inf, since the finite-c rule admits
    no 2D nonlinearity, and none was measured to gain from one.
    """
    half = grid.points // 2
    if grid.n != 3 or half % 2 or half < 32:
        return None
    return Grid(grid.n, grid.length, half)


def _solve_octant(
    op: OperatorSpec, nl: NonlinearitySpec, grid: Grid, u: np.ndarray | None, cfg: SolverConfig
) -> GroundStateResult:
    """The solve of `solve` from the start octant u, to cfg's tolerance and iteration cap, on two levels.

    Where `_coarse_grid` gives an N/2 grid, `_solve_level` first runs there
    from u's every-other sample, and the fine loop starts from the spectral
    prolongation of that solution (`grid._prolonged`), but only if its fine
    residual is at most sqrt(cfg.tolerance); a coarse solve that does not
    converge or raises GroundStateError, or a prolongation that fails the
    rule, leaves the fine loop to start from u, bit for bit the one-level
    solve.  On 64^3 the prolongation meets the fine tolerance within 3-4
    fine iterations.  u's own residual is not evaluated, so an accepted
    prolongation replaces even a start that already meets the tolerance.
    cfg.max_iterations caps each level.  The result is the fine level's,
    with the coarse iteration count (0 when no coarse solve completed) and
    whether the fine loop started from it.  u is never written to: each
    level starts from a copy.  u None is the default Gaussian, which a level
    builds on its own grid (`_octant_gaussian`); the coarse dx is exactly
    twice the fine one, so the coarse start is the fine one's every-other
    sample bit for bit, and the fine Gaussian is built only for the fallback.
    """
    coarse = _coarse_grid(grid)
    low = None
    if coarse is not None:
        try:
            low = _solve_level(op, nl, coarse, _octant_gaussian(coarse) if u is None else u[::2, ::2, ::2].copy(), cfg)
        except GroundStateError:
            pass  # the fine loop starts from u
    if low is not None and low.converged:
        fine = _solve_level(op, nl, grid, _prolonged(low.field, grid), cfg, start_limit=math.sqrt(cfg.tolerance))
        if fine is not None:
            return replace(fine, coarse_iterations=low.iterations, coarse_start=True)
    fine = _solve_level(op, nl, grid, _octant_gaussian(grid) if u is None else u.copy(), cfg)
    return fine if low is None else replace(fine, coarse_iterations=low.iterations)


def _solve_level(
    op: OperatorSpec,
    nl: NonlinearitySpec,
    grid: Grid,
    x: np.ndarray,
    cfg: SolverConfig,
    start_limit: float = math.inf,
) -> GroundStateResult | None:
    """The iteration on one grid from the start octant x, to cfg's tolerance and iteration cap.

    Returns the last iterate as an `_EvenField` on its octant and final uh,
    with the residual history, the iteration count, the action and whether
    the last residual met cfg.tolerance; cfg.initial_guess is not read.  If
    the start's own residual exceeds `start_limit`, returns None after that
    one evaluation.

    The iterate is held as samples x, which the level owns and writes to, and
    DCT-I coefficients uh; a level holds 12 octant arrays: x, uh, the symbol,
    N(u), its transform N_hat, a work array and the mixer's ring of six; a
    level with a finite `start_limit` (an accepted prolongation, a few
    iterations from its solution) mixes with depth _PROLONGED_DEPTH, a ring
    of two, eight arrays in all.  The mixer mixes uh with the image
    M^gamma N_hat/P, formed in N_hat's buffer after its last read (Parseval
    leaves its weighted dot products' alpha unchanged), in the work array
    and N(u)'s buffer, which the next pass rewrites; one inverse gives the
    next samples, and the recentring test reads them.  A mixed uh omits the
    round-off of x's own transform (up to eps max P), so a mixed residual
    that would stop the loop is confirmed on the transform of x, which is
    recorded and, if it fails, continued from: at exit uh is the transform
    of x bit for bit.
    P_hat uh is formed in the work array for the residual and again for the
    Rayleigh numerator, so that N(u) stays intact for the action at exit.
    """
    nl.validate_dimension(grid.n, op.kind == PSEUDO)
    sym = symbol(op, grid.octant_xi_sq)
    gamma = nl.degree / (nl.degree - 1.0)
    uh = _forward(grid, x)  # the start transform
    synced = True  # uh is the transform of x, bit for bit
    nu, nh, work = (np.empty(x.shape) for _ in range(3))
    depth = ANDERSON_DEPTH if start_limit == math.inf else _PROLONGED_DEPTH
    mixer = _AndersonMixer(x.shape, grid, (work, nu), depth)  # both free during a mix
    history: list[float] = []

    for iterations in range(cfg.max_iterations + 1):
        norm_u = _l2_norm(grid, x, work)
        if not np.isfinite(norm_u):
            raise GroundStateError(f"non-finite iterate at iteration {iterations}")
        if norm_u * np.sqrt(grid.cell_volume) < COLLAPSE_NORM:
            raise GroundStateError("iterate collapsed to the zero field; bad initial guess")
        _term_values(nl, grid, x, out=nu, work=work)
        _forward(grid, nu, out=nh, work=work)
        res = _residual_value(grid, np.multiply(sym, uh, out=work), nh, norm_u, work)
        stop = res <= cfg.tolerance or iterations >= cfg.max_iterations
        if stop and not synced:
            _forward(grid, x, out=uh, work=work)
            synced = True
            res = _residual_value(grid, np.multiply(sym, uh, out=work), nh, norm_u, work)
            stop = res <= cfg.tolerance or iterations >= cfg.max_iterations
        if not np.isfinite(res):
            raise GroundStateError(f"non-finite residual at iteration {iterations}")
        if res > start_limit and iterations == 0:
            return None
        history.append(res)
        if stop:
            break

        num = _lattice_dot(grid, np.multiply(sym, uh, out=work), uh, work)
        den = _lattice_dot(grid, nh, uh, work)
        if den <= 0.0:
            raise GroundStateError("nonlinear pairing lost positivity during iteration")
        image = np.multiply(nh, (num / den) ** gamma, out=nh)  # N_hat's last read
        image /= sym
        mixer.mix(uh, image, out=uh)
        _inverse(grid, uh, out=x, work=work)
        synced = False
        centred = _recentered_octant(grid, x, work)
        if centred is not x:
            np.copyto(x, centred)
            _forward(grid, x, out=uh, work=work)
            synced = True
            mixer.restart()

    action_value = _action_value(grid, sym, nl, x, uh, nu, work)
    converged = bool(history[-1] <= cfg.tolerance)
    return GroundStateResult(_EvenField(grid, x, uh), history[-1], action_value, iterations, converged, tuple(history))


def solve(op: OperatorSpec, nl: NonlinearitySpec, grid: Grid, cfg: SolverConfig = SolverConfig()) -> GroundStateResult:
    """Compute the positive even ground state of P(D)u = N(u) on the grid.

    The result carries the last iterate, its residual (the last entry of
    residual_history) and its action, with converged=False if the tolerance
    was not reached within max_iterations; raises GroundStateError on collapse
    to the zero field or on a non-finite iterate or residual, and ValueError
    where nl fails the rule of `NonlinearitySpec.validate_dimension` for op's
    kind, before any iteration.  The stabilized map is Anderson-mixed with
    depth ANDERSON_DEPTH (1 on a fine level started from the prolongation
    below).  The default Gaussian is sampled on the octant
    directly; a solved field enters as the octant it stores, another field
    that is exactly even with its peak at the center as its octant, any other
    is recentered and symmetrized once.  From then on the whole solve runs on
    the octant (`_solve_octant`), and the result's field is exactly even: it
    keeps the last iterate's octant and DCT-I coefficients and builds the
    full-grid `values` only when they are read.  On 3D grids with N >= 64 (N/2
    even) the solve first runs on the N/2 grid and the fine loop starts from
    that solution's prolongation when its residual is at most sqrt(tolerance):
    the result's iterations, residual_history, converged and action are the
    fine level's, coarse_iterations counts the coarse level's (0 where none
    completed) and coarse_start says whether the fine loop started from it.
    max_iterations caps each level.  There the given start is not checked
    first: an initial_guess that already meets the tolerance is replaced by
    the accepted prolongation, and the result is a few fine iterations from
    it, not the guess itself at 0 iterations.
    """
    u = None
    if cfg.initial_guess is not None:
        _real_grid((cfg.initial_guess,), grid)
        u = _recentered_octant(grid, _stored(cfg.initial_guess))
    return _solve_octant(op, nl, grid, u, cfg)


def _field_state(u: SpectralField, op: OperatorSpec, nl: NonlinearitySpec):
    """Grid, symbol, kernel array, its transform and N of it: what `residual` and `action` read of a field."""
    nl.validate_dimension(_real_grid((u,)).n, op.kind == PSEUDO)
    grid, (values,), (uh,), xi_sq = _kernel_coefficients(u)
    return grid, symbol(op, xi_sq), values, uh, _term_values(nl, grid, values)


def residual(u: SpectralField, op: OperatorSpec, nl: NonlinearitySpec) -> float:
    """Relative equation residual ||P(D)u - N(u)||_{L^2} / ||u||_{L^2}.

    An exactly even field is evaluated on its octant, as in `solve`, so the
    residual of a solved field equals the one `solve` reports bit for bit;
    any other field on the full lattice.
    """
    grid, sym, values, uh, nu = _field_state(u, op, nl)
    norm_u = _l2_norm(grid, values)
    if norm_u == 0.0:
        raise ValueError("residual of the zero field is undefined")
    return _residual_value(grid, sym * uh, _forward(grid, nu), norm_u)


def action(u: SpectralField, op: OperatorSpec, nl: NonlinearitySpec) -> float:
    """Action value (1/2) <P(D)u, u> - (1/p) <N(u), u> with the mass term included.

    P(D) is the full symbol (its zero-frequency value is 1 for both kinds) and
    p is the variational exponent: degree + 1 for powers, 4 for Hartree.  Like
    `residual`, it evaluates an exactly even field on its octant.
    """
    grid, sym, values, uh, nu = _field_state(u, op, nl)
    return _action_value(grid, sym, nl, values, uh, nu)
