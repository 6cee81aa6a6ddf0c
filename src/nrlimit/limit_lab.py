"""Analysis layer for the large-c limit: sweeps, rate fits, spectral-gap and
residual diagnostics built on top of the solver.

A sweep solves the relativistic problem over an ascending list of c values
against a single solved nonrelativistic reference state, on its grid, each
point started from that state and kept on the octant, and records
per-order difference norms, the H^{-1} defect residual, the projection
coefficient of the difference onto the reference state, action values and
sup-norm table entries.

Every diagnostic is one public function: the CLI calls the same `sweep`,
`nondegeneracy_gap`, `linearization_identity_residual` and
`optimality_forms` as any other caller.  A solved field stores its octant
and the DCT-I coefficients its solve ended with (`grid._EvenField`), which
each of them reads: none transforms it again or builds a full-grid field.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _EvenField,
    _as_integer,
    _as_real,
    _carried_forward,
    _coefficients,
    _dot,
    _forward,
    _is_even,
    _kernel_coefficients,
    _lattice_dot,
    _octant,
    _real_grid,
    _recentered_octant,
    _sobolev_order,
    _sobolev_weight,
    _spectral_integral,
    _stored,
    _weighted_pair,
)
from .nonlinearity import NonlinearitySpec, _derivative
from .operators import _symbol_defect, pseudo_relativistic, symbol_defect
from .ground_state import GroundStateError, GroundStateResult, SolverConfig, solve

__all__ = [
    "ConvergenceRecord",
    "GapEigensolveError",
    "RateFit",
    "SweepError",
    "convergence_record",
    "sweep",
    "fit_rate",
    "h_minus1_residual",
    "nondegeneracy_gap",
    "linearization_identity_residual",
    "optimality_functional",
    "optimality_forms",
    "sobolev_ladder",
]

DEFLATION_SHIFT = 10.0  # pushes the removed directions above the sought eigenvalue
LANCZOS_MAX_STEPS = 200  # the gap converges in about 20; each step finds the smallest Ritz pair anew
LANCZOS_TOL = 1.0e-10  # relative Ritz residual at which the gap is accepted


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a c-sweep: difference norms and diagnostics at a single c; the norm tables are read-only."""

    c: float
    diff_norms: Mapping[float, float]
    h_minus1_residual: float
    lam: float
    v_norm_h1: float
    action_c: float
    sup_norms: Mapping[float, float]


@dataclass(frozen=True)
class RateFit:
    s: float
    slope: float
    A_hat: float
    B_hat: float
    c_range: tuple[float, ...]


class GapEigensolveError(RuntimeError):
    """Raised when the gap's Lanczos iteration reaches LANCZOS_MAX_STEPS unconverged; the message names the grid's
    N."""


class SweepError(RuntimeError):
    """A sweep point failed to converge or raised GroundStateError; carries the records of the points that did
    converge."""

    def __init__(self, message: str, records: list[ConvergenceRecord]):
        super().__init__(message)
        self.records = records


def convergence_record(
    u_c: SpectralField,
    u_inf: SpectralField,
    c: float,
    s_values,
    action_c: float = 0.0,
) -> ConvergenceRecord:
    """Build a sweep row from solved fields on a shared grid.

    On the octant when both fields are exactly even (solved fields are), on
    the full lattice otherwise.  The difference is transformed, and each
    field that does not carry its coefficients (as a solved one does);
    every norm and pairing is then read off the coefficients.  |w_hat|^2 and
    |u_c_hat|^2 times the multiplicities are formed once, and each order's
    weight, the defect and every product go to two buffers: five arrays.
    """
    grid, (uc, ref), (uc_hat, ref_hat), xi_sq = _kernel_coefficients(u_c, u_inf)
    weight, product = np.empty(xi_sq.shape), np.empty(xi_sq.shape)
    w_hat = _forward(grid, np.subtract(uc, ref, out=weight), work=weight)
    w_sq, uc_sq = _weighted_pair(grid, w_hat, w_hat), _weighted_pair(grid, uc_hat, uc_hat)
    diff, sup = {}, {}
    for s in _sweep_orders(s_values):
        _sobolev_weight(xi_sq, s, out=weight)
        diff[s], sup[s] = (math.sqrt(_spectral_integral(grid, weight, q, product)) for q in (w_sq, uc_sq))
    h_minus1 = _defect_residual(grid, xi_sq, uc_sq, c, weight, product)
    del w_sq, uc_sq
    h1 = np.add(1.0, xi_sq, out=weight)

    def h1_pairing(a: np.ndarray, b: np.ndarray) -> float:
        return _spectral_integral(grid, h1, _weighted_pair(grid, a, b, product), product)

    lam = h1_pairing(w_hat, ref_hat) / h1_pairing(ref_hat, ref_hat)
    w_hat -= lam * ref_hat  # v, the part of w that is H^1-orthogonal to u_inf
    return ConvergenceRecord(
        c=float(c),
        diff_norms=MappingProxyType(diff),
        h_minus1_residual=h_minus1,
        lam=float(lam),
        v_norm_h1=math.sqrt(h1_pairing(w_hat, w_hat)),
        action_c=float(action_c),
        sup_norms=MappingProxyType(sup),
    )


def _sweep_orders(s_values) -> list[float]:
    """A sweep's Sobolev orders, each a `grid._sobolev_order` (a float)."""
    return [_sobolev_order(s) for s in s_values]


def _sweep_c_values(c_values) -> list[float]:
    """A sweep's c values as floats: at least one, each a valid light speed, strictly ascending."""
    c_values = [pseudo_relativistic(c).c for c in c_values]
    if not c_values:
        raise ValueError("sweep requires at least one c value")
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError(f"c values must be strictly ascending, got {c_values}")
    return c_values


def sweep(
    c_values, s_values, nl: NonlinearitySpec, *, u_inf: GroundStateResult, cfg: SolverConfig = SolverConfig()
) -> list[ConvergenceRecord]:
    """Solve the relativistic problem for each c against the solved nonrelativistic reference `u_inf`.

    The sweep runs on the reference's grid.  The reference must be a
    real-space field that is exactly even, as every `solve` result is (a
    plain one is wrapped once as an even field), and converged, else a
    ValueError or a SweepError before any point is solved.  Each point is
    one `solve` call with cfg, whose initial_guess is replaced by the
    reference, so `solve` takes its stored octant as the start: every c
    point starts within O(c^-2) of its solution, and no point's start
    depends on another's.  The points run in ascending c, each on the
    octant, and each is recorded by `convergence_record` of its solved field
    against the reference, which transforms only their difference; no
    full-grid field is built.  Every point is solved; if any did not
    converge or raised GroundStateError (collapse, a non-finite iterate), a
    SweepError names each such c with its reason and carries the records of
    the points that did converge.  c values, orders, the finite-c
    subcriticality rule (`NonlinearitySpec.validate_dimension`), which every
    point must meet, and the reference are checked before any solve.
    """
    c_values = _sweep_c_values(c_values)
    s_values = _sweep_orders(s_values)
    ref = u_inf.field
    grid = _real_grid((ref,))
    nl.validate_dimension(grid.n, relativistic=True)
    if not _is_even(grid, _stored(ref)):
        raise ValueError("the reference must be exactly even, as a solved field is")
    if not u_inf.converged:
        raise SweepError("nonrelativistic reference solve did not converge", [])
    ref = ref if isinstance(ref, _EvenField) else _EvenField(grid, _octant(grid, ref.values))
    cfg = replace(cfg, initial_guess=ref)
    records, failed = [], []
    for c in c_values:
        try:
            point = solve(pseudo_relativistic(c), nl, grid, cfg)
        except GroundStateError as exc:
            failed.append(f"c = {c}: {exc}")
            continue
        if point.converged:
            records.append(convergence_record(point.field, ref, c, s_values, point.action))
        else:
            failed.append(f"c = {c}: did not converge in {point.iterations} iterations")
        del point  # else its octant and coefficients stay alive through the next solve, raising the peak
    if failed:
        raise SweepError(f"sweep points failed: {'; '.join(failed)}", records)
    return records


def fit_rate(records, s: float, floor: float = 0.0) -> RateFit:
    """Least-squares slope of log ||w||_{H^s} against log c, with empirical
    two-sided constants A_hat = min c^2 ||w||, B_hat = max c^2 ||w||.

    Points with ||w||_{H^s} below `floor` are excluded (discretization guard);
    s is a `grid._sobolev_order`, and every record must hold it.
    The slope is the closed form sum(dx dy) / sum(dx^2) about the means, not
    np.polyfit: its LAPACK least-squares call alone added about 0.4 MB to
    the peak RSS of a 1D report.
    """
    records, s, floor = list(records), _sobolev_order(s), _as_real(floor, "floor")
    if len(records) < 4:
        raise ValueError("rate fit requires at least 4 records")
    pts = []
    for r in records:
        if s not in r.diff_norms:
            raise ValueError(f"order s={s:g} is not among the recorded orders {sorted(r.diff_norms)}")
        norm = r.diff_norms[s]
        if norm <= 0.0:
            raise ValueError(f"nonpositive difference norm at c={r.c}")
        if norm >= floor:
            pts.append((r.c, norm))
    if len({c for c, _ in pts}) < 2:
        raise ValueError("too few distinct c values above the discretization floor to fit")
    logs_c = np.log([c for c, _ in pts])
    logs_n = np.log([n for _, n in pts])
    dx = logs_c - np.mean(logs_c)
    slope = float(np.sum(dx * (logs_n - np.mean(logs_n))) / np.sum(dx * dx))
    scaled = [c * c * n for c, n in pts]
    return RateFit(
        s=s,
        slope=slope,
        A_hat=float(min(scaled)),
        B_hat=float(max(scaled)),
        c_range=tuple(c for c, _ in pts),
    )


def h_minus1_residual(u_c: SpectralField, c: float) -> float:
    """H^{-1} norm of the symbol-defect operator applied to u_c at parameter c."""
    grid, (coeff,), xi_sq = _coefficients(u_c)
    return _defect_residual(grid, xi_sq, _weighted_pair(grid, coeff, coeff), c)


def _defect_residual(grid: Grid, xi_sq: np.ndarray, weighted_sq: np.ndarray, c: float, out=None, work=None) -> float:
    """`h_minus1_residual` of the field whose coefficients' `_weighted_pair` with themselves is `weighted_sq`, at
    frequencies `xi_sq`: no transform, the symbol defect formed in `out` and `work` (new arrays if None)."""
    defect = _symbol_defect(pseudo_relativistic(c).c, xi_sq, out, work)
    defect *= defect
    defect *= weighted_sq
    return math.sqrt(_spectral_integral(grid, np.reciprocal(np.add(1.0, xi_sq, out=work), out=work), defect, defect))


def nondegeneracy_gap(u_inf: SpectralField, nl: NonlinearitySpec) -> float:
    """Smallest constrained Rayleigh quotient <Lv, v>_{L^2} / ||v||_{H^1}^2.

    L is the linearization (-Delta + 1) - N'(u_inf), and the minimum runs over
    even fields H^1-orthogonal to u_inf.  Even fields live on the octant (the
    reference enters recentred at its peak and through its even part; a ground
    state is centred and even), so odd modes cannot occur.  The quotient is
    computed through the symmetric similarity B^{-1/2} L B^{-1/2}
    (B = -Delta + 1) in the coordinates z = sqrt(W / N^n) v_hat of the octant
    DCT-I coefficients v_hat (W the octant multiplicities), in which the
    full-grid dot product is the plain one and B^{-1/2} is the diagonal
    1/sqrt(1 + |xi|^2).  A product then takes one inverse transform, N'(u0)
    and one forward transform: two whole-field transforms, four with the
    Hartree term's Coulomb pair, each one unnormalized DCT-I.  The constraint
    is deflated in every product: with y the unit z of u_inf, alpha = <y, z>
    and t = B^{-1/2} N'(u0) B^{-1/2} (z - alpha y), it is z - t + (<y, t> +
    (DEFLATION_SHIFT - 1) alpha) y.  It allocates no array: it works in three
    octant buffers, forms its scaling to_z (`_to_z`) at each of its two uses
    in the two buffers free there, divides by W through a float64 copy of the
    uint8 weights in a buffer free at that point (`_weights`; a mixed-dtype
    divide would allocate a cast buffer), and leaves the first buffer free
    for Lanczos's scratch.  The run holds seven octants: y, N'(u0)'s phi0 or
    power weight, the three buffers, and Lanczos's q and q_prev.  A
    nonpositive return signals a defective reference state or projection; it
    is reported as computed, never clipped.  A solved reference enters as its
    octant and coefficients.
    """
    grid = _real_grid((u_inf,))
    nl.validate_dimension(grid.n)
    u0 = _recentered_octant(grid, _stored(u_inf))

    apply_derivative = _derivative(nl, grid, u0)
    a, b, c = (np.empty(grid.octant_shape) for _ in range(3))  # the product's buffers
    flat_a, flat_b = a.ravel(), b.ravel()
    y = np.multiply(_z_scale(grid, b), np.sqrt(np.add(1.0, grid.octant_xi_sq, out=a), out=a))  # times B^{1/2}
    y *= _carried_forward(u_inf, u0)
    y = y.ravel()
    y /= math.sqrt(_dot(y, y, flat_a))
    # deterministic start without structure: the field whose octant holds the
    # Weyl sequence (k phi) mod 1 - 1/2, phi = (sqrt(5) - 1) / 2.  One transform
    # takes it to z; as coefficients it would need 22 Lanczos steps on the 64^3
    # Hartree reference instead of 20
    np.multiply(np.arange(flat_a.size), 0.6180339887498949, out=flat_a)
    np.subtract(np.remainder(flat_a, 1.0, out=flat_a), 0.5, out=flat_a)
    coefficients = _forward(grid, a, out=b, work=c)
    v0 = np.multiply(_z_scale(grid, a), coefficients).ravel()
    v0 -= np.multiply(y, _dot(y, v0, flat_a), out=flat_a)

    def matvec(z: np.ndarray) -> np.ndarray:
        # the deflated product, in b.  z -> B^{-1/2} v_hat is the factor to_z N^n / W and _inverse
        # divides by N^n, so B^{-1/2} z goes to samples in one unnormalized DCT-I of to_z z / W
        alpha = _dot(y, z, flat_a)
        np.subtract(z, np.multiply(y, alpha, out=flat_a), out=flat_a)
        np.divide(np.multiply(_to_z(grid, b, c), a, out=a), _weights(grid, b), out=a)
        v = _forward(grid, a, out=b, work=a)
        t = _forward(grid, apply_derivative(v, out=c, work=a), out=b, work=a)
        np.multiply(_to_z(grid, a, c), t, out=b)
        shift = _dot(y, flat_b, flat_a) + (DEFLATION_SHIFT - 1.0) * alpha
        np.subtract(z, flat_b, out=flat_b)
        return np.add(flat_b, np.multiply(y, shift, out=flat_a), out=flat_b)

    return _lanczos_smallest(matvec, v0, LANCZOS_TOL, flat_a, f"gap eigensolve (N = {grid.points})")


def _weights(grid: Grid, out: np.ndarray) -> np.ndarray:
    """The multiplicities W as float64, in `out`: a ufunc with the uint8 `octant_weight` would allocate a cast
    buffer."""
    np.copyto(out, grid.octant_weight)
    return out


def _z_scale(grid: Grid, out: np.ndarray) -> np.ndarray:
    """sqrt(W / N^n) on the octant, W the multiplicities, in `out`."""
    return np.sqrt(np.divide(_weights(grid, out), grid.size, out=out), out=out)


def _to_z(grid: Grid, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """to_z = sqrt(W / N^n) / sqrt(1 + |xi|^2), which takes N'(u0)'s coefficients to B^{-1/2} N'(u0) in z, in
    `out` through `work`: the gap's product forms it where it is used, so that no octant holds it."""
    return np.divide(_z_scale(grid, out), np.sqrt(np.add(1.0, grid.octant_xi_sq, out=work), out=work), out=out)


def _lanczos_smallest(
    matvec, v0: np.ndarray, tol: float, scratch: np.ndarray | None = None, name: str = "gap eigensolve"
) -> float:
    """Smallest eigenvalue of a symmetric operator by plain three-term Lanczos.

    Only the current and previous Lanczos vectors and the tridiagonal
    coefficients are kept; without reorthogonalization, lost orthogonality only
    duplicates Ritz values that have already converged (Paige, Linear Algebra
    Appl. 34, 1980).  After step m the smallest eigenpair (theta, s) of the m x m
    tridiagonal is accepted once beta_m |s_m| <= tol max(|theta|, eps^(2/3)),
    ARPACK's test for its `tol`; a zero beta_m means an invariant subspace, so
    theta is exact.  theta and |s_m| come from `_smallest_ritz_pair`, warm-started
    from the previous step's theta, not from LAPACK.  Every dot and norm is a
    `grid._dot`.  The run holds q (v0, normalized in place), q_prev
    (overwritten by the next q) and `scratch` (new if None; the gap passes a
    product buffer that is free between products); w = matvec(q) may be a
    buffer that the next call overwrites.  Reaching LANCZOS_MAX_STEPS raises
    GapEigensolveError, its message led by `name` (the gap's names its N).
    """
    scratch = np.empty_like(v0) if scratch is None else scratch
    q = np.divide(v0, math.sqrt(_dot(v0, v0, scratch)), out=v0)
    q_prev = np.zeros_like(q)
    alphas: list[float] = []
    betas: list[float] = []
    beta = estimate = theta = 0.0
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    for _ in range(LANCZOS_MAX_STEPS):
        w = matvec(q)
        alphas.append(_dot(q, w, scratch))
        w -= np.add(np.multiply(q, alphas[-1], out=scratch), np.multiply(q_prev, beta, out=q_prev), out=scratch)
        beta = math.sqrt(_dot(w, w, scratch))
        theta, last = _smallest_ritz_pair(alphas, betas, theta)
        estimate = beta * last
        if beta == 0.0 or estimate <= tol * max(abs(theta), floor):
            return theta
        betas.append(beta)
        q_prev, q = q, np.divide(w, beta, out=q_prev)
    raise GapEigensolveError(
        f"{name}: Lanczos did not converge in {LANCZOS_MAX_STEPS} steps"
        f" (residual estimate {estimate:.3e}, tolerance {tol:g})"
    )


def _newton_step(alphas: list[float], betas: list[float], x: float) -> float | None:
    """The Newton step on det(T - x) from x toward the smallest eigenvalue theta of T; 0 if x >= theta.

    T is the symmetric tridiagonal matrix with diagonal `alphas` and
    off-diagonal `betas`.  The pivots d_i of T - x = L D L^T and their
    derivatives d_i' follow the Sturm recurrence, and x < theta iff every d_i
    is positive.  None unless every pivot but the last is positive, that is
    unless x lies below the eigenvalues of T's leading (m-1) x (m-1) block.
    With C = sum_{i<m} d_i' / d_i, the step -det / det' is -d_m / (C d_m + d_m').
    """
    d = alphas[0] - x
    slope = -1.0
    total = 0.0
    for a, b in zip(alphas[1:], betas):
        if not d > 0.0:
            return None
        total += slope / d
        ratio = b * b / d
        slope = ratio * slope / d - 1.0
        d = a - x - ratio
    return -d / (total * d + slope) if d > 0.0 else 0.0


def _last_component(alphas: list[float], betas: list[float], x: float) -> float:
    """|y_m| / ||y|| for y = (T - x)^{-1} (1, ..., 1): one step of inverse iteration.

    T - x is factored as in `_newton_step`, whose pivots but the last are
    positive at x.  For x within round-off of the smallest eigenvalue theta,
    y is theta's eigenvector to about round-off over the gap to the next
    eigenvalue, so this is |s_m| to that absolute accuracy however small s_m
    is; a determinant quotient would give s_m^2 to that accuracy instead.  y
    is scaled by the last pivot d_m, which may be zero or just below it.
    """
    pivots, multipliers, w = [alphas[0] - x], [], [1.0]
    for a, b in zip(alphas[1:], betas):
        d = pivots[-1]
        multipliers.append(b / d)
        w.append(1.0 - multipliers[-1] * w[-1])
        pivots.append(a - x - b * b / d)
    last_pivot = pivots[-1]
    y = w[-1]
    norm_sq = y * y
    for wi, di, li in zip(reversed(w[:-1]), reversed(pivots[:-1]), reversed(multipliers)):
        y = last_pivot * wi / di - li * y
        norm_sq += y * y
    return abs(w[-1]) / math.sqrt(norm_sq)


def _smallest_ritz_pair(alphas: list[float], betas: list[float], previous: float) -> tuple[float, float]:
    """Smallest eigenvalue theta of the m x m symmetric tridiagonal T (diagonal
    `alphas`, off-diagonal `betas`) and |s_m|, the last component of its unit
    eigenvector; `previous` is the smallest eigenvalue of T's leading
    (m-1) x (m-1) block, unused for m = 1.

    By interlacing, the smallest eigenvalue of [[previous, b], [b, a]], with a
    and b T's last diagonal and off-diagonal entries, lies at or below theta.
    Newton's method on det(T - x) rises from there monotonically to theta, as
    for any polynomial with real roots; the Sturm recurrence (`_newton_step`)
    gives each step and tells whether x is still below theta.  It stops when a
    step no longer moves x or round-off carries x onto or just past theta; a
    step that round-off carries past an eigenvalue of the leading block is
    halved.  |s_m| then comes from `_last_component`.
    """
    if len(alphas) == 1:
        return alphas[0], 1.0
    a, b = alphas[-1], betas[-1]
    x = 0.5 * (previous + a) - math.hypot(0.5 * (previous - a), b)
    # round-off (or b = 0) can put the bound onto an eigenvalue of the leading block: step below it
    drop = max(float(np.finfo(float).eps) * (abs(x) + abs(b)), float(np.finfo(float).tiny))
    while (step := _newton_step(alphas, betas, x)) is None:
        x -= drop
        drop *= 2.0
    while step > 0.0:
        nxt = x + step
        if nxt == x:
            break
        nxt_step = _newton_step(alphas, betas, nxt)
        if nxt_step is None:
            step *= 0.5
        else:
            x, step = nxt, nxt_step
    return x, _last_component(alphas, betas, x)


def linearization_identity_residual(u_inf: SpectralField, nl: NonlinearitySpec) -> float:
    """Relative residual ||L u + (q-2) B u||_{L^2} / ||u||_{H^2} of the identity L u = -(q-2) B u, u = u_inf.

    q is the variational exponent, B = -Delta + 1 and L = B - N'(u); the
    identity is exact at any solution of the nonrelativistic equation.  By
    Parseval the value is sqrt(<r, r> / <b, b>) (`grid._lattice_dot`) over
    the coefficients b = (1+|xi|^2) u_hat and r = F[N'(u) u] - (q-1) b: on
    the octant for an exactly even field (a solved one), else on the full
    lattice.  Three whole-field transforms for Hartree (phi0's Coulomb pair,
    F[N'(u) u]), one for powers, one more for a field without coefficients.
    """
    nl.validate_dimension(_real_grid((u_inf,)).n)
    grid, (u,), (uh,), xi_sq = _kernel_coefficients(u_inf)
    bu = uh * (1.0 + xi_sq)
    r = _forward(grid, _derivative(nl, grid, u)(u))
    r -= (nl.variational_exponent - 1) * bu
    return math.sqrt(_lattice_dot(grid, r, r) / _lattice_dot(grid, bu, bu))


def optimality_functional(u_inf: SpectralField, c: float) -> float:
    """Quadratic form of the kinetic-symbol defect at parameter c.

    Spectral evaluation of the integral of |u_inf_hat|^2 ((1+|xi|^2) - P_c(xi));
    nonnegative for every field, and c^2 times it converges to the squared
    L^2 norm of the Laplacian of the reference state.  A real-space field is
    transformed on the octant when it is exactly even, else on the full lattice.
    """
    return optimality_forms(u_inf, [c])[0]


def optimality_forms(u_inf: SpectralField, c_values) -> list[float]:
    """`optimality_functional` at each c of `c_values`, from one transform of u_inf."""
    grid, (coeff,), xi_sq = _coefficients(u_inf)
    ref_sq = _weighted_pair(grid, coeff, coeff)
    return [_spectral_integral(grid, symbol_defect(pseudo_relativistic(c), xi_sq), ref_sq) for c in c_values]


def _reference_norms(u_inf: SpectralField, s_values) -> tuple[dict[float, float], float]:
    """H^s norms of a reference field at each order, and ||Delta u_inf||_{L^2}^2, from one transform."""
    grid, (coeff,), xi_sq = _coefficients(u_inf)
    ref_sq = _weighted_pair(grid, coeff, coeff)
    norms = {float(s): float(np.sqrt(_spectral_integral(grid, _sobolev_weight(xi_sq, s), ref_sq))) for s in s_values}
    return norms, _spectral_integral(grid, xi_sq * xi_sq, ref_sq)


def sobolev_ladder(n: int, nl: NonlinearitySpec, count: int) -> list[float]:
    """The Sobolev orders s_k = k + 1/2, k = 0..count, along which product estimates iterate.

    The ladder does not depend on n or nl: the function applies the finite-c
    rule, `nl.validate_dimension(n, relativistic=True)`, whose ValueError it
    passes on, and takes count as an integer >= 1.
    """
    count = _as_integer(count, "count", 1)
    nl.validate_dimension(n, relativistic=True)
    return [k + 0.5 for k in range(count + 1)]
