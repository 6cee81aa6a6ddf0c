"""Analysis layer for the large-c limit: sweeps, rate fits, spectral-gap and
residual diagnostics built on top of the solver.

A sweep solves the relativistic problem over an ascending list of c values
against a single nonrelativistic reference state on the same grid, and
records per-order difference norms, the H^{-1} defect residual, the
projection coefficient of the difference onto the reference state, action
values and sup-norm table entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _abs_sq,
    _coefficients,
    _forward,
    _inverse,
    _kernel_values,
    _lattice_sum,
    _pair,
    _real_values,
    _recentered_octant,
    _sobolev_weight,
    _spectral_integral,
    _spectral_norm,
    sobolev_norm,
)
from .nonlinearity import LADDER_EPS, NonlinearitySpec, _derivative
from .operators import nonrelativistic, pseudo_relativistic, symbol_defect
from .ground_state import GroundStateResult, SolverConfig, solve

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
LANCZOS_MAX_STEPS = 200  # the gap converges in about 20; each step re-solves a tridiagonal eigenproblem


@dataclass(frozen=True)
class ConvergenceRecord:
    """One row of a c-sweep: difference norms and diagnostics at a single c."""

    c: float
    diff_norms: dict[float, float]
    h_minus1_residual: float
    lam: float
    v_norm_h1: float
    action_c: float
    sup_norms: dict[float, float]


@dataclass(frozen=True)
class RateFit:
    s: float
    slope: float
    A_hat: float
    B_hat: float
    c_range: tuple[float, ...]


class GapEigensolveError(RuntimeError):
    """Raised when the gap's Lanczos iteration reaches LANCZOS_MAX_STEPS unconverged."""


class SweepError(RuntimeError):
    """A sweep point failed to converge; carries the records built so far."""

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

    The difference and each field are transformed once, on the octant when
    both fields are exactly even (solved fields are) and on the full lattice
    otherwise; every norm and pairing is then read off the coefficients.
    """
    grid, (uc, ref), xi_sq = _kernel_values(u_c, u_inf)
    w_hat, uc_hat, ref_hat = (_forward(grid, v) for v in (uc - ref, uc, ref))
    h1 = 1.0 + xi_sq
    diff, sup = {}, {}
    for s in map(float, s_values):
        weight = _sobolev_weight(xi_sq, s)
        diff[s] = _spectral_norm(grid, weight, w_hat)
        sup[s] = _spectral_norm(grid, weight, uc_hat)
    lam = _spectral_integral(grid, h1, _pair(w_hat, ref_hat)) / _spectral_integral(grid, h1, _abs_sq(ref_hat))
    defect = symbol_defect(pseudo_relativistic(c), xi_sq)
    return ConvergenceRecord(
        c=float(c),
        diff_norms=diff,
        h_minus1_residual=_spectral_norm(grid, 1.0 / h1, defect * uc_hat),
        lam=float(lam),
        v_norm_h1=_spectral_norm(grid, h1, w_hat - lam * ref_hat),
        action_c=float(action_c),
        sup_norms=sup,
    )


def _sweep_orders(s_values) -> list[float]:
    """A sweep's Sobolev orders as floats, each in the range `_sobolev_weight` accepts."""
    s_values = [float(s) for s in s_values]
    for s in s_values:
        _sobolev_weight(0.0, s)  # the weight at xi = 0: the range check alone
    return s_values


def _sweep_c_values(c_values) -> list[float]:
    """A sweep's c values as floats: at least one, each a valid light speed, ascending."""
    c_values = [pseudo_relativistic(c).c for c in c_values]
    if not c_values:
        raise ValueError("sweep requires at least one c value")
    if sorted(c_values) != c_values:
        raise ValueError("c values must be ascending")
    return c_values


def sweep(
    c_values,
    s_values,
    nl: NonlinearitySpec,
    grid: Grid,
    cfg: SolverConfig = SolverConfig(),
    u_inf: GroundStateResult | None = None,
    threads: int = 1,
) -> list[ConvergenceRecord]:
    """Solve the relativistic problem for each c and record convergence data.

    The nonrelativistic reference is solved once (or supplied precomputed on
    the same grid).  A non-converged point aborts with SweepError carrying the
    records of the points that did converge.  c values and orders are checked
    before any solve.
    """
    c_values = _sweep_c_values(c_values)
    s_values = _sweep_orders(s_values)
    if u_inf is None:
        u_inf = solve(nonrelativistic(), nl, grid, cfg)
    if not u_inf.converged:
        raise SweepError("nonrelativistic reference solve did not converge", [])

    def solve_point(c: float) -> GroundStateResult:
        return solve(pseudo_relativistic(c), nl, grid, cfg)

    if threads > 1:
        # imported here: concurrent.futures (and the logging it loads) costs every import otherwise
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(solve_point, c_values))
    else:
        results = [solve_point(c) for c in c_values]

    records: list[ConvergenceRecord] = []
    failed: list[float] = []
    for c, res in zip(c_values, results):
        if res.converged:
            records.append(convergence_record(res.field, u_inf.field, c, s_values, res.action))
        else:
            failed.append(c)
    if failed:
        raise SweepError(f"sweep points did not converge at c = {failed}", records)
    return records


def fit_rate(records, s: float, floor: float = 0.0) -> RateFit:
    """Least-squares slope of log ||w||_{H^s} against log c, with empirical
    two-sided constants A_hat = min c^2 ||w||, B_hat = max c^2 ||w||.

    Points with ||w||_{H^s} below `floor` are excluded (discretization guard).
    """
    records = list(records)
    if len(records) < 4:
        raise ValueError("rate fit requires at least 4 records")
    pts = []
    for r in records:
        norm = r.diff_norms[float(s)]
        if norm <= 0.0:
            raise ValueError(f"nonpositive difference norm at c={r.c}")
        if norm >= floor:
            pts.append((r.c, norm))
    if len(pts) < 2:
        raise ValueError("too few points above the discretization floor to fit")
    logs_c = np.log([c for c, _ in pts])
    logs_n = np.log([n for _, n in pts])
    slope = float(np.polyfit(logs_c, logs_n, 1)[0])
    scaled = [c * c * n for c, n in pts]
    return RateFit(
        s=float(s),
        slope=slope,
        A_hat=float(min(scaled)),
        B_hat=float(max(scaled)),
        c_range=tuple(c for c, _ in pts),
    )


def h_minus1_residual(u_c: SpectralField, c: float) -> float:
    """H^{-1} norm of the symbol-defect operator applied to u_c at parameter c."""
    spec = pseudo_relativistic(c)
    coeff = _coefficients(u_c)
    g = SpectralField(u_c.grid, symbol_defect(spec, u_c.grid.xi_sq) * coeff, space="freq")
    return sobolev_norm(g, -1.0)


def nondegeneracy_gap(u_inf: SpectralField, nl: NonlinearitySpec, tol: float = 1.0e-10) -> float:
    """Smallest constrained Rayleigh quotient <Lv, v>_{L^2} / ||v||_{H^1}^2.

    L is the linearization (-Delta + 1) - N'(u_inf), and the minimum runs over
    even fields H^1-orthogonal to u_inf.  Even fields live on the octant (the
    reference enters recentred at its peak and through its even part; a ground
    state is centred and even), so odd modes cannot occur.  The quotient is
    computed through the symmetric similarity B^{-1/2} L B^{-1/2}
    (B = -Delta + 1) in the weighted octant coordinates sqrt(W) v, in which
    the full-grid dot product is the plain one, with the constraint deflated
    by explicit projection inside every matrix-vector product.  A nonpositive
    return signals a defective reference state or projection; it is reported
    as computed, never clipped.
    """
    grid, (values,) = _real_values(u_inf)
    nl.validate_dimension(grid.n)

    b_half = np.sqrt(1.0 + grid.octant_xi_sq)
    b_inv_half = 1.0 / b_half
    sqrt_w = np.sqrt(grid.octant_weight)
    u0 = _recentered_octant(grid, values)
    apply_derivative = _derivative(nl, grid, u0)

    def smooth(v: np.ndarray) -> np.ndarray:
        return _inverse(grid, b_inv_half * _forward(grid, v))

    y = (sqrt_w * _inverse(grid, b_half * _forward(grid, u0))).ravel()
    y /= np.sqrt(np.sum(y * y))

    def project(z: np.ndarray) -> np.ndarray:
        # np.sum, not np.dot: the threaded BLAS dot costs more than it saves here
        return z - np.sum(y * z) * y

    def matvec(z: np.ndarray) -> np.ndarray:
        # B^{-1/2} L B^{-1/2} z = z - B^{-1/2} N'(u0) v with v = B^{-1/2} z
        pz = project(z)
        v = pz.reshape(grid.octant_shape) / sqrt_w
        s = pz - (sqrt_w * smooth(apply_derivative(smooth(v)))).ravel()
        return project(s) + DEFLATION_SHIFT * (z - pz)

    # deterministic start without structure: the Weyl sequence (k phi) mod 1 - 1/2
    # over the octant's entries, phi = (sqrt(5) - 1) / 2
    weyl = (np.arange(sqrt_w.size) * 0.6180339887498949) % 1.0 - 0.5
    v0 = project(sqrt_w.ravel() * weyl)
    return _lanczos_smallest(matvec, v0, tol)


def _lanczos_smallest(matvec, v0: np.ndarray, tol: float) -> float:
    """Smallest eigenvalue of a symmetric operator by plain three-term Lanczos.

    Only the current and previous Lanczos vectors and the tridiagonal
    coefficients are kept; without reorthogonalization, lost orthogonality only
    duplicates Ritz values that have already converged (Paige, Linear Algebra
    Appl. 34, 1980).  After step m the smallest eigenpair (theta, s) of the m x m
    tridiagonal is accepted once beta_m |s_m| <= tol max(|theta|, eps^(2/3)),
    ARPACK's test for its `tol`; a zero beta_m means an invariant subspace, so
    theta is exact.  Every dot and norm is an np.sum, not a threaded BLAS call.
    """
    q = v0 / np.sqrt(np.sum(v0 * v0))
    q_prev = np.zeros_like(q)
    alphas: list[float] = []
    betas: list[float] = []
    beta = estimate = 0.0
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    for _ in range(LANCZOS_MAX_STEPS):
        w = matvec(q)
        alphas.append(float(np.sum(q * w)))
        w -= alphas[-1] * q + beta * q_prev
        beta = float(np.sqrt(np.sum(w * w)))
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        thetas, vectors = np.linalg.eigh(t)
        theta = float(thetas[0])
        estimate = beta * abs(vectors[-1, 0])
        if beta == 0.0 or estimate <= tol * max(abs(theta), floor):
            return theta
        betas.append(beta)
        q_prev, q = q, w / beta
    raise GapEigensolveError(
        f"gap eigensolve: Lanczos did not converge in {LANCZOS_MAX_STEPS} steps"
        f" (residual estimate {estimate:.3e}, tolerance {tol:g})"
    )


def linearization_identity_residual(u_inf: SpectralField, nl: NonlinearitySpec) -> float:
    """Relative residual of L u_inf = -(p-2)(-Delta+1) u_inf at the reference state.

    p is the variational exponent; the identity is exact at any solution of
    the nonrelativistic equation.  Returned value is normalized by the H^2
    norm of the reference state.  An exactly even field (a solved one) is
    evaluated on its octant, any other on the full lattice; four whole-field
    transforms for Hartree, two for powers.
    """
    grid, (u,), xi_sq = _kernel_values(u_inf)
    nl.validate_dimension(grid.n)
    h1 = 1.0 + xi_sq
    uh = _forward(grid, u)
    bu = _inverse(grid, h1 * uh)
    lu = bu - _derivative(nl, grid, u)(u)
    target = -(nl.variational_exponent - 2) * bu
    err = np.sqrt(_lattice_sum(grid, (lu - target) ** 2) * grid.cell_volume)
    return float(err / _spectral_norm(grid, h1**2, uh))


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
    specs = [pseudo_relativistic(c) for c in c_values]
    if u_inf.space == "freq":
        grid, ref_sq = u_inf.grid, _abs_sq(u_inf.values)
        return [float(np.sum(symbol_defect(spec, grid.xi_sq) * ref_sq) / grid.volume) for spec in specs]
    grid, (values,), xi_sq = _kernel_values(u_inf)
    ref_sq = _abs_sq(_forward(grid, values))
    return [_spectral_integral(grid, symbol_defect(spec, xi_sq), ref_sq) for spec in specs]


def _reference_norms(u_inf: SpectralField, s_values) -> tuple[dict[float, float], float]:
    """H^s norms of u_inf at each order, and ||Delta u_inf||_{L^2}^2, from one transform of u_inf."""
    grid, (values,), xi_sq = _kernel_values(u_inf)
    ref_sq = _abs_sq(_forward(grid, values))
    norms = {float(s): float(np.sqrt(_spectral_integral(grid, _sobolev_weight(xi_sq, s), ref_sq))) for s in s_values}
    return norms, _spectral_integral(grid, xi_sq * xi_sq, ref_sq)


def sobolev_ladder(n: int, p: float | None, kind: str, count: int) -> list[float]:
    """Increasing Sobolev orders along which product estimates iterate.

    Hartree: s_k = k + 1/2.  Power type (p is the variational exponent): the
    recursion s_{k+1} = 1 - n(p-2)/2 + (p-1) s_k until the first order above
    n/2, then unit steps.  An order landing exactly on n/2 is nudged down by
    1e-3 before continuing.  Returns count+1 orders starting at 1/2.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if kind == "hartree":
        if n != 3:
            raise ValueError("hartree ladder is defined in dimension 3")
        return [k + 0.5 for k in range(count + 1)]
    if kind != "power":
        raise ValueError(f"kind must be 'power' or 'hartree', got {kind!r}")
    if p is None or p <= 2:
        raise ValueError("power ladder requires a variational exponent p > 2")
    if 1.0 / (p - 2.0) - (n - 1.0) / 2.0 <= 0.0:
        raise ValueError(
            f"variational exponent p={p} is outside the subcritical range for n={n}: ladder does not increase"
        )

    half_n = 0.5 * n
    ladder = [0.5]
    crossed = ladder[0] > half_n
    while len(ladder) <= count:
        if crossed:
            nxt = ladder[-1] + 1.0
        else:
            nxt = 1.0 - 0.5 * n * (p - 2.0) + (p - 1.0) * ladder[-1]
            if nxt == half_n:
                nxt = half_n - LADDER_EPS
        crossed = crossed or nxt > half_n
        ladder.append(nxt)
    return ladder
