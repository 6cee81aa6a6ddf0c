"""Independent oracles used by the tests: dense finite-difference eigenproblem,
radial shooting for ground-state profiles, and quadrature references.

These deliberately avoid the package's spectral code paths so that agreement
is meaningful: derivatives are finite differences, profiles come from an ODE
integrator, and eigenvalues from dense symmetric solvers.  The one exception
is `dense_symbol_gap_scan`, a reference for how the package evaluates a
quantity rather than for the quantity itself.  `lattice_pairing` is the
full-lattice spectral reference: numpy.fft of the samples, no nrlimit kernel.

The last section holds lab diagnostics that only tests call (`lp_norm`,
`multilinear_ratio`, `initialization_stability`).  They left the package's
public surface, since no command, acceptance criterion or benchmark uses them;
unlike the oracles they run on the package's own code, as does
`real_space_identity_residual`, the former sample-space formula of
`linearization_identity_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
import scipy.linalg as sla
from scipy.integrate import solve_ivp

import nrlimit as nr
from nrlimit import operators
from nrlimit.grid import _inverse, _kernel_coefficients, _real_values
from nrlimit.nonlinearity import _coulomb_values, _derivative


def dense_gap_fd(length: float, num: int, profile, degree: int, shift: float = 10.0) -> float:
    """Constrained spectral gap via a dense periodic 4th-order FD pencil.

    Minimizes <Lv, v> / ||v||_{H^1}^2 over even v with <v, u>_{H^1} = 0, where
    L = -d2 + 1 - degree * u^(degree-1) and u = profile(x).  The pencil is
    restricted to the even subspace, transformed by the Cholesky factor of the
    H^1 Gram matrix, and the constraint direction is deflated upward.
    """
    dx = length / num
    x = -0.5 * length + dx * np.arange(num)
    u = profile(x)

    lap = np.zeros((num, num))
    idx = np.arange(num)
    lap[idx, idx] = -2.5 / dx**2
    for off, coef in ((1, 4.0 / 3.0), (2, -1.0 / 12.0)):
        lap[idx, (idx + off) % num] = coef / dx**2
        lap[idx, (idx - off) % num] = coef / dx**2

    b_mat = -lap + np.eye(num)
    l_mat = b_mat - np.diag(degree * u ** (degree - 1))

    half = num // 2
    basis = np.zeros((num, half + 1))
    basis[0, 0] = 1.0
    for j in range(1, half):
        basis[j, j] = basis[num - j, j] = 1.0 / np.sqrt(2.0)
    basis[half, half] = 1.0

    a_e = basis.T @ l_mat @ basis
    b_e = basis.T @ b_mat @ basis
    u_e = basis.T @ u

    chol = sla.cholesky(b_e, lower=True)
    sym = sla.solve_triangular(chol, a_e, lower=True)
    sym = sla.solve_triangular(chol, sym.T, lower=True).T
    sym = 0.5 * (sym + sym.T)

    y = chol.T @ u_e
    y /= np.linalg.norm(y)
    proj = np.eye(half + 1) - np.outer(y, y)
    deflated = proj @ sym @ proj + shift * np.outer(y, y)
    deflated = 0.5 * (deflated + deflated.T)
    return float(sla.eigh(deflated, eigvals_only=True, subset_by_index=[0, 0])[0])


def shoot_ground_state(n: int, bracket=(1.0, 5.0), r_max: float = 22.0):
    """Radial shooting for -u'' - (n-1)/r u' + u = u^3 with decay at infinity.

    Bisects the central amplitude on zero crossings (overshoot crosses, the
    ground state does not).  Returns (amplitude, profile) where profile(r)
    evaluates the solution, clamped to zero beyond the trustworthy range.
    """

    def rhs(r, y):
        u, up = y
        return [up, u - u**3 - (n - 1) / r * up]

    def integrate(amp):
        r0 = 1.0e-6
        u0 = amp + (amp - amp**3) * r0**2 / (2 * n)
        up0 = (amp - amp**3) * r0 / n
        return solve_ivp(
            rhs, (r0, r_max), [u0, up0], rtol=1.0e-11, atol=1.0e-13, dense_output=True, max_step=0.1
        )

    lo, hi = bracket
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        sol = integrate(mid)
        rr = np.linspace(sol.t[0], sol.t[-1], 8000)
        if np.any(sol.sol(rr)[0] < 0.0):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1.0e-13:
            break
    amp = 0.5 * (lo + hi)
    final = integrate(amp)

    # trust the profile until just before the departure from the decaying branch
    rr = np.linspace(final.t[0], final.t[-1], 8000)
    uu = final.sol(rr)[0]
    small = np.nonzero(np.abs(uu) < 1.0e-9)[0]
    r_trust = rr[small[0]] if small.size else r_max

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r >= final.t[0]) & (r <= r_trust)
        if np.any(inside):
            out[inside] = final.sol(r[inside])[0]
        tiny = r < final.t[0]
        if np.any(tiny):
            out[tiny] = final.sol(np.full(np.count_nonzero(tiny), final.t[0]))[0]
        return out

    return amp, profile


def multiplier_quadrature_reference(x, c: float, xi_max: float = 60.0, num: int = 24001) -> np.ndarray:
    """Relativistic multiplier applied to sqrt(2) sech via dense frequency quadrature.

    Uses the closed-form transform of sech (pi * sech(pi xi / 2)) and a
    trapezoid rule fine enough that the periodization error of the rule is far
    below the box-truncation level of the grids under test.
    """
    xi = np.linspace(0.0, xi_max, num)
    dxi = xi[1] - xi[0]
    sym = np.sqrt(c * c * xi * xi + 0.25 * c**4) - 0.5 * c * c + 1.0
    weight = sym * np.sqrt(2.0) * np.pi / np.cosh(0.5 * np.pi * xi)
    weight[0] *= 0.5
    weight[-1] *= 0.5
    out = np.empty_like(x, dtype=float)
    block = 128
    for start in range(0, x.size, block):
        xs = x[start : start + block, None]
        out[start : start + block] = (np.cos(xi[None, :] * xs) * weight[None, :]).sum(axis=1)
    return out * dxi / np.pi


def dense_symbol_gap_scan(spec, xi_max: float = 1.0e3, samples: int = 200_001) -> float:
    """min of P(xi) / sqrt(1 + |xi|^2) over np.linspace(0, xi_max, samples), as one array.

    The reference for `symbol_gap_scan`, which must agree bit for bit; it
    evaluates `operators.symbol`, looked up at call time as the scan
    does, on all samples at once.
    """
    xi = np.linspace(0.0, xi_max, samples)
    t = xi * xi
    ratio = operators.symbol(spec, t) / np.sqrt(1.0 + t)
    return float(np.min(ratio))


def lattice_coefficients(values, length: float):
    """Continuum-normalized coefficients dx^n fftn(values) of samples on a periodic box of side `length`,
    and |xi|^2 of each mode, xi from 2 pi fftfreq(N, dx) on every axis.

    The coefficients are taken about the box's corner, not its center: the two
    differ by a phase of modulus one, which no norm or pairing sees.
    """
    values = np.asarray(values, dtype=float)
    dx = length / values.shape[0]
    freqs = 2.0 * np.pi * np.fft.fftfreq(values.shape[0], dx)
    xi_sq = sum(k * k for k in np.meshgrid(*([freqs] * values.ndim), indexing="ij"))
    return np.fft.fftn(values) * dx**values.ndim, xi_sq


def lattice_pairing(f, g, length: float, weight=None) -> float:
    """The integral of weight(|xi|^2) Re(conj(f_hat) g_hat) d xi / (2 pi)^n on the lattice: the mode sum over L^n.

    f and g are sample arrays; weight maps |xi|^2 to the multiplier (1 if None).
    With weight (1 + |xi|^2)^s and g = f this is the squared H^s norm.
    """
    fh, xi_sq = lattice_coefficients(f, length)
    gh, _ = lattice_coefficients(g, length)
    mult = 1.0 if weight is None else weight(xi_sq)
    return float(np.sum(mult * (np.conj(fh) * gh).real) / length**fh.ndim)


def lattice_multiplier(values, length: float, weight):
    """Samples of the field whose coefficients are weight(|xi|^2) times those of `values` (ifftn of the product)."""
    coeff, xi_sq = lattice_coefficients(values, length)
    return np.fft.ifftn(weight(xi_sq) * coeff).real / (length / coeff.shape[0]) ** coeff.ndim


def lp_norm(f, p: float) -> float:
    """Lebesgue L^p norm of a real-space field (cell-volume weighted), for finite p >= 1."""
    grid, (values,) = _real_values(f)
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"lp_norm requires a finite exponent p >= 1, got {p}")
    return float((np.sum(np.abs(values) ** p) * grid.cell_volume) ** (1.0 / p))


LADDER_EPS = 1.0e-3  # offset of a target order that lands exactly on n/2


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


def multilinear_ratio(spec, s: float, samples) -> RatioStats:
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
            nv = nr.sobolev_norm(v, s)
            if nv == 0.0:
                raise ValueError("multilinear diagnostics require nonzero factors")
            denom *= nv
        if spec.kind == "hartree":
            spec.validate_dimension(grid.n)
            conv = _coulomb_values(grid, values[0] * values[1])
            lhs_field = nr.SpectralField(grid, conv * values[2])
            target = s
        else:
            lhs_field = nr.SpectralField(grid, np.prod(values, axis=0))
            target = _power_target_order(spec.degree, s, grid.n)
        ratios.append(nr.sobolev_norm(lhs_field, target) / denom)
    if not ratios:
        raise ValueError("no samples provided")
    arr = np.asarray(ratios)
    return RatioStats(float(arr.max()), float(arr.mean()), float(arr.min()), len(ratios))


def initialization_stability(op, nl, grid, cfg=nr.SolverConfig()) -> float:
    """Max pairwise H^1 distance of solves started from perturbed initial data."""
    guesses = [nr.gaussian_guess(grid, width) for width in (1.0, 0.7, 1.4)]
    bump = 1.0 + 0.1 * np.cos(2.0 * np.pi * grid.coordinates()[0] / grid.length)
    guesses.append(nr.SpectralField(grid, guesses[0].values * bump))

    results = []
    for g in guesses:
        res = nr.solve(op, nl, grid, replace(cfg, initial_guess=g))
        if not res.converged:
            raise nr.GroundStateError("perturbed initialization failed to converge")
        results.append(res.field)

    worst = 0.0
    for a, b in combinations(results, 2):
        diff = nr.SpectralField(grid, a.values - b.values)
        worst = max(worst, nr.sobolev_norm(diff, 1.0))
    return worst


def real_space_identity_residual(u_inf, nl) -> float:
    """`linearization_identity_residual` by its former formula in samples: B u = (1 - Delta) u transformed back,
    L u = B u - N'(u) u, and the cell-volume sum of (L u + (q-2) B u)^2 over the grid (octant entries weighted by
    their multiplicities), over the H^2 norm of u."""
    grid, (u,), (uh,), xi_sq = _kernel_coefficients(u_inf)
    bu = _inverse(grid, (1.0 + xi_sq) * uh)
    lu = bu - _derivative(nl, grid, u)(u)
    err_sq = (lu + (nl.variational_exponent - 2) * bu) ** 2
    multiplicity = grid.octant_weight if u.shape == grid.octant_shape else 1.0
    return float(np.sqrt(np.sum(err_sq * multiplicity) * grid.cell_volume) / nr.sobolev_norm(u_inf, 2.0))
