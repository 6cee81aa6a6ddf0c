from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import nrlimit as nr
from conftest import random_field, smooth_random_field
from nrlimit.grid import (
    _MATRIX_DCT_MAX_POINTS,
    _dct,
    _dct_matrix,
    _even_part,
    _forward,
    _inverse,
    _kernel_values,
    _lattice_sum,
    _octant,
    _recentered,
    _recentered_octant,
    _spectral_norm,
    _unfold,
)
from nrlimit.nonlinearity import _coulomb_symbol

SMALL = nr.make_grid(1, 16.0, 64)


class TestMakeGrid:
    def test_1d_spacing_and_frequencies(self):
        g = nr.make_grid(1, 32.0, 1024)
        assert g.dx == 32.0 / 1024
        assert np.isclose(np.max(np.abs(g.freq_axis)), 2.0 * np.pi * 512 / 32.0)

    def test_3d_storage(self):
        g = nr.make_grid(3, 16.0, 64)
        assert int(np.prod(g.shape)) == 262144

    @pytest.mark.parametrize(
        "args",
        [
            (1, 32.0, 1023),
            (1, 32.0, 14),
            (1, -1.0, 64),
            (1, 0.0, 64),
            (4, 32.0, 64),
            (0, 32.0, 64),
            (1, float("nan"), 64),
            (1, float("inf"), 64),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            nr.make_grid(*args)

    def test_frequency_lattice_symmetric_except_nyquist(self):
        g = nr.make_grid(1, 8.0, 16)
        freqs = set(np.round(g.freq_axis, 12))
        nyquist = -2.0 * np.pi * 8 / 8.0
        for f in freqs:
            if not np.isclose(f, nyquist):
                assert -f in freqs


class TestReadOnlyArrays:
    # every solve on a grid shares these arrays; one in-place write would
    # corrupt all later solves on that grid
    @pytest.mark.parametrize("name", ["xi_sq", "axis", "freq_axis", "octant_xi_sq", "octant_weight"])
    def test_grid_arrays(self, name):
        arr = getattr(nr.make_grid(2, 8.0, 16), name)
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0

    def test_cached_coulomb_symbol(self):
        grid = nr.make_grid(3, 8.0, 16)
        for octant in (False, True):
            sym = _coulomb_symbol(grid, octant)
            with pytest.raises(ValueError):
                sym[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                sym *= 2.0


class TestTransform:
    def test_constant_field(self):
        g = SMALL
        f = nr.SpectralField(g, np.ones(g.shape))
        fh = nr.transform(f, "forward")
        assert np.isclose(fh.values[0].real, g.length)
        assert np.max(np.abs(fh.values[1:])) < 1e-12

    def test_single_cosine_mode(self):
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        fh = nr.transform(nr.SpectralField(g, np.cos(2 * np.pi * x / g.length)), "forward")
        assert np.isclose(fh.values[1], g.length / 2)
        assert np.isclose(fh.values[-1], g.length / 2)
        rest = fh.values.copy()
        rest.flags.writeable = True
        rest[1] = rest[-1] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    def test_gaussian_against_closed_form(self):
        # exact transform of exp(-x^2) is sqrt(pi) exp(-xi^2/4); float64 limits
        # the pointwise relative comparison to modes that are not vanishingly small
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        fh = nr.transform(nr.SpectralField(g, np.exp(-(x**2))), "forward")
        xi = g.freq_axis
        window = np.abs(xi) <= 20.0
        exact = np.sqrt(np.pi) * np.exp(-(xi[window] ** 2) / 4.0)
        err = np.abs(fh.values[window] - exact)
        assert np.max(err) / np.sqrt(np.pi) < 1e-10
        strong = exact >= 1e-3 * np.sqrt(np.pi)
        assert np.max(err[strong] / exact[strong]) < 1e-10

    @pytest.mark.parametrize("grid", [nr.make_grid(2, 16.0, 64), nr.make_grid(3, 16.0, 64)], ids=["2d", "3d"])
    def test_gaussian_against_closed_form_in_several_dimensions(self, grid):
        # exp(-|x|^2) transforms to pi^(n/2) exp(-|xi|^2/4); the centering
        # phase is a product over the axes, so it is pinned only in n >= 2
        fh = nr.transform(nr.SpectralField(grid, np.exp(-grid.radius_sq())), "forward")
        window = grid.xi_sq <= 100.0
        peak = np.pi ** (grid.n / 2)
        exact = peak * np.exp(-grid.xi_sq[window] / 4.0)
        err = np.abs(fh.values[window] - exact)
        assert np.max(err) / peak < 1e-10
        strong = exact >= 1e-3 * peak
        assert np.max(err[strong] / exact[strong]) < 1e-10

    def test_round_trip_and_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = random_field(SMALL, rng)
            g = random_field(SMALL, rng)
            back = nr.transform(nr.transform(f, "forward"), "inverse")
            assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))
            a, b = rng.standard_normal(2)
            combo = nr.SpectralField(SMALL, a * f.values + b * g.values)
            lhs = nr.transform(combo, "forward").values
            rhs = a * nr.transform(f, "forward").values + b * nr.transform(g, "forward").values
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * (np.max(np.abs(rhs)) + 1.0)

    def test_hermitian_symmetry_of_real_field(self):
        rng = np.random.default_rng(2)
        fh = nr.transform(random_field(SMALL, rng), "forward").values
        mirrored = np.roll(fh[::-1], 1)
        assert np.max(np.abs(fh - np.conj(mirrored))) < 1e-12 * np.max(np.abs(fh))

    def test_wrong_representation_rejected(self):
        f = nr.SpectralField(SMALL, np.zeros(SMALL.shape))
        with pytest.raises(ValueError):
            nr.transform(f, "inverse")
        fh = nr.transform(f, "forward")
        with pytest.raises(ValueError):
            nr.transform(fh, "forward")

    def test_real_space_rejects_complex_values(self):
        with pytest.raises(TypeError):
            nr.SpectralField(SMALL, np.zeros(SMALL.shape, dtype=complex))


class TestSobolevNorm:
    def test_zero_field(self):
        f = nr.SpectralField(SMALL, np.zeros(SMALL.shape))
        for s in (-2.0, 0.0, 1.0, 5.0):
            assert nr.sobolev_norm(f, s) == 0.0

    def test_single_mode_l2(self):
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        f = nr.SpectralField(g, np.cos(2 * np.pi * x / g.length))
        assert np.isclose(nr.sobolev_norm(f, 0.0), np.sqrt(g.length / 2), rtol=1e-12)

    def test_sech_h1_against_quadrature(self, grid1d, sech_exact):
        # independent quadrature of u^2 and u'^2 for u = sqrt(2) sech
        mass = quad(lambda t: 2.0 / np.cosh(t) ** 2, -40, 40)[0]
        grad = quad(lambda t: 2.0 * (np.tanh(t) / np.cosh(t)) ** 2, -40, 40)[0]
        assert np.isclose(mass + grad, 16.0 / 3.0, rtol=1e-9)
        assert np.isclose(nr.sobolev_norm(sech_exact, 1.0), np.sqrt(16.0 / 3.0), rtol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_field(SMALL, rng)
            direct = np.sqrt(np.sum(f.values**2) * SMALL.cell_volume)
            assert np.isclose(nr.sobolev_norm(f, 0.0), direct, rtol=1e-12)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            f = random_field(SMALL, rng)
            norms = [nr.sobolev_norm(f, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_order_range_enforced(self):
        f = nr.SpectralField(SMALL, np.ones(SMALL.shape))
        with pytest.raises(ValueError):
            nr.sobolev_norm(f, 8.5)
        with pytest.raises(ValueError):
            nr.sobolev_norm(f, -4.5)


class TestInnerProduct:
    def test_h1_matches_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_field(SMALL, rng)
            ip = nr.inner_product(f, f, "H1")
            assert np.isclose(ip, nr.sobolev_norm(f, 1.0) ** 2, rtol=1e-12)

    def test_sech_h1_value(self, sech_exact):
        assert np.isclose(nr.inner_product(sech_exact, sech_exact, "H1"), 16.0 / 3.0, rtol=1e-9)

    def test_even_odd_orthogonal(self):
        g = SMALL
        x = g.coordinates()[0]
        f = nr.SpectralField(g, np.cos(2 * np.pi * x / g.length))
        h = nr.SpectralField(g, np.sin(2 * np.pi * x / g.length))
        assert abs(nr.inner_product(f, h, "L2")) < 1e-12
        assert abs(nr.inner_product(f, h, "H1")) < 1e-12

    def test_grid_mismatch(self):
        f = nr.SpectralField(SMALL, np.ones(SMALL.shape))
        other = nr.make_grid(1, 16.0, 32)
        g = nr.SpectralField(other, np.ones(other.shape))
        with pytest.raises(ValueError):
            nr.inner_product(f, g)


KERNEL_GRIDS = [nr.make_grid(1, 16.0, 64), nr.make_grid(2, 8.0, 32), nr.make_grid(3, 8.0, 16)]


def _nyquist_field(grid, rng):
    """Smooth random field plus a (-1)^j component on the last axis, which
    lives only on the Nyquist mode k = -N/2 of that axis."""
    smooth = smooth_random_field(grid, rng).values
    j = np.arange(grid.points)
    return nr.SpectralField(grid, smooth + 0.3 * (-1.0) ** j)


class TestRealKernelAgainstFullLattice:
    """Real-space fields take the kernel's uncentered transform; frequency
    fields from `transform` carry the centering phase.  Both must agree."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_sobolev_norm(self, grid):
        rng = np.random.default_rng(40 + grid.n)
        for f in (random_field(grid, rng), _nyquist_field(grid, rng)):
            fh = nr.transform(f, "forward")
            for s in (-1.0, 0.0, 1.0, 4.0):
                assert np.isclose(nr.sobolev_norm(f, s), nr.sobolev_norm(fh, s), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_inner_product(self, grid):
        rng = np.random.default_rng(50 + grid.n)
        f, g = _nyquist_field(grid, rng), _nyquist_field(grid, rng)
        fh, gh = nr.transform(f, "forward"), nr.transform(g, "forward")
        for weight in ("L2", "H1"):
            full = nr.inner_product(fh, gh, weight)
            assert np.isclose(nr.inner_product(f, g, weight), full, rtol=1e-13, atol=0.0)

    def test_nyquist_mode_norm(self):
        # (-1)^j alone: H^s norm is sqrt(L^n) (1 + (pi N / L)^2)^(s/2)
        grid = KERNEL_GRIDS[1]
        f = nr.SpectralField(grid, np.broadcast_to((-1.0) ** np.arange(grid.points), grid.shape))
        expected = np.sqrt(grid.volume) * (1.0 + (np.pi * grid.points / grid.length) ** 2) ** 2
        assert np.isclose(nr.sobolev_norm(f, 4.0), expected, rtol=1e-13)


def _even_nyquist_field(grid, rng):
    """Even field with a (-1)^j component on the last axis and a (-1)^(j_1+...+j_n) one."""
    checker = np.ones(grid.shape)
    for sign in np.meshgrid(*([(-1.0) ** np.arange(grid.points)] * grid.n), indexing="ij"):
        checker = checker * sign
    return _even_part(grid, _nyquist_field(grid, rng).values + 0.2 * checker)


# (n, N) with the octant axis h = N/2 + 1 at the matrix route's cut-off and one step past it (rfft route)
ROUTE_GRIDS = [
    pytest.param(n, 2 * (h - 1), id=f"{n}d-N{2 * (h - 1)}")
    for n in (1, 3)
    for h in (_MATRIX_DCT_MAX_POINTS, _MATRIX_DCT_MAX_POINTS + 1)
]


class TestOctantKernel:
    """An even field is stored on its octant and transformed by DCT-I; every
    octant quantity must match the same quantity on the full grid."""

    @pytest.mark.parametrize("n, points", ROUTE_GRIDS)
    def test_both_dct_routes_match_rfftn_of_the_unfolded_field(self, n, points, transform_counts):
        grid = nr.make_grid(n, 8.0, points)
        octant = np.random.default_rng(points + n).standard_normal(grid.octant_shape)
        reference = np.fft.rfftn(_unfold(grid, octant))[grid.octant_index]
        scale = np.max(np.abs(reference))
        coeff = _dct(octant)
        # one rfft per axis past the cut-off, none at it
        assert transform_counts["rfft"] == (n if grid.octant_shape[0] > _MATRIX_DCT_MAX_POINTS else 0)
        assert np.max(np.abs(coeff - reference.real)) <= 1e-13 * scale
        assert np.max(np.abs(reference.imag)) <= 1e-13 * scale

    @pytest.mark.parametrize("n, points", ROUTE_GRIDS)
    def test_both_dct_routes_are_their_own_inverse_up_to_the_grid_size(self, n, points):
        grid = nr.make_grid(n, 8.0, points)
        octant = np.random.default_rng(points + n + 1).standard_normal(grid.octant_shape)
        back = _inverse(grid, _forward(grid, octant))
        assert np.max(np.abs(back - octant)) <= 1e-13 * np.max(np.abs(octant))

    def test_dct_matrix_is_cached_and_read_only(self):
        h = _MATRIX_DCT_MAX_POINTS
        matrix = _dct_matrix(h)
        assert _dct_matrix(h) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
        # C[k, j] / w_j is symmetric bit for bit
        weight = np.full(h, 2.0)
        weight[[0, -1]] = 1.0
        assert np.array_equal(matrix / weight, (matrix / weight).T)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_dct_matches_rfftn_of_the_unfolded_field(self, grid):
        full = _even_nyquist_field(grid, np.random.default_rng(60 + grid.n))
        reference = np.fft.rfftn(full)[grid.octant_index]
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(_dct(_octant(grid, full)) - reference.real)) <= 1e-13 * scale
        assert np.max(np.abs(reference.imag)) <= 1e-13 * scale

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_dct_is_its_own_inverse_up_to_the_grid_size(self, grid):
        octant = _octant(grid, _even_nyquist_field(grid, np.random.default_rng(70 + grid.n)))
        back = _inverse(grid, _forward(grid, octant))
        assert np.max(np.abs(back - octant)) <= 1e-13 * np.max(np.abs(octant))

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_weighted_sums_match_full_grid_sums(self, grid):
        full = _even_nyquist_field(grid, np.random.default_rng(80 + grid.n))
        octant = _octant(grid, full)
        assert abs(_lattice_sum(grid, octant) - np.sum(full)) <= 1e-13 * np.sum(np.abs(full))
        assert np.isclose(_lattice_sum(grid, octant * octant), np.sum(full * full), rtol=1e-13, atol=0.0)
        # Parseval on the octant against the complex full lattice
        coeff = _dct(octant)
        power = np.abs(np.fft.fftn(full)) ** 2
        assert np.isclose(_lattice_sum(grid, coeff * coeff), np.sum(power), rtol=1e-13, atol=0.0)
        full_hat = nr.transform(nr.SpectralField(grid, full), "forward")
        for s in (-1.0, 1.0, 4.0):
            octant_norm = _spectral_norm(grid, (1.0 + grid.octant_xi_sq) ** s, coeff)
            assert np.isclose(octant_norm, nr.sobolev_norm(full_hat, s), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_restrict_and_unfold_round_trip_bit_for_bit(self, grid):
        full = _even_nyquist_field(grid, np.random.default_rng(90 + grid.n))
        assert np.array_equal(_unfold(grid, _octant(grid, full)), full)
        _, (values,), xi_sq = _kernel_values(nr.SpectralField(grid, full))
        assert values.shape == grid.octant_shape and xi_sq is grid.octant_xi_sq
        # one sample off its mirror image sends the field to the full lattice
        uneven = full.copy()
        uneven[(1,) * grid.n] += 1e-12
        uneven_field = nr.SpectralField(grid, uneven)
        _, (values,), xi_sq = _kernel_values(uneven_field)
        assert values is uneven_field.values and xi_sq is grid.xi_sq

    def test_recentering_a_corner_peak_on_the_octant(self):
        grid = KERNEL_GRIDS[1]
        j = np.arange(grid.points)
        corner = np.minimum(j, grid.points - j) * grid.dx  # distance to index 0
        d = np.meshgrid(*([corner] * grid.n), indexing="ij")
        full = np.exp(-sum(a * a for a in d))
        moved = _recentered_octant(grid, _octant(grid, full))
        assert np.array_equal(moved, _octant(grid, _even_part(grid, _recentered(grid, full))))
        assert np.argmax(moved) == moved.size - 1
        assert _recentered_octant(grid, moved) is moved
        # a full-grid array takes the same route
        assert np.array_equal(_recentered_octant(grid, full), moved)

    def test_import_does_not_load_scipy_fft(self):
        # scipy.fft costs about 83 ms of start-up; the kernel is numpy.fft only
        src = str(Path(nr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import nrlimit, sys; assert 'scipy.fft' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestSymmetrize:
    def test_even_field_fixed(self):
        x = SMALL.coordinates()[0]
        f = nr.SpectralField(SMALL, np.exp(-(x**2)))
        out = nr.symmetrize(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-15

    def test_odd_field_killed(self):
        # x * gaussian is odd and vanishes at the unpaired boundary sample
        x = SMALL.coordinates()[0]
        f = nr.SpectralField(SMALL, x * np.exp(-(x**2)))
        assert np.max(np.abs(nr.symmetrize(f).values)) < 1e-15

    def test_parity_decomposition(self):
        x = SMALL.coordinates()[0]
        damp = np.exp(-(x**2))
        f = nr.SpectralField(SMALL, (x + x**2) * damp)
        even = nr.SpectralField(SMALL, x**2 * damp)
        assert np.max(np.abs(nr.symmetrize(f).values - even.values)) < 1e-14

    def test_raw_coordinate_leaves_only_boundary_sample(self):
        # the sample at -L/2 is its own mirror image on the periodic lattice
        x = SMALL.coordinates()[0]
        out = nr.symmetrize(nr.SpectralField(SMALL, x.copy()))
        assert np.all(out.values[1:] == 0.0)
        assert out.values[0] == -SMALL.length / 2

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        f = random_field(SMALL, rng)
        once = nr.symmetrize(f)
        twice = nr.symmetrize(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-15


class TestRecenter:
    def test_moves_peak_to_origin(self):
        x = SMALL.coordinates()[0]
        f = nr.SpectralField(SMALL, np.exp(-((x - 3.0) ** 2)))
        out = nr.recenter(f)
        assert np.argmax(out.values) == SMALL.center_index[0]

    def test_centered_field_unchanged(self):
        x = SMALL.coordinates()[0]
        f = nr.SpectralField(SMALL, np.exp(-(x**2)))
        assert nr.recenter(f) is f


class TestLpNorm:
    def test_two_norm_is_the_l2_norm(self):
        f = random_field(SMALL, np.random.default_rng(9))
        assert np.isclose(nr.lp_norm(f, 2.0), nr.sobolev_norm(f, 0.0), rtol=1e-12)
        assert np.isclose(nr.lp_norm(f, 1), np.sum(np.abs(f.values)) * SMALL.cell_volume, rtol=1e-12)

    @pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan"), 0.0, 0, 0.5, -1.0])
    def test_rejects_exponents_that_give_no_norm(self, p):
        # p = inf returned 1.0 for every field, p = 0 divided by zero, p < 1 is no norm
        f = random_field(SMALL, np.random.default_rng(10))
        with pytest.raises(ValueError, match="p >= 1"):
            nr.lp_norm(f, p)


class TestFullLatticeOnDemand:
    """The pipeline runs on the octant; `Grid.xi_sq`, the one full-lattice
    array, is built only when a full-lattice call reads it."""

    def test_pipeline_never_builds_the_full_lattice(self):
        grid = nr.make_grid(3, 16.0, 32)
        nl = nr.hartree()
        u_inf = nr.solve(nr.nonrelativistic(), nl, grid)
        u_c = nr.solve(nr.pseudo_relativistic(4.0), nl, grid)
        assert u_inf.converged and u_c.converged
        assert nr.nondegeneracy_gap(u_inf.field, nl) > 0.0
        assert nr.linearization_identity_residual(u_inf.field, nl) < 1e-8
        nr.convergence_record(u_c.field, u_inf.field, 4.0, [0.5, 1.0, 4.0])
        nr.symbol_gap_ratio(nr.pseudo_relativistic(4.0), grid)
        nr.taylor_residual(nr.pseudo_relativistic(4.0), grid, 0.5)
        assert "xi_sq" not in vars(grid)
        assert grid.xi_sq is grid.xi_sq and "xi_sq" in vars(grid)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_symbol_table_on_the_octant_equals_the_full_lattice(self, grid):
        # every full-lattice |xi|^2 value occurs bit for bit on the octant
        t = grid.xi_sq
        for c in (2.5, 4.0, 64.0):
            spec = nr.pseudo_relativistic(c)
            assert nr.symbol_gap_ratio(spec, grid) == float(np.min(nr.symbol(spec, t) / np.sqrt(1.0 + t)))
            window = (t > 0.0) & (np.sqrt(t) <= 0.5 * c)
            tw = t[window]
            expected = float(np.max(c**2 * nr.symbol_defect(spec, tw) / (tw * tw)))
            assert nr.taylor_residual(spec, grid, 0.5) == expected


class TestSnapshots:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        f = random_field(SMALL, rng)
        nr.save_field(f, tmp_path / "snap")
        back = nr.load_field(tmp_path / "snap")
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        f = random_field(SMALL, rng)
        nr.save_field(f, tmp_path / "snap", fmt="csv")
        back = nr.load_field(tmp_path / "snap")
        assert np.array_equal(back.values, f.values)

    def test_header_contents(self, tmp_path):
        import json

        g = nr.make_grid(3, 16.0, 16)
        f = nr.SpectralField(g, np.zeros(g.shape))
        header_path, _ = nr.save_field(f, tmp_path / "snap")
        header = json.loads(header_path.read_text())
        assert header == {"n": 3, "L": 16.0, "N": 16}


def _gaussian(grid):
    return nr.SpectralField(grid, np.exp(-0.5 * grid.radius_sq()))


# every public function that works on real-space samples, with the
# frequency-space field `uh` in one of its field slots; `u` is real
REAL_SPACE_CALLS = {
    "symmetrize": lambda u, uh, path: nr.symmetrize(uh),
    "recenter": lambda u, uh, path: nr.recenter(uh),
    "lp_norm": lambda u, uh, path: nr.lp_norm(uh, 2.0),
    "residual": lambda u, uh, path: nr.residual(uh, nr.nonrelativistic(), nr.power(3)),
    "action": lambda u, uh, path: nr.action(uh, nr.nonrelativistic(), nr.power(3)),
    "solve-guess": lambda u, uh, path: nr.solve(
        nr.nonrelativistic(), nr.power(3), u.grid, nr.SolverConfig(initial_guess=uh)
    ),
    "evaluate": lambda u, uh, path: nr.evaluate(nr.power(3), uh),
    "hartree_potential": lambda u, uh, path: nr.hartree_potential(uh),
    "linearize-base": lambda u, uh, path: nr.linearize(nr.power(3), uh, u),
    "linearize-direction": lambda u, uh, path: nr.linearize(nr.power(3), u, uh),
    "taylor_remainder": lambda u, uh, path: nr.taylor_remainder(nr.power(3), u, uh),
    "multilinear_ratio": lambda u, uh, path: nr.multilinear_ratio(nr.power(3), 1.0, [(u, u, uh)]),
    "convergence_record-u_c": lambda u, uh, path: nr.convergence_record(uh, u, 4.0, [1.0]),
    "convergence_record-u_inf": lambda u, uh, path: nr.convergence_record(u, uh, 4.0, [1.0]),
    "nondegeneracy_gap": lambda u, uh, path: nr.nondegeneracy_gap(uh, nr.power(3)),
    "linearization_identity_residual": lambda u, uh, path: nr.linearization_identity_residual(uh, nr.power(3)),
    "save_field": lambda u, uh, path: nr.save_field(uh, path / "snap"),
}


class TestRealSpaceGate:
    """A frequency-space field or a second grid is a ValueError in every
    function that reads real-space samples, never a wrong number."""

    @pytest.mark.parametrize("name", sorted(REAL_SPACE_CALLS))
    def test_frequency_space_field_rejected(self, name, tmp_path):
        u = _gaussian(KERNEL_GRIDS[2] if name == "hartree_potential" else SMALL)
        uh = nr.transform(u, "forward")
        with pytest.raises(ValueError, match="real-space"):
            REAL_SPACE_CALLS[name](u, uh, tmp_path)
        assert not list(tmp_path.iterdir())

    def test_multilinear_factors_on_two_grids_of_one_shape_rejected(self):
        other = nr.make_grid(1, 2.0 * SMALL.length, SMALL.points)
        u, v = _gaussian(SMALL), _gaussian(other)
        assert u.values.shape == v.values.shape
        with pytest.raises(ValueError, match="one grid"):
            nr.multilinear_ratio(nr.power(3), 1.0, [(u, u, v)])

    def test_guess_on_another_grid_rejected(self):
        guess = _gaussian(nr.make_grid(1, 2.0 * SMALL.length, SMALL.points))
        with pytest.raises(ValueError, match="one grid"):
            nr.solve(nr.nonrelativistic(), nr.power(3), SMALL, nr.SolverConfig(initial_guess=guess))
