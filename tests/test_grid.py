from __future__ import annotations

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import nrlimit as nr
from conftest import random_field, smooth_random_field, traced_peak
from nrlimit.grid import (
    _MATRIX_DCT_MAX_POINTS,
    _EvenField,
    _dct,
    _dct_matrix,
    _even_part,
    _forward,
    _inverse,
    _kernel_coefficients,
    _lattice_dot,
    _octant,
    _prolonged,
    _recentered,
    _recentered_octant,
    _unfold,
)
from nrlimit.nonlinearity import _coulomb_symbol
from oracles import lattice_multiplier, lattice_pairing, lp_norm, multilinear_ratio

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
            (1, 32.0, 1024.5),
            (True, 32.0, 64),
            (1, 32.0, 64.0),
            (1, 5e-324, 64),
            (1, 1e-300, 64),
            (1, True, 64),
            (1, "32", 64),
            (1, 10**400, 64),
        ],
    )
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            nr.make_grid(*args)

    @pytest.mark.parametrize("length", [True, "32", None, 32.0j])
    def test_non_real_length_rejected_naming_it(self, length):
        with pytest.raises(ValueError, match="length must be a real number"):
            nr.Grid(n=1, length=length, points=64)

    @pytest.mark.parametrize("length", [32, np.int64(32), np.float32(32.0), np.float64(32.0)])
    def test_numpy_and_integer_lengths_are_stored_as_float(self, length):
        g = nr.make_grid(1, length, 64)
        assert g == nr.make_grid(1, 32.0, 64)
        assert type(g.length) is float and type(g.dx) is float

    def test_numpy_integers_are_stored_as_int(self):
        g = nr.make_grid(np.int64(1), 32.0, np.int32(64))
        assert g == nr.make_grid(1, 32.0, 64)
        assert type(g.n) is int and type(g.points) is int

    def test_frequency_lattice_symmetric_except_nyquist(self):
        g = nr.make_grid(1, 8.0, 16)
        freqs = set(np.round(g.freq_axis, 12))
        nyquist = -2.0 * np.pi * 8 / 8.0
        for f in freqs:
            if not np.isclose(f, nyquist):
                assert -f in freqs


class TestDenseConstructionOracle:
    """`freq_axis` and `octant_xi_sq` equal, bit for bit, the dense
    construction from numpy.fft.fftfreq and a full meshgrid, and the uint8
    `octant_weight` equals its float64 multiplicities value for value."""

    # a 3D grid of 1024 points would hold two octant arrays of 1.1 GB each
    CASES = [(n, points) for points in (16, 18, 64, 126, 128, 1024) for n in (1, 2, 3) if n < 3 or points <= 128]

    @pytest.mark.parametrize("n, points", CASES)
    @pytest.mark.parametrize("length", [16.0, 100.0 / 3.0])
    def test_bit_equal(self, n, points, length):
        grid = nr.make_grid(n, length, points)
        half = points // 2 + 1
        freq_axis = 2.0 * np.pi * np.fft.fftfreq(points, d=length / points)
        xi_sq = sum(a * a for a in np.meshgrid(*([freq_axis[:half]] * n), indexing="ij"))
        multiplicity = np.full(half, 2.0)
        multiplicity[[0, -1]] = 1.0
        weight = np.ones((half,) * n)
        for w in np.meshgrid(*([multiplicity] * n), indexing="ij"):
            weight = weight * w
        for got, expected in ((grid.freq_axis, freq_axis), (grid.octant_xi_sq, xi_sq)):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert grid.octant_weight.dtype == np.uint8
        assert grid.octant_weight.shape == weight.shape and np.array_equal(grid.octant_weight, weight)


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


class TestStandingFootprint:
    def test_a_grid_holds_one_float_octant(self):
        # what a 64^3 grid keeps: |xi|^2 on the octant, the one-byte
        # multiplicities and the two axes.  A dense float64 weight array, or
        # any other static float64 octant, would add 287 kB; a few kB cover
        # the objects
        nr.Grid(3, 16.0, 64)
        tracemalloc.start()
        try:
            grid = nr.Grid(3, 16.0, 64)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cells = grid.octant_xi_sq.size  # 8 bytes each in float64, 1 in uint8
        assert held <= 9 * cells + grid.axis.nbytes + grid.freq_axis.nbytes + 4096


class TestFieldIdentity:
    def test_fields_compare_and_hash_by_identity(self):
        # a field equal to another by its samples is still another field: == never compares arrays
        samples = np.exp(-SMALL.radius_sq())
        a, b = nr.SpectralField(SMALL, samples), nr.SpectralField(SMALL, samples)
        assert a == a and a != b and hash(a) == hash(a)
        assert len({a, b, a}) == 2


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

    @pytest.mark.parametrize(
        "grid", [SMALL, nr.make_grid(2, 8.0, 32), nr.make_grid(3, 8.0, 16)], ids=lambda g: f"{g.n}d"
    )
    def test_centred_numpy_fft_bit_for_bit(self, grid):
        f = random_field(grid, np.random.default_rng(12))
        fh = nr.transform(f, "forward")
        assert np.array_equal(fh.values, np.fft.fftn(np.fft.fftshift(f.values)) * grid.dx**grid.n)
        back = nr.transform(fh, "inverse")
        assert np.array_equal(back.values, np.fft.ifftshift(np.fft.ifftn(fh.values).real) / grid.dx**grid.n)

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

    @pytest.mark.parametrize("s", ["1", True, None, [1.0]], ids=["str", "true", "none", "list"])
    def test_order_that_is_not_a_real_number_rejected(self, s):
        f = nr.SpectralField(SMALL, np.ones(SMALL.shape))
        with pytest.raises(ValueError, match="Sobolev order must be a real number"):
            nr.sobolev_norm(f, s)

    def test_integer_orders_are_real_numbers(self):
        f = nr.gaussian_guess(SMALL)
        assert nr.sobolev_norm(f, np.int64(2)) == nr.sobolev_norm(f, 2) == nr.sobolev_norm(f, 2.0)


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
    """A real-space field that is not even and a frequency-space field both
    take the kernel's full-lattice route; each must agree with the numpy.fft
    oracle, which uses no nrlimit transform."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_sobolev_norm(self, grid):
        rng = np.random.default_rng(40 + grid.n)
        for f in (random_field(grid, rng), _nyquist_field(grid, rng)):
            fh = nr.transform(f, "forward")
            for s in (-1.0, 0.0, 1.0, 4.0):
                expected = np.sqrt(lattice_pairing(f.values, f.values, grid.length, lambda t: (1.0 + t) ** s))
                assert np.isclose(nr.sobolev_norm(f, s), expected, rtol=1e-13, atol=0.0)
                assert np.isclose(nr.sobolev_norm(fh, s), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_inner_product(self, grid):
        rng = np.random.default_rng(50 + grid.n)
        f, g = _nyquist_field(grid, rng), _nyquist_field(grid, rng)
        fh, gh = nr.transform(f, "forward"), nr.transform(g, "forward")
        for weight, mult in (("L2", None), ("H1", lambda t: 1.0 + t)):
            expected = lattice_pairing(f.values, g.values, grid.length, mult)
            assert np.isclose(nr.inner_product(f, g, weight), expected, rtol=1e-13, atol=0.0)
            assert np.isclose(nr.inner_product(fh, gh, weight), expected, rtol=1e-13, atol=0.0)

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
        ones = np.ones(grid.octant_shape)
        assert abs(_lattice_dot(grid, octant, ones) - np.sum(full)) <= 1e-13 * np.sum(np.abs(full))
        assert np.isclose(_lattice_dot(grid, octant, octant), np.sum(full * full), rtol=1e-13, atol=0.0)
        # Parseval on the octant against the complex full lattice
        coeff = _dct(octant)
        power = np.abs(np.fft.fftn(full)) ** 2
        assert np.isclose(_lattice_dot(grid, coeff, coeff), np.sum(power), rtol=1e-13, atol=0.0)
        full_hat = nr.transform(nr.SpectralField(grid, full), "forward")
        even = nr.SpectralField(grid, full)
        assert _kernel_coefficients(even)[3] is grid.octant_xi_sq  # its norms are read off the octant
        for s in (-1.0, 1.0, 4.0):
            assert np.isclose(nr.sobolev_norm(even, s), nr.sobolev_norm(full_hat, s), rtol=1e-13, atol=0.0)

    def test_unfold_allocates_only_its_result(self):
        grid = nr.make_grid(3, 16.0, 64)
        octant = np.random.default_rng(91).standard_normal(grid.octant_shape)
        fulls = []
        assert traced_peak(lambda: fulls.append(_unfold(grid, octant))) < 1.1 * fulls[0].nbytes

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"{g.n}d")
    def test_restrict_and_unfold_round_trip_bit_for_bit(self, grid):
        full = _even_nyquist_field(grid, np.random.default_rng(90 + grid.n))
        assert np.array_equal(_unfold(grid, _octant(grid, full)), full)
        _, (values,), _, xi_sq = _kernel_coefficients(nr.SpectralField(grid, full))
        assert values.shape == grid.octant_shape and xi_sq is grid.octant_xi_sq
        # one sample off its mirror image sends the field to the full lattice
        uneven = full.copy()
        uneven[(1,) * grid.n] += 1e-12
        uneven_field = nr.SpectralField(grid, uneven)
        _, (values,), _, xi_sq = _kernel_coefficients(uneven_field)
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

    def test_even_centred_array_enters_as_its_octant(self):
        grid = KERNEL_GRIDS[2]
        solved = nr.solve(nr.nonrelativistic(), nr.hartree(), grid).field.values
        octant = _recentered_octant(grid, solved)
        assert np.array_equal(octant, _octant(grid, _even_part(grid, _recentered(grid, solved))))
        assert np.shares_memory(octant, solved)
        # one cell off the centre: shifted back and symmetrized, onto the same octant
        rolled = np.roll(solved, 1, axis=0)
        moved = _recentered_octant(grid, rolled)
        assert np.array_equal(moved, _octant(grid, _even_part(grid, _recentered(grid, rolled))))
        assert not np.shares_memory(moved, rolled)
        assert np.array_equal(moved, octant)

    def test_import_does_not_load_scipy_fft(self):
        # scipy.fft costs about 83 ms of start-up; the kernel is numpy.fft only
        src = str(Path(nr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import nrlimit, sys; assert 'scipy.fft' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _interpolated_twice_as_fine(values: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of a periodic array onto twice the points per axis, one axis at a
    time by numpy.fft: the modes |k| < M/2 keep their place, the Nyquist mode splits evenly into +-M/2."""
    for ax in range(values.ndim):
        m = values.shape[ax]
        coeff = np.moveaxis(np.fft.fft(values, axis=ax), ax, 0)
        padded = np.zeros((2 * m, *coeff.shape[1:]), dtype=complex)
        padded[: m // 2] = coeff[: m // 2]
        padded[-(m // 2) + 1 :] = coeff[-(m // 2) + 1 :]
        padded[m // 2] = padded[-(m // 2)] = 0.5 * coeff[m // 2]
        values = np.moveaxis(2.0 * np.fft.ifft(padded, axis=0).real, 0, ax)
    return values


class TestProlongation:
    """`_prolonged` takes an even field on the N/2 grid to the octant of its
    trigonometric interpolant on the N grid, in one inverse DCT-I of the
    coefficients the field carries."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_fft_interpolation_of_the_unfolded_field(self, n, transform_counts):
        coarse, fine = nr.make_grid(n, 8.0, 16), nr.make_grid(n, 8.0, 32)
        octant = np.random.default_rng(n).standard_normal(coarse.octant_shape)
        field = _EvenField(coarse, octant, _forward(coarse, octant))
        before = transform_counts["dct"]
        prolonged = _prolonged(field, fine)
        assert transform_counts["dct"] - before == 1
        reference = _octant(fine, _interpolated_twice_as_fine(_unfold(coarse, octant)))
        assert np.max(np.abs(prolonged - reference)) <= 1e-13 * np.max(np.abs(octant))
        # coarse index j is fine index 2j: the coarse samples are kept
        assert np.max(np.abs(prolonged[(slice(None, None, 2),) * n] - octant)) <= 1e-13 * np.max(np.abs(octant))

    @pytest.mark.parametrize("modes", [(0, 0, 0), (3, 1, 5), (8, 0, 2), (8, 8, 8)], ids=str)
    def test_even_modes_up_to_the_coarse_nyquist_are_exact(self, modes):
        # on L = 8 with 16 coarse points, mode 8 is the coarse Nyquist frequency
        coarse, fine = nr.make_grid(3, 8.0, 16), nr.make_grid(3, 8.0, 32)

        def sampled(grid):
            x = grid.axis[: grid.octant_shape[0]]
            axes = np.meshgrid(x, x, x, indexing="ij", sparse=True)
            fx, fy, fz = (np.cos(2.0 * np.pi * k * a / grid.length) for k, a in zip(modes, axes))
            return fx * fy * fz

        assert np.max(np.abs(_prolonged(_EvenField(coarse, sampled(coarse)), fine) - sampled(fine))) <= 1e-13


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
        assert np.isclose(lp_norm(f, 2.0), nr.sobolev_norm(f, 0.0), rtol=1e-12)
        assert np.isclose(lp_norm(f, 1), np.sum(np.abs(f.values)) * SMALL.cell_volume, rtol=1e-12)

    @pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan"), 0.0, 0, 0.5, -1.0])
    def test_rejects_exponents_that_give_no_norm(self, p):
        # p = inf returned 1.0 for every field, p = 0 divided by zero, p < 1 is no norm
        f = random_field(SMALL, np.random.default_rng(10))
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(f, p)


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

    def test_spectral_diagnostics_of_an_even_field_stay_on_the_octant(self, transform_counts):
        grid = nr.make_grid(3, 8.0, 16)
        u = _gaussian(grid)  # exactly even
        values = {name: call(u) for name, call in SPECTRAL_CALLS.items()}
        assert "xi_sq" not in vars(grid)
        assert transform_counts["complex"] == 0 and transform_counts["dct"] > 0
        # the octant's P(D)u, unfolded, against numpy.fft of the full grid
        spec = nr.pseudo_relativistic(4.0)
        expected = lattice_multiplier(u.values, grid.length, lambda t: nr.symbol(spec, t))
        assert values["apply_multiplier"].space == "real"
        assert np.max(np.abs(values["apply_multiplier"].values - expected)) <= 1e-13 * np.max(np.abs(expected))

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


def _diagnostics(u_c, u_inf, nl) -> dict:
    """Every public diagnostic of a solved pair, as floats, records or sample arrays."""
    op = nr.pseudo_relativistic(4.0)
    return {
        "sobolev_norm": nr.sobolev_norm(u_inf, 1.5),
        "inner_product": nr.inner_product(u_c, u_inf, "H1"),
        "residual": nr.residual(u_inf, nr.nonrelativistic(), nl),
        "action": nr.action(u_c, op, nl),
        "nondegeneracy_gap": nr.nondegeneracy_gap(u_inf, nl),
        "linearization_identity_residual": nr.linearization_identity_residual(u_inf, nl),
        "optimality_forms": nr.optimality_forms(u_inf, [4.0, 16.0]),
        "h_minus1_residual": nr.h_minus1_residual(u_c, 4.0),
        "convergence_record": nr.convergence_record(u_c, u_inf, 4.0, [0.5, 1.0, 2.0], 0.25),
        "apply_multiplier": nr.apply_multiplier(u_inf, op),
    }


class TestEvenField:
    """A solved field is an `_EvenField`: it stores its octant and the DCT-I
    coefficients its solve ended with, and its values are the unfolding of
    that octant, built on first read and kept.  Every public diagnostic reads
    the stored octant and coefficients, and gives what it gives for a plain
    full-grid copy of the field."""

    @pytest.fixture(scope="class", params=[1, 3], ids=["1d", "3d"])
    def solved(self, request):
        grid = nr.make_grid(1, 16.0, 64) if request.param == 1 else nr.make_grid(3, 8.0, 16)
        nl = nr.power(3) if grid.n == 1 else nr.hartree()
        u_inf = nr.solve(nr.nonrelativistic(), nl, grid)
        u_c = nr.solve(nr.pseudo_relativistic(4.0), nl, grid)
        assert u_inf.converged and u_c.converged
        return grid, nl, u_c.field, u_inf.field

    def test_values_are_the_unfolded_octant_built_once(self, solved):
        grid, _, _, field = solved
        assert isinstance(field, _EvenField) and isinstance(field, nr.SpectralField)
        assert field.space == "real" and field.octant.shape == grid.octant_shape
        assert not field.octant.flags.writeable
        values = field.values
        assert np.array_equal(values, _unfold(grid, field.octant))
        assert values.shape == grid.shape and not values.flags.writeable
        assert field.values is values
        for name in ("values", "octant", "coefficients", "grid", "space"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(field, name, None)
        assert field.values is values

    @pytest.mark.parametrize("n", [1, 3], ids=["1d-rfft", "3d-matrix"])
    def test_a_solve_hands_over_the_transform_of_its_octant(self, monkeypatch, n):
        # the 1D default grid takes the rfft route, both levels of 64^3 Hartree the matrix route
        grid = nr.make_grid(1, 32.0, 1024) if n == 1 else nr.make_grid(3, 16.0, 64)
        nl = nr.power(3) if n == 1 else nr.hartree()
        solve_level, levels = nr.ground_state._solve_level, []

        def recorded(*args, **kwargs):
            levels.append(solve_level(*args, **kwargs))
            return levels[-1]

        monkeypatch.setattr(nr.ground_state, "_solve_level", recorded)
        result = nr.solve(nr.nonrelativistic(), nl, grid)
        assert result.converged and levels[-1].field is result.field
        assert [level.field.grid.points for level in levels] == ([1024] if n == 1 else [32, 64])
        for level in levels:
            field = level.field
            assert "coefficients" in vars(field)  # handed over, not computed on read
            assert field.coefficients.tobytes() == _forward(field.grid, field.octant).tobytes()
            assert not field.coefficients.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                field.coefficients = None

    def test_a_field_built_from_its_octant_transforms_it_once(self, transform_counts):
        octant = np.random.default_rng(3).standard_normal(SMALL.octant_shape)
        field = _EvenField(SMALL, octant)
        coefficients = field.coefficients
        assert transform_counts["dct"] == 1 and field.coefficients is coefficients
        assert coefficients.tobytes() == _forward(SMALL, octant).tobytes() and not coefficients.flags.writeable

    def test_diagnostics_read_the_octant_and_match_a_plain_copy(self, solved):
        grid, nl, solved_c, solved_inf = solved
        # fresh fields on the same octants, so that no earlier read has unfolded them
        u_c, u_inf = _EvenField(grid, solved_c.octant), _EvenField(grid, solved_inf.octant)
        lazy = _diagnostics(u_c, u_inf, nl)
        assert "values" not in vars(u_c) and "values" not in vars(u_inf)
        plain = _diagnostics(nr.SpectralField(grid, u_c.values), nr.SpectralField(grid, u_inf.values), nl)
        # the solved fields themselves read the coefficients their solves handed over
        carried = _diagnostics(solved_c, solved_inf, nl)
        # the octant multiplier's output is an exactly even field too
        assert isinstance(lazy["apply_multiplier"], _EvenField)
        assert isinstance(carried["apply_multiplier"], _EvenField)
        expected = plain.pop("apply_multiplier").values
        assert np.array_equal(lazy.pop("apply_multiplier").values, expected)
        assert np.array_equal(carried.pop("apply_multiplier").values, expected)
        assert lazy == plain
        assert carried == plain


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

    @pytest.mark.parametrize("key, value", [("N", 64.7), ("n", True), ("L", True), ("L", "32")])
    def test_non_integer_header_rejected(self, tmp_path, key, value):
        import json

        header_path, _ = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap")
        header = json.loads(header_path.read_text())
        header_path.write_text(json.dumps({**header, key: value}))
        message = "length must be a real number" if key == "L" else "must be an integer"
        with pytest.raises(ValueError, match=message):
            nr.load_field(tmp_path / "snap")

    @pytest.mark.parametrize("extra", [1, 7])
    def test_partial_sample_in_binary_rejected(self, tmp_path, extra):
        _, data_path = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap")
        with data_path.open("ab") as fh:
            fh.write(b"\x01" * extra)
        with pytest.raises(ValueError, match="snap.bin: size is not a whole number of float64 samples"):
            nr.load_field(tmp_path / "snap")

    def test_sample_count_checked_before_the_grid_is_built(self, tmp_path):
        # a 256^3 grid holds about 19 MB of octant arrays, a 2048^3 one 8.6 GB: the count is checked first
        (tmp_path / "snap.json").write_text(json.dumps({"n": 3, "L": 16.0, "N": 256}))
        (tmp_path / "snap.bin").write_bytes(b"")

        def load():
            with pytest.raises(ValueError, match=r"snap\.bin: snapshot sample count does not match header"):
                nr.load_field(tmp_path / "snap")

        assert traced_peak(load) < 1_000_000

    @pytest.mark.parametrize("header", [[1, 16.0, 64], "n", 3, None])
    def test_header_that_is_not_an_object_rejected(self, tmp_path, header):
        header_path, _ = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap")
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="snap.json: header must be a JSON object"):
            nr.load_field(tmp_path / "snap")

    @pytest.mark.parametrize("key", ["n", "L", "N"])
    def test_header_without_a_key_rejected(self, tmp_path, key):
        header_path, _ = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap")
        header = json.loads(header_path.read_text())
        del header[key]
        header_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="snap.json: header must be a JSON object with keys n, L and N"):
            nr.load_field(tmp_path / "snap")

    def test_header_that_is_not_json_rejected(self, tmp_path):
        header_path, _ = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap")
        header_path.write_text("{not json")
        with pytest.raises(ValueError, match=r"snap\.json: header is not valid JSON"):
            nr.load_field(tmp_path / "snap")

    def test_non_numeric_csv_sample_rejected(self, tmp_path):
        _, data_path = nr.save_field(random_field(SMALL, np.random.default_rng(9)), tmp_path / "snap", fmt="csv")
        data_path.write_text("x\n" + data_path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match=r"snap\.csv: could not convert string 'x'"):
            nr.load_field(tmp_path / "snap")

    def test_unknown_format_rejected_before_any_write(self, tmp_path):
        with pytest.raises(ValueError, match="fmt must be"):
            nr.save_field(random_field(SMALL, np.random.default_rng(10)), tmp_path / "snap", fmt="xml")
        assert not list(tmp_path.iterdir())


def _gaussian(grid):
    return nr.SpectralField(grid, np.exp(-0.5 * grid.radius_sq()))


# every public function that works on real-space samples, and the test-side
# diagnostics lp_norm and multilinear_ratio that read them through the same
# gate, with the frequency-space field `uh` in one of its field slots; `u` is real
REAL_SPACE_CALLS = {
    "symmetrize": lambda u, uh, path: nr.symmetrize(uh),
    "recenter": lambda u, uh, path: nr.recenter(uh),
    "lp_norm": lambda u, uh, path: lp_norm(uh, 2.0),
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
    "multilinear_ratio": lambda u, uh, path: multilinear_ratio(nr.power(3), 1.0, [(u, u, uh)]),
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
            multilinear_ratio(nr.power(3), 1.0, [(u, u, v)])

    def test_guess_on_another_grid_rejected(self):
        guess = _gaussian(nr.make_grid(1, 2.0 * SMALL.length, SMALL.points))
        with pytest.raises(ValueError, match="one grid"):
            nr.solve(nr.nonrelativistic(), nr.power(3), SMALL, nr.SolverConfig(initial_guess=guess))


# every public function that reads spectral coefficients through the gate
# `grid._coefficients`, which takes real- and frequency-space fields alike
SPECTRAL_CALLS = {
    "sobolev_norm": lambda u: nr.sobolev_norm(u, 1.0),
    "inner_product": lambda u: nr.inner_product(u, u, "H1"),
    "apply_multiplier": lambda u: nr.apply_multiplier(u, nr.pseudo_relativistic(4.0)),
    "h_minus1_residual": lambda u: nr.h_minus1_residual(u, 4.0),
    "optimality_forms": lambda u: nr.optimality_forms(u, [4.0, 8.0]),
    "optimality_functional": lambda u: nr.optimality_functional(u, 4.0),
}


class TestSpectralGate:
    """Every public field function reads its fields through one of two gates:
    `_real_values` (REAL_SPACE_CALLS) or `_coefficients` (SPECTRAL_CALLS)."""

    def test_every_public_field_function_declares_its_gate(self):
        real = {key.split("-")[0] for key in REAL_SPACE_CALLS}
        assert not real & set(SPECTRAL_CALLS)
        field_functions = {
            name
            for name, obj in vars(nr).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and any("SpectralField" in str(p.annotation) for p in inspect.signature(obj).parameters.values())
        }
        assert "sobolev_norm" in field_functions and "save_field" in field_functions
        # transform checks the representation it converts from itself
        assert field_functions - {"transform"} <= real | set(SPECTRAL_CALLS)

    @pytest.mark.parametrize("name", sorted(SPECTRAL_CALLS))
    def test_frequency_space_field_gives_the_real_space_value(self, name):
        # the even real field is read on the octant, its transform on the full lattice
        u = _gaussian(SMALL)
        real, freq = SPECTRAL_CALLS[name](u), SPECTRAL_CALLS[name](nr.transform(u, "forward"))
        if name == "apply_multiplier":
            assert (real.space, freq.space) == ("real", "freq")
            real, freq = real.values, nr.transform(freq, "inverse").values
        np.testing.assert_allclose(freq, real, rtol=1e-12, atol=1e-14 * np.max(np.abs(real)))

    @pytest.mark.parametrize("even", [True, False], ids=["even", "shifted"])
    @pytest.mark.parametrize("grid", [SMALL, KERNEL_GRIDS[2]], ids=["1d", "3d"])
    def test_mixed_inner_product(self, grid, even):
        shift = 0.0 if even else 0.7
        f = nr.SpectralField(grid, np.exp(-0.5 * sum((x - shift) ** 2 for x in grid.coordinates())))
        g = _nyquist_field(grid, np.random.default_rng(60 + grid.n))
        fh, gh = nr.transform(f, "forward"), nr.transform(g, "forward")
        for weight, mult in (("L2", None), ("H1", lambda t: 1.0 + t)):
            both = nr.inner_product(fh, gh, weight)
            assert np.isclose(both, lattice_pairing(f.values, g.values, grid.length, mult), rtol=1e-13, atol=0.0)
            assert np.isclose(nr.inner_product(f, gh, weight), both, rtol=1e-13, atol=0.0)
            assert np.isclose(nr.inner_product(fh, g, weight), both, rtol=1e-13, atol=0.0)

    def test_inner_product_on_two_grids_of_one_shape_rejected(self):
        other = nr.make_grid(1, 2.0 * SMALL.length, SMALL.points)
        u, v = _gaussian(SMALL), _gaussian(other)
        uh, vh = nr.transform(u, "forward"), nr.transform(v, "forward")
        for f, g in ((u, v), (uh, vh), (u, vh), (uh, v)):
            with pytest.raises(ValueError, match="one grid"):
                nr.inner_product(f, g)
