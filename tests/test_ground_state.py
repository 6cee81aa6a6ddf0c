from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import nrlimit as nr
from conftest import random_field, traced_peak
from nrlimit.grid import _dot, _octant
from nrlimit.ground_state import (
    ANDERSON_DEPTH,
    _AndersonMixer,
    _coarse_grid,
    _octant_gaussian,
    _small_solve,
    _solve_level,
    _solve_octant,
)
from oracles import initialization_stability, lattice_multiplier, shoot_ground_state

SMALL = nr.make_grid(1, 16.0, 64)


class TestConfigValidation:
    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            nr.SolverConfig(tolerance=1e-15)
        with pytest.raises(ValueError):
            nr.SolverConfig(tolerance=1e-3)

    @pytest.mark.parametrize(
        "value", ["1e-8", None, 1e-8 + 0j, True, False, [1e-8]], ids=["str", "none", "complex", "true", "false", "list"]
    )
    def test_tolerance_is_a_real_number(self, value):
        with pytest.raises(ValueError, match="tolerance must be a real number"):
            nr.SolverConfig(tolerance=value)

    def test_tolerance_takes_numpy_reals(self):
        assert nr.SolverConfig(tolerance=np.float32(1e-6)).tolerance == np.float32(1e-6)
        assert nr.SolverConfig(tolerance=np.float64(1e-8)).tolerance == 1e-8
        assert type(nr.SolverConfig(tolerance=np.float32(1e-6)).tolerance) is float

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None], ids=["2.5", "3.0", "true", "str", "none"])
    def test_max_iterations_is_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            nr.SolverConfig(max_iterations=value)

    def test_max_iterations_positive(self):
        assert nr.SolverConfig(max_iterations=np.int64(5)).max_iterations == 5
        assert type(nr.SolverConfig(max_iterations=np.int64(5)).max_iterations) is int
        with pytest.raises(ValueError, match="max_iterations must be positive"):
            nr.SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("guess", [1.0, np.inf, np.nan, 0.0, np.ones(64)], ids=["1", "inf", "nan", "0", "array"])
    def test_initial_guess_is_a_field_or_none(self, guess):
        with pytest.raises(TypeError, match="initial_guess must be a SpectralField or None"):
            nr.SolverConfig(initial_guess=guess)

    def test_configs_compare_and_hash_with_their_guess_by_identity(self):
        guess = nr.gaussian_guess(SMALL)
        cfg = nr.SolverConfig(initial_guess=guess)
        assert cfg == nr.SolverConfig(initial_guess=guess) and hash(cfg) == hash(nr.SolverConfig(initial_guess=guess))
        assert cfg != nr.SolverConfig(initial_guess=nr.gaussian_guess(SMALL))


class TestResultIdentity:
    def test_results_compare_and_hash_without_raising(self):
        # two identical solves hold two fields, so they differ; a copy that keeps the field is equal
        first, second = (nr.solve(nr.nonrelativistic(), nr.power(3), SMALL) for _ in range(2))
        assert first.residual_history == second.residual_history
        assert first != second
        assert first == replace(first) and hash(first) == hash(replace(first))


class TestSoliton1D:
    def test_profile_and_residual(self, u_inf_1d, sech_exact):
        assert u_inf_1d.converged
        assert np.max(np.abs(u_inf_1d.field.values - sech_exact.values)) <= 1e-6
        assert u_inf_1d.residual <= 1e-10

    def test_positivity_and_evenness(self, u_inf_1d):
        vals = u_inf_1d.field.values
        assert np.all(vals > 0.0)
        sym = nr.symmetrize(u_inf_1d.field)
        assert np.max(np.abs(sym.values - vals)) <= 1e-10 * np.max(vals)

    def test_action_value(self, u_inf_1d):
        # (1/2)(16/3) - (1/4)(16/3) = 4/3 for the exact soliton
        assert np.isclose(u_inf_1d.action, 4.0 / 3.0, atol=1e-8)

    def test_reported_residual_matches_recomputation(self, u_inf_1d):
        re = nr.residual(u_inf_1d.field, nr.nonrelativistic(), nr.power(3))
        assert re == u_inf_1d.residual

    def test_fixed_point_factor_near_one(self, u_inf_1d, grid1d):
        u = u_inf_1d.field
        pu = nr.apply_multiplier(u, nr.nonrelativistic())
        nu = nr.evaluate(nr.power(3), u)
        m = nr.inner_product(pu, u) / nr.inner_product(nu, u)
        assert abs(m - 1.0) <= 2e-12


class TestPowerSolitons1D:
    """-u'' + u = u^p on the line has the ground state
    ((p+1)/2)^(1/(p-1)) sech^(2/(p-1))((p-1)x/2).  The stabilized iteration is
    the only solver, with gamma = p/(p-1), so it must converge quickly for every
    degree without a fallback."""

    @pytest.mark.parametrize("p", [4, 5, 7, 9])
    def test_exact_profile(self, grid1d, p):
        res = nr.solve(nr.nonrelativistic(), nr.power(p), grid1d)
        assert res.converged
        assert res.iterations <= 25
        x = grid1d.coordinates()[0]
        exact = ((p + 1) / 2) ** (1 / (p - 1)) / np.cosh((p - 1) * x / 2) ** (2 / (p - 1))
        assert np.max(np.abs(res.field.values - exact)) <= 1e-6

    @pytest.mark.parametrize("p", [5, 9])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_small_c_converges(self, grid1d, p, c):
        res = nr.solve(nr.pseudo_relativistic(c), nr.power(p), grid1d)
        assert res.converged
        assert res.iterations <= 30


class TestResidualFunction:
    def test_wrong_amplitude_is_far(self, sech_exact):
        doubled = nr.SpectralField(sech_exact.grid, 2.0 * sech_exact.values)
        assert nr.residual(doubled, nr.nonrelativistic(), nr.power(3)) > 0.5

    def test_zero_field_rejected(self):
        zero = nr.SpectralField(SMALL, np.zeros(SMALL.shape))
        with pytest.raises(ValueError):
            nr.residual(zero, nr.nonrelativistic(), nr.power(3))


class TestAction:
    def test_zero_field(self):
        zero = nr.SpectralField(SMALL, np.zeros(SMALL.shape))
        assert nr.action(zero, nr.nonrelativistic(), nr.power(3)) == 0.0

    def test_exact_soliton_value(self, sech_exact):
        val = nr.action(sech_exact, nr.nonrelativistic(), nr.power(3))
        assert np.isclose(val, 4.0 / 3.0, atol=1e-7)

    def test_relativistic_action_approaches_limit(self, grid1d):
        res = nr.solve(nr.pseudo_relativistic(64.0), nr.power(3), grid1d)
        assert res.converged
        assert abs(res.action - 4.0 / 3.0) <= 1e-3

    def test_quadratic_form_ordering(self):
        rng = np.random.default_rng(30)
        spec_c = nr.pseudo_relativistic(2.0)
        for _ in range(100):
            f = random_field(SMALL, rng)
            rel = nr.inner_product(nr.apply_multiplier(f, spec_c), f)
            nonrel = nr.inner_product(nr.apply_multiplier(f, nr.nonrelativistic()), f)
            assert rel <= nonrel + 1e-12 * abs(nonrel)


class TestRelativisticSolve:
    def test_unit_c_converges_with_monotone_tail(self, grid1d):
        cfg = nr.SolverConfig(tolerance=1e-10)
        res = nr.solve(nr.pseudo_relativistic(1.0), nr.power(3), grid1d, cfg)
        assert res.converged
        assert res.residual <= 1e-10
        hist = res.residual_history
        tail = hist[5:]
        assert all(b <= a for a, b in zip(tail, tail[1:]))

    def test_positive_even(self, grid1d):
        res = nr.solve(nr.pseudo_relativistic(4.0), nr.power(3), grid1d)
        vals = res.field.values
        assert np.all(vals > 0.0)
        assert np.max(np.abs(nr.symmetrize(res.field).values - vals)) <= 1e-10 * np.max(vals)


class TestTownes2D:
    def test_against_radial_shooting_oracle(self):
        amp, profile = shoot_ground_state(2, bracket=(2.0, 2.5))
        assert np.isclose(amp, 2.2062, atol=2e-4)
        grid = nr.make_grid(2, 32.0, 256)
        res = nr.solve(nr.nonrelativistic(), nr.power(3), grid, nr.SolverConfig(tolerance=1e-11))
        assert res.converged
        r = np.sqrt(grid.radius_sq())
        mask = r <= 10.0
        oracle = profile(r[mask])
        assert np.max(np.abs(res.field.values[mask] - oracle)) < 1e-4

    def test_shooting_oracle_recovers_1d_soliton(self):
        amp, profile = shoot_ground_state(1, bracket=(1.0, 2.0))
        assert np.isclose(amp, np.sqrt(2.0), atol=1e-9)
        r = np.linspace(0.1, 8.0, 50)
        assert np.max(np.abs(profile(r) - np.sqrt(2.0) / np.cosh(r))) < 1e-8


class TestHartree3D:
    def test_converged_positive_even(self, sweep_3d):
        u_inf = sweep_3d["u_inf"]
        assert u_inf.converged
        vals = u_inf.field.values
        assert np.all(vals > 0.0)
        assert np.max(np.abs(nr.symmetrize(u_inf.field).values - vals)) <= 1e-10 * np.max(vals)

    def test_reported_residual_matches_recomputation(self, sweep_3d):
        u_inf = sweep_3d["u_inf"]
        assert nr.residual(u_inf.field, nr.nonrelativistic(), nr.hartree()) == u_inf.residual


SMALL3 = nr.make_grid(3, 16.0, 32)


def _gaussian(grid, center, width=1.0):
    """exp(-|x - center|^2 / (2 width^2)), the distance taken around the periodic box."""
    d = []
    for x, c in zip(grid.coordinates(), center):
        r = x - c
        d.append(r - grid.length * np.round(r / grid.length))
    return nr.SpectralField(grid, np.exp(-sum(a * a for a in d) / (2.0 * width**2)))


class TestEvenOctant:
    """The solve runs on the octant of even fields; guesses that are off
    center or not even are recentered and symmetrized first."""

    @staticmethod
    def reference(n):
        grid = nr.make_grid(1, 32.0, 1024) if n == 1 else SMALL3
        nl = nr.power(3) if n == 1 else nr.hartree()
        return grid, nl, nr.solve(nr.nonrelativistic(), nl, grid)

    @pytest.mark.parametrize("n", [1, 3])
    def test_corner_peaked_even_guess_converges_to_the_centred_state(self, n):
        grid, nl, centred = self.reference(n)
        corner = (-0.5 * grid.length,) * n  # index 0 on every axis
        guess = _gaussian(grid, corner)
        assert np.array_equal(nr.symmetrize(guess).values, guess.values)
        res = nr.solve(nr.nonrelativistic(), nl, grid, nr.SolverConfig(initial_guess=guess))
        assert res.converged
        assert np.max(np.abs(res.field.values - centred.field.values)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    def test_core_recentres_a_corner_peaked_start_octant(self, n, monkeypatch):
        # straight into the octant core, past `solve`'s up-front recentring: the
        # argmax test on the samples of the mixed coefficients has to fire
        grid, nl, centred = self.reference(n)
        start = _octant(grid, _gaussian(grid, (-0.5 * grid.length,) * n).values)
        assert np.argmax(start) == 0
        moves = []
        core_recentre = nr.ground_state._recentered_octant

        def recentre(g, v, work):
            moved = core_recentre(g, v, work)
            moves.append(moved is not v)
            return moved

        monkeypatch.setattr(nr.ground_state, "_recentered_octant", recentre)
        res = _solve_octant(nr.nonrelativistic(), nl, grid, start, nr.SolverConfig())
        assert any(moves)
        assert res.converged
        assert np.max(np.abs(res.field.octant - _octant(grid, centred.field.values))) <= 1e-10

    @pytest.mark.parametrize("n", [1, 3])
    def test_shifted_non_even_guess_converges_to_the_centred_state(self, n):
        grid, nl, centred = self.reference(n)
        guess = _gaussian(grid, (1.3, -0.6, 0.45)[:n], width=1.2)
        res = nr.solve(nr.nonrelativistic(), nl, grid, nr.SolverConfig(initial_guess=guess))
        assert res.converged
        assert np.max(np.abs(res.field.values - centred.field.values)) <= 1e-10

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (1.3, -0.6, 0.45)], ids=["even", "shifted"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_residual_and_action_match_a_full_lattice_reference(self, n, center):
        # the even field is evaluated on its octant, the shifted one on the full lattice; P(D)u by numpy.fft
        grid = nr.make_grid(1, 16.0, 64) if n == 1 else nr.make_grid(3, 8.0, 16)
        nl = nr.power(3) if n == 1 else nr.hartree()
        op = nr.pseudo_relativistic(2.0)
        u = _gaussian(grid, center[:n])
        pu = lattice_multiplier(u.values, grid.length, lambda t: nr.symbol(op, t))
        nu = nr.evaluate(nl, u).values
        r = pu - nu
        expected_residual = np.sqrt(np.sum(r * r) / np.sum(u.values * u.values))
        pairing = grid.cell_volume * np.sum(nu * u.values)
        expected_action = 0.5 * grid.cell_volume * np.sum(pu * u.values) - pairing / nl.variational_exponent
        assert np.isclose(nr.residual(u, op, nl), expected_residual, rtol=1e-12, atol=0.0)
        assert np.isclose(nr.action(u, op, nl), expected_action, rtol=1e-12, atol=0.0)


class TestTransformCount:
    """A solve runs on the octant, where every whole-field transform is one
    `grid._dct` call (matrix products on short axes, per-axis rfft on long
    ones); no full-lattice (complex) or rfftn/irfftn transform runs.  The
    mixer mixes coefficients, so each stabilized iteration costs the forward
    transform of N(u) (plus the Coulomb pair in the Hartree case) and one
    inverse transform of the mixed coefficients to the next samples: 4
    Hartree, 2 power.  Outside the iterations a level takes k more: the
    start transform, the final iterate's N(u) (3 Hartree, 1 power) and one
    transform per confirm of a mixed residual, one in each level below, so
    k = 5 Hartree, 3 power; the final action reuses the confirmed
    coefficients.  A two-level solve adds the coarse level's iterations and
    k, 2 for the prolongation (the coarse forward and the fine inverse), and
    the start rule's residual: nothing where the fine loop starts from the
    prolongation (it is that loop's first pass), the start transform and
    N(u) (4 Hartree, 2 power) where the rule rejects it."""

    HARTREE, POWER = (4, 5, 4), (2, 3, 2)  # per iteration, per level, a rejected start's residual

    @staticmethod
    def octant_transforms(counts) -> int:
        """Whole-field kernel transforms, after checking that nothing else ran."""
        assert counts["complex"] == 0
        assert counts["rfftn"] == counts["irfftn"] == counts["irfft"] == 0
        return counts["dct"]

    @staticmethod
    def accounted(res, costs) -> int:
        """The transforms of a solve by the accounting above, from the counts its result reports."""
        per_iteration, per_level, rejected = costs
        fine = per_iteration * res.iterations + per_level
        if res.coarse_iterations == 0:
            return fine
        return per_iteration * res.coarse_iterations + per_level + 2 + (0 if res.coarse_start else rejected) + fine

    def test_hartree_3d(self, transform_counts):
        # 32^3 takes one level
        grid = nr.make_grid(3, 16.0, 32)
        res = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
        assert res.converged
        assert res.coarse_iterations == 0 and not res.coarse_start
        assert self.octant_transforms(transform_counts) <= self.accounted(res, self.HARTREE)

    def test_hartree_3d_with_a_rejected_coarse_start(self, transform_counts, monkeypatch):
        # given a 16^3 level, the rule rejects its solution's prolongation on 32^3
        grid = nr.make_grid(3, 16.0, 32)
        monkeypatch.setattr(nr.ground_state, "_coarse_grid", lambda g: nr.make_grid(3, 16.0, 16))
        res = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
        assert res.converged
        assert res.coarse_iterations > 0 and not res.coarse_start
        assert self.octant_transforms(transform_counts) <= self.accounted(res, self.HARTREE)

    def test_hartree_3d_from_the_coarse_start(self, transform_counts, grid3d):
        res = nr.solve(nr.nonrelativistic(), nr.hartree(), grid3d)
        assert res.converged
        assert res.coarse_iterations > 0 and res.coarse_start
        assert self.octant_transforms(transform_counts) <= self.accounted(res, self.HARTREE)

    def test_power_2d(self, transform_counts):
        # 2D takes one level
        res = nr.solve(nr.nonrelativistic(), nr.power(3), nr.make_grid(2, 8.0, 128))
        assert res.converged
        assert res.coarse_iterations == 0 and not res.coarse_start
        assert self.octant_transforms(transform_counts) <= self.accounted(res, self.POWER)

    def test_cubic_1d(self, transform_counts, grid1d):
        res = nr.solve(nr.pseudo_relativistic(4.0), nr.power(3), grid1d)
        assert res.converged
        assert res.coarse_iterations == 0
        assert self.octant_transforms(transform_counts) <= 2 * res.iterations + 3

    def test_round_off_floor_box_confirms_on_the_samples(self, transform_counts):
        # L = 64, N = 2048 has the default dx, and the residual floor of its
        # samples sits just under the default tolerance: mixed residuals meet
        # it long before the samples' own does, so most iterations end in a
        # confirm.  The sample-mixing iteration took 166 iterations of 3
        # transforms here, plus 2
        grid = nr.make_grid(1, 64.0, 2048)
        op, nl = nr.nonrelativistic(), nr.power(3)
        res = nr.solve(op, nl, grid)
        transforms = self.octant_transforms(transform_counts)
        assert res.converged
        assert nr.residual(res.field, op, nl) == res.residual
        assert transforms <= 3 * 166 + 2

    # The gap takes one matvec per Lanczos step: two B^{-1/2} smoothings
    # (4 transforms) and, for Hartree, one Coulomb convolution (2 more), after
    # 2 (Hartree 4) set-up transforms: 4 + 6*14 = 88 below in 3D, 2 + 4*11 = 46
    # in 1D.  The bounds leave room for a few more steps.
    def test_gap_eigensolve_3d(self, transform_counts):
        grid = nr.make_grid(3, 8.0, 16)
        u = nr.SpectralField(grid, np.exp(-0.5 * grid.radius_sq()))
        nr.nondegeneracy_gap(u, nr.hartree())
        assert 0 < self.octant_transforms(transform_counts) <= 100

    def test_gap_eigensolve_1d(self, transform_counts, grid1d):
        u = nr.SpectralField(grid1d, np.exp(-0.5 * grid1d.radius_sq()))
        nr.nondegeneracy_gap(u, nr.power(3))
        assert 0 < self.octant_transforms(transform_counts) <= 60


class TestTwoLevel:
    """Where there is an N/2 grid (n = 3, N/2 even and >= 32), `_solve_octant`
    solves there first and starts the fine loop from the prolongation of that
    solution if its fine residual is at most sqrt(tolerance).  Otherwise, and
    wherever the coarse solve fails, the fine loop is the one-level loop
    `_solve_level` from the given start, bit for bit."""

    CFG = nr.SolverConfig()

    @staticmethod
    def assert_identical(two_level, one_level):
        assert two_level.residual_history == one_level.residual_history
        assert two_level.iterations == one_level.iterations
        assert two_level.action == one_level.action
        assert np.array_equal(two_level.field.octant, one_level.field.octant)

    @pytest.mark.parametrize("op", [nr.nonrelativistic(), nr.pseudo_relativistic(32.0)], ids=["c=inf", "c=32"])
    def test_64_cube_starts_from_the_coarse_solution(self, grid3d, op):
        # the 32^3 solution's prolongation has a fine residual of about 7e-9; one level takes 18 iterations
        nl = nr.hartree()
        res = nr.solve(op, nl, grid3d)
        assert res.converged
        assert res.coarse_start and res.coarse_iterations > 0
        assert res.iterations <= 5
        assert nr.residual(res.field, op, nl) == res.residual
        one_level = _solve_level(op, nl, grid3d, _octant_gaussian(grid3d), self.CFG)
        assert np.max(np.abs(res.field.octant - one_level.field.octant)) <= 1e-12

    def test_a_converged_guess_is_replaced_by_the_prolongation(self, grid3d):
        # the guess's own residual is not checked: the solve runs both levels
        # from it and returns a few fine iterations from the prolongation
        op, nl = nr.nonrelativistic(), nr.hartree()
        seed = nr.solve(op, nl, grid3d)
        res = nr.solve(op, nl, grid3d, nr.SolverConfig(initial_guess=seed.field))
        assert res.converged
        assert res.coarse_start and res.coarse_iterations > 0
        assert 0 < res.iterations <= 5
        assert np.max(np.abs(res.field.values - seed.field.values)) <= 1e-12

    def test_the_rule_rejects_an_under_resolved_coarse_start(self, monkeypatch):
        # given a 16^3 level on 32^3, the prolongation's residual is near 1e-3, above sqrt(1e-12)
        op, nl, start = nr.nonrelativistic(), nr.hartree(), _octant_gaussian(SMALL3)
        start.setflags(write=False)
        monkeypatch.setattr(nr.ground_state, "_coarse_grid", lambda g: nr.make_grid(3, 16.0, 16))
        res = _solve_octant(op, nl, SMALL3, start, self.CFG)
        assert res.coarse_iterations > 0 and not res.coarse_start
        self.assert_identical(res, _solve_level(op, nl, SMALL3, start.copy(), self.CFG))

    def test_a_rejected_prolongation_falls_back_to_the_depth_3_solve(self, grid3d, monkeypatch):
        # a prolongation far from the solution fails the rule on its first
        # residual, before its depth-1 mixer mixes; the fine loop is then the
        # one-level depth-3 solve from the start, bit for bit
        op, nl, start = nr.nonrelativistic(), nr.hartree(), _octant_gaussian(grid3d)
        start.setflags(write=False)
        one_level = _solve_level(op, nl, grid3d, start.copy(), self.CFG)
        depths = []

        def recorded(*mixer_args):
            mixer = _AndersonMixer(*mixer_args)
            depths.append(mixer.depth)
            return mixer

        monkeypatch.setattr(nr.ground_state, "_prolonged", lambda coarse, grid: 0.5 * _octant_gaussian(grid))
        monkeypatch.setattr(nr.ground_state, "_AndersonMixer", recorded)
        res = _solve_octant(op, nl, grid3d, start, self.CFG)
        assert res.coarse_iterations > 0 and not res.coarse_start
        assert depths == [ANDERSON_DEPTH, 1, ANDERSON_DEPTH]
        self.assert_identical(res, one_level)

    @pytest.mark.parametrize("failure", ["raises", "unconverged"])
    def test_a_failed_coarse_solve_falls_back(self, grid3d, monkeypatch, failure):
        op, nl, start = nr.nonrelativistic(), nr.hartree(), _octant_gaussian(grid3d)
        start.setflags(write=False)  # _solve_octant copies its start; _solve_level writes the one it is given
        one_level = _solve_level(op, nl, grid3d, start.copy(), self.CFG)
        level = nr.ground_state._solve_level

        def failing(op, nl, grid, u, cfg, **kwargs):
            if grid == grid3d:
                return level(op, nl, grid, u, cfg, **kwargs)
            if failure == "raises":
                raise nr.GroundStateError("coarse failure")
            return replace(level(op, nl, grid, u, cfg), converged=False)

        monkeypatch.setattr(nr.ground_state, "_solve_level", failing)
        res = _solve_octant(op, nl, grid3d, start, self.CFG)
        assert not res.coarse_start
        assert (res.coarse_iterations == 0) == (failure == "raises")
        self.assert_identical(res, one_level)

    @pytest.mark.parametrize("coarse", ["accepted", "unconverged"])
    def test_no_start_is_the_default_gaussian_on_both_paths(self, grid3d, monkeypatch, coarse):
        # u = None builds the coarse level's Gaussian on the coarse grid, and the fine one for the fallback
        op, nl = nr.nonrelativistic(), nr.hartree()
        if coarse == "unconverged":
            level = nr.ground_state._solve_level

            def failing(op, nl, grid, u, cfg, **kwargs):
                res = level(op, nl, grid, u, cfg, **kwargs)
                return res if grid == grid3d else replace(res, converged=False)

            monkeypatch.setattr(nr.ground_state, "_solve_level", failing)
        given = _solve_octant(op, nl, grid3d, _octant_gaussian(grid3d), self.CFG)
        res = _solve_octant(op, nl, grid3d, None, self.CFG)
        assert (res.coarse_start, res.coarse_iterations) == (given.coarse_start, given.coarse_iterations)
        assert res.coarse_start == (coarse == "accepted")
        self.assert_identical(res, given)

    def test_no_start_builds_one_gaussian_on_the_coarse_grid(self, grid3d, monkeypatch):
        # with the prolongation accepted no fine Gaussian is built; the coarse one is the fine one's every-other sample
        gaussian, grids = nr.ground_state._octant_gaussian, []

        def recorded(grid):
            grids.append(grid)
            return gaussian(grid)

        monkeypatch.setattr(nr.ground_state, "_octant_gaussian", recorded)
        res = _solve_octant(nr.nonrelativistic(), nr.hartree(), grid3d, None, self.CFG)
        assert res.coarse_start
        assert grids == [_coarse_grid(grid3d)] and grids[0].points == 32
        assert np.array_equal(gaussian(grids[0]), gaussian(grid3d)[::2, ::2, ::2])

    @pytest.mark.parametrize(
        "grid",
        [nr.make_grid(1, 32.0, 1024), nr.make_grid(2, 32.0, 256), SMALL3],
        ids=["1d", "2d", "32^3"],
    )
    def test_one_level_grids_build_no_coarse_grid(self, grid, monkeypatch):
        # the finite-c rule admits no 2D nonlinearity, so 2D solves at c = inf
        op = nr.nonrelativistic() if grid.n == 2 else nr.pseudo_relativistic(8.0)
        nl = nr.hartree() if grid.n == 3 else nr.power(3)
        start = _octant_gaussian(grid)
        start.setflags(write=False)
        one_level = _solve_level(op, nl, grid, start.copy(), self.CFG)
        level, grids = nr.ground_state._solve_level, []

        def recorded(op, nl, grid, *args, **kwargs):
            grids.append(grid)
            return level(op, nl, grid, *args, **kwargs)

        monkeypatch.setattr(nr.ground_state, "_solve_level", recorded)
        res = _solve_octant(op, nl, grid, start, self.CFG)
        assert _coarse_grid(grid) is None
        assert grids == [grid]
        assert res.coarse_iterations == 0 and not res.coarse_start
        self.assert_identical(res, one_level)

    @pytest.mark.parametrize(
        "n, points, coarse",
        [
            (1, 1024, None),
            (2, 64, None),
            (2, 256, None),
            (3, 64, 32),
            (3, 128, 64),
            (3, 68, 34),
            (3, 66, None),
            (3, 60, None),
            (3, 32, None),
        ],
    )
    def test_which_grids_have_a_coarse_level(self, n, points, coarse):
        grid = nr.make_grid(n, 16.0, points)
        expected = None if coarse is None else nr.make_grid(n, 16.0, coarse)
        assert _coarse_grid(grid) == expected


class TestAndersonAcceleration:
    """The Anderson-mixed iteration needs a fraction of the plain stabilized
    iteration's count: plain Petviashvili takes 85 iterations on the 3D
    Hartree problem below and 37-41 on the 1D cubic points."""

    def test_hartree_3d_iterations(self):
        grid = nr.make_grid(3, 16.0, 32)
        res = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
        assert res.converged
        assert res.iterations <= 25

    @pytest.mark.parametrize("c", [4.0, 8.0, 16.0, 32.0, 64.0])
    def test_cubic_1d_iterations(self, grid1d, c):
        res = nr.solve(nr.pseudo_relativistic(c), nr.power(3), grid1d)
        assert res.converged
        assert res.iterations <= 20

    def test_mixing_solves_a_linear_map_in_dimension_plus_one_steps(self):
        # On an affine map in R^3, depth-3 type-II mixing is GMRES in disguise:
        # the fourth mixed iterate is the fixed point.
        rng = np.random.default_rng(7)
        a = 0.4 * rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        fixed = np.linalg.solve(np.eye(3) - a, b)
        mixer = _AndersonMixer((3,), SMALL, (np.empty(3), np.empty(3)))  # off the octant: the plain dot product
        u = np.zeros(3)
        for _ in range(4):
            mixer.mix(u, a @ u + b, out=u)
        assert np.allclose(u, fixed, rtol=0.0, atol=1e-12)

    def test_singular_system_takes_the_plain_step_and_drops_history(self):
        mixer = _AndersonMixer((3,), SMALL, (np.empty(3), np.empty(3)))
        u, g = np.zeros(3), np.ones(3)
        mixer.mix(u, g.copy(), out=np.empty(3))
        assert np.array_equal(mixer.mix(u, g.copy(), out=np.empty(3)), g)
        assert mixer.columns == 0

    def test_parked_history_equals_the_two_buffer_mixer_bit_for_bit(self):
        # 12 steps of a nonlinear map: the ring fills at step 3 and wraps; step
        # 8 repeats step 7's u and G(u), a zero difference column, so the Gram
        # system is singular and both restart; step 10 restarts them as a
        # recentring does.  Images alternate between two buffers, as
        # _TwoBufferMixer needs and the solver gave it.  The reference weights
        # each new difference column once, the mixer each product: the
        # multiplicities are powers of two, so the bits agree
        rng = np.random.default_rng(17)
        grid = nr.make_grid(2, 16.0, 16)
        shape, weight = grid.octant_shape, grid.octant_weight
        a, b = 0.15 * rng.standard_normal((weight.size, weight.size)), rng.standard_normal(weight.size)

        def image_of(u):
            return (np.tanh(a @ u.ravel()) + b).reshape(shape)

        mixer = _AndersonMixer(shape, grid, (np.empty(shape), np.empty(shape)))
        reference = _TwoBufferMixer(shape, weight, (np.empty(shape), np.empty(shape)))
        u, u_ref, images = np.zeros(shape), np.zeros(shape), (np.empty(shape), np.empty(shape))
        columns = [0, 1, 2, 3, 3, 3, 3, 3, 0, 1, 0, 1]
        for step in range(12):
            if step == 8:
                u[...] = u_ref[...] = last_u
            if step == 10:
                mixer.restart()
                reference.restart()
            last_u = u.copy()
            g = image_of(u)
            image = images[step % 2]
            np.copyto(image, g)
            mixer.mix(u, g, out=u)
            reference.mix(u_ref, image, out=u_ref)
            assert u.tobytes() == u_ref.tobytes(), step
            assert mixer.columns == reference.columns == columns[step]


class _TwoBufferMixer:
    """The Anderson mixer as it was before the parked history, kept as the reference for `_AndersonMixer`.

    It keeps f_prev in one of two arrays of its own and g_prev by reference
    to the caller's image, so the caller alternates two image buffers.
    """

    def __init__(self, shape, weight, scratch):
        m = ANDERSON_DEPTH
        self.weight = weight
        self.df = np.empty((m, *shape))
        self.dg = np.empty((m, *shape))
        self.gram = np.empty((m, m))
        self.proj = np.zeros(m)
        self.f_arrays = (np.empty(shape), np.empty(shape))
        self.weighted, self.product = scratch
        self.restart()

    def restart(self):
        self.f_prev = self.g_prev = None
        self.columns = self.slot = 0

    def mix(self, u, g, out):
        f = np.subtract(g, u, out=self.f_arrays[self.f_prev is self.f_arrays[0]])
        f_prev, g_prev = self.f_prev, self.g_prev
        self.f_prev, self.g_prev = f, g
        if f_prev is None:
            np.copyto(out, g)
            return out
        s = self.slot
        np.subtract(f, f_prev, out=self.df[s])
        np.subtract(g, g_prev, out=self.dg[s])
        self.slot = (s + 1) % ANDERSON_DEPTH
        self.columns = k = min(self.columns + 1, ANDERSON_DEPTH)
        weighted = np.multiply(self.df[s], self.weight, out=self.weighted)
        for j in range(k):
            self.gram[s, j] = self.gram[j, s] = _dot(weighted, self.df[j], self.product)
        self.proj[:k] += self.gram[:k, s]
        self.proj[s] = _dot(weighted, f, self.product)
        alpha = _small_solve(self.gram[:k, :k].tolist(), self.proj[:k].tolist())
        if alpha is None or not all(map(math.isfinite, alpha)):
            self.columns = self.slot = 0
            np.copyto(out, g)
            return out
        u_next = np.multiply(self.dg[0], -alpha[0], out=out)
        u_next += g
        for a, d in zip(alpha[1:], self.dg[1:k]):
            u_next -= np.multiply(d, a, out=self.product)
        return u_next


class TestSmallSolve:
    """The mixer's hand Gram solve against LAPACK (np.linalg.solve) on 1 x 1 to 3 x 3 systems."""

    @staticmethod
    def solve(a, b):
        return _small_solve(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spd_gram_systems(self, k):
        rng = np.random.default_rng(60 + k)
        for _ in range(200):
            cols = rng.standard_normal((5, k))
            gram, rhs = cols.T @ cols, rng.standard_normal(k)
            expected = np.linalg.solve(gram, rhs)
            assert np.allclose(self.solve(gram, rhs), expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_ill_conditioned_gram_systems_are_backward_stable(self, k):
        # nearly parallel difference columns, as the mixer meets them near convergence
        rng = np.random.default_rng(70 + k)
        for scale in (1e-4, 1e-6, 1e-8):
            base = rng.standard_normal(6)
            cols = base[:, None] + scale * rng.standard_normal((6, k))
            gram, rhs = cols.T @ cols, rng.standard_normal(k)
            x = np.array(self.solve(gram, rhs))
            expected = np.linalg.solve(gram, rhs)
            eps = np.finfo(float).eps
            assert np.linalg.norm(gram @ x - rhs) <= 50 * eps * np.linalg.norm(gram) * np.linalg.norm(x)
            assert np.linalg.norm(x - expected) <= 50 * eps * np.linalg.cond(gram) * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "gram",
        [
            [[0.0]],
            [[1.0, 2.0], [2.0, 4.0]],
            [[0.0, 0.0], [0.0, 3.0]],
            [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0], [2.0, 2.0, 5.0]],
        ],
        ids=["zero", "rank-one", "zero-column", "repeated-row"],
    )
    def test_exactly_singular_systems_give_none_where_lapack_raises(self, gram):
        rhs = np.ones(len(gram))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array(gram), rhs)
        assert self.solve(gram, rhs) is None

    def test_nan_entries_give_a_nan_solution_as_in_lapack(self):
        for gram, rhs in (([[1.0, np.nan], [np.nan, 2.0]], [1.0, 1.0]), ([[1.0, 0.0], [0.0, 2.0]], [np.nan, 1.0])):
            assert np.isnan(np.linalg.solve(gram, rhs)).any()
            assert np.isnan(self.solve(gram, rhs)).any()


class TestMemory:
    """A warm 64^3 Hartree solve iterates in arrays allocated once per level:
    the fine level, started from the accepted prolongation, holds eight 33^3
    octants, 2.3 MB, and a dot's 67 kB cast buffer for the one-byte
    multiplicities: its peak of 2.45 MB (nine and 2.67 MB with a separate
    image buffer; thirteen and 3.82 MB with a depth-3 mixer's ring of six
    besides; seventeen and 4.97 MB when the mixer kept
    f_prev and g_prev in arrays of its own and the level copied its start;
    the per-step temporaries before those peaked at 5.5 MB).  Its result's
    field keeps the octant: the first read of its values keeps the one
    full-grid array the unfolding writes (2.1 MB; a copy of it peaked at
    4.2 MB)."""

    @pytest.fixture(scope="class")
    def problem(self):
        grid = nr.make_grid(3, 16.0, 64)
        args = (nr.nonrelativistic(), nr.hartree(), grid, _octant_gaussian(grid), nr.SolverConfig())
        _solve_octant(*args)  # caches the DCT-I matrices and the Coulomb symbol
        return grid, args

    def test_solve_peak(self, problem):
        _, args = problem
        # 2.45e6 measured (2.67e6 with the image buffer); the bound leaves half an octant (0.14 MB) of headroom
        assert traced_peak(lambda: _solve_octant(*args)) <= 2.59e6

    def test_default_start_is_not_held_by_the_fine_level(self, problem):
        grid, (op, nl, *_) = problem
        # as low as a solve from a start allocated outside the trace: 4.11e6 when solve kept the Gaussian alive
        assert traced_peak(lambda: nr.solve(op, nl, grid)) <= 2.59e6

    def test_accepted_fine_level_keeps_a_two_octant_ring(self, problem, monkeypatch):
        grid, args = problem
        mixers = []

        def recorded(*mixer_args):
            mixers.append(_AndersonMixer(*mixer_args))
            return mixers[-1]

        monkeypatch.setattr(nr.ground_state, "_AndersonMixer", recorded)
        assert _solve_octant(*args).coarse_start
        coarse, fine = mixers
        assert coarse.df.shape == (ANDERSON_DEPTH, *_coarse_grid(grid).octant_shape)
        assert fine.df.shape == fine.dg.shape == (1, *grid.octant_shape)  # one difference pair: two octants

    def test_result_keeps_the_unfolded_array(self, problem):
        grid, args = problem
        field = _solve_octant(*args).field
        reads = []
        assert traced_peak(lambda: reads.append(field.values)) <= 2.2e6
        values = reads[0]
        assert not values.flags.writeable
        assert field.values is values
        assert np.array_equal(_octant(grid, values), field.octant)


class TestFailureModes:
    def test_zero_initial_guess_collapses(self):
        zero = nr.SpectralField(SMALL, np.zeros(SMALL.shape))
        cfg = nr.SolverConfig(initial_guess=zero)
        with pytest.raises(nr.GroundStateError):
            nr.solve(nr.nonrelativistic(), nr.power(3), SMALL, cfg)

    def test_non_finite_guess_raises_at_once(self, grid1d):
        vals = nr.gaussian_guess(grid1d).values.copy()
        vals[grid1d.points // 4] = np.nan
        cfg = nr.SolverConfig(initial_guess=nr.SpectralField(grid1d, vals))
        with pytest.raises(nr.GroundStateError, match="non-finite iterate at iteration 0"):
            nr.solve(nr.nonrelativistic(), nr.power(3), grid1d, cfg)

    @pytest.mark.parametrize("max_iterations, on_floor", [(3, False), (13, True)], ids=["3", "13"])
    def test_nonconvergence_returns_last_iterate(self, grid1d, max_iterations, on_floor):
        # at 3 iterations the residual still contracts; at 13 it sits on its
        # round-off floor, where the last iterate is not the one of smallest
        # residual (the default converges at 17)
        cfg = nr.SolverConfig(max_iterations=max_iterations)
        op, nl = nr.nonrelativistic(), nr.power(3)
        res = nr.solve(op, nl, grid1d, cfg)
        assert not res.converged
        if on_floor:
            assert res.residual > min(res.residual_history)
        assert res.iterations == max_iterations
        assert len(res.residual_history) == max_iterations + 1
        assert res.residual == res.residual_history[-1]
        assert nr.residual(res.field, op, nl) == res.residual
        assert res.action == nr.action(res.field, op, nl)

    def test_incompatible_problem_rejected(self, grid1d):
        with pytest.raises(ValueError):
            nr.solve(nr.nonrelativistic(), nr.hartree(), grid1d)


class TestGridRobustness:
    def test_norm_stable_under_refinement_and_box_doubling(self, u_inf_1d):
        base = nr.sobolev_norm(u_inf_1d.field, 1.0)
        cfg = nr.SolverConfig(tolerance=1e-10)
        fine = nr.solve(nr.nonrelativistic(), nr.power(3), nr.make_grid(1, 32.0, 2048), cfg)
        wide = nr.solve(nr.nonrelativistic(), nr.power(3), nr.make_grid(1, 64.0, 2048), cfg)
        assert fine.converged and wide.converged
        assert abs(nr.sobolev_norm(fine.field, 1.0) - base) <= 1e-8
        assert abs(nr.sobolev_norm(wide.field, 1.0) - base) <= 1e-8


class TestDefaultGuess:
    """The default start, the width-1 Gaussian, is sampled on the octant
    directly; where the full-grid Gaussian is exactly even (dx a power of two)
    the solve is the one started from `gaussian_guess(grid)`, bit for bit."""

    @pytest.mark.parametrize("grid", [nr.make_grid(1, 16.0, 64), nr.make_grid(3, 16.0, 32)], ids=["1d", "3d"])
    def test_octant_gaussian_is_the_octant_of_gaussian_guess(self, grid):
        octant = _octant_gaussian(grid)
        assert np.array_equal(octant, _octant(grid, nr.gaussian_guess(grid).values))
        assert np.argmax(octant) == octant.size - 1

    def test_default_and_field_guess_solve_identically(self):
        grid = nr.make_grid(3, 16.0, 32)
        by_default = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
        guess = nr.SolverConfig(initial_guess=nr.gaussian_guess(grid))
        by_field = nr.solve(nr.nonrelativistic(), nr.hartree(), grid, guess)
        assert by_default.residual_history == by_field.residual_history
        assert np.array_equal(by_default.field.values, by_field.field.values)
        assert by_default.action == by_field.action


class TestGaussianGuess:
    @pytest.mark.parametrize("width", [0.0, -1.0, float("inf"), float("nan"), True, "1"])
    def test_width_must_be_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="width must be"):
            nr.gaussian_guess(nr.make_grid(1, 16.0, 64), width)

    def test_width_sets_the_decay(self):
        grid = nr.make_grid(1, 16.0, 64)
        x = grid.coordinates()[0]
        assert np.array_equal(nr.gaussian_guess(grid, 2).values, np.exp(-x * x / 8.0))


class TestInitializationStability:
    def test_perturbed_starts_agree(self, grid1d):
        cfg = nr.SolverConfig(tolerance=1e-12)
        worst = initialization_stability(nr.nonrelativistic(), nr.power(3), grid1d, cfg)
        assert worst <= 10.0 * cfg.tolerance
