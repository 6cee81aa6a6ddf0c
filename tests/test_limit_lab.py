from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh, eigh_tridiagonal, null_space, orth

import nrlimit as nr
from conftest import stand_in_reference, traced_peak
from nrlimit.grid import _forward, _inverse, _kernel_coefficients, _unfold
from nrlimit.limit_lab import ConvergenceRecord, _lanczos_smallest, _smallest_ritz_pair
from nrlimit.nonlinearity import _derivative
from oracles import dense_gap_fd, lattice_pairing, real_space_identity_residual

SMALL = nr.make_grid(1, 16.0, 64)
SMALL3 = nr.make_grid(3, 8.0, 16)


def synthetic_records(c_values, norm_fn):
    out = []
    for c in c_values:
        n = norm_fn(c)
        out.append(
            ConvergenceRecord(
                c=float(c),
                diff_norms={1.0: n},
                h_minus1_residual=0.0,
                lam=0.0,
                v_norm_h1=0.0,
                action_c=0.0,
                sup_norms={1.0: 1.0},
            )
        )
    return out


class TestSweep:
    def test_identical_fields_give_zero_row(self, u_inf_1d):
        rec = nr.convergence_record(u_inf_1d.field, u_inf_1d.field, 1.0e9, [0.5, 1.0, 2.0])
        assert all(v == 0.0 for v in rec.diff_norms.values())
        assert rec.lam == 0.0
        assert rec.v_norm_h1 == 0.0

    def test_norm_tables_are_read_only(self, sweep_1d):
        rec = sweep_1d["records"][0]
        for table in (rec.diff_norms, rec.sup_norms):
            with pytest.raises(TypeError):
                table[1.0] = 99.0
            with pytest.raises(TypeError):
                del table[1.0]

    def test_projection_pythagoras(self, sweep_1d):
        u_inf = sweep_1d["u_inf"].field
        ref_sq = lattice_pairing(u_inf.values, u_inf.values, u_inf.grid.length, lambda t: 1.0 + t)
        for rec in sweep_1d["records"]:
            w_sq = rec.diff_norms[1.0] ** 2
            gap = abs(w_sq - rec.lam**2 * ref_sq - rec.v_norm_h1**2)
            assert gap <= 1e-8 * w_sq

    def test_halving_per_doubling(self, sweep_1d):
        records = sweep_1d["records"]
        norms = [r.diff_norms[1.0] for r in records]
        for a, b in zip(norms, norms[1:]):
            assert 3.6 <= a / b <= 4.4

    def test_diff_norms_monotone_in_order(self, sweep_1d):
        for rec in sweep_1d["records"]:
            ordered = [rec.diff_norms[s] for s in (0.5, 1.0, 2.0, 3.0, 4.0)]
            assert all(x <= y for x, y in zip(ordered, ordered[1:]))

    def test_lambda_smallness(self, sweep_1d):
        ratios = [abs(r.lam) / (r.diff_norms[1.0] ** 2 + 1.0 / r.c**2) for r in sweep_1d["records"]]
        assert max(ratios) <= 1.0
        assert max(ratios) / min(ratios) <= 2.0

    def test_validation(self, u_inf_1d):
        with pytest.raises(ValueError):
            nr.sweep([8.0, 4.0], [1.0], nr.power(3), u_inf=u_inf_1d)
        with pytest.raises(ValueError):
            nr.sweep([0.5], [1.0], nr.power(3), u_inf=u_inf_1d)
        with pytest.raises(ValueError):
            nr.sweep([], [1.0], nr.power(3), u_inf=u_inf_1d)

    @pytest.mark.parametrize("c_values", [[4.0, 4.0, 4.0, 4.0], [4.0, 8.0, 8.0, 16.0]])
    def test_repeated_c_values_rejected_before_any_solve(self, monkeypatch, c_values):
        monkeypatch.setattr(nr.limit_lab, "solve", TestSweepReference.no_solve)
        with pytest.raises(ValueError, match="strictly ascending"):
            nr.sweep(c_values, [1.0], nr.power(3), u_inf=stand_in_reference(SMALL))

    def test_nonconvergence_aborts_with_partial_report(self, u_inf_1d):
        starving = nr.SolverConfig(max_iterations=5)
        with pytest.raises(nr.SweepError) as info:
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), u_inf=u_inf_1d, cfg=starving)
        assert info.value.records == []
        assert "4.0" in str(info.value)

    def test_partial_records_for_mixed_convergence(self, grid1d, u_inf_1d):
        # Cap the solver at the faster point's count: that point converges,
        # the other does not, whichever of the two it is.  Sweep points start
        # from the reference, so the counts are those of seeded solves.
        seeded = nr.SolverConfig(initial_guess=u_inf_1d.field)
        counts = {c: nr.solve(nr.pseudo_relativistic(c), nr.power(3), grid1d, seeded).iterations for c in (4.0, 8.0)}
        if counts[4.0] == counts[8.0]:
            pytest.skip("iteration counts do not separate the two points")
        fast, slow = sorted(counts, key=counts.get)
        cfg = nr.SolverConfig(max_iterations=counts[fast])
        with pytest.raises(nr.SweepError) as info:
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), u_inf=u_inf_1d, cfg=cfg)
        assert [r.c for r in info.value.records] == [fast]
        assert str(slow) in str(info.value)
        assert str(fast) not in str(info.value)

    def test_a_point_that_raises_is_recorded_as_failed(self, monkeypatch, u_inf_1d):
        # a GroundStateError at one c costs that point alone: the error names it and its reason, and
        # carries the records of the points that converged, before and after it
        core = nr.limit_lab.solve

        def failing(op, *args):
            if op.c == 8.0:
                raise nr.GroundStateError("non-finite residual at iteration 2")
            return core(op, *args)

        monkeypatch.setattr(nr.limit_lab, "solve", failing)
        with pytest.raises(nr.SweepError) as info:
            nr.sweep([4.0, 8.0, 16.0], [1.0], nr.power(3), u_inf=u_inf_1d)
        assert [r.c for r in info.value.records] == [4.0, 16.0]
        assert str(info.value) == "sweep points failed: c = 8.0: non-finite residual at iteration 2"

    def test_every_point_starts_from_its_coarse_solution(self, sweep_3d, monkeypatch):
        # at 64^3 every point starts its fine loop from its own 32^3 solution
        core, points = nr.limit_lab.solve, []

        def recorded(*args):
            point = core(*args)
            points.append(point)
            return point

        monkeypatch.setattr(nr.limit_lab, "solve", recorded)
        nr.sweep([16.0, 32.0], [1.0, 2.0], nr.hartree(), u_inf=sweep_3d["u_inf"])
        assert len(points) == 2 and all(p.coarse_start for p in points)


@pytest.fixture(scope="module")
def u_inf_32():
    """The 3D Hartree reference on a 32^3 grid, whose octant transforms take the matrix route."""
    grid = nr.make_grid(3, 16.0, 32)
    result = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
    assert result.converged
    return result


class TestSeededSweep:
    """Every sweep point starts from the reference's octant and is recorded
    from octants, with no full-grid field built per point."""

    C_3D = [4.0, 8.0, 16.0, 32.0]

    @staticmethod
    def assert_records_match_seeded_solves(records, u_inf, nl, c_values, s_values):
        seeded = nr.SolverConfig(initial_guess=u_inf.field)
        assert [r.c for r in records] == c_values
        for rec, c in zip(records, c_values):
            res = nr.solve(nr.pseudo_relativistic(c), nl, u_inf.field.grid, seeded)
            assert rec == nr.convergence_record(res.field, u_inf.field, c, s_values, res.action)

    def test_records_match_seeded_public_solves_in_1d(self, sweep_1d):
        self.assert_records_match_seeded_solves(
            sweep_1d["records"], sweep_1d["u_inf"], nr.power(3), [4.0, 8.0, 16.0, 32.0, 64.0], [0.5, 1.0, 2.0, 3.0, 4.0]
        )

    def test_records_match_seeded_public_solves_on_32_cubed_hartree(self, u_inf_32):
        s_values = [0.5, 1.0, 2.0]
        records = nr.sweep(self.C_3D, s_values, nr.hartree(), u_inf=u_inf_32)
        self.assert_records_match_seeded_solves(records, u_inf_32, nr.hartree(), self.C_3D, s_values)

    def test_each_point_is_one_solve_from_the_reference(self, monkeypatch, u_inf_32):
        # the start from a field is solve's alone: the sweep hands it the reference as initial_guess
        core, calls = nr.limit_lab.solve, []

        def recorded(op, nl, grid, cfg):
            calls.append((op, nl, grid, cfg))
            return core(op, nl, grid, cfg)

        monkeypatch.setattr(nr.limit_lab, "solve", recorded)
        cfg = nr.SolverConfig(tolerance=1e-11, max_iterations=500)
        nr.sweep(self.C_3D, [1.0], nr.hartree(), u_inf=u_inf_32, cfg=cfg)
        assert [op for op, *_ in calls] == [nr.pseudo_relativistic(c) for c in self.C_3D]
        for _, nl, grid, point_cfg in calls:
            assert (nl, grid) == (nr.hartree(), u_inf_32.field.grid)
            assert point_cfg.initial_guess is u_inf_32.field
            assert (point_cfg.tolerance, point_cfg.max_iterations) == (1e-11, 500)

    def test_seeded_sweep_takes_fewer_than_60_iterations(self, monkeypatch, u_inf_32):
        # cold starts from the Gaussian take 20 + 20 + 19 + 18 = 77
        iterations = []
        core = nr.limit_lab.solve

        def counted(*args, **kwargs):
            point = core(*args, **kwargs)
            iterations.append(point.iterations)
            return point

        monkeypatch.setattr(nr.limit_lab, "solve", counted)
        nr.sweep(self.C_3D, [1.0], nr.hartree(), u_inf=u_inf_32)
        assert len(iterations) == len(self.C_3D)
        assert sum(iterations) < 60

    def test_peak_memory_stays_below_four_full_grid_arrays(self, u_inf_32):
        nr.sweep(self.C_3D, [0.5, 1.0], nr.hartree(), u_inf=u_inf_32)  # fill the caches
        peak = traced_peak(lambda: nr.sweep(self.C_3D, [0.5, 1.0], nr.hartree(), u_inf=u_inf_32))
        assert peak < 4 * u_inf_32.field.values.nbytes

    def test_a_sweep_peaks_as_high_as_one_point(self, u_inf_32):
        # each point's field dies once it is recorded: held through the next
        # solve, its octant and coefficients add two octants to the peak
        def peak(c_values):
            return traced_peak(lambda: nr.sweep(c_values, [0.5, 1.0], nr.hartree(), u_inf=u_inf_32))

        peak(self.C_3D)  # fill the caches
        assert peak(self.C_3D) <= peak(self.C_3D[:1]) + u_inf_32.field.octant.nbytes / 2

    def test_record_peak(self, sweep_3d):
        # 64^3 Hartree: five 33^3 octants, 1.44 MB (the difference's
        # coefficients, |w_hat|^2 and |u_c_hat|^2 times the multiplicities,
        # the weight and the product buffers); ten, 2.88 MB, when each order,
        # the defect and every pairing allocated its own temporaries.  The
        # bound leaves half an octant of headroom
        u_inf = sweep_3d["u_inf"].field
        point = nr.solve(nr.pseudo_relativistic(8.0), nr.hartree(), u_inf.grid, nr.SolverConfig(initial_guess=u_inf))
        s_values = [0.5, 1.0, 2.0, 3.0, 4.0]
        assert traced_peak(lambda: nr.convergence_record(point.field, u_inf, 8.0, s_values)) <= 1.58e6

    def test_one_record_path_for_both_representations(self, u_inf_1d):
        # a common shift takes both fields off the octant to the complex full
        # lattice; every entry of the record is invariant under it
        grid, s_values = u_inf_1d.field.grid, [0.5, 1.0, 2.0]
        u_c = nr.solve(nr.pseudo_relativistic(8.0), nr.power(3), grid).field
        octant = nr.convergence_record(u_c, u_inf_1d.field, 8.0, s_values)
        shifted = (nr.SpectralField(grid, np.roll(f.values, 3)) for f in (u_c, u_inf_1d.field))
        full = nr.convergence_record(*shifted, 8.0, s_values)
        for name in ("h_minus1_residual", "lam", "v_norm_h1"):
            assert getattr(full, name) == pytest.approx(getattr(octant, name), rel=1e-12, abs=1e-16)
        for name in ("diff_norms", "sup_norms"):
            assert getattr(full, name) == pytest.approx(dict(getattr(octant, name)), rel=1e-12)

    def test_reference_that_is_not_exactly_even_rejected_before_any_solve(self, monkeypatch, u_inf_1d):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved before checking its reference")

        monkeypatch.setattr(nr.limit_lab, "solve", no_solve)
        shifted = nr.SpectralField(u_inf_1d.field.grid, np.roll(u_inf_1d.field.values, 1))
        u_inf = nr.GroundStateResult(shifted, u_inf_1d.residual, u_inf_1d.action, u_inf_1d.iterations, True)
        with pytest.raises(ValueError, match="exactly even"):
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), u_inf=u_inf)


class TestSobolevOrderRange:
    """The orders a sweep records lie in [-4, 8], both ends included, as in
    `sobolev_norm` and the CLI's analysis.s_list."""

    @pytest.mark.parametrize("s", [100.0, float("nan"), -4.5])
    def test_sweep_rejects_order_before_any_solve(self, monkeypatch, s):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved before checking its orders")

        monkeypatch.setattr(nr.limit_lab, "solve", no_solve)
        with pytest.raises(ValueError, match="Sobolev order"):
            nr.sweep([4.0, 8.0], [1.0, s], nr.power(3), u_inf=stand_in_reference(SMALL))

    @pytest.mark.parametrize("s_values", [["0.5", "1"], [True], [1.0, None]], ids=["str", "true", "none"])
    def test_sweep_rejects_orders_that_are_not_real_numbers_before_any_solve(self, monkeypatch, s_values):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved before checking its orders")

        monkeypatch.setattr(nr.limit_lab, "solve", no_solve)
        with pytest.raises(ValueError, match="Sobolev order must be a real number"):
            nr.sweep([4.0, 8.0], s_values, nr.power(3), u_inf=stand_in_reference(SMALL))

    @pytest.mark.parametrize("s", ["2", True])
    def test_convergence_record_rejects_order_that_is_not_a_real_number(self, s):
        u = nr.SpectralField(SMALL, np.exp(-0.5 * SMALL.radius_sq()))
        with pytest.raises(ValueError, match="Sobolev order must be a real number"):
            nr.convergence_record(u, u, 4.0, [1.0, s])

    @pytest.mark.parametrize("s", ["1", True, 100.0])
    def test_fit_rate_rejects_order(self, s):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 7.0 / c**2)
        with pytest.raises(ValueError, match="Sobolev order"):
            nr.fit_rate(records, s)

    @pytest.mark.parametrize("s", [100.0, float("nan"), -4.5])
    def test_convergence_record_rejects_order(self, s):
        u = nr.SpectralField(SMALL, np.exp(-0.5 * SMALL.radius_sq()))
        with pytest.raises(ValueError, match="Sobolev order"):
            nr.convergence_record(u, u, 4.0, [1.0, s])

    def test_range_ends_are_included(self):
        u = nr.SpectralField(SMALL, np.exp(-0.5 * SMALL.radius_sq()))
        rec = nr.convergence_record(u, u, 4.0, [-4, 8])
        assert list(rec.sup_norms) == [-4.0, 8.0]
        for s, norm in rec.sup_norms.items():
            expected = np.sqrt(lattice_pairing(u.values, u.values, SMALL.length, lambda t: (1.0 + t) ** s))
            assert np.isclose(norm, expected, rtol=1e-12, atol=0.0)


class TestSweepReference:
    """The sweep runs on its solved reference's grid, and checks the reference before any solve."""

    @staticmethod
    def no_solve(*args, **kwargs):
        raise AssertionError("sweep solved before checking its reference")

    def test_frequency_space_reference_rejected(self, monkeypatch):
        u = nr.SpectralField(SMALL, np.exp(-0.5 * SMALL.radius_sq()))
        u_inf = nr.GroundStateResult(nr.transform(u, "forward"), 0.0, 0.0, 1, True)
        monkeypatch.setattr(nr.limit_lab, "solve", self.no_solve)
        with pytest.raises(ValueError, match="real-space"):
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), u_inf=u_inf)

    @pytest.mark.parametrize("c_values", [["4", "8"], [True, 4.0]], ids=["str", "true"])
    def test_c_values_that_are_not_real_numbers_rejected(self, monkeypatch, c_values):
        monkeypatch.setattr(nr.limit_lab, "solve", self.no_solve)
        with pytest.raises(ValueError, match="light-speed parameter must be a real number"):
            nr.sweep(c_values, [1.0], nr.power(3), u_inf=stand_in_reference(SMALL))

    def test_takes_no_grid_and_requires_the_reference(self, monkeypatch):
        # the grid is the reference's: a grid in the fourth position, or no reference, is a call error
        u_inf = stand_in_reference(SMALL)
        monkeypatch.setattr(nr.limit_lab, "solve", self.no_solve)
        with pytest.raises(TypeError):
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), SMALL, u_inf=u_inf)
        with pytest.raises(TypeError):
            nr.sweep([4.0, 8.0], [1.0], nr.power(3))


class TestFitRate:
    def test_exact_inverse_square(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 7.0 / c**2)
        fit = nr.fit_rate(records, 1.0)
        assert np.isclose(fit.slope, -2.0, atol=1e-12)
        assert np.isclose(fit.A_hat, 7.0) and np.isclose(fit.B_hat, 7.0)

    def test_slope_is_the_least_squares_slope(self):
        c_values = [2.0, 4.0, 8.0, 16.0, 32.0]
        records = synthetic_records(c_values, lambda c: 5.0 / c**2 * (1.0 + 0.3 * np.sin(c)))
        expected = np.polyfit(np.log(c_values), np.log([r.diff_norms[1.0] for r in records]), 1)[0]
        assert nr.fit_rate(records, 1.0).slope == pytest.approx(expected, rel=1e-13)

    def test_exact_inverse_first_power(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 1.0 / c)
        assert np.isclose(nr.fit_rate(records, 1.0).slope, -1.0, atol=1e-12)

    def test_requires_four_records(self):
        records = synthetic_records([2.0, 4.0, 8.0], lambda c: 1.0 / c)
        with pytest.raises(ValueError):
            nr.fit_rate(records, 1.0)

    def test_rejects_zero_norms(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 0.0)
        with pytest.raises(ValueError):
            nr.fit_rate(records, 1.0)

    def test_floor_filters_points(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 1.0 / c**2)
        fit = nr.fit_rate(records, 1.0, floor=1.0 / 100.0)
        assert fit.c_range == (2.0, 4.0, 8.0)
        with pytest.raises(ValueError):
            nr.fit_rate(records, 1.0, floor=1.0)

    @pytest.mark.parametrize("floor", ["0.01", None, True], ids=["str", "none", "bool"])
    def test_floor_must_be_a_real_number(self, floor):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 1.0 / c**2)
        with pytest.raises(ValueError, match="floor must be a real number"):
            nr.fit_rate(records, 1.0, floor=floor)

    def test_fewer_than_two_distinct_c_values_do_not_fit(self):
        with pytest.raises(ValueError, match="distinct c values"):
            nr.fit_rate(synthetic_records([4.0, 4.0, 4.0, 4.0], lambda c: 1.0 / c**2), 1.0)
        records = synthetic_records([4.0, 4.0, 8.0, 16.0], lambda c: 1.0 / c**2)
        assert nr.fit_rate(records, 1.0, floor=1.0 / 70.0).c_range == (4.0, 4.0, 8.0)
        with pytest.raises(ValueError, match="distinct c values"):
            nr.fit_rate(records, 1.0, floor=1.0 / 20.0)  # only the two c = 4 records remain

    def test_order_missing_from_the_records_is_refused(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 1.0 / c**2)
        with pytest.raises(ValueError, match=r"order s=2 is not among the recorded orders \[1\.0\]"):
            nr.fit_rate(records, 2.0)

    def test_real_sweep_slope(self, sweep_1d):
        fit = nr.fit_rate(sweep_1d["records"], 1.0, floor=1e-10)
        assert -2.15 <= fit.slope <= -1.85
        assert fit.A_hat <= fit.B_hat


class TestHMinus1Residual:
    def test_single_mode_closed_form(self):
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        xi0 = 2.0 * np.pi * 4 / g.length
        u = nr.SpectralField(g, np.cos(xi0 * x))
        c = 7.0
        defect = float(nr.symbol_defect(nr.pseudo_relativistic(c), np.array([xi0**2]))[0])
        expected = defect / np.sqrt(1.0 + xi0**2) * np.sqrt(g.length / 2.0)
        assert np.isclose(nr.h_minus1_residual(u, c), expected, rtol=1e-12)

    def test_vanishes_as_c_grows(self, sech_exact):
        assert nr.h_minus1_residual(sech_exact, 1.0e6) < 1e-9

    def test_record_matches_public_function(self, grid1d, u_inf_1d):
        # both read the residual on the octant; the oracle takes numpy.fft of the full grid
        for c in (4.0, 8.0, 16.0, 32.0, 64.0):
            u_c = nr.solve(nr.pseudo_relativistic(c), nr.power(3), grid1d).field
            record = nr.convergence_record(u_c, u_inf_1d.field, c, [1.0])
            spec = nr.pseudo_relativistic(c)
            defect_sq = lattice_pairing(
                u_c.values, u_c.values, grid1d.length, lambda t: nr.symbol_defect(spec, t) ** 2 / (1.0 + t)
            )
            expected = np.sqrt(defect_sq)
            assert record.h_minus1_residual == pytest.approx(expected, rel=1e-12)
            assert nr.h_minus1_residual(u_c, c) == pytest.approx(expected, rel=1e-12)

    def test_scaled_stability_on_sweep(self, sweep_1d):
        vals = [r.c**2 * r.h_minus1_residual for r in sweep_1d["records"] if r.c in (16.0, 32.0, 64.0)]
        assert len(vals) == 3
        assert max(vals) / min(vals) <= 1.05


class TestNondegeneracyGap:
    def test_algebraic_identity_at_reference_state(self, u_inf_1d):
        assert nr.linearization_identity_residual(u_inf_1d.field, nr.power(3)) <= 1e-8

    def test_identity_convolves_the_hartree_density_once(self, transform_counts):
        # on the octant: u forward (it carries no coefficients), one Coulomb
        # convolution of u^2 and N'(u) u forward; the H^2 norm reuses u's coefficients
        u = nr.SpectralField(SMALL3, np.exp(-0.5 * SMALL3.radius_sq()))
        nr.linearization_identity_residual(u, nr.hartree())
        assert transform_counts["complex"] == transform_counts["rfftn"] == transform_counts["irfftn"] == 0
        assert transform_counts["dct"] <= 5

    @pytest.mark.parametrize("diagnostic", [nr.linearization_identity_residual, nr.nondegeneracy_gap])
    def test_refused_before_any_work(self, monkeypatch, transform_counts, diagnostic):
        # the rule refuses Hartree in 2D before the field is transformed or recentred
        recentred = []
        monkeypatch.setattr(nr.limit_lab, "_recentered_octant", lambda *args, **kwargs: recentred.append(args))
        grid = nr.make_grid(2, 16.0, 32)
        with pytest.raises(ValueError, match="n = 3"):
            diagnostic(nr.SpectralField(grid, np.exp(-0.5 * grid.radius_sq())), nr.hartree())
        assert recentred == [] and sum(transform_counts.values()) == 0

    def test_translation_zero_mode(self):
        # sech tanh is annihilated by the linearized operator (odd class).
        # The box is 64 wide (same dx as grid1d) so that the odd mode is
        # periodic to round-off: on L = 32 it jumps by 4.5e-7 across the
        # periodic edge and the spectral Laplacian's Gibbs response leaves a
        # residual of 1.95e-4; on L = 48 it is 6.5e-8, on L = 64 2.2e-11.
        grid = nr.make_grid(1, 64.0, 2048)
        x = grid.coordinates()[0]
        u_inf = nr.SpectralField(grid, np.sqrt(2.0) / np.cosh(x))
        mode = nr.SpectralField(grid, np.tanh(x) / np.cosh(x))
        image = nr.apply_multiplier(mode, nr.nonrelativistic()).values - nr.linearize(
            nr.power(3), u_inf, mode
        ).values
        assert np.sqrt(np.sum(image**2) * grid.dx) <= 1e-8

    def test_gap_matches_dense_fd_oracle(self, grid1d):
        x = grid1d.coordinates()[0]
        analytic = nr.SpectralField(grid1d, np.sqrt(2.0) / np.cosh(x))
        spectral = nr.nondegeneracy_gap(analytic, nr.power(3))
        dense = dense_gap_fd(32.0, 4096, lambda t: np.sqrt(2.0) / np.cosh(t), 3)
        assert spectral > 0.0
        assert abs(spectral - dense) / dense <= 1e-6

    def test_gap_matches_dense_constrained_oracle(self):
        # The smallest eigenvalue of L = B - N'(u) over even v with <v, u>_{H^1} = 0,
        # relative to ||v||_{H^1}^2 = <Bv, v>: dense matrices built column by
        # column from the public apply_multiplier and linearize.
        grid = SMALL
        x = grid.coordinates()[0]
        u = nr.SpectralField(grid, np.sqrt(2.0) / np.cosh(x))
        eye = np.eye(grid.points)
        unit = [nr.SpectralField(grid, e) for e in eye]
        b = np.column_stack([nr.apply_multiplier(e, nr.nonrelativistic()).values for e in unit])
        lin = b - np.column_stack([nr.linearize(nr.power(3), u, e).values for e in unit])
        even = orth(eye + eye[(-np.arange(grid.points)) % grid.points])
        basis = even @ null_space((even.T @ (b @ u.values))[None, :])
        lhs, rhs = basis.T @ lin @ basis, basis.T @ b @ basis
        dense = eigh(0.5 * (lhs + lhs.T), 0.5 * (rhs + rhs.T), eigvals_only=True)[0]
        gap = nr.nondegeneracy_gap(u, nr.power(3))
        assert basis.shape[1] == grid.points // 2
        assert dense > 0.0
        assert abs(gap - dense) <= 1e-8 * dense

    def test_gap_stable_under_refinement_and_reference_perturbation(self, grid1d, u_inf_1d):
        from_solver = nr.nondegeneracy_gap(u_inf_1d.field, nr.power(3))
        x = grid1d.coordinates()[0]
        analytic = nr.nondegeneracy_gap(nr.SpectralField(grid1d, np.sqrt(2.0) / np.cosh(x)), nr.power(3))
        assert abs(from_solver - analytic) <= 1e-6 * analytic
        fine_grid = nr.make_grid(1, 32.0, 2048)
        xf = fine_grid.coordinates()[0]
        fine = nr.nondegeneracy_gap(nr.SpectralField(fine_grid, np.sqrt(2.0) / np.cosh(xf)), nr.power(3))
        assert abs(fine - analytic) <= 1e-4 * analytic

    def test_reference_is_recentred_at_its_peak(self):
        x = SMALL.coordinates()[0]
        centred = nr.SpectralField(SMALL, np.sqrt(2.0) / np.cosh(x))
        shifted = nr.SpectralField(SMALL, np.roll(centred.values, 5))
        assert nr.nondegeneracy_gap(shifted, nr.power(3)) == nr.nondegeneracy_gap(centred, nr.power(3))

    def test_gap_product_takes_four_transforms_on_hartree(self, monkeypatch, transform_counts, u_inf_32):
        # one inverse transform, N'(u0) with its Coulomb pair, one forward
        # transform; the set-up transforms u0 and the start, and convolves u0^2 once
        products = []
        lanczos = nr.limit_lab._lanczos_smallest

        def counted(matvec, v0, tol, *args):
            def product(z):
                products.append(z)
                return matvec(z)

            return lanczos(product, v0, tol, *args)

        monkeypatch.setattr(nr.limit_lab, "_lanczos_smallest", counted)
        before = transform_counts["dct"]
        assert nr.nondegeneracy_gap(u_inf_32.field, nr.hartree()) > 0.0
        assert products
        assert transform_counts["dct"] - before <= 4 * len(products) + 4

    def test_hartree_gap_positive(self, sweep_3d):
        gap = nr.nondegeneracy_gap(sweep_3d["u_inf"].field, nr.hartree())
        assert gap > 0.0

    def test_gap_peak(self, sweep_3d):
        # 64^3 Hartree: seven 33^3 octants, 2.02 MB (y, phi0, the product's
        # three buffers, Lanczos's q and q_prev); nine, 2.59 MB, while the
        # scaling to_z and Lanczos's scratch held an octant each; twelve,
        # 3.46 MB, with the projected product's fourth buffer and the
        # scalings it kept, 4.32 MB when every product allocated its
        # temporaries.  The bound leaves half an octant of headroom
        u_inf = sweep_3d["u_inf"].field
        nr.nondegeneracy_gap(u_inf, nr.hartree())  # caches the DCT-I matrices and the Coulomb symbol
        assert traced_peak(lambda: nr.nondegeneracy_gap(u_inf, nr.hartree())) <= 7.5 * u_inf.octant.nbytes

    @pytest.mark.parametrize("case, gap, products", [("1d", 0.4999999999997781, 11), ("3d", 0.2695246668456396, 20)])
    def test_default_gaps_bit_for_bit(self, monkeypatch, u_inf_1d, sweep_3d, case, gap, products):
        # the 1D cubic and 64^3 Hartree defaults, as they were before the
        # product recomputed to_z in free buffers: it keeps the operation
        # order, so every product is the same to the last bit
        lanczos, counted = nr.limit_lab._lanczos_smallest, []

        def counting(matvec, v0, tol, *args):
            def product(z):
                counted.append(z.size)
                return matvec(z)

            return lanczos(product, v0, tol, *args)

        monkeypatch.setattr(nr.limit_lab, "_lanczos_smallest", counting)
        field, nl = (u_inf_1d.field, nr.power(3)) if case == "1d" else (sweep_3d["u_inf"].field, nr.hartree())
        assert nr.nondegeneracy_gap(field, nl) == gap
        assert len(counted) == products

    def test_product_matches_the_projected_form(self, monkeypatch, u_inf_32):
        # the projected form the product replaced: with p = z - <y, z> y and
        # K = B^{-1/2} N'(u0) B^{-1/2}, P(p - K p) + DEFLATION_SHIFT (z - p),
        # P the projection off y, K through the normalized inverse transform
        captured, lanczos = [], nr.limit_lab._lanczos_smallest

        def capture(matvec, v0, tol, *args):
            captured.append((matvec, v0.copy()))
            return lanczos(matvec, v0, tol, *args)

        monkeypatch.setattr(nr.limit_lab, "_lanczos_smallest", capture)
        field = u_inf_32.field
        nr.nondegeneracy_gap(field, nr.hartree())
        [(matvec, v0)] = captured
        grid = field.grid
        b_half, scale = np.sqrt(1.0 + grid.octant_xi_sq), np.sqrt(grid.octant_weight / grid.size)
        y = (scale * b_half * field.coefficients).ravel()
        y /= np.linalg.norm(y)
        derivative = _derivative(nr.hartree(), grid, field.octant)

        def projected(z):
            p = z - (y @ z) * y
            v = _inverse(grid, (p / (scale * b_half).ravel()).reshape(grid.octant_shape))
            q = p - (scale / b_half * _forward(grid, derivative(v))).ravel()
            return q - (y @ q) * y + nr.limit_lab.DEFLATION_SHIFT * (z - p)

        rng = np.random.default_rng(34)
        for z in (v0 / np.linalg.norm(v0), y, rng.standard_normal(y.size) / np.sqrt(y.size)):
            expected = projected(z)
            assert np.max(np.abs(matvec(z) - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_gap_matches_dense_constrained_oracle_in_3d(self):
        # the Hartree ground state on 16^3: the constrained minimum over even
        # fields, a dense generalized eigenproblem on the 9^3 unfolded octant
        # unit fields E_k, built from the public apply_multiplier and
        # linearize.  For even g, E^T g is the octant of g times octant_weight
        grid = SMALL3
        u = nr.solve(nr.nonrelativistic(), nr.hartree(), grid).field
        weight = grid.octant_weight.ravel()

        def folded(field):
            return weight * field.values[grid.octant_index].ravel()

        columns_b, columns_l = [], []
        for k in range(weight.size):
            unit = np.zeros(grid.octant_shape)
            unit.flat[k] = 1.0
            e = nr.SpectralField(grid, _unfold(grid, unit))
            columns_b.append(folded(nr.apply_multiplier(e, nr.nonrelativistic())))
            columns_l.append(columns_b[-1] - folded(nr.linearize(nr.hartree(), u, e)))
        rhs, lhs = np.column_stack(columns_b), np.column_stack(columns_l)
        basis = null_space(folded(nr.apply_multiplier(u, nr.nonrelativistic()))[None, :])
        lhs, rhs = basis.T @ lhs @ basis, basis.T @ rhs @ basis
        dense = eigh(0.5 * (lhs + lhs.T), 0.5 * (rhs + rhs.T), eigvals_only=True)[0]
        gap = nr.nondegeneracy_gap(u, nr.hartree())
        assert dense > 0.0
        assert abs(gap - dense) <= 1e-8 * dense

    def test_gap_product_allocates_no_array(self, monkeypatch, u_inf_32):
        # each product works in the gap's three buffers: what it allocates is a
        # few array views, far below one 17^3 octant (39 kB)
        lanczos, growth = nr.limit_lab._lanczos_smallest, []

        def traced(matvec, v0, tol, *args):
            def product(z):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                w = matvec(z)
                growth.append(tracemalloc.get_traced_memory()[1] - before)
                return w

            return lanczos(product, v0, tol, *args)

        monkeypatch.setattr(nr.limit_lab, "_lanczos_smallest", traced)
        traced_peak(lambda: nr.nondegeneracy_gap(u_inf_32.field, nr.hartree()))
        assert len(growth) > 5
        assert max(growth) < 0.1 * u_inf_32.field.octant.nbytes

    def test_step_cap_raises_naming_steps_and_residual(self, monkeypatch, sech_exact):
        monkeypatch.setattr(nr.limit_lab, "LANCZOS_MAX_STEPS", 3)
        with pytest.raises(
            nr.GapEigensolveError,
            match=rf"^gap eigensolve \(N = {sech_exact.grid.points}\): Lanczos did not converge"
            r" in 3 steps \(residual estimate \d\.\d{3}e[-+]\d+",
        ):
            nr.nondegeneracy_gap(sech_exact, nr.power(3))

    def test_gap_does_not_load_scipy(self):
        # the import budget of a CLI process: scipy.sparse.linalg alone costs
        # about 0.45 s and 32 MB of start-up, numpy.random about 15 ms, and
        # concurrent.futures (with logging) about 8 ms
        src = str(Path(nr.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys, numpy as np, nrlimit as nr, nrlimit.cli\n"
            "g = nr.make_grid(1, 16.0, 64)\n"
            "x = g.coordinates()[0]\n"
            "assert nr.nondegeneracy_gap(nr.SpectralField(g, np.sqrt(2.0) / np.cosh(x)), nr.power(3)) > 0.0\n"
            "heavy = ('scipy', 'numpy.random', 'concurrent.futures')\n"
            "loaded = sorted(m for m in sys.modules if m.startswith(heavy))\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)


IDENTITY_CASES = [
    pytest.param(nr.make_grid(1, 16.0, 64), nr.power(3), id="1d-cubic"),
    pytest.param(nr.make_grid(1, 16.0, 64), nr.power(5), id="1d-quintic"),
    pytest.param(nr.make_grid(2, 16.0, 32), nr.power(3), id="2d-cubic"),
    pytest.param(nr.make_grid(3, 8.0, 16), nr.hartree(), id="3d-hartree"),
]


class TestIdentityResidual:
    """The identity residual is read off coefficients (Parseval) and equals the
    former sample-space formula (`oracles.real_space_identity_residual`)."""

    @pytest.mark.parametrize("grid, nl", IDENTITY_CASES)
    @pytest.mark.parametrize("shift", [0, 1], ids=["octant", "full-lattice"])
    def test_matches_the_sample_space_formula(self, grid, nl, shift):
        # a Gaussian is far from a solution, so the residual is of order one
        # and the two formulas agree to round-off relative to it (at most 1e-15 measured)
        u = nr.gaussian_guess(grid)
        u = nr.SpectralField(grid, np.roll(u.values, shift, axis=0))
        assert (_kernel_coefficients(u)[3] is grid.octant_xi_sq) == (shift == 0)
        value = nr.linearization_identity_residual(u, nl)
        assert value > 0.1
        assert value == pytest.approx(real_space_identity_residual(u, nl), rel=1e-13)

    @pytest.mark.parametrize("shift", [0, 2], ids=["octant", "full-lattice"])
    def test_matches_the_sample_space_formula_at_solved_states(self, u_inf_1d, u_inf_32, shift):
        # at a solution both sit on the round-off floor (about 1e-12) and differ by
        # round-off of that floor: at most 3.4e-13 measured, on the shifted 1D state
        for result, nl in ((u_inf_1d, nr.power(3)), (u_inf_32, nr.hartree())):
            grid = result.field.grid
            u = result.field if shift == 0 else nr.SpectralField(grid, np.roll(result.field.values, shift, axis=0))
            value = nr.linearization_identity_residual(u, nl)
            assert value <= 1e-11
            assert abs(value - real_space_identity_residual(u, nl)) <= 1e-12

    @pytest.mark.parametrize("nl, transforms", [(nr.power(3), 1), (nr.hartree(), 3)], ids=["power", "hartree"])
    def test_transforms_of_a_solved_field(self, transform_counts, u_inf_1d, u_inf_32, nl, transforms):
        # N'(u) u forward, after the Coulomb pair of phi0 on Hartree; u's coefficients are carried
        field = (u_inf_1d if nl.kind == "power" else u_inf_32).field
        nr.linearization_identity_residual(field, nl)
        assert transform_counts["dct"] == transforms
        assert transform_counts["complex"] == 0  # nothing on the full lattice

    def test_peak(self, sweep_3d):
        # 64^3 Hartree: four 33^3 octants, 1.15 MB (N'(u) u and its transform's
        # work, phi0 and (1 + |xi|^2) u_hat); eight, 2.01 MB, when B u went back
        # to samples for L u, the target and the squared error.  The bound
        # leaves half an octant of headroom
        field = sweep_3d["u_inf"].field
        nr.linearization_identity_residual(field, nr.hartree())  # fill the caches
        peak = traced_peak(lambda: nr.linearization_identity_residual(field, nr.hartree()))
        assert peak <= 1.152e6 + field.octant.nbytes / 2


class TestLanczosSmallest:
    def test_diagonal_spectrum_with_negative_minimum(self):
        spectrum = np.concatenate([[-0.37], np.linspace(0.1, 4.0, 500)])
        v0 = np.random.default_rng(3).standard_normal(spectrum.size)
        theta = _lanczos_smallest(lambda z: spectrum * z, v0, 1e-10)
        assert abs(theta - spectrum[0]) <= 1e-12 * abs(spectrum[0])

    def test_run_holds_q_prev_and_one_scratch_beyond_v0(self):
        # v0 is normalized in place into q; a product returning its own buffer
        # leaves the run two more vectors, the scratch taking alpha q + beta q_prev
        spectrum = np.concatenate([[-0.37], np.linspace(0.1, 4.0, 20000)])
        v0 = np.random.default_rng(5).standard_normal(spectrum.size)
        w, thetas = np.empty_like(v0), []

        def product(z):
            return np.multiply(spectrum, z, out=w)

        peak = traced_peak(lambda: thetas.append(_lanczos_smallest(product, v0, 1e-10)))
        assert abs(thetas[0] - spectrum[0]) <= 1e-12 * abs(spectrum[0])
        assert peak < 2.5 * v0.nbytes

    def test_invariant_subspace_is_exact(self):
        # v0 spans two eigenvectors, so the second step ends on beta = 0
        spectrum = np.array([2.0, -1.5, 3.0, 0.5])
        theta = _lanczos_smallest(lambda z: spectrum * z, np.array([1.0, 1.0, 0.0, 0.0]), 1e-300)
        assert theta == pytest.approx(-1.5, rel=1e-15)


class TestSmallestRitzPair:
    """The smallest eigenpair of every leading m x m block of a tridiagonal,
    m = 1..60, chained as `_lanczos_smallest` calls it, against scipy's
    eigh_tridiagonal: theta to a few units of round-off of ||T||, |s_m| to
    the eigenvector's own accuracy, round-off over the gap to the next
    eigenvalue."""

    @staticmethod
    def assert_matches_eigh_tridiagonal(alphas, betas):
        alphas, betas = [float(a) for a in alphas], [float(b) for b in betas]
        eps = np.finfo(float).eps
        theta = 0.0
        for m in range(1, len(alphas) + 1):
            theta, last = _smallest_ritz_pair(alphas[:m], betas[: m - 1], theta)
            w, v = eigh_tridiagonal(np.array(alphas[:m]), np.array(betas[: m - 1]))
            scale = max(np.max(np.abs(w)), np.max(np.abs(betas[: m - 1]), initial=0.0))
            assert abs(theta - w[0]) <= 32 * eps * scale, m
            gap = w[1] - w[0] if m > 1 else np.inf
            assert 0.0 <= last <= 1.0
            assert abs(last - abs(v[-1, 0])) <= 1e-13 + 64 * eps * scale / gap, m

    @pytest.mark.parametrize("seed", range(6))
    def test_random_tridiagonals(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_eigh_tridiagonal(rng.standard_normal(60), np.abs(rng.standard_normal(59)))

    def test_positive_spectrum_and_negative_minimum(self):
        rng = np.random.default_rng(11)
        alphas = 2.0 + rng.random(60)
        self.assert_matches_eigh_tridiagonal(alphas, 0.3 * rng.random(59))
        alphas[37] = -0.37
        self.assert_matches_eigh_tridiagonal(alphas, 0.3 * rng.random(59))

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_off_diagonals(self, seed):
        rng = np.random.default_rng(20 + seed)
        betas = np.abs(rng.standard_normal(59))
        betas[rng.random(59) < 0.25] = 0.0
        betas[0] = 0.0
        self.assert_matches_eigh_tridiagonal(rng.standard_normal(60), betas)

    def test_diagonal_matrix(self):
        self.assert_matches_eigh_tridiagonal(np.linspace(3.0, -2.0, 60), np.zeros(59))

    def test_clustered_minimum_of_the_negated_wilkinson_matrix(self):
        # -W+_41: its two smallest eigenvalues agree to about 1e-14
        alphas = -np.abs(np.arange(41) - 20.0)
        self.assert_matches_eigh_tridiagonal(alphas, np.ones(40))

    def test_tridiagonal_of_a_lanczos_run_that_lost_orthogonality(self):
        # plain Lanczos on a spectrum with a close pair at its negative minimum:
        # after 60 steps the tridiagonal holds duplicated, clustered Ritz values
        spectrum = np.concatenate([[-0.37, -0.37 + 1e-9], np.linspace(0.1, 4.0, 300)])
        q = np.random.default_rng(5).standard_normal(spectrum.size)
        q /= np.linalg.norm(q)
        q_prev, beta, alphas, betas = np.zeros_like(q), 0.0, [], []
        for _ in range(60):
            w = spectrum * q - beta * q_prev
            alphas.append(q @ w)
            w -= alphas[-1] * q
            beta = np.linalg.norm(w)
            betas.append(beta)
            q_prev, q = q, w / beta
        self.assert_matches_eigh_tridiagonal(alphas, betas[:-1])


class TestOptimalityFunctional:
    def test_nonnegative_on_random_fields(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            f = nr.SpectralField(SMALL, rng.standard_normal(SMALL.shape))
            for c in (1.0, 4.0, 32.0):
                assert nr.optimality_functional(f, c) >= 0.0

    def test_single_mode_value_and_lower_bound(self):
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        for k in (1, 3, 5):
            xi0 = 2.0 * np.pi * k / g.length
            mode = nr.SpectralField(g, np.cos(xi0 * x))
            mode_mass = g.length / 2.0
            for c in (10.0, 20.0, 50.0):
                got = nr.optimality_functional(mode, c)
                defect = float(nr.symbol_defect(nr.pseudo_relativistic(c), np.array([xi0**2]))[0])
                assert np.isclose(got, defect * mode_mass, rtol=1e-12)
                assert got >= xi0**4 / (1.03 * c * c) * mode_mass

    def test_forms_over_a_c_list_read_one_transform(self, sweep_1d, transform_counts):
        # a solved field carries its coefficients: no transform; a plain copy takes one for the whole c list
        u_inf = sweep_1d["u_inf"].field
        c_values = [4.0, 8.0, 16.0, 32.0, 64.0]
        before = transform_counts["dct"]
        forms = nr.optimality_forms(u_inf, c_values)
        assert transform_counts["dct"] - before == 0
        plain = nr.SpectralField(u_inf.grid, u_inf.values)
        before = transform_counts["dct"]
        assert nr.optimality_forms(plain, c_values) == forms
        assert transform_counts["dct"] - before == 1
        assert forms == [nr.optimality_functional(u_inf, c) for c in c_values]
        u_hat = nr.transform(u_inf, "forward")
        np.testing.assert_allclose(nr.optimality_forms(u_hat, c_values), forms, rtol=1e-12)

    def test_scaled_form_approaches_laplacian_energy(self, sweep_1d):
        u_inf = sweep_1d["u_inf"].field
        vals = {c: c * c * nr.optimality_functional(u_inf, c) for c in (16.0, 32.0, 64.0)}
        assert vals[16.0] < vals[32.0] < vals[64.0]
        assert abs(vals[64.0] - 28.0 / 15.0) <= 0.02 * 28.0 / 15.0


class TestBootstrapRatio:
    def test_bounded_across_sweep(self, sweep_1d):
        ratios = [r.diff_norms[3.0] / (r.diff_norms[0.5] + 1.0 / r.c**2) for r in sweep_1d["records"]]
        assert max(ratios) / min(ratios) <= 3.0


class TestSobolevLadder:
    def test_hartree_sequence(self):
        assert nr.sobolev_ladder(3, nr.hartree(), 4) == [0.5, 1.5, 2.5, 3.5, 4.5]

    @pytest.mark.parametrize("n", [1, 2])
    def test_hartree_dimension_rule_is_the_nonlinearity_s(self, n):
        with pytest.raises(ValueError) as ladder:
            nr.sobolev_ladder(n, nr.hartree(), 4)
        with pytest.raises(ValueError) as spec:
            nr.hartree().validate_dimension(n)
        assert str(ladder.value) == str(spec.value)

    def test_cubic_one_dimensional(self):
        # variational exponent 4: recursion jumps to 3/2, then unit steps
        assert nr.sobolev_ladder(1, nr.power(3), 4) == [0.5, 1.5, 2.5, 3.5, 4.5]

    @pytest.mark.parametrize("p", range(3, 10))
    def test_one_dimensional_closed_form(self, p):
        # the recursion s_1 = 1 - n(q-2)/2 + (q-1)/2 with n = 1 is 3/2 for every q = p + 1, above n/2 = 1/2
        assert nr.sobolev_ladder(1, nr.power(p), 6) == [k + 0.5 for k in range(7)]

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            nr.sobolev_ladder(2, nr.power(3), 3)
        with pytest.raises(ValueError):
            nr.sobolev_ladder(3, nr.power(3), 3)

    def test_count_validation(self):
        for count in (0, True, 2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="count must be an integer >= 1"):
                nr.sobolev_ladder(1, nr.power(3), count)
        assert nr.sobolev_ladder(1, nr.power(3), np.int64(2)) == [0.5, 1.5, 2.5]


def test_sweep_refuses_the_two_dimensional_cubic_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("sweep solved before refusing")

    monkeypatch.setattr(nr.limit_lab, "solve", no_solve)
    with pytest.raises(ValueError, match="at finite c"):
        nr.sweep([4.0, 8.0], [1.0], nr.power(3), u_inf=stand_in_reference(nr.make_grid(2, 32.0, 64)))


class TestUniformBoundTable:
    def test_from_sweep_records(self, sweep_1d):
        orders = (0.5, 1.0, 2.0, 3.0)
        norms = np.array([[r.sup_norms[s] for s in orders] for r in sweep_1d["records"]])
        assert [r.c for r in sweep_1d["records"]] == [4.0, 8.0, 16.0, 32.0, 64.0]
        assert np.all(np.isfinite(norms))
        for row in norms:
            assert all(a <= b * (1 + 1e-12) for a, b in zip(row, row[1:]))
        u_inf = sweep_1d["u_inf"].field
        for j, s in enumerate(orders):
            assert norms[:, j].max() <= 1.5 * nr.sobolev_norm(u_inf, s)

    def test_low_order_column_uniform(self, sweep_1d):
        col = [r.sup_norms[0.5] for r in sweep_1d["records"]]
        assert max(col) / min(col) <= 1.2
