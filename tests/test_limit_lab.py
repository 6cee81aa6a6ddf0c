from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh, null_space, orth

import nrlimit as nr
from nrlimit.limit_lab import ConvergenceRecord, _lanczos_smallest
from oracles import dense_gap_fd

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

    def test_projection_pythagoras(self, sweep_1d):
        u_inf = sweep_1d["u_inf"]
        ref_sq = nr.sobolev_norm(u_inf.field, 1.0) ** 2
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

    def test_validation(self, grid1d):
        with pytest.raises(ValueError):
            nr.sweep([8.0, 4.0], [1.0], nr.power(3), grid1d)
        with pytest.raises(ValueError):
            nr.sweep([0.5], [1.0], nr.power(3), grid1d)
        with pytest.raises(ValueError):
            nr.sweep([], [1.0], nr.power(3), grid1d)

    def test_nonconvergence_aborts_with_partial_report(self, grid1d, u_inf_1d):
        starving = nr.SolverConfig(max_iterations=5)
        with pytest.raises(nr.SweepError) as info:
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), grid1d, starving, u_inf=u_inf_1d)
        assert info.value.records == []
        assert "4.0" in str(info.value)

    def test_partial_records_for_mixed_convergence(self, grid1d, u_inf_1d):
        # Cap the solver at the faster point's count: that point converges,
        # the other does not, whichever of the two it is.
        counts = {c: nr.solve(nr.pseudo_relativistic(c), nr.power(3), grid1d).iterations for c in (4.0, 8.0)}
        if counts[4.0] == counts[8.0]:
            pytest.skip("iteration counts do not separate the two points")
        fast, slow = sorted(counts, key=counts.get)
        cfg = nr.SolverConfig(max_iterations=counts[fast])
        with pytest.raises(nr.SweepError) as info:
            nr.sweep([4.0, 8.0], [1.0], nr.power(3), grid1d, cfg, u_inf=u_inf_1d)
        assert [r.c for r in info.value.records] == [fast]
        assert str(slow) in str(info.value)
        assert str(fast) not in str(info.value)

    def test_threaded_sweep_matches_serial(self, grid1d, u_inf_1d):
        serial = nr.sweep([4.0, 8.0], [1.0], nr.power(3), grid1d, u_inf=u_inf_1d)
        threaded = nr.sweep([4.0, 8.0], [1.0], nr.power(3), grid1d, u_inf=u_inf_1d, threads=2)
        for a, b in zip(serial, threaded):
            assert a.c == b.c
            assert a.diff_norms == b.diff_norms

    def test_threaded_sweep_matches_serial_on_the_matrix_route(self):
        # a 32^3 octant axis has 17 points: concurrent solves share the cached
        # DCT-I matrix and call BLAS from two threads at once
        grid = nr.make_grid(3, 16.0, 32)
        u_inf = nr.solve(nr.nonrelativistic(), nr.hartree(), grid)
        serial = nr.sweep([4.0, 8.0], [0.5, 1.0], nr.hartree(), grid, u_inf=u_inf)
        threaded = nr.sweep([4.0, 8.0], [0.5, 1.0], nr.hartree(), grid, u_inf=u_inf, threads=2)
        assert threaded == serial


class TestSobolevOrderRange:
    """The orders a sweep records lie in [-4, 8], both ends included, as in
    `sobolev_norm` and the CLI's analysis.s_list."""

    @pytest.mark.parametrize("s", [100.0, float("nan"), -4.5])
    def test_sweep_rejects_order_before_any_solve(self, monkeypatch, s):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep solved before checking its orders")

        monkeypatch.setattr(nr.limit_lab, "solve", no_solve)
        with pytest.raises(ValueError, match="Sobolev order"):
            nr.sweep([4.0, 8.0], [1.0, s], nr.power(3), SMALL)

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
            assert np.isclose(norm, nr.sobolev_norm(u, s), rtol=1e-12, atol=0.0)


class TestFitRate:
    def test_exact_inverse_square(self):
        records = synthetic_records([2.0, 4.0, 8.0, 16.0], lambda c: 7.0 / c**2)
        fit = nr.fit_rate(records, 1.0)
        assert np.isclose(fit.slope, -2.0, atol=1e-12)
        assert np.isclose(fit.A_hat, 7.0) and np.isclose(fit.B_hat, 7.0)

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
        # the record reads the residual on the octant, the public function on the full lattice
        for c in (4.0, 8.0, 16.0, 32.0, 64.0):
            u_c = nr.solve(nr.pseudo_relativistic(c), nr.power(3), grid1d).field
            record = nr.convergence_record(u_c, u_inf_1d.field, c, [1.0])
            assert record.h_minus1_residual == pytest.approx(nr.h_minus1_residual(u_c, c), rel=1e-12)

    def test_scaled_stability_on_sweep(self, sweep_1d):
        vals = [r.c**2 * r.h_minus1_residual for r in sweep_1d["records"] if r.c in (16.0, 32.0, 64.0)]
        assert len(vals) == 3
        assert max(vals) / min(vals) <= 1.05


class TestNondegeneracyGap:
    def test_algebraic_identity_at_reference_state(self, u_inf_1d):
        assert nr.linearization_identity_residual(u_inf_1d.field, nr.power(3)) <= 1e-8

    def test_identity_convolves_the_hartree_density_once(self, transform_counts):
        # on the octant: (1 + |xi|^2) u forward and back, one Coulomb
        # convolution of u^2; the H^2 norm reuses the forward coefficients
        u = nr.SpectralField(SMALL3, np.exp(-0.5 * SMALL3.radius_sq()))
        nr.linearization_identity_residual(u, nr.hartree())
        assert transform_counts["complex"] == transform_counts["rfftn"] == transform_counts["irfftn"] == 0
        assert transform_counts["dct"] <= 5

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

    def test_hartree_gap_positive(self, sweep_3d):
        gap = nr.nondegeneracy_gap(sweep_3d["u_inf"].field, nr.hartree())
        assert gap > 0.0

    def test_step_cap_raises_naming_steps_and_residual(self, monkeypatch, sech_exact):
        monkeypatch.setattr(nr.limit_lab, "LANCZOS_MAX_STEPS", 3)
        with pytest.raises(nr.GapEigensolveError, match=r"in 3 steps \(residual estimate \d\.\d{3}e[-+]\d+"):
            nr.nondegeneracy_gap(sech_exact, nr.power(3))

    def test_gap_does_not_load_scipy(self):
        # the import budget of a CLI process: scipy.sparse.linalg alone costs
        # about 0.45 s and 32 MB of start-up, numpy.random about 15 ms, and
        # concurrent.futures (with logging) about 8 ms; only --threads > 1 needs it
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


class TestLanczosSmallest:
    def test_diagonal_spectrum_with_negative_minimum(self):
        spectrum = np.concatenate([[-0.37], np.linspace(0.1, 4.0, 500)])
        v0 = np.random.default_rng(3).standard_normal(spectrum.size)
        theta = _lanczos_smallest(lambda z: spectrum * z, v0, 1e-10)
        assert abs(theta - spectrum[0]) <= 1e-12 * abs(spectrum[0])

    def test_invariant_subspace_is_exact(self):
        # v0 spans two eigenvectors, so the second step ends on beta = 0
        spectrum = np.array([2.0, -1.5, 3.0, 0.5])
        theta = _lanczos_smallest(lambda z: spectrum * z, np.array([1.0, 1.0, 0.0, 0.0]), 1e-300)
        assert theta == pytest.approx(-1.5, rel=1e-15)


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
        u_inf = sweep_1d["u_inf"].field
        c_values = [4.0, 8.0, 16.0, 32.0, 64.0]
        before = transform_counts["dct"]
        forms = nr.optimality_forms(u_inf, c_values)
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
        assert nr.sobolev_ladder(3, None, "hartree", 4) == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_cubic_one_dimensional(self):
        # variational exponent 4: recursion jumps to 3/2, then unit steps
        assert nr.sobolev_ladder(1, 4, "power", 4) == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_quadratic_recursions(self):
        assert nr.sobolev_ladder(1, 3, "power", 3) == [0.5, 1.5, 2.5, 3.5]
        perturbed = nr.sobolev_ladder(2, 3, "power", 3)
        assert perturbed[0] == 0.5
        assert np.isclose(perturbed[1], 1.0 - 1e-3)
        assert np.isclose(perturbed[2], 2.0 * (1.0 - 1e-3))
        assert np.isclose(perturbed[3], perturbed[2] + 1.0)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            nr.sobolev_ladder(2, 4, "power", 3)
        with pytest.raises(ValueError):
            nr.sobolev_ladder(3, 4, "power", 3)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            nr.sobolev_ladder(1, 4, "power", 0)


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
