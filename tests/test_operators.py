from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrlimit as nr
from nrlimit import operators
from nrlimit.cli import SYMBOL_C_GRID
from conftest import random_field
from oracles import dense_symbol_gap_scan, multiplier_quadrature_reference

SMALL = nr.make_grid(1, 16.0, 64)


class TestSpec:
    def test_rejects_small_c(self):
        with pytest.raises(ValueError):
            nr.pseudo_relativistic(0.5)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            nr.OperatorSpec("galilean")

    @pytest.mark.parametrize("c", [True, "2", None, 4.0j], ids=["true", "str", "none", "complex"])
    def test_light_speed_must_be_a_real_number(self, c):
        with pytest.raises(ValueError, match="light-speed parameter must be a real number"):
            nr.OperatorSpec("pseudo_relativistic", c)

    @pytest.mark.parametrize("c", [True, "4", 10**400], ids=["true", "str", "huge"])
    def test_builder_refuses_what_float_would_take(self, c):
        with pytest.raises(ValueError, match="light-speed parameter must be"):
            nr.pseudo_relativistic(c)

    @pytest.mark.parametrize(
        "c", [0.5, 4.0, -np.inf, np.nan, "x", None], ids=["0.5", "4", "-inf", "nan", "str", "none"]
    )
    def test_nonrelativistic_kind_refuses_every_finite_or_unreal_c(self, c):
        with pytest.raises(ValueError, match=r"light-speed parameter .*" + re.escape(repr(c)) + "$"):
            nr.OperatorSpec("nonrelativistic", c)

    @pytest.mark.parametrize("c", [np.inf, np.float32(np.inf), float("inf")])
    def test_nonrelativistic_kind_stores_c_inf_as_float(self, c):
        spec = nr.OperatorSpec("nonrelativistic", c)
        assert spec == nr.nonrelativistic()
        assert type(spec.c) is float

    @pytest.mark.parametrize("c", [4, np.int64(4), np.float32(4.0), 4.0])
    def test_light_speed_is_stored_as_float(self, c):
        for spec in (nr.OperatorSpec("pseudo_relativistic", c), nr.pseudo_relativistic(c)):
            assert spec == nr.pseudo_relativistic(4.0)
            assert type(spec.c) is float


class TestSymbol:
    def test_zero_frequency_is_one(self):
        for c in (1.0, 3.0, 64.0, 1e4):
            assert nr.symbol(nr.pseudo_relativistic(c), 0.0) == 1.0

    def test_closed_form_value(self):
        assert np.isclose(nr.symbol(nr.pseudo_relativistic(2.0), 1.0), 2.0 * np.sqrt(2.0) - 1.0, rtol=1e-14)

    def test_nonrelativistic_branch(self):
        assert nr.symbol(nr.nonrelativistic(), 3.0) == 4.0

    def test_strictly_increasing(self):
        t = np.linspace(0.0, 400.0, 4001)
        for spec in (nr.nonrelativistic(), nr.pseudo_relativistic(1.0), nr.pseudo_relativistic(50.0)):
            vals = nr.symbol(spec, t)
            assert np.all(np.diff(vals) > 0)

    def test_ordering_between_kinds(self):
        t = np.linspace(0.0, 1.0e4, 20001)
        for c in (1.0, 2.0, 8.0, 32.0, 128.0):
            p = nr.symbol(nr.pseudo_relativistic(c), t)
            assert np.all(1.0 + t - p >= 0.0)
            assert np.all(p >= 0.5 * np.sqrt(1.0 + t))

    def test_matches_naive_form_at_moderate_scale(self):
        t = np.linspace(0.1, 50.0, 500)
        c = 3.0
        naive = np.sqrt(c * c * t + 0.25 * c**4) - 0.5 * c * c + 1.0
        assert np.allclose(nr.symbol(nr.pseudo_relativistic(c), t), naive, rtol=1e-12)

    def test_rejects_negative_frequency_square(self):
        with pytest.raises(ValueError):
            nr.symbol(nr.nonrelativistic(), -1.0)


class TestSymbolDefect:
    def test_nonnegative_and_exact(self):
        t = np.linspace(0.0, 100.0, 1001)
        for c in (1.0, 10.0, 128.0):
            d = nr.symbol_defect(nr.pseudo_relativistic(c), t)
            assert np.all(d >= 0.0)
            naive = (1.0 + t) - nr.symbol(nr.pseudo_relativistic(c), t)
            assert np.allclose(d, naive, atol=1e-9, rtol=1e-6)

    def test_fourth_order_bound(self):
        # |P_c - (1+|xi|^2)| <= 1.01 |xi|^4 / c^2 whenever c >= 10 |xi|
        for c in (10.0, 40.0, 200.0):
            xi = np.linspace(1e-3, c / 10.0, 500)
            t = xi * xi
            d = nr.symbol_defect(nr.pseudo_relativistic(c), t)
            assert np.all(d <= 1.01 * t * t / (c * c))

    def test_zero_for_nonrelativistic(self):
        assert np.all(nr.symbol_defect(nr.nonrelativistic(), np.array([0.0, 2.0])) == 0.0)


class TestApplyMultiplier:
    def test_single_mode_forward(self):
        g = nr.make_grid(1, 32.0, 1024)
        x = g.coordinates()[0]
        f = nr.SpectralField(g, np.cos(2 * np.pi * x / g.length))
        out = nr.apply_multiplier(f, nr.nonrelativistic())
        factor = 1.0 + (2 * np.pi / g.length) ** 2
        assert np.max(np.abs(out.values - factor * f.values)) < 1e-11

    def test_inverse_then_forward_is_identity(self):
        rng = np.random.default_rng(10)
        spec = nr.pseudo_relativistic(3.0)
        for _ in range(100):
            f = random_field(SMALL, rng)
            back = nr.apply_multiplier(nr.apply_multiplier(f, spec, "inverse_of_symbol"), spec, "forward")
            assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_output_matches_input_representation(self):
        rng = np.random.default_rng(11)
        f = random_field(SMALL, rng)
        assert nr.apply_multiplier(f, nr.nonrelativistic()).space == "real"
        fh = nr.transform(f, "forward")
        assert nr.apply_multiplier(fh, nr.nonrelativistic()).space == "freq"

    def test_relativistic_action_on_soliton_vs_quadrature(self, grid1d, sech_exact):
        c = 10.0
        out = nr.apply_multiplier(sech_exact, nr.pseudo_relativistic(c))
        ref = multiplier_quadrature_reference(grid1d.coordinates()[0], c)
        err = np.sqrt(np.sum((out.values - ref) ** 2) * grid1d.dx)
        assert err < 5e-6  # box-truncation floor of the periodized soliton

        # distance from the nonrelativistic operator is controlled by |xi|^4/c^2
        nonrel = nr.apply_multiplier(sech_exact, nr.nonrelativistic())
        dist = np.sqrt(np.sum((out.values - nonrel.values) ** 2) * grid1d.dx)
        coeff = nr.transform(sech_exact, "forward").values
        fourth = np.sqrt(np.sum((grid1d.xi_sq**2 * np.abs(coeff)) ** 2) / grid1d.volume)
        assert dist <= 2e-2 * fourth

    def test_rejects_bad_mode(self):
        f = nr.SpectralField(SMALL, np.ones(SMALL.shape))
        with pytest.raises(ValueError):
            nr.apply_multiplier(f, nr.nonrelativistic(), "backward")


class TestSymbolGapRatio:
    def test_at_c_one(self, grid1d):
        ratio = nr.symbol_gap_ratio(nr.pseudo_relativistic(1.0), grid1d)
        assert ratio >= 0.5
        assert np.isclose(ratio, 1.0, atol=1e-12)  # the zero mode attains the minimum

    def test_large_c_small_lattice(self):
        g = nr.make_grid(1, 32.0, 64)
        assert nr.symbol_gap_ratio(nr.pseudo_relativistic(100.0), g) >= 0.9

    def test_nonrelativistic_minimum_is_one(self, grid1d):
        assert np.isclose(nr.symbol_gap_ratio(nr.nonrelativistic(), grid1d), 1.0, atol=1e-14)

    def test_dense_scan_agrees(self):
        for c in (1.0, 4.0, 64.0):
            assert nr.symbol_gap_scan(nr.pseudo_relativistic(c)) >= 0.5


class TestSymbolGapScan:
    @pytest.mark.parametrize("samples", [16_383, 16_384, 16_385, 200_001])
    def test_blocked_scan_is_bit_identical_to_one_array(self, samples, monkeypatch):
        specs = [nr.pseudo_relativistic(c) for c in SYMBOL_C_GRID]
        for spec in specs:
            assert nr.symbol_gap_scan(spec, samples=samples) == dense_symbol_gap_scan(spec, samples=samples)
        # The true ratio is smallest at xi = 0, the first sample.  A stand-in
        # whose smallest ratio sits at an interior sample and moves with every
        # sample value checks the samples and the minimum too.
        monkeypatch.setattr(operators, "symbol", lambda spec, t: np.sqrt(1.0 + t) * np.cos(t / spec.c))
        for spec in specs:
            scanned = nr.symbol_gap_scan(spec, samples=samples)
            assert scanned == dense_symbol_gap_scan(spec, samples=samples) < 0.0

    def test_last_sample_is_xi_max(self, monkeypatch):
        # 15 * (1000 / 15) rounds away from 1000, and np.linspace ends on 1000 itself
        monkeypatch.setattr(operators, "symbol", lambda spec, t: -t)
        spec = nr.pseudo_relativistic(4.0)
        scanned = nr.symbol_gap_scan(spec, samples=16)
        assert scanned == dense_symbol_gap_scan(spec, samples=16) == -1.0e6 / np.sqrt(1.0 + 1.0e6)

    def test_nan_ratio_propagates_as_in_one_array(self):
        # |xi| above 1.35e154 squares to infinity and the ratio to NaN: the last tenth of the samples
        spec = nr.pseudo_relativistic(4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(dense_symbol_gap_scan(spec, xi_max=1.5e154, samples=49_152))
            assert np.isnan(nr.symbol_gap_scan(spec, xi_max=1.5e154, samples=49_152))

    def test_single_sample_is_the_zero_frequency(self):
        assert nr.symbol_gap_scan(nr.pseudo_relativistic(4.0), samples=1) == 1.0

    def test_takes_numpy_integer_samples(self):
        spec = nr.pseudo_relativistic(4.0)
        assert nr.symbol_gap_scan(spec, samples=np.int64(16)) == nr.symbol_gap_scan(spec, samples=16)

    @pytest.mark.parametrize("samples", [0, -3, 2.0, True])
    def test_rejects_samples_that_are_not_a_positive_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            nr.symbol_gap_scan(nr.pseudo_relativistic(4.0), samples=samples)

    @pytest.mark.parametrize("xi_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_xi_max_that_is_not_finite_and_positive(self, xi_max):
        with pytest.raises(ValueError, match="xi_max must be finite and > 0"):
            nr.symbol_gap_scan(nr.pseudo_relativistic(4.0), xi_max=xi_max)


class TestProvenMinRatio:
    """The symbol table's dense minimum, `operators._proven_min_ratio`, against its two witnesses."""

    @pytest.mark.parametrize("c", sorted({1.0, *SYMBOL_C_GRID}))
    def test_equals_both_dense_scans(self, c):
        spec = nr.pseudo_relativistic(c)
        assert operators._proven_min_ratio(spec) == nr.symbol_gap_scan(spec) == dense_symbol_gap_scan(spec) == 1.0

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        c=st.one_of(st.just(1.0), st.floats(1.0, 1.0e4)),
        xi=st.one_of(st.floats(0.0, 1.0e3), st.floats(1.0e-12, 1.0e-3)),
    )
    def test_identity_and_its_sign(self, c, xi):
        # P^2 - 1 - t = c^2 (x - 1) [(c^2 - 1)(x - 1) + 1] with t = |xi|^2 and
        # x - 1 = t / D, written so that no term cancels
        spec = nr.pseudo_relativistic(c)
        t = xi * xi
        y = t / operators._sqrt_denominator(c, t)
        excess = c * c * y * ((c * c - 1.0) * y + 1.0)
        p = nr.symbol(spec, t)
        assert excess >= 0.0
        assert abs(p * p - (1.0 + t + excess)) <= 16.0 * np.spacing(p * p)
        assert p / np.sqrt(1.0 + t) >= operators._proven_min_ratio(spec) - 2.0 * np.finfo(float).eps


class TestTaylorResidual:
    def test_unit_frequency_mode_value(self):
        # mode |xi| = 1 at c = 10: c^2 (2 - (sqrt(2600) - 49)) = 100 (51 - sqrt(2600))
        g = nr.make_grid(1, 2.0 * np.pi, 64)
        val = nr.taylor_residual(nr.pseudo_relativistic(10.0), g, 0.1)
        assert np.isclose(val, 100.0 * (51.0 - np.sqrt(2600.0)), rtol=1e-12)
        assert np.isclose(val, 0.9804864072151, rtol=1e-9)

    def test_large_c_limit_is_one(self, grid1d):
        val = nr.taylor_residual(nr.pseudo_relativistic(1.0e4), grid1d, 0.1)
        assert abs(val - 1.0) < 1e-6

    def test_empty_window_rejected(self, grid1d):
        # smallest nonzero |xi| on L=32 is 2 pi / 32 ~ 0.196 > 0.1 * 1
        with pytest.raises(ValueError):
            nr.taylor_residual(nr.pseudo_relativistic(1.0), grid1d, 0.1)

    @pytest.mark.parametrize("cutoff", ["0.25", None, True], ids=["str", "none", "bool"])
    def test_cutoff_must_be_a_real_number(self, grid1d, cutoff):
        with pytest.raises(ValueError, match="cutoff_fraction must be a real number"):
            nr.taylor_residual(nr.pseudo_relativistic(10.0), grid1d, cutoff)

    def test_cutoff_and_kind_validation(self, grid1d):
        with pytest.raises(ValueError):
            nr.taylor_residual(nr.pseudo_relativistic(10.0), grid1d, 0.6)
        with pytest.raises(ValueError):
            nr.taylor_residual(nr.nonrelativistic(), grid1d, 0.1)
