import math
import warnings

import numpy as np
import pytest

from sebd.analysis import (
    NU_RANGE,
    AnalysisError,
    collapse_objective,
    data_collapse,
    fit_tau,
)


class TestFitTau:
    def test_clean_exponential(self):
        t = np.arange(40)
        fit = fit_tau(np.exp(-t / 5.0), l_x=10)
        assert abs(fit.tau - 5.0) < 1e-6
        assert fit.residual < 1e-10
        assert fit.n_points == 11

    def test_noisy_exponential(self):
        rng = np.random.default_rng(11)
        t = np.arange(60)
        series = 0.9 * np.exp(-t / 3.0) + rng.normal(0.0, 1e-4, size=60)
        fit = fit_tau(series, l_x=4)
        assert abs(fit.tau - 3.0) / 3.0 < 0.02

    def test_default_window_from_strip_length(self):
        t = np.arange(30)
        fit = fit_tau(np.exp(-t / 4.0), l_x=8)
        assert (fit.row_lo, fit.row_hi) == (8, 16)
        assert abs(fit.tau - 4.0) < 1e-6

    def test_constant_series_rejected(self):
        with pytest.raises(AnalysisError, match="unbounded"):
            fit_tau(np.full(20, 0.3), l_x=6)

    def test_floor_filtering_and_empty_window(self):
        series = np.concatenate([np.exp(-np.arange(10) / 2.0), np.zeros(10)])
        fit = fit_tau(series, l_x=5)
        assert abs(fit.tau - 2.0) < 1e-6
        assert fit.n_points == 5
        with pytest.raises(AnalysisError, match="empty"):
            fit_tau(np.zeros(20), l_x=5)
        with pytest.raises(AnalysisError, match="outside"):
            fit_tau(np.exp(-np.arange(10) / 2.0), l_x=5)


def planted_points(eps_c=0.05, nu=1.3, sizes=(8, 12, 16, 24)):
    pts = []
    for ell in sizes:
        for eps in np.linspace(0.01, 0.09, 17):
            pts.append((eps, ell, math.tanh((eps - eps_c) * ell ** (1.0 / nu))))
    return pts


class TestDataCollapse:
    def test_planted_crossing_recovered(self):
        fit, _ = data_collapse(planted_points())
        assert fit.identifiable
        assert abs(fit.eps_c - 0.05) / 0.05 < 0.05
        assert abs(fit.nu - 1.3) / 1.3 < 0.10

    def test_error_box_contains_optimum(self):
        fit, _ = data_collapse(planted_points())
        eps_lo, eps_hi, nu_lo, nu_hi = fit.box
        assert eps_lo <= fit.eps_c <= eps_hi
        assert nu_lo <= fit.nu <= nu_hi

    def test_constant_data_non_identifiable(self):
        pts = [(e, ell, 0.7) for ell in (8, 16) for e in np.linspace(0.01, 0.09, 9)]
        fit, _ = data_collapse(pts)
        assert not fit.identifiable
        assert fit.r_min < 1e-18

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(AnalysisError, match="three"):
            data_collapse([(0.01, 8, 0.2), (0.02, 16, 0.3)])
        with pytest.raises(AnalysisError, match="distinct"):
            data_collapse([(0.01, 8, 0.2), (0.02, 8, 0.3), (0.03, 8, 0.4)])

    def test_argmin_invariances(self):
        pts = planted_points(sizes=(8, 16))
        base, _ = data_collapse(pts)
        rng = np.random.default_rng(0)
        shuffled = [pts[i] for i in rng.permutation(len(pts))]
        assert data_collapse(shuffled)[0].eps_c == pytest.approx(base.eps_c, abs=1e-9)
        scaled = [(e, ell, 3.0 * y) for e, ell, y in pts]
        refit, _ = data_collapse(scaled)
        assert refit.eps_c == pytest.approx(base.eps_c, abs=1e-9)
        assert refit.nu == pytest.approx(base.nu, abs=1e-9)
        assert refit.r_min == pytest.approx(9.0 * base.r_min, rel=1e-6)

    def test_objective_scaling(self):
        arrs = (
            np.array([0.01, 0.03, 0.05, 0.07, 0.02, 0.04, 0.06, 0.08]),
            np.array([8.0, 8.0, 8.0, 8.0, 16.0, 16.0, 16.0, 16.0]),
            np.array([0.1, 0.3, 0.6, 0.8, 0.05, 0.35, 0.75, 0.9]),
        )
        r1 = collapse_objective(arrs, 0.05, 1.3)
        r2 = collapse_objective((arrs[0], arrs[1], 2.0 * arrs[2]), 0.05, 1.3)
        assert r2 == pytest.approx(4.0 * r1, rel=1e-12)

    def test_grid_dump(self):
        fit, (eps_grid, nu_grid, r) = data_collapse(planted_points(sizes=(8, 16)))
        assert r.shape == (len(eps_grid), len(nu_grid))
        assert r.min() >= 0.0
        assert fit.r_min <= r.min() + 1e-15


    def test_grid_minimum_at_the_top_nu_edge_warns_nothing(self):
        # size-independent data collapse best at the largest nu; the grid's
        # last nu, 2.000000000000001, lies past NU_RANGE, and a Nelder-Mead
        # start there used to make scipy warn OptimizeWarning on every fit
        pts = [
            (0.01 * k, ell, math.tanh(0.1 * k - 0.3) + 0.001 * k * k)
            for ell in (4, 8)
            for k in range(1, 7)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit, (_, nu_grid, r) = data_collapse(pts)
        assert nu_grid[np.unravel_index(np.argmin(r), r.shape)[1]] > NU_RANGE[1]
        assert fit.nu == NU_RANGE[1]
