"""Acquisition-function tests."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.core.bayesian.acquisition import (
    _norm_cdf,
    _norm_pdf,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)

#: Dense core, both tails out to |z| = 38, where the lower-tail CDF is subnormal.
GRID = np.concatenate([np.linspace(-38.0, 38.0, 20001), np.linspace(-6.0, 6.0, 20001)])

PHI_0 = 1.0 / math.sqrt(2.0 * math.pi)
CDF_1 = 0.8413447460685429  # Phi(1)
PDF_1 = 0.24197072451914337  # phi(1)


class TestNormalHelpers:
    def test_pdf_matches_scipy_exactly(self):
        np.testing.assert_array_equal(_norm_pdf(GRID), norm.pdf(GRID))

    def test_cdf_matches_scipy_to_rounding(self):
        cdf = _norm_cdf(GRID)
        np.testing.assert_allclose(cdf, norm.cdf(GRID), rtol=0.0, atol=4.5e-16)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    def test_cdf_keeps_shape(self):
        assert _norm_cdf(np.zeros((2, 3))).shape == (2, 3)
        assert _norm_cdf(np.float64(0.0)).shape == ()

    @pytest.mark.parametrize(
        "mean, std, best, want_ei, want_pi",
        [
            # z = 0: EI = phi(0), PI = 1/2.
            (1.0, 1.0, 1.0, PHI_0, 0.5),
            # z = 1 at two scales: EI = std * (Phi(1) + phi(1)).
            (1.0, 1.0, 0.0, CDF_1 + PDF_1, CDF_1),
            (3.0, 2.0, 1.0, 2.0 * (CDF_1 + PDF_1), CDF_1),
            # z = -2: EI = 0.5 * (phi(2) - 2 * Phi(-2)).
            (0.0, 0.5, 1.0, 0.004245351308414837, 0.022750131948179195),
        ],
    )
    def test_acquisitions_at_hand_checked_points(self, mean, std, best, want_ei, want_pi):
        ei = expected_improvement(np.array([mean]), np.array([std]), best=best, xi=0.0)
        pi = probability_of_improvement(np.array([mean]), np.array([std]), best=best, xi=0.0)
        assert ei[0] == pytest.approx(want_ei, rel=1e-14)
        assert pi[0] == pytest.approx(want_pi, rel=1e-14)


class TestExpectedImprovement:
    def test_non_negative(self):
        mean = np.array([-5.0, 0.0, 5.0])
        std = np.array([1.0, 1.0, 1.0])
        assert np.all(expected_improvement(mean, std, best=2.0) >= 0.0)

    def test_prefers_higher_mean_same_std(self):
        ei = expected_improvement(np.array([1.0, 3.0]), np.array([1.0, 1.0]), best=0.0)
        assert ei[1] > ei[0]

    def test_prefers_higher_std_same_mean(self):
        ei = expected_improvement(np.array([0.0, 0.0]), np.array([0.5, 2.0]), best=1.0)
        assert ei[1] > ei[0]

    def test_zero_std_no_improvement(self):
        ei = expected_improvement(np.array([1.0]), np.array([0.0]), best=2.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-9)

    def test_large_lead_approaches_mean_gap(self):
        ei = expected_improvement(np.array([10.0]), np.array([0.1]), best=0.0, xi=0.0)
        assert ei[0] == pytest.approx(10.0, rel=0.01)


class TestProbabilityOfImprovement:
    def test_bounded_unit_interval(self):
        mean = np.linspace(-5, 5, 11)
        std = np.ones(11)
        pi = probability_of_improvement(mean, std, best=0.0)
        assert np.all((pi >= 0.0) & (pi <= 1.0))

    def test_half_at_incumbent(self):
        pi = probability_of_improvement(np.array([1.0]), np.array([1.0]), best=1.0, xi=0.0)
        assert pi[0] == pytest.approx(0.5)

    def test_monotone_in_mean(self):
        pi = probability_of_improvement(np.array([0.0, 1.0, 2.0]), np.ones(3), best=1.0)
        assert pi[0] < pi[1] < pi[2]


class TestUCB:
    def test_formula(self):
        ucb = upper_confidence_bound(np.array([1.0]), np.array([2.0]), kappa=2.0)
        assert ucb[0] == pytest.approx(5.0)

    def test_ignores_best(self):
        a = upper_confidence_bound(np.array([1.0]), np.array([1.0]), best=0.0)
        b = upper_confidence_bound(np.array([1.0]), np.array([1.0]), best=100.0)
        assert a[0] == b[0]

    def test_kappa_zero_is_pure_exploitation(self):
        ucb = upper_confidence_bound(np.array([3.0, 1.0]), np.array([0.1, 9.0]), kappa=0.0)
        assert int(np.argmax(ucb)) == 0
