"""Acquisition functions for Bayesian optimization (maximisation).

All three classics, operating on posterior (mean, std) arrays so the
GP is queried once per decision regardless of how many acquisitions
the GP-Hedge portfolio is running.
"""

from __future__ import annotations

import math

import numpy as np


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, through :func:`math.erfc`.

    ``erfc`` of the negated argument keeps full relative precision in
    the lower tail, where ``1 + erf`` would cancel to zero.
    """
    z = np.asarray(z, dtype=float)
    flat = [0.5 * math.erfc(-v / math.sqrt(2)) for v in z.ravel().tolist()]
    return np.array(flat, dtype=float).reshape(z.shape)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, elementwise (scipy's ``norm.pdf`` expression)."""
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI: expected amount by which a point beats the incumbent.

    Parameters
    ----------
    mean, std:
        GP posterior at the candidate points.
    best:
        Incumbent (best observed utility).
    xi:
        Exploration margin added to the incumbent.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    improvement = mean - best - xi
    z = improvement / std
    return improvement * _norm_cdf(z) + std * _norm_pdf(z)


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """PI: probability a point beats the incumbent by at least ``xi``."""
    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    return _norm_cdf((mean - best - xi) / std)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, best: float = 0.0, kappa: float = 2.0
) -> np.ndarray:
    """UCB: optimism in the face of uncertainty, ``μ + κσ``.

    ``best`` is accepted (and ignored) so all acquisitions share one
    call signature.
    """
    return np.asarray(mean, dtype=float) + kappa * np.asarray(std, dtype=float)
