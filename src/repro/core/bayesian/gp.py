"""Gaussian-process regression.

A compact, numerically careful implementation sufficient for BO over a
small sliding window of observations (the paper limits the window to 20
points precisely so that "GP processing delay stays in the order of
milliseconds" — at that size a Cholesky factorisation is microseconds).

Targets are standardised internally; hyperparameters (length scale,
signal variance) are fitted by maximising the log marginal likelihood
over a small log-spaced grid, which is robust, deterministic, and cheap
for 1-D problems — gradient-based MLL optimisation would be overkill
and flakier under the noise levels transfer sampling produces.

:mod:`scipy.linalg` is imported inside the methods that use it, so
only a run that actually fits a GP pays scipy's import time.
"""

from __future__ import annotations

import numpy as np

from repro.core.bayesian.kernels import RBFKernel


class GaussianProcess:
    """GP posterior over a scalar function.

    Parameters
    ----------
    kernel:
        Covariance function (``RBFKernel`` or ``Matern52Kernel``).
    noise:
        Observation-noise standard deviation, in *standardised* target
        units (i.e. relative to the data's spread).
    """

    def __init__(self, kernel: RBFKernel | None = None, noise: float = 0.1) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.kernel = kernel or RBFKernel()
        self.noise = float(noise)
        self._x: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._cho = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, optimize: bool = True) -> "GaussianProcess":
        """Condition the GP on data; optionally refit hyperparameters.

        Parameters
        ----------
        x:
            ``(n,)`` or ``(n, d)`` inputs.
        y:
            ``(n,)`` targets.
        optimize:
            Grid-search the kernel hyperparameters by marginal
            likelihood before conditioning.
        """
        from scipy.linalg import cho_factor, cho_solve

        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] == 1 and x.shape[1] > 1:
            x = x.T
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.size:
            raise ValueError("x and y disagree on sample count")
        if y.size == 0:
            raise ValueError("cannot fit a GP to zero observations")

        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        self._x = x

        if optimize and y.size >= 3:
            self.kernel = self._fit_hyperparams(x, z)

        k = self.kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise**2 + 1e-8
        self._cho = cho_factor(k, lower=True)
        self._alpha = cho_solve(self._cho, z)
        return self

    def _fit_hyperparams(self, x: np.ndarray, z: np.ndarray):
        """Pick (length scale, variance) maximising log marginal likelihood."""
        span = float(x.max() - x.min()) or 1.0
        length_scales = span * np.array([0.05, 0.1, 0.2, 0.4, 0.8])
        variances = np.array([0.25, 1.0, 4.0])
        best, best_mll = self.kernel, -np.inf
        for ls in length_scales:
            for var in variances:
                candidate = self.kernel.with_params(length_scale=float(ls), variance=float(var))
                mll = self._log_marginal_likelihood(x, z, candidate)
                if mll > best_mll:
                    best, best_mll = candidate, mll
        return best

    def _log_marginal_likelihood(self, x: np.ndarray, z: np.ndarray, kernel) -> float:
        from scipy.linalg import cho_factor, cho_solve

        k = kernel(x, x)
        k[np.diag_indices_from(k)] += self.noise**2 + 1e-8
        try:
            cho = cho_factor(k, lower=True)
        except np.linalg.LinAlgError:
            return -np.inf
        alpha = cho_solve(cho, z)
        log_det = 2.0 * np.sum(np.log(np.diag(cho[0])))
        return float(-0.5 * z @ alpha - 0.5 * log_det - 0.5 * z.size * np.log(2 * np.pi))

    # -- prediction ---------------------------------------------------------------

    def predict(self, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at query points.

        Returns
        -------
        (mean, std):
            Arrays of shape ``(m,)`` in *original* target units.
        """
        from scipy.linalg import cho_solve

        if self._x is None:
            raise RuntimeError("predict() before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        if x_star.shape[0] == 1 and x_star.shape[1] > 1 and self._x.shape[1] == 1:
            x_star = x_star.T
        k_star = self.kernel(x_star, self._x)
        mean_z = k_star @ self._alpha
        v = cho_solve(self._cho, k_star.T)
        var_z = self.kernel(x_star, x_star).diagonal() - np.einsum("ij,ji->i", k_star, v)
        var_z = np.maximum(var_z, 1e-12)
        mean = mean_z * self._y_std + self._y_mean
        std = np.sqrt(var_z) * self._y_std
        return mean, std

    @property
    def n_observations(self) -> int:
        """Number of conditioning points."""
        return 0 if self._x is None else self._x.shape[0]
