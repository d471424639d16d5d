"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own solution paths:
conjugates come from dense grid minimization, scalar Riccati roots from
numpy's polynomial root finder with a stability-based selection, Gaussian
tails from scipy.  Expected values asserted in the tests were computed
with these oracles (or by hand from the defining formulas) and frozen.
"""

import math

import numpy as np
import pytest

from growthtail import (
    BlackScholesModel,
    LinearFactor1D,
    PlatenRebolledo,
)


@pytest.fixture
def bs():
    return BlackScholesModel(b=0.1, sigma=0.2)


@pytest.fixture
def pr():
    return PlatenRebolledo(K=-0.5, sigma_norm=0.2)


@pytest.fixture
def lg_rho0():
    # beta = 2, theta_bar = 0.5
    return LinearFactor1D(K=-1.0, B1=1.0, B0=0.5, sigma_norm=1.0, gamma_norm=1.0, rho=0.0)


@pytest.fixture
def lg_rho05():
    return LinearFactor1D(K=-1.2, B1=0.8, B0=0.4, sigma_norm=0.9, gamma_norm=1.1, rho=0.5)


def conjugate_oracle(evaluate, theta_lo, theta_hi, ell, n=400001):
    """inf over a dense theta grid of Lambda(theta) - theta*ell."""
    thetas = np.linspace(theta_lo, theta_hi, n)
    vals = np.array([evaluate(t) for t in thetas]) - thetas * ell
    return float(vals.min())


def _scalar_riccati_coefficients(model: LinearFactor1D, theta: float):
    # (M, Kt, N) of the scalar quadratic 0.5*M c^2 + Kt c + N = 0
    t1 = theta / (1.0 - theta)
    s, g, rho = model.sigma_norm, model.gamma_norm, model.rho
    M = g**2 * (1.0 + t1 * rho**2)
    Kt = model.K + t1 * rho * g * model.B1 / s
    N = 0.5 * t1 * model.B1**2 / s**2
    return M, Kt, N


def closed_loop_drift(model: LinearFactor1D, theta: float, c: float) -> float:
    """Closed-loop factor drift Kt + M c at theta; negative means ergodic."""
    M, Kt, _ = _scalar_riccati_coefficients(model, theta)
    return Kt + M * c


def scalar_riccati_oracle(model: LinearFactor1D, theta: float) -> float:
    """Stabilizing root of the scalar Riccati quadratic, selected by stability.

    Builds the quadratic 0.5*M c^2 + Kt c + N = 0 from first principles and
    returns the root making Kt + M c negative.
    """
    M, Kt, N = _scalar_riccati_coefficients(model, theta)
    roots = np.roots([0.5 * M, Kt, N])
    roots = roots[np.abs(roots.imag) < 1e-9].real
    stable = [c for c in roots if Kt + M * c < 1e-12]
    assert stable, f"no stabilizing root at theta={theta}"
    return float(min(stable, key=lambda c: Kt + M * c) if len(stable) > 1 else stable[0])


def gaussian_tail(z: float) -> float:
    from scipy.stats import norm

    return float(norm.sf(z))


def bs_tail_oracle(model: BlackScholesModel, pi: float, ell: float, T: float, upside=True) -> float:
    """Exact Gaussian tail of the average growth rate under a constant fraction."""
    mean = model.b * pi - model.sigma**2 * pi**2 / 2.0
    sd = model.sigma * abs(pi) / math.sqrt(T)
    z = (ell - mean) / sd
    return gaussian_tail(z) if upside else gaussian_tail(-z)


def ls_slope(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))
