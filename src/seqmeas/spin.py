"""Closed-form spin-1/2 reference values and operator/state presets.

The two-stage model with A = S_z, B = S_x and initial state |+><+| has
closed-form answers for every quantity the generic engines compute. The
formulas here are hard-coded from those displayed results (in numerically
stable but algebraically identical arrangements), deliberately bypassing
the generic code paths so they can serve as an independent oracle. The
three variance forms take scalars or numpy arrays, element by element.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import DensityMatrix, Observable, PureState
from .errors import DenominatorNonPositive, FirstFailure

_SQRT2 = float(np.sqrt(2.0))

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / _SQRT2
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / _SQRT2


# the three presets below are built on first use and shared; their arrays are read-only
@functools.cache
def s_z() -> Observable:
    """Spin-z operator, eigenvalues -1/2 and +1/2."""
    return Observable.from_matrix(np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex))


@functools.cache
def s_x() -> Observable:
    """Spin-x operator, eigenvalues -1/2 and +1/2."""
    return Observable.from_matrix(np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex))


@functools.cache
def plus_state() -> DensityMatrix:
    return DensityMatrix.pure(KET_PLUS)


def plus_pure() -> PureState:
    return PureState(KET_PLUS)


def rho1_closed(sigma1: float) -> DensityMatrix:
    """Post-first-measurement state in the S_z basis."""
    off = 0.5 * float(np.exp(-1.0 / (8.0 * sigma1 * sigma1)))
    return DensityMatrix(np.array([[0.5, off], [off, 0.5]], dtype=complex))


def _result(value):
    # scalar arguments give a Python float, array arguments an array
    return float(value) if np.ndim(value) == 0 else value


def var_sx_rho1_closed(sigma1):
    """Backaction-widened variance of S_x after the S_z stage."""
    return _result(0.25 * (1.0 - np.exp(-1.0 / (4.0 * sigma1 * sigma1))))


def rhobar1_closed(sigma1: float, x1: float) -> DensityMatrix:
    """Unnormalized conditional state after recording the first outcome.

    Literal matrix form; underflows to zero for |x1| many sigma out, which
    bounds its useful oracle range.
    """
    s2 = sigma1 * sigma1
    pref = 0.5 * (2.0 * np.pi * s2) ** -0.5 * np.exp(-(x1 * x1 + 0.25) / (2.0 * s2))
    up = np.exp(x1 / (2.0 * s2))
    matrix = pref * np.array([[up, 1.0], [1.0, 1.0 / up]], dtype=complex)
    return DensityMatrix(matrix)


def cond_mean_closed(sigma1: float, x1: float) -> float:
    """Conditional mean of the second outcome given the first; in (0, 1/2]."""
    return 1.0 / (2.0 * float(np.cosh(x1 / (2.0 * sigma1 * sigma1))))


def cond_moments_closed(sigma1: float, sigma2: float, x1: float) -> tuple[float, float, float]:
    """(mean, second moment, variance) of the second outcome given the first."""
    mean = cond_mean_closed(sigma1, x1)
    second = 0.25 + sigma2 * sigma2
    return mean, second, second - mean * mean


def var_sx_given_sz_closed(sigma1, x1):
    """Extracted conditional variance of S_x given the first outcome."""
    t = np.tanh(x1 / (2.0 * sigma1 * sigma1))
    return _result(0.25 * t * t)


def var_sz_given_sx_closed(sigma1, sigma2, x2):
    """Extracted conditional variance of S_z given the second outcome.

    Evaluates ``(s1 - 1) s2 / (4 (s1 s2 - 2))`` with
    ``s1 = 1 + exp(1/(8 sigma1^2))`` and ``s2 = 1 + exp(x2/sigma2^2)``,
    arranged so neither exponential overflows inside the ratio. The first
    element with a denominator <= 0 raises, with its flat index as ``row``.
    """
    sigma1, sigma2, x2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (sigma1, sigma2, x2)))
    e1 = 1.0 / (8.0 * sigma1 * sigma1)
    e2 = x2 / (sigma2 * sigma2)
    # s1 -> infinity where e1 > 700: the ratio tends to 1/4 regardless of s2
    strong = e1 > 700.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # discarded branches
        s1 = 1.0 + np.exp(e1)
        two_over_s2 = np.where(e2 > 700.0, 0.0, 2.0 / (1.0 + np.exp(e2)))
        denominator = s1 - two_over_s2
        ratio = np.where(strong, 0.25, 0.25 * (s1 - 1.0) / denominator)
    rows = FirstFailure(strong.size)
    rows.check((~strong & (denominator <= 0.0)).ravel(), lambda i: DenominatorNonPositive(
        f"s1*s2 - 2 = {denominator.flat[i] * (1.0 + np.exp(e2.flat[i])):.3e}"
    ))
    rows.raise_first()
    return _result(ratio)


def var_sz_given_sx_weak1_closed(sigma2: float, x2: float) -> float:
    """Weak-first-stage limit: ``(1 + exp(-x2/sigma2^2)) / 8``."""
    return 0.125 * (1.0 + float(np.exp(-x2 / (sigma2 * sigma2))))


def mpur_spin_constants() -> tuple[float, float]:
    """Variance-sum bound constants (R_a, R_b) for the spin configuration."""
    return 0.25, 0.125
