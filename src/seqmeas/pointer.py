"""Exact algebra of zero-mean Gaussian pointer wavefunctions.

Every pointer-space integral in the measurement models reduces to moments
of products ``psi(x - a) psi(x - a')`` of two shifted copies of the same
Gaussian amplitude. This module provides that closed-form kernel: single
amplitudes, pairwise overlaps, and the signed Gaussian mixtures that
weighted sums of amplitude pairs collapse to. Position is dimensionless
and hbar = 1 throughout.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _frozen
from .errors import FirstFailure, InvalidOrder, NonHermitianSum

#: Relative imaginary residue above which :func:`pair_mixture` rejects a row.
HERMITIAN_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class Pointer:
    """Gaussian probe of width ``sigma``.

    Small ``sigma`` is a strong (projective-like) measurement, large
    ``sigma`` a weak one.
    """

    sigma: float

    def __post_init__(self):
        s = float(self.sigma)
        if not np.isfinite(s) or s <= 0.0:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma!r}")
        object.__setattr__(self, "sigma", s)


def amplitude(pointer: Pointer, x, a):
    """Pointer amplitude ``(2 pi sigma^2)^(-1/4) exp(-(x-a)^2 / (4 sigma^2))``.

    The square integrates to one: the amplitude squared is the normal
    density with mean ``a`` and variance ``sigma^2``.
    """
    s2 = pointer.sigma * pointer.sigma
    return (2.0 * np.pi * s2) ** -0.25 * np.exp(-((np.asarray(x) - a) ** 2) / (4.0 * s2))


def log_amplitude_at(sigma, x, a):
    """Natural log of :func:`amplitude` for a width (or broadcastable array of widths).

    Safe for outcomes far from ``a``.
    """
    s2 = sigma * sigma
    return -0.25 * np.log(2.0 * np.pi * s2) - ((np.asarray(x) - a) ** 2) / (4.0 * s2)


def overlap(pointer: Pointer, a: float, aprime: float) -> float:
    """Overlap ``exp(-(a - a')^2 / (8 sigma^2))`` of two shifted amplitudes."""
    d = a - aprime
    return float(np.exp(-(d * d) / (8.0 * pointer.sigma * pointer.sigma)))


def pair_moment(pointer: Pointer, a: float, aprime: float, n: int) -> float:
    """Moment ``int x^n psi(x-a) psi(x-a') dx`` in closed form.

    Equals ``overlap(a, a') * m_n`` with ``m_0 = 1``, ``m_1 = mu`` and
    ``m_2 = mu^2 + sigma^2`` where ``mu = (a + a') / 2``.
    """
    if n not in (0, 1, 2):
        raise InvalidOrder(f"moment order must be 0, 1 or 2, got {n!r}")
    d = overlap(pointer, a, aprime)
    mu = 0.5 * (a + aprime)
    if n == 0:
        return d
    if n == 1:
        return d * mu
    return d * (mu * mu + pointer.sigma * pointer.sigma)


class GaussianPairSum:
    """Signed Gaussian mixture ``sum_k c_k N(x; m_k, sigma^2)`` at one pointer width.

    Every density the engine builds is a sum of amplitude pairs
    ``C_pq psi(x - a_p) psi(x - a_q)``, and each pair is
    ``exp(-(a_p - a_q)^2 / (8 sigma^2)) N(x; (a_p + a_q) / 2, sigma^2)``, so
    the sum is this real mixture over the pair midpoints (:func:`pair_mixture`).
    The weights ``coeffs`` may be negative. The arrays are frozen copies of
    the caller's.
    """

    __slots__ = ("coeffs", "centers", "sigma")

    def __init__(self, coeffs, centers, sigma):
        self.coeffs = _frozen(np.array(coeffs, dtype=float, ndmin=1))
        self.centers = _frozen(np.array(centers, dtype=float, ndmin=1))
        self.sigma = Pointer(sigma).sigma
        if self.coeffs.shape != self.centers.shape:
            raise ValueError(f"field lengths disagree: {self.coeffs.shape} and {self.centers.shape}")
        check_coefficients(self.coeffs[None], FirstFailure(1))

    @classmethod
    def mixture(cls, weights: Sequence[float], centers: Sequence[float], sigma: float) -> "GaussianPairSum":
        """The sum ``sum_i w_i psi(x - c_i)^2``; the same as the constructor."""
        return cls(weights, centers, sigma)

    def value(self, x):
        """Pointwise value of the sum."""
        x = np.asarray(x, dtype=float)
        z = x[..., None] - self.centers
        s2 = self.sigma * self.sigma
        # numpy's power, not Python's float power: the two round differently
        out = (self.coeffs * (np.power(2.0 * np.pi * s2, -0.5) * np.exp(-(z * z) / (2.0 * s2)))).sum(axis=-1)
        return out if out.ndim else float(out)

    def moment(self, n: int) -> float:
        """Moment ``int x^n * value(x) dx`` of the (unnormalized) sum."""
        if n not in (0, 1, 2):
            raise InvalidOrder(f"moment order must be 0, 1 or 2, got {n!r}")
        c, m = self.coeffs, self.centers
        if n == 1:
            c = c * m
        elif n == 2:
            c = c * (m * m + self.sigma * self.sigma)
        return float(c.sum())

    def center_second_moment(self) -> float:
        """Like ``moment(2)`` but without the ``sigma^2`` offset every term carries.

        This isolates the spread of the centers, so conditional variances
        can be extracted without subtracting two nearly equal numbers.
        """
        return float((self.coeffs * self.centers * self.centers).sum())


def check_coefficients(coeffs: np.ndarray, rows: FirstFailure) -> int:
    """The finite-coefficient check of a pair sum on ``(B, T)`` rows; returns live rows."""
    return rows.check(
        ~np.isfinite(coeffs).all(axis=-1), lambda i: ValueError("coefficients must be finite")
    )


@functools.cache
def upper_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each entry on or above the diagonal of a ``(d, d)`` matrix: the diagonal first."""
    upper_p, upper_q = np.triu_indices(d, 1)
    diag = np.arange(d)
    return _frozen(np.concatenate([diag, upper_p])), _frozen(np.concatenate([diag, upper_q]))


def pair_mixture(coeffs, eigenvalues, sigma, rows: FirstFailure) -> tuple[np.ndarray, np.ndarray]:
    """Collapse ``(B, d, d)`` pair coefficients to :class:`GaussianPairSum` weights.

    Row ``b`` is the pair sum ``sum_pq C[b, p, q] psi(x - a_p) psi(x - a_q)``
    over the ``(d,)`` eigenvalues ``a`` at width ``sigma[b]``. Pairs
    ``(p, q)`` and ``(q, p)`` share a midpoint, so the ``d^2`` terms collapse
    to ``d(d + 1) / 2`` real weights at the centers: the eigenvalues, then
    the midpoints of the upper triangle in :func:`upper_pairs` order.
    Hermitian symmetry ``C[q, p] = conj(C[p, q])`` makes the weights real; a
    row whose overlap-weighted imaginary residue exceeds
    :data:`HERMITIAN_RESIDUE_TOL` of the overlap-weighted ``sum |C|`` fails
    with :class:`NonHermitianSum`. Returns the ``(n, M)`` weights of the live
    rows and the ``(M,)`` centers.
    """
    p, q = upper_pairs(len(eigenvalues))
    upper, lower = coeffs[:, p, q], coeffs[:, q, p]
    pairs = upper + lower
    gap = eigenvalues[p] - eigenvalues[q]
    width = sigma[:, None]
    overlap = np.exp(-(gap * gap) / ((8.0 * width) * width))
    residue = (np.abs(pairs.imag) * overlap).sum(axis=-1)
    scale = ((np.abs(upper) + np.abs(lower)) * overlap).sum(axis=-1)
    n = rows.check(
        residue > HERMITIAN_RESIDUE_TOL * np.maximum(scale, 1e-300),
        lambda i: NonHermitianSum(f"imaginary residue {residue[i]:.3e} against scale {scale[i]:.3e}"),
    )
    weights = pairs.real[:n] * overlap[:n]
    # the diagonal pairs counted C[p, p] twice
    weights[:, : len(eigenvalues)] *= 0.5
    return weights, 0.5 * (eigenvalues[p] + eigenvalues[q])
