"""Exact algebra of zero-mean Gaussian pointer wavefunctions.

Every pointer-space integral in the measurement models reduces to moments
of products ``psi(x - a) psi(x - a')`` of two shifted copies of the same
Gaussian amplitude. This module provides that closed-form kernel: single
amplitudes, pairwise overlaps, and moments of weighted sums of amplitude
pairs. Position is dimensionless and hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FirstFailure, InvalidOrder, NonHermitianSum

#: Relative imaginary residue above which a pair-sum moment is rejected.
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
    """Finite sum of weighted Gaussian amplitude pairs at one pointer width.

    Every term ``c * psi(x - a) psi(x - a')`` shares the width ``sigma`` of
    the stage whose eigenvalues it pairs. Hermitian symmetry is expected:
    for every term ``(c, a, a')`` the sum must contain ``(conj(c), a', a)``
    (possibly the same term when ``a == a'`` and ``c`` is real). That
    guarantees real values and real moments; :meth:`moment` enforces it via
    the imaginary residue.
    """

    __slots__ = ("coeffs", "centers_a", "centers_b", "sigma")

    def __init__(self, coeffs, centers_a, centers_b, sigma):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        self.centers_a = np.atleast_1d(np.asarray(centers_a, dtype=float))
        self.centers_b = np.atleast_1d(np.asarray(centers_b, dtype=float))
        self.sigma = Pointer(sigma).sigma
        shapes = {a.shape for a in (self.coeffs, self.centers_a, self.centers_b)}
        if len(shapes) != 1:
            raise ValueError(f"field lengths disagree: {shapes}")
        check_coefficients(self.coeffs[None], FirstFailure(1))
        for arr in (self.coeffs, self.centers_a, self.centers_b):
            arr.setflags(write=False)

    @classmethod
    def mixture(cls, weights: Sequence[float], centers: Sequence[float], sigma: float) -> "GaussianPairSum":
        """Diagonal sum ``sum_i w_i psi(x - c_i)^2``: a plain Gaussian mixture."""
        centers = np.asarray(centers, dtype=float)
        return cls(np.asarray(weights, dtype=complex), centers, centers, sigma)

    def __len__(self) -> int:
        return self.coeffs.size

    def value(self, x):
        """Pointwise value of the sum; real by Hermitian symmetry."""
        x = np.asarray(x, dtype=float)
        xa = x[..., None] - self.centers_a
        xb = x[..., None] - self.centers_b
        s2 = self.sigma * self.sigma
        # numpy's power, not Python's float power: the two round differently
        gauss = np.power(2.0 * np.pi * s2, -0.5) * np.exp(-(xa * xa + xb * xb) / (4.0 * s2))
        out = (self.coeffs * gauss).sum(axis=-1)
        return out.real if out.ndim else float(out.real)

    def moment(self, n: int) -> float:
        """Moment ``int x^n * value(x) dx`` of the (unnormalized) sum."""
        return self._moment(n)

    def _moment(self, n) -> float:
        # the (1, T) terms of one order are a one-row batch
        terms = moment_terms(self.coeffs, self.centers_a, self.centers_b, self.sigma, (n,))
        totals, scales = moment_sums(terms)
        check_residue(totals, scales, FirstFailure(1))
        return float(totals.real[0])

    def center_second_moment(self) -> float:
        """Like ``moment(2)`` but without the ``sigma^2`` offset every term carries.

        This isolates the spread of the pair centers, so conditional
        variances can be extracted without subtracting two nearly equal
        numbers.
        """
        return self._moment(CENTERS)


#: Moment order of :func:`moment_terms` for the center spread alone: the
#: second moment without the per-term ``sigma^2`` offset.
CENTERS = "centers"


def check_coefficients(coeffs: np.ndarray, rows: FirstFailure) -> int:
    """The finite-coefficient check of a pair sum on ``(B, T)`` rows; returns live rows."""
    return rows.check(
        ~np.isfinite(coeffs).all(axis=-1), lambda i: ValueError("coefficients must be finite")
    )


def moment_terms(coeffs, centers_a, centers_b, sigma, orders) -> np.ndarray:
    """Per-term contributions to each moment in ``orders`` (0, 1, 2 or :data:`CENTERS`).

    ``coeffs`` may carry a leading batch axis; centers are shared by every
    row and ``sigma`` (one width, or one per row as a ``(B, 1)`` column)
    broadcasts against the coefficients. Returns one stacked array with the
    orders along the first axis.
    """
    for n in orders:
        if n not in (0, 1, 2, CENTERS):
            raise InvalidOrder(f"moment order must be 0, 1 or 2, got {n!r}")
    d = centers_a - centers_b
    weighted = coeffs * np.exp(-(d * d) / (8.0 * sigma * sigma))
    mu = 0.5 * (centers_a + centers_b)
    first = weighted * mu
    terms = []
    for n in orders:
        if n == 0:
            terms.append(weighted * np.ones_like(mu))
        elif n == 1:
            terms.append(first)
        elif n == 2:
            terms.append(weighted * (mu * mu + sigma * sigma))
        else:
            terms.append(first * mu)
    return np.stack(terms)


def moment_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex sums of moment terms over their last axis, and absolute scales."""
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def check_residue(totals: np.ndarray, scales: np.ndarray, rows: FirstFailure) -> int:
    """Reject rows whose moment has an imaginary part above :data:`HERMITIAN_RESIDUE_TOL`
    of its scale, with :class:`NonHermitianSum`; returns live rows."""
    return rows.check(
        np.abs(totals.imag) > HERMITIAN_RESIDUE_TOL * np.maximum(scales, 1e-300),
        lambda i: NonHermitianSum(
            f"imaginary residue {totals.imag[i]:.3e} against scale {scales[i]:.3e}"
        ),
    )

