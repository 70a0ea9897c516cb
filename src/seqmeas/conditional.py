"""Conditional measurement model: each probe is read out immediately.

Conditioning runs both ways. The recorded first outcome reshapes the
second pointer's distribution (causal backaction); conditioning on the
second outcome reshapes the statistics of the already-recorded first one
(noncausal backaction). Both conditional densities are Gaussian pair sums
in the free outcome, so their means and variances are closed-form;
numerical quadrature enters only as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    check_states,
    level_weights,
    normalize_states,
    require_same_dim,
)
from .errors import FirstFailure, VarianceInconsistency, ZeroLikelihood
from .kraus import MeasurementStage, fold, projector_sums
from .pointer import CENTERS, GaussianPairSum, check_coefficients, check_residue, moment_sums, moment_terms

#: Extracted variances in [-EXTRACTED_CLAMP, 0) clamp to zero; below raises.
EXTRACTED_CLAMP = 1e-9


@dataclass(frozen=True)
class ConditionalStats:
    """Mean/variance of a conditional pointer density, plus the system part.

    ``extracted_system_variance`` is the pointer variance minus the shot
    noise ``sigma^2`` of the free stage; ``clamped`` flags a sub-roundoff
    negative value that was clipped to zero. The batched ``*_rows``
    functions return one with an array entry per row in every field.
    """

    mean: float
    variance: float
    extracted_system_variance: float
    clamped: bool = False


@dataclass(frozen=True)
class ConditionalDensity:
    """Conditional outcome density as a normalized Gaussian pair sum.

    ``direction`` is ``"forward"`` (second outcome given the first) or
    ``"backward"`` (first outcome given the second); ``conditioned_on`` is
    the fixed outcome. The density is ``numerator.value(x) / normalization``.
    """

    direction: str
    conditioned_on: float
    numerator: GaussianPairSum
    normalization: float

    def pdf(self, x):
        return self.numerator.value(x) / self.normalization


def _one(value) -> np.ndarray:
    return np.array([value], dtype=float)


def _first_row(stats: ConditionalStats) -> ConditionalStats:
    return ConditionalStats(
        mean=float(stats.mean[0]),
        variance=float(stats.variance[0]),
        extracted_system_variance=float(stats.extracted_system_variance[0]),
        clamped=bool(stats.clamped[0]),
    )


def pair_centers(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the ``d^2`` pair terms of a density over a full eigenbasis."""
    d = eigenvalues.size
    return np.repeat(eigenvalues, d), np.tile(eigenvalues, d)


def basis_hadamard(v: np.ndarray, rho: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Pair-sum coefficients ``(V^H rho V) * (V^H E V)^T`` in the eigenbasis ``v``.

    The Hadamard product of a state and the transposed effect, both written
    in the free stage's eigenbasis: Hermitian and positive semidefinite
    (Schur product of PSD factors), so the pair sum it induces is a
    nonnegative density. ``rho`` and ``effect`` may be ``(B, d, d)`` stacks.
    """
    vh = v.conj().T
    return (vh @ rho @ v) * np.swapaxes(vh @ effect @ v, -1, -2)


def check_normalization(m0: np.ndarray, rows: FirstFailure, label: str) -> int:
    return rows.check(
        ~(np.isfinite(m0) & (m0 >= 1e-300)),
        lambda i: ZeroLikelihood(f"{label} normalization {float(m0[i])!r} too small"),
    )


def _moment_stats(m0, m1, c2, sigma, rows: FirstFailure) -> ConditionalStats:
    mean = m1 / m0
    extracted = c2 / m0 - mean * mean
    n = rows.check(
        extracted < -EXTRACTED_CLAMP,
        lambda i: VarianceInconsistency(
            f"extracted variance {extracted[i]:.3e} below -{EXTRACTED_CLAMP:.0e}"
        ),
    )
    clamped = extracted[:n] < 0.0
    extracted = np.where(clamped, 0.0, extracted[:n])
    return ConditionalStats(
        mean=mean[:n],
        variance=extracted + sigma[:n] * sigma[:n],
        extracted_system_variance=extracted,
        clamped=clamped,
    )


def pair_sum_stats(numerator: GaussianPairSum, sigma_free: float) -> ConditionalStats:
    """Moments of a shared-sigma pair sum, with the shot noise split off.

    The second moment of every term carries the same additive ``sigma^2``,
    so the extracted part is computed from the center spread alone instead
    of subtracting ``sigma^2`` from a possibly huge total variance.
    """
    rows = FirstFailure(1)
    m0 = _one(numerator.moment(0))
    check_normalization(m0, rows, "density")
    m1 = _one(numerator.moment(1))
    c2 = _one(numerator.center_second_moment())
    return _first_row(_moment_stats(m0, m1, c2, _one(sigma_free), rows))


def pair_rows_moments(
    coeffs, centers_a, centers_b, sigma, rows: FirstFailure, label: str
) -> tuple[np.ndarray, ConditionalStats]:
    """Zeroth moments and :func:`pair_sum_stats` of ``(B, T)`` pair-sum rows.

    ``sigma`` holds each row's shared width. A row fails on the imaginary
    residue of a moment, with :class:`ZeroLikelihood`
    (``"<label> normalization ... too small"``) when its zeroth moment is
    not above 1e-300, or on the extracted-variance clamp.
    """
    totals, scales = moment_sums(moment_terms(coeffs, centers_a, centers_b, sigma[:, None], (0, 1, CENTERS)))
    m0, m1, c2 = totals.real
    check_residue(totals[0], scales[0], rows)
    check_normalization(m0, rows, label)
    check_residue(totals[1], scales[1], rows)
    n = check_residue(totals[2], scales[2], rows)
    stats = _moment_stats(m0[:n], m1[:n], c2[:n], sigma, rows)
    return m0[: rows.rows], stats


def conditional_state_rows(
    rho0: DensityMatrix, obs1: Observable, sigma1: np.ndarray, x1: np.ndarray, rows: FirstFailure
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`conditional_state` for ``B`` (width, outcome) rows.

    Returns the live ``(n, d, d)`` matrices and their ``(n,)`` log scales.
    """
    require_same_dim(obs1.dim, rho0.dim)
    n = rows.check(
        ~np.isfinite(x1), lambda i: ValueError(f"outcome must be finite, got {float(x1[i])!r}")
    )
    matrices, log_scale = fold(obs1, sigma1[:n], x1[:n], rho0.matrix, rho0.log_scale)
    n = check_states(matrices, rows)
    return matrices[:n], log_scale[:n]


def conditional_state(
    rho0: DensityMatrix, stage1: MeasurementStage, x1: float
) -> DensityMatrix:
    """Unnormalized post-measurement state ``M_x1 rho0 M_x1^dagger``.

    The physical trace equals the marginal likelihood of the outcome; it is
    carried as a log-scale prefactor so conditioning far into the Gaussian
    tails stays finite.
    """
    matrices, log_scale = conditional_state_rows(
        rho0, stage1.observable, _one(stage1.sigma), _one(x1), FirstFailure(1)
    )
    return DensityMatrix(matrices[0], log_scale=float(log_scale[0]))


def marginal_density_x1(rho0: DensityMatrix, stage1: MeasurementStage) -> GaussianPairSum:
    """Unconditional density of the first outcome: a plain Gaussian mixture."""
    weights = np.clip(level_weights(stage1.observable.projectors, rho0.matrix[None])[0], 0.0, None)
    return GaussianPairSum.mixture(weights, stage1.observable.levels, stage1.sigma)


def _forward_weights(rho0, obs1, sigma1, obs2, sigma2, x1, rows: FirstFailure) -> np.ndarray:
    # mixture weights of p(x2 | x1) over the second observable's levels
    require_same_dim(obs1.dim, obs2.dim, rho0.dim)
    states, _ = conditional_state_rows(rho0, obs1, sigma1, x1, rows)
    normalized = normalize_states(states, rows)
    weights = np.clip(level_weights(obs2.projectors, normalized), 0.0, None).astype(complex)
    return weights[: check_coefficients(weights, rows)]


def forward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x1: float,
) -> ConditionalDensity:
    """Density of the second outcome given the first: ``p(x2 | x1)``.

    A proper Gaussian mixture over the second observable's levels, weighted
    by the normalized conditional state.

    Raises
    ------
    ZeroLikelihood
        If the conditioning outcome has vanishing marginal likelihood.
    """
    weights = _forward_weights(
        rho0, stage1.observable, _one(stage1.sigma), stage2.observable, _one(stage2.sigma),
        _one(x1), FirstFailure(1),
    )
    numerator = GaussianPairSum.mixture(weights[0], stage2.observable.levels, stage2.sigma)
    return ConditionalDensity(
        direction="forward",
        conditioned_on=float(x1),
        numerator=numerator,
        normalization=numerator.moment(0),
    )


def forward_stats_rows(
    rho0: DensityMatrix,
    obs1: Observable,
    sigma1: np.ndarray,
    obs2: Observable,
    sigma2: np.ndarray,
    x1: np.ndarray,
    rows: FirstFailure,
) -> ConditionalStats:
    """:func:`forward_stats` for ``B`` rows of (first width, second width, first outcome).

    Widths must be finite and positive, as :class:`Pointer` enforces.
    Returns array fields over the live rows of ``rows``; the caller raises
    :meth:`FirstFailure.raise_first`.
    """
    weights = _forward_weights(rho0, obs1, sigma1, obs2, sigma2, x1, rows)
    sigma = sigma2[: len(weights)]
    return pair_rows_moments(weights, obs2.levels, obs2.levels, sigma, rows, "density")[1]


def forward_stats(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x1: float,
) -> ConditionalStats:
    """Conditional mean/variance of the second outcome given the first.

    The extracted part is the variance of the second observable conditioned
    on the first measurement's presence and outcome.
    """
    return _first_row(forward_stats_rows(
        rho0, stage1.observable, _one(stage1.sigma), stage2.observable, _one(stage2.sigma),
        _one(x1), FirstFailure(1),
    ))


def _squares(values: np.ndarray) -> np.ndarray:
    # squares through the C library's pow, like a scalar ``x ** 2``: an
    # array ``x * x`` rounds differently in about one case in a thousand
    # and would move the last digits of backward variances
    flat = values.ravel().tolist()
    return np.fromiter((v**2 for v in flat), dtype=float, count=len(flat)).reshape(values.shape)


def _scaled_effect_weights(levels: np.ndarray, sigmas: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # effect weights |psi(x - b)|^2 rescaled so the largest is one; the
    # dropped prefactor cancels in every conditional ratio
    logs = 2.0 * (-_squares(xs[:, None] - levels) / (4.0 * _squares(sigmas))[:, None])
    return np.exp(logs - logs.max(axis=-1, keepdims=True))


def _backward_coeffs(rho0, obs1, sigma1, obs2, sigma2, x2, rows: FirstFailure) -> np.ndarray:
    # Hadamard products of the initial state and the effect operator in the
    # first observable's eigenbasis, one flattened (d^2,) row per record
    require_same_dim(obs1.dim, obs2.dim, rho0.dim)
    n = rows.check(
        ~np.isfinite(x2), lambda i: ValueError(f"outcome must be finite, got {float(x2[i])!r}")
    )
    effect = projector_sums(obs2.projectors, _scaled_effect_weights(obs2.levels, sigma2[:n], x2[:n]))
    coeffs = basis_hadamard(obs1.eigenvectors, rho0.matrix, effect).reshape(n, -1)
    return coeffs[: check_coefficients(coeffs, rows)]


def backward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalDensity:
    """Density of the first outcome given the second: ``p(x1 | x2)``.

    The numerator is the pair sum over ``x1`` proportional to
    ``Tr[rho_bar_1(x1) E(x2)]``, with :func:`basis_hadamard` coefficients
    in the first observable's eigenbasis.
    """
    coeffs = _backward_coeffs(
        rho0, stage1.observable, _one(stage1.sigma), stage2.observable, _one(stage2.sigma),
        _one(x2), FirstFailure(1),
    )
    centers_a, centers_b = pair_centers(stage1.observable.eigenvalues)
    numerator = GaussianPairSum(coeffs[0], centers_a, centers_b, stage1.sigma)
    norm = numerator.moment(0)
    check_normalization(_one(norm), FirstFailure(1), "backward")
    return ConditionalDensity(
        direction="backward",
        conditioned_on=float(x2),
        numerator=numerator,
        normalization=norm,
    )


def backward_stats_rows(
    rho0: DensityMatrix,
    obs1: Observable,
    sigma1: np.ndarray,
    obs2: Observable,
    sigma2: np.ndarray,
    x2: np.ndarray,
    rows: FirstFailure,
) -> ConditionalStats:
    """:func:`backward_stats` for ``B`` rows of (first width, second width, second outcome).

    Widths must be finite and positive, as :class:`Pointer` enforces.
    Returns array fields over the live rows of ``rows``; the caller raises
    :meth:`FirstFailure.raise_first`.
    """
    coeffs = _backward_coeffs(rho0, obs1, sigma1, obs2, sigma2, x2, rows)
    centers_a, centers_b = pair_centers(obs1.eigenvalues)
    sigma = sigma1[: len(coeffs)]
    return pair_rows_moments(coeffs, centers_a, centers_b, sigma, rows, "backward")[1]


def backward_stats(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalStats:
    """Conditional mean/variance of the first outcome given the second."""
    return _first_row(backward_stats_rows(
        rho0, stage1.observable, _one(stage1.sigma), stage2.observable, _one(stage2.sigma),
        _one(x2), FirstFailure(1),
    ))
