"""Conditional measurement model: each probe is read out immediately.

Conditioning runs both ways. The recorded first outcome reshapes the
second pointer's distribution (causal backaction); conditioning on the
second outcome reshapes the statistics of the already-recorded first one
(noncausal backaction). Each is a 2-stage chain query on the engine of
:mod:`seqmeas.chain`, free index 2 forward and 1 backward, run for a
batch of rows by one core (:func:`two_stage_rows`). Both conditional
densities are Gaussian pair sums in the free outcome, so their means and
variances are closed-form; numerical quadrature enters only as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import (
    ConditionalStats, MeasurementChain, Rotations, chain_state, check_normalization, numerator_rows, pair_rows_moments,
)
from .core import DensityMatrix, Observable, require_same_dim
from .errors import FirstFailure
from .kraus import MeasurementStage
from .pointer import GaussianPairSum


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


#: Direction and ZeroLikelihood label of the 2-stage query with each free index
DIRECTIONS = {2: ("forward", "density"), 1: ("backward", "backward")}


def two_stage_rows(
    rho0: DensityMatrix,
    observables: Sequence[Observable],
    free_index: int,
    outcome: np.ndarray,
    sigmas: np.ndarray,
    rows: FirstFailure,
) -> ConditionalStats:
    """The 2-stage chain query for ``B`` rows of (other stage's outcome, both widths).

    Free index 2 is the forward query (the second outcome given the first),
    1 the backward one. ``outcome`` is ``(B,)`` and ``sigmas`` ``(B, 2)``;
    widths must be finite and positive, as :class:`Pointer` enforces.
    Returns the :class:`ConditionalStats` of the live rows of ``rows``;
    the caller raises :meth:`FirstFailure.raise_first`.
    """
    require_same_dim(observables[0].dim, observables[1].dim, rho0.dim)
    numerator = numerator_rows(Rotations.of(rho0, observables), free_index, outcome[:, None], sigmas, rows)
    return pair_rows_moments(*numerator, rows, DIRECTIONS[free_index][1])[1]


def _one_row(rho0, stage1, stage2, free_index, outcome, rows):
    # the rows core on one record of the two stages' widths
    sigmas = np.array([[stage1.sigma, stage2.sigma]])
    return two_stage_rows(rho0, (stage1.observable, stage2.observable), free_index, _one(outcome), sigmas, rows)


def _density(rho0, stage1, stage2, free_index, outcome) -> ConditionalDensity:
    require_same_dim(stage1.dim, stage2.dim, rho0.dim)
    rows, sigmas = FirstFailure(1), np.array([[stage1.sigma, stage2.sigma]])
    rotations = Rotations.of(rho0, (stage1.observable, stage2.observable))
    coeffs, centers_a, centers_b, sigma = numerator_rows(rotations, free_index, _one(outcome)[:, None], sigmas, rows)
    numerator = GaussianPairSum(coeffs[0], centers_a, centers_b, float(sigma[0]))
    norm = numerator.moment(0)
    direction, label = DIRECTIONS[free_index]
    check_normalization(_one(norm), rows, label)
    return ConditionalDensity(direction, float(outcome), numerator, norm)


def conditional_state(
    rho0: DensityMatrix, stage1: MeasurementStage, x1: float
) -> DensityMatrix:
    """Unnormalized post-measurement state ``M_x1 rho0 M_x1^dagger``.

    The physical trace equals the marginal likelihood of the outcome; it is
    carried as a log-scale prefactor so conditioning far into the Gaussian
    tails stays finite.
    """
    require_same_dim(stage1.dim, rho0.dim)
    if not np.isfinite(x1):
        raise ValueError(f"outcome must be finite, got {float(x1)!r}")
    return chain_state(MeasurementChain((stage1,), rho0), [x1])


def marginal_density_x1(rho0: DensityMatrix, stage1: MeasurementStage) -> GaussianPairSum:
    """Unconditional density of the first outcome: a plain Gaussian mixture."""
    obs = stage1.observable
    populations = np.einsum("ia,ij,ja->a", obs.eigenvectors.conj(), rho0.matrix, obs.eigenvectors).real
    weights = np.bincount(obs.level_of, weights=populations, minlength=obs.levels.size)
    return GaussianPairSum.mixture(np.clip(weights, 0.0, None), obs.levels, stage1.sigma)


def forward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x1: float,
) -> ConditionalDensity:
    """Density of the second outcome given the first: ``p(x2 | x1)``.

    The numerator is the ``d^2``-term pair sum over the second observable's
    eigenbasis, unnormalized: its diagonal terms weight the levels by the
    conditional state, and its cross terms are zero up to rounding.

    Raises
    ------
    ZeroLikelihood
        If the conditioning outcome has vanishing marginal likelihood.
    """
    return _density(rho0, stage1, stage2, 2, x1)


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
    return _first_row(_one_row(rho0, stage1, stage2, 2, x1, FirstFailure(1)))


def backward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalDensity:
    """Density of the first outcome given the second: ``p(x1 | x2)``.

    The numerator is the pair sum over ``x1`` proportional to
    ``Tr[rho_bar_1(x1) E(x2)]``, with coefficients ``rho * E^T`` in the
    first observable's eigenbasis (:func:`~seqmeas.chain.numerator_rows`).
    """
    return _density(rho0, stage1, stage2, 1, x2)


def backward_stats(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalStats:
    """Conditional mean/variance of the first outcome given the second."""
    return _first_row(_one_row(rho0, stage1, stage2, 1, x2, FirstFailure(1)))
