"""Conditional measurement model: each probe is read out immediately.

Conditioning runs both ways. The recorded first outcome reshapes the
second pointer's distribution (causal backaction); conditioning on the
second outcome reshapes the statistics of the already-recorded first one
(noncausal backaction). Each is a 2-stage chain query on the rows core
of :mod:`seqmeas.chain` (:func:`~seqmeas.chain.density_rows`,
:func:`~seqmeas.chain.stats_rows`), free index 2 forward and 1 backward.
Both conditional densities are signed Gaussian mixtures in the free
outcome, so their means and variances are closed-form; numerical
quadrature enters only as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainRows, ConditionalStats, MeasurementChain, Rotations, chain_state, density_rows, stats_rows
from .core import DensityMatrix, require_same_dim
from .errors import FirstFailure
from .kraus import MeasurementStage
from .pointer import GaussianPairSum


@dataclass(frozen=True)
class ConditionalDensity:
    """Conditional outcome density as a normalized signed Gaussian mixture.

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


#: Direction and ZeroLikelihood label of the 2-stage query with each free index
DIRECTIONS = {2: ("forward", "density"), 1: ("backward", "backward")}


def _two_stage(rho0, stage1, stage2, free_index, outcome, core) -> ChainRows:
    # one record of the 2-stage chain query through the rows core ``core``
    require_same_dim(stage1.dim, stage2.dim, rho0.dim)
    rotations = Rotations.of(rho0, (stage1.observable, stage2.observable))
    fixed, sigmas = np.array([[outcome]], dtype=float), np.array([[stage1.sigma, stage2.sigma]])
    return core(rotations, free_index, fixed, sigmas, FirstFailure(1), DIRECTIONS[free_index][1])


def _density(rho0, stage1, stage2, free_index, outcome) -> ConditionalDensity:
    densities = _two_stage(rho0, stage1, stage2, free_index, outcome, density_rows)
    numerator, norm = densities.density(0), float(densities.normalization[0])
    return ConditionalDensity(DIRECTIONS[free_index][0], float(outcome), numerator, norm)


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


def forward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x1: float,
) -> ConditionalDensity:
    """Density of the second outcome given the first: ``p(x2 | x1)``.

    The numerator is the mixture over the second observable's eigenvalues
    and their midpoints, unnormalized: the eigenvalues' weights are the
    conditional state's populations, and the midpoints' weights are zero.

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
    return _two_stage(rho0, stage1, stage2, 2, x1, stats_rows).stats.row(0)


def backward_density(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalDensity:
    """Density of the first outcome given the second: ``p(x1 | x2)``.

    The numerator is the mixture over ``x1`` proportional to
    ``Tr[rho_bar_1(x1) E(x2)]``, collapsed from the pair coefficients
    ``rho * E^T`` in the first observable's eigenbasis
    (:func:`~seqmeas.chain.density_rows`).
    """
    return _density(rho0, stage1, stage2, 1, x2)


def backward_stats(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x2: float,
) -> ConditionalStats:
    """Conditional mean/variance of the first outcome given the second."""
    return _two_stage(rho0, stage1, stage2, 1, x2, stats_rows).stats.row(0)
