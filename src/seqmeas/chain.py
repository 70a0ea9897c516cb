"""General N-stage sequential measurement engine, the library's one conditional engine.

A chain applies its stages in order; a query fixes every outcome except
one and asks for the density, mean and variance of the free one. The
density of outcome ``k`` conditioned on all others is a Gaussian pair sum
built from the chain state of the earlier stages and the effect product
of the later ones (:func:`numerator_rows`). The two-stage forward and
backward queries of :mod:`seqmeas.conditional` are its N = 2 case with
free index 2 and 1.

Each stage is folded in its own eigenbasis, where its Kraus operator is
diagonal (:func:`~seqmeas.kraus.fold`), with one change of basis between
consecutive stages. Every fold renormalizes, so the state and the effect
stay O(1) however improbable the record; the dropped factors go into a
log scale. The state and the effect meet in the free stage's eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DensityMatrix, Observable, check_states
from .errors import DimensionMismatch, FirstFailure, VarianceInconsistency, ZeroLikelihood
from .kraus import MeasurementStage, fold
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
class MeasurementChain:
    """Ordered measurement stages applied to one initial state."""

    stages: tuple[MeasurementStage, ...]
    initial_state: DensityMatrix

    def __post_init__(self):
        stages = tuple(self.stages)
        if len(stages) < 1:
            raise ValueError("a chain needs at least one stage")
        dims = {s.dim for s in stages} | {self.initial_state.dim}
        if len(dims) != 1:
            raise DimensionMismatch(f"stage/state dimensions disagree: {sorted(dims)}")
        object.__setattr__(self, "stages", stages)

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def dim(self) -> int:
        return self.initial_state.dim

    @property
    def observables(self) -> tuple[Observable, ...]:
        return tuple(stage.observable for stage in self.stages)


@dataclass(frozen=True)
class ChainQuery:
    """One free outcome index (1-based) plus fixed outcomes for all others.

    ``fixed_outcomes`` lists the outcomes of the non-free stages in stage
    order; a chain of N stages takes N - 1 of them.
    """

    free_index: int
    fixed_outcomes: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "fixed_outcomes", tuple(float(x) for x in self.fixed_outcomes))
        if not all(np.isfinite(self.fixed_outcomes)):
            raise ValueError("fixed outcomes must be finite")

    def validate_for(self, chain: MeasurementChain) -> None:
        _check_query_shape(chain, self.free_index, len(self.fixed_outcomes))

    def outcomes_before(self) -> tuple[float, ...]:
        return self.fixed_outcomes[: self.free_index - 1]


def _check_query_shape(chain: MeasurementChain, free_index: int, n_fixed: int) -> None:
    n = len(chain)
    if not 1 <= free_index <= n:
        raise ValueError(f"free index {free_index} outside 1..{n}")
    if n_fixed != n - 1:
        raise ValueError(f"{n}-stage chain needs {n - 1} fixed outcomes, got {n_fixed}")


@dataclass(frozen=True)
class ChainResult:
    """Conditional density and moments of the free outcome of a query."""

    density: GaussianPairSum
    normalization: float
    mean: float
    variance: float
    extracted_variance: float
    clamped: bool = False


@dataclass(frozen=True)
class ChainRows:
    """Conditional densities of the free outcome for ``B`` records at once.

    Row ``i`` is the pair sum with coefficients ``coeffs[i]`` over the shared
    centers, width ``sigma[i]`` and zeroth moment ``normalization[i]``.
    ``stats`` holds array moments when they were computed.
    """

    coeffs: np.ndarray
    centers_a: np.ndarray
    centers_b: np.ndarray
    sigma: np.ndarray
    normalization: np.ndarray
    stats: ConditionalStats | None = None

    def density(self, i: int) -> GaussianPairSum:
        return GaussianPairSum(self.coeffs[i], self.centers_a, self.centers_b, float(self.sigma[i]))

    def result(self, i: int) -> ChainResult:
        return ChainResult(
            density=self.density(i),
            normalization=float(self.normalization[i]),
            mean=float(self.stats.mean[i]),
            variance=float(self.stats.variance[i]),
            extracted_variance=float(self.stats.extracted_system_variance[i]),
            clamped=bool(self.stats.clamped[i]),
        )


def one_row(chain: MeasurementChain, outcomes: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``(1, k)`` outcomes and ``(1, N)`` stage widths: one record for the ``*_rows`` functions."""
    return (
        np.array(outcomes, dtype=float).reshape(1, len(outcomes)),
        np.array([[stage.sigma for stage in chain.stages]]),
    )


def _change_basis(matrices: np.ndarray, v_from, v_to) -> np.ndarray:
    # operators written in the orthonormal columns v_from, rewritten in v_to;
    # None stands for the computational basis
    if v_from is v_to:
        return matrices
    if v_from is None:
        u = v_to
    elif v_to is None:
        u = v_from.conj().T
    else:
        u = v_from.conj().T @ v_to
    return u.conj().T @ matrices @ u


def _fold_stages(matrices, log_scale, v, observables, outcomes, sigmas, basis):
    # fold the stages in the order given, each in its own eigenbasis, from
    # operators written in v; (B, k) outcomes and widths, one column per stage
    for j, observable in enumerate(observables):
        eigenbasis = observable.eigenvectors
        matrices, log_scale = fold(
            observable, sigmas[:, j], outcomes[:, j], _change_basis(matrices, v, eigenbasis), log_scale
        )
        v = eigenbasis
    return _change_basis(matrices, v, basis), log_scale


def chain_state_rows(
    rho0: DensityMatrix, observables: Sequence[Observable], outcomes: np.ndarray, sigmas: np.ndarray, basis
) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked :func:`chain_state` fold for ``(B, k)`` outcomes and ``(B, N)`` widths.

    ``observables`` are the N stages' observables. Returns ``(B, d, d)``
    matrices written in the orthonormal columns ``basis`` (``None`` for the
    computational basis) and ``(B,)`` log scales, or single broadcastable
    ones when no stage is folded. Callers check the states.
    """
    k = outcomes.shape[1]
    if k > len(observables):
        raise ValueError(f"{k} outcomes for a {len(observables)}-stage chain")
    return _fold_stages(
        rho0.matrix[None], np.array([rho0.log_scale]), None, observables[:k], outcomes, sigmas, basis
    )


def chain_state(chain: MeasurementChain, outcomes: Sequence[float]) -> DensityMatrix:
    """Unnormalized state after the first ``len(outcomes)`` stages.

    Left-fold of the Kraus operators at the given outcomes; the physical
    trace is the joint likelihood of those outcomes, tracked as a log-scale
    prefactor.
    """
    fixed, sigmas = one_row(chain, outcomes)
    matrices, log_scale = chain_state_rows(chain.initial_state, chain.observables, fixed, sigmas, None)
    return DensityMatrix(matrices[0], log_scale=float(log_scale[0]))


def effect_chain_rows(
    observables: Sequence[Observable], outcomes: np.ndarray, sigmas: np.ndarray, basis
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`effect_chain` for ``(B, k)`` outcomes of the last ``k`` of the N stages.

    Returns ``(B, d, d)`` effect matrices written in the orthonormal
    columns ``basis`` (``None`` for the computational basis) and ``(B,)``
    log scales, or a single broadcastable identity and zero when ``k`` is 0.
    """
    k = outcomes.shape[1]
    if k > len(observables):
        raise ValueError(f"{k} outcomes for a {len(observables)}-stage chain")
    identity = np.eye(observables[0].dim, dtype=complex)[None]
    if not k:
        return identity, np.zeros(1)
    # the identity reads the same in every basis: it starts in the last stage's
    later = slice(len(observables) - k, None)
    return _fold_stages(
        identity, np.zeros(1), observables[-1].eigenvectors,
        observables[later][::-1], outcomes[:, ::-1], sigmas[:, later][:, ::-1], basis,
    )


def effect_chain(chain: MeasurementChain, outcomes: Sequence[float]) -> tuple[np.ndarray, float]:
    """Effect product of the last ``len(outcomes)`` stages at fixed outcomes.

    Builds ``Omega_{k+1}^dagger ... Omega_N^dagger Omega_N ... Omega_{k+1}``
    from the inside out; an empty outcome list gives the identity. Returns
    ``(matrix, log_scale)``: the physical operator is
    ``exp(log_scale) * matrix``, so the matrix stays O(1).
    """
    matrices, log_scale = effect_chain_rows(chain.observables, *one_row(chain, outcomes), None)
    return matrices[0], float(log_scale[0])


def pair_centers(eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the ``d^2`` pair terms of a density over a full eigenbasis."""
    d = eigenvalues.size
    return np.repeat(eigenvalues, d), np.tile(eigenvalues, d)


def numerator_rows(
    rho0: DensityMatrix,
    observables: Sequence[Observable],
    free_index: int,
    fixed: np.ndarray,
    sigmas: np.ndarray,
    rows: FirstFailure,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conditional-density numerators of the free outcome, one pair sum per record.

    ``fixed`` holds ``(B, N - 1)`` outcomes of the other stages and
    ``sigmas`` the ``(B, N)`` widths, finite and positive as
    :class:`Pointer` enforces. Each row checks, in order: finite outcomes,
    the state of the earlier stages, finite coefficients. With free index 1
    no stage is folded and the state is ``rho0.matrix`` in the free stage's
    eigenbasis; :class:`DensityMatrix` construction ran it through the same
    state check.

    The coefficients are ``rho * E^T`` with the state ``rho`` and the
    effect ``E`` both written in the free stage's eigenbasis: a Schur
    product of PSD factors, so the pair sum is a nonnegative density.
    Returns the ``(n, d^2)`` coefficients of the live rows, the shared pair
    centers and the ``(n,)`` free widths.
    """
    n = rows.check(~np.isfinite(fixed).all(axis=-1), lambda i: ValueError("fixed outcomes must be finite"))
    free = free_index - 1
    basis = observables[free].eigenvectors
    rho, _ = chain_state_rows(rho0, observables, fixed[:n, :free], sigmas[:n], basis)
    if free:
        n = check_states(rho, rows)
    effect, _ = effect_chain_rows(observables, fixed[:n, free:], sigmas[:n], basis)
    coeffs = rho[:n] * effect.swapaxes(-1, -2)
    coeffs = coeffs.reshape(-1, coeffs.shape[-1] ** 2)
    if len(coeffs) != n:
        coeffs = np.repeat(coeffs, n, axis=0)
    n = check_coefficients(coeffs, rows)
    centers_a, centers_b = pair_centers(observables[free].eigenvalues)
    return coeffs[:n], centers_a, centers_b, sigmas[:n, free]


def _pair_rows(chain, free_index, fixed, sigmas, rows: FirstFailure):
    # the chain entry points check the query shape, then run the numerators
    _check_query_shape(chain, free_index, fixed.shape[1])
    return numerator_rows(chain.initial_state, chain.observables, free_index, fixed, sigmas, rows)


def check_normalization(m0: np.ndarray, rows: FirstFailure, label: str | Sequence[str]) -> int:
    # ``label`` names the density in the message: one for every row, or one per row
    return rows.check(
        ~(np.isfinite(m0) & (m0 >= 1e-300)),
        lambda i: ZeroLikelihood(
            f"{label if isinstance(label, str) else label[i]} normalization {float(m0[i])!r} too small"
        ),
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


def pair_rows_moments(
    coeffs, centers_a, centers_b, sigma, rows: FirstFailure, label: str | Sequence[str]
) -> tuple[np.ndarray, ConditionalStats]:
    """Zeroth moments and conditional statistics of ``(B, T)`` pair-sum rows.

    ``sigma`` holds each row's shared width. The centers are ``(T,)``,
    shared by every row, or ``(B, T)``, one set per row; ``label`` is one
    name for every row or one per row. The second moment of every
    term carries the same additive ``sigma^2``, so the extracted variance
    comes from the center spread alone instead of subtracting ``sigma^2``
    from a possibly huge total. A row fails on the imaginary residue of a
    moment, with :class:`ZeroLikelihood`
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


def conditional_density_rows(
    chain: MeasurementChain, free_index: int, fixed: np.ndarray, sigmas: np.ndarray, rows: FirstFailure
) -> ChainRows:
    """Densities of the free outcome for ``(B, N - 1)`` fixed outcomes and ``(B, N)`` widths.

    Widths must be finite and positive, as :class:`Pointer` enforces. Every
    row runs the checks of :func:`conditional_density_k`; the result holds
    the live rows and the caller raises :meth:`FirstFailure.raise_first`.
    """
    coeffs, centers_a, centers_b, sigma = _pair_rows(chain, free_index, fixed, sigmas, rows)
    totals, scales = moment_sums(moment_terms(coeffs, centers_a, centers_b, sigma[:, None], (0,)))
    check_residue(totals[0], scales[0], rows)
    norm = totals.real[0]
    n = check_normalization(norm, rows, "conditional")
    return ChainRows(coeffs[:n], centers_a, centers_b, sigma[:n], norm[:n])


def conditional_density_k(
    chain: MeasurementChain, query: ChainQuery
) -> tuple[GaussianPairSum, float]:
    """Density of the free outcome conditioned on all fixed ones.

    Returns the unnormalized Gaussian pair sum and its normalization
    (zeroth moment); the density is their ratio.
    """
    densities = conditional_density_rows(
        chain, query.free_index, *one_row(chain, query.fixed_outcomes), FirstFailure(1)
    )
    return densities.density(0), float(densities.normalization[0])


def conditional_stats_rows(
    chain: MeasurementChain, free_index: int, fixed: np.ndarray, sigmas: np.ndarray, rows: FirstFailure
) -> ChainRows:
    """:func:`conditional_density_rows` with the moments of every live row."""
    coeffs, centers_a, centers_b, sigma = _pair_rows(chain, free_index, fixed, sigmas, rows)
    norm, stats = pair_rows_moments(coeffs, centers_a, centers_b, sigma, rows, "conditional")
    n = rows.rows
    return ChainRows(coeffs[:n], centers_a, centers_b, sigma[:n], norm, stats)


def conditional_stats_k(chain: MeasurementChain, query: ChainQuery) -> ChainResult:
    """Mean, variance and extracted variance of the free outcome."""
    return conditional_stats_rows(
        chain, query.free_index, *one_row(chain, query.fixed_outcomes), FirstFailure(1)
    ).result(0)
