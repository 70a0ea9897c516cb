"""General N-stage sequential measurement engine, the library's one conditional engine.

A chain applies its stages in order; a query fixes every outcome except
one and asks for the density, mean and variance of the free one. The
density of outcome ``k`` conditioned on all others is a Gaussian pair sum
built from the chain state of the earlier stages and the effect product
of the later ones. Every conditional query runs through one rows core,
:func:`density_rows`, or :func:`stats_rows` for the moments too: the
chain queries here, the two-stage forward and backward queries of
:mod:`seqmeas.conditional` (its N = 2 case with free index 2 and 1), the
figure sweeps and the conditional variance sum.

Each stage is folded in its own eigenbasis, where its Kraus operator is
diagonal (:func:`~seqmeas.kraus.fold`), with one change of basis between
consecutive stages, a product with a ``(d^2, d^2)`` operator built once
per query (:class:`Rotations`). Every fold renormalizes, so the state and
the effect stay O(1) however improbable the record; the dropped factors
go into a log scale. The state and the effect meet in the free stage's
eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import DensityMatrix, Observable, check_states
from .errors import DimensionMismatch, FirstFailure, VarianceInconsistency, ZeroLikelihood
from .kraus import MeasurementStage, fold
from .pointer import GaussianPairSum, check_coefficients, pair_mixture

#: Extracted variances in [-EXTRACTED_CLAMP, 0) clamp to zero; below raises.
EXTRACTED_CLAMP = 1e-9


@dataclass(frozen=True)
class ConditionalStats:
    """Mean/variance of a conditional pointer density, plus the system part.

    ``extracted_system_variance`` is the pointer variance minus the shot
    noise ``sigma^2`` of the free stage; ``clamped`` flags a sub-roundoff
    negative value that was clipped to zero. :func:`stats_rows` returns
    one with an array entry per row in every field.
    """

    mean: float
    variance: float
    extracted_system_variance: float
    clamped: bool = False

    def row(self, i: int) -> "ConditionalStats":
        """Row ``i`` of array statistics, as Python scalars."""
        return ConditionalStats(
            float(self.mean[i]), float(self.variance[i]),
            float(self.extracted_system_variance[i]), bool(self.clamped[i]),
        )


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
        n, n_fixed = len(chain), len(self.fixed_outcomes)
        if not 1 <= self.free_index <= n:
            raise ValueError(f"free index {self.free_index} outside 1..{n}")
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

    Row ``i`` is the signed mixture with weights ``coeffs[i]`` over the
    shared centers, width ``sigma[i]`` and zeroth moment
    ``normalization[i]``. ``stats`` holds array moments when they were
    computed.
    """

    coeffs: np.ndarray
    centers: np.ndarray
    sigma: np.ndarray
    normalization: np.ndarray
    stats: ConditionalStats | None = None

    def density(self, i: int) -> GaussianPairSum:
        return GaussianPairSum(self.coeffs[i], self.centers, float(self.sigma[i]))

    def result(self, i: int) -> ChainResult:
        stats = self.stats.row(i)
        return ChainResult(
            self.density(i), float(self.normalization[i]),
            stats.mean, stats.variance, stats.extracted_system_variance, stats.clamped,
        )


def one_row(chain: MeasurementChain, outcomes: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """``(1, k)`` outcomes and ``(1, N)`` stage widths: one record for the ``*_rows`` functions."""
    if len(outcomes) > len(chain):
        raise ValueError(f"{len(outcomes)} outcomes for a {len(chain)}-stage chain")
    return (
        np.array(outcomes, dtype=float).reshape(1, len(outcomes)),
        np.array([[stage.sigma for stage in chain.stages]]),
    )


def rotation(v_from, v_to) -> np.ndarray:
    """The ``(d^2, d^2)`` operator rewriting operators written in the orthonormal columns ``v_from`` in ``v_to``.

    ``vec(U^H M U) = vec(M) (conj(U) (x) U)`` with ``U = v_from^H v_to`` for row-major ``vec``; ``None``
    stands for the computational basis.
    """
    u = v_to if v_from is None else v_from.conj().T if v_to is None else v_from.conj().T @ v_to
    return np.multiply.outer(u.conj(), u).swapaxes(1, 2).reshape(u.size, u.size)


def _change_basis(matrices: np.ndarray, operator) -> np.ndarray:
    # a (B, d, d) stack times a rotation operator (None: no change), one (1, d^2) @ (d^2, d^2)
    # product per row: numpy hands a one-row (B, d^2) GEMM to gemv, whose last bits differ for
    # d >= 3, and a row must read the same alone and in a batch
    if operator is None:
        return matrices
    return (matrices.reshape(len(matrices), 1, -1) @ operator).reshape(matrices.shape)


class Rotations(NamedTuple):
    """A query's changes of basis, built once from its initial state and stage spectra (:meth:`of`).

    ``state`` is the ``(1, d, d)`` initial state in the first stage's eigenbasis, with its ``(1,)`` log
    scale; ``steps[j]`` rotates from stage ``j`` to ``j + 1`` (0-based) and ``backs[j]`` back, or is
    ``None`` where the two stages share their eigenvectors.
    """

    observables: tuple[Observable, ...]
    state: np.ndarray
    log_scale: np.ndarray
    steps: tuple[np.ndarray | None, ...]
    backs: tuple[np.ndarray | None, ...]

    @classmethod
    def of(cls, rho0: DensityMatrix, observables: Sequence[Observable]) -> "Rotations":
        bases = [observable.eigenvectors for observable in observables]
        state = _change_basis(rho0.matrix[None], rotation(None, bases[0]))
        steps = tuple(None if v is w else rotation(v, w) for v, w in zip(bases, bases[1:]))
        backs = tuple(None if step is None else step.conj().T for step in steps)
        return cls(tuple(observables), state, np.array([rho0.log_scale]), steps, backs)


def _fold_stages(matrices, log_scale, observables, outcomes, sigmas, operators):
    # fold the stages in the order given, each in its own eigenbasis, after
    # operators[j] rewrites the stack in it; (B, k) outcomes and widths
    for j, observable in enumerate(observables):
        matrices, log_scale = fold(
            observable, sigmas[:, j], outcomes[:, j], _change_basis(matrices, operators[j]), log_scale
        )
    return matrices, log_scale


def chain_state_rows(rotations: Rotations, outcomes: np.ndarray, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked :func:`chain_state` fold for ``(B, k)`` outcomes and ``(B, N)`` widths, ``k <= N``.

    Returns ``(B, d, d)`` matrices written in the eigenbasis of the last
    of the ``k`` stages folded (of the first stage when ``k`` is 0) and
    ``(B,)`` log scales, or single broadcastable ones when no stage is
    folded. Callers check the states.
    """
    observables = rotations.observables[: outcomes.shape[1]]
    return _fold_stages(rotations.state, rotations.log_scale, observables, outcomes, sigmas, (None,) + rotations.steps)


def chain_state(chain: MeasurementChain, outcomes: Sequence[float]) -> DensityMatrix:
    """Unnormalized state after the first ``len(outcomes)`` stages.

    Left-fold of the Kraus operators at the given outcomes; the physical
    trace is the joint likelihood of those outcomes, tracked as a log-scale
    prefactor.
    """
    fixed, sigmas = one_row(chain, outcomes)
    matrices, log_scale = chain_state_rows(Rotations.of(chain.initial_state, chain.observables), fixed, sigmas)
    last = chain.observables[max(len(outcomes), 1) - 1].eigenvectors
    return DensityMatrix(_change_basis(matrices, rotation(last, None))[0], log_scale=float(log_scale[0]))


def effect_chain_rows(rotations: Rotations, outcomes: np.ndarray, sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`effect_chain` for ``(B, k)`` outcomes of the last ``k <= N`` of the N stages.

    Returns ``(B, d, d)`` effect matrices written in the eigenbasis of the
    last stage folded, stage ``N - k + 1``, and ``(B,)`` log scales, or a
    single broadcastable identity and zero when ``k`` is 0.
    """
    observables = rotations.observables
    identity = np.eye(observables[0].dim, dtype=complex)[None]
    # the identity reads the same in every basis: it starts in the last stage's
    later = slice(len(observables) - outcomes.shape[1], None)
    return _fold_stages(
        identity, np.zeros(1), observables[later][::-1], outcomes[:, ::-1], sigmas[:, later][:, ::-1],
        (None,) + rotations.backs[later][::-1],
    )


def effect_chain(chain: MeasurementChain, outcomes: Sequence[float]) -> tuple[np.ndarray, float]:
    """Effect product of the last ``len(outcomes)`` stages at fixed outcomes.

    Builds ``Omega_{k+1}^dagger ... Omega_N^dagger Omega_N ... Omega_{k+1}``
    from the inside out; an empty outcome list gives the identity. Returns
    ``(matrix, log_scale)``: the physical operator is
    ``exp(log_scale) * matrix``, so the matrix stays O(1).
    """
    rotations = Rotations.of(chain.initial_state, chain.observables)
    matrices, log_scale = effect_chain_rows(rotations, *one_row(chain, outcomes))
    operator = rotation(chain.observables[len(chain) - len(outcomes)].eigenvectors, None) if len(outcomes) else None
    return _change_basis(matrices, operator)[0], float(log_scale[0])


def density_rows(
    rotations: Rotations, free_index: int, fixed: np.ndarray, sigmas: np.ndarray, rows: FirstFailure, label: str
) -> ChainRows:
    """Densities of the free outcome for ``(B, N - 1)`` fixed outcomes and ``(B, N)`` widths: the rows core.

    ``sigmas`` pass :func:`~seqmeas.pointer.usable_width`, as :class:`Pointer` enforces;
    ``rotations`` holds the chain's initial state and stages. Each row
    checks, in order: finite outcomes, the state of the earlier stages,
    finite coefficients, the Hermitian residue of
    :func:`~seqmeas.pointer.pair_mixture`, and the normalization, which
    fails with :class:`ZeroLikelihood` (``"<label> normalization ... too
    small"``) when the zeroth moment is not above 1e-300. With free index 1
    no stage is folded and the state is ``rotations.state``, which
    :class:`DensityMatrix` construction checked.

    The coefficients are ``rho * E^T`` with the state ``rho`` and the
    effect ``E`` both written in the free stage's eigenbasis: a Schur
    product of PSD factors, so the pair sum is a nonnegative density.
    The result holds the live rows; the caller raises
    :meth:`FirstFailure.raise_first`.
    """
    n = rows.check(~np.isfinite(fixed).all(axis=-1), lambda i: ValueError("fixed outcomes must be finite"))
    free = free_index - 1
    # a record whose log weights all overflow folds to non-finite entries, which the checks
    # below refuse; a weight that alone overflows folds to zero, as its amplitude is
    with np.errstate(over="ignore", invalid="ignore"):
        # both factors end in the free stage's eigenbasis: the state one step on, the effect one step back
        rho = _change_basis(
            chain_state_rows(rotations, fixed[:n, :free], sigmas[:n])[0], ((None,) + rotations.steps)[free]
        )
        if free:
            n = check_states(rho, rows)
        effect, _ = effect_chain_rows(rotations, fixed[:n, free:], sigmas[:n])
    effect = _change_basis(effect, (rotations.backs + (None,))[free])
    coeffs = rho[:n] * effect.swapaxes(-1, -2)
    if len(coeffs) != n:
        coeffs = np.repeat(coeffs, n, axis=0)
    n = check_coefficients(coeffs.reshape(n, -1), rows)
    sigma = sigmas[:n, free]
    weights, centers = pair_mixture(coeffs[:n], rotations.observables[free].eigenvalues, sigma, rows)
    norm = weights.sum(axis=-1)
    n = rows.check(
        ~(np.isfinite(norm) & (norm >= 1e-300)),
        lambda i: ZeroLikelihood(f"{label} normalization {float(norm[i])!r} too small"),
    )
    return ChainRows(weights[:n], centers, sigma[:n], norm[:n])


def stats_rows(
    rotations: Rotations, free_index: int, fixed: np.ndarray, sigmas: np.ndarray, rows: FirstFailure, label: str
) -> ChainRows:
    """:func:`density_rows` with the moments of every live row.

    The second moment of every term carries the same additive ``sigma^2``,
    so the extracted variance comes from the center spread alone instead
    of subtracting ``sigma^2`` from a possibly huge total. A row whose
    extracted variance lies below ``-EXTRACTED_CLAMP`` fails with
    :class:`VarianceInconsistency`; one in ``[-EXTRACTED_CLAMP, 0)`` is
    clamped to zero and flagged.
    """
    density = density_rows(rotations, free_index, fixed, sigmas, rows, label)
    m0, centers, sigma = density.normalization, density.centers, density.sigma
    first = density.coeffs * centers
    mean = first.sum(axis=-1) / m0
    extracted = (first * centers).sum(axis=-1) / m0 - mean * mean
    n = rows.check(
        extracted < -EXTRACTED_CLAMP,
        lambda i: VarianceInconsistency(f"extracted variance {extracted[i]:.3e} below -{EXTRACTED_CLAMP:.0e}"),
    )
    clamped = extracted[:n] < 0.0
    extracted = np.where(clamped, 0.0, extracted[:n])
    stats = ConditionalStats(mean[:n], extracted + sigma[:n] * sigma[:n], extracted, clamped)
    return ChainRows(density.coeffs[:n], centers, sigma[:n], m0[:n], stats)


def _query(chain: MeasurementChain, query: ChainQuery, core) -> ChainRows:
    # one record through the rows core ``core``: the query's shape, then the chain's rotations
    fixed, sigmas = one_row(chain, query.fixed_outcomes)
    query.validate_for(chain)
    rotations = Rotations.of(chain.initial_state, chain.observables)
    return core(rotations, query.free_index, fixed, sigmas, FirstFailure(1), "conditional")


def conditional_density_k(
    chain: MeasurementChain, query: ChainQuery
) -> tuple[GaussianPairSum, float]:
    """Density of the free outcome conditioned on all fixed ones.

    Returns the unnormalized Gaussian pair sum and its normalization
    (zeroth moment); the density is their ratio.
    """
    densities = _query(chain, query, density_rows)
    return densities.density(0), float(densities.normalization[0])


def conditional_stats_k(chain: MeasurementChain, query: ChainQuery) -> ChainResult:
    """Mean, variance and extracted variance of the free outcome."""
    return _query(chain, query, stats_rows).result(0)
