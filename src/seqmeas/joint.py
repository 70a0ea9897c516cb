"""Joint measurement model: both probes couple first, readout afterwards.

Only the first measurement disturbs the second here. The first pointer's
statistics are those of the initial state; the second pointer sees the
dephased post-first-measurement state, which widens its variance by the
backaction term. The entangled two-probe state is never materialized:
both pointer variances come from closed forms, with quadrature and Monte
Carlo oracles available as independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, Observable, check_states, require_same_dim, variance_of
from .errors import FirstFailure
from .kraus import MeasurementStage


@dataclass(frozen=True)
class JointModelResult:
    """Bundle of joint-model statistics for one (state, stage1, stage2) triple."""

    rho1: DensityMatrix
    var_x1: float
    var_x2: float
    var_a_rho0: float
    var_b_rho1: float
    var_b_rho0: float


def post_first_state(rho0: DensityMatrix, stage1: MeasurementStage) -> DensityMatrix:
    """State after the first coupling, before any readout.

    In the eigenbasis of the measured observable every matrix element picks
    up the pair overlap ``exp(-(a - a')^2 / (8 sigma^2))``: off-diagonal
    coherences decay, the diagonal (and hence the trace) is untouched.
    An eigenstate of the observable passes through unchanged.
    """
    require_same_dim(stage1.dim, rho0.dim)
    v = stage1.observable.eigenvectors
    dephased = _dephased_rows(rho0, stage1.observable, np.array([stage1.sigma]))[0]
    return DensityMatrix(v @ dephased @ v.conj().T)


def _dephased_rows(rho0: DensityMatrix, obs: Observable, sigmas: np.ndarray) -> np.ndarray:
    # one dephased state per width, as a (B, d, d) stack in the eigenbasis of obs
    v = obs.eigenvectors
    lam = obs.eigenvalues
    diff = lam[:, None] - lam[None, :]
    decay = np.exp(-(diff * diff) / (8.0 * sigmas * sigmas)[:, None, None])
    return decay * (v.conj().T @ rho0.matrix @ v)


def pointer1_variance(rho0: DensityMatrix, stage1: MeasurementStage) -> float:
    """Spread of the first pointer readout: ``sigma1^2 + Var(A)_rho0``.

    Depends only on the first stage; later stages cannot reach back in the
    joint model.
    """
    return stage1.sigma**2 + variance_of(stage1.observable, rho0)


def backaction_variance(
    rho0: DensityMatrix, stage1: MeasurementStage, observable_b: Observable
) -> float:
    """Variance of a second observable evaluated on the post-first state.

    Computed from the populations of the dephased state in the eigenbasis
    of ``observable_b``, so tests can pit it against the generic
    matrix-product variance.
    """
    rows = FirstFailure(1)
    return float(backaction_variance_rows(rho0, stage1.observable, np.array([stage1.sigma]), observable_b, rows)[0])


def backaction_variance_rows(
    rho0: DensityMatrix,
    obs1: Observable,
    sigma1: np.ndarray,
    observable_b: Observable,
    rows: FirstFailure,
) -> np.ndarray:
    """:func:`backaction_variance` for a ``(B,)`` column of first-stage widths.

    Widths must be finite and positive, as :class:`Pointer` enforces.
    Returns the variances of the live rows of ``rows``; the caller raises
    :meth:`FirstFailure.raise_first`.
    """
    require_same_dim(obs1.dim, observable_b.dim, rho0.dim)
    states = _dephased_rows(rho0, obs1, sigma1)
    n = check_states(states, rows)
    # diagonal of U^H rho U, U = V1^H V_B: the populations of B's eigenvectors
    u = obs1.eigenvectors.conj().T @ observable_b.eigenvectors
    populations = ((states[:n] @ u) * u.conj()).sum(axis=-2).real
    values = observable_b.eigenvalues
    mean = (populations * values).sum(axis=-1)
    second = (populations * values**2).sum(axis=-1)
    variance = second - mean * mean
    return np.where(0.0 > variance, 0.0, variance)


def pointer2_variance(
    rho0: DensityMatrix, stage1: MeasurementStage, stage2: MeasurementStage
) -> float:
    """Spread of the second pointer readout: ``sigma2^2 + Var(B)_rho1``."""
    require_same_dim(stage1.dim, stage2.dim, rho0.dim)
    return stage2.sigma**2 + backaction_variance(rho0, stage1, stage2.observable)


def joint_statistics(
    rho0: DensityMatrix, stage1: MeasurementStage, stage2: MeasurementStage
) -> JointModelResult:
    """All joint-model variances for one configuration."""
    require_same_dim(stage1.dim, stage2.dim, rho0.dim)
    rho1 = post_first_state(rho0, stage1)
    var_a = variance_of(stage1.observable, rho0)
    var_b_rho1 = backaction_variance(rho0, stage1, stage2.observable)
    return JointModelResult(
        rho1=rho1,
        var_x1=stage1.sigma**2 + var_a,
        var_x2=stage2.sigma**2 + var_b_rho1,
        var_a_rho0=var_a,
        var_b_rho1=var_b_rho1,
        var_b_rho0=variance_of(stage2.observable, rho0),
    )
