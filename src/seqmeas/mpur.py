"""Variance-sum uncertainty bounds and their conditional-measurement probe.

Implements the Heisenberg-Robertson commutator bound's stronger cousin:
``Var(A) + Var(B) >= max(R_a, R_b)`` with the two candidate bounds built
from an orthogonal state and from the variance of ``A + B``. Also
evaluates the sum of the two conditional (extracted) variances of a
two-stage measurement against that bound; the conditional sum may dip
below it, which is the point of the demonstration, not a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chain import Rotations, stats_rows
from .conditional import DIRECTIONS
from .core import DensityMatrix, Observable, PureState, require_same_dim, unit_amplitudes
from .errors import DegenerateDirection, FirstFailure, NotOrthogonal
from .kraus import MeasurementStage

ORTHOGONALITY_TOL = 1e-10
ZERO_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class MpurReport:
    """Outcome of one variance-sum bound check."""

    lhs_sum: float
    r_a: float
    r_b: float
    bound: float
    satisfied: bool
    commutator_sign: int


class ConditionalMpurSum(NamedTuple):
    sum: float
    classical_bound: float
    below: bool


def _expect(vector: np.ndarray, matrix: np.ndarray) -> complex:
    return complex(np.vdot(vector, matrix @ vector))


def _pure_variance(psi: PureState, obs: Observable) -> float:
    return _matrix_variance(psi.amplitudes, obs.matrix)


def _matrix_variance(v: np.ndarray, matrix: np.ndarray) -> float:
    mean = _expect(v, matrix).real
    second = _expect(v, matrix @ matrix).real
    return max(second - mean * mean, 0.0)


def orthogonal_state(psi: PureState, observable: Observable) -> PureState:
    """Normalized ``(A - <A>)|psi>``; orthogonal to ``psi`` by construction.

    Raises
    ------
    DegenerateDirection
        If ``psi`` is (numerically) an eigenstate of the observable, in
        which case the construction has nothing to normalize.
    """
    require_same_dim(psi.dim, observable.dim)
    return PureState(_orthogonal(psi.amplitudes, observable.matrix))


def _orthogonal(v: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    # the amplitudes of orthogonal_state, before PureState's checks
    mean = _expect(v, matrix).real
    shifted = matrix @ v - mean * v
    norm = float(np.linalg.norm(shifted))
    if norm * norm <= ZERO_VARIANCE_TOL:
        raise DegenerateDirection(
            f"variance {norm * norm:.3e} too small to define an orthogonal direction"
        )
    return shifted / norm


def _commutator(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[complex, int]:
    # <[A, B]> and the sign of commutator_sign
    comm = _expect(v, a @ b - b @ a)
    return comm, 1 if (1j * comm).real >= 0.0 else -1


def commutator_sign(psi: PureState, a: Observable, b: Observable) -> int:
    """Sign making ``+/- i <[A, B]>`` nonnegative (+1 on ties)."""
    return _commutator(psi.amplitudes, a.matrix, b.matrix)[1]


def bound_Ra(
    psi: PureState,
    a: Observable,
    b: Observable,
    psi_perp: PureState,
    sign: int | None = None,
) -> float:
    """First candidate bound ``+/- i<[A,B]> + |<psi|A +/- iB|psi_perp>|^2``.

    ``sign`` is +1 or -1; by default it is chosen so the commutator term is
    nonnegative. ``psi_perp`` must be orthonormal to ``psi``.
    """
    require_same_dim(psi.dim, a.dim, b.dim, psi_perp.dim)
    comm, auto = _commutator(psi.amplitudes, a.matrix, b.matrix)
    sign = auto if sign is None else sign
    return _bound_ra(psi.amplitudes, a.matrix, b.matrix, psi_perp.amplitudes, sign, comm)


def _bound_ra(v, a, b, w, sign: int, comm: complex) -> float:
    # R_a on amplitudes and matrices; ``comm`` is _commutator(v, a, b)
    cross = abs(complex(np.vdot(v, w)))
    if cross > ORTHOGONALITY_TOL:
        raise NotOrthogonal(f"|<psi|psi_perp>| = {cross:.3e}")
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    comm_term = (sign * 1j * comm).real
    cross_amp = complex(np.vdot(v, (a + sign * 1j * b) @ w))
    return float(comm_term + abs(cross_amp) ** 2)


def bound_Rb(psi: PureState, a: Observable, b: Observable) -> float:
    """Second candidate bound ``|<psi_perp_{A+B}|A+B|psi>|^2 / 2``.

    Built from the explicit orthogonal state of ``A + B``; algebraically it
    equals half the variance of ``A + B``, and collapses to zero (its
    limiting value) when ``psi`` is an eigenstate of the sum.

    Only the matrix of ``A + B`` is used, so the sum needs no spectral
    decomposition and no Hermiticity check of its own: two observables
    within tolerance can sum to a matrix just outside it.
    """
    require_same_dim(psi.dim, a.dim, b.dim)
    return _bound_rb(psi.amplitudes, a.matrix + b.matrix)


def _bound_rb(v: np.ndarray, total: np.ndarray) -> float:
    # R_b on amplitudes and the matrix of A + B
    if _matrix_variance(v, total) <= ZERO_VARIANCE_TOL:
        return 0.0
    perp = unit_amplitudes(_orthogonal(v, total))
    cross = complex(np.vdot(perp, total @ v))
    return float(0.5 * abs(cross) ** 2)


def _bounds(v: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float, int]:
    """``(R_a, R_b, sign)`` for unit amplitudes ``v`` and the matrices of ``A`` and ``B``.

    The orthogonal state for ``R_a`` follows the standard recipe: built
    from ``A`` when possible, from ``B`` otherwise, and from any unit
    vector orthogonal to ``psi`` if the state is an eigenstate of both
    (every choice is admissible; the bound then degenerates gracefully).
    """
    perp = None
    for reference in (a, b):
        try:
            perp = _orthogonal(v, reference)
            break
        except DegenerateDirection:
            continue
    perp = _any_orthogonal(v) if perp is None else unit_amplitudes(perp)
    comm, sign = _commutator(v, a, b)
    return _bound_ra(v, a, b, perp, sign, comm), _bound_rb(v, a + b), sign


def mpur_check(psi: PureState, a: Observable, b: Observable) -> MpurReport:
    """Evaluate ``Var(A) + Var(B) >= max(R_a, R_b)`` for a pure state (bounds of :func:`_bounds`)."""
    require_same_dim(psi.dim, a.dim, b.dim)
    lhs = _pure_variance(psi, a) + _pure_variance(psi, b)
    r_a, r_b, sign = _bounds(psi.amplitudes, a.matrix, b.matrix)
    bound = max(r_a, r_b)
    return MpurReport(
        lhs_sum=float(lhs),
        r_a=r_a,
        r_b=r_b,
        bound=bound,
        satisfied=bool(lhs >= bound - 1e-10),
        commutator_sign=sign,
    )


def _any_orthogonal(v: np.ndarray) -> np.ndarray:
    for i in range(v.size):
        candidate = np.zeros_like(v)
        candidate[i] = 1.0
        candidate = candidate - np.vdot(v, candidate) * v
        norm = float(np.linalg.norm(candidate))
        if norm > 0.5:
            return unit_amplitudes(candidate / norm)
    raise DegenerateDirection("no orthogonal direction found")  # pragma: no cover


def conditional_mpur_sum(
    rho0: DensityMatrix,
    stage1: MeasurementStage,
    stage2: MeasurementStage,
    x1: float,
    x2: float,
) -> ConditionalMpurSum:
    """Sum of the two extracted conditional variances against the pure-state bound.

    The classical bound is evaluated for the (pure) initial state and the
    two stage observables; ``below`` reports whether conditioning pushed
    the sum under it. This is a per-configuration evaluation, not a claim
    that any fixed bound governs conditional variances in general. The
    variances are those of ``forward_stats`` at ``x1`` and ``backward_stats``
    at ``x2``, bit for bit, with their errors in that order: two
    :func:`~seqmeas.chain.stats_rows` calls on one shared :class:`~seqmeas.chain.Rotations`.
    """
    require_same_dim(rho0.dim, stage1.dim, stage2.dim)
    values, vectors = np.linalg.eigh(rho0.matrix)
    if values[-1] < 1.0 - 1e-8:
        raise ValueError("initial state must be pure for the reference bound")
    v = unit_amplitudes(vectors[:, -1])
    # both directions share the initial state's rotation and the stage step
    rotations = Rotations.of(rho0, (stage1.observable, stage2.observable))
    sigmas = np.array([[stage1.sigma, stage2.sigma]])
    forward, backward = (
        stats_rows(rotations, free, np.array([[x]], dtype=float), sigmas, FirstFailure(1), DIRECTIONS[free][1])
        .stats.extracted_system_variance[0]
        for free, x in ((2, x1), (1, x2))
    )
    r_a, r_b, _ = _bounds(v, stage1.observable.matrix, stage2.observable.matrix)
    bound = max(r_a, r_b)
    total = float(forward + backward)
    return ConditionalMpurSum(sum=total, classical_bound=bound, below=bool(total < bound))
