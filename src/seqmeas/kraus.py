"""Measurement (Kraus) and effect operators for Gaussian-pointer stages.

A stage couples one system observable to one Gaussian probe. For a pointer
outcome ``x`` the Kraus operator is the eigenprojector sum weighted by the
pointer amplitude at ``x - a`` for each eigenvalue ``a``; the effect
operator is its square. Operators are stored densely in the computational
basis so chains over different observables multiply without basis
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observable
from .errors import QuadratureFailure
from .pointer import Pointer, amplitude, log_amplitude_at


@dataclass(frozen=True)
class MeasurementStage:
    """One indirect measurement: an observable probed at strength ``sigma``."""

    observable: Observable
    pointer: Pointer
    label: str = ""

    @property
    def dim(self) -> int:
        return self.observable.dim

    @property
    def sigma(self) -> float:
        return self.pointer.sigma


def scaled_kraus_weights(stage: MeasurementStage, x: float) -> tuple[np.ndarray, float]:
    """Per-level amplitudes rescaled so the largest is one.

    Returns ``(weights, log_scale)`` with true amplitudes
    ``exp(log_scale) * weights``; keeps far-outcome chains representable.
    """
    weights, top = scaled_weight_rows(stage.observable.levels, np.array([stage.sigma]), np.array([x]))
    return weights[0], float(top[0])


def scaled_weight_rows(levels, sigmas, xs) -> tuple[np.ndarray, np.ndarray]:
    """:func:`scaled_kraus_weights` for ``B`` (width, outcome) rows at once.

    Returns ``(B, L)`` weights whose row maximum is one and the ``(B,)``
    log scales.
    """
    logs = log_amplitude_at(sigmas[:, None], xs[:, None], levels)
    top = logs.max(axis=-1)
    return np.exp(logs - top[:, None]), top


def projector_sums(projectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Operators ``sum_g weights[b, g] P_g`` as a ``(B, d, d)`` stack.

    Accumulates from zero in level order, the rounding of
    ``einsum("g,gij->ij", w, P)`` for each row.
    """
    out = np.zeros((weights.shape[0],) + projectors.shape[1:], dtype=complex)
    for g, projector in enumerate(projectors):
        out += weights[:, g, None, None] * projector
    return out


def fold(observable: Observable, sigmas, xs, matrices, log_scale) -> tuple[np.ndarray, np.ndarray]:
    """One Kraus sandwich ``K rho K`` per (width, outcome) row.

    ``K`` is the stage's Kraus operator with weights rescaled as in
    :func:`scaled_weight_rows`; ``matrices`` is one ``(d, d)`` operator or
    a ``(B, d, d)`` stack. Returns the ``(B, d, d)`` products and
    ``log_scale`` plus twice each row's dropped log amplitude.
    """
    weights, log_w = scaled_weight_rows(observable.levels, sigmas, xs)
    kraus = projector_sums(observable.projectors, weights)
    return kraus @ matrices @ kraus, log_scale + 2.0 * log_w


def kraus_at(stage: MeasurementStage, x: float) -> np.ndarray:
    """Kraus operator ``sum_a psi(x - a) P_a`` at pointer outcome ``x``, as a matrix.

    Diagonal in the stage observable's eigenbasis; its operator norm never
    exceeds the peak amplitude ``amplitude(sigma, 0, 0)``.
    """
    w = amplitude(stage.pointer, x, stage.observable.levels)
    return projector_sums(stage.observable.projectors, w[None])[0]


def effect_at(stage: MeasurementStage, x: float) -> np.ndarray:
    """Effect operator ``sum_a psi(x - a)^2 P_a`` as a matrix; equals ``M^dagger M``."""
    w = amplitude(stage.pointer, x, stage.observable.levels) ** 2
    return projector_sums(stage.observable.projectors, w[None])[0]


def default_domain(stage: MeasurementStage, pad_sigmas: float = 10.0) -> tuple[float, float]:
    """Outcome interval covering every eigenvalue with a ``pad_sigmas`` margin."""
    levels = stage.observable.levels
    pad = pad_sigmas * stage.sigma
    return float(levels.min() - pad), float(levels.max() + pad)


def completeness_defect(stage: MeasurementStage, cfg=None, domain=None) -> float:
    """Max-norm defect ``|| int M_x^dagger M_x dx - I ||`` by quadrature.

    With the default domain (ten sigma beyond the extreme eigenvalues) the
    defect is tail mass only, far below 1e-8. Passing a narrower ``domain``
    quantifies truncation sensitivity instead.
    """
    from .oracle import QuadratureConfig, quad_moment

    if cfg is None:
        cfg = QuadratureConfig()
    if domain is None:
        domain = default_domain(stage, cfg.domain_pad)
    lo, hi = float(domain[0]), float(domain[1])
    if not lo < hi:
        raise QuadratureFailure(f"empty quadrature domain ({lo}, {hi})")
    weights = [
        quad_moment(lambda x, a=a: amplitude(stage.pointer, x, a) ** 2, (lo, hi), 0, cfg)
        for a in stage.observable.levels
    ]
    total = projector_sums(stage.observable.projectors, np.asarray(weights)[None])[0]
    return float(np.max(np.abs(total - np.eye(stage.dim))))
