"""Measurement (Kraus) and effect operators for Gaussian-pointer stages.

A stage couples one system observable to one Gaussian probe. For a pointer
outcome ``x`` the Kraus operator is ``sum_i psi(x - a_i) |i><i|`` over the
observable's eigenvectors ``|i>`` and eigenvalues ``a_i``; the effect
operator is its square. Equal eigenvalues get equal weights, so this is the
eigenprojector sum of a degenerate spectrum. In the observable's eigenbasis
both operators are diagonal, ``diag(w)``, so the engine folds a stage into
a state or an effect as a Hadamard product there (:func:`fold`) and changes
basis only between stages. :func:`kraus_at` and :func:`effect_at` return
the dense matrices in the computational basis.
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
    """Per-eigenvalue amplitudes rescaled so the largest is one.

    Returns ``(weights, log_scale)`` with true amplitudes
    ``exp(log_scale) * weights``; keeps far-outcome chains representable.
    """
    logs = log_amplitude_at(stage.sigma, x, stage.observable.eigenvalues)
    top = logs.max()
    return np.exp(logs - top), float(top)


def fold(observable: Observable, sigmas, xs, matrices, log_scale) -> tuple[np.ndarray, np.ndarray]:
    """One Kraus sandwich ``K rho K`` per (width, outcome) row, in the stage's eigenbasis.

    There ``K`` is ``diag(w)`` with one weight per eigenvalue, so the
    product is ``(w_i w_j) * rho_ij``. ``matrices`` is one ``(d, d)``
    operator or a ``(B, d, d)`` stack, written in the eigenbasis. Each
    row's weights are rescaled so that its largest folded diagonal entry
    is one; a row whose populated entries underflow against that scale
    folds to zero. Returns the ``(B, d, d)`` products and ``log_scale``
    plus twice each row's dropped log factor.

    The products are exactly Hermitian: the fold takes the Hermitian part
    of ``matrices``. A fold that selects a direction of small population
    scales its entries up by the inverse population, and with them the
    anti-Hermitian rounding of the basis change before it.
    """
    logs = log_amplitude_at(sigmas[:, None], xs[:, None], observable.eigenvalues)
    diagonal = matrices.diagonal(axis1=-2, axis2=-1).real
    top = (logs + 0.5 * np.log(np.maximum(diagonal, 1e-300))).max(axis=-1)
    w = np.exp(logs - top[:, None])
    # (w_i w_j / 2)(M + M^H): both factors are exactly symmetric, so the product is exactly Hermitian
    folded = (w[:, :, None] * (0.5 * w)[:, None, :]) * (matrices + matrices.swapaxes(-1, -2).conj())
    return folded, log_scale + 2.0 * top


def _spectral_matrix(observable: Observable, weights: np.ndarray) -> np.ndarray:
    # sum_i weights[i] |i><i| in the computational basis: V diag(weights) V^H
    v = observable.eigenvectors
    return (v * weights) @ v.conj().T


def kraus_at(stage: MeasurementStage, x: float) -> np.ndarray:
    """Kraus operator ``sum_i psi(x - a_i) |i><i|`` at pointer outcome ``x``, as a matrix.

    Diagonal in the stage observable's eigenbasis; its operator norm never
    exceeds the peak amplitude ``amplitude(sigma, 0, 0)``.
    """
    return _spectral_matrix(stage.observable, amplitude(stage.pointer, x, stage.observable.eigenvalues))


def effect_at(stage: MeasurementStage, x: float) -> np.ndarray:
    """Effect operator ``sum_i psi(x - a_i)^2 |i><i|`` as a matrix; equals ``M^dagger M``."""
    return _spectral_matrix(stage.observable, amplitude(stage.pointer, x, stage.observable.eigenvalues) ** 2)


def default_domain(stage: MeasurementStage, pad_sigmas: float = 10.0) -> tuple[float, float]:
    """Outcome interval covering every eigenvalue with a ``pad_sigmas`` margin."""
    values = stage.observable.eigenvalues
    pad = pad_sigmas * stage.sigma
    return float(values.min() - pad), float(values.max() + pad)


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
        for a in stage.observable.eigenvalues
    ]
    total = _spectral_matrix(stage.observable, np.asarray(weights))
    return float(np.max(np.abs(total - np.eye(stage.dim))))
