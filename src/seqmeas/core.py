"""Dense complex linear algebra for finite-dimensional quantum systems.

States are density matrices, observables are stored spectrally
(eigenvalues, eigenvectors, and one projector per distinct eigenvalue).
Everything is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, FirstFailure, NoConvergence, NotHermitian, ZeroLikelihood

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
DEGENERACY_GAP_TOL = 1e-9
VARIANCE_CLAMP = 1e-12


def _as_square(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _as_square_complex(matrix) -> np.ndarray:
    m = _as_square(matrix)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def hermiticity_defect(matrix: np.ndarray):
    """Largest entrywise deviation of ``matrix`` from its adjoint.

    A ``(B, d, d)`` stack gives one defect per matrix.
    """
    if not matrix.size:
        return 0.0
    deviation = np.abs(matrix - matrix.swapaxes(-1, -2).conj())
    if deviation.ndim == 2:
        return float(deviation.max())
    return deviation.reshape(len(deviation), -1).max(axis=-1)


def check_states(
    matrices: np.ndarray, rows: FirstFailure, herm_tol: float = HERMITICITY_TOL
) -> int:
    """State checks on a ``(B, d, d)`` stack, row by row: finite, Hermitian, PSD.

    Returns the live row count of ``rows``; see :class:`FirstFailure`.
    """
    n = rows.check(
        ~np.isfinite(matrices).all(axis=(-2, -1)),
        lambda i: ValueError("matrix contains non-finite entries"),
    )
    if not matrices.shape[-1]:
        return n
    defect = hermiticity_defect(matrices[:n])
    n = rows.check(
        defect > herm_tol, lambda i: NotHermitian(f"max |rho - rho^dagger| = {defect[i]:.3e}")
    )
    min_eig = np.linalg.eigvalsh(matrices[:n])[:, 0]
    return rows.check(
        min_eig < -PSD_TOL,
        lambda i: ValueError(f"state not positive semidefinite: min eigenvalue {min_eig[i]:.3e}"),
    )


def normalize_states(matrices: np.ndarray, rows: FirstFailure) -> np.ndarray:
    """Unit-trace copies of a ``(B, d, d)`` stack of states, checked again.

    Rows whose trace is not finite or below 1e-300 fail with
    :class:`ZeroLikelihood`. Returns the live rows only.
    """
    t = np.trace(matrices, axis1=-2, axis2=-1).real
    n = rows.check(
        ~(np.isfinite(t) & (t >= 1e-300)),
        lambda i: ZeroLikelihood(f"cannot normalize state with trace {t[i]:.3e}"),
    )
    normalized = matrices[:n] / t[:n, None, None]
    return normalized[: check_states(normalized, rows)]


def eigh(matrix, *, herm_tol: float = HERMITICITY_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix, Hermitian within ``herm_tol`` (entrywise).
    herm_tol : float
        Largest tolerated entry of ``M - M^dagger``.

    Returns
    -------
    eigenvalues : ndarray
        Real eigenvalues in ascending order.
    eigenvectors : ndarray
        Orthonormal eigenvectors as columns, matching the eigenvalue order.

    Raises
    ------
    NotHermitian
        If the Hermiticity tolerance is violated.
    NoConvergence
        If the underlying solver fails to converge.
    """
    return _eigh_square(_as_square_complex(matrix), herm_tol)


def _eigh_square(m: np.ndarray, herm_tol: float = HERMITICITY_TOL):
    """:func:`eigh` of a matrix that already passed :func:`_as_square_complex`."""
    defect = hermiticity_defect(m)
    if defect > herm_tol:
        raise NotHermitian(f"max |M - M^dagger| = {defect:.3e} exceeds {herm_tol:.1e}")
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def group_degenerate(eigenvalues, gap_tol: float = DEGENERACY_GAP_TOL) -> list[list[int]]:
    """Partition ascending eigenvalues into groups of (near-)degenerate ones.

    Consecutive eigenvalues closer than ``gap_tol`` are merged into one
    spectral group; each group later becomes a single projector.
    """
    values = np.asarray(eigenvalues, dtype=float)
    starts = _group_starts(values, gap_tol)
    if values.size == 0:
        return []
    return [g.tolist() for g in np.split(np.arange(values.size), np.flatnonzero(starts) + 1)]


def _group_starts(values: np.ndarray, gap_tol: float) -> np.ndarray:
    """Whether each eigenvalue after the first starts a new group (its gap is not <= gap_tol)."""
    if gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    gaps = np.diff(values)
    if (gaps < -gap_tol).any():
        raise ValueError("eigenvalues must be ascending")
    return ~(gaps <= gap_tol)


@dataclass(frozen=True)
class Observable:
    """Hermitian operator stored as spectral data.

    Attributes
    ----------
    matrix : ndarray
        The operator in the computational basis.
    eigenvalues : ndarray
        Ascending eigenvalues, with multiplicity.
    eigenvectors : ndarray
        Orthonormal eigenvector columns, aligned with ``eigenvalues``.
    levels : ndarray
        Distinct eigenvalues after degeneracy grouping.
    projectors : ndarray
        Stack of spectral projectors, one per level; Hermitian, idempotent,
        mutually orthogonal, summing to the identity.
    level_of : ndarray
        Index into ``levels`` for each entry of ``eigenvalues``.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    levels: np.ndarray
    projectors: np.ndarray
    level_of: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix, gap_tol: float = DEGENERACY_GAP_TOL) -> "Observable":
        """Build an observable from a Hermitian matrix."""
        m = _as_square_complex(matrix)
        values, vectors = _eigh_square(m)
        return cls.from_spectrum(values, vectors, gap_tol=gap_tol, matrix=m)

    @classmethod
    def from_spectrum(
        cls,
        eigenvalues,
        eigenvectors,
        gap_tol: float = DEGENERACY_GAP_TOL,
        matrix: np.ndarray | None = None,
    ) -> "Observable":
        """Build an observable from ascending eigenvalues and orthonormal columns."""
        values = np.asarray(eigenvalues, dtype=float).copy()
        vectors = np.array(eigenvectors, dtype=complex)
        d = values.size
        if vectors.shape != (d, d):
            raise DimensionMismatch(
                f"{d} eigenvalues but eigenvector block of shape {vectors.shape}"
            )
        unitarity = np.abs(vectors.conj().T @ vectors - np.eye(d)).max()
        if unitarity > 1e-10:
            raise ValueError(f"eigenvectors not orthonormal: defect {unitarity:.3e}")
        starts = _group_starts(values, gap_tol)
        if starts.all():
            # nondegenerate: one rank-1 projector per eigenvalue, all in one matmul
            level_of = np.arange(d, dtype=np.intp)
            levels = values.copy()
            columns = vectors.T
            projectors = columns[:, :, None] @ columns[:, None, :].conj()
        else:
            # per group, as before: whole-array forms round the sums differently
            level_of = np.zeros(d, dtype=np.intp)
            np.cumsum(starts, out=level_of[1:])
            groups = group_degenerate(values, gap_tol)
            levels = np.array([values[g].mean() for g in groups])
            projectors = np.stack([vectors[:, g] @ vectors[:, g].conj().T for g in groups])
        if matrix is None:
            matrix = (vectors * values) @ vectors.conj().T
        return cls(
            matrix=_frozen(matrix),
            eigenvalues=_frozen(values),
            eigenvectors=_frozen(vectors),
            levels=_frozen(levels),
            projectors=_frozen(projectors),
            level_of=_frozen(level_of),
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite state, normalized or not.

    The physical matrix is ``exp(log_scale) * matrix``; the split keeps
    conditional states with astronomically small likelihoods representable.
    A normalized state has ``log_scale == 0`` and unit trace.
    """

    matrix: np.ndarray
    log_scale: float = 0.0
    herm_tol: float = field(default=HERMITICITY_TOL, repr=False, compare=False)

    def __post_init__(self):
        m = _as_square(self.matrix)
        check_states(m[None], FirstFailure(1), self.herm_tol)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        """Physical trace; may underflow to 0.0 for extreme conditioning."""
        return float(np.trace(self.matrix).real * np.exp(self.log_scale))

    @property
    def log_trace(self) -> float:
        """Logarithm of the physical trace, robust against underflow."""
        t = float(np.trace(self.matrix).real)
        if t <= 0.0:
            return -np.inf
        return float(np.log(t) + self.log_scale)

    @property
    def is_normalized(self) -> bool:
        return self.log_scale == 0.0 and abs(float(np.trace(self.matrix).real) - 1.0) <= 1e-12

    def normalized(self) -> "DensityMatrix":
        """Unit-trace version of this state.

        Raises
        ------
        ZeroLikelihood
            If the trace is too small to normalize against.
        """
        return DensityMatrix(normalize_states(self.matrix[None], FirstFailure(1))[0])

    @classmethod
    def from_matrix(cls, matrix, *, require_normalized: bool = True) -> "DensityMatrix":
        state = cls(matrix)
        if require_normalized:
            t = float(np.trace(state.matrix).real)
            if abs(t - 1.0) > 1e-12:
                raise ValueError(f"trace {t!r} differs from 1 beyond 1e-12")
        return state

    @classmethod
    def pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a (normalized) state vector."""
        v = np.asarray(amplitudes, dtype=complex).ravel()
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes have norm {norm!r}, expected 1")
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).ravel()
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", _frozen(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap_with(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def level_weights(projectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Real parts of ``Tr[P_g rho]`` for every level and every row of a state stack.

    Returns ``(B, L)`` for ``(L, d, d)`` projectors and ``(B, d, d)`` states.
    Each product is rounded on its own and the sums run left to right,
    row index outer, column index inner: the rounding of
    ``einsum("gij,ji->g", P, rho)`` for each state.
    """
    swapped = np.swapaxes(states, -1, -2)[:, None]
    terms = projectors.real * swapped.real - projectors.imag * swapped.imag
    row_sums = np.cumsum(terms, axis=-1)[..., -1]
    return 0.0 + np.cumsum(row_sums, axis=-1)[..., -1]


def require_same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions disagree: {dims}")


def expectation_of(obs: Observable, rho: DensityMatrix) -> float:
    """Tr[A rho] for a normalized state."""
    require_same_dim(obs.dim, rho.dim)
    return float(np.trace(obs.matrix @ rho.matrix).real)


def variance_of(obs: Observable, rho: DensityMatrix) -> float:
    """Variance Tr[A^2 rho] - Tr[A rho]^2 of an observable in a state.

    Small negative roundoff (above ``-1e-12``) is clamped to zero.
    """
    require_same_dim(obs.dim, rho.dim)
    t = float(np.trace(rho.matrix).real * np.exp(rho.log_scale))
    if abs(t - 1.0) > 1e-9:
        raise ValueError(f"variance_of expects a normalized state, trace is {t!r}")
    a = obs.matrix
    mean = float(np.trace(a @ rho.matrix).real)
    second = float(np.trace(a @ a @ rho.matrix).real)
    var = second - mean * mean
    if var < -VARIANCE_CLAMP:
        raise ValueError(f"variance {var:.3e} below roundoff floor; inputs inconsistent")
    return max(var, 0.0)
