"""Dense complex linear algebra for finite-dimensional quantum systems.

States are density matrices, observables are stored spectrally
(eigenvalues with multiplicity, as ``numpy.linalg.eigh`` gives them, and
eigenvectors). Everything is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FirstFailure, NoConvergence, NotHermitian, ZeroLikelihood

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
VARIANCE_CLAMP = 1e-12
#: Largest |eigenvalue| admitted: every square, squared gap and second moment the engine forms stays finite
SPECTRUM_BOUND = 1e153


def _as_square(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(array: np.ndarray) -> np.ndarray:
    # numpy makes a view writable again while an array it views is writable,
    # and an array that owns its memory always: freeze the chain, return a view
    base = array
    while isinstance(base, np.ndarray):
        base.setflags(write=False)
        base = base.base
    return array.view()


def hermiticity_defect(matrices: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation of each matrix of a ``(B, d, d)`` stack, ``d >= 1``, from its adjoint."""
    return np.abs(matrices - matrices.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def check_states(matrices: np.ndarray, rows: FirstFailure) -> int:
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
        defect > HERMITICITY_TOL, lambda i: NotHermitian(f"max |rho - rho^dagger| = {defect[i]:.3e}")
    )
    min_eig = np.linalg.eigvalsh(matrices[:n])[:, 0]
    return rows.check(
        min_eig < -PSD_TOL,
        lambda i: ValueError(f"state not positive semidefinite: min eigenvalue {min_eig[i]:.3e}"),
    )


@dataclass(frozen=True)
class Observable:
    """Hermitian operator stored as spectral data.

    Attributes
    ----------
    matrix : ndarray
        The operator in the computational basis.
    eigenvalues : ndarray
        Ascending eigenvalues, with multiplicity, within ``+-SPECTRUM_BOUND``.
    eigenvectors : ndarray
        Orthonormal eigenvector columns, aligned with ``eigenvalues``; the
        columns of equal eigenvalues span their spectral projector.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Build an observable from a Hermitian matrix."""
        m = _as_square(matrix)
        if not m.size:
            raise ValueError("expected a square matrix, got shape (0, 0)")
        return cls._from_stack(m[None], FirstFailure(1))[0]

    @classmethod
    def from_matrices(cls, matrices) -> list["Observable"]:
        """Observables of a ``(N, d, d)`` stack of Hermitian matrices, from one stacked eigh.

        Each matrix passes the checks of :meth:`from_matrix` in the same
        order: finite, Hermitian within ``HERMITICITY_TOL``, solver
        convergence, then :data:`SPECTRUM_BOUND`. The first failing matrix
        raises, and the error carries that matrix's index as ``row``.
        """
        m = np.array(matrices, dtype=complex)
        if m.ndim != 3 or m.shape[1] != m.shape[2] or not m.shape[1]:
            raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
        if not len(m):
            return []
        rows = FirstFailure(len(m))
        observables = cls._from_stack(m, rows)
        rows.raise_first()
        return observables

    @classmethod
    def _from_stack(cls, m, rows) -> list["Observable"]:
        """:meth:`from_matrices` of a stack of this call's own copies; ``rows`` records failures."""
        n = rows.check(
            ~np.isfinite(m).all(axis=(-2, -1)),
            lambda i: ValueError("matrix contains non-finite entries"),
        )
        m = m[:n]
        defect = hermiticity_defect(m)
        n = rows.check(
            defect > HERMITICITY_TOL,
            lambda i: NotHermitian(f"max |M - M^dagger| = {defect[i]:.3e} exceeds {HERMITICITY_TOL:.1e}"),
        )
        values, vectors = _eigh_rows(m[:n], rows)
        largest = np.abs(values).max(axis=-1)
        n = rows.check(~(largest <= SPECTRUM_BOUND), lambda i: _beyond_bound(largest[i]))
        # eigh gives ascending eigenvalues and orthonormal columns, in fresh arrays
        return [
            cls(matrix=matrix, eigenvalues=value, eigenvectors=vector)
            for matrix, value, vector in zip(_frozen(m)[:n], _frozen(values)[:n], _frozen(vectors)[:n])
        ]

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors) -> "Observable":
        """Build an observable from ascending eigenvalues and orthonormal columns; its matrix is ``V diag(values) V^H``.

        Checks, in order: finite values, finite vectors, a ``(d, d)`` block,
        orthonormal within 1e-10, ascending, then :data:`SPECTRUM_BOUND`.
        """
        values = np.array(eigenvalues, dtype=float).ravel()
        vectors = np.array(eigenvectors, dtype=complex)
        # NaN would pass every tolerance test that follows, since comparisons with it are false
        if not np.isfinite(values).all():
            raise ValueError("eigenvalues contain non-finite entries")
        if not np.isfinite(vectors).all():
            raise ValueError("eigenvectors contain non-finite entries")
        d = values.size
        if vectors.shape != (d, d):
            raise DimensionMismatch(f"{d} eigenvalues but eigenvector block of shape {vectors.shape}")
        unitarity = np.abs(vectors.conj().T @ vectors - np.eye(d)).max()
        if unitarity > 1e-10:
            raise ValueError(f"eigenvectors not orthonormal: defect {unitarity:.3e}")
        if (np.diff(values) < 0.0).any():
            raise ValueError("eigenvalues must be ascending")
        largest = np.abs(values).max()
        if largest > SPECTRUM_BOUND:
            raise _beyond_bound(largest)
        matrix = (vectors * values) @ vectors.conj().T
        return cls(matrix=_frozen(matrix), eigenvalues=_frozen(values), eigenvectors=_frozen(vectors))


def _beyond_bound(largest) -> ValueError:
    return ValueError(f"eigenvalues must lie within +-{SPECTRUM_BOUND:.0e}, got max |eigenvalue| {largest:.3e}")


def _eigh_rows(m: np.ndarray, rows: FirstFailure):
    """Stacked eigh of the live rows of ``m``; a solver failure is :class:`NoConvergence`."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        pass
    # the stacked solver does not say which matrix failed: redo them one by one
    done = []
    for i, matrix in enumerate(m):
        try:
            done.append(np.linalg.eigh(matrix))
        except np.linalg.LinAlgError as exc:
            rows.check(np.arange(len(m)) == i, lambda _: NoConvergence(str(exc)))
            break
    d = m.shape[-1]
    return (
        np.array([w for w, _ in done]).reshape(len(done), d),
        np.array([v for _, v in done], dtype=complex).reshape(len(done), d, d),
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

    def __post_init__(self):
        m = _as_square(self.matrix)
        check_states(m[None], FirstFailure(1))
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
        t = float(np.trace(self.matrix).real)
        if not (np.isfinite(t) and t >= 1e-300):
            raise ZeroLikelihood(f"cannot normalize state with trace {t:.3e}")
        return DensityMatrix(self.matrix / t)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        state = cls(matrix)
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


def unit_amplitudes(amplitudes) -> np.ndarray:
    """:class:`PureState`'s amplitudes and checks, without the object: a flat complex copy."""
    v = np.array(amplitudes, dtype=complex).ravel()
    if not np.all(np.isfinite(v.view(float))):
        raise ValueError("amplitudes contain non-finite entries")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state norm {norm!r} differs from 1 beyond 1e-12")
    return v


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen(unit_amplitudes(self.amplitudes)))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap_with(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def require_same_dim(*dims: int) -> None:
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions disagree: {dims}")


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
