import numpy as np
import pytest

from seqmeas import DensityMatrix, MeasurementStage, Pointer
from seqmeas import spin


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def plus():
    return spin.plus_state()


@pytest.fixture
def sz_stage():
    def make(sigma: float) -> MeasurementStage:
        return MeasurementStage(spin.s_z(), Pointer(sigma), label="z")

    return make


@pytest.fixture
def sx_stage():
    def make(sigma: float) -> MeasurementStage:
        return MeasurementStage(spin.s_x(), Pointer(sigma), label="x")

    return make


@pytest.fixture
def up():
    return DensityMatrix.pure(spin.KET_UP)


@pytest.fixture
def spectral_projectors():
    """Builds an observable's ``L`` distinct eigenvalues and ``(L, d, d)`` spectral projectors.

    Only exactly equal eigenvalues share a projector.
    """

    def build(obs) -> tuple[np.ndarray, np.ndarray]:
        levels, level_of = np.unique(obs.eigenvalues, return_inverse=True)
        v = obs.eigenvectors
        return levels, np.stack(
            [v[:, level_of == g] @ v[:, level_of == g].conj().T for g in range(levels.size)]
        )

    return build
