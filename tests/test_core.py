import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqmeas import (
    DensityMatrix,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    Observable,
    PureState,
    eigh,
    group_degenerate,
    variance_of,
)
from seqmeas import spin
from seqmeas.core import DEGENERACY_GAP_TOL
from seqmeas.validate import random_density, random_hermitian, random_observable


class TestEigh:
    def test_already_diagonal(self):
        values, vectors = eigh(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-15)

    def test_spin_x_spectrum(self):
        values, vectors = eigh(np.array([[0.0, 0.5], [0.5, 0.0]]))
        np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-15)
        # eigenvectors are |-> and |+> up to phase
        for col, ket in zip(vectors.T, (spin.KET_MINUS, spin.KET_PLUS)):
            assert abs(abs(np.vdot(col, ket)) - 1.0) < 1e-12

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            values, vectors = eigh(h)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-9
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-10
            assert np.all(np.diff(values) >= 0)

    def test_eigen_equation_per_column(self, rng):
        h = random_hermitian(rng, 5)
        values, vectors = eigh(h)
        for lam, v in zip(values, vectors.T):
            assert np.max(np.abs(h @ v - lam * v)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGroupDegenerate:
    def test_exact_degeneracy(self):
        assert group_degenerate([1.0, 1.0, 2.0]) == [[0, 1], [2]]

    def test_spin_levels_stay_split(self):
        assert group_degenerate([-0.5, 0.5]) == [[0], [1]]

    def test_merge_below_tolerance(self):
        assert group_degenerate([0.0, 1e-12, 1.0]) == [[0, 1], [2]]

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            group_degenerate([1.0, 0.0])


class TestObservable:
    def test_projector_algebra(self, rng):
        for dim in (2, 3, 4):
            obs = random_observable(rng, dim)
            total = obs.projectors.sum(axis=0)
            assert np.max(np.abs(total - np.eye(dim))) < 1e-10
            rebuilt = np.einsum("g,gij->ij", obs.levels, obs.projectors)
            assert np.max(np.abs(rebuilt - obs.matrix)) < 1e-10
            for i, p in enumerate(obs.projectors):
                assert np.max(np.abs(p @ p - p)) < 1e-10
                for q in obs.projectors[i + 1 :]:
                    assert np.max(np.abs(p @ q)) < 1e-10

    def test_degenerate_spectrum_grouped(self):
        obs = Observable.from_matrix(np.diag([1.0, 1.0, 3.0]))
        assert obs.levels.tolist() == [1.0, 3.0]
        assert obs.projectors.shape == (2, 3, 3)


def per_group_spectral_data(values, vectors, gap_tol=DEGENERACY_GAP_TOL):
    """Levels, projectors and level index built group by group, one Python loop each."""
    groups = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= gap_tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    levels = np.array([values[g].mean() for g in groups])
    projectors = np.stack([vectors[:, g] @ vectors[:, g].conj().T for g in groups])
    level_of = np.empty(values.size, dtype=np.intp)
    for index, members in enumerate(groups):
        level_of[members] = index
    return levels, projectors, level_of


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


class TestFromSpectrumMatchesPerGroupLoop:
    """The spectral data equal a per-group construction bit for bit."""

    def assert_matches(self, obs, values, vectors, gap_tol=DEGENERACY_GAP_TOL):
        levels, projectors, level_of = per_group_spectral_data(values, vectors, gap_tol)
        assert np.array_equal(obs.eigenvalues, values)
        assert np.array_equal(obs.eigenvectors, vectors)
        assert np.array_equal(obs.levels, levels)
        assert obs.projectors.shape == projectors.shape
        assert np.array_equal(obs.projectors, projectors)
        assert obs.level_of.dtype == np.intp
        assert np.array_equal(obs.level_of, level_of)

    def test_random_nondegenerate(self, rng):
        for _ in range(240):
            dim = int(rng.integers(2, 6))
            h = random_hermitian(rng, dim) * 10.0 ** rng.uniform(-2, 2)
            values, vectors = eigh(h)
            assert np.all(np.diff(values) > DEGENERACY_GAP_TOL)
            self.assert_matches(Observable.from_matrix(h), values, vectors)
            self.assert_matches(Observable.from_spectrum(values, vectors), values, vectors)

    def test_presets(self):
        for obs in (spin.s_z(), spin.s_x()):
            self.assert_matches(obs, obs.eigenvalues, obs.eigenvectors)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 1.0, 3.0],
            [-1.0, 0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [-2.0, -2.0, 1.0, 1.0, 4.0],
            # within gap_tol of a neighbour, chained across a group
            [0.0, 4e-10, 8e-10, 1.0],
            [0.3, 0.3 + 1e-12, 2.0, 2.0 + 5e-10],
        ],
    )
    def test_degenerate(self, rng, values):
        values = np.array(values)
        for _ in range(10):
            vectors = random_unitary(rng, values.size)
            obs = Observable.from_spectrum(values, vectors)
            self.assert_matches(obs, values, vectors)
            assert obs.levels.size < values.size

    def test_custom_gap_tol(self, rng):
        values, vectors = np.array([0.0, 0.01, 0.5, 0.52]), random_unitary(rng, 4)
        for gap_tol in (1e-3, 0.015, 0.1, 1.0):
            obs = Observable.from_spectrum(values, vectors, gap_tol=gap_tol)
            self.assert_matches(obs, values, vectors, gap_tol)

    @pytest.mark.parametrize(
        "args,kwargs,error,message",
        [
            (([0.0, 1.0], np.eye(3)), {}, DimensionMismatch,
             "2 eigenvalues but eigenvector block of shape (3, 3)"),
            (([0.0, 1.0], [[1.0, 1.0], [0.0, 1.0]]), {}, ValueError,
             "eigenvectors not orthonormal: defect 1.000e+00"),
            (([1.0, 0.0], np.eye(2)), {}, ValueError, "eigenvalues must be ascending"),
            (([0.0, 1.0], np.eye(2)), {"gap_tol": 0.0}, ValueError, "gap_tol must be positive"),
            (([1.0, 0.0], np.eye(2)), {"gap_tol": -1.0}, ValueError, "gap_tol must be positive"),
        ],
    )
    def test_errors_unchanged(self, args, kwargs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            Observable.from_spectrum(*args, **kwargs)
        assert type(info.value) is error


class TestFromMatrixChecks:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=re.escape("expected a square matrix, got shape (2, 3)")):
            Observable.from_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            Observable.from_matrix(np.array([[0.0, np.nan], [np.nan, 1.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian, match="exceeds 1.0e-12"):
            Observable.from_matrix(np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]))

    def test_solver_failure_is_no_convergence(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            Observable.from_matrix(np.eye(2))

    def test_keeps_its_own_copy(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        obs = Observable.from_matrix(m)
        m[0, 0] = 5.0
        assert obs.matrix[0, 0] == 1.0
        assert not obs.matrix.flags.writeable


class TestDensityMatrix:
    def test_pure_state_roundtrip(self):
        rho = DensityMatrix.pure(spin.KET_PLUS)
        assert abs(rho.trace - 1.0) < 1e-15
        assert rho.is_normalized

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_log_scale_trace(self):
        rho = DensityMatrix(0.5 * np.eye(2), log_scale=-800.0)
        assert rho.trace == 0.0
        assert abs(rho.log_trace - (-800.0 + np.log(1.0))) < 1e-12
        assert rho.normalized().is_normalized


class TestVariance:
    def test_spin_values(self, plus, up):
        assert abs(variance_of(spin.s_z(), plus) - 0.25) < 1e-15
        assert variance_of(spin.s_x(), plus) < 1e-15
        assert variance_of(spin.s_z(), up) < 1e-15

    def test_dimension_mismatch(self, plus):
        with pytest.raises(DimensionMismatch):
            variance_of(Observable.from_matrix(np.diag([0.0, 1.0, 2.0])), plus)

    @given(seed=st.integers(0, 2**31 - 1), dim=st.sampled_from([2, 3, 4]))
    @settings(max_examples=60, deadline=None)
    def test_never_negative(self, seed, dim):
        rng = np.random.default_rng(seed)
        assert variance_of(random_observable(rng, dim), random_density(rng, dim)) >= 0.0

    def test_invariant_under_projector_relabeling(self, rng):
        h = random_hermitian(rng, 3)
        values, vectors = eigh(h)
        rho = random_density(rng, 3)
        base = variance_of(Observable.from_spectrum(values, vectors), rho)
        # same subspaces, different phases and intra-subspace labels
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        relabeled = Observable.from_spectrum(values, vectors * phases)
        assert abs(variance_of(relabeled, rho) - base) < 1e-12


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_density_is_projector(self):
        psi = PureState(spin.KET_MINUS)
        rho = psi.density()
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-14
