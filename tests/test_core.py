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
    variance_of,
)
from seqmeas import spin
from seqmeas.core import SPECTRUM_BOUND, check_states
from seqmeas.errors import FirstFailure
from seqmeas.validate import random_density, random_hermitian, random_observable


class TestEigh:
    """The spectral data :meth:`Observable.from_matrix` stores: ascending eigenvalues, orthonormal columns."""

    @staticmethod
    def eigh(matrix):
        obs = Observable.from_matrix(matrix)
        return obs.eigenvalues, obs.eigenvectors

    def test_already_diagonal(self):
        values, vectors = self.eigh(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0])
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-15)

    def test_spin_x_spectrum(self):
        values, vectors = self.eigh(np.array([[0.0, 0.5], [0.5, 0.0]]))
        np.testing.assert_allclose(values, [-0.5, 0.5], atol=1e-15)
        # eigenvectors are |-> and |+> up to phase
        for col, ket in zip(vectors.T, (spin.KET_MINUS, spin.KET_PLUS)):
            assert abs(abs(np.vdot(col, ket)) - 1.0) < 1e-12

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            h = random_hermitian(rng, 4)
            values, vectors = self.eigh(h)
            rebuilt = (vectors * values) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - h)) < 1e-9
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(4))) < 1e-10
            assert np.all(np.diff(values) >= 0)

    def test_eigen_equation_per_column(self, rng):
        h = random_hermitian(rng, 5)
        values, vectors = self.eigh(h)
        for lam, v in zip(values, vectors.T):
            assert np.max(np.abs(h @ v - lam * v)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            self.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestObservable:
    def test_projector_algebra(self, rng, spectral_projectors):
        for dim in (2, 3, 4):
            obs = random_observable(rng, dim)
            levels, projectors = spectral_projectors(obs)
            total = projectors.sum(axis=0)
            assert np.max(np.abs(total - np.eye(dim))) < 1e-10
            rebuilt = np.einsum("g,gij->ij", levels, projectors)
            assert np.max(np.abs(rebuilt - obs.matrix)) < 1e-10
            for i, p in enumerate(projectors):
                assert np.max(np.abs(p @ p - p)) < 1e-10
                for q in projectors[i + 1 :]:
                    assert np.max(np.abs(p @ q)) < 1e-10

    def test_degenerate_spectrum_grouped(self):
        # a degenerate level is its equal eigenvalues, and their columns span its projector
        obs = Observable.from_matrix(np.diag([1.0, 1.0, 3.0]))
        assert obs.eigenvalues.tolist() == [1.0, 1.0, 3.0]
        v = obs.eigenvectors[:, :2]
        assert np.max(np.abs(v @ v.conj().T - np.diag([1.0, 1.0, 0.0]))) < 1e-15


def random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


class TestFromSpectrumMatchesPerGroupLoop:
    """The spectral data are the spectrum as given, bit for bit, degenerate or not."""

    def assert_matches(self, obs, values, vectors):
        assert np.array_equal(obs.eigenvalues, values)
        assert np.array_equal(obs.eigenvectors, vectors)

    def test_random_nondegenerate(self, rng):
        for _ in range(240):
            dim = int(rng.integers(2, 6))
            h = random_hermitian(rng, dim) * 10.0 ** rng.uniform(-2, 2)
            values, vectors = np.linalg.eigh(h)
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
            # gaps of at most 1e-9 to a neighbour
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

    @pytest.mark.parametrize(
        "args,kwargs,error,message",
        [
            (([0.0, 1.0], np.eye(3)), {}, DimensionMismatch,
             "2 eigenvalues but eigenvector block of shape (3, 3)"),
            (([0.0, 1.0], [[1.0, 1.0], [0.0, 1.0]]), {}, ValueError,
             "eigenvectors not orthonormal: defect 1.000e+00"),
            (([1.0, 0.0], np.eye(2)), {}, ValueError, "eigenvalues must be ascending"),
            # any negative gap, however small
            (([1.0, 1.0 - 1e-12], np.eye(2)), {}, ValueError, "eigenvalues must be ascending"),
        ],
    )
    def test_errors_unchanged(self, args, kwargs, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
            Observable.from_spectrum(*args, **kwargs)
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "values,vectors,message",
        [
            ([0.0, np.nan], np.eye(2), "eigenvalues contain non-finite entries"),
            ([0.0, np.inf], np.eye(2), "eigenvalues contain non-finite entries"),
            ([-np.inf, 0.0], np.eye(2), "eigenvalues contain non-finite entries"),
            ([0.0, 1.0], [[1.0, 0.0], [0.0, np.nan]], "eigenvectors contain non-finite entries"),
            ([0.0, 1.0], [[1.0, 0.0], [0.0, complex(1.0, np.nan)]],
             "eigenvectors contain non-finite entries"),
            # the finite check comes before the shape and ordering checks
            ([np.nan, 1.0, 0.0], np.eye(2), "eigenvalues contain non-finite entries"),
        ],
    )
    def test_rejects_non_finite(self, values, vectors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Observable.from_spectrum(values, vectors)
        assert type(info.value) is ValueError


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


class TestSpectrumBound:
    """Both builders refuse a spectrum beyond ``SPECTRUM_BOUND``, where the engine's squares overflow."""

    @pytest.mark.parametrize("entry,shown", [(1.7e308, "inf"), (1e308, "1.414e+308")])
    def test_from_matrix_refuses(self, entry, shown):
        message = f"eigenvalues must lie within +-1e+153, got max |eigenvalue| {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            Observable.from_matrix([[entry, entry], [entry, -entry]])
        assert type(info.value) is ValueError

    def test_from_matrices_names_its_row(self):
        with pytest.raises(ValueError, match="eigenvalues must lie within") as info:
            Observable.from_matrices([np.eye(2), np.diag([0.0, 2e153]), np.diag([0.0, np.inf])])
        assert info.value.row == 1

    def test_from_spectrum_refuses_after_its_other_checks(self):
        with pytest.raises(ValueError, match=re.escape("got max |eigenvalue| 2.000e+153")):
            Observable.from_spectrum([-2e153, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="eigenvalues must be ascending"):
            Observable.from_spectrum([2e153, 0.0], np.eye(2))

    def test_bound_itself_admitted(self):
        edge = [-SPECTRUM_BOUND, SPECTRUM_BOUND]
        assert Observable.from_spectrum(edge, np.eye(2)).eigenvalues.tolist() == edge
        assert Observable.from_matrix(np.diag(edge)).eigenvalues.tolist() == edge


def test_from_spectrum_rebuilds_its_matrix(rng):
    values, vectors = np.array([-1.0, 0.5, 2.0]), random_unitary(rng, 3)
    obs = Observable.from_spectrum(values, vectors)
    assert np.array_equal(obs.matrix, (vectors * values) @ vectors.conj().T)
    vectors[0, 0] = values[0] = 5.0
    assert obs.eigenvalues[0] == -1.0 and obs.eigenvectors[0, 0] != 5.0


class TestCannotBeMadeWritable:
    """No array field can be made writable again, so shared observables stay shared values."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Observable.from_matrix(np.diag([1.0, 2.0])),
            lambda: Observable.from_matrices(np.stack([np.eye(2), np.diag([1.0, 2.0])]))[1],
            lambda: Observable.from_spectrum([1.0, 2.0], np.eye(2)),
            spin.s_z,
            spin.s_x,
        ],
        ids=["from_matrix", "from_matrices", "from_spectrum", "s_z", "s_x"],
    )
    def test_setflags_write_raises(self, make):
        obs = make()
        for name in ("matrix", "eigenvalues", "eigenvectors"):
            with pytest.raises(ValueError):
                getattr(obs, name).setflags(write=True)


class TestFromMatrices:
    """A stack gives what one ``from_matrix`` call per matrix gives, and raises what its loop raises first."""

    def test_equals_one_call_per_matrix(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            stack = [random_hermitian(rng, dim) for _ in range(int(rng.integers(1, 9)))]
            # degenerate rows among nondegenerate ones
            u = random_unitary(rng, dim)
            stack[int(rng.integers(len(stack)))] = (u * ([1.0] * (dim - 1) + [2.0])) @ u.conj().T
            for got, matrix in zip(Observable.from_matrices(np.array(stack)), stack):
                want = Observable.from_matrix(matrix)
                for name in ("matrix", "eigenvalues", "eigenvectors"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                    assert getattr(got, name).dtype == getattr(want, name).dtype
                    assert not getattr(got, name).flags.writeable

    def test_first_failing_matrix_raises(self):
        ok, bad_h = np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]])
        nan = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian) as info:
            Observable.from_matrices([ok, bad_h, nan])
        assert info.value.row == 1
        with pytest.raises(ValueError, match="non-finite") as info:
            Observable.from_matrices([ok, nan, bad_h])
        assert info.value.row == 1

    def test_solver_failure_names_its_matrix(self, monkeypatch):
        eigh_ = np.linalg.eigh

        def fail_on_marker(a):
            if (np.asarray(a)[..., 0, 0] == 7.0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh_(a)

        monkeypatch.setattr(np.linalg, "eigh", fail_on_marker)
        stack = [np.eye(2), np.diag([3.0, 4.0]), np.diag([7.0, 1.0]), np.array([[0.0, 1.0], [0.5, 0.0]])]
        with pytest.raises(NoConvergence, match="did not converge") as info:
            Observable.from_matrices(stack)
        assert info.value.row == 2

    @pytest.mark.parametrize(
        "matrices", [np.zeros((2, 2)), np.zeros((1, 2, 3)), np.zeros((1, 0, 0))]
    )
    def test_rejects_non_stacks(self, matrices):
        with pytest.raises(ValueError, match="expected a stack of square matrices"):
            Observable.from_matrices(matrices)


class TestDensityMatrix:
    def test_pure_state_roundtrip(self):
        rho = DensityMatrix.pure(spin.KET_PLUS)
        assert abs(rho.trace - 1.0) < 1e-15
        assert rho.is_normalized

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], ValueError, "matrix contains non-finite entries"),
            ([[0.5, 0.1], [0.0, 0.5]], NotHermitian, "max |rho - rho^dagger| = 1.000e-01"),
            ([[1.5, 0.0], [0.0, -0.5]], ValueError, "state not positive semidefinite: min eigenvalue -5.000e-01"),
        ],
        ids=["non_finite", "non_hermitian", "non_psd"],
    )
    def test_construction_runs_the_engine_state_check(self, matrix, error, message):
        # the engine skips its state check when no stage is folded: the
        # state is then this matrix, refused here with the same error
        matrix = np.array(matrix, dtype=complex)
        with pytest.raises(error) as constructed:
            DensityMatrix(matrix)
        with pytest.raises(error) as engine:
            check_states(matrix[None], FirstFailure(1))
        assert str(constructed.value) == str(engine.value) == message

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
        values, vectors = np.linalg.eigh(h)
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
