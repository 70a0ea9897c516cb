import numpy as np
import pytest

from seqmeas import (
    MeasurementStage,
    Observable,
    Pointer,
    QuadratureConfig,
    amplitude,
    completeness_defect,
    effect_at,
    kraus_at,
)
from seqmeas import spin
from seqmeas.kraus import fold
from seqmeas.pointer import log_amplitude_at
from seqmeas.validate import random_density, random_observable


@pytest.fixture
def stage_z():
    return MeasurementStage(spin.s_z(), Pointer(0.5))


@pytest.fixture
def stage_x():
    return MeasurementStage(spin.s_x(), Pointer(0.5))


class TestKrausAt:
    def test_spin_center_outcome(self, stage_z):
        k = kraus_at(stage_z, 0.0)
        # both eigenvalues sit half a unit from x = 0
        expected = amplitude(stage_z.pointer, 0.0, 0.5)
        assert abs(expected - 0.6956590034192662) < 1e-12
        np.testing.assert_allclose(k, expected * np.eye(2), atol=1e-15)

    def test_trivial_observable_scales_identity(self):
        stage = MeasurementStage(Observable.from_matrix(np.zeros((3, 3))), Pointer(0.8))
        k = kraus_at(stage, 0.37)
        np.testing.assert_allclose(k, amplitude(stage.pointer, 0.37, 0.0) * np.eye(3), atol=1e-15)

    def test_listing_style_sum_of_projectors(self, stage_z):
        # Omega = psi(x - e1) P1 + psi(x - e2) P2, assembled by hand
        x = 0.3
        p_up = np.diag([1.0, 0.0]).astype(complex)
        p_down = np.diag([0.0, 1.0]).astype(complex)
        manual = (
            amplitude(stage_z.pointer, x, 0.5) * p_up
            + amplitude(stage_z.pointer, x, -0.5) * p_down
        )
        np.testing.assert_allclose(kraus_at(stage_z, x), manual, atol=1e-15)

    def test_commutes_with_observable(self, rng):
        for _ in range(25):
            obs = random_observable(rng, int(rng.integers(2, 5)))
            stage = MeasurementStage(obs, Pointer(float(rng.uniform(0.1, 2))))
            k = kraus_at(stage, float(rng.uniform(-2, 2)))
            assert np.max(np.abs(k @ obs.matrix - obs.matrix @ k)) < 1e-12

    def test_operator_norm_bounded_by_peak(self, rng):
        for _ in range(25):
            obs = random_observable(rng, 3)
            sigma = float(rng.uniform(0.1, 2))
            stage = MeasurementStage(obs, Pointer(sigma))
            k = kraus_at(stage, float(rng.uniform(-3, 3)))
            peak = (2 * np.pi * sigma**2) ** -0.25
            assert np.linalg.norm(k, 2) <= peak + 1e-12


class TestEffectAt:
    def test_equals_kraus_squared(self, rng):
        for _ in range(20):
            obs = random_observable(rng, int(rng.integers(2, 4)))
            stage = MeasurementStage(obs, Pointer(float(rng.uniform(0.2, 2))))
            x = float(rng.uniform(-2, 2))
            k = kraus_at(stage, x)
            e = effect_at(stage, x)
            assert np.max(np.abs(k.conj().T @ k - e)) < 1e-14

    def test_spin_x_eigenvalues(self, stage_x):
        e = effect_at(stage_x, 0.5)
        w_plus = float(np.vdot(spin.KET_PLUS, e @ spin.KET_PLUS).real)
        w_minus = float(np.vdot(spin.KET_MINUS, e @ spin.KET_MINUS).real)
        assert abs(w_plus - 0.7978845608028654) < 1e-12
        assert abs(w_minus - 0.7978845608028654 * np.exp(-2.0)) < 1e-12

    def test_eigenvalue_range(self, rng):
        for _ in range(20):
            obs = random_observable(rng, 3)
            sigma = float(rng.uniform(0.2, 2))
            stage = MeasurementStage(obs, Pointer(sigma))
            e = effect_at(stage, float(rng.uniform(-3, 3)))
            eigs = np.linalg.eigvalsh(e)
            assert eigs.min() >= -1e-14
            assert eigs.max() <= (2 * np.pi * sigma**2) ** -0.5 + 1e-12


class TestFold:
    """The eigenbasis fold is the dense product ``K rho K`` with ``K = sum_g w_g P_g``."""

    @pytest.mark.parametrize(
        "values",
        [
            [-0.5, 0.5],
            [1.0, 1.0, 3.0],
            [-1.0, 0.5, 0.5, 0.5],
            [-2.0, -2.0, 1.0, 1.0],
            # near-degenerate: each eigenvalue keeps its own weight
            [0.0, 4e-10, 8e-10, 1.0],
            [0.3, 0.3 + 1e-12, 2.0, 2.0 + 5e-10],
        ],
    )
    def test_equals_dense_projector_product(self, rng, spectral_projectors, values):
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(len(values),) * 2) + 1j * rng.normal(size=(len(values),) * 2))
            obs = Observable.from_spectrum(values, q)
            levels, projectors = spectral_projectors(obs)
            rho = random_density(rng, obs.dim).matrix
            sigmas = rng.uniform(0.1, 2.0, 4)
            xs = rng.uniform(-3.0, 3.0, 4)
            v = obs.eigenvectors
            folded, log_scale = fold(obs, sigmas, xs, v.conj().T @ rho @ v, np.zeros(1))
            for f, s, sigma, x in zip(folded, log_scale, sigmas, xs):
                w = np.exp(log_amplitude_at(sigma, x, levels))
                k = np.einsum("g,gij->ij", w, projectors)
                dense = k @ rho @ k
                got = np.exp(s) * (v @ f @ v.conj().T)
                assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
                # the largest folded diagonal entry is one, up to the rounding of log weights
                # of magnitude up to about 1e3
                assert abs(np.diagonal(f).real.max() - 1.0) < 1e-12


class TestCompleteness:
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 2.0, 10.0])
    def test_default_domain_defect_tiny(self, sigma, rng):
        for obs in (spin.s_z(), random_observable(rng, 3)):
            stage = MeasurementStage(obs, Pointer(sigma))
            assert completeness_defect(stage) < 1e-8

    def test_truncated_domain_shows_tail_mass(self):
        stage = MeasurementStage(spin.s_z(), Pointer(1.0))
        defect = completeness_defect(stage, domain=(-1.0, 1.0))
        assert defect > 1e-3

    def test_defect_shrinks_with_domain(self):
        stage = MeasurementStage(spin.s_z(), Pointer(1.0))
        defects = [
            completeness_defect(
                stage, cfg=QuadratureConfig(domain_pad=4.0), domain=(-w, w)
            )
            for w in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(defects, defects[1:]))
