import numpy as np
import pytest
from scipy.integrate import quad

from seqmeas import (
    ChainQuery,
    DimensionMismatch,
    GaussianPairSum,
    MeasurementChain,
    MeasurementStage,
    Observable,
    Pointer,
    backaction_variance,
    joint_statistics,
    pointer1_variance,
    pointer2_variance,
    post_first_state,
    variance_of,
)
from seqmeas import spin
from seqmeas.chain import conditional_density_k
from seqmeas.validate import random_density, random_observable


def mixture_variance_by_quadrature(s: GaussianPairSum) -> float:
    pad = 12 * s.sigma
    lo, hi = s.centers.min() - pad, s.centers.max() + pad
    pts = sorted(set(s.centers.tolist()))
    m = [quad(lambda x: x**n * s.value(x), lo, hi, points=pts, limit=200)[0] for n in (0, 1, 2)]
    return m[2] / m[0] - (m[1] / m[0]) ** 2


class TestPostFirstState:
    def test_spin_plus_matrix(self, plus, sz_stage):
        for sigma1 in (0.3, 0.5, 1.0, 2.0):
            rho1 = post_first_state(plus, sz_stage(sigma1))
            off = 0.5 * np.exp(-1.0 / (8 * sigma1**2))
            np.testing.assert_allclose(
                rho1.matrix, [[0.5, off], [off, 0.5]], atol=1e-15
            )

    def test_eigenstate_untouched(self, up, sz_stage):
        rho1 = post_first_state(up, sz_stage(0.4))
        np.testing.assert_allclose(rho1.matrix, up.matrix, atol=1e-15)

    def test_weak_limit_identity(self, rng):
        rho = random_density(rng, 3)
        stage = MeasurementStage(random_observable(rng, 3), Pointer(1e6))
        rho1 = post_first_state(rho, stage)
        assert np.max(np.abs(rho1.matrix - rho.matrix)) < 1e-9

    def test_trace_preserved_and_dephasing(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            rho = random_density(rng, dim)
            obs = random_observable(rng, dim)
            stage = MeasurementStage(obs, Pointer(float(rng.uniform(0.1, 3))))
            rho1 = post_first_state(rho, stage)
            assert abs(rho1.trace - 1.0) < 1e-12
            v = obs.eigenvectors
            before = np.abs(v.conj().T @ rho.matrix @ v)
            after = np.abs(v.conj().T @ rho1.matrix @ v)
            assert np.max(after - before) < 1e-12

    def test_dimension_mismatch(self, plus):
        stage = MeasurementStage(Observable.from_matrix(np.diag([0.0, 1.0, 2.0])), Pointer(1.0))
        with pytest.raises(DimensionMismatch):
            post_first_state(plus, stage)


class TestPointer1Variance:
    def test_spin_plus(self, plus, sz_stage):
        assert abs(pointer1_variance(plus, sz_stage(0.5)) - 0.5) < 1e-15

    def test_eigenstate_is_shot_noise_only(self, up, sz_stage):
        assert abs(pointer1_variance(up, sz_stage(1.0)) - 1.0) < 1e-15

    def test_matches_marginal_mixture(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            stage = MeasurementStage(
                Observable.from_matrix(np.diag([0.0, 1.0, 2.0])), Pointer(float(rng.uniform(0.3, 1.5)))
            )
            marginal, _ = conditional_density_k(MeasurementChain((stage,), rho), ChainQuery(1, ()))
            analytic = marginal.moment(2) / marginal.moment(0) - (
                marginal.moment(1) / marginal.moment(0)
            ) ** 2
            law = pointer1_variance(rho, stage)
            assert abs(law - analytic) < 1e-10
            assert abs(law - mixture_variance_by_quadrature(marginal)) < 1e-8


class TestBackaction:
    def test_spin_curve_value(self, plus, sz_stage):
        got = backaction_variance(plus, sz_stage(0.5), spin.s_x())
        assert abs(got - 0.25 * (1 - np.exp(-1.0))) < 1e-12

    def test_strong_and_weak_limits(self, plus, sz_stage):
        assert abs(backaction_variance(plus, sz_stage(0.01), spin.s_x()) - 0.25) < 1e-6
        assert backaction_variance(plus, sz_stage(100.0), spin.s_x()) < 1e-4

    def test_monotone_in_sigma1(self, plus, sz_stage):
        grid = np.geomspace(0.05, 50, 30)
        vals = [backaction_variance(plus, sz_stage(s), spin.s_x()) for s in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_agrees_with_generic_variance(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            stage = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.2, 2))))
            other = random_observable(rng, dim)
            spectral = backaction_variance(rho, stage, other)
            generic = variance_of(other, post_first_state(rho, stage))
            assert abs(spectral - generic) < 1e-12


class TestPointer2Variance:
    def test_spin_value(self, plus, sz_stage, sx_stage):
        got = pointer2_variance(plus, sz_stage(0.5), sx_stage(0.5))
        assert abs(got - (0.25 + 0.25 * (1 - np.exp(-1.0)))) < 1e-12

    def test_weak_first_stage(self, plus, sz_stage, sx_stage):
        got = pointer2_variance(plus, sz_stage(1e6), sx_stage(0.7))
        assert abs(got - (0.49 + variance_of(spin.s_x(), plus))) < 1e-9

    def test_eigenstate_first_stage(self, up, sz_stage, sx_stage):
        got = pointer2_variance(up, sz_stage(0.3), sx_stage(0.7))
        assert abs(got - (0.49 + variance_of(spin.s_x(), up))) < 1e-12


class TestJointStatistics:
    def test_bundle_consistency(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.2, 2))))
            s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.2, 2))))
            result = joint_statistics(rho, s1, s2)
            assert abs(result.var_x1 - (s1.sigma**2 + result.var_a_rho0)) < 1e-10
            assert abs(result.var_x2 - (s2.sigma**2 + result.var_b_rho1)) < 1e-10
            assert abs(result.rho1.trace - 1.0) < 1e-12
