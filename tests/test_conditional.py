import numpy as np
import pytest
from scipy.integrate import quad

from seqmeas import (
    ChainQuery,
    MeasurementChain,
    MeasurementStage,
    Pointer,
    ZeroLikelihood,
    backward_density,
    backward_stats,
    conditional_state,
    forward_density,
    forward_stats,
)
from seqmeas import spin
from seqmeas.chain import conditional_density_k, pair_rows_moments
from seqmeas.errors import FirstFailure, VarianceInconsistency
from seqmeas.joint import post_first_state
from seqmeas.validate import random_density, random_observable


def density_moments(density, lo, hi, pts):
    return [
        quad(lambda x: x**n * density.pdf(x), lo, hi, points=pts, limit=200)[0]
        for n in (0, 1, 2)
    ]


def mixture_weights(density):
    """Level weights of a spin forward density: its first two weights, normalized.

    The numerator's centers are the two levels of the second observable,
    then their midpoint, whose weight is zero and skipped.
    """
    num = density.numerator
    return {
        round(float(c), 6): w / density.normalization
        for c, w in zip(num.centers[:2], num.coeffs[:2])
    }


class TestConditionalState:
    def test_matches_literal_matrix(self, plus, sz_stage):
        for sigma1, x1 in [(0.5, 0.3), (0.8, -0.6), (0.4, 1.1)]:
            rbar = conditional_state(plus, sz_stage(sigma1), x1)
            ref = spin.rhobar1_closed(sigma1, x1)
            got = rbar.matrix * np.exp(rbar.log_scale)
            assert np.max(np.abs(got - ref.matrix)) < 1e-12

    def test_x1_zero_renormalizes_to_plus(self, plus, sz_stage):
        rhat = conditional_state(plus, sz_stage(0.5), 0.0).normalized()
        np.testing.assert_allclose(rhat.matrix, plus.matrix, atol=1e-15)

    def test_eigenstate_passes_through(self, up, sz_stage):
        rhat = conditional_state(up, sz_stage(0.5), 0.8).normalized()
        np.testing.assert_allclose(rhat.matrix, up.matrix, atol=1e-15)

    def test_trace_is_marginal_likelihood(self, plus, sz_stage):
        stage = sz_stage(0.5)
        marginal, norm = conditional_density_k(MeasurementChain((stage,), plus), ChainQuery(1, ()))
        for x1 in (-1.0, 0.0, 0.4, 2.0):
            assert abs(conditional_state(plus, stage, x1).trace - marginal.value(x1) / norm) < 1e-14

    def test_far_outcome_stays_finite(self, plus, sz_stage):
        rbar = conditional_state(plus, sz_stage(0.5), 40.0)
        assert np.isfinite(rbar.log_trace)
        assert rbar.log_trace < -700.0  # physical trace underflows, log does not
        rhat = rbar.normalized()
        assert abs(rhat.trace - 1.0) < 1e-12


class TestForward:
    def test_x1_zero_mixture_weights(self, plus, sz_stage, sx_stage):
        density = forward_density(plus, sz_stage(0.5), sx_stage(0.5), 0.0)
        # all weight on the +1/2 component of S_x
        weights = mixture_weights(density)
        assert abs(weights[0.5] - 1.0) < 1e-12
        assert abs(weights[-0.5]) < 1e-12

    def test_density_normalized(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            density = forward_density(rho, s1, s2, float(rng.uniform(-1, 1)))
            lo, hi = -30, 30
            total = quad(
                lambda x: density.pdf(x), lo, hi, points=s2.observable.eigenvalues.tolist(), limit=200
            )[0]
            assert abs(total - 1.0) < 1e-8

    def test_weak_first_stage_weights_approach_rho0(self, plus, sz_stage, sx_stage):
        density = forward_density(plus, sz_stage(1e3), sx_stage(0.5), 0.5)
        weights = mixture_weights(density)
        assert abs(weights[0.5] - 1.0) < 1e-4
        assert abs(weights[-0.5]) < 1e-4

    def test_stats_spot_values(self, plus, sz_stage, sx_stage):
        stats = forward_stats(plus, sz_stage(0.5), sx_stage(0.5), 0.0)
        assert abs(stats.mean - 0.5) < 1e-12
        assert stats.extracted_system_variance < 1e-12

        stats = forward_stats(plus, sz_stage(0.5), sx_stage(0.5), 0.5)
        assert abs(stats.extracted_system_variance - 0.25 * np.tanh(1.0) ** 2) < 1e-12

        strong = forward_stats(plus, sz_stage(0.01), sx_stage(0.5), 0.5)
        assert abs(strong.extracted_system_variance - 0.25) < 1e-6

    def test_matches_closed_form_grid(self, plus, sz_stage, sx_stage):
        for sigma1 in (0.3, 0.5, 1.0):
            for x1 in np.linspace(-1.5, 1.5, 11):
                got = forward_stats(plus, sz_stage(sigma1), sx_stage(0.4), x1)
                mean, second, var = spin.cond_moments_closed(sigma1, 0.4, x1)
                assert abs(got.mean - mean) < 1e-12
                assert abs(got.variance - var) < 1e-12
                assert abs(
                    got.extracted_system_variance - spin.var_sx_given_sz_closed(sigma1, x1)
                ) < 1e-12

    def test_even_in_x1(self, plus, sz_stage, sx_stage):
        for x1 in np.linspace(0, 2, 9):
            a = forward_stats(plus, sz_stage(0.7), sx_stage(0.5), x1)
            b = forward_stats(plus, sz_stage(0.7), sx_stage(0.5), -x1)
            assert abs(a.extracted_system_variance - b.extracted_system_variance) < 1e-13

    def test_zero_likelihood_raises(self, up, sz_stage, sx_stage):
        # up-state has no weight near the lower eigenvalue; conditioning
        # hundreds of sigma away from the populated branch is impossible
        with pytest.raises(ZeroLikelihood):
            forward_density(up, sz_stage(0.01), sx_stage(0.5), -20.0)


class TestBackward:
    def test_density_normalized(self, plus, sz_stage, sx_stage):
        density = backward_density(plus, sz_stage(0.5), sx_stage(0.5), 0.5)
        m = density_moments(density, -20, 20, [-0.5, 0.5])
        assert abs(m[0] - 1.0) < 1e-8

    def test_weak_second_stage_gives_marginal(self, plus, sz_stage, sx_stage):
        density = backward_density(plus, sz_stage(0.5), sx_stage(1e6), 0.3)
        marginal, norm = conditional_density_k(MeasurementChain((sz_stage(0.5),), plus), ChainQuery(1, ()))
        for x1 in np.linspace(-1.5, 1.5, 9):
            assert abs(density.pdf(x1) - marginal.value(x1) / norm) < 1e-8

    def test_stats_spot_values(self, plus, sz_stage, sx_stage):
        got = backward_stats(plus, sz_stage(0.5), sx_stage(0.5), 0.5)
        assert abs(got.extracted_system_variance - spin.var_sz_given_sx_closed(0.5, 0.5, 0.5)) < 1e-12

        strong_first = backward_stats(plus, sz_stage(0.05), sx_stage(0.5), 0.8)
        assert abs(strong_first.extracted_system_variance - 0.25) < 1e-8

        weak_first = backward_stats(plus, sz_stage(1e3), sx_stage(0.5), 0.5)
        assert abs(weak_first.extracted_system_variance - 0.125 * (1 + np.exp(-2.0))) < 1e-4

    def test_x2_zero_undisturbed(self, plus, sz_stage, sx_stage):
        got = backward_stats(plus, sz_stage(0.8), sx_stage(0.5), 0.0)
        assert abs(got.extracted_system_variance - 0.25) < 1e-12

    def test_matches_closed_form_grid(self, plus, sz_stage, sx_stage):
        for sigma1 in (0.4, 0.8):
            for sigma2 in (0.3, 1.0):
                for x2 in np.linspace(-1.2, 1.2, 9):
                    got = backward_stats(plus, sz_stage(sigma1), sx_stage(sigma2), x2)
                    ref = spin.var_sz_given_sx_closed(sigma1, sigma2, x2)
                    assert abs(got.extracted_system_variance - ref) < 1e-12

    def test_variance_floor(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            x1, x2 = rng.uniform(-1.5, 1.5, size=2)
            assert forward_stats(rho, s1, s2, x1).variance >= s2.sigma**2 - 1e-10
            assert backward_stats(rho, s1, s2, x2).variance >= 0.0


class TestExtractedClampPolicy:
    @staticmethod
    def stats(m0, m1, c2, sigma=0.5):
        # one mixture row at centers 0, 1 and 2 whose zeroth moment,
        # first moment and center spread are m0, m1 and c2
        r = (c2 - m1) / 2
        q = m1 - 2 * r
        coeffs = np.array([[m0 - q - r, q, r]])
        centers = np.array([0.0, 1.0, 2.0])
        return pair_rows_moments(coeffs, centers, np.array([sigma]), FirstFailure(1), "density")[1]

    def test_sub_roundoff_negative_clamps_with_flag(self):
        stats = self.stats(m0=1.0, m1=0.5, c2=0.25 - 1e-10)
        assert stats.extracted_system_variance[0] == 0.0
        assert stats.clamped[0]
        assert abs(stats.variance[0] - 0.25) < 1e-15

    def test_real_negative_raises(self):
        with pytest.raises(VarianceInconsistency):
            self.stats(m0=1.0, m1=0.5, c2=0.25 - 1e-6)

    def test_vanishing_normalization_raises(self):
        with pytest.raises(ZeroLikelihood):
            self.stats(m0=0.0, m1=0.0, c2=0.0)


class TestBayesConsistency:
    def test_pointwise(self, rng, spectral_projectors):
        for _ in range(15):
            dim = int(rng.integers(2, 4))
            rho = random_density(rng, dim)
            s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
            x1, x2 = rng.uniform(-1.5, 1.5, size=2)
            p_x1 = conditional_state(rho, s1, x1).trace
            rho1 = post_first_state(rho, s1)
            levels, projectors = spectral_projectors(s2.observable)
            w = np.einsum("gij,ji->g", projectors, rho1.matrix).real
            pdf2 = (2 * np.pi * s2.sigma**2) ** -0.5 * np.exp(-((x2 - levels) ** 2) / (2 * s2.sigma**2))
            p_x2 = float(np.dot(w, pdf2))
            lhs = float(forward_density(rho, s1, s2, x1).pdf(x2)) * p_x1
            rhs = float(backward_density(rho, s1, s2, x2).pdf(x1)) * p_x2
            assert abs(lhs - rhs) < 1e-8


class TestDoubleWeakLimit:
    def test_backaction_eliminated(self, plus, sz_stage, sx_stage):
        fwd = forward_stats(plus, sz_stage(1e3), sx_stage(1e3), 0.5)
        bwd = backward_stats(plus, sz_stage(1e3), sx_stage(1e3), 0.5)
        assert fwd.extracted_system_variance < 1e-4
        assert abs(bwd.extracted_system_variance - 0.25) < 1e-4
