import numpy as np
import pytest

from seqmeas import MeasurementStage, Pointer, variance_of
from seqmeas import spin
from seqmeas.conditional import backward_stats, conditional_state, forward_stats
from seqmeas.errors import DenominatorNonPositive
from seqmeas.joint import post_first_state


class TestPresets:
    def test_operator_spectra(self):
        np.testing.assert_allclose(spin.s_z().eigenvalues, [-0.5, 0.5])
        np.testing.assert_allclose(spin.s_x().eigenvalues, [-0.5, 0.5])

    def test_plus_state_variances(self):
        assert abs(variance_of(spin.s_z(), spin.plus_state()) - 0.25) < 1e-15
        assert variance_of(spin.s_x(), spin.plus_state()) < 1e-15

    def test_built_once_and_read_only(self):
        for preset in (spin.s_z, spin.s_x, spin.plus_state):
            shared = preset()
            assert preset() is shared
            arrays = [v for v in vars(shared).values() if isinstance(v, np.ndarray)]
            assert arrays and not any(a.flags.writeable for a in arrays)


class TestRho1Closed:
    def test_off_diagonal_value(self):
        rho1 = spin.rho1_closed(0.5)
        assert abs(rho1.matrix[0, 1].real - 0.5 * np.exp(-0.5)) < 1e-15

    def test_weak_limit_is_plus(self):
        rho1 = spin.rho1_closed(1e9)
        np.testing.assert_allclose(rho1.matrix, spin.plus_state().matrix, atol=1e-12)

    def test_matches_generic_engine(self):
        for sigma1 in np.geomspace(0.05, 20, 12):
            generic = post_first_state(spin.plus_state(), MeasurementStage(spin.s_z(), Pointer(sigma1)))
            np.testing.assert_allclose(
                spin.rho1_closed(sigma1).matrix, generic.matrix, atol=1e-12
            )


class TestVarSxRho1Closed:
    def test_spot_values(self):
        assert abs(spin.var_sx_rho1_closed(0.5) - 0.15803013970713942) < 1e-15
        assert abs(spin.var_sx_rho1_closed(0.2) - 0.24951738646594307) < 1e-15

    def test_weak_limit_vanishes(self):
        assert spin.var_sx_rho1_closed(1e8) < 1e-15

    def test_range(self):
        for sigma1 in np.geomspace(0.01, 100, 30):
            value = spin.var_sx_rho1_closed(sigma1)
            assert 0.0 <= value < 0.25 or abs(value - 0.25) < 1e-12


class TestRhobar1Closed:
    def test_matches_conditional_state_grid(self):
        stage = lambda s: MeasurementStage(spin.s_z(), Pointer(s))
        for sigma1 in (0.3, 0.5, 1.0):
            for x1 in np.linspace(-1.5, 1.5, 7):
                generic = conditional_state(spin.plus_state(), stage(sigma1), x1)
                physical = generic.matrix * np.exp(generic.log_scale)
                np.testing.assert_allclose(
                    spin.rhobar1_closed(sigma1, x1).matrix, physical, atol=1e-12
                )

    def test_x1_zero_normalizes_to_plus(self):
        rbar = spin.rhobar1_closed(0.5, 0.0)
        rhat = rbar.matrix / np.trace(rbar.matrix)
        np.testing.assert_allclose(rhat, spin.plus_state().matrix, atol=1e-15)

    def test_trace_positive(self):
        for x1 in (-2.0, 0.0, 3.0):
            assert spin.rhobar1_closed(0.7, x1).trace > 0.0


class TestCondMomentsClosed:
    def test_x1_zero(self):
        mean, second, var = spin.cond_moments_closed(0.5, 0.5, 0.0)
        assert abs(mean - 0.5) < 1e-15
        assert abs(var - 0.25) < 1e-15

    def test_spot_value(self):
        _, _, var = spin.cond_moments_closed(0.5, 0.5, 0.5)
        assert abs(var - (0.25 * np.tanh(1.0) ** 2 + 0.25)) < 1e-15

    def test_second_moment_independent_of_x1(self):
        values = {spin.cond_moments_closed(0.5, 0.4, x1)[1] for x1 in (-1.0, 0.0, 2.0)}
        assert len(values) == 1

    def test_mean_bounded_in_half_interval(self):
        for sigma1 in (0.2, 0.5, 2.0):
            for x1 in np.linspace(-3, 3, 13):
                mean = spin.cond_mean_closed(sigma1, x1)
                assert 0.0 < mean <= 0.5 + 1e-12


class TestVarGivenClosed:
    def test_forward_spots(self):
        assert spin.var_sx_given_sz_closed(0.5, 0.0) == 0.0
        assert abs(spin.var_sx_given_sz_closed(0.5, 0.5) - 0.14500641459649347) < 1e-15
        assert abs(spin.var_sx_given_sz_closed(0.01, 5.0) - 0.25) < 1e-12

    def test_backward_spots(self):
        assert abs(spin.var_sz_given_sx_closed(0.5, 0.5, 0.5) - 0.17100679567358412) < 1e-15
        assert abs(spin.var_sz_given_sx_closed(1e-4, 0.5, 0.5) - 0.25) < 1e-12
        assert abs(spin.var_sz_given_sx_closed(1e3, 0.5, 0.0) - 0.25) < 1e-6
        # strong-sigma2, positive-x2 corner approaches 1/8
        assert abs(spin.var_sz_given_sx_closed(1e3, 0.1, 1.0) - 0.125) < 1e-6

    def test_backward_weak_first_formula(self):
        # the weak-first-stage form holds while exp(x2/sigma2^2) stays far
        # below exp(1/(8 sigma1^2))^-1 ~ 8e6; negative x2 at strong sigma2
        # leaves that window
        for sigma2 in (0.3, 0.7):
            for x2 in np.linspace(0.0, 1.0, 9):
                exact = spin.var_sz_given_sx_closed(1e3, sigma2, x2)
                approx = spin.var_sz_given_sx_weak1_closed(sigma2, x2)
                assert abs(exact - approx) < 1e-4
        for sigma2 in (0.5, 1.0):
            for x2 in np.linspace(-1.0, 0.0, 9):
                exact = spin.var_sz_given_sx_closed(1e3, sigma2, x2)
                approx = spin.var_sz_given_sx_weak1_closed(sigma2, x2)
                assert abs(exact - approx) < 1e-4

    def test_overflow_regime_finite(self):
        # exponents far beyond float range must not produce inf/nan
        assert spin.var_sz_given_sx_closed(0.005, 0.5, 0.5) == 0.25
        value = spin.var_sz_given_sx_closed(0.5, 0.05, 2.0)
        assert np.isfinite(value)
        assert abs(value - 0.25 * (np.exp(0.5) / (1 + np.exp(0.5)))) < 1e-12

    def test_denominator_guard_never_fires_in_domain(self):
        for sigma1 in np.geomspace(0.05, 50, 8):
            for sigma2 in np.geomspace(0.05, 50, 8):
                for x2 in np.linspace(-2, 2, 7):
                    try:
                        value = spin.var_sz_given_sx_closed(sigma1, sigma2, x2)
                    except DenominatorNonPositive:
                        pytest.fail("denominator guard fired inside the valid domain")
                    assert np.isfinite(value)


class TestClosedVsGenericGrid:
    def test_forward_20x20(self):
        rho0 = spin.plus_state()
        sigmas = np.geomspace(0.1, 2.0, 20)
        x1s = np.linspace(-1.5, 1.5, 20)
        for sigma1 in sigmas:
            s1 = MeasurementStage(spin.s_z(), Pointer(sigma1))
            s2 = MeasurementStage(spin.s_x(), Pointer(0.5))
            for x1 in x1s:
                got = forward_stats(rho0, s1, s2, x1).extracted_system_variance
                assert abs(got - spin.var_sx_given_sz_closed(sigma1, x1)) < 1e-10

    def test_backward_20x20(self):
        rho0 = spin.plus_state()
        s1 = MeasurementStage(spin.s_z(), Pointer(0.6))
        for sigma2 in np.geomspace(0.15, 2.0, 20):
            s2 = MeasurementStage(spin.s_x(), Pointer(sigma2))
            for x2 in np.linspace(-1.2, 1.2, 20):
                got = backward_stats(rho0, s1, s2, x2).extracted_system_variance
                assert abs(got - spin.var_sz_given_sx_closed(0.6, sigma2, x2)) < 1e-10

    def test_mpur_constants_match_module(self):
        from seqmeas import mpur_check

        report = mpur_check(spin.plus_pure(), spin.s_z(), spin.s_x())
        r_a, r_b = spin.mpur_spin_constants()
        assert abs(report.r_a - r_a) < 1e-12
        assert abs(report.r_b - r_b) < 1e-12


def _scalar_reference(name, *args):
    """The closed forms as scalar Python arithmetic, one call per element."""
    if name == "rho1":
        (sigma1,) = args
        return 0.25 * (1.0 - float(np.exp(-1.0 / (4.0 * sigma1 * sigma1))))
    if name == "forward":
        sigma1, x1 = args
        t = float(np.tanh(x1 / (2.0 * sigma1 * sigma1)))
        return 0.25 * t * t
    sigma1, sigma2, x2 = args
    e1 = 1.0 / (8.0 * sigma1 * sigma1)
    e2 = x2 / (sigma2 * sigma2)
    if e1 > 700.0:
        return 0.25
    s1 = 1.0 + float(np.exp(e1))
    two_over_s2 = 0.0 if e2 > 700.0 else 2.0 / (1.0 + float(np.exp(e2)))
    return 0.25 * (s1 - 1.0) / (s1 - two_over_s2)


class TestClosedFormArrays:
    """An array call gives, element by element, the bits of one scalar call per element."""

    def draws(self, rng, n=4000):
        # sigma1 below 0.0134 takes the e1 > 700 branch; x2 / sigma2^2 > 700 the other
        sigma1 = 10.0 ** rng.uniform(-3.0, 3.0, n)
        sigma2 = 10.0 ** rng.uniform(-2.0, 1.0, n)
        x = rng.uniform(-3.0, 3.0, n)
        return sigma1, sigma2, x

    def test_branches_reached(self, rng):
        sigma1, sigma2, x = self.draws(rng)
        e1, e2 = 1.0 / (8.0 * sigma1**2), x / sigma2**2
        assert (e1 > 700).sum() > 100 and (e2 > 700).sum() > 100 and (x < 0).sum() > 100

    @pytest.mark.parametrize(
        "name,fn,cols",
        [
            ("rho1", spin.var_sx_rho1_closed, (0,)),
            ("forward", spin.var_sx_given_sz_closed, (0, 2)),
            ("backward", spin.var_sz_given_sx_closed, (0, 1, 2)),
        ],
    )
    def test_elementwise_bits(self, rng, name, fn, cols):
        draws = self.draws(rng)
        args = [draws[c] for c in cols]
        got = fn(*args)
        assert isinstance(got, np.ndarray) and got.shape == args[0].shape
        rows = [a.tolist() for a in args]
        expected = [_scalar_reference(name, *element) for element in zip(*rows)]
        assert got.tolist() == expected
        for element in list(zip(*rows))[:200]:
            value = fn(*element)
            assert type(value) is float and value == _scalar_reference(name, *element)

    def test_first_nonpositive_denominator_raises_with_row(self):
        # at sigma1 = 5e7, s1 rounds to 2 and 2/s2 to 2 once x2/sigma2^2 < -37
        x2 = np.array([0.5, 0.0, -0.1, -1.0, 0.2, -2.0])
        with pytest.raises(DenominatorNonPositive) as info:
            spin.var_sz_given_sx_closed(5e7, 0.1, x2)
        assert info.value.row == 3
        with pytest.raises(DenominatorNonPositive) as scalar:
            spin.var_sz_given_sx_closed(5e7, 0.1, -1.0)
        assert str(info.value) == str(scalar.value) == "s1*s2 - 2 = 0.000e+00"
