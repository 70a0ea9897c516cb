import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seqmeas import (
    GaussianPairSum,
    InvalidOrder,
    MeasurementChain,
    NonHermitianSum,
    Pointer,
    amplitude,
    overlap,
    pair_moment,
)
from seqmeas.chain import conditional_density_rows
from seqmeas.errors import FirstFailure
from seqmeas.pointer import pair_mixture

finite_centers = st.floats(min_value=-3.0, max_value=3.0)
sigmas = st.floats(min_value=0.05, max_value=5.0)


def quad_pair_moment(sigma: float, a: float, ap: float, n: int) -> float:
    p = Pointer(sigma)
    lo = min(a, ap) - 12 * sigma
    hi = max(a, ap) + 12 * sigma
    value, _ = quad(
        lambda x: x**n * amplitude(p, x, a) * amplitude(p, x, ap),
        lo,
        hi,
        points=[a, ap],
        limit=200,
    )
    return value


class TestAmplitude:
    def test_peak_values(self):
        # frozen from 30-digit evaluation of the amplitude formula
        assert abs(amplitude(Pointer(1.0), 0.0, 0.0) - 0.6316187777460647) < 1e-14
        assert abs(amplitude(Pointer(0.5), 0.7, 0.7) - 0.8932438417380023) < 1e-14

    @given(sigma=sigmas)
    @settings(max_examples=25, deadline=None)
    def test_square_normalized(self, sigma):
        p = Pointer(sigma)
        value, _ = quad(lambda x: amplitude(p, x, 0.3) ** 2, -20 * sigma, 20 * sigma, points=[0.3])
        assert abs(value - 1.0) < 1e-9

    def test_rejects_bad_sigma(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                Pointer(bad)


class TestOverlap:
    def test_identical_centers(self):
        assert overlap(Pointer(0.8), 1.3, 1.3) == 1.0

    def test_spin_separation(self):
        # e^{-1/2} for unit separation at sigma = 0.5
        assert abs(overlap(Pointer(0.5), 0.5, -0.5) - np.exp(-0.5)) < 1e-15
        numeric = quad_pair_moment(0.5, 0.5, -0.5, 0)
        assert abs(overlap(Pointer(0.5), 0.5, -0.5) - numeric) < 1e-10

    def test_weak_limit(self):
        assert abs(overlap(Pointer(1e6), 0.4, -0.6) - 1.0) < 1e-9

    @given(sigma=sigmas, a=finite_centers, b=finite_centers)
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, sigma, a, b):
        p = Pointer(sigma)
        value = overlap(p, a, b)
        assert value == overlap(p, b, a)
        assert 0.0 <= value <= 1.0
        # strictly positive wherever the exponent is representable
        if (a - b) ** 2 / (8.0 * sigma * sigma) < 700.0:
            assert value > 0.0


class TestPairMoment:
    def test_second_moment_diagonal(self):
        assert abs(pair_moment(Pointer(0.5), 0.5, 0.5, 2) - 0.5) < 1e-15

    def test_first_moment_antisymmetric_pair(self):
        assert pair_moment(Pointer(0.5), 0.5, -0.5, 1) == 0.0

    def test_second_moment_cross(self):
        expected = np.exp(-0.5) * 0.25
        assert abs(pair_moment(Pointer(0.5), 0.5, -0.5, 2) - expected) < 1e-15
        assert abs(quad_pair_moment(0.5, 0.5, -0.5, 2) - expected) < 1e-10

    @given(sigma=sigmas, a=finite_centers, b=finite_centers, n=st.sampled_from([0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadrature(self, sigma, a, b, n):
        analytic = pair_moment(Pointer(sigma), a, b, n)
        numeric = quad_pair_moment(sigma, a, b, n)
        assert abs(analytic - numeric) <= 1e-8 * max(1.0, abs(numeric))

    @given(sigma=sigmas, a=finite_centers, b=finite_centers)
    @settings(max_examples=30, deadline=None)
    def test_zeroth_equals_overlap(self, sigma, a, b):
        p = Pointer(sigma)
        assert pair_moment(p, a, b, 0) == overlap(p, a, b)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            pair_moment(Pointer(1.0), 0.0, 0.0, 3)


class TestGaussianPairSum:
    def test_single_normalized_term(self):
        s = GaussianPairSum([1.0], [0.0], 1.0)
        assert abs(s.moment(0) - 1.0) < 1e-15

    def test_spin_marginal_second_moment(self):
        s = GaussianPairSum.mixture([0.5, 0.5], [0.5, -0.5], 1.0)
        assert abs(s.moment(2) - 1.25) < 1e-15
        numeric, _ = quad(s.value, -15, 15, points=[-0.5, 0.5])
        assert abs(numeric - 1.0) < 1e-10

    def test_conjugate_pair_cancels(self):
        coeffs = np.array([[[0.0, 1j], [-1j, 0.0]]])
        weights, centers = pair_mixture(coeffs, np.array([-0.4, 0.3]), np.array([0.7]), FirstFailure(1))
        assert GaussianPairSum(weights[0], centers, 0.7).moment(1) == 0.0

    def test_non_hermitian_rejected(self):
        # a failing row 0 raises at once
        coeffs = np.stack([np.array([[0.0, 1j], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(NonHermitianSum) as info:
            pair_mixture(coeffs, np.array([-0.4, 0.3]), np.full(2, 0.7), FirstFailure(2))
        assert info.value.row == 0

    def test_invalid_order_on_sum(self):
        s = GaussianPairSum([1.0], [0.0], 1.0)
        with pytest.raises(InvalidOrder):
            s.moment(3)

    def test_value_matches_terms(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        coeffs = m + m.conj().T
        levels = rng.uniform(-1, 1, 3)
        weights, centers = pair_mixture(coeffs[None], levels, np.array([0.6]), FirstFailure(1))
        s = GaussianPairSum(weights[0], centers, 0.6)
        xs = np.linspace(-2, 2, 7)
        p = Pointer(0.6)
        expected = sum(
            (coeffs[i, j] * amplitude(p, xs, levels[i]) * amplitude(p, xs, levels[j])).real
            for i in range(3)
            for j in range(3)
        )
        np.testing.assert_allclose(s.value(xs), expected, atol=1e-14)

    def test_center_second_moment_split(self, rng):
        w = rng.uniform(0.1, 1.0, size=4)
        centers = rng.uniform(-2, 2, size=4)
        s = GaussianPairSum.mixture(w, centers, 0.9)
        assert abs(s.moment(2) - (s.center_second_moment() + 0.81 * s.moment(0))) < 1e-12

    def test_width_checked_once(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma must be finite and positive"):
                GaussianPairSum([1.0], [0.0], bad)

    def test_lengths_checked(self):
        with pytest.raises(ValueError, match="field lengths disagree"):
            GaussianPairSum([1.0, 2.0], [0.0], 1.0)


class TestFrozenCopies:
    """A sum owns read-only copies: the caller's arrays stay writable, and the sum's cannot be made writable."""

    def assert_frozen(self, s):
        for array in (s.coeffs, s.centers):
            with pytest.raises(ValueError):
                array.setflags(write=True)

    def test_built_directly(self):
        coeffs, centers = np.array([0.25, 0.75]), np.array([-0.5, 0.5])
        s = GaussianPairSum(coeffs, centers, 1.0)
        assert coeffs.flags.writeable and centers.flags.writeable
        coeffs[0] = 9.0
        assert s.coeffs[0] == 0.25
        self.assert_frozen(s)

    def test_from_chain_rows(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        rows = conditional_density_rows(chain, 1, np.array([[0.3], [0.5]]), np.full((2, 2), 0.5), FirstFailure(2))
        s = rows.density(1)
        assert rows.coeffs.flags.writeable and rows.centers.flags.writeable
        self.assert_frozen(s)


def per_term_reference(coeffs, centers_a, centers_b, sigma, x):
    """``value``, ``moment(0/1/2)`` and ``center_second_moment`` of the ``d^2``-term pair form.

    The sum ``sum_k c_k psi(x - a_k) psi(x - b_k)`` with one complex
    coefficient per term and one width per term, as the engine stored its
    densities before they became signed mixtures.
    """
    sigmas = np.full(coeffs.shape, sigma)
    s2 = sigmas * sigmas
    xa = x[..., None] - centers_a
    xb = x[..., None] - centers_b
    gauss = (2.0 * np.pi * s2) ** -0.5 * np.exp(-(xa * xa + xb * xb) / (4.0 * s2))
    value = (coeffs * gauss).sum(axis=-1).real
    d = centers_a - centers_b
    weighted = coeffs * np.exp(-(d * d) / (8.0 * sigmas * sigmas))
    mu = 0.5 * (centers_a + centers_b)
    terms = [weighted * np.ones_like(mu), weighted * mu, weighted * (mu * mu + sigmas * sigmas), weighted * mu * mu]
    # each quantity with the sum of its terms' magnitudes, the scale of its rounding
    return (value, np.abs(coeffs * gauss).sum(axis=-1)), [(t.sum().real, np.abs(t).sum()) for t in terms]


class TestPairMixture:
    """pair_mixture and the mixture it builds against the d^2-term pair form."""

    #: relative to the sum of the reference's term magnitudes
    BOUND = 2e-15

    def test_matches_per_term_reference(self, rng):
        worst = 0.0
        for _ in range(400):
            d = int(rng.integers(1, 5))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            levels = np.sort(rng.uniform(-2.0, 2.0, d))
            sigma = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            coeffs = m @ m.conj().T
            weights, centers = pair_mixture(coeffs[None], levels, np.array([sigma]), FirstFailure(1))
            s = GaussianPairSum(weights[0], centers, sigma)
            # points at a few widths around the centers, where the terms are not all zero
            x = levels[0] + sigma * rng.normal(size=5)
            (value, value_scale), moments = per_term_reference(
                coeffs.ravel(), np.repeat(levels, d), np.tile(levels, d), sigma, x
            )
            got = [s.moment(0), s.moment(1), s.moment(2), s.center_second_moment()]
            gaps = [np.abs(s.value(x) - value) / value_scale] + [
                abs(g - want) / scale for g, (want, scale) in zip(got, moments)
            ]
            assert s.value(float(x[0])) == s.value(x)[0]
            worst = max(worst, *(float(np.max(gap)) for gap in gaps))
        assert worst < self.BOUND

    def test_one_weight_per_midpoint(self):
        for d in range(1, 6):
            weights, centers = pair_mixture(
                np.eye(d, dtype=complex)[None], np.arange(d, dtype=float), np.ones(1), FirstFailure(1)
            )
            assert weights.shape == (1, d * (d + 1) // 2) and centers.shape == (d * (d + 1) // 2,)
            assert np.array_equal(centers[:d], np.arange(d))

    def test_non_hermitian_later_row_is_recorded(self):
        coeffs = np.stack([np.eye(2), np.eye(2), np.array([[1.0, 0.5j], [0.5j, 1.0]]), np.eye(2)])
        rows = FirstFailure(4)
        weights, _ = pair_mixture(coeffs.astype(complex), np.array([-0.5, 0.5]), np.ones(4), rows)
        assert len(weights) == rows.rows == 2
        assert isinstance(rows.error, NonHermitianSum) and rows.error.row == 2
        with pytest.raises(NonHermitianSum):
            rows.raise_first()
