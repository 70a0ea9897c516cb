import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from seqmeas import (
    GaussianPairSum,
    InvalidOrder,
    NonHermitianSum,
    Pointer,
    amplitude,
    overlap,
    pair_moment,
)

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
        s = GaussianPairSum([1.0], [0.0], [0.0], 1.0)
        assert abs(s.moment(0) - 1.0) < 1e-15

    def test_spin_marginal_second_moment(self):
        s = GaussianPairSum.mixture([0.5, 0.5], [0.5, -0.5], 1.0)
        assert abs(s.moment(2) - 1.25) < 1e-15
        numeric, _ = quad(s.value, -15, 15, points=[-0.5, 0.5])
        assert abs(numeric - 1.0) < 1e-10

    def test_conjugate_pair_cancels(self):
        s = GaussianPairSum([1j, -1j], [0.3, -0.4], [-0.4, 0.3], 0.7)
        assert s.moment(1) == 0.0

    def test_non_hermitian_rejected(self):
        s = GaussianPairSum([1j], [0.3], [-0.4], 0.7)
        with pytest.raises(NonHermitianSum):
            s.moment(0)

    def test_invalid_order_on_sum(self):
        s = GaussianPairSum([1.0], [0.0], [0.0], 1.0)
        with pytest.raises(InvalidOrder):
            s.moment(3)

    def test_value_matches_terms(self, rng):
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        terms = np.concatenate([coeffs, coeffs.conj()])
        s = GaussianPairSum(terms, np.concatenate([a, b]), np.concatenate([b, a]), 0.6)
        xs = np.linspace(-2, 2, 7)
        p = Pointer(0.6)
        expected = sum(
            (c * amplitude(p, xs, ca) * amplitude(p, xs, cb)).real
            for c, ca, cb in zip(terms, np.concatenate([a, b]), np.concatenate([b, a]))
        )
        np.testing.assert_allclose(s.value(xs), expected, atol=1e-14)

    def test_center_second_moment_split(self, rng):
        w = rng.uniform(0.1, 1.0, size=4)
        centers = rng.uniform(-2, 2, size=4)
        s = GaussianPairSum.mixture(w, centers, 0.9)
        assert abs(s.moment(2) - (s.center_second_moment() + 0.81 * s.moment(0))) < 1e-12


def per_term_reference(s: GaussianPairSum, x):
    """``value``, ``moment(0/1/2)`` and ``center_second_moment`` of ``s`` with one width per term.

    The arithmetic of a pair sum that stores its width once per term, kept
    here so the one-width sum is checked against it bit for bit.
    """
    sigmas = np.full(s.coeffs.shape, s.sigma)
    s2 = sigmas * sigmas
    xa = x[..., None] - s.centers_a
    xb = x[..., None] - s.centers_b
    gauss = (2.0 * np.pi * s2) ** -0.5 * np.exp(-(xa * xa + xb * xb) / (4.0 * s2))
    value = (s.coeffs * gauss).sum(axis=-1).real
    d = s.centers_a - s.centers_b
    weighted = s.coeffs * np.exp(-(d * d) / (8.0 * sigmas * sigmas))
    mu = 0.5 * (s.centers_a + s.centers_b)
    terms = [weighted * np.ones_like(mu), weighted * mu, weighted * (mu * mu + sigmas * sigmas), weighted * mu * mu]
    return value, [float(np.stack([t]).sum(axis=-1).real[0]) for t in terms]


class TestOneWidthBits:
    """A pair sum with one width gives the bits of the same sum with that width on every term."""

    def random_sums(self, rng, count):
        for _ in range(count):
            d = int(rng.integers(1, 5))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            levels = np.sort(rng.uniform(-2.0, 2.0, d))
            sigma = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            coeffs = (m @ m.conj().T).ravel()
            yield GaussianPairSum(coeffs, np.repeat(levels, d), np.tile(levels, d), sigma)

    def test_value_and_moments(self, rng):
        for s in self.random_sums(rng, 400):
            # points at a few widths around the centers, where the terms are not all zero
            x = s.centers_a[0] + s.sigma * rng.normal(size=5)
            value, (m0, m1, m2, c2) = per_term_reference(s, x)
            assert np.array_equal(s.value(x), value)
            assert s.value(float(x[0])) == value[0]
            assert (s.moment(0), s.moment(1), s.moment(2), s.center_second_moment()) == (m0, m1, m2, c2)

    def test_width_checked_once(self):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma must be finite and positive"):
                GaussianPairSum([1.0], [0.0], [0.0], bad)
