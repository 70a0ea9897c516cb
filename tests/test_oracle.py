import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import seqmeas

from seqmeas import (
    ChainQuery,
    DensityMatrix,
    MeasurementChain,
    MeasurementStage,
    Pointer,
    QuadratureConfig,
    SamplerConfig,
    conditional_stats_k,
    mc_conditional_variance,
    quad_moment,
    sample_chain,
)
from seqmeas import spin
from seqmeas.chain import conditional_density_k
from seqmeas.core import Observable
from seqmeas.errors import FirstFailure, QuadratureFailure, RejectionStall, VarianceInconsistency, ZeroLikelihood
from seqmeas.oracle import (
    _BLOCK,
    _CHUNK,
    _conditional_coeffs,
    _pick_components,
    _sample_rejection,
    _split_density,
    jackknife_variance_se,
    pair_sum_domain,
    quad_pair_sum_stats,
)
from seqmeas.pointer import GaussianPairSum, Pointer as _P, amplitude, pair_mixture, pair_moment
from seqmeas.validate import random_density, random_hermitian, random_observable, random_pure


def _pair_term(sigma, a, b):
    """``psi(x - a) psi(x - b)`` and its domain: both centers with ten widths each side, as ``pair_sum_domain``."""
    p = _P(sigma)
    return (lambda x: amplitude(p, x, a) * amplitude(p, x, b)), (min(a, b) - 10.0 * sigma, max(a, b) + 10.0 * sigma)


class TestQuadMoment:
    def test_standard_normal_second_moment(self):
        pdf = lambda x: (2 * np.pi) ** -0.5 * np.exp(-0.5 * x * x)
        assert abs(quad_moment(pdf, (-12, 12), 2) - 1.0) < 1e-10

    def test_matches_pair_moments_randomized(self, rng):
        for _ in range(40):
            sigma = float(rng.uniform(0.05, 3.0))
            a, b = rng.uniform(-2, 2, size=2)
            n = int(rng.integers(0, 3))
            f, domain = _pair_term(sigma, a, b)
            numeric = quad_moment(f, domain, n, points=[a, b])
            analytic = pair_moment(_P(sigma), a, b, n)
            assert abs(numeric - analytic) <= 1e-8 * max(1.0, abs(analytic))

    def test_density_normalization(self, plus, sz_stage, sx_stage):
        from seqmeas.conditional import forward_density

        density = forward_density(plus, sz_stage(0.5), sx_stage(0.5), 0.4)
        total = quad_moment(
            density.pdf, (-15, 15), 0, points=[-0.5, 0.5]
        )
        assert abs(total - 1.0) < 1e-8

    def test_bad_domain_rejected(self):
        with pytest.raises(QuadratureFailure):
            quad_moment(lambda x: x, (1.0, 1.0), 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(domain_pad=2.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureFailure, match="not finite"):
            quad_moment(lambda x: np.where(x > 0, np.nan, 1.0), (-1, 1), 0)
        with pytest.raises(QuadratureFailure, match="not finite"):
            quad_moment(lambda x: np.where(x > 0.3, np.inf, 0.0), (-1, 1), 1)

    def test_non_finite_result_raises(self):
        with pytest.raises(QuadratureFailure, match="non-finite"):
            quad_moment(lambda x: np.full_like(x, 1e308), (-1e10, 1e10), 0)

    def test_subdivision_cap_raises(self):
        step = lambda x: np.where(x > 0.3, 1.0, 0.0)
        with pytest.raises(QuadratureFailure, match="exceeds tolerance"):
            quad_moment(step, (-1, 1), 0, QuadratureConfig(max_subdivisions=4))


def _quadpack_moment(f, domain, n, points, cfg=QuadratureConfig()):
    # scalar QUADPACK reference with the oracle's tolerances
    lo, hi = domain
    interior = sorted({p for p in points if lo < p < hi}) or None
    value, _ = integrate.quad(
        lambda x: x**n * float(f(x)), lo, hi, epsabs=cfg.abs_tol, epsrel=1e-11,
        limit=cfg.max_subdivisions, points=interior,
    )
    return value


def _close_to_quadpack(value, ref):
    # the sum of both integrators' failure floors
    return abs(value - ref) <= 2 * max(1e-10, 1e-10 * abs(ref))


class TestQuadpackCrossCheck:
    def test_pair_moments(self, rng):
        for _ in range(30):
            sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            a, b = rng.uniform(-2, 2, size=2)
            f, domain = _pair_term(sigma, a, b)
            for n in (0, 1, 2):
                ref = _quadpack_moment(f, domain, n, [a, b])
                assert _close_to_quadpack(quad_moment(f, domain, n, points=[a, b]), ref)

    def test_chain_conditional_stats(self, rng):
        for _ in range(20):
            dim, n_stages = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            stages = tuple(
                MeasurementStage(
                    random_observable(rng, dim),
                    Pointer(float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))),
                )
                for _ in range(n_stages)
            )
            chain = MeasurementChain(stages, random_density(rng, dim))
            free = int(rng.integers(1, n_stages + 1))
            # each fixed outcome lands near one of its stage's eigenvalues
            fixed = tuple(
                float(rng.choice(st.observable.eigenvalues) + st.sigma * rng.standard_normal())
                for j, st in enumerate(stages)
                if j + 1 != free
            )
            density, _ = conditional_density_k(chain, ChainQuery(free, fixed))
            m0, m1, m2 = (
                _quadpack_moment(
                    density.value, pair_sum_domain(density), n, density.centers,
                )
                for n in (0, 1, 2)
            )
            ref = (m0, m1 / m0, m2 / m0 - (m1 / m0) ** 2)
            for got, want in zip(quad_pair_sum_stats(density), ref):
                assert _close_to_quadpack(got, want)


def test_cli_import_loads_no_scipy():
    src = str(Path(seqmeas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, seqmeas.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestSampleChain:
    def test_single_stage_empirical_moments(self, plus, sz_stage):
        chain = MeasurementChain((sz_stage(0.5),), plus)
        x = sample_chain(chain, SamplerConfig(samples=1_000_000, seed=11))[:, 0]
        se_mean = x.std() / np.sqrt(x.size)
        assert abs(x.mean()) < 3 * se_mean
        var, se_var = jackknife_variance_se(x)
        assert abs(var - 0.5) < 3 * se_var

    def test_eigenstate_gives_single_component(self, up, sz_stage):
        chain = MeasurementChain((sz_stage(0.4),), up)
        x = sample_chain(chain, SamplerConfig(samples=200_000, seed=3))[:, 0]
        var, se_var = jackknife_variance_se(x)
        assert abs(x.mean() - 0.5) < 3 * x.std() / np.sqrt(x.size)
        assert abs(var - 0.16) < 3 * se_var

    def test_deterministic_for_fixed_seed(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.7)), plus)
        a = sample_chain(chain, SamplerConfig(samples=5000, seed=42))
        b = sample_chain(chain, SamplerConfig(samples=5000, seed=42))
        np.testing.assert_array_equal(a, b)
        c = sample_chain(chain, SamplerConfig(samples=5000, seed=43))
        assert not np.array_equal(a, c)

    def test_no_signaling_same_seed(self, plus, sz_stage, sx_stage):
        base = MeasurementChain((sz_stage(0.5), sx_stage(0.7)), plus)
        tweaked = MeasurementChain((sz_stage(0.5), sx_stage(0.05)), plus)
        a = sample_chain(base, SamplerConfig(samples=20_000, seed=5))
        b = sample_chain(tweaked, SamplerConfig(samples=20_000, seed=5))
        np.testing.assert_array_equal(a[:, 0], b[:, 0])

    def test_no_signaling_statistics(self, plus, sz_stage, sx_stage):
        base = MeasurementChain((sz_stage(0.5), sx_stage(0.7)), plus)
        tweaked = MeasurementChain((sz_stage(0.5), sx_stage(0.05)), plus)
        a = sample_chain(base, SamplerConfig(samples=400_000, seed=6))[:, 0]
        b = sample_chain(tweaked, SamplerConfig(samples=400_000, seed=7))[:, 0]
        se = np.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 3 * se

    def test_two_stage_pointer_law(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        x = sample_chain(chain, SamplerConfig(samples=1_000_000, seed=8))
        var2, se2 = jackknife_variance_se(x[:, 1])
        expected = 0.25 + 0.25 * (1 - np.exp(-1.0))
        assert abs(var2 - expected) < 3 * se2


def _reference_records(chain, samples, seed):
    # The sampler with complex (count, d, d) density matrices, one per
    # sample, in the current stage's eigenbasis: the Kraus update is the
    # elementwise product with w w^T, then U^dagger S U moves to the next
    # stage. It makes the same random draws in the same order, chunk by
    # chunk of 65536 samples. It picks one level, a distinct eigenvalue,
    # where the sampler picks one eigenvector: the same law.
    rng = np.random.default_rng(seed)
    stages = chain.stages
    out = np.empty((samples, len(stages)))
    for start in range(0, samples, 1 << 16):
        count = min(1 << 16, samples - start)
        v0 = stages[0].observable.eigenvectors
        rho = v0.conj().T @ chain.initial_state.normalized().matrix @ v0
        states = np.broadcast_to(rho, (count,) + rho.shape).copy()
        for j, stage in enumerate(stages):
            obs = stage.observable
            diag = np.clip(np.einsum("cpp->cp", states).real, 0.0, None)
            levels, level_of = np.unique(obs.eigenvalues, return_inverse=True)
            probs = np.zeros((count, levels.size))
            np.add.at(probs.T, level_of, diag.T)
            if levels.size == 2:
                totals = probs[:, 0] + probs[:, 1]
                comp = (rng.random(count) * totals >= probs[:, 0]).astype(np.intp)
            else:
                cumulative = np.cumsum(probs, axis=1)
                draws = rng.random(count) * cumulative[:, -1]
                comp = np.minimum((cumulative < draws[:, None]).sum(axis=1), levels.size - 1)
            x = levels[comp] + stage.sigma * rng.standard_normal(count)
            out[start : start + count, j] = x
            if j + 1 == len(stages):
                break
            w = np.exp(-((x[:, None] - obs.eigenvalues[None, :]) ** 2) / (4.0 * stage.sigma**2))
            states *= w[:, :, None] * w[:, None, :]
            states /= np.einsum("cpp->c", states).real[:, None, None]
            u = obs.eigenvectors.conj().T @ stages[j + 1].observable.eigenvectors
            rotated = np.tensordot(np.tensordot(states, u, axes=([2], [0])), u.conj(), axes=([1], [0]))
            states = rotated.transpose(0, 2, 1)
    return out


def _random_chain(rng, dim, n_stages, degenerate=False):
    stages = []
    for j in range(n_stages):
        if degenerate and j == 1:
            # one level of multiplicity dim - 1
            _, vectors = np.linalg.eigh(random_hermitian(rng, dim))
            obs = Observable.from_spectrum([-1.0] + [0.5] * (dim - 1), vectors)
        else:
            obs = random_observable(rng, dim)
        sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        stages.append(MeasurementStage(obs, Pointer(sigma)))
    if rng.random() < 0.3:
        state = DensityMatrix.pure(random_pure(rng, dim).amplitudes)
    else:
        state = random_density(rng, dim)
    return MeasurementChain(tuple(stages), state)


class TestSampleStream:
    """Fixed-seed records equal those of the complex-matrix reference sampler."""

    def test_n_stage_records(self):
        rng = np.random.default_rng(606)
        shapes = [(dim, k) for dim in (2, 3, 4) for k in (1, 3, 4, 5, 6)] * 2
        for t, (dim, n_stages) in enumerate(shapes):
            degenerate = dim > 2 and n_stages > 1 and t % 3 == 0
            chain = _random_chain(rng, dim, n_stages, degenerate)
            # one chain spans two chunks
            samples = 70_000 if t == 7 else 3000
            seed = int(rng.integers(2**62))
            got = sample_chain(chain, SamplerConfig(samples=samples, seed=seed))
            assert np.array_equal(got, _reference_records(chain, samples, seed)), (t, dim, n_stages)
        # a 1-stage chain spanning two chunks
        chain = _random_chain(rng, 3, 1)
        seed = int(rng.integers(2**62))
        got = sample_chain(chain, SamplerConfig(samples=70_000, seed=seed))
        assert np.array_equal(got, _reference_records(chain, 70_000, seed))

    def test_two_stage_shortcut_records(self):
        rng = np.random.default_rng(607)
        for t in range(12):
            dim = 2 + t % 3
            chain = _random_chain(rng, dim, 2, degenerate=dim > 2 and t % 2 == 0)
            seed = int(rng.integers(2**62))
            got = sample_chain(chain, SamplerConfig(samples=5000, seed=seed))
            assert np.array_equal(got, _reference_records(chain, 5000, seed)), (t, dim)
        # a chain spanning two chunks
        chain = _random_chain(rng, 3, 2, degenerate=True)
        seed = int(rng.integers(2**62))
        got = sample_chain(chain, SamplerConfig(samples=70_000, seed=seed))
        assert np.array_equal(got, _reference_records(chain, 70_000, seed))

    @pytest.mark.parametrize(
        "samples", [1, 1 << 16, (1 << 17) + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK + _BLOCK + 1]
    )
    def test_chunk_boundary_records(self, samples):
        # one sample, exactly one full chunk, and two full chunks and a
        # one-sample chunk, which run on narrowed views of the workspace;
        # then one short block, one full block, a full block and a
        # one-column block, and a second chunk of a full and a one-column block
        rng = np.random.default_rng(27_001)
        for dim in (2, 3):
            for n_stages in (1, 3, 4):
                chain = _random_chain(rng, dim, n_stages, degenerate=dim == 3 and n_stages == 4)
                seed = int(rng.integers(2**62))
                got = sample_chain(chain, SamplerConfig(samples=samples, seed=seed))
                assert np.array_equal(got, _reference_records(chain, samples, seed)), (dim, n_stages)

    def test_records_are_new_arrays(self):
        rng = np.random.default_rng(27_002)
        chain = _random_chain(rng, 3, 4)
        first = sample_chain(chain, SamplerConfig(samples=70_000, seed=1))
        kept = first.copy()
        assert first.shape == (70_000, 4) and first.dtype == np.float64
        assert first.flags.c_contiguous and first.flags.owndata
        second = sample_chain(chain, SamplerConfig(samples=70_000, seed=2))
        sample_chain(_random_chain(rng, 2, 3), SamplerConfig(samples=70_000, seed=1))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)


class TestSampleWorkspace:
    def test_traced_peak_is_bounded(self):
        # one 200k-sample call on 4 stages at d = 4: 6.1 MiB of records and
        # 4 MiB of chunk-wide draws; the arithmetic's workspace is one block
        # wide (a chunk-wide one peaked at 33.7 MiB)
        chain = _random_chain(np.random.default_rng(31_001), 4, 4)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            sample_chain(chain, SamplerConfig(samples=200_000, seed=1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 16 * 2**20, peak / 2**20


def _pick(weights, count=None):
    # the uniform draws of one default_rng(0) call, and fresh pick buffers
    weights = np.array(weights, dtype=float)
    count = weights.shape[1] if count is None else count
    draws = np.random.default_rng(0).random(count)
    return _pick_components(draws, weights, np.empty(count, dtype=np.intp), np.empty(count, dtype=bool))


class TestPickComponents:
    @pytest.mark.parametrize("levels", [2, 3])
    def test_zero_total_raises(self, levels):
        # one row per level, one column per sample; sample 3 has no weight
        weights = np.ones((levels, 5))
        weights[:, 3] = 0.0
        with pytest.raises(ZeroLikelihood, match="sample 3 sum to 0.0"):
            _pick(weights)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_non_finite_total_raises(self, levels):
        weights = np.ones((levels, 5))
        weights[0, 1] = np.nan
        with pytest.raises(ZeroLikelihood, match="sample 1 sum to nan"):
            _pick(weights)

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("bad, text", [(np.inf, "inf"), (-1.0, "-1.0")])
    def test_infinite_or_negative_total_raises(self, levels, bad, text):
        weights = np.ones((levels, 5))
        weights[:, 2] = 0.0
        weights[-1, 2] = bad
        with pytest.raises(ZeroLikelihood, match=f"sample 2 sum to {text}$"):
            _pick(weights)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_shared_column_zero_total_raises(self, levels):
        # one column shared by four samples
        with pytest.raises(ZeroLikelihood, match="sample 0 sum to 0.0"):
            _pick(np.zeros((levels, 1)), 4)

    def test_first_bad_sample_is_named(self):
        weights = np.ones((3, 6))
        weights[:, 4] = 0.0
        weights[1, 2] = np.nan
        with pytest.raises(ZeroLikelihood, match="sample 2 sum to nan"):
            _pick(weights)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_workspace_gives_the_same_picks(self, levels):
        weights = np.random.default_rng(1).random((levels, 50))
        draws = np.random.default_rng(2).random(50)
        cumulative = np.cumsum(weights, axis=0)
        plain = (cumulative[:-1] < draws * cumulative[-1]).sum(axis=0)
        # the buffers are written in place: weights by its cumulative sums
        work = weights.copy(), np.empty(50, dtype=np.intp), np.empty(50, dtype=bool)
        got = _pick_components(draws, *work)
        assert np.array_equal(plain, got) and got is work[1]
        assert np.array_equal(work[0], cumulative)


class TestJackknife:
    def test_matches_asymptotic_se(self, rng):
        x = rng.normal(size=200_000)
        var, se = jackknife_variance_se(x)
        m2 = ((x - x.mean()) ** 2).mean()
        m4 = ((x - x.mean()) ** 4).mean()
        asymptotic = np.sqrt((m4 - m2 * m2) / x.size)
        assert abs(se / asymptotic - 1.0) < 0.05

    def test_se_scales_inverse_sqrt(self, plus, sz_stage):
        chain = MeasurementChain((sz_stage(0.5),), plus)
        x = sample_chain(chain, SamplerConfig(samples=400_000, seed=12))[:, 0]
        _, se_half = jackknife_variance_se(x[: x.size // 2])
        _, se_full = jackknife_variance_se(x)
        assert abs(se_half / se_full - np.sqrt(2.0)) < 0.2 * np.sqrt(2.0)


def _reference_rejection(rng, coeffs, density, proposal_weights, proposal_centers, n):
    # The rejection sampler with the target from density.value (the mixture
    # of the (d, d) pair coefficients coeffs) and the proposal pdf from one
    # exp per support level, both with the normalization constant. It makes
    # the same draws in the same order; returns the samples and the number
    # of batches.
    sigma = density.sigma
    support = proposal_weights > 1e-300
    weights = proposal_weights[support] / proposal_weights[support].sum()
    centers = proposal_centers[support]
    lam_max = float(np.linalg.eigvalsh(coeffs)[-1].real)
    envelope = 1.1 * lam_max / float(weights.min())
    norm_const = (2.0 * np.pi * sigma * sigma) ** -0.5
    accepted, got, proposed = [], 0, 0
    batch = max(n // 4, 4096)
    while got < n:
        comp = rng.choice(weights.size, size=batch, p=weights)
        y = centers[comp] + sigma * rng.standard_normal(batch)
        proposal_pdf = (
            weights[None, :]
            * norm_const
            * np.exp(-((y[:, None] - centers[None, :]) ** 2) / (2.0 * sigma * sigma))
        ).sum(axis=1)
        accept = rng.random(batch) * envelope * proposal_pdf <= density.value(y)
        accepted.append(y[accept])
        got += int(accept.sum())
        proposed += batch
        if proposed >= 100_000 and got / proposed < 1e-6:
            raise RejectionStall(f"acceptance rate {got / proposed:.2e}")
    return np.concatenate(accepted)[:n], len(accepted)


def _oracle_density(chain, query):
    # the oracle's own (d, d) coefficients, their pair sum and the populations before the free stage
    coeffs, eigenvalues, sigma, populations = _conditional_coeffs(chain, query)
    weights, centers = pair_mixture(coeffs[None], eigenvalues, np.array([sigma]), FirstFailure(1))
    return coeffs, GaussianPairSum(weights[0], centers, sigma), populations


def _rejection_args(chain, query):
    # what mc_conditional_variance hands to the rejection sampler, with the density of its coefficients
    coeffs, density, populations = _oracle_density(chain, query)
    diag = np.clip(populations, 0.0, None)
    return coeffs, density, diag / diag.sum(), chain.stages[query.free_index - 1].observable.eigenvalues


class TestRejectionStream:
    """Post-selected samples equal those of the pair-Gaussian reference sampler."""

    def assert_same_stream(self, chain, query, samples, seed):
        coeffs, density, weights, centers = _rejection_args(chain, query)
        assert _split_density(coeffs, centers).any()
        got = _sample_rejection(np.random.default_rng(seed), coeffs, density.sigma, weights, centers, samples)
        want, batches = _reference_rejection(
            np.random.default_rng(seed), coeffs, density, weights, centers, samples
        )
        assert np.array_equal(got, want)
        cfg = SamplerConfig(samples=samples, seed=seed)
        assert mc_conditional_variance(chain, query, cfg) == jackknife_variance_se(want)
        return weights, batches

    def test_random_post_selected_queries(self):
        rng = np.random.default_rng(909)
        batches = []
        for t in range(33):
            dim = 2 + t % 3
            n_stages = 2 + t % 4
            degenerate = dim > 2 and t % 4 == 1
            chain = _random_chain(rng, dim, n_stages, degenerate)
            # the degenerate stage is the second one; every query has a later record
            free = 2 if degenerate else int(rng.integers(1, n_stages))
            seed = int(rng.integers(2**62))
            # the fixed outcomes come from a sampled record of the chain
            record = sample_chain(chain, SamplerConfig(samples=1, seed=seed))[0]
            query = ChainQuery(free, tuple(np.delete(record, free - 1)))
            batches.append(self.assert_same_stream(chain, query, 3000, seed)[1])
        assert max(batches) >= 3

    def test_zero_weight_level(self):
        # the free stage is diagonal and the state fills only two of its
        # three levels, so the third proposal weight is exactly zero
        rng = np.random.default_rng(910)
        free = MeasurementStage(Observable.from_spectrum([-1.0, 0.0, 1.0], np.eye(3)), Pointer(0.6))
        later = MeasurementStage(random_observable(rng, 3), Pointer(0.4))
        state = DensityMatrix.pure(np.array([0.6, 0.8j, 0.0]))
        chain = MeasurementChain((free, later), state)
        weights, _ = self.assert_same_stream(chain, ChainQuery(1, (0.3,)), 5000, 11)
        assert weights[2] == 0.0 and (weights[:2] > 0.0).all()

    def test_many_batches(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        _, batches = self.assert_same_stream(chain, ChainQuery(1, (0.5,)), 40_000, 12)
        assert batches >= 4


class TestMcConditionalVariance:
    def test_forward_direct_case(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        query = ChainQuery(2, (0.5,))
        estimate, se = mc_conditional_variance(chain, query, SamplerConfig(samples=1_000_000, seed=21))
        target = 0.25 * np.tanh(1.0) ** 2 + 0.25
        assert abs(estimate - target) < 3 * se

    def test_backward_rejection_case(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        query = ChainQuery(1, (0.5,))
        estimate, se = mc_conditional_variance(chain, query, SamplerConfig(samples=1_000_000, seed=22))
        target = spin.var_sz_given_sx_closed(0.5, 0.5, 0.5) + 0.25
        assert abs(estimate - target) < 3 * se

    def test_four_stage_chain_consistency(self, plus):
        stages = tuple(
            MeasurementStage(obs, Pointer(0.5))
            for obs in (spin.s_z(), spin.s_x(), spin.s_x(), spin.s_z())
        )
        chain = MeasurementChain(stages, plus)
        query = ChainQuery(2, (0.3, 0.1, -0.4))
        analytic = conditional_stats_k(chain, query).variance
        estimate, se = mc_conditional_variance(chain, query, SamplerConfig(samples=400_000, seed=23))
        assert abs(estimate - analytic) < 3 * se

    def test_rejection_stall_guard(self, sz_stage, sx_stage):
        # nearly pure superposition: one proposal component is almost
        # empty while coherences keep the cross terms alive, so the
        # provable envelope explodes and acceptance dies
        from seqmeas import DensityMatrix, RejectionStall

        eps = 1e-9
        amps = np.array([np.sqrt(1.0 - eps), np.sqrt(eps)], dtype=complex)
        rho = DensityMatrix.pure(amps)
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), rho)
        with pytest.raises(RejectionStall):
            mc_conditional_variance(chain, ChainQuery(1, (0.5,)), SamplerConfig(samples=10_000, seed=1))

    def test_random_chain_against_quadrature(self, rng):
        stages = tuple(
            MeasurementStage(random_observable(rng, 3), Pointer(float(rng.uniform(0.4, 1.0))))
            for _ in range(3)
        )
        chain = MeasurementChain(stages, random_density(rng, 3))
        query = ChainQuery(2, (0.2, -0.5))
        
        density, _ = conditional_density_k(chain, query)
        _, _, quad_var = quad_pair_sum_stats(density)
        estimate, se = mc_conditional_variance(chain, query, SamplerConfig(samples=300_000, seed=24))
        assert abs(estimate - quad_var) < 3 * se


class TestOracleTarget:
    """The oracle's coefficients come from dense Kraus products, not from the engine."""

    def test_zero_population_level(self, up, sz_stage, sx_stage):
        # x1 = -2 favours the empty down level over up by e^800 in w^2: scaled by its
        # largest weight alone, up's w^2 underflows; scaled by the largest w_i^2 p_i, it does not
        chain = MeasurementChain((sz_stage(0.05), sx_stage(0.3)), up)
        got = mc_conditional_variance(chain, ChainQuery(2, (-2.0,)), SamplerConfig(2000, 1))
        assert got == (0.3365720628469162, 0.007418815763141891)

    def test_answers_every_far_record_the_engine_answers(self):
        # 40% of the fixed outcomes lie 12-80 widths past an eigenvalue of their stage
        rng = np.random.default_rng(35_001)
        answered = 0
        for _ in range(60):
            dim, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            stages = tuple(
                MeasurementStage(random_observable(rng, dim), Pointer(float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))))
                for _ in range(n)
            )
            chain = MeasurementChain(stages, random_density(rng, dim))
            free = int(rng.integers(1, n + 1))
            fixed = []
            for j, stage in enumerate(stages):
                if j + 1 != free:
                    far = rng.random() < 0.4
                    offset = rng.choice([-1.0, 1.0]) * rng.uniform(12.0, 80.0) if far else rng.standard_normal()
                    fixed.append(float(rng.choice(stage.observable.eigenvalues) + offset * stage.sigma))
            query = ChainQuery(free, tuple(fixed))
            try:
                engine = conditional_stats_k(chain, query)
            except VarianceInconsistency:
                # the weak-value regime (ROADMAP item 4)
                continue
            var, se = mc_conditional_variance(chain, query, SamplerConfig(500, 1))
            assert np.isfinite(var) and np.isfinite(se)
            # the exact moments of the oracle's density are the engine's
            _, density, _ = _oracle_density(chain, query)
            m0 = density.moment(0)
            mean = density.moment(1) / m0
            assert abs(mean - engine.mean) < 1e-12 * max(1.0, abs(mean))
            assert abs(density.moment(2) / m0 - mean * mean - engine.variance) < 1e-12 * max(1.0, engine.variance)
            answered += 1
        assert answered >= 40

    @pytest.mark.parametrize("free", [2, 1])
    def test_outcome_far_beyond_the_spectrum(self, plus, sz_stage, sx_stage, free):
        # (x - a)^2 at x = 1e16 no longer tells a = -1/2 from a = 1/2; the differences of the log weights do
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        closed = spin.var_sx_given_sz_closed(0.5, 1e16) if free == 2 else spin.var_sz_given_sx_closed(0.5, 0.5, 1e16)
        var, se = mc_conditional_variance(chain, ChainQuery(free, (1e16,)), SamplerConfig(20_000, 3))
        assert abs(var - (closed + 0.25)) < 5 * se

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 22: kraus.fold loses the eigenvalue gaps in (x - a)^2")
    def test_engine_outcome_far_beyond_the_spectrum(self, plus, sz_stage, sx_stage):
        chain = MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)
        variance = conditional_stats_k(chain, ChainQuery(2, (1e16,))).variance
        assert abs(variance - (spin.var_sx_given_sz_closed(0.5, 1e16) + 0.25)) < 1e-12
