import numpy as np
import pytest
from scipy.integrate import quad

from seqmeas import (
    ChainQuery,
    ConditionalDensity,
    ConditionalStats,
    DensityMatrix,
    DimensionMismatch,
    MeasurementChain,
    MeasurementStage,
    Observable,
    Pointer,
    SeqMeasError,
    VarianceInconsistency,
    backward_density,
    backward_stats,
    chain_state,
    conditional_density_k,
    conditional_state,
    conditional_stats_k,
    effect_at,
    effect_chain,
    forward_density,
    forward_stats,
)
from seqmeas import spin
from seqmeas.chain import Rotations, chain_state_rows, effect_chain_rows
from seqmeas.conditional import DIRECTIONS
from seqmeas.validate import random_density, random_observable

from reference import dense_kraus_reference


@pytest.fixture
def listing_chain(plus):
    stages = tuple(
        MeasurementStage(obs, Pointer(0.5))
        for obs in (spin.s_z(), spin.s_x(), spin.s_x(), spin.s_z())
    )
    return MeasurementChain(stages, plus)


@pytest.fixture
def two_stage(plus, sz_stage, sx_stage):
    return MeasurementChain((sz_stage(0.5), sx_stage(0.5)), plus)


class TestChainState:
    def test_single_stage_equals_conditional_state(self, plus, sz_stage):
        chain = MeasurementChain((sz_stage(0.5),), plus)
        for x1 in (-0.7, 0.0, 0.4):
            via_chain = chain_state(chain, [x1])
            direct = conditional_state(plus, sz_stage(0.5), x1)
            np.testing.assert_allclose(via_chain.matrix, direct.matrix, atol=1e-15)
            assert abs(via_chain.log_scale - direct.log_scale) < 1e-12

    def test_two_stage_trace_is_joint_density(self, two_stage, plus, sz_stage, sx_stage):
        x1, x2 = 0.3, -0.2
        rho2 = chain_state(two_stage, [x1, x2])
        rbar1 = conditional_state(plus, sz_stage(0.5), x1)
        effect = effect_at(sx_stage(0.5), x2)
        expected = float(np.trace(rbar1.matrix @ effect).real) * np.exp(rbar1.log_scale)
        assert abs(rho2.trace - expected) < 1e-14

    def test_listing_chain_trace_positive_and_matches_quadrature(self, listing_chain, spectral_projectors):
        # joint density of (x1, x2) after integrating the last two outcomes out
        x1, x2 = 0.3, -0.2
        rho2 = chain_state(
            MeasurementChain(listing_chain.stages[:2], listing_chain.initial_state), [x1, x2]
        )
        assert rho2.trace > 0.0
        p1 = spin.rhobar1_closed(0.5, x1)
        levels, projectors = spectral_projectors(spin.s_x())
        weights = np.einsum("gij,ji->g", projectors, p1.matrix).real
        pdf = (2 * np.pi * 0.25) ** -0.5 * np.exp(-((x2 - levels) ** 2) / 0.5)
        assert abs(rho2.trace - float(np.dot(weights, pdf))) < 1e-14


class TestEffectChain:
    def test_empty_product_is_identity(self, listing_chain):
        matrix, log_scale = effect_chain(listing_chain, [])
        np.testing.assert_allclose(matrix, np.eye(2), atol=1e-15)
        assert log_scale == 0.0

    def test_single_future_stage(self, listing_chain):
        matrix, log_scale = effect_chain(listing_chain, [0.7])
        ref = effect_at(listing_chain.stages[-1], 0.7)
        np.testing.assert_allclose(matrix * np.exp(log_scale), ref, atol=1e-15)

    def test_listing_order(self, listing_chain):
        # fE = OmegaX(s3,x3) OmegaZ(s4,x4) OmegaZ(s4,x4) OmegaX(s3,x3)
        x3, x4 = 0.1, -0.4
        from seqmeas.kraus import kraus_at

        omega_x = kraus_at(listing_chain.stages[2], x3)
        omega_z = kraus_at(listing_chain.stages[3], x4)
        manual = omega_x @ omega_z @ omega_z @ omega_x
        matrix, log_scale = effect_chain(listing_chain, [x3, x4])
        np.testing.assert_allclose(matrix * np.exp(log_scale), manual, atol=1e-15)

    def test_hermitian_psd(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            stages = tuple(
                MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
                for _ in range(3)
            )
            chain = MeasurementChain(stages, random_density(rng, dim))
            e, _ = effect_chain(chain, rng.uniform(-1, 1, size=2))
            assert np.max(np.abs(e - e.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(e).min() > -1e-12


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (SeqMeasError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def density_fields(density: ConditionalDensity):
    numerator = density.numerator
    return (
        density.direction, density.conditioned_on, numerator.coeffs.tolist(), numerator.centers.tolist(),
        numerator.sigma, density.normalization,
    )


class TestReducesToTwoStageModel:
    """The two-stage functions are the 2-stage chain query, free index 2 forward and 1 backward, bit for bit."""

    @pytest.fixture
    def cases(self, rng, plus, sz_stage, sx_stage):
        # the spin illustration, then random d = 2-4 observables, states, widths and outcomes
        cases = [(plus, sz_stage(0.5), sx_stage(0.5), float(x)) for x in np.linspace(-1.2, 1.2, 7)]
        for _ in range(120):
            dim = int(rng.integers(2, 5))
            widths = 10 ** rng.uniform(-1.5, 0.5, size=2)
            stages = [MeasurementStage(random_observable(rng, dim), Pointer(float(w))) for w in widths]
            cases.append((random_density(rng, dim), *stages, float(2.0 * rng.normal())))
        return cases

    @staticmethod
    def stats_k(chain, query):
        r = conditional_stats_k(chain, query)
        return ConditionalStats(r.mean, r.variance, r.extracted_variance, r.clamped)

    @staticmethod
    def density_k(chain, query):
        direction = DIRECTIONS[query.free_index][0]
        return ConditionalDensity(direction, query.fixed_outcomes[0], *conditional_density_k(chain, query))

    @staticmethod
    def compare(cases, free_index, two_stage, chain_query, fields=lambda value: value):
        # the same value bits, or the same error type, row and text but for the density's name
        answered = 0
        for rho, stage1, stage2, x in cases:
            got = outcome(two_stage, rho, stage1, stage2, x)
            ref = outcome(chain_query, MeasurementChain((stage1, stage2), rho), ChainQuery(free_index, (x,)))
            if got[0] == ref[0] == "ok":
                answered += 1
                got, ref = fields(got[1]), fields(ref[1])
            elif ref[0] != "ok":
                label = DIRECTIONS[free_index][1]
                ref = (ref[0], ref[1].replace("conditional normalization", f"{label} normalization"), ref[2])
            assert repr(got) == repr(ref), (rho.dim, stage1.sigma, stage2.sigma, x)
        assert answered > 100

    def test_forward(self, cases):
        self.compare(cases, 2, forward_stats, self.stats_k)

    def test_backward(self, cases):
        self.compare(cases, 1, backward_stats, self.stats_k)

    def test_forward_density(self, cases):
        self.compare(cases, 2, forward_density, self.density_k, density_fields)

    def test_backward_density(self, cases):
        self.compare(cases, 1, backward_density, self.density_k, density_fields)

    def test_outcome_cutoff_applies_to_chain_queries_only(self, plus, sz_stage, sx_stage):
        # no outcome cutoff applies to either API: x1 = -1.2 lies 17.5 widths
        # from the nearer S_z eigenvalue at sigma1 = 0.04, and the record
        # collapses the state onto that eigenstate, as it does further out
        first, second = sz_stage(0.04), sx_stage(0.5)
        chain = MeasurementChain((first, second), plus)
        for x1 in (-1.2, -10.0, -100.0):
            assert forward_stats(plus, first, second, x1).extracted_system_variance == 0.25
            assert conditional_stats_k(chain, ChainQuery(2, (x1,))).extracted_variance == 0.25


class TestConditionalDensityK:
    def test_listing_density_normalizes(self, listing_chain):
        density, norm = conditional_density_k(listing_chain, ChainQuery(2, (0.3, 0.1, -0.4)))
        numeric = quad(
            lambda x: density.value(x) / norm, -15, 15, points=[-0.5, 0.5], limit=200
        )[0]
        assert abs(numeric - 1.0) < 1e-8

    def test_weak_chain_recovers_unconditioned_variance(self, plus):
        stages = tuple(
            MeasurementStage(obs, Pointer(1e3))
            for obs in (spin.s_z(), spin.s_x(), spin.s_z())
        )
        chain = MeasurementChain(stages, plus)
        for free, expected in ((1, 0.25), (2, 0.0), (3, 0.25)):
            result = conditional_stats_k(chain, ChainQuery(free, (0.2, -0.3)))
            assert abs(result.extracted_variance - expected) < 1e-3

    def test_far_fixed_outcome_rejected(self, listing_chain):
        # an outcome 79 widths past every eigenvalue answers, as the dense reference does
        fixed = (40.0, 0.1, -0.4)
        result = conditional_stats_k(listing_chain, ChainQuery(2, fixed))
        mats = [stage.observable.matrix for stage in listing_chain.stages]
        sigmas = [stage.sigma for stage in listing_chain.stages]
        mean, variance = dense_kraus_reference(mats, sigmas, listing_chain.initial_state.matrix, 1, fixed)
        assert abs(result.mean - mean) < 1e-12
        assert abs(result.variance - variance) < 1e-12

    def test_order_sensitivity_witness(self, plus):
        forward_order = MeasurementChain(
            (MeasurementStage(spin.s_z(), Pointer(0.5)), MeasurementStage(spin.s_x(), Pointer(0.5))),
            plus,
        )
        swapped = MeasurementChain(
            (MeasurementStage(spin.s_x(), Pointer(0.5)), MeasurementStage(spin.s_z(), Pointer(0.5))),
            plus,
        )
        q = ChainQuery(2, (0.4,))
        a = conditional_stats_k(forward_order, q).extracted_variance
        b = conditional_stats_k(swapped, q).extracted_variance
        assert abs(a - b) > 1e-3

    def test_commuting_chain_sigma_independence_at_symmetric_outcome(self, rng):
        # conditioning at x_j = 0 carries no information for the symmetric
        # +-1/2 spectrum, so the other stages' strengths must drop out; at
        # asymmetric outcomes they reweight the mixture and may not
        rho = random_density(rng, 2)
        results = []
        for sigma_other in (0.2, 0.7, 3.0):
            stages = (
                MeasurementStage(spin.s_z(), Pointer(sigma_other)),
                MeasurementStage(spin.s_z(), Pointer(0.5)),
                MeasurementStage(spin.s_z(), Pointer(sigma_other)),
            )
            chain = MeasurementChain(stages, rho)
            results.append(
                conditional_stats_k(chain, ChainQuery(2, (0.0, 0.0))).extracted_variance
            )
        assert max(results) - min(results) < 1e-10

    def test_commuting_chain_order_invariance(self, rng):
        # commuting Kraus factors make the conditional density a pure
        # Bayesian product: permuting the other stages cannot matter
        rho = random_density(rng, 2)
        sigmas = (0.3, 0.9, 1.7)
        outcomes = (0.3, -0.2)
        results = []
        for order in ((0, 1), (1, 0)):
            stages = (
                MeasurementStage(spin.s_z(), Pointer(sigmas[order[0]])),
                MeasurementStage(spin.s_z(), Pointer(0.5)),
                MeasurementStage(spin.s_z(), Pointer(sigmas[order[1]])),
            )
            chain = MeasurementChain(stages, rho)
            query = ChainQuery(2, (outcomes[order[0]], outcomes[order[1]]))
            results.append(conditional_stats_k(chain, query).extracted_variance)
        assert abs(results[0] - results[1]) < 1e-12

    def test_six_stage_chain_runs(self, rng):
        stages = tuple(
            MeasurementStage(random_observable(rng, 3), Pointer(float(rng.uniform(0.4, 1.2))))
            for _ in range(6)
        )
        chain = MeasurementChain(stages, random_density(rng, 3))
        result = conditional_stats_k(chain, ChainQuery(4, tuple(rng.uniform(-1, 1, size=5))))
        assert np.isfinite(result.mean)
        assert result.variance > 0.0


class TestImprobableRecords:
    """Records whose likelihood underflows a double still answer: every fold renormalizes."""

    def test_alternating_record_collapses_to_up(self, plus):
        # ten S_z stages at sigma = 0.05 on |+>, outcomes alternating +1/2, -1/2
        # with one more +1/2: each outcome shrinks the likelihood by about e^-200,
        # and the posterior is the up state
        chain = MeasurementChain(tuple(MeasurementStage(spin.s_z(), Pointer(0.05)) for _ in range(10)), plus)
        result = conditional_stats_k(chain, ChainQuery(10, (0.5, -0.5) * 4 + (0.5,)))
        assert result.mean == 0.5
        assert result.extracted_variance == 0.0

    def test_fold_selecting_a_rare_direction(self, rng):
        # the first outcome selects an eigenvector of population about 1e-8:
        # the fold scales the rounding of the basis change before it by 1e8,
        # and the state still collapses onto that eigenvector
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            first = Observable.from_spectrum([-1.0, 0.0, 1.0], q)
            psi = q[:, 1] + 1e-4 * q[:, 0]
            second = random_observable(rng, 3)
            chain = MeasurementChain(
                (MeasurementStage(first, Pointer(0.1)), MeasurementStage(second, Pointer(0.5))),
                DensityMatrix.pure(psi / np.linalg.norm(psi)),
            )
            result = conditional_stats_k(chain, ChainQuery(2, (-1.5,)))
            v = first.eigenvectors[:, 0]
            mean = np.vdot(v, second.matrix @ v).real
            variance = np.vdot(v, second.matrix @ second.matrix @ v).real - mean**2
            assert abs(result.mean - mean) < 1e-12
            assert abs(result.extracted_variance - variance) < 1e-12

    def test_random_far_records_match_dense_reference(self, rng):
        # 40% of the fixed outcomes lie 12-40 widths past an eigenvalue of their stage
        answered = 0
        for _ in range(100):
            dim, n = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            mats = [random_observable(rng, dim).matrix for _ in range(n)]
            sigmas = np.exp(rng.uniform(np.log(0.1), np.log(2.0), n)).tolist()
            rho = random_density(rng, dim)
            free = int(rng.integers(n))
            fixed = []
            for j in range(n):
                if j != free:
                    level = rng.choice(np.linalg.eigvalsh(mats[j]))
                    far = rng.random() < 0.4
                    offset = rng.choice([-1.0, 1.0]) * rng.uniform(12.0, 40.0) if far else rng.standard_normal()
                    fixed.append(float(level + offset * sigmas[j]))
            chain = MeasurementChain(
                tuple(MeasurementStage(Observable.from_matrix(a), Pointer(s)) for a, s in zip(mats, sigmas)), rho
            )
            mean, variance = dense_kraus_reference(mats, sigmas, rho.matrix, free, fixed)
            try:
                result = conditional_stats_k(chain, ChainQuery(free + 1, tuple(fixed)))
            except VarianceInconsistency:
                # the weak-value regime: the reference's extracted variance is negative too
                assert variance - sigmas[free] ** 2 < -1e-9 + 1e-12 * max(1.0, abs(variance))
                continue
            assert abs(result.mean - mean) / max(1.0, abs(mean)) < 1e-12
            assert abs(result.variance - variance) / max(1.0, abs(variance)) < 1e-12
            answered += 1
        assert answered >= 90


class TestNearDegenerateSpectra:
    """Eigenvalues closer than any tolerance stay apart: each keeps its own Kraus weight."""

    @pytest.mark.parametrize("gap", [5e-10, 1e-12])
    def test_matches_dense_reference(self, rng, gap):
        # three qutrit stages U diag(0, gap, 1) U^dagger at sigma = 0.05, the middle outcome free
        sigmas = [0.05] * 3
        for _ in range(20):
            mats = []
            for _ in range(3):
                q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
                mats.append((q * [0.0, gap, 1.0]) @ q.conj().T)
            rho = random_density(rng, 3)
            fixed = [float(rng.choice([0.0, gap, 1.0]) + 0.05 * rng.standard_normal()) for _ in range(2)]
            chain = MeasurementChain(
                tuple(MeasurementStage(Observable.from_matrix(a), Pointer(s)) for a, s in zip(mats, sigmas)), rho
            )
            result = conditional_stats_k(chain, ChainQuery(2, tuple(fixed)))
            mean, variance = dense_kraus_reference(mats, sigmas, rho.matrix, 1, fixed)
            assert abs(result.mean - mean) < 1e-12
            assert abs(result.variance - variance) < 1e-12


class TestValidation:
    def test_dimension_mismatch(self, plus):
        with pytest.raises(DimensionMismatch):
            MeasurementChain(
                (MeasurementStage(Observable.from_matrix(np.diag([0.0, 1.0, 2.0])), Pointer(1.0)),),
                plus,
            )

    def test_query_shape_checked(self, two_stage):
        with pytest.raises(ValueError):
            conditional_stats_k(two_stage, ChainQuery(3, (0.1,)))
        with pytest.raises(ValueError):
            conditional_stats_k(two_stage, ChainQuery(1, (0.1, 0.2)))


BATCH_SIZES = (1, 2, 17, 4000)


def dense_kraus(matrix, sigma, xs):
    # (B, d, d) stack of K(x) = sum_a psi(x - a) P_a, from the matrix's own eigh
    lam, v = np.linalg.eigh(matrix)
    amp = (2.0 * np.pi * sigma[:, None] ** 2) ** -0.25 * np.exp(-((xs[:, None] - lam) ** 2) / (4.0 * sigma[:, None] ** 2))
    return (v * amp[:, None, :]) @ v.conj().T


@pytest.fixture(scope="module", params=(2, 3, 4))
def folded_rows(request):
    """A 3-stage chain of dimension d: both folds over 4000 records, in one batch and one row at a time.

    The state folds stages 1-2 and the effect stages 3-2, so both end in
    stage 2's eigenbasis, each after one change of basis between stages.
    Each fold's entry holds the fold itself, its (matrices, log scales)
    over the full batch and over the rows computed alone, and the dense
    ``V^H M V`` reference.
    """
    d = request.param
    rng = np.random.default_rng(2600 + d)
    observables = tuple(random_observable(rng, d) for _ in range(3))
    rho0 = random_density(rng, d)
    rotations = Rotations.of(rho0, observables)
    outcomes = rng.uniform(-1.0, 1.0, size=(BATCH_SIZES[-1], 2))
    sigmas = rng.uniform(0.5, 2.0, size=(BATCH_SIZES[-1], 3))
    folds = {
        "state": lambda o, s: chain_state_rows(rotations, o, s),
        "effect": lambda o, s: effect_chain_rows(rotations, o, s),
    }

    def kraus(stage, column):
        return dense_kraus(observables[stage].matrix, sigmas[:, stage], outcomes[:, column])

    def dagger(m):
        return m.conj().swapaxes(-1, -2)

    k1, k2 = kraus(0, 0), kraus(1, 1)
    dense = {"state": k2 @ k1 @ rho0.matrix @ dagger(k1) @ dagger(k2)}
    # the effect's outcome columns are those of stages 2 and 3
    k2, k3 = kraus(1, 0), kraus(2, 1)
    dense["effect"] = dagger(k2) @ dagger(k3) @ k3 @ k2
    v = observables[1].eigenvectors
    rows = {}
    for name, fold_rows in folds.items():
        alone = [fold_rows(outcomes[i : i + 1], sigmas[i : i + 1]) for i in range(len(outcomes))]
        rows[name] = (
            fold_rows,
            fold_rows(outcomes, sigmas),
            tuple(np.concatenate(parts) for parts in zip(*alone)),
            v.conj().T @ dense[name] @ v,
        )
    return outcomes, sigmas, rows


class TestBatchIndependence:
    """A row of the batched folds has the same bits in every batch, and the dense value."""

    @pytest.mark.parametrize("fold", ("state", "effect"))
    @pytest.mark.parametrize("size", BATCH_SIZES)
    def test_rows_equal_alone_and_in_the_full_batch(self, folded_rows, fold, size):
        outcomes, sigmas, rows = folded_rows
        fold_rows, full, alone, _ = rows[fold]
        batch = fold_rows(outcomes[:size], sigmas[:size])
        assert batch[0].shape == (size,) + full[0].shape[1:]
        # matrices, then log scales
        for got, in_full, each_alone in zip(batch, full, alone):
            assert np.array_equal(got, in_full[:size])
            assert np.array_equal(got, each_alone[:size])

    @pytest.mark.parametrize("fold", ("state", "effect"))
    def test_rows_match_dense_reference(self, folded_rows, fold):
        _, _, rows = folded_rows
        _, (matrices, log_scale), _, dense = rows[fold]
        # the engine keeps O(1) matrices and carries the dropped factor in the log scale
        assert np.max(np.abs(matrices - dense * np.exp(-log_scale)[:, None, None])) < 1e-14

