import numpy as np
import pytest

from seqmeas import (
    DegenerateDirection,
    DensityMatrix,
    MeasurementStage,
    NotOrthogonal,
    Observable,
    Pointer,
    PureState,
    ZeroLikelihood,
    backward_stats,
    bound_Ra,
    bound_Rb,
    conditional_mpur_sum,
    forward_stats,
    mpur_check,
    orthogonal_state,
)
from seqmeas import NotHermitian, SeqMeasError, spin
from seqmeas.mpur import ZERO_VARIANCE_TOL, _pure_variance, commutator_sign
from seqmeas.validate import random_observable, random_pure


class TestOrthogonalState:
    def test_spin_construction(self):
        perp = orthogonal_state(spin.plus_pure(), spin.s_z())
        assert abs(abs(np.vdot(perp.amplitudes, spin.KET_MINUS)) - 1.0) < 1e-12

    def test_eigenstate_rejected(self):
        with pytest.raises(DegenerateDirection):
            orthogonal_state(PureState(spin.KET_UP), spin.s_z())

    def test_random_qutrit_orthogonality(self, rng):
        obs = Observable.from_matrix(np.diag([0.0, 1.0, 2.0]))
        for _ in range(25):
            psi = random_pure(rng, 3)
            perp = orthogonal_state(psi, obs)
            assert abs(psi.overlap_with(perp)) < 1e-10
            assert abs(np.linalg.norm(perp.amplitudes) - 1.0) < 1e-12


class TestBoundRa:
    def test_spin_value(self):
        got = bound_Ra(spin.plus_pure(), spin.s_z(), spin.s_x(), PureState(spin.KET_MINUS))
        assert abs(got - 0.25) < 1e-14

    def test_equal_observables_drop_commutator(self, rng):
        psi = random_pure(rng, 2)
        a = random_observable(rng, 2)
        try:
            perp = orthogonal_state(psi, a)
        except DegenerateDirection:
            pytest.skip("drew an eigenstate")
        got = bound_Ra(psi, a, a, perp, sign=1)
        v, w = psi.amplitudes, perp.amplitudes
        expected = abs(np.vdot(v, (a.matrix + 1j * a.matrix) @ w)) ** 2
        assert abs(got - expected) < 1e-12

    def test_bound_holds_random(self, rng):
        for _ in range(300):
            psi = random_pure(rng, 2)
            a, b = random_observable(rng, 2), random_observable(rng, 2)
            try:
                perp = orthogonal_state(psi, a)
            except DegenerateDirection:
                continue
            lhs = _pure_variance(psi, a) + _pure_variance(psi, b)
            assert lhs >= bound_Ra(psi, a, b, perp) - 1e-10

    def test_sign_auto_selection(self, rng):
        for _ in range(50):
            psi = random_pure(rng, 3)
            a, b = random_observable(rng, 3), random_observable(rng, 3)
            sign = commutator_sign(psi, a, b)
            comm = psi.amplitudes.conj() @ (a.matrix @ b.matrix - b.matrix @ a.matrix) @ psi.amplitudes
            assert (sign * 1j * comm).real >= -1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            bound_Ra(spin.plus_pure(), spin.s_z(), spin.s_x(), spin.plus_pure())


class TestBoundRb:
    def test_spin_value(self):
        assert abs(bound_Rb(spin.plus_pure(), spin.s_z(), spin.s_x()) - 0.125) < 1e-14

    def test_eigenstate_of_sum_gives_zero(self):
        total = spin.s_z().matrix + spin.s_x().matrix
        values, vectors = np.linalg.eigh(total)
        psi = PureState(vectors[:, 0])
        assert bound_Rb(psi, spin.s_z(), spin.s_x()) == 0.0

    def test_equals_half_variance_of_sum(self, rng):
        for _ in range(100):
            psi = random_pure(rng, 3)
            a, b = random_observable(rng, 3), random_observable(rng, 3)
            total = Observable.from_matrix(a.matrix + b.matrix)
            assert abs(bound_Rb(psi, a, b) - 0.5 * _pure_variance(psi, total)) < 1e-10

    def test_equals_spectral_construction(self, rng):
        # the value is bit for bit the one built through Observable(A + B)
        def spectral_rb(psi, a, b):
            total = Observable.from_matrix(a.matrix + b.matrix)
            if _pure_variance(psi, total) <= ZERO_VARIANCE_TOL:
                return 0.0
            perp = orthogonal_state(psi, total)
            return float(0.5 * abs(np.vdot(perp.amplitudes, total.matrix @ psi.amplitudes)) ** 2)

        zeros = 0
        for t in range(300):
            dim = 2 + t % 3
            a, b = random_observable(rng, dim), random_observable(rng, dim)
            if t % 10 == 0:
                # an eigenstate of the sum takes the zero branch
                psi = PureState(np.linalg.eigh(a.matrix + b.matrix)[1][:, t % dim])
            else:
                psi = random_pure(rng, dim)
            got = bound_Rb(psi, a, b)
            assert got == spectral_rb(psi, a, b), (t, dim)
            zeros += got == 0.0
        assert zeros == 30

    def test_sum_outside_hermiticity_tolerance(self):
        # each operand is Hermitian within 1e-12, their sum is not (defect 1.8e-12)
        a = Observable.from_matrix(np.array([[0.5, 0.3], [0.3 + 0.9e-12, -0.5]]))
        b = Observable.from_matrix(np.array([[0.1, 0.2j], [-0.2j + 0.9e-12, 0.2]]))
        with pytest.raises(NotHermitian):
            Observable.from_matrix(a.matrix + b.matrix)
        psi = spin.plus_pure()
        report = mpur_check(psi, a, b)
        total = a.matrix + b.matrix
        mean = np.vdot(psi.amplitudes, total @ psi.amplitudes).real
        variance = np.vdot(psi.amplitudes, total @ total @ psi.amplitudes).real - mean * mean
        assert abs(report.r_b - 0.5 * variance) < 1e-12
        assert report.satisfied


class TestMpurCheck:
    def test_spin_baseline_saturates(self):
        report = mpur_check(spin.plus_pure(), spin.s_z(), spin.s_x())
        assert abs(report.lhs_sum - 0.25) < 1e-12
        assert abs(report.r_a - 0.25) < 1e-12
        assert abs(report.r_b - 0.125) < 1e-12
        assert abs(report.bound - 0.25) < 1e-12
        assert report.satisfied

    def test_random_states_never_violate(self, rng):
        for _ in range(500):
            dim = int(rng.integers(2, 4))
            report = mpur_check(
                random_pure(rng, dim), random_observable(rng, dim), random_observable(rng, dim)
            )
            assert report.satisfied
            assert report.bound == max(report.r_a, report.r_b)

    def test_double_eigenstate_degenerates_to_zero(self):
        report = mpur_check(PureState(spin.KET_UP), spin.s_z(), spin.s_z())
        assert report.lhs_sum < 1e-14
        assert report.bound < 1e-14
        assert report.satisfied


class TestConditionalMpurSum:
    def test_below_classical_bound(self, plus):
        result = conditional_mpur_sum(
            plus,
            MeasurementStage(spin.s_z(), Pointer(1e3)),
            MeasurementStage(spin.s_x(), Pointer(0.1)),
            x1=0.0,
            x2=2.0,
        )
        assert abs(result.classical_bound - 0.25) < 1e-12
        assert abs(result.sum - 0.125) < 1e-4
        assert result.below

    def test_strong_first_stage_not_below(self, plus):
        result = conditional_mpur_sum(
            plus,
            MeasurementStage(spin.s_z(), Pointer(0.01)),
            MeasurementStage(spin.s_x(), Pointer(0.5)),
            x1=0.5,
            x2=0.3,
        )
        assert result.sum >= 0.25 - 1e-6
        assert not result.below

    def test_double_weak_recovers_unconditioned(self, plus):
        result = conditional_mpur_sum(
            plus,
            MeasurementStage(spin.s_z(), Pointer(1e3)),
            MeasurementStage(spin.s_x(), Pointer(1e3)),
            x1=0.2,
            x2=0.2,
        )
        assert abs(result.sum - 0.25) < 1e-3

    def test_mixed_state_rejected(self):
        mixed = spin.rho1_closed(0.5)
        with pytest.raises(ValueError):
            conditional_mpur_sum(
                mixed,
                MeasurementStage(spin.s_z(), Pointer(0.5)),
                MeasurementStage(spin.s_x(), Pointer(0.5)),
                0.1,
                0.1,
            )

    def test_grid_infimum_near_bound(self, plus):
        total_min = np.inf
        for x1 in (0.0, 0.3):
            for x2 in (0.5, 1.0, 2.0):
                for sigma2 in (0.1, 0.3):
                    result = conditional_mpur_sum(
                        plus,
                        MeasurementStage(spin.s_z(), Pointer(1e3)),
                        MeasurementStage(spin.s_x(), Pointer(sigma2)),
                        x1,
                        x2,
                    )
                    total_min = min(total_min, result.sum)
                    assert result.sum >= 0.125 - 1e-6
        assert total_min <= 0.125 + 1e-3


class TestConditionalMpurSumRanges:
    """Over the benchmark's ranges the sum is finite and matches the closed forms."""

    def test_finite_and_matches_closed_forms(self, plus):
        rng = np.random.default_rng(20260)
        bands = ((0.25, 0.35), (0.8, 1.2), (30.0, 300.0))
        for t in range(240):
            lo, hi = bands[t % 3]
            sigma1 = float(rng.uniform(lo, hi))
            sigma2 = float(rng.uniform(0.1, 1.2))
            x1 = float(rng.uniform(0.0, 0.55))
            x2 = float(rng.uniform(-0.6, 2.1))
            result = conditional_mpur_sum(
                plus,
                MeasurementStage(spin.s_z(), Pointer(sigma1)),
                MeasurementStage(spin.s_x(), Pointer(sigma2)),
                x1,
                x2,
            )
            case = (sigma1, sigma2, x1, x2)
            assert np.isfinite(result.sum), case
            ref = spin.var_sx_given_sz_closed(sigma1, x1) + spin.var_sz_given_sx_closed(sigma1, sigma2, x2)
            assert abs(result.sum - ref) / max(1.0, abs(ref)) < 1e-9, case
            assert abs(result.classical_bound - 0.25) < 1e-12, case
            assert result.below == (result.sum < result.classical_bound), case

    def test_bound_is_the_mpur_check_bound(self, rng):
        # the probe's bound and the full report come from one computation,
        # on the state vector the probe takes from the density matrix
        for _ in range(40):
            dim = int(rng.integers(2, 4))
            rho = random_pure(rng, dim).density()
            psi = PureState(np.linalg.eigh(rho.matrix)[1][:, -1])
            a, b = random_observable(rng, dim), random_observable(rng, dim)
            result = conditional_mpur_sum(
                rho,
                MeasurementStage(a, Pointer(float(rng.uniform(0.5, 1.5)))),
                MeasurementStage(b, Pointer(float(rng.uniform(0.5, 1.5)))),
                float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(-0.5, 0.5)),
            )
            assert result.classical_bound == mpur_check(psi, a, b).bound


def two_call_reference(rho0, stage1, stage2, x1, x2):
    """``conditional_mpur_sum`` as separate forward and backward calls plus :func:`mpur_check`'s bound."""
    values, vectors = np.linalg.eigh(rho0.matrix)
    if values[-1] < 1.0 - 1e-8:
        raise ValueError("initial state must be pure for the reference bound")
    forward = forward_stats(rho0, stage1, stage2, x1).extracted_system_variance
    backward = backward_stats(rho0, stage1, stage2, x2).extracted_system_variance
    bound = mpur_check(PureState(vectors[:, -1]), stage1.observable, stage2.observable).bound
    total = float(forward + backward)
    return total, bound, total < bound


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (SeqMeasError, ValueError) as exc:
        return type(exc), str(exc)


class TestConditionalMpurSumOneMomentPass:
    """Both directions share one moment pass; results and errors are those of two separate calls."""

    def test_forward_error_wins_over_backward(self, up):
        # forward's normalization underflows at x1 = -30 and backward's outcome
        # is not finite: the forward check runs first
        with pytest.raises(ZeroLikelihood, match=r"^density normalization 0\.0 too small$"):
            conditional_mpur_sum(
                up,
                MeasurementStage(spin.s_z(), Pointer(0.05)),
                MeasurementStage(spin.s_x(), Pointer(0.5)),
                -30.0,
                float("nan"),
            )

    def test_backward_numerator_error(self, plus):
        with pytest.raises(ValueError, match=r"^fixed outcomes must be finite$"):
            conditional_mpur_sum(
                plus,
                MeasurementStage(spin.s_z(), Pointer(0.5)),
                MeasurementStage(spin.s_x(), Pointer(0.5)),
                0.2,
                float("inf"),
            )

    def test_mixed_state_error_comes_first(self):
        with pytest.raises(ValueError, match=r"^initial state must be pure for the reference bound$"):
            conditional_mpur_sum(
                DensityMatrix(np.eye(2) / 2),
                MeasurementStage(spin.s_z(), Pointer(0.5)),
                MeasurementStage(spin.s_x(), Pointer(0.5)),
                float("nan"),
                float("nan"),
            )

    def test_bit_equal_to_two_calls(self):
        rng = np.random.default_rng(7021)
        backward_only_failures = 0
        for _ in range(240):
            dim = int(rng.integers(2, 5))
            rho = random_pure(rng, dim).density()
            stage1 = MeasurementStage(random_observable(rng, dim), Pointer(float(10 ** rng.uniform(-2, 0.5))))
            stage2 = MeasurementStage(random_observable(rng, dim), Pointer(float(10 ** rng.uniform(-2, 0.5))))
            x1, x2 = float(2.0 * rng.normal()), float(3.0 * rng.normal())
            case = (dim, stage1.sigma, stage2.sigma, x1, x2)
            got = outcome(conditional_mpur_sum, rho, stage1, stage2, x1, x2)
            assert got == outcome(two_call_reference, rho, stage1, stage2, x1, x2), case
            forward_ok = outcome(forward_stats, rho, stage1, stage2, x1)[0] == "ok"
            backward_only_failures += forward_ok and got[0] != "ok"
        # the corpus reaches the deferred backward error path
        assert backward_only_failures > 0
