"""Acceptance suite: one reported line per criterion, stated tolerances only.

Each criterion accumulates failure strings and reports a single
``[acceptance] ... PASS/FAIL`` line; run with ``pytest -s`` (or read the
captured output) to see the report. Timing assertions measure only the
computation under test.
"""

import time

import numpy as np
import pytest

from seqmeas import (
    ChainQuery,
    MeasurementChain,
    MeasurementStage,
    Pointer,
    SamplerConfig,
    backaction_variance,
    backward_stats,
    completeness_defect,
    conditional_mpur_sum,
    conditional_stats_k,
    forward_stats,
    mc_conditional_variance,
    mpur_check,
    pointer1_variance,
    pointer2_variance,
    post_first_state,
    sample_chain,
)
from seqmeas import spin
from seqmeas.chain import conditional_density_k
from seqmeas.oracle import quad_pair_sum_stats
from seqmeas.validate import SUITES, random_density, random_observable, random_pure

RHO0 = spin.plus_state()
SZ = spin.s_z()
SX = spin.s_x()


def _z_stage(sigma):
    return MeasurementStage(SZ, Pointer(sigma))


def _x_stage(sigma):
    return MeasurementStage(SX, Pointer(sigma))


def _report(label: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " -- " + "; ".join(failures)
    print(f"[acceptance] {label}: {status}{detail}")
    assert not failures, f"{label}: {failures}"


def test_criterion_01_backaction_curve():
    failures = []
    start = time.perf_counter()
    grid = np.geomspace(0.01, 100.0, 50)
    worst = 0.0
    for sigma1 in grid:
        engine = backaction_variance(RHO0, _z_stage(sigma1), SX)
        formula = 0.25 * (1.0 - np.exp(-1.0 / (4.0 * sigma1 * sigma1)))
        worst = max(worst, abs(engine - formula))
    elapsed = time.perf_counter() - start
    if worst >= 1e-10:
        failures.append(f"curve deviation {worst:.3e} >= 1e-10")
    strong = backaction_variance(RHO0, _z_stage(0.01), SX)
    if abs(strong - 0.25) >= 1e-6:
        failures.append(f"strong endpoint {strong!r} not within 1e-6 of 0.25")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("criterion 1 (backaction curve, strong endpoint, runtime)", failures)


def test_criterion_01_weak_endpoint_as_stated():
    # Backaction must vanish at the weak end. The exact curve is
    # V(sigma1) = (1 - exp(-1/(4 sigma1^2)))/4 = -expm1(-1/(4 sigma1^2))/4,
    # so V(100) = -expm1(-2.5e-5)/4 = 6.2499219e-06: no correct engine is
    # within 1e-6 of zero at sigma1 = 100. V falls below 1e-6 only for
    # sigma1 > 1/(2 sqrt(-log1p(-4e-6))) = 249.9998. Two checks instead:
    # at sigma1 = 100 the engine must match the exact value within 1e-12
    # (a zero or a residual floor above 1e-12 fails), and at sigma1 = 1e3,
    # the weak width of criteria 3, 7 and 9, it must be within the stated
    # 1e-6 of zero (exact value 6.25e-08).
    failures = []
    sigma1 = 100.0
    weak = backaction_variance(RHO0, _z_stage(sigma1), SX)
    exact = float(-0.25 * np.expm1(-1.0 / (4.0 * sigma1 * sigma1)))
    if abs(weak - exact) >= 1e-12:
        failures.append(f"sigma1=100: {weak!r} not within 1e-12 of exact {exact!r}")
    weaker = backaction_variance(RHO0, _z_stage(1e3), SX)
    if abs(weaker - 0.0) >= 1e-6:
        failures.append(f"sigma1=1e3: {weaker:.6e} not within 1e-6 of 0")
    _report("criterion 1 (weak endpoint: exact at sigma1=100, within 1e-6 of 0 at 1e3)", failures)


def test_criterion_02_forward_conditional_variance():
    failures = []
    start = time.perf_counter()
    sigmas = np.geomspace(0.1, 1.5, 20)
    x1s = np.linspace(-1.5, 1.5, 20)
    worst = 0.0
    worst_even = 0.0
    for sigma1 in sigmas:
        s1, s2 = _z_stage(sigma1), _x_stage(0.5)
        for x1 in x1s:
            engine = forward_stats(RHO0, s1, s2, x1).extracted_system_variance
            formula = 0.25 * np.tanh(x1 / (2.0 * sigma1 * sigma1)) ** 2
            worst = max(worst, abs(engine - formula))
            mirrored = forward_stats(RHO0, s1, s2, -x1).extracted_system_variance
            worst_even = max(worst_even, abs(engine - mirrored))
    elapsed = time.perf_counter() - start
    spot = forward_stats(RHO0, _z_stage(0.5), _x_stage(0.5), 0.5).extracted_system_variance
    if worst >= 1e-10:
        failures.append(f"grid deviation {worst:.3e} >= 1e-10")
    if worst_even >= 1e-12:
        failures.append(f"evenness deviation {worst_even:.3e}")
    # 0.25*tanh(1)^2 = 0.14500641459649348 (30-digit evaluation)
    if abs(spot - 0.1450066) >= 1e-6:
        failures.append(f"spot value {spot!r}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("criterion 2 (forward conditional variance)", failures)


def test_criterion_03_backward_conditional_variance():
    failures = []
    start = time.perf_counter()
    worst = 0.0
    for sigma1 in (0.3, 0.6, 1.2):
        for sigma2 in np.geomspace(0.2, 2.0, 10):
            s1, s2 = _z_stage(sigma1), _x_stage(sigma2)
            for x2 in np.linspace(-1.0, 1.0, 10):
                engine = backward_stats(RHO0, s1, s2, x2).extracted_system_variance
                formula = spin.var_sz_given_sx_closed(sigma1, sigma2, x2)
                worst = max(worst, abs(engine - formula))
    if worst >= 1e-9:
        failures.append(f"grid deviation {worst:.3e} >= 1e-9")

    # weak first stage: 1/8 (1 + exp(-x2/sigma2^2)) inside its validity
    # window (exponent well below the sigma1 dephasing scale)
    worst_weak = 0.0
    s1_weak = _z_stage(1e3)
    for sigma2, x2s in ((0.1, np.linspace(0.0, 1.0, 6)), (0.5, np.linspace(-1.0, 1.0, 9))):
        s2 = _x_stage(sigma2)
        for x2 in x2s:
            engine = backward_stats(RHO0, s1_weak, s2, x2).extracted_system_variance
            approx = spin.var_sz_given_sx_weak1_closed(sigma2, x2)
            worst_weak = max(worst_weak, abs(engine - approx))
    if worst_weak >= 1e-4:
        failures.append(f"weak-limit deviation {worst_weak:.3e} >= 1e-4")

    for sigma1 in (0.4, 1.0):
        at_zero = backward_stats(RHO0, _z_stage(sigma1), _x_stage(0.5), 0.0).extracted_system_variance
        if abs(at_zero - 0.25) >= 1e-6:
            failures.append(f"x2=0 value {at_zero!r} at sigma1={sigma1}")

    # formula value at (0.5, 0.5, 0.5) is 0.171006795673584122 (30-digit)
    spot = backward_stats(RHO0, _z_stage(0.5), _x_stage(0.5), 0.5).extracted_system_variance
    if abs(spot - 0.171006795673584122) >= 1e-9:
        failures.append(f"spot value {spot!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report("criterion 3 (backward conditional variance)", failures)


def _variance_and_se(x: np.ndarray) -> tuple[float, float]:
    # asymptotic standard error of the sample variance
    centered = x - x.mean()
    squared = centered * centered
    m2 = float(squared.mean())
    m4 = float((squared * squared).mean())
    return m2, float(np.sqrt((m4 - m2 * m2) / x.size))


def _criterion_04_body(master_seed: int, n_draws: int, mc_samples: int):
    rng = np.random.default_rng(master_seed)
    failures = []
    for draw in range(n_draws):
        dim = 2 + draw % 2
        rho = random_density(rng, dim)
        a = random_observable(rng, dim)
        b = random_observable(rng, dim)
        s1 = MeasurementStage(a, Pointer(float(rng.uniform(0.3, 1.5))))
        s2 = MeasurementStage(b, Pointer(float(rng.uniform(0.3, 1.5))))

        law1 = pointer1_variance(rho, s1)
        law2 = pointer2_variance(rho, s1, s2)
        marginal1, _ = conditional_density_k(MeasurementChain((s1,), rho), ChainQuery(1, ()))
        rho1 = post_first_state(rho, s1)
        marginal2, _ = conditional_density_k(MeasurementChain((s2,), rho1), ChainQuery(1, ()))
        for label, law, marginal in (("x1", law1, marginal1), ("x2", law2, marginal2)):
            m0 = marginal.moment(0)
            mean = marginal.moment(1) / m0
            analytic = marginal.moment(2) / m0 - mean * mean
            if abs(law - analytic) >= 1e-10:
                failures.append(f"draw {draw} {label}: law vs moments {abs(law - analytic):.2e}")
            _, _, quad_var = quad_pair_sum_stats(marginal)
            if abs(law - quad_var) >= 1e-8:
                failures.append(f"draw {draw} {label}: law vs quadrature {abs(law - quad_var):.2e}")

        chain = MeasurementChain((s1, s2), rho)
        samples = sample_chain(chain, SamplerConfig(samples=mc_samples, seed=int(rng.integers(2**63))))
        for column, law in ((0, law1), (1, law2)):
            mc_var, se = _variance_and_se(samples[:, column])
            if abs(mc_var - law) >= 3.0 * se:
                failures.append(
                    f"draw {draw} x{column + 1}: MC z = {abs(mc_var - law) / se:.2f}"
                )
    return failures


def test_criterion_04_pointer_variance_laws():
    start = time.perf_counter()
    failures = _criterion_04_body(master_seed=20240817, n_draws=100, mc_samples=1_000_000)
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report("criterion 4 (pointer variance laws, 100 draws)", failures)


def test_criterion_05_completeness():
    failures = []
    rng = np.random.default_rng(5)
    qutrit = random_observable(rng, 3)
    for sigma in (0.1, 0.5, 2.0, 10.0):
        for name, obs in (("spin", SZ), ("qutrit", qutrit)):
            defect = completeness_defect(MeasurementStage(obs, Pointer(sigma)))
            if defect >= 1e-8:
                failures.append(f"{name} sigma={sigma}: defect {defect:.3e}")
    _report("criterion 5 (completeness defect)", failures)


def test_criterion_06_mpur():
    failures = []
    report = mpur_check(spin.plus_pure(), SZ, SX)
    if abs(report.lhs_sum - 0.25) >= 1e-12 or abs(report.bound - 0.25) >= 1e-12:
        failures.append(f"baseline lhs={report.lhs_sum!r} bound={report.bound!r}")
    if abs(report.r_a - 0.25) >= 1e-12 or abs(report.r_b - 0.125) >= 1e-12:
        failures.append(f"constants r_a={report.r_a!r} r_b={report.r_b!r}")
    rng = np.random.default_rng(6)
    worst_margin = np.inf
    for _ in range(10_000):
        dim = int(rng.integers(2, 4))
        psi = random_pure(rng, dim)
        check = mpur_check(psi, random_observable(rng, dim), random_observable(rng, dim))
        worst_margin = min(worst_margin, check.lhs_sum - check.bound)
    if worst_margin < -1e-10:
        failures.append(f"random-state margin {worst_margin:.3e} < -1e-10")
    _report("criterion 6 (variance-sum bound)", failures)


def test_criterion_07_conditional_mpur_grid():
    failures = []
    start = time.perf_counter()
    best = np.inf
    for sigma1 in (0.3, 1.0, 1e3):
        for sigma2 in (0.1, 0.3, 1.0):
            s1, s2 = _z_stage(sigma1), _x_stage(sigma2)
            for x1 in (0.0, 0.25, 0.5):
                for x2 in (0.0, 0.5, 1.0, 2.0, -0.5):
                    value = conditional_mpur_sum(RHO0, s1, s2, x1, x2).sum
                    best = min(best, value)
                    if value < 0.125 - 1e-6:
                        failures.append(f"sum {value!r} below bound at {(sigma1, sigma2, x1, x2)}")
    elapsed = time.perf_counter() - start
    if best > 0.1251:
        failures.append(f"grid minimum {best!r} > 0.1251")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report("criterion 7 (conditional variance-sum minimum)", failures)


def test_criterion_08_chain_consistency():
    failures = []
    worst_fwd = 0.0
    worst_bwd = 0.0
    for sigma in (0.4, 0.7):
        chain = MeasurementChain((_z_stage(sigma), _x_stage(0.5)), RHO0)
        for x in np.linspace(-1.0, 1.0, 9):
            fwd = conditional_stats_k(chain, ChainQuery(2, (x,))).extracted_variance
            worst_fwd = max(worst_fwd, abs(fwd - spin.var_sx_given_sz_closed(sigma, x)))
            bwd = conditional_stats_k(chain, ChainQuery(1, (x,))).extracted_variance
            worst_bwd = max(worst_bwd, abs(bwd - spin.var_sz_given_sx_closed(sigma, 0.5, x)))
    if worst_fwd >= 1e-12:
        failures.append(f"N=2 forward reduction {worst_fwd:.3e} >= 1e-12")
    if worst_bwd >= 1e-12:
        failures.append(f"N=2 backward reduction {worst_bwd:.3e} >= 1e-12")

    stages = (_z_stage(0.5), _x_stage(0.5), _x_stage(0.5), _z_stage(0.5))
    chain4 = MeasurementChain(stages, RHO0)
    query = ChainQuery(2, (0.3, 0.1, -0.4))
    result = conditional_stats_k(chain4, query)
    _, _, quad_var = quad_pair_sum_stats(result.density)
    if abs(quad_var - result.variance) >= 1e-8:
        failures.append(f"quadrature {quad_var!r} vs analytic {result.variance!r}")
    mc_var, se = mc_conditional_variance(chain4, query, SamplerConfig(samples=1_000_000, seed=20240818))
    if abs(mc_var - result.variance) >= 3.0 * se:
        failures.append(f"MC z = {abs(mc_var - result.variance) / se:.2f}")
    _report("criterion 8 (N-chain consistency)", failures)


def test_criterion_09_weak_limit_elimination():
    failures = []
    fwd = forward_stats(RHO0, _z_stage(1e3), _x_stage(1e3), 0.5).extracted_system_variance
    bwd = backward_stats(RHO0, _z_stage(1e3), _x_stage(1e3), 0.5).extracted_system_variance
    if fwd >= 1e-4:
        failures.append(f"forward extracted {fwd:.3e} >= 1e-4")
    if abs(bwd - 0.25) >= 1e-3:
        failures.append(f"backward extracted {bwd!r} not within 1e-3 of 0.25")
    _report("criterion 9 (weak-limit elimination)", failures)


def test_criterion_10_validate_suites():
    failures = []
    start = time.perf_counter()
    for name in sorted(SUITES):
        for check in SUITES[name](seed=0, trials=1000):
            if not check.passed:
                failures.append(f"{check.name}: {check.detail}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report("criterion 10 (module invariant suites)", failures)
