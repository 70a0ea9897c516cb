"""Randomized invariant suites backing the ``validate`` CLI command.

Each suite stresses one module's contracts with seeded random inputs and
returns one result per check. Helpers for random states and observables
live here too so tests can reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import conditional, joint, mpur, spin
from .core import DensityMatrix, Observable, PureState, variance_of
from .kraus import MeasurementStage, completeness_defect, effect_at, kraus_at
from .oracle import QuadratureConfig, quad_moment, quad_pair_sum_stats
from .pointer import Pointer, amplitude, overlap, pair_moment


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim), scale=scale) + 1j * rng.normal(size=(dim, dim), scale=scale)
    return (m + m.conj().T) / 2.0


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    return Observable.from_matrix(random_hermitian(rng, dim))


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _suite_pointer(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    cfg = QuadratureConfig()
    worst_rel = 0.0
    for _ in range(trials):
        p = Pointer(float(rng.uniform(0.05, 3.0)))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        n = int(rng.integers(0, 3))
        analytic = pair_moment(p, a, b, n)
        pad = cfg.domain_pad * p.sigma
        numeric = quad_moment(
            lambda x: amplitude(p, x, a) * amplitude(p, x, b),
            (min(a, b) - pad, max(a, b) + pad),
            n,
            cfg,
            points=[a, b],
        )
        # relative where the moment is O(1), absolute once it sinks into
        # the quadrature error floor
        worst_rel = max(worst_rel, abs(analytic - numeric) / max(abs(numeric), 1.0))
    checks = [
        _check(
            "pointer.pair_moment_vs_quadrature",
            worst_rel < 1e-8,
            f"trials={trials} max_rel_err={worst_rel:.3e}",
        )
    ]
    worst = 0.0
    for _ in range(trials):
        p = Pointer(float(rng.uniform(0.05, 3.0)))
        a, b = rng.uniform(-2.0, 2.0, size=2)
        worst = max(worst, abs(pair_moment(p, a, b, 0) - overlap(p, a, b)))
        worst = max(worst, abs(overlap(p, a, b) - overlap(p, b, a)))
    checks.append(_check("pointer.overlap_identities", worst == 0.0, f"max_dev={worst:.1e}"))
    sigmas = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=trials))
    mono = all(
        overlap(Pointer(s), 0.0, d1) >= overlap(Pointer(s), 0.0, d2)
        for s, d1, d2 in zip(sigmas, rng.uniform(0, 1, trials), rng.uniform(1, 3, trials))
    )
    weak = abs(overlap(Pointer(1e6), 0.3, -0.7) - 1.0) < 1e-9
    checks.append(_check("pointer.overlap_monotone_weak_limit", mono and weak, f"trials={trials}"))
    return checks


def _suite_kraus(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for sigma in (0.1, 0.5, 2.0, 10.0):
        for obs in (spin.s_z(), random_observable(rng, 3)):
            stage = MeasurementStage(obs, Pointer(sigma))
            worst = max(worst, completeness_defect(stage))
    checks.append(_check("kraus.completeness_defect", worst < 1e-8, f"max_defect={worst:.3e}"))
    worst_comm = 0.0
    worst_norm = -np.inf
    for _ in range(max(trials // 10, 20)):
        obs = random_observable(rng, int(rng.integers(2, 5)))
        stage = MeasurementStage(obs, Pointer(float(rng.uniform(0.1, 2.0))))
        x = float(rng.uniform(-3, 3))
        k = kraus_at(stage, x)
        worst_comm = max(worst_comm, float(np.max(np.abs(k @ obs.matrix - obs.matrix @ k))))
        peak = (2 * np.pi * stage.sigma**2) ** -0.25
        worst_norm = max(worst_norm, float(np.linalg.norm(k, 2)) - peak)
    checks.append(_check("kraus.commutes_with_observable", worst_comm < 1e-10, f"max={worst_comm:.1e}"))
    checks.append(_check("kraus.operator_norm_bounded", worst_norm <= 1e-12, f"slack={worst_norm:.1e}"))
    return checks


def _suite_joint(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_trace, worst_dephase, worst_dual = 0.0, 0.0, 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        stage = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.1, 3.0))))
        rho1 = joint.post_first_state(rho, stage)
        worst_trace = max(worst_trace, abs(rho1.trace - 1.0))
        v = stage.observable.eigenvectors
        before = np.abs(v.conj().T @ rho.matrix @ v)
        after = np.abs(v.conj().T @ rho1.matrix @ v)
        worst_dephase = max(worst_dephase, float(np.max(after - before)))
        other = random_observable(rng, dim)
        worst_dual = max(
            worst_dual,
            abs(joint.backaction_variance(rho, stage, other) - variance_of(other, rho1)),
        )
    checks = [
        _check("joint.trace_preserved", worst_trace < 1e-12, f"max_dev={worst_trace:.1e}"),
        _check("joint.dephasing_bound", worst_dephase < 1e-12, f"max_growth={worst_dephase:.1e}"),
        _check("joint.spectral_vs_generic_variance", worst_dual < 1e-12, f"max_dev={worst_dual:.1e}"),
    ]
    grid = np.geomspace(0.05, 50, 40)
    values = [spin.var_sx_rho1_closed(s) for s in grid]
    checks.append(
        _check(
            "joint.spin_backaction_monotone",
            all(a >= b for a, b in zip(values, values[1:])),
            f"grid={len(grid)}",
        )
    )
    return checks


def _suite_conditional(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_bayes = 0.0
    for _ in range(max(trials // 10, 30)):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
        s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
        x1, x2 = rng.uniform(-1.5, 1.5, size=2)
        p_x1 = conditional.conditional_state(rho, s1, x1).trace
        p_x2 = float(np.trace(joint.post_first_state(rho, s1).matrix @ effect_at(s2, x2)).real)
        fwd = conditional.forward_density(rho, s1, s2, x1)
        bwd = conditional.backward_density(rho, s1, s2, x2)
        lhs = float(fwd.pdf(x2)) * p_x1
        rhs = float(bwd.pdf(x1)) * p_x2
        worst_bayes = max(worst_bayes, abs(lhs - rhs))
    checks = [_check("conditional.bayes_consistency", worst_bayes < 1e-8, f"max_dev={worst_bayes:.1e}")]

    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    evens = []
    for x1 in np.linspace(0.0, 2.0, 9):
        s1 = MeasurementStage(sz, Pointer(0.6))
        s2 = MeasurementStage(sx, Pointer(0.4))
        f_pos = conditional.forward_stats(rho0, s1, s2, x1).extracted_system_variance
        f_neg = conditional.forward_stats(rho0, s1, s2, -x1).extracted_system_variance
        evens.append(abs(f_pos - f_neg))
    checks.append(_check("conditional.forward_even_in_x1", max(evens) < 1e-12, f"max_dev={max(evens):.1e}"))

    at_zero = conditional.backward_stats(
        rho0, MeasurementStage(sz, Pointer(0.7)), MeasurementStage(sx, Pointer(0.4)), 0.0
    ).extracted_system_variance
    checks.append(
        _check("conditional.backward_x2_zero_undisturbed", abs(at_zero - 0.25) < 1e-10, f"value={at_zero:.12f}")
    )

    weak1 = MeasurementStage(sz, Pointer(1e3))
    weak2 = MeasurementStage(sx, Pointer(1e3))
    fwd_weak = conditional.forward_stats(rho0, weak1, weak2, 0.5).extracted_system_variance
    bwd_weak = conditional.backward_stats(rho0, weak1, weak2, 0.5).extracted_system_variance
    checks.append(
        _check(
            "conditional.double_weak_limit",
            fwd_weak < 1e-4 and abs(bwd_weak - 0.25) < 1e-4,
            f"forward={fwd_weak:.2e} backward={bwd_weak:.6f}",
        )
    )

    worst_norm = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        rho = random_density(rng, dim)
        s1 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
        s2 = MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.5))))
        density = conditional.backward_density(rho, s1, s2, float(rng.uniform(-1, 1)))
        norm, _, _ = quad_pair_sum_stats(density.numerator)
        worst_norm = max(worst_norm, abs(norm / density.normalization - 1.0))
    checks.append(_check("conditional.density_normalized", worst_norm < 1e-8, f"max_dev={worst_norm:.1e}"))
    return checks


def _suite_nseq(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()

    worst_fwd, worst_bwd = 0.0, 0.0
    for _ in range(max(trials // 20, 15)):
        s1 = MeasurementStage(sz, Pointer(float(rng.uniform(0.3, 1.5))))
        s2 = MeasurementStage(sx, Pointer(float(rng.uniform(0.3, 1.5))))
        x = float(rng.uniform(-1.5, 1.5))
        two = chain_mod.MeasurementChain((s1, s2), rho0)
        fwd = chain_mod.conditional_stats_k(two, chain_mod.ChainQuery(2, (x,)))
        mean, _, var = spin.cond_moments_closed(s1.sigma, s2.sigma, x)
        worst_fwd = max(worst_fwd, abs(fwd.variance - var), abs(fwd.mean - mean))
        bwd = chain_mod.conditional_stats_k(two, chain_mod.ChainQuery(1, (x,)))
        extracted = spin.var_sz_given_sx_closed(s1.sigma, s2.sigma, x)
        worst_bwd = max(
            worst_bwd, abs(bwd.extracted_variance - extracted), abs(bwd.variance - (extracted + s1.sigma**2))
        )
    checks = [
        _check("nseq.reduces_to_forward", worst_fwd < 1e-12, f"max_dev={worst_fwd:.1e}"),
        _check("nseq.reduces_to_backward", worst_bwd < 1e-12, f"max_dev={worst_bwd:.1e}"),
    ]

    base = chain_mod.MeasurementChain(
        (MeasurementStage(sz, Pointer(0.5)), MeasurementStage(sx, Pointer(0.5))), rho0
    )
    swapped = chain_mod.MeasurementChain(
        (MeasurementStage(sx, Pointer(0.5)), MeasurementStage(sz, Pointer(0.5))), rho0
    )
    query = chain_mod.ChainQuery(2, (0.4,))
    delta = abs(
        chain_mod.conditional_stats_k(base, query).extracted_variance
        - chain_mod.conditional_stats_k(swapped, query).extracted_variance
    )
    checks.append(_check("nseq.order_sensitivity", delta > 1e-3, f"witness_delta={delta:.3e}"))

    # other stages' strengths must drop out when their outcomes sit at the
    # informationless symmetric point of the +-1/2 spectrum
    worst_comm = 0.0
    for sig_other in (0.2, 0.7, 3.0):
        stages = (
            MeasurementStage(sz, Pointer(sig_other)),
            MeasurementStage(sz, Pointer(0.5)),
            MeasurementStage(sz, Pointer(sig_other)),
        )
        c = chain_mod.MeasurementChain(stages, random_density(np.random.default_rng(7), 2))
        r = chain_mod.conditional_stats_k(c, chain_mod.ChainQuery(2, (0.0, 0.0)))
        if sig_other == 0.2:
            reference = r.extracted_variance
        else:
            worst_comm = max(worst_comm, abs(r.extracted_variance - reference))
    checks.append(_check("nseq.commuting_chain_independence", worst_comm < 1e-10, f"max_dev={worst_comm:.1e}"))

    worst_norm = 0.0
    for _ in range(8):
        dim = int(rng.integers(2, 4))
        n_stages = int(rng.integers(2, 5))
        stages = tuple(
            MeasurementStage(random_observable(rng, dim), Pointer(float(rng.uniform(0.3, 1.2))))
            for _ in range(n_stages)
        )
        c = chain_mod.MeasurementChain(stages, random_density(rng, dim))
        free = int(rng.integers(1, n_stages + 1))
        fixed = tuple(rng.uniform(-1.0, 1.0, size=n_stages - 1))
        density, norm = chain_mod.conditional_density_k(c, chain_mod.ChainQuery(free, fixed))
        quad_norm, _, _ = quad_pair_sum_stats(density)
        worst_norm = max(worst_norm, abs(quad_norm / norm - 1.0))
    checks.append(_check("nseq.density_normalized", worst_norm < 1e-8, f"max_dev={worst_norm:.1e}"))
    return checks


def _suite_mpur(seed: int, trials: int) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = np.inf
    worst_rb = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        psi = random_pure(rng, dim)
        a = random_observable(rng, dim)
        b = random_observable(rng, dim)
        report = mpur.mpur_check(psi, a, b)
        margin = report.lhs_sum - report.bound
        worst_margin = min(worst_margin, margin)
        if not report.satisfied:
            violations += 1
        total = Observable.from_matrix(a.matrix + b.matrix)
        var_sum = mpur._pure_variance(psi, total)
        worst_rb = max(worst_rb, abs(report.r_b - 0.5 * var_sum))
    checks = [
        _check(
            "mpur.random_states_hold",
            violations == 0,
            f"trials={trials} min_margin={worst_margin:.3e}",
        ),
        _check("mpur.rb_equals_half_variance", worst_rb < 1e-10, f"max_dev={worst_rb:.1e}"),
    ]
    psi = spin.plus_pure()
    report = mpur.mpur_check(psi, spin.s_z(), spin.s_x())
    ra, rb = spin.mpur_spin_constants()
    spin_ok = (
        abs(report.r_a - ra) < 1e-12
        and abs(report.r_b - rb) < 1e-12
        and abs(report.lhs_sum - 0.25) < 1e-12
    )
    checks.append(
        _check("mpur.spin_constants", spin_ok, f"r_a={report.r_a:.12f} r_b={report.r_b:.12f}")
    )
    return checks


SUITES = {
    "pointer": _suite_pointer,
    "kraus": _suite_kraus,
    "joint": _suite_joint,
    "conditional": _suite_conditional,
    "nseq": _suite_nseq,
    "mpur": _suite_mpur,
}


def run_suite(name: str, seed: int = 0, trials: int = 1000) -> list[CheckResult]:
    """Run one named suite; unknown names raise ``KeyError``."""
    return SUITES[name](seed, trials)
