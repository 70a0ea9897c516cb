"""Seeded job generators for the three benchmark workloads.

A workload is an endless sequence of cycles. A cycle is a fixed, balanced
mix of job shapes (grid sizes, chain lengths, dimensions, query positions);
the seed only draws the values inside each shape, so every cycle costs
about the same and runs with different seeds stay comparable. Cycle ``c``
of seed ``s`` is drawn from ``default_rng([s, c])``: the same seed always
gives the same jobs, however many cycles a run reaches, and no two cycles
repeat an input, so a result cache in the program gains nothing.

A job is one ``seqmeas.cli.main(argv)`` call or one public library call.
The program sees only the generated argv, config files and library
arguments; ``expect`` holds what the checker needs and is never passed in.
Queries that raise are kept, never re-drawn: they count as failed jobs, or
as refused ones where the checker confirms the program's known refusal of a
negative extracted variance (``checks.check_refusal``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import seqmeas
from seqmeas import spin

WORKLOADS = ("figure_sweep", "chain_query", "verify")

#: Grid sizes run from the CLI defaults (fig2: 50 steps; fig3/fig4: 41 x 8)
#: to 400 steps and 201 x 20. Each cycle draws one size per stratum of
#: this many equal slices of that range, so the work per cycle is nearly
#: constant while job times still fill the range without gaps.
FIG_STRATA = 4
#: Weak first stage of fig4 and of the criterion 7 grid. Above sigma1 ~ 1e3
#: the closed-form backward variance itself loses about 1e-9 relative
#: accuracy (against a 50-digit evaluation), so the 1e-9 tolerance could
#: no longer tell which side is wrong.
WEAK_SIGMA1_RANGE = (30.0, 300.0)
#: One chain config per stage count per cycle.
CHAIN_STAGE_COUNTS = tuple(range(2, 13))
SWEEP_STEPS = 16
CHAIN_SIGMA_RANGE = (0.1, 5.0)
VERIFY_SIGMA_RANGE = (0.2, 2.0)
VERIFY_MC_SAMPLES = 2_000
#: Post-selected oracle queries use the library's rejection sampler, whose
#: cost grows as 1 / acceptance. Over random queries that has a tail too
#: heavy for a steady mean (single jobs of seconds), so each cycle draws
#: one query from each decade of expected acceptance instead.
ACCEPTANCE_BANDS = ((1e-1, 1.0), (1e-2, 1e-1), (1e-3, 1e-2))
VERIFY_POINTER_SAMPLES = 200_000
VALIDATE_TRIALS = 40


@dataclass
class Job:
    kind: str
    argv: list[str] | None = None
    call: tuple[str, str] | None = None
    args: tuple = ()
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def random_state(rng, dim: int, pure: bool) -> np.ndarray:
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        m = np.outer(v, v.conj())
    else:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        m /= np.trace(m).real
    return (m + m.conj().T) / 2.0


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _plausible_outcome(rng, matrix: np.ndarray, sigma: float) -> float:
    # an eigenvalue plus pointer noise: a record the stage could produce
    levels = np.linalg.eigvalsh(matrix)
    return float(levels[rng.integers(levels.size)] + sigma * rng.standard_normal())


def _chain_spec(rng, dim: int, n_stages: int, free_index: int, sigma_range) -> dict:
    """Random chain, state and record as a config mapping (no sweep)."""
    mats = [random_hermitian(rng, dim) for _ in range(n_stages)]
    sigmas = [_log_uniform(rng, *sigma_range) for _ in range(n_stages)]
    rho = random_state(rng, dim, pure=bool(rng.integers(2)))
    fixed = [
        _plausible_outcome(rng, mats[j], sigmas[j])
        for j in range(n_stages)
        if j != free_index - 1
    ]
    return {
        "dim": dim,
        "initial_state": _matrix_json(rho),
        "stages": [
            {"observable": _matrix_json(m), "sigma": s} for m, s in zip(mats, sigmas)
        ],
        "query": {"free_index": free_index, "fixed_outcomes": fixed},
    }


def _write_config(workdir: Path, name: str, payload: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _free_index(rng, n_stages: int, position: int) -> int:
    """0: first stage (backward), 1: a middle stage, 2: last stage (forward)."""
    if position == 0:
        return 1
    if position == 2:
        return n_stages
    return int(rng.integers(2, n_stages)) if n_stages > 2 else int(rng.integers(1, 3))


def _span(lo: int, hi: int, t: float) -> int:
    return int(round(lo + t * (hi - lo)))


def figure_sweep_cycle(rng, cycle: int, workdir: Path) -> list[Job]:
    jobs = []
    for stratum in range(FIG_STRATA):
        t2, t3, t4 = (stratum + rng.uniform(size=3)) / FIG_STRATA
        steps = _span(50, 400, t2)
        lo, hi = 10.0 ** rng.uniform(-2.3, -1.7), 10.0 ** rng.uniform(1.7, 2.3)
        jobs.append(Job("fig2", argv=[
            "fig2", "--sigma1-min", _num(lo), "--sigma1-max", _num(hi), "--steps", str(steps),
        ], expect={"rows": steps}))
        x_steps, s_steps = _span(41, 201, t3), _span(8, 20, t3)
        x = rng.uniform(0.8, 1.2)
        jobs.append(Job("fig3", argv=[
            "fig3", "--x1-min", _num(-x), "--x1-max", _num(rng.uniform(0.8, 1.2)),
            "--x1-steps", str(x_steps),
            "--sigma1-min", _num(rng.uniform(0.04, 0.06)), "--sigma1-max", _num(rng.uniform(0.8, 1.2)),
            "--sigma1-steps", str(s_steps), "--sigma2", _num(rng.uniform(0.3, 1.0)),
        ], expect={"rows": x_steps * s_steps}))
        x_steps, s_steps = _span(41, 201, t4), _span(8, 20, t4)
        x = rng.uniform(0.8, 1.2)
        jobs.append(Job("fig4", argv=[
            "fig4", "--x2-min", _num(-x), "--x2-max", _num(rng.uniform(0.8, 1.2)),
            "--x2-steps", str(x_steps),
            "--sigma2-min", _num(rng.uniform(0.1, 0.15)), "--sigma2-max", _num(rng.uniform(1.5, 2.5)),
            "--sigma2-steps", str(s_steps), "--sigma1", _num(_log_uniform(rng, *WEAK_SIGMA1_RANGE)),
        ], expect={"rows": x_steps * s_steps}))

    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma1s = (rng.uniform(0.25, 0.35), rng.uniform(0.8, 1.2), _log_uniform(rng, *WEAK_SIGMA1_RANGE))
    sigma2s = (rng.uniform(0.1, 0.15), rng.uniform(0.25, 0.35), rng.uniform(0.8, 1.2))
    x1s = (rng.uniform(0.0, 0.1), rng.uniform(0.2, 0.3), rng.uniform(0.45, 0.55))
    x2s = tuple(c + rng.uniform(-0.1, 0.1) for c in (-0.5, 0.0, 0.5, 1.0, 2.0))
    for s1 in sigma1s:
        stage1 = seqmeas.MeasurementStage(sz, seqmeas.Pointer(float(s1)))
        for s2 in sigma2s:
            stage2 = seqmeas.MeasurementStage(sx, seqmeas.Pointer(float(s2)))
            for x1 in x1s:
                for x2 in x2s:
                    jobs.append(Job(
                        "mpur",
                        call=("seqmeas.mpur", "conditional_mpur_sum"),
                        args=(rho0, stage1, stage2, float(x1), float(x2)),
                        expect={"sigma1": float(s1), "sigma2": float(s2), "x1": float(x1), "x2": float(x2)},
                    ))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def chain_query_cycle(rng, cycle: int, workdir: Path) -> list[Job]:
    jobs = []
    for i, n_stages in enumerate(rng.permutation(CHAIN_STAGE_COUNTS)):
        n_stages = int(n_stages)
        dim = 2 + (i + cycle) % 3
        free = _free_index(rng, n_stages, (i + 2 * cycle) % 3)
        payload = _chain_spec(rng, dim, n_stages, free, CHAIN_SIGMA_RANGE)
        m = int(rng.integers(n_stages - 1))
        swept_stage = m if m < free - 1 else m + 1
        x0 = payload["query"]["fixed_outcomes"][m]
        width = 2.0 * payload["stages"][swept_stage]["sigma"]
        payload["sweep"] = {
            "path": f"query.fixed_outcomes.{m}", "min": x0 - width, "max": x0 + width,
            "steps": SWEEP_STEPS,
        }
        path = _write_config(workdir, f"chain-{cycle}-{i}.json", payload)
        jobs.append(Job("chain", argv=["chain", path], expect={"payload": payload}))
    return jobs


def _stage_laws(rho: np.ndarray, mats, sigmas) -> list[tuple[float, float, np.ndarray]]:
    """(mean, variance, level weights) of each pointer's unconditioned marginal.

    Earlier stages act as dephasing channels (the joint model), computed
    here with plain numpy, independently of the library.
    """
    laws = []
    for a, sigma in zip(mats, sigmas):
        lam, v = np.linalg.eigh(a)
        rotated = v.conj().T @ rho @ v
        weights = np.clip(np.diag(rotated).real, 0.0, None)
        mean = float(weights @ lam)
        laws.append((mean, float(sigma * sigma + weights @ lam**2 - mean * mean), weights))
        diff = lam[:, None] - lam[None, :]
        rho = v @ (np.exp(-diff * diff / (8.0 * sigma * sigma)) * rotated) @ v.conj().T
    return laws


def rejection_acceptance(payload: dict) -> float:
    """Expected acceptance of the Monte Carlo oracle's rejection sampler.

    The sampler proposes from the free stage's level mixture weighted by
    the state before it and accepts against an envelope of 1.1 times the
    largest eigenvalue of the coefficient matrix over the smallest weight,
    so the acceptance is ``norm * w_min / (1.1 * lambda_max)``.
    """
    rho, effect, lam, sigma = checks.free_stage_terms(payload, payload["query"]["fixed_outcomes"])
    coeffs = rho * effect.T
    diff = lam[:, None] - lam[None, :]
    norm = float((coeffs * np.exp(-diff * diff / (8.0 * sigma * sigma))).sum().real)
    weights = np.clip(np.diag(rho).real, 0.0, None)
    weights = weights / weights.sum()
    w_min = float(weights[weights > 1e-300].min())
    return norm * w_min / (1.1 * float(np.linalg.eigvalsh(coeffs)[-1]))


def _oracle_job(rng, cycle: int, k: int, workdir: Path, payload: dict) -> Job:
    path = _write_config(workdir, f"verify-{cycle}-{k}.json", payload)
    return Job("chain_oracles", argv=[
        "chain", path, "--with-oracles", "--mc-samples", str(VERIFY_MC_SAMPLES),
        "--seed", str(int(rng.integers(2**31))),
    ], expect={"payload": payload})


def verify_cycle(rng, cycle: int, workdir: Path) -> list[Job]:
    dim = 2 + cycle % 2
    n_stages = int(rng.integers(2, 5))
    forward = _chain_spec(rng, dim, n_stages, n_stages, VERIFY_SIGMA_RANGE)
    jobs = [_oracle_job(rng, cycle, 0, workdir, forward)]
    for k, (lo, hi) in enumerate(ACCEPTANCE_BANDS, start=1):
        while True:
            dim = int(rng.integers(2, 4))
            n_stages = int(rng.integers(2, 5))
            payload = _chain_spec(
                rng, dim, n_stages, int(rng.integers(1, n_stages)), VERIFY_SIGMA_RANGE
            )
            if lo <= rejection_acceptance(payload) < hi:
                break
        jobs.append(_oracle_job(rng, cycle, k, workdir, payload))

    # fixed shapes: the four-stage qutrit chain is the slowest job of the
    # cycle, so the tail percentile falls inside one homogeneous group
    for n_stages, dim in ((2, 2), (4, 3)):
        mats = [random_hermitian(rng, dim) for _ in range(n_stages)]
        sigmas = [_log_uniform(rng, *VERIFY_SIGMA_RANGE) for _ in range(n_stages)]
        rho = random_state(rng, dim, pure=False)
        laws = _stage_laws(rho, mats, sigmas)
        stages = tuple(
            seqmeas.MeasurementStage(seqmeas.Observable.from_matrix(m), seqmeas.Pointer(s))
            for m, s in zip(mats, sigmas)
        )
        chain = seqmeas.MeasurementChain(stages, seqmeas.DensityMatrix.from_matrix(rho))
        cfg = seqmeas.SamplerConfig(samples=VERIFY_POINTER_SAMPLES, seed=int(rng.integers(2**63)))
        jobs.append(Job(
            "sample_chain", call=("seqmeas.oracle", "sample_chain"), args=(chain, cfg),
            expect={"laws": [(mean, var) for mean, var, _ in laws], "samples": cfg.samples},
        ))
        for j in (0, n_stages - 1):
            mean, var, weights = laws[j]
            marginal = seqmeas.GaussianPairSum.mixture(
                weights, stages[j].observable.eigenvalues, sigmas[j]
            )
            jobs.append(Job(
                "quad", call=("seqmeas.oracle", "quad_pair_sum_stats"), args=(marginal,),
                expect={"mean": mean, "variance": var},
            ))

    for suite in ("conditional", "joint", "kraus", "mpur", "nseq", "pointer"):
        jobs.append(Job("validate", argv=[
            "validate", suite, "--trials", str(VALIDATE_TRIALS), "--seed", str(int(rng.integers(2**31))),
        ]))
    return [jobs[i] for i in rng.permutation(len(jobs))]


CYCLES = {
    "figure_sweep": figure_sweep_cycle,
    "chain_query": chain_query_cycle,
    "verify": verify_cycle,
}


def cycle_jobs(workload: str, seed: int, cycle: int, workdir: Path) -> list[Job]:
    """Jobs of one cycle; config files are written into ``workdir``."""
    rng = np.random.default_rng([seed, cycle])
    return CYCLES[workload](rng, cycle, workdir)
