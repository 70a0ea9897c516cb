"""Tests of the benchmark itself; kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from seqmeas import chain as chain_mod  # noqa: E402
from seqmeas import cli  # noqa: E402


def _fingerprint(jobs, workdir: Path) -> list[bytes]:
    out = []
    for job in jobs:
        argv = [a.replace(str(workdir), "<work>") for a in job.argv or ()]
        files = [Path(a).read_bytes() for a in job.argv or () if a.startswith(str(workdir))]
        expect = json.dumps(job.expect, sort_keys=True, default=repr).encode()
        out.append(pickle.dumps((job.kind, argv, files, job.call, job.args)) + expect)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for cycle in (0, 3):
        first = _fingerprint(workloads.cycle_jobs(workload, 7, cycle, a), a)
        again = _fingerprint(workloads.cycle_jobs(workload, 7, cycle, b), b)
        assert first == again
        assert first != _fingerprint(workloads.cycle_jobs(workload, 8, cycle, b), b)


def test_workload_names_agree():
    assert tuple(workloads.CYCLES) == workloads.WORKLOADS == run.WORKLOADS


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {**tracing.metric_units(), **run.RUN_LAYER_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def _traced(jobs):
    tracer = tracing.Tracer()
    runner = run.Runner(tracer, run.HostSpeed())
    tracer.install()
    try:
        runner.run_cycle(jobs)
    finally:
        tracer.uninstall()
    return tracer, runner.records


def _first(jobs, kind):
    return next(j for j in jobs if j.kind == kind)


def test_figure_call_counts_match_rows(tmp_path):
    jobs = workloads.cycle_jobs("figure_sweep", 3, 0, tmp_path)
    picked = [_first(jobs, k) for k in ("fig2", "fig3", "fig4", "mpur")]
    tracer, records = _traced(picked)
    assert all(r["error"] is None for r in records)
    fig2, fig3, fig4 = (j.expect["rows"] for j in picked[:3])
    m = tracer.metrics()
    assert m["cli.main.calls"] == 3
    assert m["joint.backaction_variance.calls"] == fig2
    assert m["spin.var_sx_rho1_closed.calls"] == fig2
    # the checker's own closed-form calls for the mpur job are not traced
    assert m["conditional.forward_stats.calls"] == fig3 + 1
    assert m["spin.var_sx_given_sz_closed.calls"] == fig3
    assert m["conditional.backward_stats.calls"] == fig4 + 1
    assert m["spin.var_sz_given_sx_closed.calls"] == fig4
    assert m["mpur.conditional_mpur_sum.calls"] == 1
    assert 0.0 < m["conditional.forward_stats.self_s"] < m["conditional.forward_stats.busy_s"]


def test_chain_call_counts_reach_every_binding(tmp_path):
    job = _answered_chain_job(tmp_path)
    payload = job.expect["payload"]
    n_stages, steps = len(payload["stages"]), payload["sweep"]["steps"]
    original = cli.conditional_stats_k
    tracer, records = _traced([job])
    assert cli.conditional_stats_k is original is chain_mod.conditional_stats_k
    m = tracer.metrics()
    assert records[0]["error"] is None and records[0]["rows"] == steps
    assert m["cli.parse_chain_config.calls"] == 1 + steps
    assert m["core.Observable.from_matrix.calls"] == (1 + steps) * n_stages
    assert m["chain.conditional_stats_k.calls"] == steps
    assert m["chain.chain_state.calls"] == m["chain.effect_chain.calls"] == steps
    assert m["chain.stage_folds"] == steps * (n_stages - 1)
    assert m["cli.csv_bytes"] > 0


def test_oracle_counters(tmp_path):
    jobs = workloads.cycle_jobs("verify", 3, 0, tmp_path)
    oracle_jobs = [j for j in jobs if j.kind == "chain_oracles"]
    forward = [j for j in oracle_jobs if _is_forward(j)]
    assert len(forward) == 1 and len(oracle_jobs) == 1 + len(workloads.ACCEPTANCE_BANDS)
    picked = [_first(jobs, "sample_chain"), _first(jobs, "quad"), forward[0]]
    tracer, records = _traced(picked)
    assert all(r["error"] is None for r in records)
    m = tracer.metrics()
    assert m["oracle.samples_drawn"] == picked[0].expect["samples"]
    assert m["oracle.quad_pair_sum_stats.calls"] == 2
    assert m["oracle.quad_integrand_evals"] > 0
    assert m["oracle.mc_conditional_variance.calls"] == 1
    assert m["oracle.mc_proposals"] == 0  # a forward query is sampled directly


def test_rejection_acceptance_matches_the_sampler(tmp_path):
    jobs = [j for j in workloads.cycle_jobs("verify", 4, 0, tmp_path)
            if j.kind == "chain_oracles" and not _is_forward(j) and _cli_output(j)]
    assert jobs
    for job in jobs:
        tracer, _ = _traced([job])
        ratio = tracer.metrics()["oracle.mc_accept_ratio"]
        expected = workloads.rejection_acceptance(job.expect["payload"])
        # proposals come in batches of at least 4096
        assert expected / 2.5 <= ratio <= 1.2 * expected


def _is_forward(job) -> bool:
    payload = job.expect["payload"]
    return payload["query"]["free_index"] == len(payload["stages"])


def test_missing_function_reports_none(tmp_path, monkeypatch):
    import seqmeas.spin

    monkeypatch.delattr(seqmeas.spin, "var_sx_rho1_closed")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics()
    assert m["spin.var_sx_rho1_closed.calls"] is None
    assert m["spin.var_sx_given_sz_closed.calls"] == 0


def _cli_output(job) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.argv)
    return buf.getvalue() if code == 0 else None


def _answered_chain_job(tmp_path):
    # some generated queries are refused with a typed error; these tests need an answer
    return next(j for j in workloads.cycle_jobs("chain_query", 5, 0, tmp_path) if _cli_output(j))


def _corrupt_last_value(text: str, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    return "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def test_checker_flags_corrupted_csv(tmp_path):
    jobs = workloads.cycle_jobs("figure_sweep", 5, 0, tmp_path)
    for kind in ("fig2", "fig3", "fig4"):
        job = _first(jobs, kind)
        out = _cli_output(job)
        assert checks.CHECKS[kind](job, out)[0] is None
        assert checks.CHECKS[kind](job, _corrupt_last_value(out, 1e-6))[0] is not None
        dropped = "\n".join(out.splitlines()[:-1]) + "\n"
        assert "rows" in checks.CHECKS[kind](job, dropped)[0]

    job = _answered_chain_job(tmp_path)
    out = _cli_output(job)
    assert checks.check_chain(job, out)[0] is None
    lines = out.splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6) + 1e-6)
    bad = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
    assert "reference" in checks.check_chain(job, bad)[0]


def test_refusal_is_confirmed_only_by_a_negative_reference_variance(tmp_path):
    refused = answered = None
    for cycle in range(10):
        for job in workloads.cycle_jobs("chain_query", 5, cycle, tmp_path):
            if _cli_output(job) is None:
                refused = refused or job
            else:
                answered = answered or job
        if refused and answered:
            break
    assert checks.check_refusal(refused) is None
    assert "reference" in checks.check_refusal(answered)
    # the runner counts a confirmed refusal apart from failures
    record = run.Runner(tracing.Tracer(), run.HostSpeed()).run_job(refused)
    assert record["error"] is None and record["refused"] == "VarianceInconsistency"
    assert record["rows"] == 0


def test_checker_flags_failed_validate_summary(tmp_path):
    job = _first(workloads.cycle_jobs("verify", 5, 0, tmp_path), "validate")
    out = _cli_output(job)
    assert checks.check_validate(job, out)[0] is None
    assert checks.check_validate(job, out.replace("failures=0 ", "failures=1 "))[0] is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
