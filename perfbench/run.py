"""seqmeas benchmark: one workload per run, closed loop with one client.

    python3 perfbench/run.py --workload chain_query --seed 1 --seconds 20 --trace 0

Jobs run one after another in this single process; the next job starts
when the previous one has finished and been checked. The loop stops at the
first cycle boundary after ``--seconds``. With ``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
the run spends half its time untraced and half traced and reports the
per-layer metrics, including the traced/untraced throughput ratio. Lines
before the last one are a human-readable report (failure breakdown, tail
percentile, provenance).

Set-up time is measured in fresh processes: importing ``seqmeas`` and
generating the first cycle's inputs, the cost a CLI user pays on every run.
Every time reported is corrected for host contention (see
:class:`HostSpeed`); the report also prints the raw figures.
The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figure_sweep", "chain_query", "verify")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120
#: BLAS and OpenMP pools pinned to one thread; the library's own sweep pool
#: variable is removed so its default (serial) applies.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Host-speed calibration: kernel repetitions, how often it is timed, the
#: samples taken each side of a job, and the kernel time that defines the
#: reference host speed.
CAL_ROUNDS = 150
CAL_EVERY_S = 0.25
CAL_WINDOW = 3
CAL_REF_S = 0.0045
#: End-to-end metrics of an untraced run.
END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics a traced run reports besides the tracer's own.
RUN_LAYER_UNITS = {
    "check.max_ref_gap": "ratio",
    "check.failed_frac": "ratio",
    "check.refused_frac": "ratio",
    "trace.rows_per_s_ratio": "ratio",
    "trace.spans": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import ``seqmeas`` from this checkout's ``src/``; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import seqmeas
    import seqmeas.cli  # noqa: F401  (the CLI verbs are part of set-up)

    if Path(seqmeas.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"seqmeas imported from {seqmeas.__file__}, not {SRC}")
    return seqmeas


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and generate cycle 0; returns (seconds, jobs)."""
    start = time.perf_counter()
    import_program()
    import workloads

    jobs = workloads.cycle_jobs(workload, seed, 0, workdir)
    return time.perf_counter() - start, jobs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter running :func:`setup`."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def provenance(seqmeas_threads) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SEQMEAS_THREADS": seqmeas_threads,
        **{k: os.environ[k] for k in PINNED_ENV},
    }


class HostSpeed:
    """Corrects wall times for contention from other tenants of the host.

    On a shared host the same work can take twice as long from one minute to
    the next, and CPU time tracks wall time, so the slowdown cannot be read
    out of a job's own timing. A fixed kernel that does not touch ``seqmeas``
    (small LAPACK calls, array products, float formatting) is timed about
    every ``CAL_EVERY_S``. A job's wall time is scaled by ``CAL_REF_S`` over
    the median kernel time of the ``CAL_WINDOW`` samples before and after
    it, which expresses every time at one fixed host speed. The median
    window (about 1.5 s) follows contention, which lasts seconds to
    minutes, and ignores the jitter of single samples.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        self._matrix = (m + m.conj().T) / 2.0
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.sample()  # the first LAPACK call pays one-off set-up
        self.starts.clear()
        self.kernel_s.clear()

    def sample(self) -> None:
        np, a = self._np, self._matrix
        start = time.perf_counter()
        for _ in range(CAL_ROUNDS):
            w, v = np.linalg.eigh(a)
            b = (v * w) @ v.conj().T
            json.dumps({"trace": repr(float(np.trace(b).real))})
        self.starts.append(start)
        self.kernel_s.append(time.perf_counter() - start)

    def maybe_sample(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= CAL_EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """``CAL_REF_S`` over the median kernel time of the samples around ``t``."""
        i = bisect.bisect_right(self.starts, t)
        return CAL_REF_S / statistics.median(self.kernel_s[max(i - CAL_WINDOW, 0):i + CAL_WINDOW])


def _is_typed(exc: BaseException) -> bool:
    errors = sys.modules.get("seqmeas.errors")
    return errors is not None and isinstance(exc, errors.SeqMeasError)


class Runner:
    """Runs and checks jobs one at a time and keeps one record per job."""

    def __init__(self, tracer, host: HostSpeed):
        import checks

        self.checks = checks
        self.tracer = tracer
        self.host = host
        self.records: list[dict] = []
        self.reported_crashes: set[str] = set()

    def run_cycle(self, jobs) -> None:
        for job in jobs:
            self.host.maybe_sample()
            self.tracer.job = len(self.records)
            self.records.append(self.run_job(job))

    def _crash(self, exc: BaseException) -> str:
        kind = type(exc).__name__
        if kind not in self.reported_crashes:
            self.reported_crashes.add(kind)
            traceback.print_exception(exc, file=sys.stderr)
        return kind

    def _cli_error_type(self, argv, code) -> str:
        # replay the failed job past the CLI's error handler to learn the
        # typed error it turned into an exit code
        cli = sys.modules["seqmeas.cli"]
        with self.tracer.paused(), contextlib.redirect_stdout(io.StringIO()):
            try:
                args = cli.build_parser().parse_args(argv)
                args.fn(args)
            except Exception as exc:  # noqa: BLE001 - classification only
                return type(exc).__name__
        return f"exit{code}"

    def run_job(self, job) -> dict:
        error = None
        output = None
        if job.argv is not None:
            cli = sys.modules["seqmeas.cli"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(job.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - a crash is a failed job
                    code, error = None, exc
                seconds = time.perf_counter() - start
            if error is not None:
                error = self._crash(error)
            elif code != 0:
                error = self._cli_error_type(job.argv, code)
            else:
                output = out.getvalue()
                if job.kind != "validate":
                    self.tracer.count("cli.csv_bytes", len(output.encode()))
        else:
            start = time.perf_counter()
            try:
                output = getattr(importlib.import_module(job.call[0]), job.call[1])(*job.args)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed job
                error = exc
            seconds = time.perf_counter() - start
            if error is not None:
                error = type(error).__name__ if _is_typed(error) else self._crash(error)

        rows, gap, wrong, refused = 0, 0.0, False, None
        if error is None:
            with self.tracer.paused():
                reason, gap = self.checks.CHECKS[job.kind](job, output)
                if reason is None:
                    rows = self.checks.rows_answered(job, output)
                else:
                    error, wrong = f"WrongOutput({job.kind}: {reason})", True
        elif self.checks.REFUSABLE.get(job.kind) == error:
            # a typed refusal the reference confirms is a known defect, not a failure
            with self.tracer.paused():
                reason = self.checks.check_refusal(job)
            if reason is None:
                refused, error = error, None
            else:
                error = f"{error}(unconfirmed: {reason})"
        return {"kind": job.kind, "start": start, "seconds": seconds, "rows": rows,
                "error": error, "refused": refused, "wrong": wrong, "gap": gap}


def run_phase(runner, workload, seed, workdir, first_cycle, seconds, first_jobs=None):
    """Run whole cycles until ``seconds`` have passed; returns (records, next cycle)."""
    import workloads

    begin = len(runner.records)
    cycle = first_cycle
    deadline = time.perf_counter() + seconds
    while True:
        if first_jobs is not None:
            jobs, first_jobs = first_jobs, None
        else:
            with runner.tracer.paused():
                jobs = workloads.cycle_jobs(workload, seed, cycle, workdir)
        runner.run_cycle(jobs)
        cycle += 1
        if time.perf_counter() >= deadline:
            runner.host.sample()
            return runner.records[begin:], cycle


def summarize(records, host: HostSpeed) -> dict:
    times = sorted(r["seconds"] * host.factor(r["start"]) for r in records)
    n = len(times)
    beyond = min(TAIL_BEYOND, n - 1)
    failed = [r for r in records if r["error"] is not None]
    refused = [r for r in records if r["refused"] is not None]
    rows = sum(r["rows"] for r in records)
    return {
        "jobs": n,
        "failed": len(failed),
        "refused": len(refused),
        "answered_frac": (n - len(failed) - len(refused)) / n,
        "wrong": sum(r["wrong"] for r in records),
        "errors": Counter(r["error"] for r in failed),
        "refusals": Counter(r["refused"] for r in refused),
        "rows": rows,
        "rows_per_s": rows / sum(times),
        "raw_rows_per_s": rows / sum(r["seconds"] for r in records),
        "raw_job_ms_p50": 1000.0 * statistics.median(r["seconds"] for r in records),
        "job_ms_p50": 1000.0 * statistics.median(times),
        "job_ms_tail": 1000.0 * times[n - 1 - beyond],
        "tail_pct": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "max_gap": max(r["gap"] for r in records),
        "by_kind": Counter(r["kind"] for r in records),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seqmeas" / "__init__.py").is_file():
        print(f"error: no seqmeas sources at {SRC}", file=sys.stderr)
        return 2
    seqmeas_threads = os.environ.pop("SEQMEAS_THREADS", None)
    os.environ.update(PINNED_ENV)
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            seconds, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, workdir, seqmeas_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path, seqmeas_threads) -> int:
    own_start = time.perf_counter()
    own_setup, first_jobs = setup(args.workload, args.seed, workdir)
    host = HostSpeed()
    host.sample()
    setup_samples = [(own_start, own_setup)]
    for _ in range(SETUP_SAMPLES - 1):
        start = time.perf_counter()
        setup_samples.append((start, probe_setup(args.workload, args.seed)))
        host.sample()
    raw_setup = [seconds for _, seconds in setup_samples]
    setup_s = statistics.median(seconds * host.factor(t) for t, seconds in setup_samples)

    import tracer as tracing

    tracer = tracing.Tracer()
    runner = Runner(tracer, host)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# provenance: {json.dumps(provenance(seqmeas_threads))}")

    if args.trace:
        untraced, cycle = run_phase(runner, args.workload, args.seed, workdir, 0,
                                    args.seconds / 2, first_jobs)
        tracer.install()
        try:
            traced, _ = run_phase(runner, args.workload, args.seed, workdir, cycle,
                                  args.seconds / 2)
        finally:
            tracer.uninstall()
        records = untraced + traced
    else:
        records, _ = run_phase(runner, args.workload, args.seed, workdir, 0, args.seconds,
                               first_jobs)

    s = summarize(records, host)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = ", ".join(f"{k}: {v}" for k, v in s["errors"].most_common()) or "none"
    refusals = ", ".join(f"{k}: {v}" for k, v in s["refusals"].most_common()) or "none"
    speed = [CAL_REF_S / k for k in host.kernel_s]
    print(f"host speed   median {statistics.median(speed):.3f}, range {min(speed):.3f}-"
          f"{max(speed):.3f} of the reference ({len(speed)} kernel samples); times below "
          f"are scaled to the reference")
    print(f"setup_s      {setup_s:.4f} s  (median of {len(raw_setup)} fresh processes; raw: "
          + ", ".join(f"{v:.3f}" for v in raw_setup) + ")")
    print(f"rows_per_s   {s['rows_per_s']:.2f} rows/s  ({s['rows']} rows; raw "
          f"{s['raw_rows_per_s']:.2f})")
    print(f"job_ms_p50   {s['job_ms_p50']:.4f} ms  (raw {s['raw_job_ms_p50']:.4f}; {s['jobs']} jobs: "
          + ", ".join(f"{k} {v}" for k, v in sorted(s["by_kind"].items())) + ")")
    print(f"job_ms_tail  {s['job_ms_tail']:.4f} ms  (p{s['tail_pct']:.2f}: {s['tail_beyond']} of "
          f"{s['jobs']} jobs beyond it)")
    print(f"failed_frac  {s['failed'] / s['jobs']:.4f}  ({s['failed']} of {s['jobs']} jobs; "
          f"{errors})")
    print(f"refused      {s['refused']} of {s['jobs']} jobs ({refusals}; each confirmed by the "
          f"reference as a negative extracted variance)")
    print(f"answered     {s['answered_frac']:.4f} of jobs attempted")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")

    if args.trace:
        u, t = summarize(untraced, host), summarize(traced, host)
        ratio = t["rows_per_s"] / u["rows_per_s"]
        print(f"tracing overhead: traced rows_per_s {t['rows_per_s']:.2f} / untraced "
              f"{u['rows_per_s']:.2f} = {ratio:.4f} ({tracer.span_count} spans)")
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}.npz")
        values = {
            **tracer.metrics(),
            "check.max_ref_gap": s["max_gap"],
            "check.failed_frac": s["failed"] / s["jobs"],
            "check.refused_frac": s["refused"] / s["jobs"],
            "trace.rows_per_s_ratio": ratio,
            "trace.spans": tracer.span_count,
        }
        units = {**tracing.metric_units(), **RUN_LAYER_UNITS}
        for name, unit in units.items():
            print(f"  {name} = {values[name]} {unit}")
    else:
        values = {
            "setup_s": setup_s,
            "rows_per_s": s["rows_per_s"],
            "job_ms_p50": s["job_ms_p50"],
            "job_ms_tail": s["job_ms_tail"],
            "answered_frac": s["answered_frac"],
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": s["wrong"] == 0,
        "attempted": s["jobs"],
        "failed": s["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
