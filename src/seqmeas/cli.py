"""Command-line front end: figure data as CSV, chain runs, validation.

Verbs: ``fig2``, ``fig3``, ``fig4`` emit sweep data for the spin
illustration with both the closed-form and generic-engine columns;
``chain`` evaluates a configured measurement chain (optionally with
quadrature and Monte Carlo oracle columns); ``validate`` runs a module's
randomized invariant suite. Output is deterministic for a fixed seed and
configuration. Every sweep is one batched engine call; a failing sweep
raises the error of its first failing row, naming that row's values.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__, spin
from .chain import ChainQuery, MeasurementChain, conditional_stats_rows, one_row
from .conditional import backward_stats_rows, forward_stats_rows
from .core import DensityMatrix, Observable
from .errors import ConfigParseError, FirstFailure, InvalidRange, SeqMeasError
from .joint import backaction_variance_rows
from .kraus import MeasurementStage
from .oracle import (
    RNG_ALGORITHM,
    QuadratureConfig,
    SamplerConfig,
    mc_conditional_variance,
    quad_pair_sum_stats,
)
from .pointer import Pointer
from .validate import SUITES, run_suite

STATE_PRESETS = {
    "plus": spin.KET_PLUS,
    "minus": spin.KET_MINUS,
    "up": spin.KET_UP,
    "down": spin.KET_DOWN,
}


def _sweep_rows(
    n: int,
    engine: Callable[[FirstFailure], object],
    row: Callable[[int, object], tuple],
    label: Callable[[int], str] | None,
) -> list[tuple]:
    """CSV rows of an ``n``-row sweep: one batched engine call, then per-row cells.

    ``engine(rows)`` evaluates every row at once; ``row(i, result)`` adds
    the per-row columns (closed forms, oracles) in row order. A failure is
    the one a row-by-row loop would raise first, with ``label(i)`` of its
    row, if given, in front of the message.
    """
    rows = FirstFailure(n)
    i = None
    try:
        result = engine(rows)
        out = []
        for i in range(rows.rows):
            out.append(row(i, result))
        rows.raise_first()
    except (SeqMeasError, ValueError) as exc:
        failed = getattr(exc, "row", i)
        if failed is not None and label is not None:
            exc.args = (f"{label(failed)}: {exc}",)
        raise
    return out


def _write_csv(
    out, meta: Iterable[str], header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    """Write the CSV; every row cell is a Python float, written as its shortest repr."""
    for line in meta:
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(map(repr, row)) + "\n")


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(args, meta, header, rows) -> None:
    out, close = _open_out(args.out)
    try:
        _write_csv(out, meta, header, rows)
    finally:
        if close:
            out.close()


def _meta_lines(argv_repr: str, extra: Sequence[str] = ()) -> list[str]:
    return [f"seqmeas {__version__}", f"command: {argv_repr}", *extra]


def _grid(lo: float, hi: float, steps: int, *, log: bool) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi or steps < 2:
        raise InvalidRange(f"need finite min < max and steps >= 2, got ({lo}, {hi}, {steps})")
    if log:
        if lo <= 0:
            raise InvalidRange("log-spaced grid needs a positive minimum")
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


def cmd_fig2(args) -> int:
    grid = _grid(args.sigma1_min, args.sigma1_max, args.steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma1 = grid.tolist()
    rows = _sweep_rows(
        grid.size,
        lambda r: backaction_variance_rows(rho0, sz, grid, sx, r).tolist(),
        lambda i, generic: (sigma1[i], spin.var_sx_rho1_closed(sigma1[i]), generic[i]),
        lambda i: f"sigma1 = {sigma1[i]!r}",
    )
    meta = _meta_lines(
        f"fig2 --sigma1-min {args.sigma1_min} --sigma1-max {args.sigma1_max} --steps {args.steps}"
    )
    _emit(args, meta, ["sigma1", "var_sx_rho1_closed", "var_sx_rho1_generic"], rows)
    return 0


def _outer_grid(inner: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every (inner, outer) pair, inner index fastest
    return np.tile(inner, outer.size), np.repeat(outer, inner.size)


def cmd_fig3(args) -> int:
    x1_grid = _grid(args.x1_min, args.x1_max, args.x1_steps, log=False)
    s1_grid = _grid(args.sigma1_min, args.sigma1_max, args.sigma1_steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma2 = Pointer(args.sigma2).sigma
    x1, s1 = _outer_grid(x1_grid, s1_grid)
    xs, ss = x1.tolist(), s1.tolist()

    def engine(r):
        s2 = np.full(x1.size, sigma2)
        return forward_stats_rows(rho0, sz, s1, sx, s2, x1, r).extracted_system_variance.tolist()

    rows = _sweep_rows(
        x1.size,
        engine,
        lambda i, generic: (xs[i], ss[i], spin.var_sx_given_sz_closed(ss[i], xs[i]), generic[i]),
        lambda i: f"x1 = {xs[i]!r}, sigma1 = {ss[i]!r}",
    )
    meta = _meta_lines(
        f"fig3 --x1-min {args.x1_min} --x1-max {args.x1_max} --x1-steps {args.x1_steps} "
        f"--sigma1-min {args.sigma1_min} --sigma1-max {args.sigma1_max} "
        f"--sigma1-steps {args.sigma1_steps} --sigma2 {args.sigma2}"
    )
    _emit(
        args,
        meta,
        ["x1", "sigma1", "var_sx_given_sz_closed", "var_sx_given_sz_generic"],
        rows,
    )
    return 0


def cmd_fig4(args) -> int:
    x2_grid = _grid(args.x2_min, args.x2_max, args.x2_steps, log=False)
    s2_grid = _grid(args.sigma2_min, args.sigma2_max, args.sigma2_steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma1 = Pointer(args.sigma1).sigma
    x2, s2 = _outer_grid(x2_grid, s2_grid)
    xs, ss = x2.tolist(), s2.tolist()

    def engine(r):
        s1 = np.full(x2.size, sigma1)
        return backward_stats_rows(rho0, sz, s1, sx, s2, x2, r).extracted_system_variance.tolist()

    rows = _sweep_rows(
        x2.size,
        engine,
        lambda i, generic: (
            xs[i], ss[i], spin.var_sz_given_sx_closed(args.sigma1, ss[i], xs[i]), generic[i]
        ),
        lambda i: f"x2 = {xs[i]!r}, sigma2 = {ss[i]!r}",
    )
    meta = _meta_lines(
        f"fig4 --x2-min {args.x2_min} --x2-max {args.x2_max} --x2-steps {args.x2_steps} "
        f"--sigma2-min {args.sigma2_min} --sigma2-max {args.sigma2_max} "
        f"--sigma2-steps {args.sigma2_steps} --sigma1 {args.sigma1}",
        ["note: values grow without bound for x2 < 0 as sigma2 -> 0; cap for plotting as needed"],
    )
    _emit(
        args,
        meta,
        ["x2", "sigma2", "var_sz_given_sx_closed", "var_sz_given_sx_generic"],
        rows,
    )
    return 0


def _parse_complex_entry(entry, path: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(isinstance(v, (int, float)) for v in entry):
        return complex(entry[0], entry[1])
    raise ConfigParseError(f"{path}: expected a number or [re, im] pair, got {entry!r}")


def _parse_matrix(obj, dim: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigParseError(f"{path}: expected a {dim}x{dim} matrix")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigParseError(f"{path}[{i}]: expected {dim} entries")
        rows.append([_parse_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _parse_observable(obj, dim: int, path: str) -> Observable:
    if isinstance(obj, str):
        if obj == "Sz":
            preset = spin.s_z()
        elif obj == "Sx":
            preset = spin.s_x()
        else:
            raise ConfigParseError(f"{path}: unknown observable preset {obj!r} (use Sz, Sx or a matrix)")
        if dim != 2:
            raise ConfigParseError(f"{path}: preset {obj!r} is 2-dimensional, config dim is {dim}")
        return preset
    try:
        return Observable.from_matrix(_parse_matrix(obj, dim, path))
    except SeqMeasError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc


def _parse_initial_state(obj, dim: int, path: str) -> DensityMatrix:
    if isinstance(obj, str):
        if obj not in STATE_PRESETS:
            raise ConfigParseError(
                f"{path}: unknown state preset {obj!r} (use {sorted(STATE_PRESETS)} or a matrix)"
            )
        if dim != 2:
            raise ConfigParseError(f"{path}: preset {obj!r} is 2-dimensional, config dim is {dim}")
        return DensityMatrix.pure(STATE_PRESETS[obj])
    try:
        return DensityMatrix.from_matrix(_parse_matrix(obj, dim, path))
    except SeqMeasError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc


def _require_key(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigParseError(f"{path}: missing required field {key!r}")
    return mapping[key]


@dataclass(frozen=True)
class Sweep:
    """A resolved ``sweep`` block: one config number over a linear grid.

    ``index`` is a fixed-outcome column (``query.fixed_outcomes.<i>``) or,
    with ``sets_sigma``, a stage (``stages.<i>.sigma``). ``spec`` is the raw
    block.
    """

    path: str
    index: int
    sets_sigma: bool
    spec: dict


_OUTCOME_PATH = re.compile(r"query\.fixed_outcomes\.([0-9]+)")
_SIGMA_PATH = re.compile(r"stages\.([0-9]+)\.sigma")


def _parse_sweep(sweep, n_stages: int, n_fixed: int) -> Sweep:
    if not isinstance(sweep, dict):
        raise ConfigParseError("sweep: expected an object")
    for key in ("path", "min", "max", "steps"):
        _require_key(sweep, key, "sweep")
    if not isinstance(sweep["steps"], int) or sweep["steps"] < 2:
        raise ConfigParseError("sweep.steps: expected an integer >= 2")
    path = sweep["path"]
    for pattern, sets_sigma, count in ((_OUTCOME_PATH, False, n_fixed), (_SIGMA_PATH, True, n_stages)):
        match = pattern.fullmatch(path) if isinstance(path, str) else None
        if match and int(match[1]) < count:
            return Sweep(path, int(match[1]), sets_sigma, sweep)
    raise ConfigParseError(
        f"sweep.path: unsupported path {path!r}; use query.fixed_outcomes.<i> "
        f"(0 <= i < {n_fixed}) or stages.<i>.sigma (0 <= i < {n_stages})"
    )


def parse_chain_config(payload: dict) -> tuple[MeasurementChain, ChainQuery, Sweep | None]:
    """Build a chain, query and optional resolved sweep from a parsed config mapping."""
    if not isinstance(payload, dict):
        raise ConfigParseError("top level: expected an object")
    dim = _require_key(payload, "dim", "top level")
    if not isinstance(dim, int) or dim < 2:
        raise ConfigParseError(f"dim: expected an integer >= 2, got {dim!r}")
    initial = _parse_initial_state(_require_key(payload, "initial_state", "top level"), dim, "initial_state")
    stages_cfg = _require_key(payload, "stages", "top level")
    if not isinstance(stages_cfg, list) or not stages_cfg:
        raise ConfigParseError("stages: expected a non-empty array")
    stages = []
    for i, stage_cfg in enumerate(stages_cfg):
        path = f"stages[{i}]"
        if not isinstance(stage_cfg, dict):
            raise ConfigParseError(f"{path}: expected an object")
        obs = _parse_observable(_require_key(stage_cfg, "observable", path), dim, f"{path}.observable")
        sigma = _require_key(stage_cfg, "sigma", path)
        if not isinstance(sigma, (int, float)) or sigma <= 0:
            raise ConfigParseError(f"{path}.sigma: expected a positive number, got {sigma!r}")
        stages.append(
            MeasurementStage(obs, Pointer(float(sigma)), label=str(stage_cfg.get("label", "")))
        )
    query_cfg = _require_key(payload, "query", "top level")
    if not isinstance(query_cfg, dict):
        raise ConfigParseError("query: expected an object")
    free_index = _require_key(query_cfg, "free_index", "query")
    fixed = _require_key(query_cfg, "fixed_outcomes", "query")
    if not isinstance(free_index, int):
        raise ConfigParseError(f"query.free_index: expected an integer, got {free_index!r}")
    if not isinstance(fixed, list) or not all(isinstance(v, (int, float)) for v in fixed):
        raise ConfigParseError("query.fixed_outcomes: expected an array of numbers")
    chain = MeasurementChain(tuple(stages), initial)
    query = ChainQuery(free_index, tuple(float(v) for v in fixed))
    try:
        query.validate_for(chain)
    except ValueError as exc:
        raise ConfigParseError(f"query: {exc}") from exc
    sweep = payload.get("sweep")
    if sweep is not None:
        sweep = _parse_sweep(sweep, len(stages), len(fixed))
    return chain, query, sweep


def _row_case(chain: MeasurementChain, query: ChainQuery, sweep: Sweep | None, value):
    """The chain and query of one sweep row, for the per-row oracles."""
    if sweep is None:
        return chain, query
    if sweep.sets_sigma:
        stages = list(chain.stages)
        stage = stages[sweep.index]
        stages[sweep.index] = MeasurementStage(stage.observable, Pointer(value), label=stage.label)
        return MeasurementChain(tuple(stages), chain.initial_state), query
    fixed = list(query.fixed_outcomes)
    fixed[sweep.index] = value
    return chain, ChainQuery(query.free_index, tuple(fixed))


def cmd_chain(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    chain, query, sweep = parse_chain_config(payload)
    config_hash = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]

    fixed, sigmas = one_row(chain, query.fixed_outcomes)
    values = None
    if sweep is not None:
        grid = _grid(float(sweep.spec["min"]), float(sweep.spec["max"]), int(sweep.spec["steps"]), log=False)
        values = grid.tolist()
        fixed, sigmas = np.repeat(fixed, grid.size, axis=0), np.repeat(sigmas, grid.size, axis=0)
        (sigmas if sweep.sets_sigma else fixed)[:, sweep.index] = grid

    def engine(rows):
        if sweep is not None and sweep.sets_sigma:
            # a config that sets a width <= 0 is malformed at that row
            rows.check(
                grid <= 0.0,
                lambda i: ConfigParseError(
                    f"stages[{sweep.index}].sigma: expected a positive number, got {values[i]!r}"
                ),
            )
        return conditional_stats_rows(chain, query.free_index, fixed, sigmas, rows)

    quad_cfg = QuadratureConfig(abs_tol=args.quad_tol)

    def row(i, result):
        stats = result.stats
        cells = [
            float(stats.mean[i]),
            float(stats.variance[i]),
            float(stats.extracted_system_variance[i]),
        ]
        if args.with_oracles:
            _, _, quad_var = quad_pair_sum_stats(result.density(i), quad_cfg)
            c, q = _row_case(chain, query, sweep, None if values is None else values[i])
            mc_var, mc_se = mc_conditional_variance(
                c, q, SamplerConfig(samples=args.mc_samples, seed=args.seed)
            )
            cells += [float(quad_var), float(mc_var), float(mc_se)]
        if values is not None:
            cells = [values[i]] + cells
        return tuple(cells)

    label = None if sweep is None else (lambda i: f"{sweep.path} = {values[i]!r}")
    rows = _sweep_rows(len(fixed), engine, row, label)
    header = ["mean", "variance", "extracted_variance"]
    if args.with_oracles:
        header += ["quad_variance", "mc_variance", "mc_se"]
    if sweep is not None:
        header = [sweep.path] + header
    extra = [f"config: {args.config}", f"config-sha256: {config_hash}"]
    if args.with_oracles:
        extra += [f"seed: {args.seed}", f"rng: {RNG_ALGORITHM}", f"mc-samples: {args.mc_samples}"]
    meta = _meta_lines(
        f"chain {args.config}"
        + (" --with-oracles" if args.with_oracles else "")
        + (f" --seed {args.seed} --mc-samples {args.mc_samples}" if args.with_oracles else ""),
        extra,
    )
    _emit(args, meta, header, rows)
    return 0


def cmd_validate(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        for check in run_suite(name, seed=args.seed, trials=args.trials):
            status = "ok" if check.passed else "FAIL"
            print(f"{status} {check.name} {check.detail}")
            failures += 0 if check.passed else 1
    print(f"# suites={len(names)} failures={failures} seed={args.seed} rng={RNG_ALGORITHM}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqmeas",
        description="Sequential Gaussian-pointer measurement statistics",
    )
    parser.add_argument("--version", action="version", version=f"seqmeas {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p2 = sub.add_parser("fig2", help="backaction variance vs first-stage strength")
    p2.add_argument("--sigma1-min", type=float, default=0.01)
    p2.add_argument("--sigma1-max", type=float, default=100.0)
    p2.add_argument("--steps", type=int, default=50)
    add_common(p2)
    p2.set_defaults(fn=cmd_fig2)

    p3 = sub.add_parser("fig3", help="forward conditional variance over (x1, sigma1)")
    p3.add_argument("--x1-min", type=float, default=-1.0)
    p3.add_argument("--x1-max", type=float, default=1.0)
    p3.add_argument("--x1-steps", type=int, default=41)
    p3.add_argument("--sigma1-min", type=float, default=0.05)
    p3.add_argument("--sigma1-max", type=float, default=1.0)
    p3.add_argument("--sigma1-steps", type=int, default=8)
    p3.add_argument("--sigma2", type=float, default=0.5)
    add_common(p3)
    p3.set_defaults(fn=cmd_fig3)

    p4 = sub.add_parser("fig4", help="backward conditional variance over (x2, sigma2)")
    p4.add_argument("--x2-min", type=float, default=-1.0)
    p4.add_argument("--x2-max", type=float, default=1.0)
    p4.add_argument("--x2-steps", type=int, default=41)
    p4.add_argument("--sigma2-min", type=float, default=0.1)
    p4.add_argument("--sigma2-max", type=float, default=2.0)
    p4.add_argument("--sigma2-steps", type=int, default=8)
    p4.add_argument("--sigma1", type=float, default=1e3)
    add_common(p4)
    p4.set_defaults(fn=cmd_fig4)

    pc = sub.add_parser("chain", help="evaluate a chain config (JSON)")
    pc.add_argument("config")
    pc.add_argument("--with-oracles", action="store_true", help="add quadrature and Monte Carlo columns")
    pc.add_argument("--seed", type=int, default=12345)
    pc.add_argument("--mc-samples", type=int, default=200_000)
    pc.add_argument("--quad-tol", type=float, default=1e-10)
    add_common(pc)
    pc.set_defaults(fn=cmd_chain)

    pv = sub.add_parser("validate", help="run a module invariant suite")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=1000)
    pv.set_defaults(fn=cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and shared by every later call:
    # parse_args reads the parser and leaves it unchanged
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigParseError, InvalidRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SeqMeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
