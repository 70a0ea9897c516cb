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
import itertools
import json
import math
import re
import reprlib
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__, spin
from .chain import ChainQuery, MeasurementChain, Rotations, one_row, stats_rows
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
from .pointer import WIDTH_RANGE, Pointer, usable_width
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
    columns: Callable[[int, object], Sequence[Sequence[float]]],
    label: Callable[[int], str] | None,
) -> list[list[str]]:
    """CSV cells of an ``n``-row sweep by column: one batched engine call, then whole columns.

    ``engine(rows)`` evaluates every row at once; ``columns(live, result)``
    gives the CSV columns of the rows the engine left live, as Python
    floats. Returns each column's cells, ``list(map(repr, column))``. A
    failure is the one a row-by-row loop would raise first, with
    ``label(exc.row)``, if both are given, in front of the message.
    """
    rows = FirstFailure(n)
    try:
        result = engine(rows)
        values = columns(rows.rows, result)
        rows.raise_first()
    except (SeqMeasError, ValueError) as exc:
        failed = getattr(exc, "row", None)
        if failed is not None and label is not None:
            exc.args = (f"{label(failed)}: {exc}",)
        raise
    return [list(map(repr, column)) for column in values]


def _write_csv(out, meta: Iterable[str], header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write the CSV from columns of cells, streamed row by row without one whole-CSV string.

    Every cell is the shortest ``repr`` of a Python float, as
    :func:`_sweep_rows` and :func:`_grid_cells` build them.
    """
    for line in meta:
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")
    out.writelines(",".join(row) + "\n" for row in zip(*columns))


def _emit(args, meta, header, columns) -> None:
    if args.out is None:
        _write_csv(sys.stdout, meta, header, columns)
        return
    with open(args.out, "w", encoding="utf-8") as out:
        _write_csv(out, meta, header, columns)


def _meta_lines(argv_repr: str, extra: Sequence[str] = ()) -> list[str]:
    return [f"seqmeas {__version__}", f"command: {argv_repr}", *extra]


def _grid(lo: float, hi: float, steps: int, *, log: bool) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi or steps < 2:
        raise InvalidRange(f"need finite min < max and steps >= 2, got ({lo}, {hi}, {steps})")
    # a log-spaced grid is a width: one the width rule refuses leaves the engine no finite state
    if log and not (usable_width(lo) and usable_width(hi)):
        raise InvalidRange(
            "log-spaced grid needs a minimum whose square is a normal float and a maximum whose "
            f"8 sigma^2 is finite, both within {WIDTH_RANGE}, got ({lo}, {hi})"
        )
    try:
        return np.geomspace(lo, hi, steps) if log else np.linspace(lo, hi, steps)
    except (ValueError, OverflowError, IndexError):
        # numpy refuses a size beyond what it can index before allocating
        raise InvalidRange(f"steps = {steps} is beyond the largest array numpy can build") from None


def cmd_fig2(args) -> int:
    grid = _grid(args.sigma1_min, args.sigma1_max, args.steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma1 = grid.tolist()
    cells = _sweep_rows(
        grid.size,
        lambda r: backaction_variance_rows(rho0, sz, grid, sx, r),
        lambda n, generic: (sigma1, spin.var_sx_rho1_closed(grid[:n]).tolist(), generic.tolist()),
        lambda i: f"sigma1 = {sigma1[i]!r}",
    )
    meta = _meta_lines(
        f"fig2 --sigma1-min {args.sigma1_min} --sigma1-max {args.sigma1_max} --steps {args.steps}"
    )
    _emit(args, meta, ["sigma1", "var_sx_rho1_closed", "var_sx_rho1_generic"], cells)
    return 0


def _outer_grid(inner: np.ndarray, outer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # every (inner, outer) pair, inner index fastest
    return np.tile(inner, outer.size), np.repeat(outer, inner.size)


def _grid_cells(inner: np.ndarray, outer: np.ndarray) -> tuple[list[str], list[str]]:
    """The cells of :func:`_outer_grid`'s two columns, one ``repr`` per grid value."""
    inner_cells, outer_cells = list(map(repr, inner.tolist())), list(map(repr, outer.tolist()))
    return inner_cells * len(outer_cells), [cell for cell in outer_cells for _ in inner_cells]


def cmd_fig3(args) -> int:
    x1_grid = _grid(args.x1_min, args.x1_max, args.x1_steps, log=False)
    s1_grid = _grid(args.sigma1_min, args.sigma1_max, args.sigma1_steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma2 = args.sigma2
    x1, s1 = _outer_grid(x1_grid, s1_grid)

    def engine(r):
        sigmas = np.stack((s1, np.full(x1.size, sigma2)), axis=-1)
        rows = stats_rows(Rotations.of(rho0, (sz, sx)), 2, x1[:, None], sigmas, r, "density")
        return rows.stats.extracted_system_variance

    values = _sweep_rows(
        x1.size,
        engine,
        lambda n, generic: (spin.var_sx_given_sz_closed(s1[:n], x1[:n]).tolist(), generic.tolist()),
        lambda i: f"x1 = {float(x1[i])!r}, sigma1 = {float(s1[i])!r}",
    )
    meta = _meta_lines(
        f"fig3 --x1-min {args.x1_min} --x1-max {args.x1_max} --x1-steps {args.x1_steps} "
        f"--sigma1-min {args.sigma1_min} --sigma1-max {args.sigma1_max} "
        f"--sigma1-steps {args.sigma1_steps} --sigma2 {args.sigma2}"
    )
    header = ["x1", "sigma1", "var_sx_given_sz_closed", "var_sx_given_sz_generic"]
    _emit(args, meta, header, [*_grid_cells(x1_grid, s1_grid), *values])
    return 0


def cmd_fig4(args) -> int:
    x2_grid = _grid(args.x2_min, args.x2_max, args.x2_steps, log=False)
    s2_grid = _grid(args.sigma2_min, args.sigma2_max, args.sigma2_steps, log=True)
    rho0, sz, sx = spin.plus_state(), spin.s_z(), spin.s_x()
    sigma1 = args.sigma1
    x2, s2 = _outer_grid(x2_grid, s2_grid)

    def engine(r):
        sigmas = np.stack((np.full(x2.size, sigma1), s2), axis=-1)
        rows = stats_rows(Rotations.of(rho0, (sz, sx)), 1, x2[:, None], sigmas, r, "backward")
        return rows.stats.extracted_system_variance

    values = _sweep_rows(
        x2.size,
        engine,
        lambda n, generic: (spin.var_sz_given_sx_closed(args.sigma1, s2[:n], x2[:n]).tolist(), generic.tolist()),
        lambda i: f"x2 = {float(x2[i])!r}, sigma2 = {float(s2[i])!r}",
    )
    meta = _meta_lines(
        f"fig4 --x2-min {args.x2_min} --x2-max {args.x2_max} --x2-steps {args.x2_steps} "
        f"--sigma2-min {args.sigma2_min} --sigma2-max {args.sigma2_max} "
        f"--sigma2-steps {args.sigma2_steps} --sigma1 {args.sigma1}",
        ["note: values grow without bound for x2 < 0 as sigma2 -> 0; cap for plotting as needed"],
    )
    header = ["x2", "sigma2", "var_sz_given_sx_closed", "var_sz_given_sx_generic"]
    _emit(args, meta, header, [*_grid_cells(x2_grid, s2_grid), *values])
    return 0


def _is_number(value) -> bool:
    """A JSON number: ``bool`` is a subclass of ``int``, but ``true`` is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _shown(value) -> str:
    # a config value in a diagnostic: its repr, elided past a few levels,
    # entries or dozens of characters, so one bad value gives a short line
    return reprlib.repr(value)


def _number(value, path: str, expected: str = "a number") -> float:
    """A config number as a finite float, else a :class:`ConfigParseError` naming ``path``.

    Python's ``json`` reads ``NaN``, ``Infinity`` and integers beyond float range.
    """
    if not _is_number(value):
        raise ConfigParseError(f"{path}: expected {expected}, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigParseError(f"{path}: integer out of float range") from None
    if not math.isfinite(number):
        raise ConfigParseError(f"{path}: expected a finite number, got {_shown(number)}")
    return number


def _parse_complex_entry(entry, path: str) -> complex:
    if _is_number(entry):
        return complex(_number(entry, path))
    if isinstance(entry, list) and len(entry) == 2 and all(_is_number(v) for v in entry):
        return complex(_number(entry[0], path), _number(entry[1], path))
    raise ConfigParseError(f"{path}: expected a number or [re, im] pair, got {_shown(entry)}")


_NUMBER_TYPES = {int, float}


def _parse_matrix(obj, dim: int, path: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigParseError(f"{path}: expected a {dim}x{dim} matrix")
    # whole-matrix conversion when every entry is a number, or every entry
    # an [re, im] pair of numbers; the exact type scan keeps out bools
    # and strings, which np.array would convert silently. An integer
    # beyond float range or a non-finite entry is left to the entry walk.
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {dim}:
        entries = list(itertools.chain.from_iterable(obj))
        kinds = set(map(type, entries))
        matrix = None
        try:
            if kinds <= _NUMBER_TYPES:
                matrix = np.array(obj, dtype=complex)
            elif (
                kinds == {list}
                and set(map(len, entries)) == {2}
                and set(map(type, itertools.chain.from_iterable(entries))) <= _NUMBER_TYPES
            ):
                # a view keeps each part's bits, signed zeros included
                matrix = np.array(obj, dtype=float).view(complex)[..., 0]
        except OverflowError:
            pass
        if matrix is not None and np.isfinite(matrix).all():
            return matrix
    # anything else entry by entry, naming the first bad one
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigParseError(f"{path}[{i}]: expected {dim} entries")
        rows.append([_parse_complex_entry(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _preset_observable(name: str, dim: int, path: str) -> Observable:
    if name == "Sz":
        preset = spin.s_z()
    elif name == "Sx":
        preset = spin.s_x()
    else:
        raise ConfigParseError(f"{path}: unknown observable preset {_shown(name)} (use Sz, Sx or a matrix)")
    if dim != 2:
        raise ConfigParseError(f"{path}: preset {name!r} is 2-dimensional, config dim is {dim}")
    return preset


def _parse_initial_state(obj, dim: int, path: str) -> DensityMatrix:
    if isinstance(obj, str):
        if obj not in STATE_PRESETS:
            raise ConfigParseError(
                f"{path}: unknown state preset {_shown(obj)} (use {sorted(STATE_PRESETS)} or a matrix)"
            )
        if dim != 2:
            raise ConfigParseError(f"{path}: preset {obj!r} is 2-dimensional, config dim is {dim}")
        return DensityMatrix.pure(STATE_PRESETS[obj])
    matrix = _parse_matrix(obj, dim, path)
    try:
        return DensityMatrix.from_matrix(matrix)
    except (SeqMeasError, ValueError) as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc


def _width_error(path: str, sigma: float, shown: str) -> ConfigParseError:
    """The diagnostic of a config width the width rule (:func:`~seqmeas.pointer.usable_width`) refuses."""
    if sigma <= 0:
        return ConfigParseError(f"{path}: expected a positive number, got {shown}")
    return ConfigParseError(f"{path}: expected a width within {WIDTH_RANGE}, got {shown}")


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
            break
    else:
        raise ConfigParseError(
            f"sweep.path: unsupported path {_shown(path)}; use query.fixed_outcomes.<i> "
            f"(0 <= i < {n_fixed}) or stages.<i>.sigma (0 <= i < {n_stages})"
        )
    for key in ("min", "max"):
        _number(sweep[key], f"sweep.{key}")
    return Sweep(path, int(match[1]), sets_sigma, sweep)


def parse_chain_config(payload: dict) -> tuple[MeasurementChain, ChainQuery, Sweep | None]:
    """Build a chain, query and optional resolved sweep from a parsed config mapping."""
    if not isinstance(payload, dict):
        raise ConfigParseError("top level: expected an object")
    dim = _require_key(payload, "dim", "top level")
    if not isinstance(dim, int) or dim < 2:
        raise ConfigParseError(f"dim: expected an integer >= 2, got {_shown(dim)}")
    initial = _parse_initial_state(_require_key(payload, "initial_state", "top level"), dim, "initial_state")
    stages_cfg = _require_key(payload, "stages", "top level")
    if not isinstance(stages_cfg, list) or not stages_cfg:
        raise ConfigParseError("stages: expected a non-empty array")
    # matrix observables are collected and built by one stacked spectral
    # construction; it runs before any stage error is raised, so a matrix
    # that fails it is reported first, as its own stage's error
    parsed, matrices, matrix_stages = [], [], []

    def build_matrices() -> list[Observable]:
        try:
            return Observable.from_matrices(matrices) if matrices else []
        except (SeqMeasError, ValueError) as exc:
            raise ConfigParseError(f"stages[{matrix_stages[exc.row]}].observable: {exc}") from exc

    for i, stage_cfg in enumerate(stages_cfg):
        path = f"stages[{i}]"
        try:
            if not isinstance(stage_cfg, dict):
                raise ConfigParseError(f"{path}: expected an object")
            obs_cfg = _require_key(stage_cfg, "observable", path)
            obs = None
            if isinstance(obs_cfg, str):
                obs = _preset_observable(obs_cfg, dim, f"{path}.observable")
            else:
                matrices.append(_parse_matrix(obs_cfg, dim, f"{path}.observable"))
                matrix_stages.append(i)
            raw = _require_key(stage_cfg, "sigma", path)
            sigma = _number(raw, f"{path}.sigma", "a positive number")
            if not usable_width(sigma):
                raise _width_error(f"{path}.sigma", sigma, _shown(raw))
        except ConfigParseError:
            build_matrices()
            raise
        parsed.append((obs, sigma))
    built = iter(build_matrices())
    stages = [MeasurementStage(next(built) if obs is None else obs, Pointer(sigma)) for obs, sigma in parsed]
    query_cfg = _require_key(payload, "query", "top level")
    if not isinstance(query_cfg, dict):
        raise ConfigParseError("query: expected an object")
    free_index = _require_key(query_cfg, "free_index", "query")
    fixed = _require_key(query_cfg, "fixed_outcomes", "query")
    if not isinstance(free_index, int) or isinstance(free_index, bool):
        raise ConfigParseError(f"query.free_index: expected an integer, got {_shown(free_index)}")
    if not isinstance(fixed, list) or not all(_is_number(v) for v in fixed):
        raise ConfigParseError("query.fixed_outcomes: expected an array of numbers")
    chain = MeasurementChain(tuple(stages), initial)
    query = ChainQuery(free_index, tuple(_number(v, f"query.fixed_outcomes[{i}]") for i, v in enumerate(fixed)))
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
        stages[sweep.index] = MeasurementStage(stage.observable, Pointer(value))
        return MeasurementChain(tuple(stages), chain.initial_state), query
    fixed = list(query.fixed_outcomes)
    fixed[sweep.index] = value
    return chain, ChainQuery(query.free_index, tuple(fixed))


def cmd_chain(args) -> int:
    # one read, parsed and hashed: the hash is what `sha256sum` prints. Strict
    # UTF-8 leaves a BOM for the decoder to report, and bytes keep CRLF lines
    # untranslated, which leaves error columns as for LF.
    try:
        with open(args.config, "rb") as fh:
            data = fh.read()
        payload = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # bytes that are not UTF-8, or an integer literal past Python's digit limit
        raise ConfigParseError(f"{args.config}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigParseError(f"{args.config}: JSON nested too deeply to decode") from exc

    chain, query, sweep = parse_chain_config(payload)
    config_hash = hashlib.sha256(data).hexdigest()[:16]

    fixed, sigmas = one_row(chain, query.fixed_outcomes)
    values = None
    if sweep is not None:
        grid = _grid(float(sweep.spec["min"]), float(sweep.spec["max"]), int(sweep.spec["steps"]), log=False)
        values = grid.tolist()
        fixed, sigmas = np.repeat(fixed, grid.size, axis=0), np.repeat(sigmas, grid.size, axis=0)
        (sigmas if sweep.sets_sigma else fixed)[:, sweep.index] = grid

    def engine(rows):
        if sweep is not None and sweep.sets_sigma:
            # a config that sets a width the width rule refuses is malformed at that row
            rows.check(
                ~usable_width(grid), lambda i: _width_error(f"stages[{sweep.index}].sigma", grid[i], repr(values[i]))
            )
        rotations = Rotations.of(chain.initial_state, chain.observables)
        return stats_rows(rotations, query.free_index, fixed, sigmas, rows, "conditional")

    quad_cfg = QuadratureConfig(abs_tol=args.quad_tol)

    def oracles(i, result) -> tuple[float, float, float]:
        try:
            _, _, quad_var = quad_pair_sum_stats(result.density(i), quad_cfg)
            c, q = _row_case(chain, query, sweep, None if values is None else values[i])
            mc_var, mc_se = mc_conditional_variance(
                c, q, SamplerConfig(samples=args.mc_samples, seed=args.seed)
            )
        except (SeqMeasError, ValueError) as exc:
            exc.row = getattr(exc, "row", i)
            raise
        return float(quad_var), float(mc_var), float(mc_se)

    def columns(n, result):
        stats = result.stats
        stat_columns = [stats.mean.tolist(), stats.variance.tolist(), stats.extracted_system_variance.tolist()]
        if args.with_oracles:
            stat_columns += zip(*(oracles(i, result) for i in range(n)))
        return stat_columns if values is None else [values] + stat_columns

    label = None if sweep is None else (lambda i: f"{sweep.path} = {values[i]!r}")
    cells = _sweep_rows(len(fixed), engine, columns, label)
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
    _emit(args, meta, header, cells)
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


def _bounded(convert, ok, expected: str):
    """An argparse type: ``convert`` the text, then refuse a value outside ``ok`` at parse time."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # "invalid float value" for text that is not a number
    return parse


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0.0


_WIDTH = _bounded(float, usable_width, f"a finite positive width within {WIDTH_RANGE}")
_SEED = _bounded(int, lambda v: v >= 0, "a seed >= 0")


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
    p3.add_argument("--sigma2", type=_WIDTH, default=0.5)
    add_common(p3)
    p3.set_defaults(fn=cmd_fig3)

    p4 = sub.add_parser("fig4", help="backward conditional variance over (x2, sigma2)")
    p4.add_argument("--x2-min", type=float, default=-1.0)
    p4.add_argument("--x2-max", type=float, default=1.0)
    p4.add_argument("--x2-steps", type=int, default=41)
    p4.add_argument("--sigma2-min", type=float, default=0.1)
    p4.add_argument("--sigma2-max", type=float, default=2.0)
    p4.add_argument("--sigma2-steps", type=int, default=8)
    p4.add_argument("--sigma1", type=_WIDTH, default=1e3)
    add_common(p4)
    p4.set_defaults(fn=cmd_fig4)

    pc = sub.add_parser("chain", help="evaluate a chain config (JSON)")
    pc.add_argument("config")
    pc.add_argument("--with-oracles", action="store_true", help="add quadrature and Monte Carlo columns")
    pc.add_argument("--seed", type=_SEED, default=12345)
    pc.add_argument("--mc-samples", type=_bounded(int, lambda v: v >= 3, "at least 3 samples"), default=200_000)
    pc.add_argument("--quad-tol", type=_bounded(float, _finite_positive, "a finite positive tolerance"), default=1e-10)
    add_common(pc)
    pc.set_defaults(fn=cmd_chain)

    pv = sub.add_parser("validate", help="run a module invariant suite")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--seed", type=_SEED, default=0)
    pv.add_argument("--trials", type=_bounded(int, lambda v: v >= 1, "at least 1 trial"), default=1000)
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
    except (SeqMeasError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
