"""Spans around the library's public functions, installed from outside.

Each listed function is replaced, in every ``seqmeas`` module namespace
that binds it (``from x import y`` copies included), by a wrapper that
records a span: name, start, end, parent span and job id. Spans are kept
in compact arrays and written out at the end. Calls, busy time and self
time (busy time minus the time covered by child spans) are accumulated as
spans close. Counters are taken at the same boundaries from the
arguments and results. A listed function that no longer exists is
skipped and its metrics read ``None``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

import numpy as np

#: (layer name, module, attribute). Two attributes may share a layer name.
TARGETS = (
    ("cli.main", "seqmeas.cli", "main"),
    ("cli.parse_chain_config", "seqmeas.cli", "parse_chain_config"),
    ("core.Observable.from_matrix", "seqmeas.core", "Observable.from_matrix"),
    ("core.DensityMatrix.init", "seqmeas.core", "DensityMatrix.__init__"),
    ("kraus.scaled_kraus_weights", "seqmeas.kraus", "scaled_kraus_weights"),
    ("pointer.GaussianPairSum.init", "seqmeas.pointer", "GaussianPairSum.__init__"),
    ("pointer.GaussianPairSum.moment", "seqmeas.pointer", "GaussianPairSum.moment"),
    ("pointer.GaussianPairSum.moment", "seqmeas.pointer", "GaussianPairSum.center_second_moment"),
    ("pointer.GaussianPairSum.value", "seqmeas.pointer", "GaussianPairSum.value"),
    ("conditional.forward_stats", "seqmeas.conditional", "forward_stats"),
    ("conditional.backward_stats", "seqmeas.conditional", "backward_stats"),
    ("joint.backaction_variance", "seqmeas.joint", "backaction_variance"),
    ("chain.conditional_stats_k", "seqmeas.chain", "conditional_stats_k"),
    ("chain.chain_state", "seqmeas.chain", "chain_state"),
    ("chain.effect_chain", "seqmeas.chain", "effect_chain"),
    ("mpur.conditional_mpur_sum", "seqmeas.mpur", "conditional_mpur_sum"),
    ("spin.var_sx_rho1_closed", "seqmeas.spin", "var_sx_rho1_closed"),
    ("spin.var_sx_given_sz_closed", "seqmeas.spin", "var_sx_given_sz_closed"),
    ("spin.var_sz_given_sx_closed", "seqmeas.spin", "var_sz_given_sx_closed"),
    ("oracle.quad_pair_sum_stats", "seqmeas.oracle", "quad_pair_sum_stats"),
    ("oracle.sample_chain", "seqmeas.oracle", "sample_chain"),
    ("oracle.mc_conditional_variance", "seqmeas.oracle", "mc_conditional_variance"),
    ("validate.run_suite", "seqmeas.validate", "run_suite"),
)

#: Layers whose calls reach other traced layers; they also report self time.
WITH_CHILDREN = frozenset({
    "cli.main", "cli.parse_chain_config", "conditional.forward_stats",
    "conditional.backward_stats", "joint.backaction_variance", "chain.conditional_stats_k",
    "chain.chain_state", "chain.effect_chain", "mpur.conditional_mpur_sum",
    "oracle.quad_pair_sum_stats", "oracle.sample_chain", "oracle.mc_conditional_variance",
    "validate.run_suite",
})

#: Counters: (metric name, unit, layer whose presence they need).
COUNTERS = (
    ("cli.csv_bytes", "bytes", "cli.main"),
    ("pointer.pair_terms", "terms/sum", "pointer.GaussianPairSum.init"),
    ("pointer.value_points", "count", "pointer.GaussianPairSum.value"),
    ("chain.stage_folds", "count", "chain.chain_state"),
    ("oracle.quad_integrand_evals", "count", "oracle.quad_pair_sum_stats"),
    ("oracle.samples_drawn", "count", "oracle.sample_chain"),
    ("oracle.mc_proposals", "count", "oracle.mc_conditional_variance"),
    ("oracle.mc_accept_ratio", "ratio", "oracle.mc_conditional_variance"),
    ("validate.checks", "count", "validate.run_suite"),
)


def layer_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        if name in WITH_CHILDREN:
            units[f"{name}.self_s"] = "s"
    for name, unit, _ in COUNTERS:
        units[name] = unit
    return units


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_pair_terms(tracer, args, kwargs, result, token):
    tracer.counts["pointer.sums_built"] += 1
    tracer.counts["pointer.terms_built"] += len(args[0].coeffs)


def _count_value_points(tracer, args, kwargs, result, token):
    n = int(np.size(_arg(args, kwargs, 1, "x")))
    tracer.counts["pointer.value_points"] += n
    if tracer.open_depth["oracle.quad_pair_sum_stats"]:
        tracer.counts["oracle.quad_integrand_evals"] += n
    if tracer.open_depth["oracle.mc_conditional_variance"]:
        tracer.counts["oracle.mc_proposals"] += n


def _count_folds(tracer, args, kwargs, result, token):
    tracer.counts["chain.stage_folds"] += len(_arg(args, kwargs, 1, "outcomes"))


def _count_samples(tracer, args, kwargs, result, token):
    tracer.counts["oracle.samples_drawn"] += int(np.shape(result)[0])


def _mc_before(tracer, args, kwargs):
    return tracer.counts["oracle.mc_proposals"]


def _count_mc(tracer, args, kwargs, result, token):
    # the rejection branch evaluates the target density once per proposal;
    # the direct branch proposes nothing and keeps every draw
    if tracer.counts["oracle.mc_proposals"] > token:
        tracer.counts["oracle.mc_kept"] += _arg(args, kwargs, 2, "cfg").samples


def _count_checks(tracer, args, kwargs, result, token):
    tracer.counts["validate.checks"] += len(result)


HOOKS = {
    "pointer.GaussianPairSum.init": (None, _count_pair_terms),
    "pointer.GaussianPairSum.value": (None, _count_value_points),
    "chain.chain_state": (None, _count_folds),
    "chain.effect_chain": (None, _count_folds),
    "oracle.sample_chain": (None, _count_samples),
    "oracle.mc_conditional_variance": (_mc_before, _count_mc),
    "validate.run_suite": (None, _count_checks),
}


class Tracer:
    """Span recorder; inactive until :meth:`install` and outside :meth:`paused`."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.installed: set[str] = set()
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.open_depth = defaultdict(int)
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_job = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        before, after = HOOKS.get(name, (None, None))
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(tracer, args, kwargs) if before else None
            tracer._enter(name, name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if after:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    def _enter(self, name: str, name_id: int) -> None:
        index = len(self._span_start)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_job.append(self.job)
        self._span_end.append(0.0)
        self.open_depth[name] += 1
        start = time.perf_counter()
        self._span_start.append(start)
        self._stack.append([index, start, 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        index, start, child = self._stack.pop()
        self._span_end[index] = end
        duration = end - start
        self.open_depth[name] -= 1
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, amount: float) -> None:
        if self.active:
            self.counts[name] += amount

    @contextmanager
    def paused(self):
        """Run benchmark-side work (generation, checks) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function that exists; start recording."""
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or fn_name not in vars(owner):
                continue
            raw = vars(owner)[fn_name]
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                self._patch(owner, fn_name, patched)
            else:
                traced = self._wrap(name, raw)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "seqmeas" and not mod_name.startswith("seqmeas."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, traced)
            self.installed.add(name)
        self.active = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def metrics(self) -> dict[str, float | None]:
        """Per-layer values named as in :func:`metric_units`."""
        out: dict[str, float | None] = {}
        for name in layer_names():
            present = name in self.installed
            out[f"{name}.calls"] = self.calls[name] if present else None
            out[f"{name}.busy_s"] = self.busy[name] if present else None
            if name in WITH_CHILDREN:
                out[f"{name}.self_s"] = self.self_time[name] if present else None
        c = self.counts
        derived = {
            "pointer.pair_terms": c["pointer.terms_built"] / c["pointer.sums_built"]
            if c["pointer.sums_built"] else 0.0,
            "oracle.mc_accept_ratio": c["oracle.mc_kept"] / c["oracle.mc_proposals"]
            if c["oracle.mc_proposals"] else 0.0,
        }
        for name, _, layer in COUNTERS:
            value = derived.get(name, c[name])
            out[name] = value if layer in self.installed else None
        return out

    def write_spans(self, path) -> None:
        """Save every span (name, start, end, parent, job) as an ``.npz`` file."""
        names = sorted(self._name_ids, key=self._name_ids.get)
        np.savez(
            path,
            names=np.array(names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            job=np.frombuffer(self._span_job, dtype=np.int32),
        )
