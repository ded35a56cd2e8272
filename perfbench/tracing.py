"""Spans and counters around calls into tritterlab, installed from outside the package.

Wrappers replace public functions in their defining module and in every
``tritterlab`` module that imported them by name (``tritterlab.cli`` imports
``reconstruct_mle``, ``postselect_coincidence`` and others directly), so a call
is seen whichever name it goes through. A span records its name, start, end
and the span that was open when it began. Spans are kept in compact arrays,
because a traced scan makes hundreds of thousands of permanent calls, and are
written out when the run ends. A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import tritterlab.calibration as calibration
import tritterlab.cli as cli
import tritterlab.interference as interference
import tritterlab.states as states
import tritterlab.tomography as tomography

ROOT_SPAN = "bench.op"


class Tracer:
    """In-memory span log of one thread of work."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans must be listed in the order they were opened, so each parent's
    children arrive sorted by start and their union is a running merge.
    """
    n = len(starts)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(tracer: Tracer) -> dict[str, SpanStats]:
    """Calls, total time and self time per span name."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    stats = {name: SpanStats() for name in tracer.names}
    for i, name_id in enumerate(tracer.name_ids):
        entry = stats[tracer.names[name_id]]
        entry.calls += 1
        entry.total_s += tracer.ends[i] - tracer.starts[i]
        entry.self_s += selfs[i]
    return stats


@dataclass
class FitCounter:
    """Counts at the ``reconstruct_mle`` boundary; a raised fit counts as unconverged."""

    calls: int = 0
    unconverged: int = 0
    iterations: int = 0
    iterations_max: int = 0

    def record(self, result) -> None:
        self.calls += 1
        self.unconverged += not result.converged
        self.iterations += result.iterations
        self.iterations_max = max(self.iterations_max, result.iterations)

    def record_raise(self) -> None:
        self.calls += 1
        self.unconverged += 1


def counting(fits: FitCounter):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                fits.record_raise()
                raise
            fits.record(result)
            return result

        return wrapper

    return factory


def spanned(tracer: Tracer, name: str, label=None):
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(label(args, kwargs) if label else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    return factory


def _permanent_label(args, kwargs) -> str:
    n = np.shape(args[0] if args else kwargs["m"])[0]
    bucket = "n1_3" if n <= 3 else "n4_6" if n <= 6 else "n7_12"
    return f"interference.permanent[{bucket}]"


def _postselect_label(args, kwargs) -> str:
    config = args[1] if len(args) > 1 else kwargs["config"]
    return f"interference.postselect_coincidence[{'d1' if config.spectral_dim == 1 else 'd3'}]"


class Patch:
    """Context manager swapping each ``(owner, attribute, factory)`` target for its wrapper.

    A module-level function is replaced in every loaded ``tritterlab`` module
    that holds it under any name; a class attribute only on its class. The
    holders are found once, so entering and leaving is cheap.
    """

    def __init__(self, targets):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "tritterlab" or name.startswith("tritterlab.")
        ]
        self._swaps = []
        for owner, attr, factory in targets:
            original = vars(owner)[attr]
            wrapped = factory(original)
            holders = modules if isinstance(owner, types.ModuleType) else [owner]
            for holder in holders:
                for name, value in vars(holder).items():
                    if value is original:
                        self._swaps.append((holder, name, original, wrapped))

    def __enter__(self):
        for holder, name, _, wrapped in self._swaps:
            setattr(holder, name, wrapped)
        return self

    def __exit__(self, *exc_info):
        for holder, name, original, _ in reversed(self._swaps):
            setattr(holder, name, original)


def fit_counter_targets(fits: FitCounter) -> list:
    """The counting-only wrapper of the untraced run: one Python call per fit."""
    return [(tomography, "reconstruct_mle", counting(fits))]


def span_targets(tracer: Tracer, fits: FitCounter) -> list:
    """Every public function the per-layer metrics need, wrapped in a span."""

    def span(module, attr, label=None):
        short = module.__name__.rsplit(".", 1)[-1]
        return (module, attr, spanned(tracer, f"{short}.{attr}", label))

    fit_span = spanned(tracer, "tomography.reconstruct_mle")
    count_fit = counting(fits)
    return [
        span(interference, "permanent", _permanent_label),
        span(interference, "postselect_coincidence", _postselect_label),
        span(interference, "output_distribution"),
        span(interference, "pair_coincidence_probability"),
        span(states, "fidelity"),
        span(states, "witness_report"),
        span(calibration, "sinkhorn_magnitudes"),
        span(calibration, "hom_scan"),
        span(calibration, "fit_gaussian"),
        span(tomography, "simulate_counts"),
        (tomography, "reconstruct_mle", lambda fn: fit_span(count_fit(fn))),
        span(tomography, "monte_carlo_uncertainty"),
        span(cli, "run_generate"),
        span(cli, "write_report"),
        (tomography.CountsTable, "to_csv", spanned(tracer, "tomography.CountsTable.to_csv")),
    ]


#: per-layer metric name -> unit; the order BENCHMARK.json lists them in
PER_LAYER_UNITS = {
    "tomography.reconstruct_mle.calls": "count/op",
    "tomography.reconstruct_mle.self_pct": "%",
    "tomography.reconstruct_mle.iterations": "count/op",
    "tomography.reconstruct_mle.iterations_max": "count",
    "tomography.reconstruct_mle.unconverged": "count/op",
    "tomography.monte_carlo_uncertainty.calls": "count/op",
    "tomography.monte_carlo_uncertainty.self_pct": "%",
    "tomography.simulate_counts.self_pct": "%",
    "interference.permanent.calls_n1_3": "count/op",
    "interference.permanent.calls_n4_6": "count/op",
    "interference.permanent.calls_n7_12": "count/op",
    "interference.permanent.self_pct_n1_3": "%",
    "interference.permanent.self_pct_n4_6": "%",
    "interference.permanent.self_pct_n7_12": "%",
    "interference.postselect_coincidence.calls": "count/op",
    "interference.postselect_coincidence.self_pct_d1": "%",
    "interference.postselect_coincidence.self_pct_d3": "%",
    "interference.output_distribution.calls": "count/op",
    "interference.output_distribution.self_pct": "%",
    "interference.pair_coincidence_probability.calls": "count/op",
    "calibration.hom_scan.self_pct": "%",
    "calibration.fit_gaussian.self_pct": "%",
    "calibration.sinkhorn_magnitudes.self_pct": "%",
    "states.fidelity.calls": "count/op",
    "states.fidelity.self_pct": "%",
    "states.witness_report.self_pct": "%",
    "cli.run_generate.self_pct": "%",
    "cli.io_pct": "%",
    "bench.op.self_pct": "%",
    "trace.ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def layer_metrics(
    stats: dict[str, SpanStats], fits: FitCounter, untraced_s: float
) -> dict[str, float]:
    """Per-layer values of a traced run.

    Counts are per traced operation and self times are shares of the traced
    operations' wall time, so both compare across runs of different length.
    ``untraced_s`` is the untraced time of the same operations, which gives
    the tracing overhead.
    """
    root = stats.get(ROOT_SPAN, SpanStats())
    ops = max(root.calls, 1)
    op_time = root.total_s or 1.0

    def get(name):
        return stats.get(name, SpanStats())

    def per_op(*names):
        return sum(get(n).calls for n in names) / ops

    def pct(*names, field="self_s"):
        return 100.0 * sum(getattr(get(n), field) for n in names) / op_time

    perm = {b: f"interference.permanent[{b}]" for b in ("n1_3", "n4_6", "n7_12")}
    post = {d: f"interference.postselect_coincidence[{d}]" for d in ("d1", "d3")}
    values = {
        "tomography.reconstruct_mle.calls": per_op("tomography.reconstruct_mle"),
        "tomography.reconstruct_mle.self_pct": pct("tomography.reconstruct_mle"),
        "tomography.reconstruct_mle.iterations": fits.iterations / ops,
        "tomography.reconstruct_mle.iterations_max": fits.iterations_max,
        "tomography.reconstruct_mle.unconverged": fits.unconverged / ops,
        "tomography.monte_carlo_uncertainty.calls": per_op("tomography.monte_carlo_uncertainty"),
        "tomography.monte_carlo_uncertainty.self_pct": pct("tomography.monte_carlo_uncertainty"),
        "tomography.simulate_counts.self_pct": pct("tomography.simulate_counts"),
        "interference.postselect_coincidence.calls": per_op(*post.values()),
        "interference.postselect_coincidence.self_pct_d1": pct(post["d1"]),
        "interference.postselect_coincidence.self_pct_d3": pct(post["d3"]),
        "interference.output_distribution.calls": per_op("interference.output_distribution"),
        "interference.output_distribution.self_pct": pct("interference.output_distribution"),
        "interference.pair_coincidence_probability.calls": per_op(
            "interference.pair_coincidence_probability"
        ),
        "calibration.hom_scan.self_pct": pct("calibration.hom_scan"),
        "calibration.fit_gaussian.self_pct": pct("calibration.fit_gaussian"),
        "calibration.sinkhorn_magnitudes.self_pct": pct("calibration.sinkhorn_magnitudes"),
        "states.fidelity.calls": per_op("states.fidelity"),
        "states.fidelity.self_pct": pct("states.fidelity"),
        "states.witness_report.self_pct": pct("states.witness_report"),
        "cli.run_generate.self_pct": pct("cli.run_generate"),
        "cli.io_pct": pct("cli.write_report", "tomography.CountsTable.to_csv", field="total_s"),
        "bench.op.self_pct": pct(ROOT_SPAN),
        "trace.ops_per_s": root.calls / op_time,
        "trace.overhead_pct": 100.0 * (op_time / untraced_s - 1.0) if untraced_s > 0 else 0.0,
    }
    for bucket, name in perm.items():
        values[f"interference.permanent.calls_{bucket}"] = per_op(name)
        values[f"interference.permanent.self_pct_{bucket}"] = pct(name)
    return {name: values[name] for name in PER_LAYER_UNITS}
