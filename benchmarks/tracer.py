"""In-memory span tracer that wraps gsdelay's public functions from outside.

Each traced function is replaced, in every loaded ``gsdelay`` module that
holds it under its public name, by a wrapper that records one span: span
name, start, end, parent span and the current op id. Calls made between
modules go through those module attributes, so the wrappers see every call a
module makes into another layer without any edit to the library. A name the
library no longer defines is reported as missing and its metrics as absent;
the run goes on.

A function behind ``functools.lru_cache`` is wrapped outside its cache, and
only calls that miss the cache leave a span.

Spans are kept in flat arrays (a few tens of bytes each) and written out
once, at the end of the run. Only the thread that installed the tracer
records spans; calls from worker threads pass straight through and are
counted, so a pool added to the library cannot corrupt the span stack.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import statistics
import threading
from array import array
from collections import defaultdict
from time import perf_counter

# op ids of spans outside the timed ops: set-up, and output checks between ops
SETUP_OP = -1
CHECK_OP = -2


def _recursion_kernel(args, kwargs, result):
    """(K - 1) * nodes^2 of one exit_probabilities call (nodes bumped to odd)."""
    problem = args[0] if args else kwargs["problem"]
    nodes = args[1] if len(args) > 1 else kwargs.get("nodes")
    if nodes is None:
        nodes = sys.modules["gsdelay.sequential"].DEFAULT_NODES
    n = nodes if nodes % 2 == 1 else nodes + 1
    return (problem.num_stages - 1) * n * n


def _row_count(args, kwargs, result):
    return len(result.rows)


# (layer, defining module, attribute path, size hook). The attribute path is
# looked up in the defining module; a dotted path names a method of a class.
TARGETS = (
    ("sequential", "gsdelay.sequential", "exit_probabilities", _recursion_kernel),
    ("boundaries.wt", "gsdelay.boundaries", "wt_boundaries", None),
    ("boundaries.hsd", "gsdelay.boundaries", "spending_boundaries", None),
    ("design", "gsdelay.design", "build_design", None),
    # the sweeps, the case study and verify_all build through this cache, which
    # holds the unwrapped build_design; only its misses are recorded
    ("design", "gsdelay.reports", "_build_cached", None),
    ("recruitment", "gsdelay.recruitment", "pipeline_counts", None),
    ("recruitment", "gsdelay.recruitment", "recruit_time", None),
    ("delay", "gsdelay.delay", "assess_delay", None),
    ("delay", "gsdelay.delay", "ess_delay", None),
    ("delay", "gsdelay.delay", "efficiency_loss", None),
    ("delay", "gsdelay.delay", "expected_time", None),
    ("reports", "gsdelay.reports", "run_sweep", _row_count),
    ("reports", "gsdelay.reports", "ResultTable.to_csv", None),
    ("simulate", "gsdelay.simulate", "simulate", None),
    ("scenario", "gsdelay.scenario", "parse_scenario", None),
    ("scenario", "gsdelay.scenario", "load_scenario", None),
)


class Tracer:
    """Wraps the TARGETS while installed and records their spans."""

    def __init__(self):
        self.names: list[str] = []  # span name per name id
        self.layers: list[str] = []  # layer per name id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("q")
        self.op_id = SETUP_OP
        self.missing: list[str] = []
        self.foreign_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._thread = None

    def install(self) -> None:
        """Wrap every target that exists; warn about each one that does not."""
        self._thread = threading.get_ident()
        for layer, module_name, path, hook in TARGETS:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if label not in self.missing:
                    self.missing.append(label)
                    print(f"warning: trace target {label} not found; its metrics are absent",
                          file=sys.stderr)
                continue
            if label not in self.names:
                self.names.append(label)
                self.layers.append(layer)
            wrapper = self._wrap(self.names.index(label), original, hook)
            holders = [owner] if outer else [
                m for n, m in list(sys.modules.items())
                if (n == "gsdelay" or n.startswith("gsdelay.")) and getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, name_id: int, fn, hook):
        cached = fn if hasattr(fn, "cache_info") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                self.foreign_calls += 1
                return fn(*args, **kwargs)
            misses = cached.cache_info().misses if cached else None
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.size.append(0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if cached and cached.cache_info().misses == misses:
                # a cache hit calls nothing, so its span is the last one: drop it
                for column in (self.name, self.start, self.end, self.parent, self.op, self.size):
                    column.pop()
                return result
            if hook is not None:
                self.size[idx] = hook(args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,op,size."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as out:
            out.write("name,start,end,parent,op,size\n")
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                          f"{self.parent[i]},{self.op[i]},{self.size[i]}\n")

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer metrics over the spans of timed ops (op id >= 0).

        A layer's calls are the entries into it from another layer, and its
        call_us_p50 the median inclusive duration of those entries. Ratios
        and medians over no calls read 0. scenario.self_s covers the set-up
        spans instead, because scenario text is parsed during set-up. A
        metric of a layer with a missing target is None (absent).
        """
        own = self.self_times()
        group = [layer.split(".")[0] for layer in self.layers]  # per name id
        timed: dict[str, list[int]] = defaultdict(list)
        for i, (name_id, op) in enumerate(zip(self.name, self.op)):
            if op >= 0:
                timed[self.layers[name_id]].append(i)

        def spans(layer_group: str) -> list[int]:
            return [i for layer, ix in timed.items() if layer.split(".")[0] == layer_group for i in ix]

        def self_s(layer_group: str, ops=None) -> float:
            if ops is None:
                return sum(own[i] for i in spans(layer_group))
            return sum(own[i] for i, name_id in enumerate(self.name)
                       if group[name_id] == layer_group and self.op[i] in ops)

        def entries(layer_group: str) -> list[int]:
            return [i for i in spans(layer_group)
                    if self.parent[i] < 0 or group[self.name[self.parent[i]]] != layer_group]

        def parent_layer(i: int) -> str | None:
            p = self.parent[i]
            return None if p < 0 else self.layers[self.name[p]]

        def under(i: int, layer_group: str) -> bool:
            p = self.parent[i]
            while p >= 0:
                if group[self.name[p]] == layer_group:
                    return True
                p = self.parent[p]
            return False

        def per(count: float, base: float) -> float:
            return count / base if base else 0.0

        def p50_us(ix: list[int]) -> float:
            return statistics.median(self.end[i] - self.start[i] for i in ix) * 1e6 if ix else 0.0

        seq = timed["sequential"]
        wt, hsd, builds = timed["boundaries.wt"], timed["boundaries.hsd"], timed["design"]
        kernel_evals = sum(self.size[i] for i in seq)
        rows = sum(self.size[i] for i in spans("reports"))
        metrics = {
            "sequential.calls": len(seq),
            "sequential.self_s": self_s("sequential"),
            "sequential.call_us_p50": p50_us(seq),
            "sequential.kernel_evals": kernel_evals,
            "sequential.kernel_mb": kernel_evals * 8 / 1e6,
            "boundaries.solves": len(wt) + len(hsd),
            "boundaries.self_s": self_s("boundaries"),
            "boundaries.wt.recursions_per_solve":
                per(sum(parent_layer(i) == "boundaries.wt" for i in seq), len(wt)),
            "boundaries.hsd.recursions_per_solve":
                per(sum(parent_layer(i) == "boundaries.hsd" for i in seq), len(hsd)),
            "design.builds": len(builds),
            "design.self_s": self_s("design"),
            "design.power_recursions_per_build":
                per(sum(parent_layer(i) == "design" for i in seq), len(builds)),
            "recruitment.calls": len(entries("recruitment")),
            "recruitment.self_s": self_s("recruitment"),
            "delay.calls": len(entries("delay")),
            "delay.self_s": self_s("delay"),
            "delay.call_us_p50": p50_us(entries("delay")),
            "reports.rows": rows,
            "reports.self_s": self_s("reports"),
            "reports.recursions_per_row": per(sum(under(i, "reports") for i in seq), rows),
            "simulate.calls": len(timed["simulate"]),
            "simulate.self_s": self_s("simulate"),
            "scenario.self_s": self_s("scenario", ops={SETUP_OP}),
        }
        missing = {layer for layer, module_name, path, _ in TARGETS
                   if f"{module_name}.{path}" in self.missing}
        missing_groups = {layer.split(".")[0] for layer in missing}
        for name in metrics:
            needs = {name.split(".")[0]} | ({"sequential"} if "recursions" in name else set())
            if needs & missing_groups:
                metrics[name] = None
        return metrics
