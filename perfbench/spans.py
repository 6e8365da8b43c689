"""Per-layer spans recorded from outside walkmeg.

A Tracer replaces each public function named in TARGETS at every name it
is bound to inside the walkmeg package (walkmeg.search.enumerate_fidelities
and walkmeg.cli.enumerate_fidelities are one target), plus
ResultTable.to_text and multiprocessing.Pool, with a wrapper that records
a span: name, start, end, parent span and op id. Spans stay in memory
until the run ends. Nothing inside the package changes, and spans inside
pool workers are not seen.
"""

from __future__ import annotations

import importlib
import multiprocessing
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from walkmeg.results import ResultTable

# layer (module) -> public functions wrapped at every import name
TARGETS = {
    "cli": ("main",),
    "search": ("enumerate_fidelities", "landscape_scan", "anneal"),
    "channel": ("sequence_fidelity", "coin_channel_ptm", "bloch_image"),
    "walk": ("evolve", "step"),
    "metrics": ("average_entanglement", "ensemble_entropies", "entanglement_entropy"),
    "momentum": ("theorem_predicate",),
    "coins": ("require_coin", "rotation_coin", "named_coin"),
}

# work units counted from a call's result
UNITS = {
    "search.enumerate_fidelities": lambda fid: int(fid.size),  # strings, 2^T per call
    "metrics.ensemble_entropies": lambda ent: int(ent.size),  # ensemble states
    "results.to_text": len,  # output bytes
}

POOL = "search.pool"
POOL_TEARDOWN = "search.pool_teardown"

# Per-layer metrics of a traced run: name -> unit. Counts and times are per op.
PER_LAYER_UNITS = {
    "search.enumerate_fidelities.calls": "count",
    "search.enumerate_fidelities.self_s": "s",
    "search.strings_per_s": "1/s",
    "search.pools": "count",
    "search.pool_setup_s": "s",
    "search.serial_op_s": "s",
    "search.parallel_eff": "ratio",
    "search.landscape_scan.self_s": "s",
    "search.anneal.calls": "count",
    "search.anneal.self_s": "s",
    "channel.sequence_fidelity.calls": "count",
    "channel.sequence_fidelity.self_s": "s",
    "channel.coin_channel_ptm.calls": "count",
    "channel.coin_channel_ptm.self_s": "s",
    "channel.bloch_image.self_s": "s",
    "walk.evolve.calls": "count",
    "walk.step.calls": "count",
    "walk.step.self_s": "s",
    "walk.step.us_per_call": "us",
    "metrics.ensemble_entropies.self_s": "s",
    "metrics.us_per_state": "us",
    "metrics.entanglement_entropy.calls": "count",
    "momentum.theorem_predicate.calls": "count",
    "momentum.theorem_predicate.self_s": "s",
    "coins.require_coin.calls": "count",
    "coins.require_coin.self_s": "s",
    "coins.rotation_coin.calls": "count",
    "results.to_text.self_s": "s",
    "results.bytes": "bytes",
    "cli.main.self_s": "s",
    "proc.cpu_s_per_op": "s",
    "proc.op_wall_s_p50": "s",
    "proc.trace_overhead": "ratio",
}


class Tracer:
    """Records spans around walkmeg's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.units: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = -1

    def _call(self, name, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        if name in UNITS:
            self.units[name] += UNITS[name](result)
        return result

    def _wrap(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_pool(self, make_pool):
        @wraps(make_pool)
        def pool(*args, **kwargs):
            instance = self._call(POOL, make_pool, args, kwargs)
            terminate = instance.terminate  # what Pool.__exit__ calls
            instance.terminate = lambda: self._call(POOL_TEARDOWN, terminate, (), {})
            return instance

        return pool

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    @contextmanager
    def tracing(self, op: int):
        """Install the wrappers for the duration of one op."""
        self._op = op
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "walkmeg" or n.startswith("walkmeg."))]
        try:
            for layer, names in TARGETS.items():
                home = importlib.import_module(f"walkmeg.{layer}")
                for attr in names:
                    original = getattr(home, attr)
                    wrapper = self._wrap(f"{layer}.{attr}", original)
                    for module in package:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)
            self._patch(ResultTable, "to_text",
                        self._wrap("results.to_text", ResultTable.to_text))
            self._patch(multiprocessing, "Pool", self._wrap_pool(multiprocessing.Pool))
            yield self
        finally:
            for owner, key, value in reversed(self._patches):
                setattr(owner, key, value)
            self._patches.clear()
            self._op = -1


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds)."""
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_s
    return {name: (calls[name], total[name], own[name]) for name in calls}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den > 0 else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Span-derived per-layer metrics, per op.

    The search.serial_op_s, search.parallel_eff and proc.* metrics are
    measured by the runner, not from spans, and are not included here.
    """
    totals = layer_totals(tracer.spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    per_op = {
        "search.enumerate_fidelities.calls": calls("search.enumerate_fidelities"),
        "search.enumerate_fidelities.self_s": own("search.enumerate_fidelities"),
        "search.pools": calls(POOL),
        "search.pool_setup_s": inclusive(POOL) + inclusive(POOL_TEARDOWN),
        "search.landscape_scan.self_s": own("search.landscape_scan"),
        "search.anneal.calls": calls("search.anneal"),
        "search.anneal.self_s": own("search.anneal"),
        "channel.sequence_fidelity.calls": calls("channel.sequence_fidelity"),
        "channel.sequence_fidelity.self_s": own("channel.sequence_fidelity"),
        "channel.coin_channel_ptm.calls": calls("channel.coin_channel_ptm"),
        "channel.coin_channel_ptm.self_s": own("channel.coin_channel_ptm"),
        "channel.bloch_image.self_s": own("channel.bloch_image"),
        "walk.evolve.calls": calls("walk.evolve"),
        "walk.step.calls": calls("walk.step"),
        "walk.step.self_s": own("walk.step"),
        "metrics.ensemble_entropies.self_s": own("metrics.ensemble_entropies"),
        "metrics.entanglement_entropy.calls": calls("metrics.entanglement_entropy"),
        "momentum.theorem_predicate.calls": calls("momentum.theorem_predicate"),
        "momentum.theorem_predicate.self_s": own("momentum.theorem_predicate"),
        "coins.require_coin.calls": calls("coins.require_coin"),
        "coins.require_coin.self_s": own("coins.require_coin"),
        "coins.rotation_coin.calls": calls("coins.rotation_coin"),
        "results.to_text.self_s": own("results.to_text"),
        "results.bytes": tracer.units["results.to_text"],
        "cli.main.self_s": own("cli.main"),
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["search.strings_per_s"] = _ratio(
        tracer.units["search.enumerate_fidelities"], own("search.enumerate_fidelities"))
    out["walk.step.us_per_call"] = _ratio(inclusive("walk.step"), calls("walk.step"), 1e6)
    out["metrics.us_per_state"] = _ratio(
        inclusive("metrics.ensemble_entropies"), tracer.units["metrics.ensemble_entropies"], 1e6)
    return out
