"""Round-phase spans, recorded from outside the program.

``install`` replaces the public functions that ``faircda.engine`` calls (and
``report_to_json``, which ``faircda.metrics.emit`` calls) with timing
wrappers in the module namespaces the callers look them up in.  Spans are
kept in memory; ``Tracer.summary`` reduces them at the end of a repetition.

A layer whose functions are all missing, or were never called, is reported
as unmeasured (``None``), never as zero seconds: a refactor that renames or
inlines a call must not read as a speed-up.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Layer span -> names looked up in ``faircda.<module>``.  A dotted name is an
# attribute of a class the module uses.
LAYERS = {
    "scenario.gen": ("engine", ("generate_provider_bids", "generate_consumer_bids")),
    "fairness.factors": ("engine", ("compute_fairness_factors",)),
    "wdp_solver.build": ("engine", ("WdpInstance.from_bids",)),
    "wdp_solver.solve": ("engine", ("solve_heuristic", "solve_exact", "solve_oracle")),
    "pricing.settle": ("engine", ("settle",)),
    "engine.round": ("engine", ("run_round",)),
    "engine.fold": ("engine", ("update_repository",)),
    "metrics.report_json": ("metrics", ("report_to_json",)),
}

# Children of ``engine.round`` whose spans are subtracted to get its self time.
ROUND_CHILDREN = ("fairness.factors", "wdp_solver.build", "wdp_solver.solve", "pricing.settle")
# Spans inside the run loop; the rest of simulation time is the loop's own.
LOOP_CHILDREN = ("scenario.gen", "engine.round", "engine.fold")
# Layers called once per round, whose per-call durations are kept.
PER_ROUND = ("wdp_solver.solve", "engine.round", "engine.fold")


def _count(name: str, result, counts: Counter) -> None:
    """Work counts taken from a wrapped call's return value."""
    if name == "generate_consumer_bids":
        counts["scenario.bids"] += len(result)
    elif name == "compute_fairness_factors":
        branches = Counter(result.applied_branch.values())
        counts["fairness.rewards"] += branches["reward"]
        counts["fairness.penalties"] += branches["penalty"]
    elif name.startswith("solve_"):
        counts["wdp_solver.solves"] += 1
        counts["wdp_solver.proved_optimal"] += result.optimality == "proved_optimal"
    elif name == "settle":
        counts["pricing.trades"] += len(result.unit_trade_prices)


class Tracer:
    """Spans as ``(layer, start, end, parent index)``, plus per-layer counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, func):
        def timed(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((layer, 0.0, 0.0, parent))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent)
            _count(name, result, self.counts)
            return result

        return timed

    def summary(self, simulation_s: float) -> dict:
        """Per-layer totals (s), per-call durations (ms), self times and counts."""
        totals: dict[str, float] = defaultdict(float)
        samples: dict[str, list[float]] = defaultdict(list)
        for layer, start, end, _parent in self.spans:
            totals[layer] += end - start
            samples[layer].append(1000.0 * (end - start))
        measured = {layer: totals.get(layer) for layer in LAYERS}

        def self_time(total, children):
            if total is None or any(measured[c] is None for c in children):
                return None
            return total - sum(measured[c] for c in children)

        return {
            "totals": measured,
            "samples_ms": {layer: samples[layer] for layer in PER_ROUND},
            "round_self_s": self_time(measured["engine.round"], ROUND_CHILDREN),
            "loop_self_s": self_time(simulation_s, LOOP_CHILDREN),
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def install(faircda) -> Tracer:
    """Wrap every function named in ``LAYERS``; the process stays traced."""
    tracer = Tracer()
    for layer, (module_name, names) in LAYERS.items():
        module = getattr(faircda, module_name)
        for dotted in names:
            *owner_path, attr = dotted.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            func = getattr(owner, attr, None) if owner is not None else None
            if func is None:
                tracer.missing.append(f"faircda.{module_name}.{dotted}")
                continue
            wrapped = tracer.wrap(layer, attr, func)
            # A bound classmethod is re-attached as a static function so that
            # ``Class.method(...)`` keeps its original binding.
            setattr(owner, attr, staticmethod(wrapped) if owner is not module else wrapped)
    return tracer
