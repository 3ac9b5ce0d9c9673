"""Command-line entry point: run simulations, compare fairness arms, validate solvers.

``faircda run`` executes one simulation and emits its report files;
``faircda compare`` executes fairness-on and fairness-off simulations on
shared bid streams (common random numbers) and additionally emits paired
per-run deltas; ``faircda validate`` cross-checks the branch-and-bound
solver against exhaustive enumeration on a corpus of randomized micro
instances.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime failure,
3 solver validation mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import SOLVER_MODES, EngineConfig, run_simulation
from .metrics import SimulationReport, _csv_cell, emit
from .model import (
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    MarketShape,
    ProviderBid,
    as_money,
)
from .scenario import ScenarioConfig
from .wdp_solver import (
    SolverLimits,
    WdpInstance,
    WdpSolution,
    dump_instance,
    solve_exact,
    solve_oracle,
)

__all__ = [
    "ExperimentConfig",
    "cmd_run",
    "cmd_compare",
    "cmd_validate",
    "random_micro_instance",
    "run_validation_corpus",
    "comparison_rows",
    "main",
]

COMPARISON_FIELDS = (
    "run",
    "drops_fairness",
    "drops_baseline",
    "drops_delta",
    "mean_drop_round_fairness",
    "mean_drop_round_baseline",
    "mean_drop_round_delta",
    "total_utility_fairness",
    "total_utility_baseline",
    "total_utility_delta",
    "utilization_fairness",
    "utilization_baseline",
    "utilization_delta",
    "win_percent_fairness",
    "win_percent_baseline",
    "win_percent_delta",
)

DEFAULT_CORPUS_SIZE = 500
DEFAULT_CORPUS_SEED = 20240


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: scenario, engine, and output location."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_dir: Path = Path("out")

    def __post_init__(self):
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a config file's numbers are never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _scenario_from_payload(payload: dict) -> ScenarioConfig:
    defaults = ScenarioConfig()

    def integer(key, fallback):
        return _json_int(payload.get(key, fallback), f"scenario.{key}")

    shape = MarketShape(
        num_consumers=integer("consumers", defaults.shape.num_consumers),
        num_providers=integer("providers", defaults.shape.num_providers),
        num_resource_types=integer("resource_types", defaults.shape.num_resource_types),
    )

    def interval(key, fallback, cast):
        raw = payload.get(key, fallback)
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError(f"scenario.{key} must be a [low, high] pair, got {raw!r}")
        return (cast(raw[0], f"scenario.{key}"), cast(raw[1], f"scenario.{key}"))

    def money(value, name):
        return as_money(value)

    return ScenarioConfig(
        shape=shape,
        runs=integer("runs", defaults.runs),
        provider_quantity_range=interval(
            "provider_quantity_range", defaults.provider_quantity_range, _json_int
        ),
        consumer_quantity_range=interval(
            "consumer_quantity_range", defaults.consumer_quantity_range, _json_int
        ),
        provider_price_range=interval("provider_price_range", defaults.provider_price_range, money),
        consumer_price_range=interval("consumer_price_range", defaults.consumer_price_range, money),
        price_drift=as_money(payload.get("price_drift", defaults.price_drift)),
    )


def _engine_from_payload(payload: dict) -> EngineConfig:
    defaults = EngineConfig()
    params_payload = payload.get("fairness_params", {})
    params_defaults = FairnessParams()
    params = FairnessParams(
        alpha1=as_money(params_payload.get("alpha1", params_defaults.alpha1)),
        alpha2=as_money(params_payload.get("alpha2", params_defaults.alpha2)),
        beta1=as_money(params_payload.get("beta1", params_defaults.beta1)),
        beta2=as_money(params_payload.get("beta2", params_defaults.beta2)),
        max_losses=_json_int(
            params_payload.get("max_losses", params_defaults.max_losses),
            "engine.fairness_params.max_losses",
        ),
    )
    time_budget = payload.get("time_budget_s", defaults.solver_limits.time_budget_s)
    limits = SolverLimits(
        node_budget=_json_int(
            payload.get("node_budget", defaults.solver_limits.node_budget), "engine.node_budget"
        ),
        time_budget_s=None if time_budget is None else float(time_budget),
    )
    fairness = payload.get("fairness_enabled", defaults.fairness_enabled)
    if not isinstance(fairness, bool):
        raise ValueError(f"engine.fairness_enabled must be true or false, got {fairness!r}")
    return EngineConfig(
        fairness_enabled=fairness,
        fairness_params=params,
        solver_mode=payload.get("solver", defaults.solver_mode),
        solver_limits=limits,
        rounds=_json_int(payload.get("rounds", defaults.rounds), "engine.rounds"),
        master_seed=_json_int(
            payload.get("master_seed", defaults.master_seed), "engine.master_seed"
        ),
    )


def load_experiment_config(path: Optional[Path], args: Optional[argparse.Namespace] = None) -> ExperimentConfig:
    """Merge (defaults <- config file <- command-line flags) into one config.

    The file is JSON with the same layout emitted as the report's config
    echo: ``{"scenario": {...}, "engine": {...}, "output_dir": ...}``.
    """
    payload: dict = {}
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    scenario_payload = dict(payload.get("scenario", {}))
    engine_payload = dict(payload.get("engine", {}))
    output_dir = payload.get("output_dir", "out")

    if args is not None:
        if getattr(args, "consumers", None) is not None:
            scenario_payload["consumers"] = args.consumers
        if getattr(args, "providers", None) is not None:
            scenario_payload["providers"] = args.providers
        if getattr(args, "types", None) is not None:
            scenario_payload["resource_types"] = args.types
        if getattr(args, "runs", None) is not None:
            scenario_payload["runs"] = args.runs
        if getattr(args, "rounds", None) is not None:
            engine_payload["rounds"] = args.rounds
        if getattr(args, "seed", None) is not None:
            engine_payload["master_seed"] = args.seed
        if getattr(args, "solver", None) is not None:
            engine_payload["solver"] = args.solver
        if getattr(args, "time_limit_ms", None) is not None:
            engine_payload["time_budget_s"] = args.time_limit_ms / 1000.0
        if getattr(args, "node_budget", None) is not None:
            engine_payload["node_budget"] = args.node_budget
        if getattr(args, "no_fairness", False):
            engine_payload["fairness_enabled"] = False
        if getattr(args, "out", None) is not None:
            output_dir = args.out
    return ExperimentConfig(
        scenario=_scenario_from_payload(scenario_payload),
        engine=_engine_from_payload(engine_payload),
        output_dir=Path(output_dir),
    )


def cmd_run(config: ExperimentConfig, jobs: int = 1) -> int:
    """Run one simulation, emit its report, and print per-run summaries."""
    report = run_simulation(config.scenario, config.engine, jobs=jobs)
    paths = emit(report, config.output_dir)
    for row in report.per_run:
        drop_round = "-" if row.mean_drop_round is None else f"{row.mean_drop_round:.1f}"
        print(
            f"run {row.run}: drops={row.drops} mean_drop_round={drop_round} "
            f"total_utility={float(row.total_utility):.2f} "
            f"mean_utilization={row.mean_utilization:.2f}% "
            f"mean_win={row.mean_win_percent:.2f}%"
        )
    print("wrote " + ", ".join(str(p) for p in paths))
    return 0


def comparison_rows(fairness: SimulationReport, baseline: SimulationReport) -> list[dict]:
    """Paired per-run deltas between a fairness-on and a fairness-off report.

    Deltas are signed so that positive means the fairness arm did better:
    fewer drops (baseline minus fairness), later drops, higher utilization,
    higher winning rate.  The total-utility delta is reported raw
    (fairness minus baseline) — the fairness arm typically concedes some
    utility by design.
    """
    if len(fairness.per_run) != len(baseline.per_run):
        raise ValueError("cannot compare reports with different run counts")
    rows = []
    for fair, base in zip(fairness.per_run, baseline.per_run):
        if fair.run != base.run:
            raise ValueError("comparison reports are not aligned by run")
        if fair.mean_drop_round is None or base.mean_drop_round is None:
            drop_round_delta = None
        else:
            drop_round_delta = fair.mean_drop_round - base.mean_drop_round
        rows.append(
            {
                "run": fair.run,
                "drops_fairness": fair.drops,
                "drops_baseline": base.drops,
                "drops_delta": base.drops - fair.drops,
                "mean_drop_round_fairness": fair.mean_drop_round,
                "mean_drop_round_baseline": base.mean_drop_round,
                "mean_drop_round_delta": drop_round_delta,
                "total_utility_fairness": fair.total_utility,
                "total_utility_baseline": base.total_utility,
                "total_utility_delta": fair.total_utility - base.total_utility,
                "utilization_fairness": fair.mean_utilization,
                "utilization_baseline": base.mean_utilization,
                "utilization_delta": fair.mean_utilization - base.mean_utilization,
                "win_percent_fairness": fair.mean_win_percent,
                "win_percent_baseline": base.mean_win_percent,
                "win_percent_delta": fair.mean_win_percent - base.mean_win_percent,
            }
        )
    return rows


def write_comparison_csv(rows: Sequence[dict], path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARISON_FIELDS)
        for row in rows:
            writer.writerow([_csv_cell(row[f]) for f in COMPARISON_FIELDS])


def cmd_compare(config: ExperimentConfig, jobs: int = 1) -> int:
    """Run fairness-on and fairness-off arms on shared bids and emit deltas.

    Both arms use the same master seed; bid streams are independent of the
    fairness draws, so the arms clear identical bids and the deltas isolate
    the fairness mechanism.
    """
    fair_engine = replace(config.engine, fairness_enabled=True)
    base_engine = replace(config.engine, fairness_enabled=False)
    fairness = run_simulation(config.scenario, fair_engine, jobs=jobs)
    baseline = run_simulation(config.scenario, base_engine, jobs=jobs)
    out = Path(config.output_dir)
    emit(fairness, out / "fairness")
    emit(baseline, out / "baseline")
    rows = comparison_rows(fairness, baseline)
    out.mkdir(parents=True, exist_ok=True)
    write_comparison_csv(rows, out / "comparison.csv")

    better_drops = sum(1 for r in rows if r["drops_delta"] > 0)
    utility_signs = {
        "fairness_higher": sum(1 for r in rows if r["total_utility_delta"] > 0),
        "baseline_higher": sum(1 for r in rows if r["total_utility_delta"] < 0),
        "tied": sum(1 for r in rows if r["total_utility_delta"] == 0),
    }
    for row in rows:
        print(
            f"run {row['run']}: drops {row['drops_fairness']} vs {row['drops_baseline']} "
            f"(delta {row['drops_delta']}), "
            f"utilization delta {row['utilization_delta']:+.3f}, "
            f"utility delta {float(row['total_utility_delta']):+.2f}"
        )
    print(
        f"fairness arm has fewer drops in {better_drops}/{len(rows)} runs; "
        f"total-utility deltas: {utility_signs['fairness_higher']} positive, "
        f"{utility_signs['baseline_higher']} negative, {utility_signs['tied']} tied"
    )
    print(f"wrote {out / 'comparison.csv'}")
    return 0


# Shape and value ranges of the validation corpus's micro instances (inclusive).
MICRO_MAX_CONSUMERS = 4
MICRO_MAX_PROVIDERS = 2
MICRO_MAX_TYPES = 2
MICRO_MAX_QUANTITY = 2
MICRO_PRICE_RANGE = (1, 20)
MICRO_FACTOR_RANGE = (-10, 10)


def random_micro_instance(rng: np.random.Generator) -> WdpInstance:
    """A small random instance for solver cross-checking.

    Integer prices and fairness factors keep every objective a small exact
    rational, so solver agreement can be asserted with zero tolerance.
    """
    N = int(rng.integers(1, MICRO_MAX_CONSUMERS, endpoint=True))
    M = int(rng.integers(1, MICRO_MAX_PROVIDERS, endpoint=True))
    L = int(rng.integers(1, MICRO_MAX_TYPES, endpoint=True))
    plo, phi = MICRO_PRICE_RANGE
    flo, fhi = MICRO_FACTOR_RANGE
    consumers = []
    for n in range(N):
        quantities = [int(q) for q in rng.integers(0, MICRO_MAX_QUANTITY, size=L, endpoint=True)]
        if not any(quantities):
            quantities[int(rng.integers(0, L))] = 1
        prices = [Fraction(int(p)) for p in rng.integers(plo, phi, size=L, endpoint=True)]
        factor = Fraction(int(rng.integers(flo, fhi, endpoint=True)))
        consumers.append(
            ExtendedConsumerBid(
                bid=ConsumerBid(n, tuple(prices), tuple(quantities)),
                fairness_factor=factor,
            )
        )
    providers = []
    for m in range(M):
        quantities = [int(q) for q in rng.integers(0, MICRO_MAX_QUANTITY, size=L, endpoint=True)]
        prices = [Fraction(int(p)) for p in rng.integers(plo, phi, size=L, endpoint=True)]
        providers.append(ProviderBid(m, tuple(prices), tuple(quantities)))
    return WdpInstance(
        shape=MarketShape(N, M, L), consumer_bids=tuple(consumers), provider_bids=tuple(providers)
    )


def run_validation_corpus(
    count: int = DEFAULT_CORPUS_SIZE,
    seed: int = DEFAULT_CORPUS_SEED,
    solver: Optional[Callable[[WdpInstance], WdpSolution]] = None,
) -> tuple[int, list[str]]:
    """Cross-check ``solver`` against exhaustive enumeration on random micro instances.

    Returns (pass count, failure descriptions).  ``solver`` defaults to the
    branch-and-bound solver; the parameter exists so tests can inject a
    broken solver and watch the corpus catch it.
    """
    if count < 1:
        raise ValueError(f"corpus size must be positive, got {count}")
    check = solver if solver is not None else solve_exact
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    passes = 0
    failures: list[str] = []
    for index in range(count):
        instance = random_micro_instance(rng)
        got = check(instance)
        expected = solve_oracle(instance)
        if got.objective == expected.objective:
            passes += 1
        else:
            failures.append(
                f"instance {index}: solver objective {got.objective} != "
                f"oracle objective {expected.objective}\n{dump_instance(instance)}"
            )
    return passes, failures


def cmd_validate(
    count: int = DEFAULT_CORPUS_SIZE,
    seed: int = DEFAULT_CORPUS_SEED,
    solver: Optional[Callable[[WdpInstance], WdpSolution]] = None,
) -> int:
    """Run the solver-equivalence corpus; exit 0 iff every instance agrees."""
    passes, failures = run_validation_corpus(count, seed, solver=solver)
    print(f"solver validation: {passes}/{count} instances agree (seed {seed})")
    for failure in failures[:5]:
        print(failure)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more mismatches")
    return 0 if not failures else 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master random seed")
    parser.add_argument("--rounds", type=int, default=None, help="auction rounds per run")
    parser.add_argument("--runs", type=int, default=None, help="independent runs")
    parser.add_argument("--consumers", type=int, default=None, help="number of consumers")
    parser.add_argument("--providers", type=int, default=None, help="number of providers")
    parser.add_argument("--types", type=int, default=None, help="number of resource types")
    parser.add_argument(
        "--no-fairness", action="store_true", help="disable the fairness mechanism"
    )
    parser.add_argument(
        "--solver", choices=SOLVER_MODES, default=None,
        help="winner determination mode",
    )
    parser.add_argument(
        "--time-limit-ms", type=int, default=None,
        help="wall-clock budget for the exact solver, in milliseconds",
    )
    parser.add_argument(
        "--node-budget", type=int, default=None,
        help="node budget for the exact solver",
    )
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for parallel runs"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faircda",
        description="Fairness-aware combinatorial double auction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one simulation and emit reports")
    _add_experiment_arguments(run_parser)
    compare_parser = sub.add_parser(
        "compare", help="run fairness-on vs fairness-off on shared bids"
    )
    _add_experiment_arguments(compare_parser)
    validate_parser = sub.add_parser(
        "validate", help="cross-check the exact solver against enumeration"
    )
    validate_parser.add_argument(
        "--count", type=int, default=DEFAULT_CORPUS_SIZE, help="corpus size"
    )
    validate_parser.add_argument(
        "--seed", type=int, default=DEFAULT_CORPUS_SEED, help="corpus seed"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            return cmd_validate(count=args.count, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"failure: {exc}", file=sys.stderr)
            return 2

    try:
        config = load_experiment_config(args.config, args)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return cmd_run(config, jobs=args.jobs)
        return cmd_compare(config, jobs=args.jobs)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
