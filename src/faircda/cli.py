"""Command-line entry point: run simulations, compare fairness arms, validate solvers.

``faircda run`` executes one simulation and emits its report files;
``faircda compare`` executes fairness-on and fairness-off simulations on
shared bid streams (common random numbers) and additionally emits paired
per-run deltas; ``faircda validate`` cross-checks the branch-and-bound
solver against exhaustive enumeration on a corpus of randomized micro
instances.

Exit codes: 0 success, 1 usage or configuration error (before any work),
2 runtime failure, 3 solver validation mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .engine import SOLVER_MODES, EngineConfig, config_echo, run_simulation
from .metrics import REPORT_FILES, SimulationReport, _rows_to_csv, emit
from .model import (
    ConsumerBid,
    ExtendedConsumerBid,
    FairnessParams,
    MarketShape,
    ProviderBid,
    _check_count,
)
from .scenario import ScenarioConfig
from .wdp_solver import SolverLimits, WdpInstance, dump_instance, solve_exact, solve_oracle

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

# The columns that comparison.csv pairs up, one triple of fairness, baseline
# and delta columns each: (column stem, per-run field, delta sign).  A delta
# is the sign times fairness minus baseline.
_COMPARED = (
    ("drops", "drops", -1),
    ("mean_drop_round", "mean_drop_round", 1),
    ("total_utility", "total_utility", 1),
    ("utilization", "mean_utilization", 1),
    ("win_percent", "mean_win_percent", 1),
)
COMPARISON_FIELDS = ("run",) + tuple(
    f"{stem}_{column}" for stem, _, _ in _COMPARED for column in ("fairness", "baseline", "delta")
)
# compare's arms: the subdirectory each emits into and whether fairness is on.
ARMS = (("fairness", True), ("baseline", False))
COMPARISON_FILE = "comparison.csv"

DEFAULT_CORPUS_SIZE = 500
DEFAULT_CORPUS_SEED = 20240


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: scenario, engine, and output location."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    output_dir: Path = Path("out")

    def __post_init__(self):
        if not isinstance(self.output_dir, (str, Path)):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


def _merge(template: dict, payload, path: str) -> dict:
    """``template`` overridden by ``payload``, which may use only the template's keys.

    Where the template holds an object, the payload must hold one too, and
    the two are merged recursively; any other value is replaced as given.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{path or 'config'} must be a JSON object, got {payload!r}")
    merged = dict(template)
    for key, value in payload.items():
        dotted = f"{path}.{key}" if path else key
        if key not in template:
            raise ValueError(f"unknown config key {dotted}")
        if isinstance(template[key], dict):
            value = _merge(template[key], value, dotted)
        merged[key] = value
    return merged


@contextmanager
def _section(path: str):
    """Prefix a ``ValueError`` raised while building one config section with its path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_experiment_config(path: Optional[Path], args: Optional[argparse.Namespace] = None) -> ExperimentConfig:
    """Merge (defaults <- config file <- command-line flags) into one config.

    The defaults are the report's config echo of the default configuration,
    plus ``output_dir``, so every report's ``config`` object is a valid
    config file and any key the echo does not write is rejected.  The echo's
    ``engine.machine_dependent`` is accepted and ignored: it is recomputed
    from ``time_budget_s``.  Each parsed value in ``args`` whose dest is a
    dotted config key (``scenario.consumers``, ``output_dir``) overrides
    that key.  :func:`main` checks the output paths.
    """
    merged = {**config_echo(ScenarioConfig(), EngineConfig()), "output_dir": "out"}
    merged["engine"]["machine_dependent"] = None
    if path is not None:
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        merged = _merge(merged, payload, "")
    for dest, value in (vars(args) if args is not None else {}).items():
        section, _, key = dest.rpartition(".")
        target = merged[section] if section else merged
        if value is not None and key in target:
            target[key] = value

    scenario, engine = merged["scenario"], merged["engine"]
    del engine["machine_dependent"]
    with _section("scenario"):
        shape = MarketShape(
            scenario.pop("consumers"), scenario.pop("providers"), scenario.pop("resource_types")
        )
        scenario_config = ScenarioConfig(shape=shape, **scenario)
    with _section("engine.fairness_params"):
        params = FairnessParams(**engine.pop("fairness_params"))
    solver = engine.pop("solver")
    if solver not in SOLVER_MODES:
        raise ValueError(f"engine.solver must be one of {SOLVER_MODES}, got {solver!r}")
    with _section("engine"):
        limits = SolverLimits(engine.pop("node_budget"), engine.pop("time_budget_s"))
        engine_config = EngineConfig(
            fairness_params=params, solver_mode=solver, solver_limits=limits, **engine
        )
    return ExperimentConfig(scenario_config, engine_config, merged["output_dir"])


def _check_outputs(command: str, out: Path) -> None:
    """Raise ``ValueError`` unless ``command`` (``run`` or ``compare``) can
    write every file it writes under ``out``: each file's nearest existing
    ancestor must be a directory, and the file must not be one."""
    dirs = [out] if command == "run" else [out / arm for arm, _ in ARMS]
    written = [d / name for d in dirs for name in REPORT_FILES]
    if command == "compare":
        written.append(out / COMPARISON_FILE)
    for path in written:
        existing = next(p for p in path.parents if os.path.lexists(p))
        if not os.path.isdir(existing):
            raise ValueError(f"output_dir: cannot write {path}, {existing} is not a directory")
        if os.path.isdir(path):
            raise ValueError(f"output_dir: cannot write {path}, it is a directory")


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
        row = {"run": fair.run}
        for stem, name, sign in _COMPARED:
            f, b = getattr(fair, name), getattr(base, name)
            row[f"{stem}_fairness"], row[f"{stem}_baseline"] = f, b
            row[f"{stem}_delta"] = None if f is None or b is None else sign * (f - b)
        rows.append(row)
    return rows


def cmd_compare(config: ExperimentConfig, jobs: int = 1) -> int:
    """Run fairness-on and fairness-off arms on shared bids and emit deltas.

    Both arms use the same master seed; bid streams are independent of the
    fairness draws, so the arms clear identical bids and the deltas isolate
    the fairness mechanism.
    """
    reports = [
        run_simulation(config.scenario, replace(config.engine, fairness_enabled=on), jobs=jobs)
        for _, on in ARMS
    ]
    out = config.output_dir
    for (arm, _), report in zip(ARMS, reports):
        emit(report, out / arm)
    rows = comparison_rows(*reports)
    (out / COMPARISON_FILE).write_text(_rows_to_csv(COMPARISON_FIELDS, rows))

    better_drops = sum(1 for r in rows if r["drops_delta"] > 0)
    utility = [r["total_utility_delta"] for r in rows]
    for row in rows:
        print(
            f"run {row['run']}: drops {row['drops_fairness']} vs {row['drops_baseline']} "
            f"(delta {row['drops_delta']}), "
            f"utilization delta {row['utilization_delta']:+.3f}, "
            f"utility delta {float(row['total_utility_delta']):+.2f}"
        )
    print(
        f"fairness arm has fewer drops in {better_drops}/{len(rows)} runs; "
        f"total-utility deltas: {sum(d > 0 for d in utility)} positive, "
        f"{sum(d < 0 for d in utility)} negative, {utility.count(0)} tied"
    )
    print(f"wrote {out / COMPARISON_FILE}")
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
    count: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_CORPUS_SEED
) -> tuple[int, list[str]]:
    """Cross-check :func:`~faircda.wdp_solver.solve_exact` against exhaustive
    enumeration on random micro instances.

    An instance passes when the two winner vectors are equal, so the tie
    rule (the lexicographically smallest optimum) is checked as well as the
    objective.  Returns (pass count, failure descriptions).
    """
    if count < 1:
        raise ValueError(f"corpus size must be positive, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    passes = 0
    failures: list[str] = []
    for index in range(count):
        instance = random_micro_instance(rng)
        got = solve_exact(instance)
        expected = solve_oracle(instance)
        if got.allocation.winners == expected.allocation.winners:
            passes += 1
            continue
        got_bits, oracle_bits = (
            "".join("01"[w] for w in s.allocation.winners) for s in (got, expected)
        )
        failures.append(
            f"instance {index}: solver winners {got_bits} (objective {got.objective}) != "
            f"oracle winners {oracle_bits} (objective {expected.objective})\n"
            f"{dump_instance(instance)}"
        )
    return passes, failures


def cmd_validate(count: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_CORPUS_SEED) -> int:
    """Run the solver-equivalence corpus; exit 0 iff every instance agrees."""
    passes, failures = run_validation_corpus(count, seed)
    print(f"solver validation: {passes}/{count} instances agree (seed {seed})")
    for failure in failures[:5]:
        print(failure)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more mismatches")
    return 0 if not failures else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def milliseconds(text: str) -> float:
    """A ``--time-limit-ms`` value, in seconds."""
    return int(text) / 1000


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    # Each dest is the dotted config key the flag overrides.
    parser.add_argument("--config", type=Path, metavar="FILE", help="JSON experiment config")
    for flag, key, text in (
        ("--seed", "engine.master_seed", "master random seed"),
        ("--rounds", "engine.rounds", "auction rounds per run"),
        ("--runs", "scenario.runs", "independent runs"),
        ("--consumers", "scenario.consumers", "number of consumers"),
        ("--providers", "scenario.providers", "number of providers"),
        ("--types", "scenario.resource_types", "number of resource types"),
        ("--node-budget", "engine.node_budget", "node budget for the exact solver"),
    ):
        parser.add_argument(flag, dest=key, type=int, metavar="N", help=text)
    parser.add_argument(
        "--no-fairness", dest="engine.fairness_enabled", action="store_const", const=False,
        help="disable the fairness mechanism",
    )
    parser.add_argument(
        "--solver", dest="engine.solver", choices=SOLVER_MODES, help="winner determination mode"
    )
    parser.add_argument(
        "--time-limit-ms", dest="engine.time_budget_s", type=milliseconds, metavar="MS",
        help="wall-clock budget for the exact solver, in milliseconds",
    )
    parser.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes for parallel runs"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faircda",
        description="Fairness-aware combinatorial double auction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run one simulation and emit reports"),
        ("compare", "run fairness-on vs fairness-off on shared bids"),
    ):
        _add_experiment_arguments(sub.add_parser(name, help=text))
    validate = sub.add_parser("validate", help="cross-check the exact solver against enumeration")
    validate.add_argument("--count", type=int, default=DEFAULT_CORPUS_SIZE, help="corpus size")
    validate.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED, help="corpus seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Check the arguments, the config and every output path, then run the command.

    A failed check names its flag or config key and exits 1 before any work.
    A command that raises exits 2; otherwise its own code is returned.
    """
    try:
        args = build_parser().parse_args(argv)
        if args.command == "validate":
            _check_count(args.count, "--count", positive=True)
            _check_count(args.seed, "--seed")
            command = partial(cmd_validate, args.count, args.seed)
        else:
            config = load_experiment_config(args.config, args)
            _check_count(args.jobs, "--jobs", positive=True)
            _check_outputs(args.command, config.output_dir)
            run = cmd_run if args.command == "run" else cmd_compare
            command = partial(run, config, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return command()
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
