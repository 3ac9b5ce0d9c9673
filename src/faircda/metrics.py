"""Evaluation metrics, report assembly, and CSV/JSON emission.

Per-round rows capture total utility, total satisfaction, resource
utilization, the winning rate, and the cumulative drop count; per-run rows
aggregate them and read nothing else, so every per-run value, drops
included, is a function of the run's ``per_round.csv`` rows.  Utilization
is the percentage of offered units actually sold in a round; the winning
rate is the percentage of that round's participants who won.  Every evaluation series is recoverable from the
emitted ``per_round.csv`` / ``per_run.csv`` with any plotting tool.

Currency values are exact rationals internally and in ``report.json``
(serialized as fraction strings); CSV cells hold their float values for
plotting convenience.  Emission is deterministic: identical reports produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from typing import Iterable, Mapping, Optional, Sequence

from .model import Money, ProviderBid, _check_count, _json_value, as_money

__all__ = [
    "PerRoundRow",
    "RunMetrics",
    "SimulationReport",
    "utilization_from_units",
    "win_rate_percent",
    "units_offered",
    "aggregate",
    "REPORT_FILES",
    "emit",
    "report_to_json",
    "parse_report",
]

@dataclass(frozen=True)
class PerRoundRow:
    run: int
    round: int
    total_utility: Money
    total_satisfaction: Money
    utilization_percent: float
    win_percent: float
    cumulative_drops: int


@dataclass(frozen=True)
class RunMetrics:
    run: int
    total_utility: Money
    drops: int
    mean_drop_round: Optional[float]
    mean_utilization: float
    mean_win_percent: float


# A table's columns are its row type's fields, in order.
PER_ROUND_FIELDS = tuple(f.name for f in fields(PerRoundRow))
PER_RUN_FIELDS = tuple(f.name for f in fields(RunMetrics))
_TABLES = {"per_round": PER_ROUND_FIELDS, "per_run": PER_RUN_FIELDS}


@dataclass(frozen=True)
class SimulationReport:
    """Everything one simulation produced, ready for emission.

    ``final_repositories`` holds one plain-dict repository snapshot per run
    (see ``engine.repository_to_dict``), keeping the report JSON-friendly.
    """

    per_round: tuple[PerRoundRow, ...]
    per_run: tuple[RunMetrics, ...]
    config_echo: dict = field(default_factory=dict)
    final_repositories: tuple[dict, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_round", tuple(self.per_round))
        object.__setattr__(self, "per_run", tuple(self.per_run))
        object.__setattr__(self, "final_repositories", tuple(self.final_repositories))


def units_offered(provider_bids: Sequence[ProviderBid]) -> int:
    return sum(sum(pb.quantities) for pb in provider_bids)


def utilization_from_units(units_sold: int, offered: int) -> float:
    if offered <= 0:
        raise ValueError("utilization is undefined when no units are offered")
    return 100.0 * units_sold / offered


def win_rate_percent(num_winners: int, num_participants: int) -> float:
    if num_participants <= 0:
        raise ValueError("winning percentage is undefined without participants")
    return 100.0 * num_winners / num_participants


def aggregate(rows: Sequence[PerRoundRow], run: int) -> RunMetrics:
    """Collapse one run's per-round rows, in round order, into its summary row.

    A consumer drops at most once, so the run's drops are the steps of
    ``cumulative_drops``: a step of k at round r is k drops at round r.  A
    count that falls is an error.
    """
    drop_rounds: list[int] = []
    dropped = 0
    for row in rows:
        if row.cumulative_drops < dropped:
            raise ValueError(
                f"run {run}: cumulative drops fall from {dropped} to "
                f"{row.cumulative_drops} at round {row.round}"
            )
        drop_rounds += [row.round] * (row.cumulative_drops - dropped)
        dropped = row.cumulative_drops
    return RunMetrics(
        run=run,
        total_utility=sum((r.total_utility for r in rows), Fraction(0)),
        drops=dropped,
        mean_drop_round=fmean(drop_rounds) if drop_rounds else None,
        mean_utilization=fmean(r.utilization_percent for r in rows) if rows else 0.0,
        mean_win_percent=fmean(r.win_percent for r in rows) if rows else 0.0,
    )


def _cross_check(report: SimulationReport) -> None:
    """Each per-run row must equal :func:`aggregate` of its run's per-round rows."""
    for run_row in report.per_run:
        rows = sorted((r for r in report.per_round if r.run == run_row.run), key=lambda r: r.round)
        derived = aggregate(rows, run_row.run)
        for name in PER_RUN_FIELDS:
            if getattr(run_row, name) != getattr(derived, name):
                raise ValueError(
                    f"run {run_row.run}: per-run {name} is {getattr(run_row, name)}, "
                    f"but the per-round rows give {getattr(derived, name)}"
                )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rows_to_csv(columns: Sequence[str], rows: Iterable[Mapping]) -> str:
    """The CSV text of ``rows``, a header of ``columns`` and one line per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buffer.getvalue()


def _json_row(row) -> dict:
    """A report row's fields, money as an exact fraction string."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(row).items()}


def report_to_json(report: SimulationReport) -> str:
    payload = {
        "config": report.config_echo,
        "per_round": [_json_row(r) for r in report.per_round],
        "per_run": [_json_row(r) for r in report.per_run],
        "repositories": list(report.final_repositories),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_number(row: Mapping, name: str) -> Money:
    try:
        return as_money(row[name])
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite number, got {row[name]!r}") from None


def parse_report(text: str) -> SimulationReport:
    """Inverse of :func:`report_to_json`: exact round-trip of a report.

    Counts (``run``, ``round``, ``cumulative_drops``, ``drops``) must be
    JSON integers, other values finite numbers or fraction strings; anything
    else (``true`` and NaN included) raises a ``ValueError`` naming the field,
    as does a missing field or a value that is not the JSON object or array
    the report holds there; a repository snapshot is kept as loaded once
    it is an object holding ``records`` and ``round_counter``.
    """
    payload = _json_value(json.loads(text), "report", keys=("config", *_TABLES, "repositories"))
    rounds, runs, repositories = (
        [_json_value(r, f"{name} entry", keys=keys) for r in _json_value(payload[name], name, list)]
        for name, keys in (*_TABLES.items(), ("repositories", ("records", "round_counter")))
    )
    per_round = tuple(
        PerRoundRow(
            run=_check_count(row["run"], "run"),
            round=_check_count(row["round"], "round", positive=True),
            total_utility=_load_number(row, "total_utility"),
            total_satisfaction=_load_number(row, "total_satisfaction"),
            utilization_percent=float(_load_number(row, "utilization_percent")),
            win_percent=float(_load_number(row, "win_percent")),
            cumulative_drops=_check_count(row["cumulative_drops"], "cumulative_drops"),
        )
        for row in rounds
    )
    per_run = tuple(
        RunMetrics(
            run=_check_count(row["run"], "run"),
            total_utility=_load_number(row, "total_utility"),
            drops=_check_count(row["drops"], "drops"),
            mean_drop_round=(
                None
                if row["mean_drop_round"] is None
                else float(_load_number(row, "mean_drop_round"))
            ),
            mean_utilization=float(_load_number(row, "mean_utilization")),
            mean_win_percent=float(_load_number(row, "mean_win_percent")),
        )
        for row in runs
    )
    return SimulationReport(
        per_round=per_round,
        per_run=per_run,
        config_echo=payload["config"],
        final_repositories=tuple(repositories),
    )


# The files :func:`emit` writes, in the order it writes them.
REPORT_FILES = ("per_round.csv", "per_run.csv", "report.json")


def emit(report: SimulationReport, destination) -> list[Path]:
    """Write :data:`REPORT_FILES` under ``destination`` and return their paths.

    Row order is run-major then round; column order is part of the public
    contract.  The per-run aggregates are re-derived from the per-round rows
    first and any mismatch aborts the write.
    """
    _cross_check(report)
    dest = Path(destination)
    ordered_rounds = sorted(report.per_round, key=lambda r: (r.run, r.round))
    ordered_runs = sorted(report.per_run, key=lambda r: r.run)
    texts = (
        _rows_to_csv(PER_ROUND_FIELDS, map(vars, ordered_rounds)),
        _rows_to_csv(PER_RUN_FIELDS, map(vars, ordered_runs)),
        report_to_json(report),
    )
    paths = [dest / name for name in REPORT_FILES]
    try:
        dest.mkdir(parents=True, exist_ok=True)
        for path, text in zip(paths, texts):
            path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report files under {dest}: {exc}") from exc
    return paths
