"""Evaluation metrics, report assembly, and CSV/JSON emission.

Per-round rows capture total utility, total satisfaction, resource
utilization, the winning rate, and the cumulative drop count; a report
carries only them and derives its per-run rows with :func:`aggregate`, so
every per-run value, drops included, is a function of the run's
``per_round.csv`` rows.  Utilization is the percentage of offered units
actually sold in a round; the winning rate is the percentage of that
round's participants who won.  Every evaluation series is recoverable from
the emitted ``per_round.csv`` / ``per_run.csv`` with any plotting tool.

Currency values are exact rationals internally and in ``report.json``
(serialized as fraction strings, whatever their number of digits: Python's
int string limit is lifted while they are written and read); CSV cells
hold their float values for plotting convenience.  Emission is
deterministic: identical reports produce byte-identical files.
``report.json`` is ``json.dumps(…, indent=2, sort_keys=True)`` plus a
newline, written by one writer (``_json_text``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from itertools import chain, groupby, zip_longest
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from statistics import fmean
from typing import Iterable, Mapping, Optional, Sequence, get_type_hints

from .model import Money, ProviderBid, _check_count, _json_value, as_money, repository_from_dict

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
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (PerRoundRow, RunMetrics)}


@dataclass(frozen=True)
class SimulationReport:
    """Everything one simulation produced, ready for emission.

    ``final_repositories`` holds one plain-dict repository snapshot per run
    (see ``engine.repository_to_dict``), keeping the report JSON-friendly.
    :attr:`per_run` is derived from ``per_round``, not carried.
    """

    per_round: tuple[PerRoundRow, ...]
    config_echo: dict = field(default_factory=dict)
    final_repositories: tuple[dict, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_round", tuple(self.per_round))
        object.__setattr__(self, "final_repositories", tuple(self.final_repositories))

    @cached_property
    def per_run(self) -> tuple[RunMetrics, ...]:
        """:func:`aggregate` of each run's rows in round order, in run order; built once."""
        ordered = sorted(self.per_round, key=lambda r: (r.run, r.round))
        return tuple(aggregate(list(rows), run) for run, rows in groupby(ordered, lambda r: r.run))


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

    The rows must be rounds 1..n of run ``run``, each exactly once.  A
    consumer drops at most once, so the run's drops are the steps of
    ``cumulative_drops``: a step of k at round r is k drops at round r.  A
    count that falls is an error.
    """
    drop_rounds: list[int] = []
    dropped = 0
    for expected, row in enumerate(rows, 1):
        if row.run != run:
            raise ValueError(f"run {run}: a row of run {row.run} at round {row.round}")
        if row.round != expected:
            raise ValueError(
                f"run {run}: round {row.round} where round {expected} belongs "
                "(a run's rows are rounds 1..n, each once)"
            )
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


@contextmanager
def _unlimited_int_strings():
    """Lift Python's limit on the digits of an int converted to or from a
    string (4,300 by default since Python 3.10.7) for the block, and restore
    the previous limit after it.  A round's total satisfaction sums its
    winners' factors, so its denominator grows with the distinct factor
    denominators among them and can pass the limit on a valid market."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _json_row(row) -> dict:
    """A report row's (or config's) fields, money as an exact fraction string."""
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(row).items()}


def _scalar(value) -> str:
    """``json.dumps(value)``; an exact str, int, finite float, bool or None builds no encoder."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or kind is float and math.isfinite(value):
        return kind.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    return json.dumps(value)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, when
    every object key is a string.  ``json`` runs its C encoder only without
    ``indent``; here each list of strings, or of non-empty string lists (a
    price history), goes to its C string encoder in one join, a scalar to :func:`_scalar`."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join(
            f"{_quote(k)}: "
            f"{_json_text(v, inner) if isinstance(v, (dict, list, tuple)) else _scalar(v)}"
            for k, v in sorted(value.items())
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if not isinstance(value, (list, tuple)):
        return _scalar(value)
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds == {str}:
        body = sep.join(map(_quote, value))
    elif kinds <= {list, tuple} and all(value) and set(map(type, chain.from_iterable(value))) == {str}:
        deeper = sep + "  "
        body = sep.join(f"[\n{inner}  {deeper.join(map(_quote, v))}\n{inner}]" for v in value)
    else:
        body = sep.join(_json_text(v, inner) for v in value)
    return f"[\n{inner}{body}\n{pad}]"


def report_to_json(report: SimulationReport) -> str:
    """``report.json``'s text: :func:`_json_text` of the report plus a newline."""
    with _unlimited_int_strings():
        per_round = [_json_row(r) for r in report.per_round]
        per_run = [_json_row(r) for r in report.per_run]
    payload = {
        "config": report.config_echo,
        "per_round": per_round,
        "per_run": per_run,
        "repositories": list(report.final_repositories),
    }
    return _json_text(payload) + "\n"


def _load_field(name: str, kind, value):
    """A JSON value read as a report row field of declared type ``kind``:
    ``int`` a count (``round`` positive), ``Money`` exact, ``float`` finite,
    ``Optional[float]`` also ``null``."""
    if kind is int:
        return _check_count(value, name, positive=name == "round")
    if value is None and kind == Optional[float]:
        return None
    try:
        money = as_money(value)
        return money if kind is Money else float(money)
    except (ValueError, ZeroDivisionError, OverflowError):  # float(Fraction(10**400)) overflows
        raise ValueError(f"{name} must be a finite number, got {value!r}") from None


def parse_report(text: str) -> SimulationReport:
    """Inverse of :func:`report_to_json`: exact round-trip of a report.

    Row fields are read by their types (:func:`_load_field`): counts must be
    JSON integers, other values finite numbers or fraction strings; anything
    else (``true`` and NaN included) raises a ``ValueError`` naming the field,
    as does a missing field or a value that is not the JSON object or array
    the report holds there; a repository snapshot is kept as loaded once
    its loader (:func:`~faircda.model.repository_from_dict`) reads it.  The
    ``per_run`` rows, sorted by run, must be the derived
    :attr:`SimulationReport.per_run`, or a ``ValueError`` names the run;
    deriving them requires each run's per-round rows to be rounds 1..n, once
    each.
    """
    payload = _json_value(json.loads(text), "report", keys=("config", *_TABLES, "repositories"))
    rounds, runs, repositories = (
        [_json_value(r, f"{name} entry", keys=keys) for r in _json_value(payload[name], name, list)]
        for name, keys in (*_TABLES.items(), ("repositories", ("records", "round_counter")))
    )
    for snapshot in repositories:
        repository_from_dict(snapshot)
    with _unlimited_int_strings():
        per_round, per_run = (
            [
                cls(**{k: _load_field(k, t, r[k]) for k, t in _FIELD_TYPES[cls].items()})
                for r in rows
            ]
            for cls, rows in ((PerRoundRow, rounds), (RunMetrics, runs))
        )
        report = SimulationReport(
            per_round=per_round, config_echo=_json_value(payload["config"], "config"),
            final_repositories=repositories,
        )
        for got, want in zip_longest(sorted(per_run, key=lambda r: r.run), report.per_run):
            if got is None or want is None or got.run != want.run:
                run = min(r.run for r in (got, want) if r is not None)
                raise ValueError(
                    f"run {run}: per_run needs one row for each run with per-round rows"
                )
            for name in PER_RUN_FIELDS:
                if getattr(got, name) != getattr(want, name):
                    raise ValueError(
                        f"run {got.run}: per-run {name} is {getattr(got, name)}, "
                        f"but the per-round rows give {getattr(want, name)}"
                    )
    return report


# The files :func:`emit` writes, in the order it writes them.
REPORT_FILES = ("per_round.csv", "per_run.csv", "report.json")


def emit(report: SimulationReport, destination) -> list[Path]:
    """Write :data:`REPORT_FILES` under ``destination`` and return their paths.

    Row order is run-major then round; column order is part of the public
    contract.  The per-run rows are :attr:`SimulationReport.per_run`, derived
    from the per-round rows, so a run whose rows repeat or skip a round, or
    whose drop count falls, aborts the write.
    """
    dest = Path(destination)
    ordered_rounds = sorted(report.per_round, key=lambda r: (r.run, r.round))
    texts = (
        _rows_to_csv(PER_ROUND_FIELDS, map(vars, ordered_rounds)),
        _rows_to_csv(PER_RUN_FIELDS, map(vars, report.per_run)),
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
