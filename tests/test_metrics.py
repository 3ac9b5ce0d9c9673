"""Metric formulas, aggregation, and deterministic emission."""

import json
import re
import sys
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircda.metrics import (
    PER_ROUND_FIELDS,
    PER_RUN_FIELDS,
    PerRoundRow,
    RunMetrics,
    SimulationReport,
    _json_text,
    aggregate,
    emit,
    parse_report,
    report_to_json,
    units_offered,
    utilization_from_units,
    win_rate_percent,
)
from faircda.model import ProviderBid


def make_row(round_index=1, total_utility=0, satisfaction=0, utilization=0.0,
             win=0.0, cumulative_drops=0, run=0):
    return PerRoundRow(
        run=run,
        round=round_index,
        total_utility=Fraction(total_utility),
        total_satisfaction=Fraction(satisfaction),
        utilization_percent=utilization,
        win_percent=win,
        cumulative_drops=cumulative_drops,
    )


OFFERS = [ProviderBid(0, (Fraction(5),), (10,))]


class TestUtilization:
    def test_partial(self):
        assert utilization_from_units(4, units_offered(OFFERS)) == 40.0

    def test_nothing_sold(self):
        assert utilization_from_units(0, units_offered(OFFERS)) == 0.0

    def test_everything_sold(self):
        assert utilization_from_units(10, units_offered(OFFERS)) == 100.0

    def test_zero_offer_is_an_error(self):
        empty = [ProviderBid(0, (Fraction(5),), (0,))]
        with pytest.raises(ValueError, match="no units"):
            utilization_from_units(0, units_offered(empty))

    def test_units_offered_sums_everything(self):
        offers = [
            ProviderBid(0, (Fraction(5), Fraction(6)), (3, 4)),
            ProviderBid(1, (Fraction(7), Fraction(8)), (0, 2)),
        ]
        assert units_offered(offers) == 9


class TestWinPercent:
    def test_ratio(self):
        assert win_rate_percent(1, 10) == 10.0

    def test_everyone_wins(self):
        assert win_rate_percent(3, 3) == 100.0

    def test_nobody_wins(self):
        assert win_rate_percent(0, 3) == 0.0

    def test_no_participants_is_an_error(self):
        with pytest.raises(ValueError, match="participants"):
            win_rate_percent(0, 0)


class TestAggregate:
    def test_no_drops_reports_absent_mean(self):
        row = aggregate([make_row(total_utility=5)], 0)
        assert row.drops == 0 and row.mean_drop_round is None

    def test_mean_drop_round(self):
        rows = [make_row(r, cumulative_drops=(r >= 10) + (r >= 20)) for r in range(1, 26)]
        row = aggregate(rows, 0)
        assert row.drops == 2 and row.mean_drop_round == 15.0

    def test_drops_in_one_round_count_once_each(self):
        rows = [make_row(1), make_row(2, cumulative_drops=3), make_row(3, cumulative_drops=4)]
        row = aggregate(rows, 0)
        assert row.drops == 4 and row.mean_drop_round == (2 + 2 + 2 + 3) / 4

    def test_falling_drop_count_is_an_error(self):
        rows = [make_row(1, cumulative_drops=2), make_row(2, cumulative_drops=1)]
        with pytest.raises(ValueError, match="cumulative drops fall from 2 to 1 at round 2"):
            aggregate(rows, 0)

    def test_another_runs_row_is_an_error(self):
        rows = [make_row(1, run=1), make_row(2, run=1)]
        assert aggregate(rows, 1).run == 1
        with pytest.raises(ValueError, match="run 0: a row of run 1 at round 1"):
            aggregate(rows, 0)

    def test_utility_sums_exactly(self):
        rows = [make_row(1, total_utility=5), make_row(2, total_utility=7)]
        assert aggregate(rows, 0).total_utility == 12

    def test_means_over_rounds(self):
        rows = [make_row(1, utilization=40.0, win=50.0), make_row(2, utilization=20.0, win=0.0)]
        row = aggregate(rows, 0)
        assert (row.mean_utilization, row.mean_win_percent) == (30.0, 25.0)


class TestPerRoundRows:
    def test_cumulative_drops_monotone(self):
        from faircda.engine import EngineConfig, repository_from_dict, run_simulation
        from faircda.model import MarketShape
        from faircda.scenario import ScenarioConfig

        report = run_simulation(
            ScenarioConfig(shape=MarketShape(8, 1, 1), runs=1, provider_quantity_range=(5, 8)),
            EngineConfig(rounds=25, master_seed=5, fairness_enabled=False),
        )
        counts = [r.cumulative_drops for r in report.per_round]
        assert counts == sorted(counts) and counts[-1] > 0
        records = repository_from_dict(report.final_repositories[0]).records.values()
        for row in report.per_round:
            assert row.cumulative_drops == sum(
                rec.dropped_at_round is not None and rec.dropped_at_round <= row.round
                for rec in records
            )


def tiny_report():
    rows = (
        make_row(1, total_utility=5, utilization=40.0, win=100 / 3, cumulative_drops=1),
        make_row(2, total_utility=7, utilization=20.0, win=100 / 3, cumulative_drops=1),
    )
    return SimulationReport(
        per_round=rows,
        config_echo={"engine": {"rounds": 2}},
        final_repositories=(),
    )


# A value that contradicts ``tiny_report``'s rows, for every per-run field but ``run``.
WRONG_PER_RUN_VALUES = {
    "total_utility": Fraction(999),
    "drops": 2,
    "mean_drop_round": 2.0,
    "mean_utilization": 0.0,
    "mean_win_percent": 0.0,
}


MISSING = object()


class TestEmit:
    def test_headers_are_the_public_contract(self, tmp_path):
        report = SimulationReport(per_round=())
        per_round, per_run, _ = emit(report, tmp_path)
        assert per_round.read_text() == ",".join(PER_ROUND_FIELDS) + "\n"
        assert per_run.read_text() == ",".join(PER_RUN_FIELDS) + "\n"

    def test_emission_is_byte_identical(self, tmp_path):
        report = tiny_report()
        first = {p.name: p.read_bytes() for p in emit(report, tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in emit(report, tmp_path / "b")}
        assert first == second

    def test_json_round_trip(self):
        report = tiny_report()
        assert parse_report(report_to_json(report)) == report

    @pytest.mark.parametrize("limit", [None, 640])
    def test_money_past_the_int_string_limit_round_trips(self, tmp_path, limit):
        # A satisfaction whose denominator has more digits than Python
        # converts by default (4,300), written and read at the default limit
        # and at the lowest one; the limit is restored afterwards.
        satisfaction = Fraction(-7, 3**10_500)
        report = SimulationReport(per_round=(make_row(satisfaction=satisfaction),))
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        previous = get_limit()
        if limit is not None:
            if previous is None:
                pytest.skip("this Python has no int string limit")
            sys.set_int_max_str_digits(limit)
        try:
            emit(report, tmp_path)
            assert get_limit() == (limit or previous)
            text = (tmp_path / "report.json").read_text()
            assert len(json.loads(text)["per_round"][0]["total_satisfaction"]) > 5000
            assert parse_report(text) == report
            assert get_limit() == (limit or previous)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize(
        "table, field, value",
        [("per_round", "cumulative_drops", "0"), ("per_round", "run", True),
         ("per_round", "round", 0), ("per_run", "drops", 1.0), ("per_run", "run", True),
         ("per_round", "total_utility", True), ("per_round", "total_satisfaction", True),
         ("per_round", "total_satisfaction", "nan"), ("per_run", "total_utility", True),
         ("per_round", "utilization_percent", True), ("per_round", "win_percent", "nan"),
         ("per_round", "utilization_percent", "nan"), ("per_run", "mean_utilization", True),
         ("per_run", "mean_win_percent", "nan"), ("per_run", "mean_drop_round", True),
         ("per_run", "mean_utilization", float("nan")),
         # Finite, but past a float's range.
         ("per_round", "utilization_percent", "1e400"), ("per_run", "mean_win_percent", 10**400),
         # A missing field, a non-object and a non-array: table None is the
         # report itself, field None replaces the whole row or report.
         pytest.param("per_round", "round", MISSING, id="per_round-round-missing"),
         pytest.param(None, "repositories", MISSING, id="repositories-missing"),
         pytest.param(None, None, [], id="report-array"),
         pytest.param("per_run", None, 5, id="per_run-row-5"),
         pytest.param(None, "per_round", {}, id="per_round-object"),
         pytest.param(None, "config", 5, id="config-5"),
         # Each repository snapshot is an object holding its two fields.
         pytest.param(None, "repositories", [5, "x"], id="repositories-entry-5"),
         pytest.param(None, "repositories", [{"records": {}}], id="repositories-entry-missing"),
         pytest.param(None, "repositories", [{"round_counter": 0}],
                      id="repositories-entry-no-records")],
    )
    def test_malformed_counts_rejected_at_load(self, table, field, value):
        payload = json.loads(report_to_json(tiny_report()))
        if field is None and table is None:
            payload = value
        elif field is None:
            payload[table][0] = value
        else:
            target = payload if table is None else payload[table][0]
            target[field] = value
            if value is MISSING:
                del target[field]
        with pytest.raises(ValueError, match=field or table or "report"):
            parse_report(json.dumps(payload))

    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(lambda s: s.update(records=5), "records must be a JSON object",
                      id="records-5"),
         pytest.param(lambda s: s["records"]["0"].update(wins="x"), "wins must be a non-negative",
                      id="wins-x"),
         pytest.param(lambda s: s["records"]["0"].update(price_history=[["-1"]]),
                      "price history entry must be non-negative", id="negative-price"),
         pytest.param(lambda s: s.update(round_counter=-1), "round_counter must be",
                      id="round-counter-negative")],
    )
    def test_each_repository_snapshot_is_loaded(self, edit, message):
        record = {"wins": 1, "losses": 0, "consecutive_losses": 0, "dropped_at_round": None,
                  "price_history": [["5/2", "3"]]}
        payload = json.loads(report_to_json(tiny_report()))
        payload["repositories"] = [{"records": {"0": record}, "round_counter": 1}]
        text = _json_text(payload) + "\n"
        assert report_to_json(parse_report(text)) == text  # kept as loaded
        bad = json.loads(text)
        edit(bad["repositories"][0])
        with pytest.raises(ValueError, match=message):
            parse_report(json.dumps(bad))

    def test_emitted_json_parses_back(self, tmp_path):
        report = tiny_report()
        _, _, json_path = emit(report, tmp_path)
        assert parse_report(json_path.read_text()) == report

    def test_per_run_is_derived_from_the_per_round_rows(self):
        report = tiny_report()
        assert report.per_run == (aggregate(report.per_round, 0),)
        assert report.per_run is report.per_run  # built once, then kept

    @pytest.mark.parametrize("name", WRONG_PER_RUN_VALUES)
    def test_inconsistent_aggregates_refuse_to_emit(self, name):
        # A report carries no per-run rows, so a wrong one can only come from
        # outside; parse_report refuses it before anything can emit it.
        payload = json.loads(report_to_json(tiny_report()))
        value = WRONG_PER_RUN_VALUES[name]
        payload["per_run"][0][name] = str(value) if isinstance(value, Fraction) else value
        with pytest.raises(ValueError, match=f"run 0: per-run {name} is"):
            parse_report(json.dumps(payload))

    def test_every_per_run_field_is_cross_checked(self):
        assert set(WRONG_PER_RUN_VALUES) == set(PER_RUN_FIELDS) - {"run"}

    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(lambda rows: rows[:1], "run 1: per_run needs", id="missing"),
         pytest.param(lambda rows: rows + [{**rows[0], "run": 7}], "run 7: per_run needs",
                      id="extra"),
         pytest.param(lambda rows: rows + rows[:1], "run 0: per_run needs", id="duplicated")],
    )
    def test_per_run_rows_must_cover_each_run_once(self, edit, message):
        report = tiny_report()
        rows = report.per_round
        two_runs = replace(report, per_round=rows + tuple(replace(r, run=1) for r in rows))
        payload = json.loads(report_to_json(two_runs))
        payload["per_run"] = edit(payload["per_run"])
        with pytest.raises(ValueError, match=message):
            parse_report(json.dumps(payload))

    @pytest.mark.parametrize(
        "edit, message",
        [pytest.param(lambda rows: rows + rows[-1:], "run 0: round 3 where round 4 belongs",
                      id="duplicated"),
         pytest.param(lambda rows: rows[:1] + rows[2:], "run 0: round 3 where round 2 belongs",
                      id="skipped")],
    )
    def test_each_run_holds_rounds_one_to_n_once(self, tmp_path, edit, message):
        rows = edit(tuple(make_row(r, total_utility=r, utilization=10.0 * r) for r in (1, 2, 3)))
        # The per_run row the edited rows sum to: with no drops, their round
        # numbers do not enter it, so it equals that of the rows numbered 1..n.
        numbered = [replace(row, round=r) for r, row in enumerate(rows, 1)]
        payload = json.loads(report_to_json(SimulationReport(per_round=numbered)))
        for row, json_row in zip(rows, payload["per_round"]):
            json_row["round"] = row.round
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_report(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            emit(SimulationReport(per_round=rows), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_falling_cumulative_drops_refuse_to_emit(self, tmp_path):
        report = tiny_report()
        rows = (report.per_round[0], replace(report.per_round[1], cumulative_drops=0))
        broken = replace(report, per_round=rows)
        with pytest.raises(ValueError, match="cumulative drops fall from 1 to 0 at round 2"):
            emit(broken, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_rows_out_of_round_order_are_checked_in_round_order(self, tmp_path):
        report = tiny_report()
        emit(replace(report, per_round=report.per_round[::-1]), tmp_path)

    def test_absent_mean_drop_round_is_empty_cell(self, tmp_path):
        rows = (make_row(1, total_utility=1),)
        report = SimulationReport(per_round=rows)
        _, per_run, _ = emit(report, tmp_path)
        line = per_run.read_text().splitlines()[1]
        assert line.split(",")[PER_RUN_FIELDS.index("mean_drop_round")] == ""

    def test_io_failure_names_the_destination(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        with pytest.raises(OSError, match="not_a_dir"):
            emit(tiny_report(), blocker)

    def test_full_simulation_report_round_trips(self):
        from faircda.engine import EngineConfig, run_simulation
        from faircda.scenario import ScenarioConfig
        from faircda.model import MarketShape

        report = run_simulation(
            ScenarioConfig(shape=MarketShape(8, 2, 2), runs=2),
            EngineConfig(rounds=4, master_seed=1),
        )
        assert parse_report(report_to_json(report)) == report


# Characters the JSON string encoder escapes or that mark a layout: quotes,
# backslashes, control characters, brackets, commas, and non-ASCII text.
_json_strings = st.text(
    st.one_of(st.sampled_from('"\\[],:\n\t\x00\x1f\x7f é€😀'), st.characters()), max_size=6
)
_json_scalars = st.one_of(
    _json_strings,
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**30]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-7]),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_json_strings, children, max_size=4),
        # The writer's fast paths: string lists (empty ones included),
        # lists of them, and lists mixing strings with string lists.
        st.lists(_json_strings, max_size=4),
        st.lists(st.lists(_json_strings, max_size=3), max_size=4),
        st.lists(st.one_of(_json_strings, st.lists(_json_strings, max_size=3)), max_size=4),
    ),
    max_leaves=24,
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    @example([])
    @example([[]])
    @example([["a"], []])
    @example(["a", ["b"]])
    @example({"k": [["1/2", "3"], ("4",)], "": {}})
    def test_same_bytes_as_the_stdlib(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [IntEnum("Size", "ONE").ONE, type("Str", (str,), {})("x"), type("Real", (float,), {})(0.5),
         Fraction(1, 2), object()],
    )
    def test_scalar_subclasses_and_other_types_as_the_stdlib(self, value):
        """Scalars past the typed fast path: the stdlib's bytes, or its error."""
        payload = {"k": value, "list": [value]}
        try:
            want = json.dumps(payload, indent=2, sort_keys=True)
        except TypeError as exc:
            with pytest.raises(TypeError, match=re.escape(str(exc))):
                _json_text(payload)
        else:
            assert _json_text(payload) == want

    def test_real_report_and_its_repository(self):
        """A contested two-run fairness report; its last run drops a consumer."""
        from faircda.engine import (
            EngineConfig,
            repository_from_dict,
            repository_to_dict,
            run_simulation,
        )
        from faircda.model import MarketShape
        from faircda.scenario import ScenarioConfig

        report = run_simulation(
            ScenarioConfig(shape=MarketShape(40, 3, 2), runs=2, provider_quantity_range=(10, 26)),
            EngineConfig(rounds=16, master_seed=3),
        )
        assert report.per_run[-1].drops > 0
        text = report_to_json(report)
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        repo = repository_from_dict(report.final_repositories[-1])
        snapshot = _json_text(repository_to_dict(repo))
        assert snapshot == json.dumps(json.loads(snapshot), indent=2, sort_keys=True)
