"""Metric formulas, aggregation, and deterministic emission."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from faircda.metrics import (
    PER_ROUND_FIELDS,
    PER_RUN_FIELDS,
    PerRoundRow,
    RunMetrics,
    SimulationReport,
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
        per_run=(aggregate(rows, 0),),
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


class TestEmit:
    def test_headers_are_the_public_contract(self, tmp_path):
        report = SimulationReport(per_round=(), per_run=())
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

    @pytest.mark.parametrize(
        "table, field, value",
        [("per_round", "cumulative_drops", "0"), ("per_round", "run", True),
         ("per_round", "round", 0), ("per_run", "drops", 1.0), ("per_run", "run", True),
         ("per_round", "total_utility", True), ("per_round", "total_satisfaction", True),
         ("per_round", "total_satisfaction", "nan"), ("per_run", "total_utility", True),
         ("per_round", "utilization_percent", True), ("per_round", "win_percent", "nan"),
         ("per_round", "utilization_percent", "nan"), ("per_run", "mean_utilization", True),
         ("per_run", "mean_win_percent", "nan"), ("per_run", "mean_drop_round", True),
         ("per_run", "mean_utilization", float("nan"))],
    )
    def test_malformed_counts_rejected_at_load(self, table, field, value):
        payload = json.loads(report_to_json(tiny_report()))
        payload[table][0][field] = value
        with pytest.raises(ValueError, match=field):
            parse_report(json.dumps(payload))

    def test_emitted_json_parses_back(self, tmp_path):
        report = tiny_report()
        _, _, json_path = emit(report, tmp_path)
        assert parse_report(json_path.read_text()) == report

    @pytest.mark.parametrize("name", WRONG_PER_RUN_VALUES)
    def test_inconsistent_aggregates_refuse_to_emit(self, tmp_path, name):
        report = tiny_report()
        wrong = replace(report.per_run[0], **{name: WRONG_PER_RUN_VALUES[name]})
        with pytest.raises(ValueError, match=f"run 0: per-run {name} is"):
            emit(replace(report, per_run=(wrong,)), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_every_per_run_field_is_cross_checked(self):
        assert set(WRONG_PER_RUN_VALUES) == set(PER_RUN_FIELDS) - {"run"}

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
        report = SimulationReport(per_round=rows, per_run=(aggregate(rows, 0),))
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
