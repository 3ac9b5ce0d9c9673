"""Command-line behavior: exit codes and file outputs."""

import json
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircda import cli
from faircda.cli import build_parser, comparison_rows, load_experiment_config, main
from faircda.engine import SOLVER_MODES, EngineConfig
from faircda.metrics import parse_report, report_to_json
from faircda.model import MarketShape
from faircda.wdp_solver import SolverLimits

REPORT_NAMES = ("per_round.csv", "per_run.csv", "report.json")

MICRO = [
    "--consumers", "10", "--providers", "2", "--types", "2",
    "--rounds", "6", "--runs", "2", "--seed", "7",
]


def run_main(args):
    return main([str(a) for a in args])


class TestCmdRun:
    def test_micro_run_emits_all_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_main(["run", *MICRO, "--out", out]) == 0
        assert (out / "per_round.csv").exists()
        assert (out / "per_run.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "run 0:" in stdout and "run 1:" in stdout

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_main(["run", *MICRO, "--out", out_a]) == 0
        assert run_main(["run", *MICRO, "--out", out_b]) == 0
        for name in ("per_round.csv", "per_run.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_invalid_config_exits_one_without_partial_files(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_main(["run", "--rounds", "0", "--out", out]) == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, named",
        [
            # Would fail mid-run: a round with no units offered has no utilization.
            ({"scenario": {"consumers": 5, "providers": 1, "resource_types": 1, "runs": 1,
                           "provider_quantity_range": [0, 5]}}, ()),
            # Would fail in round 2: fairness factors divide by the mean offer.
            ({"scenario": {"consumers": 5, "runs": 1, "consumer_price_range": [0, 0]}}, ()),
            # A report written when oracle was a solver mode: it is a reference only now.
            ({"scenario": {"consumers": 5, "runs": 1}, "engine": {"solver": "oracle"}},
             ("engine.solver", "'oracle'")),
            # Would fail in round 1: price draws are int64 cents.
            ({"scenario": {"consumers": 5, "runs": 1, "consumer_price_range": ["1e17", "1e18"]}},
             ("consumer_price_range",)),
            # Would settle a wrong allocation in round 1: unit counts are int64.
            ({"scenario": {"consumers": 3, "providers": 2, "resource_types": 1, "runs": 1,
                           "provider_quantity_range": [2**62, 2**62],
                           "consumer_quantity_range": [2**62, 2**62]}},
             ("consumer_quantity_range", "provider_quantity_range")),
        ],
        ids=["no-units-offered", "zero-prices", "oracle-solver", "price-past-int64",
             "units-past-int64"],
    )
    def test_config_that_cannot_finish_exits_one_without_files(
        self, tmp_path, capsys, config, named
    ):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "results"
        assert run_main(["run", "--config", config_path, "--rounds", "40", "--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(word in err for word in named)

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("below", ["", "x"])
    def test_output_dir_that_cannot_be_a_directory_exits_one(
        self, tmp_path, capsys, command, below
    ):
        # The path, or its nearest existing ancestor, is a regular file.
        afile = tmp_path / "afile"
        afile.write_text("kept")
        args = ["--consumers", "5", "--providers", "2", "--types", "1", "--rounds", "2"]
        out = afile / below if below else afile
        assert run_main([command, *args, "--runs", "1", "--out", out]) == 1
        assert afile.read_text() == "kept"
        # Rejected before any round: nothing was run or printed.
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: output_dir")

    @pytest.mark.parametrize(
        "blocked, make",
        [("fairness", "file"), ("baseline", "file"), ("comparison.csv", "dir")],
    )
    def test_compare_output_that_cannot_be_written_exits_one(
        self, tmp_path, capsys, blocked, make
    ):
        # The output directory is fine, but one arm's subdirectory is a
        # regular file, or comparison.csv is a directory.
        out = tmp_path / "pair"
        out.mkdir()
        if make == "file":
            (out / blocked).write_text("kept")
        else:
            (out / blocked).mkdir()
        args = ["--consumers", "5", "--providers", "2", "--types", "1", "--rounds", "2"]
        assert run_main(["compare", *args, "--runs", "1", "--out", out]) == 1
        # Rejected before any round: nothing was run, printed or written.
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: output_dir")
        assert sorted(p.name for p in out.iterdir()) == [blocked]

    @pytest.mark.parametrize(
        "command, blocked",
        # comparison.csv is the case of the test above.
        [("run", name) for name in REPORT_NAMES]
        + [("compare", f"{arm}/{name}") for arm in ("fairness", "baseline")
           for name in REPORT_NAMES],
    )
    def test_output_file_that_is_a_directory_exits_one_without_files(
        self, tmp_path, capsys, command, blocked
    ):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        args = ["--consumers", "5", "--providers", "2", "--types", "1", "--rounds", "2"]
        assert run_main([command, *args, "--runs", "1", "--out", out]) == 1
        # Rejected before any round: nothing was run, printed or written.
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: output_dir")
        assert blocked in captured.err
        assert [p for p in out.rglob("*") if not p.is_dir()] == []

    def test_every_flag_sets_its_config_key(self):
        args = build_parser().parse_args([
            "run", "--seed", "5", "--rounds", "3", "--runs", "2", "--consumers", "7",
            "--providers", "3", "--types", "2", "--no-fairness", "--solver", "exact",
            "--time-limit-ms", "1500", "--node-budget", "9", "--out", "elsewhere",
        ])
        config = load_experiment_config(None, args)
        assert config.scenario.shape == MarketShape(7, 3, 2) and config.scenario.runs == 2
        assert config.engine == replace(
            EngineConfig(), fairness_enabled=False, solver_mode="exact",
            solver_limits=SolverLimits(9, 1.5), rounds=3, master_seed=5,
        )
        assert config.output_dir == Path("elsewhere")

    @pytest.mark.parametrize(
        "args, flag",
        [(["run", "--jobs", "0", "--out", "out"], "--jobs")],
    )
    def test_bad_option_exits_one_naming_its_flag(self, tmp_path, monkeypatch, capsys, args, flag):
        monkeypatch.chdir(tmp_path)
        assert run_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {flag} ")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=25, deadline=None)
    @given(
        consumers=st.integers(1, 14),
        providers=st.integers(1, 3),
        types=st.integers(1, 2),
        rounds=st.integers(1, 3),
        solver=st.sampled_from(SOLVER_MODES),
        fairness=st.booleans(),
        seed=st.integers(0, 5),
    )
    def test_accepted_config_and_solver_run_to_completion_or_exit_one(
        self, consumers, providers, types, rounds, solver, fairness, seed
    ):
        config = {
            "scenario": {"consumers": consumers, "providers": providers,
                         "resource_types": types, "runs": 1},
            "engine": {"rounds": rounds, "solver": solver, "fairness_enabled": fairness,
                       "master_seed": seed},
        }
        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "experiment.json"
            config_path.write_text(json.dumps(config))
            out = Path(tmp) / "results"
            code = run_main(["run", "--config", config_path, "--out", out])
            # Exit 2 is a failure after the config was accepted.
            assert code in (0, 1)
            if code == 0:
                assert sorted(p.name for p in out.iterdir()) == [
                    "per_round.csv", "per_run.csv", "report.json"]
            else:
                assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scenario", "consumers", 5.9),
            ("scenario", "runs", True),
            ("scenario", "consumer_quantity_range", [1, 2.5]),
            ("scenario", "provider_quantity_range", 30),
            ("engine", "rounds", 2.7),
            ("engine", "master_seed", "3"),
            ("engine", "node_budget", 1e5),
            ("engine", "fairness_params", {"max_losses": 2.0}),
            ("engine", "fairness_enabled", "false"),
            ("engine", "fairness_enabled", 0),
        ],
    )
    def test_mistyped_config_value_exits_one_without_files(
        self, tmp_path, capsys, section, key, value
    ):
        config = {"scenario": {"consumers": 5, "runs": 1}, "engine": {"rounds": 2}}
        config[section][key] = value
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "results"
        assert run_main(["run", "--config", config_path, "--out", out]) == 1
        assert not out.exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"bogus": 1}, "bogus"),
            ({"scenario": {"consumers": 5, "colour": "red"}}, "scenario.colour"),
            ({"engine": {"fairnes_enabled": False}}, "engine.fairnes_enabled"),
            ({"engine": {"fairness_params": {"gamma": 1}}}, "engine.fairness_params.gamma"),
            ({"scenario": {"rounds": 50}}, "scenario.rounds"),
            ({"scenario": 7}, "scenario"),
            ({"engine": {"fairness_params": 5}}, "engine.fairness_params"),
            ([{"scenario": {}}], "config"),
            ({"engine": {"time_budget_s": True}}, "time_budget_s"),
            ({"engine": {"time_budget_s": "abc"}}, "time_budget_s"),
            ({"output_dir": 5}, "output_dir"),
            ({"scenario": {"price_drift": "x"}}, "price_drift"),
            ({"scenario": {"consumer_price_range": ["abc", 250]}}, "consumer_price_range"),
            ({"scenario": {"provider_price_range": [50, "1/0"]}}, "provider_price_range"),
            ({"engine": {"fairness_params": {"alpha1": "x"}}}, "alpha1"),
            ({"engine": {"fairness_params": {"beta1": None}}}, "beta1"),
            ({"engine": {"time_budget_s": 1e400}}, "time_budget_s"),
            ({"engine": {"time_budget_s": 10**400}}, "time_budget_s"),
        ],
    )
    def test_config_outside_the_schema_exits_one_without_files(
        self, tmp_path, monkeypatch, capsys, config, named
    ):
        # No --out: a run would write to the config's output_dir, or "out", under tmp_path.
        monkeypatch.chdir(tmp_path)
        Path("experiment.json").write_text(json.dumps(config))
        assert run_main(["run", "--config", "experiment.json", "--rounds", "2", "--runs", "1"]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["experiment.json"]
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("extra", [[], ["--solver", "exact", "--time-limit-ms", "60000"]])
    def test_report_config_fed_back_gives_the_same_report(self, tmp_path, extra):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_main(["run", *MICRO, *extra, "--out", first]) == 0
        config_path = tmp_path / "echo.json"
        config_path.write_text(json.dumps(json.loads((first / "report.json").read_text())["config"]))
        assert run_main(["run", "--config", config_path, "--out", second]) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    def test_hundred_million_units_run_in_bounded_memory(self, tmp_path):
        # Heuristic memory must not grow with unit counts.
        config_path = tmp_path / "experiment.json"
        units = [5 * 10**7, 10**8]
        config_path.write_text(json.dumps({
            "scenario": {"consumers": 4, "providers": 2, "resource_types": 1, "runs": 1,
                         "provider_quantity_range": units, "consumer_quantity_range": units},
            "engine": {"rounds": 2, "solver": "heuristic"},
        }))
        out = tmp_path / "results"
        tracemalloc.start()
        try:
            assert run_main(["run", "--config", config_path, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert len(parse_report((out / "report.json").read_text()).per_round) == 2

    def test_single_round_single_run_smoke(self, tmp_path):
        out = tmp_path / "one"
        code = run_main(
            ["run", "--consumers", "5", "--providers", "1", "--types", "1",
             "--rounds", "1", "--runs", "1", "--out", out]
        )
        assert code == 0
        lines = (out / "per_round.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row

    def test_time_budget_marks_the_report_machine_dependent(self, tmp_path):
        timed, untimed = tmp_path / "timed", tmp_path / "untimed"
        assert run_main(["run", *MICRO, "--time-limit-ms", "60000", "--out", timed]) == 0
        assert run_main(["run", *MICRO, "--out", untimed]) == 0
        text = (timed / "report.json").read_text()
        report = parse_report(text)
        assert report.config_echo["engine"]["machine_dependent"] is True
        assert report.config_echo["engine"]["time_budget_s"] == 60.0
        assert report_to_json(report) == text
        plain = parse_report((untimed / "report.json").read_text())
        assert "machine_dependent" not in plain.config_echo["engine"]

    def test_usage_error_exits_one(self, capsys):
        for solver in ("magic", "oracle"):
            assert run_main(["run", "--solver", solver]) == 1
            assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, tmp_path):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps({
            "scenario": {"consumers": 8, "providers": 2, "resource_types": 2, "runs": 1},
            "engine": {"rounds": 9, "master_seed": 4},
            "output_dir": str(tmp_path / "from_file"),
        }))
        out = tmp_path / "flagged"
        assert run_main(["run", "--config", config_path, "--rounds", "3", "--out", out]) == 0
        report = parse_report((out / "report.json").read_text())
        assert report.config_echo["engine"]["rounds"] == 3
        assert report.config_echo["scenario"]["consumers"] == 8
        assert not (tmp_path / "from_file").exists()


@pytest.fixture(scope="module")
def compare_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("cmp") / "out"
    assert run_main(["compare", *MICRO, "--out", out]) == 0
    return out


class TestCmdCompare:

    def test_emits_both_arms_and_the_delta_table(self, compare_out):
        assert (compare_out / "fairness" / "report.json").exists()
        assert (compare_out / "baseline" / "report.json").exists()
        assert (compare_out / "comparison.csv").exists()

    def test_one_delta_row_per_run(self, compare_out):
        lines = (compare_out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + one row per run

    def test_round_one_is_identical_across_arms(self, compare_out):
        fair = parse_report((compare_out / "fairness" / "report.json").read_text())
        base = parse_report((compare_out / "baseline" / "report.json").read_text())
        for f, b in zip(fair.per_round, base.per_round):
            if f.round == 1:
                assert (f.total_utility, f.utilization_percent, f.win_percent) == (
                    b.total_utility, b.utilization_percent, b.win_percent)
                assert f.total_satisfaction == b.total_satisfaction == 0

    def test_fairness_arm_eventually_applies_factors(self, compare_out):
        fair = parse_report((compare_out / "fairness" / "report.json").read_text())
        later = [r for r in fair.per_round if r.round > 1]
        assert any(r.total_satisfaction != 0 for r in later)

    def test_baseline_arm_never_has_satisfaction(self, compare_out):
        base = parse_report((compare_out / "baseline" / "report.json").read_text())
        assert all(r.total_satisfaction == 0 for r in base.per_round)


class TestComparisonRows:
    def test_reports_must_align(self, tmp_path):
        out = tmp_path / "out"
        assert run_main(["run", *MICRO, "--out", out]) == 0
        report = parse_report((out / "report.json").read_text())
        shorter = replace(report, per_round=[r for r in report.per_round if r.run == 0])
        with pytest.raises(ValueError, match="run counts"):
            comparison_rows(report, shorter)

    def test_delta_signs(self, tmp_path):
        out = tmp_path / "out"
        assert run_main(["compare", *MICRO, "--out", out]) == 0
        fair = parse_report((out / "fairness" / "report.json").read_text())
        base = parse_report((out / "baseline" / "report.json").read_text())
        for row, f, b in zip(comparison_rows(fair, base), fair.per_run, base.per_run):
            assert row["drops_delta"] == b.drops - f.drops
            assert row["total_utility_delta"] == f.total_utility - b.total_utility
            assert row["utilization_delta"] == pytest.approx(
                f.mean_utilization - b.mean_utilization)


class TestRetiredValidate:
    def test_validate_is_an_invalid_choice_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        """``validate`` was a command until the solvers' reference moved into
        the test suite; naming it is a usage error, like the retired
        ``--solver oracle``."""
        monkeypatch.chdir(tmp_path)
        assert run_main(["validate", "--count", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'validate'" in captured.err
        assert list(tmp_path.iterdir()) == []


def test_value_error_while_running_exits_two(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken run")

    monkeypatch.setattr(cli, "run_simulation", broken)
    assert run_main(["run", *MICRO, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "failure: broken run\n"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err
