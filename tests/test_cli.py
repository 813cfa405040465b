"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestArtefactCommands:
    def test_fig4_runs_and_prints_table(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "chunk size" in out

    def test_table1_accepts_overrides(self, capsys):
        assert main(["table1", "--error-rate", "1e-6", "--area-budget", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "adpcm-encode" in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize(
        "command", [["fig4"], ["table1"], ["ablations"], ["pareto", "--app", "adpcm-encode"]]
    )
    def test_design_subcommands_have_no_engine_flag(self, command, capsys):
        # Design-space artefacts have one engine, the grid solver.
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--engine", "batched"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_pareto_has_no_jobs_flag(self, capsys):
        # The subcommand runs one spec in process: there is nothing to fan out.
        with pytest.raises(SystemExit) as exit_info:
            main(["pareto", "--app", "adpcm-encode", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_help_mentions_all_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for name in ("fig4", "table1", "fig5", "timing", "ablations", "all",
                     "run", "campaign", "sweep"):
            assert name in out


class TestMachineReadableOutput:
    def test_table1_json_matches_table_rows(self, capsys):
        """--format json parses and carries the same values as the table."""
        assert main(["table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["title"].startswith("Table I")
        json_rows = {row["application"]: row for row in payload["rows"]}

        assert main(["table1"]) == 0
        table = capsys.readouterr().out
        assert set(json_rows) == {
            "adpcm-decode", "adpcm-encode", "jpeg-decode", "g721-decode", "g721-encode",
        }
        for app, row in json_rows.items():
            assert app in table
            # The optimum chunk size printed in the table is the JSON value.
            table_line = next(line for line in table.splitlines() if f" {app} " in line)
            assert f" {row['chunk_words']} " in table_line

    def test_fig4_csv_has_header_and_rows(self, capsys):
        assert main(["fig4", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line and not line.startswith("#")]
        assert lines[0] == "chunk_words,max_correctable_bits"
        assert len(lines) > 100

    def test_output_writes_file(self, capsys, tmp_path):
        path = tmp_path / "fig4.json"
        assert main(["fig4", "--format", "json", "--output", str(path)]) == 0
        assert str(path) in capsys.readouterr().out
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["columns"] == ["chunk_words", "max_correctable_bits"]


class TestSpecCommands:
    def test_run_json_record(self, capsys):
        assert main([
            "run", "--app", "adpcm-encode", "--strategy", "hybrid-optimal",
            "--seed", "3", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["rows"]
        assert row["application"] == "adpcm-encode"
        assert row["strategy"] == "hybrid-optimal"
        assert row["seed"] == 3
        assert row["output_correct"] == 1.0

    def test_profile_memo_has_no_flag_only_the_environment_switch(self, capsys, monkeypatch):
        argv = ["run", "--app", "adpcm-encode", "--strategy", "hybrid-optimal", "--format", "json"]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--no-cache"])
        assert excinfo.value.code == 2
        assert "--no-cache" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        assert main(argv) == 0
        memoized = capsys.readouterr().out
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(argv) == 0
        assert capsys.readouterr().out == memoized

    def test_run_rejects_a_negative_seed(self, capsys):
        assert main(["run", "--app", "adpcm-encode", "--seed", "-1"]) == 2
        assert "seed must be an integer" in capsys.readouterr().err

    def test_run_hybrid_requires_chunk_words(self, capsys):
        assert main(["run", "--app", "adpcm-encode", "--strategy", "hybrid"]) == 2
        assert "--chunk-words" in capsys.readouterr().err
        assert main([
            "run", "--app", "adpcm-encode", "--strategy", "hybrid",
            "--chunk-words", "32", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["checkpoints_committed"] > 0

    def test_campaign_aggregates_with_tail_metrics(self, capsys):
        assert main([
            "campaign", "--app", "adpcm-encode", "--strategy", "default",
            "--seeds", "0", "1", "2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "(3 runs)" in payload["title"]
        by_metric = {row["metric"]: row for row in payload["rows"]}
        cycles = by_metric["total_cycles"]
        assert cycles["count"] == 3
        assert cycles["min"] <= cycles["median"] <= cycles["p95"] <= cycles["max"]

    def test_sweep_over_error_rate(self, capsys):
        assert main([
            "sweep", "--app", "g721-decode", "--param", "constraints.error_rate",
            "--values", "1e-7", "1e-6", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["constraints.error_rate"] for row in payload["rows"]] == [1e-7, 1e-6]
        # Higher upset rates force smaller chunks (more frequent checkpoints).
        chunks = [row["chunk_words"] for row in payload["rows"]]
        assert chunks[1] <= chunks[0]


class TestListCommand:
    def test_list_enumerates_every_registry(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_registry = {}
        for row in payload["rows"]:
            by_registry.setdefault(row["registry"], set()).add(row["name"])
        assert "adpcm-encode" in by_registry["app"]
        assert {"hybrid-optimal", "hybrid-adaptive"} <= by_registry["strategy"]
        assert "paper-smu" in by_registry["fault-model"]
        assert {"paper-constant", "burst", "duty-cycle"} <= by_registry["scenario"]
        assert set(by_registry) == {"app", "strategy", "fault-model", "scenario"}

    def test_list_renders_table(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Registries" in out
        assert "scenario" in out


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["rows"]}
        assert {"paper-constant", "burst", "duty-cycle", "ramp", "storm"} <= names
        assert all(row["description"] for row in payload["rows"])

    def test_scenarios_run_with_params(self, capsys):
        assert main([
            "scenarios", "run", "--app", "adpcm-encode",
            "--strategy", "hybrid-adaptive", "--scenario", "burst",
            "--scenario-param", "burst_factor=100", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        (row,) = payload["rows"]
        assert row["scenario"] == "burst"
        assert row["strategy"] == "hybrid-adaptive"

    def test_scenarios_run_rejects_unknown_scenario(self, capsys):
        assert main([
            "scenarios", "run", "--app", "adpcm-encode", "--scenario", "apocalypse",
        ]) == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_scenarios_run_rejects_bad_param_syntax(self, capsys):
        assert main([
            "scenarios", "run", "--app", "adpcm-encode",
            "--scenario", "burst", "--scenario-param", "burst_factor",
        ]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_scenarios_sweep_relative_energy(self, capsys):
        assert main([
            "scenarios", "sweep", "--app", "adpcm-encode",
            "--scenarios", "paper-constant", "burst",
            "--strategies", "hybrid-optimal", "hybrid-adaptive",
            "--seeds", "0", "1", "--jobs", "2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert len(rows) == 4
        firsts = [row for row in rows if row["strategy"] == "hybrid-optimal"]
        assert all(row["relative_energy"] == 1.0 for row in firsts)
        assert all(row["fully_mitigated_fraction"] == 1.0 for row in rows)

    def test_run_accepts_scenario_option(self, capsys):
        assert main([
            "run", "--app", "adpcm-encode", "--strategy", "hybrid-optimal",
            "--scenario", "storm", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["scenario"] == "storm"


class TestOutputPathCreation:
    """``--output`` (and the ResultSet writers) create missing directories."""

    def test_output_creates_missing_parent_directories(self, capsys, tmp_path):
        path = tmp_path / "reports" / "2026-07" / "listing.json"
        assert main(["list", "--format", "json", "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["rows"]
        assert "wrote json report" in capsys.readouterr().out

    def test_result_set_write_creates_parents(self, tmp_path):
        from repro.api.results import ResultSet

        result = ResultSet.from_records("T", [{"a": 1, "b": 2.5}])
        path = tmp_path / "a" / "b" / "c.csv"
        result.write(path, fmt="csv")
        assert path.read_text().splitlines()[0] == "a,b"

    def test_write_report_plain_file_in_existing_dir(self, tmp_path):
        from repro.api.results import write_report

        path = tmp_path / "plain.txt"
        write_report(path, "hello")
        assert path.read_text() == "hello\n"


class TestEngineOption:
    def test_campaign_batched_engine(self, capsys):
        assert main([
            "campaign", "--app", "adpcm-encode", "--strategy", "hybrid-optimal",
            "--runs", "6", "--engine", "batched", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = {row["metric"]: row for row in payload["rows"]}
        assert metrics["energy_nj"]["count"] == 6
        assert metrics["checkpoints_committed"]["mean"] > 0

    def test_campaign_engines_agree_on_deterministic_metrics(self, capsys):
        args = ["campaign", "--app", "adpcm-encode", "--strategy", "default",
                "--runs", "4", "--format", "json"]
        assert main(args) == 0
        behavioural = json.loads(capsys.readouterr().out)
        assert main(args + ["--engine", "batched"]) == 0
        batched = json.loads(capsys.readouterr().out)

        def metric(payload, name):
            return next(r for r in payload["rows"] if r["metric"] == name)

        for name in ("total_cycles", "useful_cycles", "checkpoint_cycles"):
            assert metric(behavioural, name)["mean"] == metric(batched, name)["mean"]

    def test_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--app", "adpcm-encode", "--engine", "warp"])

    def test_scenarios_sweep_batched_engine(self, capsys):
        assert main([
            "scenarios", "sweep", "--app", "adpcm-encode",
            "--scenarios", "paper-constant", "burst",
            "--strategies", "hybrid-optimal",
            "--seeds", "0", "1", "2", "3",
            "--engine", "batched", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        assert len(rows) == 2
        assert all(row["relative_energy"] == 1.0 for row in rows)
        assert all(row["fully_mitigated_fraction"] == 1.0 for row in rows)


class TestParetoCommand:
    ARGS = [
        "pareto", "--app", "adpcm-encode",
        "--nodes", "65nm", "--ecc", "bch",
        "--correctable-bits", "2", "4", "--rates", "1e-6",
        "--max-chunk", "48",
    ]

    def test_pareto_prints_front_with_knee(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Pareto front — adpcm-encode" in out
        assert "knee per rate level" in out
        assert "65nm" in out

    def test_pareto_emits_json_rows(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]
        assert all(row["technology"] == "65nm" for row in payload["rows"])

    def test_pareto_objective_subset(self, capsys):
        assert main(self.ARGS + ["--objectives", "energy", "area", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]  # line 0 is the "# title" comment
        assert "energy_overhead" in header and "area_fraction" in header
        assert "failure_probability" not in header

    def test_pareto_error_rate_becomes_the_rate_level(self, capsys):
        args = [a for a in self.ARGS if a != "1e-6"]
        args.remove("--rates")
        assert main(args + ["--error-rate", "2e-6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["error_rate"] for row in payload["rows"]} == {2e-6}
        # Explicitly requesting the paper rate must also pin the level
        # (it is not conflated with "flag unset").
        assert main(args + ["--error-rate", "1e-6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["error_rate"] for row in payload["rows"]} == {1e-6}

    def test_pareto_rejects_rates_combined_with_error_rate(self, capsys):
        assert main(self.ARGS + ["--error-rate", "2e-6"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_pareto_rejects_unknown_node(self, capsys):
        assert main(self.ARGS[:3] + ["--nodes", "28nm"]) == 2
        err = capsys.readouterr().err
        assert "unknown technology node" in err

    def test_help_mentions_pareto(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "pareto" in capsys.readouterr().out
