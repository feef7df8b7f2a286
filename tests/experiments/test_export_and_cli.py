"""Tests for record export (CSV/Markdown) and the command-line entry point."""

import csv

import pytest

from repro.experiments.export import (
    collect_columns,
    export_experiment,
    records_to_csv,
    records_to_markdown,
)
from repro.experiments.__main__ import build_parser, main


RECORDS = [
    {"m": 1, "fidelity": 0.991, "error": "Z"},
    {"m": 2, "fidelity": 0.942, "error": "Z", "note": "extra column"},
]

#: Schema-consistent rows for the strict (derived-column) CSV path.
UNIFORM_RECORDS = [
    {"m": 1, "fidelity": 0.991, "error": "Z"},
    {"m": 2, "fidelity": 0.942, "error": "X"},
]


class TestExport:
    def test_collect_columns_order(self):
        assert collect_columns(RECORDS) == ["m", "fidelity", "error", "note"]

    def test_csv_round_trip(self, tmp_path):
        path = records_to_csv(UNIFORM_RECORDS, tmp_path / "out.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["m"] == "1"
        assert rows[1]["error"] == "X"

    def test_csv_derived_columns_reject_missing_fields(self, tmp_path):
        """Regression pin: heterogeneous records used to blank-fill (and a
        caller-unknown field could silently vanish via extrasaction). A
        derived header now demands every record carry every column."""
        with pytest.raises(ValueError, match="missing fields.*note"):
            records_to_csv(RECORDS, tmp_path / "out.csv")

    def test_csv_custom_columns(self, tmp_path):
        path = records_to_csv(RECORDS, tmp_path / "out.csv", columns=["m", "fidelity"])
        header = path.read_text().splitlines()[0]
        assert header == "m,fidelity"

    def test_csv_custom_columns_keep_projection_semantics(self, tmp_path):
        """Explicit columns= stays permissive: missing keys render empty."""
        path = records_to_csv(RECORDS, tmp_path / "out.csv", columns=["m", "note"])
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["note"] == ""
        assert rows[1]["note"] == "extra column"

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            records_to_csv([], tmp_path / "out.csv")
        with pytest.raises(ValueError):
            records_to_markdown([])

    def test_markdown_table_shape(self):
        table = records_to_markdown(RECORDS, columns=["m", "fidelity"])
        lines = table.splitlines()
        assert lines[0] == "| m | fidelity |"
        assert lines[1] == "| --- | --- |"
        assert len(lines) == 4

    def test_export_experiment_writes_both(self, tmp_path):
        paths = export_experiment(UNIFORM_RECORDS, tmp_path / "results", "fig9")
        assert paths["csv"].exists()
        assert paths["markdown"].exists()
        assert "| m |" in paths["markdown"].read_text()


class TestCommandLine:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig12" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig9", "--quick"])
        assert args.quick and args.shots is None

    def test_table1_runs_and_exports(self, tmp_path, capsys):
        assert main(["table1", "--m", "2", "--k", "1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 1 reproduction" in out
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table1.md").exists()

    def test_fig8_quick_runs(self, capsys):
        assert main(["fig8", "--quick"]) == 0
        assert "Figure 8 reproduction" in capsys.readouterr().out

    def test_fig9_quick_with_small_shots(self, capsys):
        assert main(["fig9", "--quick", "--shots", "8"]) == 0
        assert "Figure 9 reproduction" in capsys.readouterr().out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-an-experiment"])

    def test_seed_flag_is_forwarded_and_reproducible(self, capsys):
        assert main(["fig9", "--quick", "--shots", "8", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["fig9", "--quick", "--shots", "8", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["fig9", "--quick", "--shots", "8", "--seed", "8"]) == 0
        other_seed = capsys.readouterr().out
        assert other_seed != first

    def test_engine_flag_selects_engine_and_restores_default(self, capsys):
        from repro.sim import get_default_engine

        previous = get_default_engine()
        assert main(["fig9", "--quick", "--shots", "8", "--engine", "feynman-interp"]) == 0
        assert "Figure 9 reproduction" in capsys.readouterr().out
        assert get_default_engine() == previous

    def test_legacy_engine_alias_matches_default_engine_output(self, capsys):
        base = ["fig9", "--quick", "--shots", "8", "--seed", "3"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--engine", "feynman-interp"]) == 0
        assert capsys.readouterr().out == default

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--engine", "warp-drive"])

    def test_router_flag_selects_router_and_restores_default(self, capsys):
        from repro.hardware import get_default_router

        previous = get_default_router()
        assert (
            main(
                [
                    "scenario",
                    "perth-m1",
                    "--shots",
                    "8",
                    "--seed",
                    "3",
                    "--router",
                    "lookahead",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "router=lookahead" in out
        assert get_default_router() == previous

    def test_router_flag_reduces_extra_swaps(self, capsys):
        base = ["scenario", "perth-m1", "--shots", "8", "--seed", "3"]
        assert main(base) == 0
        greedy_out = capsys.readouterr().out
        assert main(base + ["--router", "lookahead"]) == 0
        lookahead_out = capsys.readouterr().out

        def swaps(out: str) -> int:
            marker = "extra_swaps="
            return int(out.split(marker)[1].split()[0])

        assert swaps(lookahead_out) <= swaps(greedy_out)

    def test_unknown_router_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "perth-m1", "--router", "oracle"])

    def test_statevector_engine_on_noisy_figure_fails_cleanly(self, capsys):
        # The dense engine cannot run Monte-Carlo noise: the CLI must report
        # that as an error message, not an unhandled traceback.
        assert main(["fig9", "--quick", "--shots", "4", "--engine", "statevector"]) == 2
        err = capsys.readouterr().err
        assert "Monte-Carlo" in err and "error:" in err


class TestFormatFlag:
    """The repeatable ``--format`` flag and the scenario `.rrec` export."""

    def test_scenario_defaults_include_rrec(self, tmp_path, capsys):
        import json

        from repro.records import read_records

        assert (
            main(
                ["scenario", "ideal-m3", "--shots", "8", "--seed", "3",
                 "--out", str(tmp_path)]
            )
            == 0
        )
        capsys.readouterr()
        for suffix in ("csv", "json", "md", "rrec"):
            assert (tmp_path / f"scenario_ideal-m3.{suffix}").exists()
        decoded = read_records(tmp_path / "scenario_ideal-m3.rrec")
        exported = json.loads(
            (tmp_path / "scenario_ideal-m3.json").read_text(encoding="utf-8")
        )
        assert [record.json_dict() for record in decoded] == exported

    def test_scenario_sweep_merges_shards(self, tmp_path, capsys):
        from repro.records import read_records, write_records

        assert (
            main(
                ["scenario", "ideal-m3", "bare-bb-m2", "--shots", "8",
                 "--seed", "3", "--out", str(tmp_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "merged 2 artefacts" in out
        merged = tmp_path / "scenario_sweep.rrec"
        concatenated = read_records(tmp_path / "scenario_ideal-m3.rrec") + (
            read_records(tmp_path / "scenario_bare-bb-m2.rrec")
        )
        assert read_records(merged) == concatenated
        # The mmap merge is byte-identical to a serial re-encode.
        serial = write_records(tmp_path / "serial.rrec", concatenated)
        assert merged.read_bytes() == serial.read_bytes()

    def test_format_flag_selects_a_subset(self, tmp_path, capsys):
        assert (
            main(
                ["scenario", "ideal-m3", "--shots", "8", "--seed", "3",
                 "--format", "rrec", "--out", str(tmp_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert (tmp_path / "scenario_ideal-m3.rrec").exists()
        assert not (tmp_path / "scenario_ideal-m3.csv").exists()
        assert not (tmp_path / "scenario_ideal-m3.json").exists()

    def test_rrec_on_a_figure_run_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig9", "--quick", "--format", "rrec"])
        assert excinfo.value.code == 2
        assert "scenario" in capsys.readouterr().err

    def test_unknown_format_rejected_by_the_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--format", "parquet"])

    def test_all_expands_per_context_and_repeats_deduplicate(self):
        from repro.experiments.__main__ import resolve_formats

        parser = build_parser()
        everything = parser.parse_args(["fig9", "--format", "all"])
        assert resolve_formats(everything, scenario=True) == (
            "csv", "json", "markdown", "rrec",
        )
        assert resolve_formats(everything, scenario=False) == (
            "csv", "json", "markdown",
        )
        repeated = parser.parse_args(
            ["fig9", "--format", "csv", "--format", "csv", "--format", "json"]
        )
        assert resolve_formats(repeated, scenario=False) == ("csv", "json")

    def test_figure_exports_honour_the_format_flag(self, tmp_path, capsys):
        assert (
            main(
                ["table1", "--m", "2", "--k", "1", "--format", "json",
                 "--out", str(tmp_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert (tmp_path / "table1.json").exists()
        assert not (tmp_path / "table1.csv").exists()


class TestShardedCommandLine:
    def test_workers_flag_is_bit_identical_to_serial(self, capsys):
        base = ["fig9", "--quick", "--shots", "16", "--seed", "7"]
        assert main(base + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_shard_size_flag_is_bit_identical(self, capsys):
        base = ["fig9", "--quick", "--shots", "16", "--seed", "7"]
        assert main(base) == 0
        reference = capsys.readouterr().out
        assert main(base + ["--shard-size", "3"]) == 0
        resharded = capsys.readouterr().out
        assert reference == resharded

    def test_workers_exports_identical_artefacts(self, tmp_path, capsys):
        base = ["table2", "--quick", "--seed", "5"]
        assert main(base + ["--workers", "1", "--out", str(tmp_path / "serial")]) == 0
        assert main(base + ["--workers", "2", "--out", str(tmp_path / "pool")]) == 0
        capsys.readouterr()
        for name in ("table2.csv", "table2.md"):
            serial = (tmp_path / "serial" / name).read_bytes()
            pool = (tmp_path / "pool" / name).read_bytes()
            assert serial == pool


class TestCountFlagsAreUsageErrors:
    """Out-of-range counts exit with status 2 and a usage message.

    Before the parser validated them, ``--shots 0`` on a figure silently ran
    the default shot count and the scenario runner raised a traceback.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "ideal-m3", "--shard-size", "0"],
            ["scenario", "ideal-m3", "--shots", "0"],
            ["scenario", "ideal-m3", "--workers", "-1"],
            ["all", "--quick", "--shots", "0"],
            ["fig9", "--quick", "--shots", "-3"],
            ["fig9", "--quick", "--shard-size", "-1"],
            ["fig9", "--quick", "--workers", "two"],
        ],
    )
    def test_bad_count_exits_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        flag = next(arg for arg in argv if arg.startswith("--") and arg != "--quick")
        assert "usage:" in captured.err
        assert f"argument {flag}" in captured.err
        assert captured.out == ""

    def test_zero_workers_still_means_every_core(self):
        args = build_parser().parse_args(["fig9", "--workers", "0"])
        assert args.workers == 0


class TestAllPropagatesFailures:
    def test_all_continues_past_a_failure_and_exits_nonzero(
        self, capsys, monkeypatch
    ):
        from repro.experiments import __main__ as cli

        ran = []

        def broken(args):
            raise RuntimeError("injected failure")

        def working(args):
            ran.append("ok")
            return "report", [{"value": 1}]

        monkeypatch.setitem(cli.EXPERIMENTS, "fig9", broken)
        for name in cli.EXPERIMENTS:
            if name != "fig9":
                monkeypatch.setitem(cli.EXPERIMENTS, name, working)
        assert main(["all", "--quick"]) == 1
        err = capsys.readouterr().err
        assert "fig9" in err and "failed" in err
        # Every other experiment still ran after the failure.
        assert len(ran) == len(cli.EXPERIMENTS) - 1

    def test_single_experiment_failure_still_raises(self, monkeypatch):
        from repro.experiments import __main__ as cli

        def broken(args):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(cli.EXPERIMENTS, "fig9", broken)
        with pytest.raises(RuntimeError, match="injected failure"):
            main(["fig9", "--quick"])
