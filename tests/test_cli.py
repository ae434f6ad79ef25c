"""Tests for the repro-exp command-line interface."""

import pytest

from repro.cli import _parse_overrides, _parse_value, main
from repro.errors import ReproError


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("2.5", 2.5),
            ("true", True),
            ("False", False),
            ("(1.0, 2.0)", (1.0, 2.0)),
            ("hello", "hello"),
        ],
    )
    def test_parse_value(self, text, expected):
        assert _parse_value(text) == expected

    def test_parse_overrides(self):
        assert _parse_overrides(["a=1", "b=x y"]) == {"a": 1, "b": "x y"}

    def test_bad_override(self):
        with pytest.raises(ReproError):
            _parse_overrides(["not-a-pair"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table4" in output and "fig13" in output

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "ASCI Q" in output

    def test_run_with_override(self, capsys):
        code = main(["run", "table2", "node_counts=(100, 1000)"])
        assert code == 0
        output = capsys.readouterr().out
        assert "100" in output

    def test_unknown_experiment(self, capsys):
        assert main(["run", "tableX"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_override_reports_error(self, capsys):
        assert main(["run", "table1", "oops"]) == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_campaign_failure_free(self, capsys):
        code = main(["campaign", "--failure-free", "degrees=(1.0, 2.0)"])
        assert code == 0
        output = capsys.readouterr().out
        # Per-cell progress lines precede the rendered table.
        assert output.count("cell mtbf=-") == 2
        assert "Table 5" in output

    def test_campaign_bad_override_reports_error(self, capsys):
        assert main(["campaign", "oops"]) == 2
        assert "error" in capsys.readouterr().err

    def test_chaos_subcommand(self, capsys):
        assert main(["chaos", "probs=(0.0, 0.3)"]) == 0
        output = capsys.readouterr().out
        assert "Chaos sweep" in output
        assert "corrupt" in output and "write-fail" in output

    def test_chaos_bad_override_reports_error(self, capsys):
        assert main(["chaos", "oops"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table2", "bogus=1"],
            ["run", "fig13", "bogus=1"],
            ["campaign", "--quick", "bogus=1"],
            ["chaos", "--quick", "bogus=1"],
            # The pool's retry budget is a constant, not an option.
            ["run", "table4", "cell_retries=3"],
            # The sweep handles and execution options are never `run`
            # overrides: flags build the executor, and `run` is serial.
            *(
                pytest.param(["run", "table5", "degrees=(1.0,2.0)", key], id=key)
                for key in (
                    "progress=1", "obs=1", "store=abc", "executor=1", "workers=2",
                    "workers=two", "workers=2.5", "workers=True", "cell_timeout=soon",
                )
            ),
        ],
    )
    def test_unknown_parameter_fails_before_running(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        # One error line naming the key and what is accepted; no cell ran.
        assert captured.err.count("error:") == 1
        key = argv[-1].partition("=")[0]
        assert repr(key) in captured.err and "accepted:" in captured.err
        assert "Traceback" not in captured.err
        assert "cell " not in captured.out

    @pytest.mark.parametrize(
        "argv", [["run", "fig11", "alpha=x"], ["run", "fig13", "alpha=abc"]]
    )
    def test_non_number_model_field_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "alpha must be a number" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "override",
        [
            "table2 job_hours=abc",
            "chaos probs=x",
            "fig13 samples=x",
            "fig13 max_processes=x",
            "fig13 degrees=x",
            "fig14 base_time_hours=x",
            "table4 degrees=x",
            "table2 node_counts=abc",
            "fig12 degrees=x",
            "fig2 configs=()",
            "fig2 configs=(('one',5.0,0.2),)",
            "table3 cases=()",
            "table3 cases=((168.0,5.0),)",
            "table4 setup=1",
            "table5 setup=0",
            "figs4to6 configs=()",
            "figs4to6 configs=(('config1',5.0,0.2,600.0,900.0),)",
            "table4 quick=x",
            "chaos quick=1",
        ],
    )
    def test_override_of_the_wrong_type_is_a_usage_error(self, override, capsys):
        """An override is checked against its parameter's default before
        any cell runs: one error line naming it, no traceback."""
        experiment, pair = override.split()
        assert main(["run", experiment, pair]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert f"{pair.partition('=')[0]} must be" in captured.err
        assert "Traceback" not in captured.err
        assert "cell " not in captured.out

    def test_non_finite_cell_timeout_fails_before_running(self, capsys):
        argv = ["campaign", "--failure-free", "--workers", "2",
                "--cell-timeout", "inf", "degrees=(1.0,2.0)"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "cell timeout" in captured.err
        assert "cell " not in captured.out


class TestAdvise:
    def test_recommends_dual_at_scale(self, capsys):
        code = main([
            "advise", "--processes", "80000", "--mtbf", "5y",
            "--base-time", "128h",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "run this" in output
        assert "2.0x redundancy" in output
        assert "why:" in output

    def test_budget_constrained(self, capsys):
        code = main([
            "advise", "--processes", "80000", "--mtbf", "5y",
            "--base-time", "128h", "--node-budget", "100000",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "1.25x redundancy" in output or "1.0x redundancy" in output

    def test_bad_budget_errors(self, capsys):
        code = main([
            "advise", "--processes", "80000", "--mtbf", "5y",
            "--base-time", "128h", "--node-budget", "10",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_duration_parsing_errors(self, capsys):
        code = main([
            "advise", "--processes", "100", "--mtbf", "whenever",
            "--base-time", "128h",
        ])
        assert code == 2


class TestStoreFlags:
    def test_sweep_subcommands_accept_store_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("campaign", "chaos", "serve"):
            args = parser.parse_args([command, "--store", "/tmp/s"])
            assert args.store == "/tmp/s"
            assert parser.parse_args([command]).store is None


class TestStrayEnvironment:
    def test_environment_sets_no_execution_option(self, monkeypatch, tmp_path, capsys):
        """Execution options come from arguments and flags, never the env."""
        from repro.cli import build_parser
        from repro.orchestration import CampaignExecutor

        stray = {"WORKERS": "3", "CELL_TIMEOUT": "0.05", "STORE": "stray-store"}
        for name, value in stray.items():
            monkeypatch.setenv(f"REPRO_{name}", value)
        monkeypatch.chdir(tmp_path)

        executor = CampaignExecutor()
        assert executor.workers == 1 and executor.cell_timeout is None

        parser = build_parser()
        for command in ("campaign", "chaos", "serve"):
            options = vars(parser.parse_args([command]))
            assert "resume" not in options and "no_store" not in options

        assert main(["campaign", "--failure-free", "degrees=(1.0, 2.0)"]) == 0
        assert "store:" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
