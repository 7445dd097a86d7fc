"""The command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_apps_and_systems(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for app in ("barnes", "appbt"):
            assert app in out
        assert "dele32_rac32k" in out


class TestRun:
    def test_run_single_system(self, capsys):
        assert main(["run", "ocean", "--system", "base",
                     "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "ocean" in out
        assert "cycles" in out

    def test_run_all_systems(self, capsys):
        assert main(["run", "ocean", "--scale", "0.2", "--no-check"]) == 0
        out = capsys.readouterr().out
        assert "dele1k_rac1m" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "linpack"])


class TestExperiment:
    def test_table3(self, capsys):
        assert main(["experiment", "table3", "--scale", "0.25"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["experiment", "figure10", "--scale", "0.25"]) == 0
        assert "hop" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestVerify:
    def test_full_protocol_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        assert "states" in out

    def test_base_only(self, capsys):
        assert main(["verify", "--no-delegation"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unordered_finds_violation(self, capsys):
        assert main(["verify", "--unordered"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_violation_prints_the_counterexample(self, capsys):
        assert main(["verify", "--unordered"]) == 1
        lines = capsys.readouterr().out.splitlines()
        steps = int(re.search(r"violated after (\d+) steps",
                              lines[0]).group(1))
        assert steps > 0
        trace = [line.strip() for line in lines[1:]]
        assert len(trace) == steps
        assert trace[0].startswith(("read_", "write_"))

    @pytest.mark.parametrize("protocol", ["adaptive", "mesi"])
    def test_bad_node_count_is_a_usage_error(self, capsys, protocol):
        assert main(["verify", "--protocol", protocol, "--nodes", "1"]) == 2
        captured = capsys.readouterr()
        assert "repro verify: error:" in captured.err
        assert "at least home + one other node" in captured.err
        assert captured.out == ""


class TestArea:
    def test_small_config_budget(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "40.5 KB" in out
        assert "producer table" in out

    def test_large_config_budget(self, capsys):
        assert main(["area", "--system", "dele1k_rac1m"]) == 0
        assert "RAC" in capsys.readouterr().out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweep:
    def test_second_run_served_from_cache(self, tmp_path, capsys):
        args = ["sweep", "table3", "--scale", "0.1", "--quiet",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "Table 3" in first
        assert "0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second
        # The cache only stores simulation inputs/outputs, so the rendered
        # artefact must be reproduced exactly.
        assert second.splitlines()[:-1] == first.splitlines()[:-1]

    def test_no_cache_always_executes(self, tmp_path, capsys):
        args = ["sweep", "table3", "--scale", "0.1", "--quiet", "--no-cache",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert main(args) == 0
        assert "0 executed" not in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_json_timing_record(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sweep.json"
        assert main(["sweep", "table3", "--scale", "0.1", "--quiet",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        bench = doc["benchmarks"][0]
        assert bench["name"] == "sweep[table3]"
        assert bench["stats"]["rounds"] == 1
        assert bench["stats"]["mean"] > 0
        assert doc["sweep"]["name"] == "table3"
        assert doc["sweep"]["executed"] > 0
        assert doc["sweep"]["cached"] == 0

    def test_unknown_sweep_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "figure99"])


class TestReport:
    @pytest.mark.slow
    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        from repro.cli import main as cli_main
        assert cli_main(["report", "--output", str(out),
                         "--scale", "0.2"]) == 0
        text = out.read_text()
        assert "# EXPERIMENTS" in text
        assert "Figure 12" in text
