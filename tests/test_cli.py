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
    """Serial, in-process regeneration of one paper artefact."""

    def test_table3(self, capsys):
        assert main(["sweep", "table3", "--scale", "0.25", "--jobs", "1",
                     "--no-cache", "--quiet"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["sweep", "figure10", "--scale", "0.25", "--jobs", "1",
                     "--no-cache", "--quiet"]) == 0
        assert "hop" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "figure99", "--jobs", "1"])


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

    @pytest.mark.parametrize("protocol", ["adaptive", "wi", "mesi"])
    def test_bad_node_count_is_a_usage_error(self, capsys, protocol):
        assert main(["verify", "--protocol", protocol, "--nodes", "1"]) == 2
        captured = capsys.readouterr()
        assert "repro verify: error:" in captured.err
        assert "at least home + one other node" in captured.err
        assert captured.out == ""

    def test_wi_checks_as_adaptive_without_its_features(self, capsys):
        assert main(["verify", "--protocol", "wi"]) == 0
        wi = capsys.readouterr().out
        assert main(["verify", "--no-delegation", "--no-updates"]) == 0
        bare = capsys.readouterr().out
        assert wi.startswith("PASS: 427 states, 993 transitions, depth 28")
        assert bare.startswith(wi.rsplit(",", 1)[0])

    @pytest.mark.parametrize("protocol,flag", [
        ("mesi", "--no-delegation"), ("mesi", "--no-updates"),
        ("wi", "--no-delegation"), ("wi", "--no-updates")])
    def test_dropping_an_absent_feature_is_a_usage_error(
            self, capsys, protocol, flag):
        assert main(["verify", "--protocol", protocol, flag]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro verify: error: %s has no "
                                       "feature" % protocol)
        assert captured.out == ""

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_state_cap_is_a_usage_error(self, capsys, cap):
        assert main(["verify", "--max-states", cap]) == 2
        captured = capsys.readouterr()
        assert "repro verify: error:" in captured.err
        assert "--max-states must be positive" in captured.err
        assert captured.out == ""

    def test_state_cap_hit_is_incomplete_not_a_violation(self, capsys):
        assert main(["verify", "--max-states", "100"]) == 1
        out = capsys.readouterr().out
        assert out == ("INCOMPLETE: more than 100 states reachable; "
                       "raise --max-states\n")


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
        out = tmp_path / "sweep.json"
        args = ["sweep", "table3", "--scale", "0.1", "--quiet",
                "--cache-dir", str(tmp_path / "cache"), "--json", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert set(doc) == {"name", "total", "unique", "executed", "cached",
                            "elapsed", "job_seconds", "crashes", "retries"}
        assert doc["name"] == "table3"
        assert doc["total"] == doc["unique"] == doc["executed"] > 0
        assert doc["cached"] == 0
        assert doc["elapsed"] > 0
        assert len(doc["job_seconds"]) == doc["unique"]
        assert doc["crashes"] == doc["retries"] == 0
        # The second pass is served from the cache.
        assert main(args) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["executed"] == 0
        assert doc["cached"] == doc["unique"] > 0

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
