"""The ``repro lint`` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.common.errors import ConfigError


class TestLintCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "clean: no findings above the allowlist" in out
        assert "allowlisted" in out

    def test_json_output(self, capsys):
        assert main(["lint", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["errors"] == 0
        assert doc["allowlisted"]

    def test_sarif_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "lint.sarif"
        assert main(["lint", "--sarif", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_no_allowlist_gates(self, capsys):
        # Raw mode surfaces the reviewed heuristic findings; the old
        # conformance gaps (e.g. CON001:WB_ACK) are now justified inside
        # the specs and must NOT reappear.  The survivors are warnings,
        # so they only gate below the default threshold.
        assert main(["lint", "--no-allowlist", "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "DLK001:cycle:GETS" in out
        assert "WB_ACK" not in out
        assert "CON003" not in out

    def test_fail_on_threshold(self, capsys):
        # The raw warnings only gate once the threshold is lowered.
        assert main(["lint", "--no-allowlist", "--fail-on", "note"]) == 1
        capsys.readouterr()

    def test_no_allowlist_default_threshold_passes(self, capsys):
        # With conformance gaps spec-justified, raw mode has no errors.
        assert main(["lint", "--no-allowlist"]) == 0
        capsys.readouterr()

    def test_verbose_lists_allowlisted(self, capsys):
        assert main(["lint", "--verbose"]) == 0
        assert "DLK001:cycle:GETS" in capsys.readouterr().out

    def test_report_names_conformance_source(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "conformance source: guarded-action specs" in out
        assert "adaptive: conformance-checked (generated mc twin)" in out
        assert "mesi: spec-checked (generated mc twin)" in out
        assert "wi: spec-checked (generated mc twin)" in out
        assert "dragon: spec-checked (no mc twin)" in out

    def test_broken_allowlist_is_a_config_error(self, tmp_path):
        bad = tmp_path / "allow.txt"
        bad.write_text("COV001:sim:GETS\n")  # no justification
        with pytest.raises(ConfigError):
            main(["lint", "--allowlist", str(bad)])
