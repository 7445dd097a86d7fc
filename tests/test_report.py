"""The Markdown report generator behind EXPERIMENTS.md."""

import pytest

from repro.analysis.report import full_report, section
from repro.harness.sweep import SOURCE_ROOT, SweepEngine, source_digest


class TestSections:
    def test_table3_section(self):
        text = section("table3", scale=0.25, seed=12345)
        assert text.startswith("## Table 3")
        assert "Paper's Table 3" in text
        assert "barnes" in text

    def test_headline_section(self):
        text = section("headline", scale=0.25, seed=12345)
        assert "speedup paper/ours" in text


class TestFullReport:
    @pytest.mark.slow
    def test_full_report_structure(self, tmp_path):
        # Tiny scale: this runs every experiment once; the second report
        # replays every simulation from the cache.
        engine = SweepEngine(jobs=1, cache=True, cache_dir=str(tmp_path))
        report = full_report(scale=0.2, engine=engine)
        assert full_report(scale=0.2, engine=engine) == report
        assert engine.last_report.executed == 0
        assert source_digest(SOURCE_ROOT) in report
        for heading in ("# EXPERIMENTS", "## Table 3", "## Figure 7",
                        "## Headline", "## Figure 8", "## Figure 9",
                        "## Figure 10", "## Figure 11", "## Figure 12",
                        "Delegation-only"):
            assert heading in report
        # Code fences are balanced.
        assert report.count("```") % 2 == 0
