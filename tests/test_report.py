"""The Markdown report generator behind EXPERIMENTS.md."""

import pytest

from repro.analysis.report import (
    full_report,
    headline_section,
    table3_section,
)


class TestSections:
    def test_table3_section(self):
        text = table3_section(scale=0.25, seed=12345)
        assert text.startswith("## Table 3")
        assert "Paper's Table 3" in text
        assert "barnes" in text

    def test_headline_section(self):
        text = headline_section(scale=0.25, seed=12345)
        assert "speedup paper/ours" in text


class TestFullReport:
    @pytest.mark.slow
    def test_full_report_structure(self):
        # Tiny scale: this runs every experiment once.
        report = full_report(scale=0.2)
        for heading in ("# EXPERIMENTS", "## Table 3", "## Figure 7",
                        "## Headline", "## Figure 8", "## Figure 9",
                        "## Figure 10", "## Figure 11", "## Figure 12",
                        "Delegation-only"):
            assert heading in report
        # Code fences are balanced.
        assert report.count("```") % 2 == 0
