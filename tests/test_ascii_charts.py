"""ASCII chart rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ascii_charts import bar_chart, hbar
from repro.common import ConfigError


class TestHbar:
    def test_full_bar(self):
        assert hbar(10, 10, width=4) == "####"

    def test_half_bar(self):
        assert hbar(5, 10, width=4) == "##  "

    def test_zero(self):
        assert hbar(0, 10, width=4) == "    "

    def test_clamps_over_max(self):
        assert hbar(20, 10, width=4) == "####"

    def test_negative_clamped(self):
        assert hbar(-3, 10, width=4) == "    "

    def test_bad_scale(self):
        with pytest.raises(ConfigError):
            hbar(1, 0)

    @given(st.floats(0, 100), st.floats(0.1, 100), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_width_always_exact(self, value, vmax, width):
        assert len(hbar(value, vmax, width=width)) == width


class TestBarChart:
    def test_renders_labels_and_values(self):
        text = bar_chart([("em3d", 1.37), ("cg", 1.06)], title="speedup")
        assert "em3d" in text
        assert "1.370" in text
        assert text.splitlines()[0] == "speedup"

    def test_dict_input(self):
        text = bar_chart({"a": 1.0})
        assert "a |" in text

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            bar_chart([])

    def test_longest_bar_fills_width(self):
        text = bar_chart([("a", 2.0), ("b", 1.0)], width=10)
        lines = text.splitlines()
        assert "#" * 10 in lines[0]
        assert "#" * 5 in lines[1]
