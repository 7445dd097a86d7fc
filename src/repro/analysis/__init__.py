"""Analysis: derived metrics, cross-run comparison, renderers, models."""

from .area import AreaBudget, area_of, equal_area_l2_bytes
from .compare import (
    arithmetic_mean,
    geometric_mean,
    headline,
    normalized_messages,
    normalized_remote_misses,
    speedup,
)
from .metrics import RunMetrics, consumer_histogram, metrics_from_result
from .model import LatencyModel, speedup_bound
from .tables import render_series, render_table

__all__ = [
    "AreaBudget",
    "area_of",
    "equal_area_l2_bytes",
    "arithmetic_mean",
    "geometric_mean",
    "headline",
    "normalized_messages",
    "normalized_remote_misses",
    "speedup",
    "RunMetrics",
    "consumer_histogram",
    "metrics_from_result",
    "LatencyModel",
    "speedup_bound",
    "render_series",
    "render_table",
]

from .ascii_charts import bar_chart

__all__ += ["bar_chart"]
