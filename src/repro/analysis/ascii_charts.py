"""ASCII bar charts for figure-shaped results.

The paper's figures are bar charts; these helpers render regenerated data
in that shape directly in the terminal, so output can be eyeballed
against the paper's figures without plotting tools.
"""

from ..common.errors import ConfigError

FULL = "#"
EMPTY = " "


def hbar(value, vmax, width=40, char=FULL):
    """A horizontal bar of ``width`` cells scaled to ``value``/``vmax``."""
    if vmax <= 0:
        raise ConfigError("bar scale must be positive")
    cells = int(round(width * min(max(value, 0.0), vmax) / vmax))
    return char * cells + EMPTY * (width - cells)


def bar_chart(series, title=None, width=40, vmax=None, fmt="%.3f"):
    """Render labelled values as horizontal bars.

    ``series`` is a list of (label, value) pairs (or a dict).  ``vmax``
    defaults to the data maximum, so the longest bar always fills the
    width.
    """
    if isinstance(series, dict):
        series = list(series.items())
    if not series:
        raise ConfigError("nothing to chart")
    values = [v for _l, v in series]
    scale = vmax if vmax is not None else max(values)
    if scale <= 0:
        scale = 1.0
    label_width = max(len(str(label)) for label, _v in series)
    lines = []
    if title:
        lines.append(title)
    for label, value in series:
        lines.append("%s |%s| %s" % (str(label).rjust(label_width),
                                     hbar(value, scale, width),
                                     fmt % value))
    return "\n".join(lines)
