"""ASCII renderers for the tables and figure-series the harness prints.

The benchmark harness regenerates each paper artefact as rows of numbers;
these helpers format them the way the paper lays them out, so bench output
can be compared to the paper side by side.
"""


def render_table(headers, rows, title=None, float_fmt="%.3f"):
    """Render a list-of-lists as a fixed-width ASCII table."""
    def fmt(cell):
        if isinstance(cell, float):
            return float_fmt % cell
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_matrix(title, columns, groups):
    """Render a matrix-sweep report: a title line, then one table per group.

    ``columns`` is ``[(header, row key)]``; ``groups`` is ``[(group title,
    [row dict])]`` with the rows a report's ``row()`` returns.  A None
    cell (a latency percentile of a run with no misses) prints as "-".
    """
    headers = [header for header, _ in columns]
    blocks = [title]
    for group_title, rows in groups:
        cells = [["-" if row[key] is None else row[key] for _, key in columns]
                 for row in rows]
        blocks.append(render_table(headers, cells, title=group_title))
    return "\n\n".join(blocks)


def render_series(title, xlabel, series):
    """Render figure data: ``series`` maps a label to [(x, y), ...]."""
    lines = [title]
    for label, points in series.items():
        lines.append("  %s:" % label)
        for x, y in points:
            lines.append("    %-12s %s" % (x, "%.4f" % y if isinstance(y, float) else y))
    lines.append("  (x axis: %s)" % xlabel)
    return "\n".join(lines)


def paper_vs_measured(rows, title):
    """Render (label, paper value, measured value) rows with deltas."""
    table_rows = []
    for label, paper, measured in rows:
        delta = measured - paper
        table_rows.append([label, paper, measured, "%+.3f" % delta])
    return render_table(["metric", "paper", "measured", "delta"],
                        table_rows, title=title)
