"""Result tables and point records, each from one declaration.

A result is rows under declared columns: ``columns`` maps a header to
its format spec (``{"p95 (s)": ">8.1f"}``), and :func:`render_table`
reads alignment, width and number format off that one spec — for the
header, every cell and the rule.  A sweep point's JSON record is its
dataclass fields (:func:`point_record`), so a reported quantity is one
field and one column.  The paper-style tables — one histogram column
per golden-machine size for Figures 4 and 5, a sequence series for
Figure 6, summary tables for the in-text numbers — are
:func:`render_table` calls.  Everything renders to plain monospaced
text.
"""

from __future__ import annotations

import re
from dataclasses import fields
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple, Union

__all__ = [
    "render_table",
    "point_record",
    "find_point",
    "render_histogram_table",
    "render_summary_table",
    "render_series",
]

#: The alignment and width a format spec opens with.
_PAD = re.compile(r"[<>^]?\d+")


def render_table(
    title: str,
    columns: Mapping[str, str],
    rows: Iterable[Sequence[Any]],
    notes: Sequence[Union[str, Sequence[Any]]] = (),
) -> str:
    """``title``, a blank line, the header row, a rule as wide as it,
    one line per row; then, if there are ``notes``, the rule again and
    the notes.  An untitled table starts at its header.

    A cell is formatted by its column's spec; a ``str`` cell (a
    pre-formatted or symbolic value) is only padded to the column, and
    ``None`` prints ``-``.  A note that is a row is laid out under the
    columns like one.
    """
    specs = list(columns.values())
    pads = [_PAD.match(spec).group() for spec in specs]

    def line(cells: Sequence[Any]) -> str:
        return " ".join(
            format("-" if cell is None else cell, pad)
            if cell is None or isinstance(cell, str)
            else format(cell, spec)
            for cell, pad, spec in zip(cells, pads, specs)
        )

    header = line(list(columns))
    rule = "-" * len(header)
    lines = [title, ""] if title else []
    lines += [header, rule, *map(line, rows)]
    if notes:
        lines.append(rule)
        lines += [n if isinstance(n, str) else line(n) for n in notes]
    return "\n".join(lines)


def point_record(point: Any) -> Dict[str, Any]:
    """The JSON record of one sweep point: its dataclass fields in
    order, then the properties its type lists in ``derived``.

    A field declared ``field(metadata={"round": n})`` is rounded to
    ``n`` places; one declared ``field(metadata={"splice": True})`` is
    a mapping whose items take the field's place.
    """
    record: Dict[str, Any] = {}
    for f in fields(point):
        value = getattr(point, f.name)
        if f.metadata.get("splice"):
            record.update(value)
        elif "round" in f.metadata:
            record[f.name] = round(value, f.metadata["round"])
        else:
            record[f.name] = value
    for name in getattr(point, "derived", ()):
        record[name] = getattr(point, name)
    return record


def find_point(points: Iterable[Any], **where: Any) -> Any:
    """The first of ``points`` whose fields equal ``where``."""
    for point in points:
        if all(getattr(point, k) == v for k, v in where.items()):
            return point
    raise KeyError(
        "no point for " + ", ".join(f"{k}={v!r}" for k, v in where.items())
    )


def render_histogram_table(
    title: str, series: Mapping[str, Any], x_label: str = "latency (s)"
) -> str:
    """Figure 4/5-style table: one frequency column per
    :class:`~repro.analysis.histograms.Histogram` of ``series``."""
    names = list(series)
    if not names:
        raise ValueError("no series to render")
    centers = series[names[0]].centers
    for name in names[1:]:
        if series[name].centers != centers:
            raise ValueError("series use different bin centers")
    return render_table(
        title,
        {x_label: ">14.0f", **{name: ">10.3f" for name in names}},
        [
            [center] + [series[n].frequencies[i] for n in names]
            for i, center in enumerate(centers)
        ],
        [
            ["n"] + [str(series[n].total) for n in names],
            ["mean(est)"]
            + [f"{series[n].mean_estimate():.1f}" for n in names],
        ],
    )


def render_summary_table(title: str, rows: Mapping[str, Any]) -> str:
    """One :class:`~repro.analysis.stats.Summary` per labelled row."""
    return render_table(
        title,
        {
            "series": ">14", "n": ">6d", "mean": ">8.1f", "std": ">8.1f",
            "min": ">8.1f", "median": ">8.1f", "max": ">8.1f",
        },
        [
            (name, s.count, s.mean, s.std, s.minimum, s.median, s.maximum)
            for name, s in rows.items()
        ],
    )


def render_series(
    title: str,
    series: Mapping[str, Sequence[Tuple[int, float]]],
    x_label: str = "sequence",
    max_rows: int = 0,
) -> str:
    """Figure 6-style table: per-series (x, y) points, row-aligned on x
    (blank where a series has no point).

    ``max_rows`` > 0 subsamples evenly to at most that many rows.
    """
    xs = sorted({x for points in series.values() for x, _ in points})
    if max_rows and len(xs) > max_rows:
        step = max(1, len(xs) // max_rows)
        keep = set(xs[::step]) | {xs[-1]}
        xs = [x for x in xs if x in keep]
    maps = {name: dict(points) for name, points in series.items()}
    return render_table(
        title,
        {x_label: ">10d", **{name: ">10.1f" for name in series}},
        [[x] + [maps[name].get(x, "") for name in series] for x in xs],
    )
