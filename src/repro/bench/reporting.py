"""Plain-text rendering of benchmark tables and series, and the one
harness every declared sweep runs through.

A :class:`Scenario` states *what* a benchmark is -- its axes, the
function that measures one point, its columns and its prose (a
:class:`Text` wraps a table some other module already renders).  *How* a
declaration becomes numbers and text lives only here: :func:`sweep`
walks the product of the axes in declared order (honouring ``--full``
and the CLI's pin flags) and :func:`render` lays the rows out with
:func:`render_table`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

Row = Mapping[str, object]
# How a column prints: a row key (the value as measured) or a function
# of ``(row, all rows)`` returning the cell.
Cell = Union[str, Callable[[Row, Sequence[Row]], object]]


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a :class:`Scenario`.

    ``name`` is the keyword the measurement receives, the key the value
    keeps in the row, and what a pin names to replace the axis's values
    (the CLI's ``--shards 2``, ``--features baseline,+audit``).
    A tuple of names declares a compound axis whose values are tuples
    (curves that vary two settings together); it cannot be pinned.
    ``full`` is the wider value set ``--full`` selects.
    """

    name: Union[str, Tuple[str, ...]]
    values: Sequence[object]
    full: Optional[Sequence[object]] = None


@dataclass(frozen=True)
class Scenario:
    """A declared sweep: one measurement per point of ``axes``.

    ``measure`` is called with one keyword per axis name plus ``fixed``
    (constants this scenario states for the measurement) plus
    ``sizes(records, ops)`` (how the CLI's two size flags map onto the
    measurement's size keywords).  It returns the point's row -- a
    mapping of values as measured -- or, for a measurement that yields
    several (the phases of a demo), a sequence of them.  ``columns``
    pairs each printed header with its :data:`Cell`; ``summary`` turns
    the rows into headline prose printed under the table; ``title``
    heads the scenario and ``footnote`` explains its columns.
    """

    title: str
    axes: Sequence[Axis]
    measure: Callable[..., Union[Row, Sequence[Row]]]
    columns: Sequence[Tuple[str, Cell]]
    sizes: Callable[[int, int], Mapping[str, int]] = \
        lambda records, ops: {}
    fixed: Mapping[str, object] = field(default_factory=dict)
    summary: Optional[Callable[[Sequence[Row]], str]] = None
    footnote: str = ""


@dataclass(frozen=True)
class Text:
    """A declared artifact another module already renders (Table 1 is
    :func:`repro.gdpr.compliance.render_table1` output): printed and
    recorded like a :class:`Scenario`, but its body is ``text()``."""

    title: str
    text: Callable[[], str]
    footnote: str = ""


def sweep(scenario: Scenario, records: int, ops: int, full: bool = False,
          pins: Optional[Mapping[str, object]] = None
          ) -> List[Dict[str, object]]:
    """Measure every point of ``scenario``: the product of its axes in
    declared order (first axis outermost), one row per measurement.

    ``pins`` maps axis names to the value -- or, for a plain axis, the
    tuple of values, swept in the order given -- replacing that axis's
    set (``None`` = not pinned); names no axis carries are ignored, so
    the CLI hands every scenario the same mapping.
    """
    choices = []
    for axis in scenario.axes:
        pinned = pins.get(axis.name) if pins else None
        if pinned is None:
            choices.append(axis.full if full and axis.full else axis.values)
        else:
            choices.append(pinned if isinstance(pinned, tuple)
                           else (pinned,))
    sizes = scenario.sizes(records, ops)
    rows = []
    for point in itertools.product(*choices):
        coords = dict(scenario.fixed)
        for axis, value in zip(scenario.axes, point):
            if isinstance(axis.name, tuple):
                coords.update(zip(axis.name, value))
            else:
                coords[axis.name] = value
        measured = scenario.measure(**coords, **sizes)
        for row in ([measured] if isinstance(measured, Mapping)
                    else measured):
            rows.append({**coords, **row})
    return rows


def render(scenario: Scenario, rows: Sequence[Row]) -> str:
    """The scenario's body: its table, then its summary if it has one."""
    text = render_table(
        [header for header, _ in scenario.columns],
        [[row[cell] if isinstance(cell, str) else cell(row, rows)
          for _, cell in scenario.columns] for row in rows])
    if scenario.summary is not None:
        text += "\n\n" + scenario.summary(rows)
    return text


def ycsb_sizes(records: int, ops: int) -> Dict[str, int]:
    """``sizes``: the CLI's ``--records`` / ``--ops``, handed on
    unchanged."""
    return {"record_count": records, "operation_count": ops}


def halved_sizes(records: int, ops: int) -> Dict[str, int]:
    """``sizes``: half the CLI's, floored at 60 records / 200 operations
    -- what the many-stack comparisons (``backends``: sixteen YCSB-A
    runs; ``tiering``: six windowed ones) sweep at."""
    return {"record_count": max(60, records // 2),
            "operation_count": max(200, ops // 2)}


def scaled(key: str, scale: float = 1.0, digits: int = 1) -> Cell:
    """Cell: ``row[key] * scale`` rounded to ``digits`` (seconds to us
    is ``scale=1e6``)."""
    return lambda row, _rows: round(row[key] * scale, digits)


def on_off(key: str) -> Cell:
    """Cell: a boolean setting printed as ``on`` / ``off``."""
    return lambda row, _rows: "on" if row[key] else "off"


def share_of_first(key: str, digits: int = 3) -> Cell:
    """Cell: ``row[key]`` as a fraction of the first row's -- for
    sweeps that measure their baseline first (``-`` if that is 0, as
    a zero-operation run's throughput is)."""
    return lambda row, rows: (round(row[key] / rows[0][key], digits)
                              if rows[0][key] else "-")


def render_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width table with a separator under the header."""
    text_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        text_rows.append([_fmt(cell) for cell in row])
    widths = [max(len(row[col]) for row in text_rows)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(text_rows):
        lines.append("  ".join(cell.ljust(widths[col])
                               for col, cell in enumerate(row)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4g}"
    return str(cell)


