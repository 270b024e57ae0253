"""Plain-text table rendering shared by all experiment reports."""
from __future__ import annotations

import dataclasses
from typing import List, Sequence


@dataclasses.dataclass
class TextTable:
    """A titled table that renders to aligned monospace text."""

    title: str
    headers: List[str]
    rows: List[List[str]] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append([_format_cell(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def format_text(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def format_row(cells: Sequence[str]) -> str:
            return "  ".join(
                cell.ljust(widths[index]) if index == 0 else cell.rjust(widths[index])
                for index, cell in enumerate(cells)
            ).rstrip()

        lines = [self.title, "=" * len(self.title)]
        lines.append(format_row(self.headers))
        lines.append(format_row(["-" * width for width in widths]))
        lines.extend(format_row(row) for row in self.rows)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    if cell is None:
        return "-"
    return str(cell)


def percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"
