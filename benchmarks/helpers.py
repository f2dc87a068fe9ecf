"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one table/figure-equivalent of the paper
(experiments E1–E14, one ``bench_e*.py`` file each) and prints its rows.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_table(title: str, rows: Sequence[Dict[str, object]]) -> None:
    """Print a list of dict rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {col: max(len(col), *(len(format_value(row.get(col, "")))
                                   for row in rows))
              for col in columns}
    header = " | ".join(col.ljust(widths[col]) for col in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(format_value(row.get(col, "")).ljust(widths[col])
                         for col in columns))

