"""A small column-oriented dataset (no external dataframe dependency).

The mining tool works on flat records (one per scenario or one per
injection); :class:`Dataset` provides the column selection, filtering,
grouping and summary statistics the exploratory data analysis needs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence


class Dataset:
    """An immutable-ish list of record dictionaries with column helpers."""

    def __init__(self, records: Iterable[dict]):
        self.records = [dict(record) for record in records]

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def columns(self) -> list[str]:
        seen: list[str] = []
        for record in self.records:
            for key in record:
                if key not in seen:
                    seen.append(key)
        return seen

    def column(self, name: str, default=None) -> list:
        return [record.get(name, default) for record in self.records]

    def numeric_column(self, name: str) -> list[float]:
        out = []
        for record in self.records:
            value = record.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append(float(value))
        return out

    def numeric_columns(self) -> list[str]:
        names = []
        for name in self.columns():
            values = self.numeric_column(name)
            if len(values) == len(self.records) and len(values) > 0:
                names.append(name)
        return names

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    def where(self, predicate: Callable[[dict], bool]) -> "Dataset":
        return Dataset(record for record in self.records if predicate(record))

    def filter_equal(self, **criteria) -> "Dataset":
        def match(record: dict) -> bool:
            return all(record.get(key) == value for key, value in criteria.items())

        return self.where(match)

    def select(self, columns: Sequence[str]) -> "Dataset":
        return Dataset({key: record.get(key) for key in columns} for record in self.records)

    def sort_by(self, column: str, reverse: bool = False) -> "Dataset":
        return Dataset(sorted(self.records, key=lambda r: r.get(column), reverse=reverse))

    # ------------------------------------------------------------------
    # grouping and statistics
    # ------------------------------------------------------------------

    def group_by(self, column: str) -> dict[object, "Dataset"]:
        groups: dict[object, list[dict]] = {}
        for record in self.records:
            groups.setdefault(record.get(column), []).append(record)
        return {key: Dataset(rows) for key, rows in groups.items()}

    def mean(self, column: str) -> float:
        values = self.numeric_column(column)
        return sum(values) / len(values) if values else 0.0

    def std(self, column: str) -> float:
        values = self.numeric_column(column)
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))

    def min(self, column: str) -> float:
        values = self.numeric_column(column)
        return min(values) if values else 0.0

    def max(self, column: str) -> float:
        values = self.numeric_column(column)
        return max(values) if values else 0.0

    def describe(self, columns: Optional[Sequence[str]] = None) -> dict[str, dict[str, float]]:
        """Summary statistics per numeric column (EDA step one)."""
        chosen = columns if columns is not None else self.numeric_columns()
        summary = {}
        for name in chosen:
            values = self.numeric_column(name)
            if not values:
                continue
            summary[name] = {
                "count": len(values),
                "mean": self.mean(name),
                "std": self.std(name),
                "min": min(values),
                "max": max(values),
            }
        return summary

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def with_column(self, name: str, func: Callable[[dict], object]) -> "Dataset":
        out = []
        for record in self.records:
            clone = dict(record)
            clone[name] = func(record)
            out.append(clone)
        return Dataset(out)

    def join(self, other: "Dataset", on: str) -> "Dataset":
        """Inner join on one key column (other's columns win on conflict)."""
        index = {record.get(on): record for record in other.records}
        out = []
        for record in self.records:
            key = record.get(on)
            if key in index:
                merged = dict(record)
                merged.update(index[key])
                out.append(merged)
        return Dataset(out)
