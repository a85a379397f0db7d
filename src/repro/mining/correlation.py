"""Correlation mining between profiling parameters and fault outcomes.

Step three of the paper's analysis: relationships between software
symptoms (execution time, branch share, memory-instruction share,
function calls, ...) and soft-error vulnerability figures (UT share,
Hang share, masking rate) are surfaced by ranking pairwise
correlations.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.mining.dataset import Dataset

try:  # scipy gives exact Spearman handling of ties; fall back to manual ranks
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover - scipy is available in the test env
    _scipy_stats = None


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (0.0 when degenerate)."""
    n = min(len(xs), len(ys))
    if n < 2:
        return 0.0
    xs, ys = list(xs[:n]), list(ys[:n])
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    denominator = math.sqrt(var_x) * math.sqrt(var_y)
    if var_x <= 0 or var_y <= 0 or denominator == 0.0:
        # degenerate series (constant, or variance underflowed to zero)
        return 0.0
    return max(-1.0, min(1.0, cov / denominator))


def _ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (scipy when available, manual otherwise)."""
    n = min(len(xs), len(ys))
    if n < 2:
        return 0.0
    if _scipy_stats is not None:
        result = _scipy_stats.spearmanr(xs[:n], ys[:n])
        value = float(result.correlation)
        return 0.0 if math.isnan(value) else value
    return pearson(_ranks(list(xs[:n])), _ranks(list(ys[:n])))


def grouped_spearman(
    records: Sequence[dict],
    group_key: str,
    x_key: str,
    y_key: str,
) -> dict[str, float]:
    """Spearman between two record fields, computed per group.

    Groups with a single record are omitted (a rank correlation over
    one point is meaningless).  Used by the static vulnerability
    validation report to break the predicted-vs-measured correlation
    down per ISA and per programming model.
    """
    grouped: dict[str, tuple[list, list]] = {}
    for record in records:
        xs, ys = grouped.setdefault(str(record[group_key]), ([], []))
        xs.append(float(record[x_key]))
        ys.append(float(record[y_key]))
    return {
        group: spearman(xs, ys)
        for group, (xs, ys) in sorted(grouped.items())
        if len(xs) >= 2
    }


def correlation_matrix(
    dataset: Dataset,
    columns: Optional[Sequence[str]] = None,
    method: str = "pearson",
) -> dict[str, dict[str, float]]:
    """Pairwise correlation matrix over the selected numeric columns."""
    func = pearson if method == "pearson" else spearman
    chosen = list(columns) if columns is not None else dataset.numeric_columns()
    series = {name: dataset.numeric_column(name) for name in chosen}
    matrix: dict[str, dict[str, float]] = {}
    for a in chosen:
        matrix[a] = {}
        for b in chosen:
            matrix[a][b] = 1.0 if a == b else func(series[a], series[b])
    return matrix


def rank_correlations(
    dataset: Dataset,
    target: str,
    candidates: Optional[Sequence[str]] = None,
    method: str = "pearson",
    top: int = 20,
) -> list[tuple[str, float]]:
    """Rank profiling parameters by |correlation| against a target column.

    This is the mining primitive used to surface "software symptoms with
    a direct impact on the application reliability".
    """
    func = pearson if method == "pearson" else spearman
    targets = dataset.numeric_column(target)
    chosen = list(candidates) if candidates is not None else dataset.numeric_columns()
    scored = []
    for name in chosen:
        if name == target:
            continue
        values = dataset.numeric_column(name)
        if len(values) != len(targets) or len(values) < 2:
            continue
        scored.append((name, func(values, targets)))
    scored.sort(key=lambda item: -abs(item[1]))
    return scored[:top]
