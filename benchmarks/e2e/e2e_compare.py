"""Compare two result files of ``run.py``: one row per (metric, workload).

Each end-to-end metric carries its own regression bound and direction
(``e2e_spec.END_TO_END``).  A pair whose run-to-run spread (inter-quartile
distance of the per-run samples over their median, the wider of the two
files) exceeds the bound is reported ``unresolved`` and never
``unchanged`` — unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional, Sequence

from e2e_spec import END_TO_END


def spread(samples: Sequence[float]) -> Optional[float]:
    """Inter-quartile distance over the median; ``None`` under two samples."""
    if len(samples) < 2:
        return None
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / abs(statistics.median(samples))


def verdict(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> dict:
    """Judge one (metric, workload) pair from its per-run samples."""
    before, after = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (after - before) / abs(before)
    spreads = [value for value in (spread(base), spread(change)) if value is not None]
    noise = max(spreads) if spreads else None
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if noise is not None and noise > bound and not all_better:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    elif -worse_by > bound and (noise is None or -worse_by > noise):
        word = "improved"
    else:
        word = "unchanged"
    return {
        "before": before, "after": after, "worse_by": worse_by,
        "spread": noise, "bound": bound, "verdict": word,
    }


def compare(path_a: str, path_b: str) -> List[dict]:
    """Rows for every end-to-end metric of every workload both files hold."""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    if first["schema"] != second["schema"]:
        raise ValueError("result files have different schema versions")
    rows = []
    for name in first["workloads"]:
        before = first["workloads"][name].get("end_to_end")
        after = second["workloads"].get(name, {}).get("end_to_end")
        if before is None or after is None:
            continue
        for metric, unit, better, bound in END_TO_END:
            row = verdict(
                before[metric]["samples"], after[metric]["samples"], better, bound
            )
            rows.append({"workload": name, "metric": metric, "unit": unit, **row})
    return rows


def format_rows(rows: Sequence[dict]) -> str:
    """The comparison as an aligned text table."""
    lines = [
        f"{'workload':<22}{'metric':<24}{'unit':<10}{'A':>14}{'B':>14}"
        f"{'worse by':>10}{'spread':>9}{'bound':>7}  verdict"
    ]
    for row in rows:
        noise = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        lines.append(
            f"{row['workload']:<22}{row['metric']:<24}{row['unit']:<10}"
            f"{row['before']:>14.4f}{row['after']:>14.4f}{row['worse_by']:>+10.1%}"
            f"{noise:>9}{row['bound']:>7.0%}  {row['verdict']}"
        )
    return "\n".join(lines)
