"""Error-rate sweep records with deterministic CSV / JSON serialization."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

from .errors import DomainError

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

CSV_COLUMNS = ("ebno_db", "bler", "ser", "ci_low", "ci_high", "blocks", "block_length", "seed",
               "system_label")


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """95% binomial confidence interval; well behaved at 0 and n successes."""
    if trials <= 0:
        raise DomainError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


@dataclass(frozen=True)
class BlerPoint:
    ebno_db: float
    bler: float
    ser: float
    ci_low: float   # 95% interval on the block error rate
    ci_high: float
    blocks: int
    block_length: int  # symbols per block: the L the bler is for
    seed: int
    system_label: str
    analytic_ber: float | None = None


@dataclass
class BlerCurve:
    points: list[BlerPoint] = field(default_factory=list)

    def has_analytic(self) -> bool:
        return any(p.analytic_ber is not None for p in self.points)

    def to_csv(self, path: str) -> None:
        columns = CSV_COLUMNS + (("analytic_ber",) if self.has_analytic() else ())
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for p in self.points:
                writer.writerow([_cell(getattr(p, c)) for c in columns])

    def to_json(self, path: str) -> None:
        rows = []
        for p in self.points:
            row = asdict(p)
            if not self.has_analytic():
                row.pop("analytic_ber")
            rows.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


def _cell(value) -> str:
    # repr keeps full float precision and is byte-stable across runs
    return repr(float(value)) if isinstance(value, float) else str(value)
