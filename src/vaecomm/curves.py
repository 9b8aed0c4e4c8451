"""Error-rate sweep records, and the one writer for every result table.

``write_table`` writes sweep and baseline curves, block-length transfers and
training logs alike. A table is a tuple of column names and rows of values
in column order. CSV is the csv module's dialect (CRLF row ends) with floats
written by ``repr``; JSON is a list of one object per row at indent 1,
followed by a newline. Both keep every float exact, so rerunning a command
with the same seed writes the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import astuple, dataclass, field, fields

from .errors import ConfigError, DomainError

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

FORMATS = ("csv", "json")


def write_table(path: str, fmt: str, columns, rows) -> None:
    """Write rows (sequences in column order) to path as "csv" or "json"."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown result format {fmt!r}, choose from {list(FORMATS)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                # repr(float()) also writes numpy float64 as a plain number
                writer.writerow([repr(float(v)) if isinstance(v, float) else str(v)
                                 for v in row])
        else:
            json.dump([dict(zip(columns, row)) for row in rows], fh, indent=1)
            fh.write("\n")


def dataclass_table(cls, records) -> tuple[tuple[str, ...], list[tuple]]:
    """A table of flat dataclass records: the class's fields are the columns."""
    return tuple(f.name for f in fields(cls)), [astuple(r) for r in records]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% binomial confidence interval; well behaved at 0 and n successes."""
    if trials <= 0:
        raise DomainError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside [0, {trials}]")
    z = Z_95
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

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """BlerPoint's fields as columns, without analytic_ber when no point has one."""
        analytic = self.has_analytic()
        columns = tuple(f.name for f in fields(BlerPoint) if analytic or f.name != "analytic_ber")
        return columns, [tuple(getattr(p, c) for c in columns) for p in self.points]
