"""Figure 4 — normalised pWCETs, behaviour categories, gain statistics.

For every benchmark the paper reports the pWCET at exceedance 1e-15 of
a fault-free architecture, the SRB and the RW, normalised to the
no-protection pWCET, and groups the benchmarks into four behaviour
categories (§IV-B):

1. both mechanisms restore the fault-free WCET (spatial locality only);
2. the RW restores it, the SRB does not (MRU-position temporal
   locality);
3. both gain about the same (temporal locality beyond the MRU
   position, unprotectable);
4. a mix of the above.
"""

from __future__ import annotations

import enum
import statistics
from dataclasses import dataclass

from repro.experiments.runner import BenchmarkResult


class Category(enum.IntEnum):
    """The four behaviour categories of Figure 4."""

    FULLY_MASKED = 1
    MRU_TEMPORAL = 2
    DEEP_TEMPORAL = 3
    MIXED = 4


#: A mechanism's pWCET counts as "equal to fault-free" when it recovers
#: at least this share of the no-protection degradation.
_RECOVERY_EQ = 0.995
#: SRB and RW count as "similar gain" when their normalised pWCETs
#: differ by at most this fraction of the no-protection pWCET.
_SIMILAR_GAP = 0.03


@dataclass(frozen=True)
class Fig4Row:
    """One stacked bar of Figure 4."""

    name: str
    wcet_fault_free: int
    pwcet_none: int
    pwcet_srb: int
    pwcet_rw: int
    category: Category

    @property
    def normalized_fault_free(self) -> float:
        return self.wcet_fault_free / self.pwcet_none

    @property
    def normalized_srb(self) -> float:
        return self.pwcet_srb / self.pwcet_none

    @property
    def normalized_rw(self) -> float:
        return self.pwcet_rw / self.pwcet_none

    @property
    def gain_srb(self) -> float:
        return 1.0 - self.normalized_srb

    @property
    def gain_rw(self) -> float:
        return 1.0 - self.normalized_rw


def classify_category(wcet_fault_free: int, pwcet_none: int,
                      pwcet_srb: int, pwcet_rw: int) -> Category:
    """Apply the paper's four-way grouping to one benchmark's numbers."""
    degradation = pwcet_none - wcet_fault_free
    if degradation <= 0:
        return Category.FULLY_MASKED  # faults never hurt this program

    def recovers(pwcet: int) -> bool:
        return (pwcet_none - pwcet) / degradation >= _RECOVERY_EQ

    rw_full, srb_full = recovers(pwcet_rw), recovers(pwcet_srb)
    if rw_full and srb_full:
        return Category.FULLY_MASKED
    if rw_full:
        return Category.MRU_TEMPORAL
    if (pwcet_srb - pwcet_rw) / pwcet_none <= _SIMILAR_GAP:
        return Category.DEEP_TEMPORAL
    return Category.MIXED


@dataclass(frozen=True)
class GainSummary:
    """The in-text statistics of §IV-B."""

    average_gain_srb: float
    average_gain_rw: float
    min_gain_srb: float
    min_gain_srb_benchmark: str
    min_gain_rw: float
    min_gain_rw_benchmark: str

    def format(self) -> str:
        return (
            f"SRB gain vs no protection: avg {self.average_gain_srb:.1%}, "
            f"min {self.min_gain_srb:.1%} ({self.min_gain_srb_benchmark})\n"
            f"RW  gain vs no protection: avg {self.average_gain_rw:.1%}, "
            f"min {self.min_gain_rw:.1%} ({self.min_gain_rw_benchmark})\n"
            f"(paper: SRB avg 40%, min 25% on ud; "
            f"RW avg 48%, min 26% on fft)")


def fig4_rows(results: list[BenchmarkResult]) -> list[Fig4Row]:
    """Figure 4's bars, one per suite result."""
    return [row_of(result) for result in results]


def row_of(result: BenchmarkResult) -> Fig4Row:
    """One benchmark result → its Figure 4 bar."""
    pwcet_none = result.pwcet("none")
    pwcet_srb = result.pwcet("srb")
    pwcet_rw = result.pwcet("rw")
    return Fig4Row(
        name=result.name,
        wcet_fault_free=result.wcet_fault_free,
        pwcet_none=pwcet_none, pwcet_srb=pwcet_srb, pwcet_rw=pwcet_rw,
        category=classify_category(result.wcet_fault_free, pwcet_none,
                                   pwcet_srb, pwcet_rw))


def gain_summary(rows: list[Fig4Row]) -> GainSummary:
    """The average/min gain statistics the paper quotes in the text."""
    srb_gains = {row.name: row.gain_srb for row in rows}
    rw_gains = {row.name: row.gain_rw for row in rows}
    min_srb = min(srb_gains, key=srb_gains.__getitem__)
    min_rw = min(rw_gains, key=rw_gains.__getitem__)
    return GainSummary(
        average_gain_srb=statistics.mean(srb_gains.values()),
        average_gain_rw=statistics.mean(rw_gains.values()),
        min_gain_srb=srb_gains[min_srb], min_gain_srb_benchmark=min_srb,
        min_gain_rw=rw_gains[min_rw], min_gain_rw_benchmark=min_rw)


def format_fig4(rows: list[Fig4Row]) -> str:
    """Printable Figure 4 (grouped by category, like the paper)."""
    lines = [
        "Figure 4 -- pWCET at 1e-15, normalised to no protection",
        f"{'benchmark':14s} {'cat':>3s} {'fault-free':>10s} "
        f"{'SRB':>7s} {'RW':>7s} {'gainSRB':>8s} {'gainRW':>7s}",
    ]
    lines.append("-" * len(lines[-1]))
    for category in Category:
        members = [row for row in rows if row.category == category]
        if not members:
            continue
        lines.append(f"-- category {category.value} "
                     f"({category.name.lower().replace('_', ' ')}) --")
        for row in sorted(members, key=lambda r: r.name):
            lines.append(
                f"{row.name:14s} {row.category.value:3d} "
                f"{row.normalized_fault_free:10.3f} "
                f"{row.normalized_srb:7.3f} {row.normalized_rw:7.3f} "
                f"{row.gain_srb:8.1%} {row.gain_rw:7.1%}")
    lines.append("")
    lines.append(gain_summary(rows).format())
    return "\n".join(lines)
