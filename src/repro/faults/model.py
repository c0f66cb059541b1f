"""The paper's fault probability model (Section II-A).

Each SRAM cell fails independently with probability ``pfail``; a cache
block with at least one failed bit is disabled.  With ``K`` the block
size in bits:

* eq. (1): ``pbf = 1 - (1 - pfail)^K`` — block failure probability;
* eq. (2): ``pwf(w) = C(W, w) pbf^w (1-pbf)^(W-w)`` — probability of
  exactly ``w`` faulty ways among ``W`` in a set;
* eq. (3): same binomial over ``W - 1`` ways — the Reliable Way
  mechanism masks faults in one hardened way per set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cache import CacheGeometry
from repro.util import check_probability


@dataclass(frozen=True)
class FaultProbabilityModel:
    """Fault probabilities for one cache geometry and cell fail rate."""

    geometry: CacheGeometry
    pfail: float

    def __post_init__(self) -> None:
        check_probability(self.pfail, "pfail")

    @property
    def block_bits(self) -> int:
        """The paper's ``K``: block size in bits."""
        return self.geometry.block_bits

    @property
    def pbf(self) -> float:
        """Block failure probability — eq. (1).

        Computed as ``-expm1(K * log1p(-pfail))`` for accuracy at the
        tiny ``pfail`` values of the resilience roadmap (1e-13 .. 1e-3).
        """
        if self.pfail == 0.0:
            return 0.0
        if self.pfail == 1.0:
            return 1.0
        return -math.expm1(self.block_bits * math.log1p(-self.pfail))

    def pwf(self, faulty_ways: int, *, ways: int | None = None) -> float:
        """Probability of exactly ``w`` faulty ways in a set — eq. (2).

        ``ways`` overrides the binomial's size (eq. (3) uses ``W-1``).
        """
        if ways is None:
            ways = self.geometry.ways
        if not 0 <= faulty_ways <= ways:
            return 0.0
        pbf = self.pbf
        return (math.comb(ways, faulty_ways)
                * pbf ** faulty_ways
                * (1.0 - pbf) ** (ways - faulty_ways))

    def pwf_reliable_way(self, faulty_ways: int) -> float:
        """Eq. (3): fault distribution with one hardened way per set.

        At most ``W - 1`` ways can be (effectively) faulty; faults
        hitting the hardened way are masked.
        """
        return self.pwf(faulty_ways, ways=self.geometry.ways - 1)
