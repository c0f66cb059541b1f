"""Calibration: the kernel's tail against sampled fault counts.

For a real suite program's FMMs, per-set fault counts are drawn from
the paper's fault model itself, not from the kernel's weights:
``Binomial(W, pbf)`` per set (``W - 1`` ways for RW, eq. 3), with
``pbf = 1 - (1 - pfail)^K`` (eq. 1) computed here.  The sampled
whole-cache penalty ``sum_s FMM[s][f_s]`` must have an empirical CCDF
within binomial confidence bounds of the kernel's ``ccdf()`` at every
support point whose exceedance lies in [1e-3, 1 - 1e-3].
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import CacheGeometry
from repro.faults import FaultProbabilityModel
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.pwcet.batch import penalty_distributions
from repro.reliability import mechanism_by_name
from repro.suite import load

#: Every set of this program costs misses at both geometries.
PROGRAM = "cnt"
GEOMETRIES = (CacheGeometry.from_size(512, 2, 16),
              CacheGeometry.from_size(1024, 4, 32))
PFAIL = 1e-2
SAMPLES = 100_000
#: Smallest exceedance level compared (the band needs ~100 hits).
LEVEL = 1e-3
#: Half-width of the confidence band, in binomial standard errors.
Z = 5.0


@pytest.fixture(scope="module")
def estimators():
    return {geometry: PWCETEstimator(
        load(PROGRAM), EstimatorConfig(geometry=geometry, cache="off"))
        for geometry in GEOMETRIES}


def sampled_penalties(fmm, ways: int, rng) -> np.ndarray:
    """``SAMPLES`` draws of the whole-cache penalty, in misses."""
    geometry = fmm.geometry
    pbf = 1.0 - (1.0 - PFAIL) ** geometry.block_bits
    total = np.zeros(SAMPLES, dtype=np.int64)
    for row in fmm.rows:
        counts = rng.binomial(ways, pbf, size=SAMPLES)
        total += np.asarray(row)[counts]
    return total


@pytest.mark.parametrize("mechanism_name", ("none", "srb", "rw"))
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=lambda g: f"{g.sets}x{g.ways}x{g.block_bytes}")
def test_kernel_ccdf_within_sampling_bounds(estimators, geometry,
                                            mechanism_name):
    fmm = estimators[geometry].fault_miss_map(mechanism_name)
    ways = geometry.ways - (1 if mechanism_name == "rw" else 0)
    samples = np.sort(sampled_penalties(fmm, ways,
                                        np.random.default_rng(2016)))
    [distribution] = penalty_distributions(
        fmm, mechanism_by_name(mechanism_name),
        [FaultProbabilityModel(geometry=geometry, pfail=PFAIL)],
        geometry.sets)
    ccdf = distribution.ccdf()
    support = np.flatnonzero(distribution.pmf)
    checked = support[(ccdf[support] >= LEVEL)
                      & (ccdf[support] <= 1.0 - LEVEL)]
    assert len(checked) > 0
    expected = ccdf[checked]
    empirical = (SAMPLES - np.searchsorted(samples, checked,
                                           side="right")) / SAMPLES
    band = Z * np.sqrt(expected * (1.0 - expected) / SAMPLES)
    worst = int(np.argmax(np.abs(empirical - expected) / band))
    assert abs(empirical[worst] - expected[worst]) <= band[worst], \
        (f"P(X > {checked[worst]}): sampled {empirical[worst]:.5f}, "
         f"kernel {expected[worst]:.5f}")
