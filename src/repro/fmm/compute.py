"""Computing the Fault Miss Map by IPET-like ILPs (paper §II-C, [1]).

For every set ``s`` and fault count ``f`` we maximise, over the IPET
flow polytope, a safe upper bound of the number of *additional* misses
incurred by references to ``s`` when their classification degrades
from the fault-free table (associativity ``W``) to the degraded table
(associativity ``W - f``).  Per-reference accounting, with ``x_b`` the
reference's block execution count and ``entries(L)`` the flow entering
scope ``L``:

=======================  =========================  ====================
fault-free CHMC          degraded CHMC              extra-miss bound
=======================  =========================  ====================
always-hit               always-hit                 0
always-hit / first-miss  first-miss in scope L      min(x_b, entries(L))
always-hit / first-miss  always-miss / unclassified x_b
first-miss in L          first-miss in L (same)     0
always-miss / unclass.   anything                   0 (already misses)
=======================  =========================  ====================

The bound is conservative for degraded first-miss references (the
fault-free misses subtracted are lower-bounded by zero), exactly the
safe direction.

For the SRB mechanism, the all-ways-faulty column first removes every
reference classified always-hit by the SRB analysis (§III-B2); the
remaining references degrade to always-miss.

The sweep is *planned* rather than solved eagerly: references are
partitioned by cache set once, every (set, fault count) cell becomes a
declarative :class:`~repro.solve.request.SolveRequest`, and the
:class:`~repro.solve.planner.SolvePlanner` dedups identical
objectives and skips empty columns — with results bit-identical to the
direct per-cell sweep.
"""

from __future__ import annotations

import weakref

from repro.analysis import CacheAnalysis
from repro.analysis.chmc import Chmc
from repro.errors import AnalysisError
from repro.fmm.fault_miss_map import FaultMissMap
from repro.ipet.model import FlowModel
from repro.reliability.mechanism import ReliabilityMechanism
from repro.solve.planner import SolvePlanner
from repro.solve.request import SolveRequest

#: Per-set reference partitions, memoised on the baseline table (one
#: per analysis) so repeated mechanisms reuse the single scan.
_PARTITIONS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compute_fault_miss_map(analysis: CacheAnalysis,
                           mechanism: ReliabilityMechanism, *,
                           flow_model: FlowModel | None = None,
                           relaxed: bool = False,
                           planner: SolvePlanner | None = None
                           ) -> FaultMissMap:
    """Compute the FMM of one program for one reliability mechanism."""
    cfg = analysis.cfg
    geometry = analysis.geometry
    ways = geometry.ways
    if flow_model is None:
        flow_model = FlowModel(cfg, analysis.forest)
    if planner is None:
        planner = flow_model.planner

    fault_counts = mechanism.fault_counts(ways)
    max_fault = max(fault_counts)
    _check_contiguous(mechanism, fault_counts, max_fault)
    all_faulty_filter = mechanism.all_faulty_filter(analysis)

    baseline = analysis.classification(ways)
    partition = _references_by_set(analysis, baseline)

    # Build every cell's request first (cheap, solver untouched); the
    # planner then dedups the actual solving.
    columns: list[list[SolveRequest | None]] = []
    for set_index in range(geometry.sets):
        per_set: list[SolveRequest | None] = []
        for fault_count in range(1, max_fault + 1):
            srb_classifier = (all_faulty_filter(set_index)
                              if (all_faulty_filter is not None
                                  and fault_count == ways) else None)
            degraded = (analysis.classification(ways - fault_count)
                        if srb_classifier is None else None)
            objective = _column_objective(flow_model, partition[set_index],
                                          degraded, srb_classifier)
            per_set.append(
                SolveRequest.from_objective(objective, relaxed=relaxed,
                                            tag=(set_index, fault_count))
                if objective else None)
        columns.append(per_set)

    rows = tuple(planner.fmm_row(per_set) for per_set in columns)
    return FaultMissMap(geometry=geometry, rows=rows,
                        mechanism_name=mechanism.name)


def _check_contiguous(mechanism: ReliabilityMechanism,
                      fault_counts: tuple[int, ...],
                      max_fault: int) -> None:
    """Validate column contiguity once (not per set × fault count)."""
    present = frozenset(fault_counts)
    for fault_count in range(1, max_fault + 1):
        if fault_count not in present:
            raise AnalysisError(
                f"mechanism {mechanism.name!r} skips fault count "
                f"{fault_count}; FMM columns must be contiguous")


def _references_by_set(analysis: CacheAnalysis, baseline):
    """Partition degradable references by cache set, once per analysis.

    Returns, per set, ``(block_id, [(position, before, reference)])``
    groups in CFG block order.  References that already count full
    misses in the fault-free table are dropped here — no fault can
    make them worse — so per-column objective construction only walks
    the set's own candidates instead of rescanning the whole program.
    """
    try:
        return _PARTITIONS[baseline]
    except KeyError:
        pass
    partition: list[list[tuple[int, list]]] = [
        [] for _ in range(analysis.geometry.sets)]
    for block_id in analysis.cfg.block_ids():
        references = baseline.references(block_id)
        fault_free = baseline.of_block(block_id)
        for position, reference in enumerate(references):
            before = fault_free[position]
            if before.counts_full_misses:
                continue  # already a miss on every execution
            groups = partition[reference.set_index]
            if not groups or groups[-1][0] != block_id:
                groups.append((block_id, []))
            groups[-1][1].append((position, before, reference))
    _PARTITIONS[baseline] = partition
    return partition


def _column_objective(flow_model: FlowModel, groups, degraded,
                      srb_classifier) -> dict[int, float]:
    """Objective of one (set, fault count) cell over the partition."""
    objective: dict[int, float] = {}

    def add(coefficients: dict[int, float]) -> None:
        for variable, weight in coefficients.items():
            objective[variable] = objective.get(variable, 0.0) + weight

    for block_id, entries in groups:
        degraded_row = (degraded.of_block(block_id)
                        if degraded is not None else None)
        full_count = 0
        fm_groups: dict[int, int] = {}
        for position, before, reference in entries:
            if srb_classifier is not None:
                # All ways faulty: the mechanism's classifier says how
                # the reference behaves on the reliable storage.
                after = srb_classifier(reference)
            else:
                after = degraded_row[position]
            after_chmc, after_scope = after.chmc, after.scope
            if after_chmc is Chmc.ALWAYS_HIT:
                continue
            if after_chmc is Chmc.FIRST_MISS:
                if (before.chmc is Chmc.FIRST_MISS
                        and before.scope == after_scope):
                    continue
                fm_groups[after_scope] = fm_groups.get(after_scope, 0) + 1
            else:
                full_count += 1
        if full_count:
            add(flow_model.block_count_coefficients(block_id,
                                                    float(full_count)))
        for scope, count in fm_groups.items():
            variable = flow_model.fm_group_var(block_id, scope)
            objective[variable] = objective.get(variable, 0.0) + float(count)
    return objective
