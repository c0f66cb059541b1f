"""Refined SRB analysis — the paper's stated future work (§III-B2, §VI).

The paper's SRB analysis is deliberately conservative: it assumes the
buffer retains nothing between "distinct series of successive
accesses", because *any* fetch to *any* entirely faulty set may reload
the shared buffer.  The paper leaves "a more precise analysis deriving
the probability that a block stays in the SRB" as future work.

This module implements that refinement with a sound probability-space
split.  Condition on the event

    A  =  "at most one cache set is entirely faulty",

whose complement has probability ``P(not A) = 1 - (1-q)^S -
S*q*(1-q)^(S-1)`` with ``q = pwf(W)``.  Under ``A``, while computing
the all-faulty FMM column of set ``s``, the SRB is touched *only* by
fetches mapping to ``s`` itself — every other set has a working way.
The SRB therefore behaves as a per-set private buffer, and the Must
analysis can ignore interleaved traffic from other sets: a 1-entry
cache over the sub-stream of references to ``s``.  This preserves
*temporal* locality (e.g. a loop whose body keeps one line in ``s``
hits the SRB on every iteration), not just spatial locality.

Soundness: for any threshold ``x``,

    P(WCET > x)  <=  P(WCET > x | A) * P(A) + P(not A)
                 <=  ccdf_A(x) + P(not A),

so the estimator adds ``P(not A)`` to every exceedance value (the
:meth:`exceedance_correction` hook).  The refinement is only usable
for targets above ``P(not A)`` — at the paper's parameters
(pfail = 1e-4, 16 sets) that is ~8.1e-14, so the refined bound helps
at e.g. 1e-9 but *cannot* reach the 1e-15 aerospace target; the
trade-off is quantified by the refined-SRB table of ``repro report``.
"""

from __future__ import annotations

import math

from repro.analysis.references import Reference
from repro.cfg import CFG
from repro.faults import FaultProbabilityModel
from repro.reliability.mechanism import (AllFaultyFilter,
                                         SharedReliableBuffer)

#: Abstract SRB content: a memory block number, or None for unknown.
_SrbState = int | None


def refined_srb_always_hit_references(
        cfg: CFG, references: dict[int, tuple[Reference, ...]],
        set_index: int) -> frozenset[tuple[int, int]]:
    """References to ``set_index`` guaranteed to hit a *private* SRB.

    Must analysis of a 1-entry buffer observing only the fetches that
    map to ``set_index`` (sound under the at-most-one-faulty-set
    condition documented in the module docstring).  ``references`` is
    the CFG's reference map at the L1 geometry
    (:func:`~repro.analysis.references.all_references`).  Join of
    different blocks (or unknown) is unknown; fetches of other sets
    leave the state untouched.
    """

    def transfer(block_id: int, state: _SrbState) -> _SrbState:
        for reference in references[block_id]:
            if reference.set_index == set_index:
                state = reference.memory_block
        return state

    # Tiny dedicated fixpoint (the generic solver keyed on dict states
    # would wrap scalars for nothing).
    order = cfg.reverse_postorder()
    unknown = object()  # lattice bottom-from-above marker
    out_states: dict[int, object] = {}
    changed = True
    while changed:
        changed = False
        for block_id in order:
            if block_id == cfg.entry_id:
                incoming: object = None
            else:
                incoming = unknown
                for predecessor in cfg.predecessors(block_id):
                    if predecessor not in out_states:
                        continue
                    value = out_states[predecessor]
                    if incoming is unknown:
                        incoming = value
                    elif incoming != value:
                        incoming = None  # conflicting contents
                if incoming is unknown:
                    continue  # no predecessor computed yet
            new_out = transfer(block_id, incoming)  # type: ignore[arg-type]
            if out_states.get(block_id, unknown) != new_out:
                out_states[block_id] = new_out
                changed = True

    # Replay each block from its converged IN state to classify.
    protected: set[tuple[int, int]] = set()
    for block_id in order:
        if block_id == cfg.entry_id:
            state: _SrbState = None
        else:
            state = None
            first = True
            for predecessor in cfg.predecessors(block_id):
                value = out_states.get(predecessor)
                if first:
                    state, first = value, False
                elif state != value:
                    state = None
        for reference in references[block_id]:
            if reference.set_index != set_index:
                continue
            if state == reference.memory_block:
                protected.add(reference.key)
            state = reference.memory_block
    return frozenset(protected)


def excluded_probability(model: FaultProbabilityModel, sets: int) -> float:
    """``P(not A)``: probability of two or more entirely faulty sets."""
    q = model.pwf(model.geometry.ways)
    none_faulty = (1.0 - q) ** sets
    one_faulty = sets * q * (1.0 - q) ** (sets - 1)
    return max(0.0, 1.0 - none_faulty - one_faulty)


class RefinedSharedReliableBuffer(SharedReliableBuffer):
    """The SRB with the refined (per-set) all-faulty analysis.

    Same hardware as :class:`SharedReliableBuffer`; only the analysis
    tightens, in two ways — both sound under event ``A``:

    * *always-hit*: the per-set Must analysis above (temporal locality
      within the faulty set survives other sets' traffic);
    * *first-miss*: a reference whose faulty set hosts a single
      distinct memory block inside a loop can miss the private SRB at
      most once per loop entry (1-entry-cache conflict counting — the
      ``assoc = 1`` case of the persistence analysis).

    Reported pWCETs carry the probability correction ``P(not A)``, so
    they remain sound.
    """

    name = "srb+"
    #: The per-set private-buffer analysis replaces the shared SRB
    #: fixpoint.
    reads_srb_hits = False

    def all_faulty_filter(self, analysis) -> AllFaultyFilter:
        from repro.analysis.chmc import (ALWAYS_HIT, ALWAYS_MISS, Chmc,
                                         Classification)
        cfg, references = analysis.cfg, analysis.references
        persistence = analysis.persistence
        cache: dict[int, frozenset[tuple[int, int]]] = {}

        def per_set(set_index: int):
            if set_index not in cache:
                cache[set_index] = refined_srb_always_hit_references(
                    cfg, references, set_index)
            protected = cache[set_index]

            def classify(reference) -> Classification:
                if reference.key in protected:
                    return ALWAYS_HIT
                # The private SRB is a 1-way cache for this set's
                # sub-stream: persistence at associativity 1.
                scope = persistence.scope_of(reference, 1)
                if scope is not None:
                    return Classification(chmc=Chmc.FIRST_MISS,
                                          scope=scope)
                return ALWAYS_MISS

            return classify

        return per_set

    def exceedance_correction(self, model: FaultProbabilityModel,
                              sets: int) -> float:
        return excluded_probability(model, sets)
