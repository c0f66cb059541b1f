"""Figure 1 — the didactic FMM and convolution walkthrough.

The paper's Figure 1 shows (a) a fault miss map for a 4-set cache and
(b) how the per-set penalty distributions (three points each: 0, one
faulty block, two faulty blocks) are combined by convolution.  This
module reproduces the walkthrough on a real (small) program: it prints
the FMM, the per-set distributions, and their convolution — the one
the estimator computes (:func:`~repro.pwcet.batch.penalty_distributions`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry
from repro.fmm import FaultMissMap, compute_fault_miss_map
from repro.faults import FaultProbabilityModel
from repro.minic import CompiledProgram, Compute, Function, If, Loop, Program
from repro.minic import compile_program
from repro.pwcet import DiscreteDistribution
from repro.pwcet.batch import penalty_distributions
from repro.reliability import NoProtection


def example_program() -> CompiledProgram:
    """A small two-loop program driving a 4-set, 2-way cache."""
    program = Program([Function("main", [
        Compute(8, "setup"),
        Loop(10, [Compute(10, "hot kernel A"),
                  If([Compute(6, "branchy part")])]),
        Loop(13, [Compute(14, "hot kernel B")]),
    ])], name="fig1_example")
    return compile_program(program)


@dataclass(frozen=True)
class Fig1Data:
    """Everything Figure 1 shows."""

    fmm: FaultMissMap
    per_set: list[DiscreteDistribution]
    combined: DiscreteDistribution
    model: FaultProbabilityModel


def compute_fig1(pfail: float = 1e-4) -> Fig1Data:
    """Compute the FMM and the penalty convolution of the example."""
    geometry = CacheGeometry(sets=4, ways=2, block_bytes=16)
    compiled = example_program()
    analysis = CacheAnalysis(compiled.cfg, geometry)
    mechanism = NoProtection()
    fmm = compute_fault_miss_map(analysis, mechanism)
    model = FaultProbabilityModel(geometry=geometry, pfail=pfail)

    per_set = []
    for set_index in range(geometry.sets):
        points: dict[int, float] = {}
        for fault_count in range(geometry.ways + 1):
            penalty = fmm.misses(set_index, fault_count)
            points[penalty] = points.get(penalty, 0.0) + model.pwf(fault_count)
        per_set.append(DiscreteDistribution.from_points(points))
    [combined] = penalty_distributions(fmm, mechanism, (model,),
                                       geometry.sets)
    return Fig1Data(fmm=fmm, per_set=per_set, combined=combined, model=model)


def format_fig1(data: Fig1Data) -> str:
    """Printable version of both halves of Figure 1."""
    lines = ["Figure 1.a -- fault miss map (misses per set and fault count)",
             data.fmm.format_table(), "",
             "Figure 1.b -- penalty distributions and their convolution"]
    for set_index, distribution in enumerate(data.per_set):
        points = {value: float(distribution.pmf[value])
                  for value in range(distribution.support_max + 1)
                  if distribution.pmf[value] > 0}
        rendered = ", ".join(f"P(penalty={v})={p:.3e}"
                             for v, p in sorted(points.items()))
        lines.append(f"set {set_index}: {rendered}")
    lines.append("")
    lines.append(f"combined support: [0, {data.combined.support_max}] "
                 f"misses; mass = {data.combined.total_mass:.12f}")
    quantile = data.combined.quantile_exceedance(1e-15)
    lines.append(f"penalty quantile at 1e-15: {quantile} misses")
    return "\n".join(lines)
