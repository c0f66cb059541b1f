"""End-to-end probabilistic WCET estimation.

One estimate is the paper's pipeline for one program (§II, Figure 1):

1. static cache analysis and fault-free IPET WCET (§II-B);
2. fault miss map per reliability mechanism (§II-C, §III-B);
3. per-set penalty distributions (values ``FMM[s][f]``, probabilities
   eq. 2 or eq. 3) convolved across sets (Figure 1.b);
4. pWCET = fault-free WCET + memory latency * penalty quantile at the
   target exceedance probability (the paper uses 1e-15).

Every estimate comes out of the pipeline's one task DAG
(:class:`~repro.pipeline.stages.EstimationDag`): :class:`PWCETEstimate`
is one of its (mechanism, pfail) rows, and :class:`PWCETEstimator` is
a facade that runs a one-program DAG per call, so it reads and writes
the same persistent rows as ``repro suite``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.cache import CacheGeometry
from repro.errors import EstimationError
from repro.faults import FaultProbabilityModel
from repro.ipet import TimingModel
from repro.reliability import ReliabilityMechanism, mechanism_by_name
from repro.util import check_probability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cfg import CFG
    from repro.fmm import FaultMissMap
    from repro.minic import CompiledProgram
    from repro.pwcet.distribution import DiscreteDistribution
    from repro.pwcet.exceedance import ExceedanceCurve

#: Exceedance probability used throughout the paper's evaluation
#: (1e-15 per task activation, aerospace commercial level).
TARGET_EXCEEDANCE = 1e-15


@dataclass(frozen=True)
class EstimatorConfig:
    """Hardware-side parameters of an estimation run.

    Defaults are the paper's experimental setup (§IV-A): 1 KB 4-way
    16 B-line LRU instruction cache, 1-cycle cache / 100-cycle memory
    latency, ``pfail = 1e-4``.
    """

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry.from_size(1024, 4, 16))
    timing: TimingModel = field(default_factory=TimingModel)
    pfail: float = 1e-4
    #: Solve LP relaxations instead of ILPs (sound, looser, faster).
    relaxed: bool = False
    #: Process-pool width of the task DAG (1 = inline).  Execution
    #: policy, not a hardware parameter: results are identical for
    #: any width, so it is excluded from equality.  The
    #: single-benchmark commands take no ``--workers`` and run inline.
    workers: int = field(default=1, compare=False)
    #: Persistent solve-cache selector: ``None`` defers to the
    #: ``REPRO_CACHE`` environment variable, ``"off"`` disables
    #: persistence, anything else is a store directory.  Execution
    #: policy like ``workers``: cached values are bit-identical to
    #: fresh solves, so the field is excluded from equality.
    cache: str | None = field(default=None, compare=False)

    def fault_model(self) -> FaultProbabilityModel:
        return FaultProbabilityModel(geometry=self.geometry,
                                     pfail=self.pfail)


@dataclass(frozen=True)
class PWCETEstimate:
    """Everything known about one (program, mechanism) estimation.

    The penalty distribution is a pure function of (FMM, mechanism,
    fault model), so an estimate need not carry it: a computed one
    does, while a stored cell row (see
    :mod:`repro.pipeline.cellstore`) carries only the pWCET its run
    asked for and recomputes the distribution from the FMM on first
    use of :attr:`penalty_misses`: a one-row uncapped kernel call,
    bitwise the row its batch computed below that row's cap.
    """

    program_name: str
    mechanism_name: str
    wcet_fault_free: int
    timing: TimingModel
    fmm: FaultMissMap = field(repr=False)
    #: The fault model weighting the FMM's penalties (eq. 2 / eq. 3).
    fault_model: FaultProbabilityModel = field(repr=False)
    #: Probability mass excluded by the analysis' assumptions (0 for
    #: the paper's mechanisms; > 0 for refined analyses like ``srb+``).
    exceedance_correction: float = 0.0
    #: The fault-penalty distribution, when the producer has it;
    #: ``None`` defers it to :attr:`penalty_misses`.
    distribution: DiscreteDistribution | None = field(
        default=None, repr=False, compare=False)
    #: A ``(probability, pWCET)`` pair already known without the
    #: distribution (what a stored cell row holds).
    known_pwcet: tuple[float, int] | None = field(
        default=None, repr=False, compare=False)

    @classmethod
    def of(cls, name: str, mechanism: ReliabilityMechanism, wcet: int,
           fmm: FaultMissMap, fault_model: FaultProbabilityModel,
           timing: TimingModel,
           distribution: DiscreteDistribution) -> "PWCETEstimate":
        """A computed estimate, with the mechanism's excluded mass."""
        return cls(program_name=name, mechanism_name=mechanism.name,
                   wcet_fault_free=wcet, timing=timing, fmm=fmm,
                   fault_model=fault_model,
                   exceedance_correction=mechanism.exceedance_correction(
                       fault_model, fmm.geometry.sets),
                   distribution=distribution)

    @property
    def penalty_misses(self) -> DiscreteDistribution:
        """Fault-penalty distribution in *misses*: per-set penalty
        points weighted by the mechanism's fault pmf (eq. 2 / eq. 3),
        convolved across sets (Figure 1.b).  Recomputed from the FMM
        on first use when the estimate does not carry it: a one-row
        uncapped kernel call, bitwise the row a cells task folds below
        that row's cap."""
        if self.distribution is None:
            from repro.pwcet.batch import penalty_distributions
            [distribution] = penalty_distributions(
                self.fmm, mechanism_by_name(self.mechanism_name),
                (self.fault_model,), self.fmm.geometry.sets)
            object.__setattr__(self, "distribution", distribution)
        return self.distribution

    def certifies(self, probability: float) -> bool:
        """Whether the analysis has a pWCET at ``probability``: the
        level it reads, ``probability`` less the excluded mass, must
        be positive."""
        return probability - self.exceedance_correction > 0.0

    def pwcet(self, probability: float = TARGET_EXCEEDANCE) -> int:
        """pWCET in cycles at the given exceedance probability."""
        check_probability(probability, "probability", allow_zero=False,
                          allow_one=False)
        if not self.certifies(probability):
            raise EstimationError(
                f"target probability {probability:g} is below the "
                f"analysis' excluded mass "
                f"{self.exceedance_correction:g}; the "
                f"{self.mechanism_name!r} analysis cannot certify this "
                "level — use the baseline 'srb' mechanism instead")
        if self.known_pwcet is not None \
                and self.known_pwcet[0] == probability:
            return self.known_pwcet[1]
        effective = probability - self.exceedance_correction
        quantile = self.penalty_misses.quantile_exceedance(effective)
        return self.wcet_fault_free + quantile * self.timing.memory_cycles

    def reduced(self, probability: float) -> "PWCETEstimate":
        """This estimate without its distribution, holding its pWCET
        at ``probability`` (none when the analysis cannot certify that
        level): what a cell row stores and a pool worker ships."""
        known = ((probability, self.pwcet(probability))
                 if self.certifies(probability) else None)
        return replace(self, distribution=None, known_pwcet=known)

    def exceedance_curve(self) -> ExceedanceCurve:
        """The Figure 3 curve for this estimate."""
        import numpy as np

        from repro.pwcet.exceedance import ExceedanceCurve
        curve = ExceedanceCurve.from_penalty_distribution(
            self.penalty_misses, self.wcet_fault_free,
            self.timing.memory_cycles,
            label=f"{self.program_name}/{self.mechanism_name}")
        if self.exceedance_correction == 0.0:
            return curve
        lifted = np.minimum(
            curve.probabilities + self.exceedance_correction, 1.0)
        return ExceedanceCurve(values=curve.values, probabilities=lifted,
                               label=curve.label)


class PWCETEstimator:
    """One program's estimates, each from a one-program task DAG
    (:func:`~repro.experiments.runner.run_suite`); ``stats`` sums them."""

    def __init__(self, program: CompiledProgram | CFG,
                 config: EstimatorConfig | None = None,
                 name: str | None = None) -> None:
        from repro.pipeline.scheduler import PipelineStats
        self._cfg = getattr(program, "cfg", program)
        self._config = config if config is not None else EstimatorConfig()
        self._name = name if name is not None else self._cfg.name
        self._estimates: dict[str, PWCETEstimate] = {}
        self.stats = PipelineStats()

    def fault_free_wcet(self) -> int:
        """The deterministic WCET on a fault-free cache (§II-B)."""
        known = next(iter(self._estimates.values()), None)
        return (known or self.estimate_all()["none"]).wcet_fault_free

    def fault_miss_map(self, mechanism) -> FaultMissMap:
        return self.estimate(mechanism).fmm

    def estimate(self, mechanism) -> PWCETEstimate:
        """Full pWCET estimate for one mechanism (memoised)."""
        return self._run((_mechanism_name(mechanism),))[0]

    def estimate_all(self) -> dict[str, PWCETEstimate]:
        """Estimates for the paper's three configurations."""
        return {e.mechanism_name: e for e in self._run(("none", "srb", "rw"))}

    def _run(self, names) -> list[PWCETEstimate]:
        from repro.experiments.runner import run_suite
        missing = tuple(name for name in names if name not in self._estimates)
        if missing:
            (result,) = run_suite(self._config, mechanisms=missing,
                                  programs={self._name: self._cfg},
                                  pipeline_stats=self.stats)
            self._estimates.update(result.estimates)
        return [self._estimates[name] for name in names]


def _mechanism_name(mechanism: ReliabilityMechanism | str) -> str:
    if isinstance(mechanism, str):
        return mechanism_by_name(mechanism).name
    if not isinstance(mechanism, ReliabilityMechanism):
        raise EstimationError(
            f"expected a mechanism or name, got {mechanism!r}")
    return mechanism.name
