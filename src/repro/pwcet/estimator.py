"""End-to-end probabilistic WCET estimation.

:class:`PWCETEstimator` glues the whole pipeline together for one
program and one hardware configuration:

1. static cache analysis and fault-free IPET WCET (§II-B);
2. fault miss map per reliability mechanism (§II-C, §III-B);
3. per-set penalty distributions (values ``FMM[s][f]``, probabilities
   eq. 2 or eq. 3) convolved across sets (Figure 1.b);
4. pWCET = fault-free WCET + memory latency * penalty quantile at the
   target exceedance probability (the paper uses 1e-15).

All intermediate artefacts are memoised: the estimator runs the cache
analysis once per associativity and builds a single flow polytope that
every ILP (WCET and all FMM entries) reuses.  Solved objectives also
persist across runs through the content-addressed
:class:`~repro.solve.store.SolveStore` (``REPRO_CACHE``,
``EstimatorConfig(cache=...)``): a warm rerun of the same estimation
performs zero backend ILP solves.

The estimator runs in-process, at one geometry, and sequences
nothing itself: each accessor memoises one stage and demands its
inputs, so the classification tables a WCET or FMM objective reads
are computed on first use.  Its polytope wiring
(:func:`~repro.pipeline.stages.solve_polytope`) and estimate
constructor (:meth:`PWCETEstimate.of`) are the pipeline's own.
Multi-program runs (the suite, the sweep) go through the flat task
DAG of :mod:`repro.pipeline.stages` instead, which computes the same
values with the same kernels.
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
    from repro.analysis import CacheAnalysis
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
    #: Process-pool width of the suite/sweep task DAG (1 = inline).
    #: Execution policy, not a hardware parameter: results are
    #: identical for any width, so it is excluded from equality.  A
    #: lone :class:`PWCETEstimator` always runs in-process.
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


def penalty_distribution(fmm: FaultMissMap,
                         mechanism: ReliabilityMechanism,
                         fault_model: FaultProbabilityModel,
                         sets: int) -> DiscreteDistribution:
    """Whole-cache fault penalty distribution, in misses.

    Pure function of (FMM, mechanism, fault model): per-set penalty
    points weighted by the mechanism's fault pmf (eq. 2 / eq. 3),
    convolved across sets (Figure 1.b).  The pipeline's cells task
    (:func:`repro.pipeline.stages.cell_stage`) calls the same kernel
    over a whole pfail axis, capped at the level it reads; each row's
    arithmetic is independent of the others, so below its cap it is
    bit-identical to this one-row batch, and its quantiles are
    property-tested equal to exact-rational ones.
    """
    from repro.pwcet.batch import penalty_distributions
    return penalty_distributions(fmm, mechanism, (fault_model,), sets)[0]


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
        """Fault-penalty distribution in *misses* (recomputed from the
        FMM on first use when the estimate does not carry it)."""
        if self.distribution is None:
            object.__setattr__(self, "distribution", penalty_distribution(
                self.fmm, mechanism_by_name(self.mechanism_name),
                self.fault_model, self.fmm.geometry.sets))
        return self.distribution

    def pwcet(self, probability: float = TARGET_EXCEEDANCE) -> int:
        """pWCET in cycles at the given exceedance probability."""
        check_probability(probability, "probability", allow_zero=False,
                          allow_one=False)
        if self.known_pwcet is not None \
                and self.known_pwcet[0] == probability:
            return self.known_pwcet[1]
        effective = probability - self.exceedance_correction
        if effective <= 0.0:
            raise EstimationError(
                f"target probability {probability:g} is below the "
                f"analysis' excluded mass "
                f"{self.exceedance_correction:g}; the "
                f"{self.mechanism_name!r} analysis cannot certify this "
                "level — use the baseline 'srb' mechanism instead")
        quantile = self.penalty_misses.quantile_exceedance(effective)
        return self.wcet_fault_free + quantile * self.timing.memory_cycles

    def reduced(self, probability: float) -> "PWCETEstimate":
        """This estimate without its distribution, holding its pWCET
        at ``probability``: what a cell row stores and a pool worker
        ships."""
        return replace(self, distribution=None,
                       known_pwcet=(probability, self.pwcet(probability)))

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
    """Memoising pipeline driver for one program + configuration."""

    def __init__(self, program: CompiledProgram | CFG,
                 config: EstimatorConfig | None = None,
                 name: str | None = None) -> None:
        from repro.analysis import CacheAnalysis
        from repro.minic import CompiledProgram
        from repro.pipeline.stages import solve_polytope

        if config is None:
            config = EstimatorConfig()
        cfg = program.cfg if isinstance(program, CompiledProgram) else program
        self._cfg = cfg
        self._config = config
        self._name = name if name is not None else cfg.name
        #: The cache selector is shared with the solve store: one knob
        #: (``cache=`` / ``REPRO_CACHE``) controls both the
        #: classification store and the ILP store.
        self._analysis = CacheAnalysis(cfg, config.geometry,
                                       cache=config.cache)
        #: One polytope and planner per estimator: WCET and every
        #: mechanism's FMM dedup against the same canonical-objective
        #: cache, and already-solved objectives are answered from the
        #: persistent store instead of the ILP backend.
        self._flow_model, self._store = solve_polytope(self._analysis,
                                                       config.cache)
        self._planner = self._flow_model.planner
        self._fault_model = config.fault_model()
        self._wcet_fault_free: int | None = None
        self._fmm_cache: dict[str, FaultMissMap] = {}
        self._estimates: dict[str, PWCETEstimate] = {}

    @property
    def config(self) -> EstimatorConfig:
        return self._config

    @property
    def analysis(self) -> CacheAnalysis:
        return self._analysis

    @property
    def fault_model(self) -> FaultProbabilityModel:
        return self._fault_model

    @property
    def name(self) -> str:
        return self._name

    @property
    def solver_stats(self):
        """Planner counters (solved/pruned/deduped) for this estimator."""
        return self._planner.stats

    @property
    def store(self):
        """The persistent solve store in use (``None`` when disabled)."""
        return self._store

    # ------------------------------------------------------------------
    def fault_free_wcet(self) -> int:
        """The deterministic WCET on a fault-free cache (§II-B)."""
        if self._wcet_fault_free is None:
            from repro.ipet import compute_wcet
            result = compute_wcet(
                self._cfg, self._analysis.classification(),
                self._config.timing, flow_model=self._flow_model,
                relaxed=self._config.relaxed)
            self._wcet_fault_free = result.cycles
        return self._wcet_fault_free

    def fault_miss_map(self,
                       mechanism: ReliabilityMechanism | str) -> FaultMissMap:
        mechanism = self._resolve(mechanism)
        if mechanism.name not in self._fmm_cache:
            from repro.fmm import compute_fault_miss_map
            self._fmm_cache[mechanism.name] = compute_fault_miss_map(
                self._analysis, mechanism, flow_model=self._flow_model,
                relaxed=self._config.relaxed)
        return self._fmm_cache[mechanism.name]

    def penalty_distribution(self, mechanism: ReliabilityMechanism | str
                             ) -> DiscreteDistribution:
        """Whole-cache fault penalty distribution, in misses."""
        mechanism = self._resolve(mechanism)
        return penalty_distribution(self.fault_miss_map(mechanism),
                                    mechanism, self._fault_model,
                                    self._config.geometry.sets)

    def estimate(self, mechanism: ReliabilityMechanism | str
                 ) -> PWCETEstimate:
        """Full pWCET estimate for one mechanism (memoised)."""
        mechanism = self._resolve(mechanism)
        if mechanism.name not in self._estimates:
            self._estimates[mechanism.name] = PWCETEstimate.of(
                self._name, mechanism, self.fault_free_wcet(),
                self.fault_miss_map(mechanism), self._fault_model,
                self._config.timing, self.penalty_distribution(mechanism))
        return self._estimates[mechanism.name]

    def estimate_all(self) -> dict[str, PWCETEstimate]:
        """Estimates for the paper's three configurations."""
        return {name: self.estimate(name) for name in ("none", "srb", "rw")}

    # ------------------------------------------------------------------
    @staticmethod
    def _resolve(mechanism: ReliabilityMechanism | str
                 ) -> ReliabilityMechanism:
        if isinstance(mechanism, str):
            return mechanism_by_name(mechanism)
        if not isinstance(mechanism, ReliabilityMechanism):
            raise EstimationError(
                f"expected a mechanism or name, got {mechanism!r}")
        return mechanism
