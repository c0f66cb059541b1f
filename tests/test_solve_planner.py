"""The solve planner: dedup/prune/batch must not change any result.

The planner's whole contract is *bit-identical outputs*: every
shortcut (canonical-objective dedup, empty short-circuit, batching,
persistent backends) is value-preserving with respect to solving every
(set, fault count) ILP directly.  These tests pin that equivalence on
real suite benchmarks across all three reliability mechanisms, against
an oracle that calls :meth:`LinearProgram.maximize` once per cell,
plus unit-level behaviour of the planner and backends.
"""

import pytest

from repro.analysis import CacheAnalysis
from repro.fmm import compute_fault_miss_map
from repro.ipet import FlowModel, LinearProgram
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.reliability import mechanism_by_name
from repro.solve import (SolvePlanner, SolveRequest, available_backends,
                        make_backend)
from repro.solve.backend import ScipyBackend, ceil_bound
from repro.suite import load

MECHANISMS = ("none", "srb", "rw")
#: Mid-size benchmarks with different control structure: loop nest
#: (ud), branchy CRC, and a large multi-function program (adpcm).
EQUIVALENCE_BENCHMARKS = ("ud", "crc", "adpcm")


def _maximize(program: LinearProgram, request: SolveRequest) -> int:
    """One cell's bound straight from the program, no planner."""
    solution = program.maximize(request.objective_dict(),
                                relaxed=request.relaxed)
    if request.relaxed:
        return ceil_bound(solution.objective)
    return solution.rounded_objective()


class _DirectPlanner(SolvePlanner):
    """The unplanned reference path: one ``maximize`` per non-empty cell,
    no dedup, no store, rows made monotone by a running max."""

    def fmm_row(self, columns):
        row = [0]
        for request in columns:
            value = 0 if request is None else _maximize(self.program,
                                                        request)
            row.append(max(value, row[-1]))
        return tuple(row)


def _direct_fmm(name: str, mechanism: str):
    """Every non-empty cell of one FMM solved directly."""
    compiled = load(name)
    analysis = CacheAnalysis(compiled.cfg, EstimatorConfig().geometry)
    flow_model = FlowModel(compiled.cfg, analysis.forest)
    return compute_fault_miss_map(
        analysis, mechanism_by_name(mechanism), flow_model=flow_model,
        planner=_DirectPlanner(flow_model.program))


def _direct_estimator(name: str, config: EstimatorConfig | None = None
                      ) -> PWCETEstimator:
    """An estimator whose FMM cells bypass the planner's shortcuts."""
    estimator = PWCETEstimator(load(name), config, name=name)
    flow_model = estimator._flow_model
    flow_model._planner = _DirectPlanner(flow_model.program)
    return estimator


class TestPipelineEquivalence:
    """Planned results must equal the direct path, bit for bit."""

    @pytest.mark.parametrize("name", EQUIVALENCE_BENCHMARKS)
    def test_fmm_identical_to_direct_path(self, name):
        estimator = PWCETEstimator(load(name), name=name)
        for mechanism in MECHANISMS:
            planned = estimator.fault_miss_map(mechanism)
            direct = _direct_fmm(name, mechanism)
            assert planned.rows == direct.rows, (name, mechanism)
        stats = estimator.solver_stats
        assert stats.dedup_hits > 0  # the shortcuts actually engaged
        assert stats.pruned_empty > 0

    @pytest.mark.parametrize("name", EQUIVALENCE_BENCHMARKS)
    def test_pwcet_identical_to_direct_path(self, name):
        planned = PWCETEstimator(load(name), name=name)
        direct = _direct_estimator(name)
        for mechanism in MECHANISMS:
            assert (planned.estimate(mechanism).pwcet()
                    == direct.estimate(mechanism).pwcet()), (name, mechanism)

    def test_relaxed_mode_identical_to_direct_path(self):
        planned = PWCETEstimator(load("ud"), EstimatorConfig(relaxed=True),
                                 name="ud")
        direct = _direct_estimator("ud", EstimatorConfig(relaxed=True))
        for mechanism in MECHANISMS:
            assert (planned.estimate(mechanism).pwcet()
                    == direct.estimate(mechanism).pwcet())


class TestParallelSuite:
    def test_run_suite_workers_identical(self):
        from repro.experiments.runner import run_suite
        subset = ("fibcall", "bs", "prime")
        sequential = run_suite(benchmarks=subset)
        parallel = run_suite(EstimatorConfig(workers=2), benchmarks=subset,
                             workers=2)
        for left, right in zip(sequential, parallel):
            assert left.name == right.name
            assert left.wcet_fault_free == right.wcet_fault_free
            for mechanism in MECHANISMS:
                assert left.pwcet(mechanism) == right.pwcet(mechanism)


class TestSolveRequest:
    def test_canonical_key_ignores_insertion_order(self):
        first = SolveRequest.from_objective({3: 1.0, 1: 2.0})
        second = SolveRequest.from_objective({1: 2.0, 3: 1.0})
        assert first == second
        assert first.key == second.key

    def test_tag_does_not_affect_identity(self):
        first = SolveRequest.from_objective({0: 1.0}, tag=(0, 1))
        second = SolveRequest.from_objective({0: 1.0}, tag=(7, 3))
        assert first == second

    def test_relaxation_mode_separates_keys(self):
        exact = SolveRequest.from_objective({0: 1.0})
        relaxed = SolveRequest.from_objective({0: 1.0}, relaxed=True)
        assert exact.key != relaxed.key

    def test_empty_objective_rejected(self):
        from repro.errors import SolverError
        with pytest.raises(SolverError):
            SolveRequest.from_objective({})


def _bounded_program(upper: float = 5.0) -> LinearProgram:
    program = LinearProgram(name="unit")
    program.add_variable("x", upper=upper)
    return program


class TestPlannerUnit:
    def test_dedup_solves_once(self):
        planner = SolvePlanner(_bounded_program())
        request = SolveRequest.from_objective({0: 1.0})
        assert planner.solve(request) == 5
        assert planner.solve(request) == 5
        assert planner.stats.ilp_solved == 1
        assert planner.stats.dedup_hits == 1

    def test_fmm_row_empty_columns_short_circuit(self):
        planner = SolvePlanner(_bounded_program())
        row = planner.fmm_row([None, None])
        assert row == (0, 0, 0)
        assert planner.stats.pruned_empty == 2
        assert planner.stats.ilp_solved == 0

    def test_fmm_row_is_monotone(self):
        # x integer in [0, 5]: column 1 maximises x (=5); column 2's
        # own optimum round(0.9 * 5) = 4 is lifted to the previous 5.
        planner = SolvePlanner(_bounded_program())
        row = planner.fmm_row([
            SolveRequest.from_objective({0: 1.0}),
            SolveRequest.from_objective({0: 0.9}),
        ])
        assert row == (0, 5, 5)
        assert planner.stats.ilp_solved == 2
        assert planner.stats.lp_solved == 0

    def test_fmm_row_fractional_weights_match_direct_path(self):
        # The reported value of a fractional-weight ILP is
        # round(optimum): the true row here is (0, 4, 5).
        columns = [SolveRequest.from_objective({0: 0.8}),
                   SolveRequest.from_objective({0: 0.92})]
        planned = SolvePlanner(_bounded_program()).fmm_row(columns)
        direct = _DirectPlanner(_bounded_program()).fmm_row(columns)
        assert planned == direct == (0, 4, 5)

    def test_prime_fills_cache(self):
        planner = SolvePlanner(_bounded_program())
        requests = [SolveRequest.from_objective({0: 1.0}),
                    SolveRequest.from_objective({0: 2.0}),
                    SolveRequest.from_objective({0: 1.0})]
        planner.prime(requests)
        assert planner.stats.ilp_solved == 2  # unique objectives only
        # First consumption of a primed key is the solve prime()
        # already counted, not a dedup hit; the second one is.
        assert planner.solve(requests[0]) == 5
        assert planner.stats.dedup_hits == 0
        assert planner.solve(requests[0]) == 5
        assert planner.stats.dedup_hits == 1

    def test_stats_dict_keys(self):
        stats = SolvePlanner(_bounded_program()).stats.as_dict()
        assert {"requests", "ilp_solved", "lp_solved", "dedup_hits",
                "store_hits", "pruned_empty"} == set(stats)


class TestBackends:
    def test_backends_agree_on_flow_polytope(self, loop_program):
        """Persistent HiGHS and frozen scipy give the same optima."""
        flow_model = FlowModel(loop_program.cfg)
        snapshot = flow_model.program.snapshot()
        objective = {flow_model.entry_var: 1.0}
        for block_id in loop_program.cfg.block_ids():
            for variable, weight in flow_model.block_count_coefficients(
                    block_id, 3.0).items():
                objective[variable] = objective.get(variable, 0.0) + weight
        reference = ScipyBackend(snapshot)
        for name in available_backends():
            backend = make_backend(snapshot, prefer=name)
            for relaxed in (False, True):
                value, _ = backend.solve(objective, sign=-1.0,
                                         relaxed=relaxed)
                expected, _ = reference.solve(objective, sign=-1.0,
                                              relaxed=relaxed)
                assert round(value, 6) == round(expected, 6)

    def test_snapshot_invalidated_by_model_edits(self):
        program = _bounded_program()
        first = program.snapshot()
        program.add_variable("y", upper=2.0)
        second = program.snapshot()
        assert second.num_variables == first.num_variables + 1
        assert program.maximize({0: 1.0, 1: 1.0}).rounded_objective() == 7

    def test_program_pickles_without_backend(self):
        import pickle
        program = _bounded_program()
        program.maximize({0: 1.0})  # forces a live backend
        clone = pickle.loads(pickle.dumps(program))
        assert clone.maximize({0: 1.0}).rounded_objective() == 5
