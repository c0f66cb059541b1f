"""IPET: the ILP layer, the flow model, and WCET computation."""

import pytest

from repro.analysis import CacheAnalysis
from repro.cache import CacheGeometry
from repro.cfg import CFG, find_loops
from repro.errors import SolverError
from repro.ipet import (FlowModel, LinearProgram, TimingModel, compute_wcet,
                        enumerate_paths)
from repro.ipet.paths import max_path_cost
from repro.minic import Compute, Function, If, Loop, Program, compile_program

GEOMETRY = CacheGeometry(sets=16, ways=4, block_bytes=16)


class TestLinearProgram:
    def test_simple_maximization(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=5)
        y = lp.add_variable("y", upper=7)
        lp.add_le({x: 1.0, y: 1.0}, 10.0)
        solution = lp.maximize({x: 2.0, y: 3.0})
        assert solution.rounded_objective() == 2 * 3 + 3 * 7

    def test_equality_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_eq({x: 1.0}, 4.0)
        assert lp.maximize({x: 1.0}).rounded_objective() == 4

    def test_integrality(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_le({x: 2.0}, 5.0)  # x <= 2.5
        assert lp.maximize({x: 1.0}).rounded_objective() == 2
        relaxed = lp.maximize({x: 1.0}, relaxed=True)
        assert relaxed.objective == pytest.approx(2.5)

    def test_relaxation_upper_bounds_ilp(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_le({x: 3.0, y: 2.0}, 7.0)
        exact = lp.maximize({x: 2.0, y: 1.0}).objective
        relaxed = lp.maximize({x: 2.0, y: 1.0}, relaxed=True).objective
        assert relaxed >= exact - 1e-9

    def test_infeasible_raises(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_le({x: 1.0}, -1.0)
        with pytest.raises(SolverError, match="infeasible"):
            lp.maximize({x: 1.0})

    def test_unknown_variable_in_constraint(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError):
            lp.add_le({5: 1.0}, 0.0)

    @pytest.mark.parametrize("objective", [{5: 1.0}, {0: 1.0, -1: 2.0},
                                           ((0, 1.0), (1, 1.0))])
    def test_unknown_variable_in_objective(self, objective):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=3)
        lp.add_le({x: 1.0}, 3.0)
        with pytest.raises(SolverError, match="unknown variable index"):
            lp.maximize(objective)

    def test_objective_as_index_weight_pairs(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=5)
        y = lp.add_variable("y", upper=7)
        lp.add_le({x: 1.0, y: 1.0}, 10.0)
        pairs = lp.maximize(((x, 2.0), (y, 3.0))).rounded_objective()
        assert pairs == lp.maximize({x: 2.0, y: 3.0}).rounded_objective()

    def test_empty_constraint_rejected(self):
        lp = LinearProgram()
        with pytest.raises(SolverError):
            lp.add_le({}, 0.0)

    def test_bad_bounds_rejected(self):
        lp = LinearProgram()
        with pytest.raises(SolverError):
            lp.add_variable("x", lower=3.0, upper=1.0)


class TestPathEnumeration:
    def test_diamond_has_two_paths(self):
        cfg = CFG()
        for label in ("entry", "a", "b", "exit"):
            cfg.new_block(label)
        cfg.add_edge(0, 1)
        cfg.add_edge(0, 2)
        cfg.add_edge(1, 3)
        cfg.add_edge(2, 3)
        cfg.set_entry(0)
        cfg.set_exit(3)
        assert len(list(enumerate_paths(cfg))) == 2

    def test_loop_path_count(self):
        """A loop with bound B and a branchless body has B paths
        (0 .. B-1 body iterations)."""
        program = Program([Function("main", [Loop(4, [Compute(2)])])])
        compiled = compile_program(program)
        paths = list(enumerate_paths(compiled.cfg))
        assert len(paths) == 5  # 0..4 iterations

    def test_branch_in_loop_path_count(self):
        program = Program([Function("main",
                                    [Loop(3, [If([Compute(1)],
                                                 [Compute(1)])])])])
        compiled = compile_program(program)
        # sum over k iterations of 2^k branch choices: 1+2+4+8 = 15
        assert len(list(enumerate_paths(compiled.cfg))) == 15

    def test_max_paths_cap(self):
        program = Program([Function("main",
                                    [Loop(30, [If([Compute(1)],
                                                  [Compute(1)])])])])
        compiled = compile_program(program)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="feasible paths"):
            list(enumerate_paths(compiled.cfg, max_paths=100))


class TestWCETAgainstOracle:
    """ILP maximum == exhaustive path maximum for block-cost objectives."""

    @pytest.mark.parametrize("body", [
        [Compute(5)],
        [Loop(4, [Compute(3)])],
        [If([Compute(8)], [Compute(2)])],
        [Loop(3, [If([Compute(6)], [Compute(1)])]), Compute(2)],
        [Loop(2, [Loop(3, [Compute(2)])])],
    ])
    def test_constant_cost_objective_matches(self, body):
        program = Program([Function("main", body)])
        compiled = compile_program(program)
        forest = find_loops(compiled.cfg)
        # Cost = instruction count per block (a valid linear objective).
        costs = {block_id: float(block.instruction_count)
                 for block_id, block in compiled.cfg.blocks.items()}
        oracle = max_path_cost(compiled.cfg, costs, forest)

        model = FlowModel(compiled.cfg, forest)
        objective: dict[int, float] = {}
        for block_id, cost in costs.items():
            for variable, weight in model.block_count_coefficients(
                    block_id, cost).items():
                objective[variable] = objective.get(variable, 0) + weight
        solution = model.program.maximize(objective)
        assert solution.rounded_objective() == int(oracle)


class TestComputeWCET:
    def test_straight_line_wcet_exact(self, straight_line_program, timing):
        """Straight-line code: the WCET is directly computable."""
        analysis = CacheAnalysis(straight_line_program.cfg, GEOMETRY)
        table = analysis.classification()
        result = compute_wcet(straight_line_program.cfg, table, timing)
        fetches = straight_line_program.cfg.instruction_count()
        lines = {address // 16 for address in
                 straight_line_program.cfg.distinct_addresses()}
        expected = (fetches * timing.hit_cycles
                    + len(lines) * timing.memory_cycles)
        assert result.cycles == expected

    def test_wcet_dominates_simulation(self, loop_program, timing, rng):
        from repro.cache import LRUCache
        from repro.cfg import PathWalker
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        result = compute_wcet(loop_program.cfg, analysis.classification(),
                              timing)
        walker = PathWalker(loop_program.cfg)
        for index in range(30):
            walk = walker.walk(rng, maximize_iterations=(index % 3 == 0))
            cache = LRUCache(GEOMETRY)
            cycles = sum(
                timing.hit_cycles
                if cache.access(GEOMETRY.block_of(address))
                else timing.miss_cycles
                for address in walk.addresses)
            assert cycles <= result.cycles

    def test_block_counts_respect_loop_bounds(self, loop_program, timing):
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        result = compute_wcet(loop_program.cfg, analysis.classification(),
                              timing)
        forest = analysis.forest
        for header, loop in forest.loops.items():
            assert result.block_counts[header] <= loop.bound

    def test_relaxed_at_least_exact(self, loop_program, timing):
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        table = analysis.classification()
        exact = compute_wcet(loop_program.cfg, table, timing)
        relaxed = compute_wcet(loop_program.cfg, table, timing,
                               relaxed=True)
        assert relaxed.cycles >= exact.cycles

    def test_degraded_wcet_monotone_in_assoc(self, loop_program, timing):
        analysis = CacheAnalysis(loop_program.cfg, GEOMETRY)
        previous = None
        for assoc in range(GEOMETRY.ways, -1, -1):
            result = compute_wcet(loop_program.cfg,
                                  analysis.classification(assoc), timing)
            if previous is not None:
                assert result.cycles >= previous
            previous = result.cycles

    def test_timing_model_validation(self):
        with pytest.raises(Exception):
            TimingModel(hit_cycles=0)
        assert TimingModel().miss_cycles == 101
