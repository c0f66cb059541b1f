"""The deterministic chaos harness: plan grammar, ordinals, hooks.

A malformed ``REPRO_FAULT_PLAN`` must fail loudly (a typo'd chaos CI
job would otherwise green-light an untested recovery path), ordinal
counters must be exact — ``#1`` fires once, locally or globally via
``REPRO_FAULT_STATE`` — and the ``solve`` hook must raise the
documented :class:`~repro.errors.SolverError`.  The ``worker`` and
``store`` kills are exercised end to end in ``tests/test_resilience.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError, SolverError
from repro.testing import faultinject
from repro.testing.faultinject import (PLAN_ENV, STATE_ENV, fire,
                                       parse_plan, solve_hook,
                                       worker_hook)


@pytest.fixture(autouse=True)
def _clean_harness(monkeypatch):
    """Each test starts with no plan, no state dir, zeroed counters."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(STATE_ENV, raising=False)
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()
    yield
    faultinject._PLAN_MEMO = None
    faultinject._LOCAL_COUNTS.clear()


class TestGrammar:
    def test_full_example_plan_parses(self):
        clauses = parse_plan("worker:kill@cell_stage#2;"
                             "store:kill@cells-v3;"
                             "solve:fail@ipet:prime")
        assert [(c.site, c.action, c.target, c.ordinal)
                for c in clauses] == [
            ("worker", "kill", "cell_stage", 2),
            ("store", "kill", "cells-v3", None),
            ("solve", "fail", "ipet:prime", None)]
        # Clause indices key the ordinal counters.
        assert [c.index for c in clauses] == [0, 1, 2]

    def test_empty_plan_is_no_clauses(self):
        assert parse_plan("") == ()
        assert parse_plan(" ; ; ") == ()

    @pytest.mark.parametrize("plan", [
        "nonsense",
        "worker@kill",               # no action
        "ghost:kill@stage",          # unknown site
        "worker:explode@stage",      # unknown action for the site
        "store:fail@v1",             # action of another site
        "store:truncate_tail@v1",    # retired action
        "worker:delay@stage",        # retired action
        "worker:delay=x@stage",      # no =value grammar
        "worker:kill@stage#0",       # ordinals are 1-based
        "worker:kill",               # no target
    ])
    def test_malformed_plans_fail_loudly(self, plan):
        with pytest.raises(ConfigurationError):
            parse_plan(plan)

    def test_active_plan_tracks_env_changes(self, monkeypatch):
        assert faultinject.active_plan() == ()
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        (clause,) = faultinject.active_plan()
        assert (clause.site, clause.action) == ("solve", "fail")
        monkeypatch.setenv(PLAN_ENV, "worker:kill@stage")
        (clause,) = faultinject.active_plan()
        assert clause.site == "worker"


class TestOrdinals:
    def test_no_ordinal_fires_every_time(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        assert fire("solve", "ipet:crc") is not None
        assert fire("solve", "ipet:crc") is not None

    def test_ordinal_arms_exactly_the_nth_match(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc#2")
        assert fire("solve", "ipet:crc") is None
        assert fire("solve", "ipet:crc") is not None
        assert fire("solve", "ipet:crc") is None

    def test_wildcard_target_matches_anything(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@*")
        assert fire("solve", "whatever") is not None
        assert fire("solve", "something-else") is not None

    def test_non_matching_calls_do_not_advance(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc#1")
        assert fire("solve", "ipet:prime") is None  # other target
        assert fire("worker", "ipet:crc") is None   # other site
        assert fire("solve", "ipet:crc") is not None

    def test_actions_filter_guards_the_counter(self, monkeypatch):
        """A write hook must not consume a read-side clause's
        ordinal: the two store hooks share site/target but declare
        disjoint supported actions."""
        monkeypatch.setenv(PLAN_ENV, "store:read_error@v1#1")
        assert fire("store", "v1", actions=("kill",)) is None
        # The read hook still sees invocation #1.
        assert fire("store", "v1", actions=("read_error",)) is not None

    def test_state_dir_counts_across_simulated_processes(
            self, monkeypatch, tmp_path):
        """With ``REPRO_FAULT_STATE`` the counter lives in a file, so
        clearing the per-process dict (what a fork gives a worker)
        does not reset it."""
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc#3")
        monkeypatch.setenv(STATE_ENV, str(tmp_path))
        assert fire("solve", "ipet:crc") is None
        faultinject._LOCAL_COUNTS.clear()  # a forked child's view
        assert fire("solve", "ipet:crc") is None
        faultinject._LOCAL_COUNTS.clear()
        assert fire("solve", "ipet:crc") is not None
        # One byte per invocation: the count is the file size.
        assert os.path.getsize(tmp_path / "clause-0.count") == 3


class TestHooks:
    def test_solve_fail_is_a_permanent_error(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "solve:fail@ipet:crc")
        with pytest.raises(SolverError, match="injected"):
            solve_hook("ipet:crc")
        solve_hook("ipet:prime")

    def test_unarmed_hooks_are_free_of_side_effects(self):
        worker_hook("cell_stage")
        solve_hook("ipet:crc")
        assert fire("store", "v3", actions=("kill",)) is None
