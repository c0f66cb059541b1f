"""The cell store's rows (schema v6) and what warm runs read from them.

A row holds the fault-free WCET, the FMM rows, the exceedance
correction and the pWCET at the writing run's probability — no pmf.
Decoded rows recompute their distribution from the FMM on first use,
bit-identically; reads at another probability recompute instead of
missing; rows of older schemas are never served and ``repro cache gc``
deletes them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import replace

import numpy as np

from repro.experiments.fig3 import FIG3_MECHANISMS, exceedance_curves, \
    format_fig3
from repro.experiments.runner import run_suite
from repro.pipeline.cellstore import (CELL_SCHEMA_VERSION, cell_key,
                                      decode_cell, encode_cell)
from repro.pipeline.scheduler import PipelineStats
from repro.pwcet import EstimatorConfig, PWCETEstimator
from repro.solve.gc import gc_cache
from repro.solve.store import DB_NAME, SqliteStore, store_context
from repro.suite import load
from repro.sweep import run_sweep

SUBSET = ("bs", "fibcall")
MECHANISMS = ("none", "srb", "rw")
#: The quantile every comparison reads (the paper's target).
TARGET = 1e-15


class TestCellRows:
    """Since schema v4, a cell row is canonical JSON of the WCET, the
    FMM rows, the exceedance correction and the pWCET at the writing
    run's probability — no pmf.  Since schema v6 :func:`encode_cell`
    returns the plain JSON and the shared store deflates it."""

    def _cell_value(self):
        config = EstimatorConfig()
        (result,) = run_suite(config, benchmarks=("fibcall",))
        estimate = result.estimates["srb"]
        return config, estimate, encode_cell(estimate)

    @staticmethod
    def _row(value):
        return json.loads(value)

    @staticmethod
    def _blob(row):
        """A cell encoded from an explicit document (for corrupting)."""
        return json.dumps(row).encode()

    def test_roundtrip_is_bitwise(self):
        config, estimate, value = self._cell_value()
        row = self._row(value)
        assert "pmf" not in row and row["pwcet"] == estimate.pwcet(TARGET)
        assert row["probability"] == TARGET
        decoded = decode_cell(value, name="fibcall", mechanism="srb",
                              config=config, pfail=config.pfail)
        assert decoded is not None
        assert decoded == estimate
        assert decoded.fmm.rows == estimate.fmm.rows
        assert decoded.known_pwcet == (TARGET, estimate.pwcet(TARGET))
        # The distribution is recomputed from the FMM on first use, bit
        # for bit what the estimator computes in-process.
        assert decoded.distribution is None
        computed = PWCETEstimator(load("fibcall"),
                                  replace(config, cache="off"),
                                  name="fibcall").estimate("srb")
        pmf = computed.penalty_misses.pmf
        assert decoded.penalty_misses.pmf.tobytes() == pmf.tobytes()
        assert decoded.penalty_misses.ccdf().tobytes() == \
            computed.penalty_misses.ccdf().tobytes()
        for probability in (1e-3, 1e-9, TARGET):
            assert decoded.pwcet(probability) == computed.pwcet(probability)

    def test_pwcet_is_a_python_int(self, tmp_path):
        """Computed and decoded rows carry a Python ``int`` pWCET:
        ``statistics.mean`` returns the type of its data, so a numpy
        integer would truncate the sweep's mean-pWCET column."""
        config = EstimatorConfig(cache=str(tmp_path))
        (computed,) = run_suite(config, benchmarks=("fibcall",))
        stats = PipelineStats()
        (decoded,) = run_suite(config, benchmarks=("fibcall",),
                               pipeline_stats=stats)
        assert stats.counters["cells_from_store"] == 3
        for result in (computed, decoded):
            for mechanism in MECHANISMS:
                known = result.estimates[mechanism].known_pwcet
                assert known[0] == TARGET and type(known[1]) is int

    def test_malformed_entries_degrade_to_none(self):
        config, estimate, value = self._cell_value()
        row = self._row(value)
        assert decode_cell(self._blob(row), name="fibcall",
                           mechanism="srb", config=config,
                           pfail=config.pfail) is not None
        fmm = row["fmm"]
        # A schema-v3 row: JSON header line, then binary pmf parts.
        v3_row = (b'{"mechanism":"srb","width":1,"points":1}\n'
                  + np.ones(1, "<f8").tobytes()
                  + zlib.compress(np.zeros(1, "<i8").tobytes()))
        corruptions = [
            self._blob({**row, "mechanism": "rw"}),          # foreign
            self._blob({**row, "fmm": fmm[:-1]}),            # set count
            self._blob({**row, "fmm": [r[:-1] for r in fmm[:1]]
                        + fmm[1:]}),                         # ragged
            self._blob({**row, "fmm": [[1] + r[1:] for r in fmm]}),
            self._blob({**row, "fmm": [[float(c) for c in r]
                                       for r in fmm]}),
            self._blob({**row, "wcet": str(row["wcet"])}),
            self._blob({**row, "pwcet": 1.5}),
            self._blob({key: item for key, item in row.items()
                        if key != "correction"}),
            self._blob([row]),
            v3_row,
            zlib.compress(v3_row),
            zlib.compress(value),                            # v5 row
            value[:-5],                                      # torn
            b"not a cell",
            None,
        ]
        for corrupt in corruptions:
            assert decode_cell(corrupt, name="fibcall", mechanism="srb",
                               config=config,
                               pfail=config.pfail) is None


class TestWarmRows:
    def test_warm_figure3_is_bit_identical(self, tmp_path):
        """A warm estimate recomputes its pmf from the stored FMM: the
        pmf, its ccdf and the Figure 3 curves match a cold run's and
        the in-process estimator's bit for bit."""
        config = EstimatorConfig(cache=str(tmp_path))
        (cold,) = run_suite(config, benchmarks=("adpcm",))
        cold_curves = exceedance_curves(cold)
        cold_text = format_fig3(cold)
        stats = PipelineStats()
        (warm,) = run_suite(config, benchmarks=("adpcm",),
                            pipeline_stats=stats)
        assert stats.counters["cells_from_store"] == 3
        assert stats.counters["cells_computed"] == 0
        # Serving the pWCETs built no distribution.
        assert all(warm.estimates[mechanism].distribution is None
                   for mechanism in MECHANISMS)
        warm_curves = exceedance_curves(warm)
        assert format_fig3(warm) == cold_text
        estimator = PWCETEstimator(load("adpcm"),
                                   replace(config, cache="off"),
                                   name="adpcm")
        for mechanism in FIG3_MECHANISMS:
            computed = estimator.estimate(mechanism)
            lazy = warm.estimates[mechanism].penalty_misses
            assert lazy.pmf.tobytes() == \
                computed.penalty_misses.pmf.tobytes()
            assert lazy.ccdf().tobytes() == \
                computed.penalty_misses.ccdf().tobytes()
            for curves in (cold_curves, warm_curves):
                curve = curves[mechanism]
                reference = computed.exceedance_curve()
                assert curve.values.tobytes() == reference.values.tobytes()
                assert curve.probabilities.tobytes() == \
                    reference.probabilities.tobytes()

    def test_relaxed_rows_never_serve_an_exact_run(self, tmp_path):
        """The solver mode is part of a cell's address: after a
        ``--relaxed`` run, an exact run on the same cache prints the
        ``--cache off`` rows, not the relaxed run's looser ones."""
        config = EstimatorConfig(cache=str(tmp_path))
        (relaxed,) = run_suite(replace(config, relaxed=True),
                               benchmarks=("qurt",))
        stats = PipelineStats()
        (exact,) = run_suite(config, benchmarks=("qurt",),
                             pipeline_stats=stats)
        (cold,) = run_suite(replace(config, cache="off"),
                            benchmarks=("qurt",))
        assert stats.counters["cells_from_store"] == 0
        assert any(relaxed.pwcet(mechanism) != cold.pwcet(mechanism)
                   for mechanism in MECHANISMS)
        assert all(exact.pwcet(mechanism) == cold.pwcet(mechanism)
                   for mechanism in MECHANISMS)

    def test_read_at_another_probability_matches_a_cold_run(self,
                                                             tmp_path):
        """Rows hold the pWCET at 1e-15; a 1e-9 run is served from the
        same rows, its pWCETs recomputed from their FMMs."""
        config = EstimatorConfig(cache=str(tmp_path))
        probability = 1e-9
        run_suite(config, benchmarks=SUBSET)
        cold_config = replace(config, cache="off")
        stats = PipelineStats()
        warm = run_suite(config, benchmarks=SUBSET,
                         target_probability=probability,
                         pipeline_stats=stats)
        cold = run_suite(cold_config, benchmarks=SUBSET,
                         target_probability=probability)
        assert stats.counters["cells_from_store"] == 3 * len(SUBSET)
        assert stats.counters["cells_computed"] == 0
        pairs = [(warm_result.estimates[mechanism],
                  cold_result.estimates[mechanism])
                 for warm_result, cold_result in zip(warm, cold)
                 for mechanism in MECHANISMS]
        assert all(warm_row.pwcet(probability) == cold_row.pwcet(probability)
                   for warm_row, cold_row in pairs)
        # The stored 1e-15 pWCETs are not what this run read.
        assert any(warm_row.pwcet(probability) != warm_row.pwcet(TARGET)
                   for warm_row, _ in pairs)
        sweep_stats = PipelineStats()
        warm_sweep = run_sweep((config.geometry,), benchmarks=SUBSET,
                               config=config, probability=probability,
                               pipeline_stats=sweep_stats)
        cold_sweep = run_sweep((config.geometry,), benchmarks=SUBSET,
                               config=cold_config, probability=probability)
        assert sweep_stats.counters["cells_from_store"] == 3 * len(SUBSET)
        assert warm_sweep.points == cold_sweep.points

    def test_gc_deletes_leftover_v3_cells_never_served(self, tmp_path):
        """A ``cells-v3/`` store left by an older release is never
        read — even a row under a current address — and gc deletes
        it."""
        config = EstimatorConfig(cache=str(tmp_path))
        (cold,) = run_suite(replace(config, cache="off"),
                            benchmarks=("fibcall",))
        context = store_context(load("fibcall").cfg.digest(),
                                config.geometry, config.timing)
        leftover = SqliteStore(tmp_path, "cells-v3")
        for mechanism in MECHANISMS:
            # Poisoned: decodes fine, but claims a pWCET of 1 cycle.
            poisoned = replace(cold.estimates[mechanism],
                               known_pwcet=(TARGET, 1))
            leftover._put("cell", cell_key(context, mechanism,
                                           config.pfail, False),
                          encode_cell(poisoned))
        leftover.close()
        stats = PipelineStats()
        (warm,) = run_suite(config, benchmarks=("fibcall",),
                            pipeline_stats=stats)
        assert stats.counters["cells_from_store"] == 0
        assert all(warm.pwcet(mechanism) == cold.pwcet(mechanism)
                   for mechanism in MECHANISMS)
        reports = gc_cache(str(tmp_path))
        (removed,) = [report for report in reports if report.removed]
        assert removed.directory == str(tmp_path / "cells-v3")
        assert not (tmp_path / "cells-v3").exists()
        assert (tmp_path / f"cells-v{CELL_SCHEMA_VERSION}"
                / DB_NAME).is_file()
