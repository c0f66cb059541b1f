"""BENCH-GEOMETRY-BATCH — the stacked classification kernel.

Measures the tentpole property of the geometry-batched engine: a cold
sweep over the **full default 16-geometry grid** runs ONE stacked
Must/May fixpoint pair per (benchmark, line size) — ≥ 8× fewer
fixpoints than the per-geometry ``vector`` oracle (16 geometries fall
into 2 line-size groups) — while the sweep report stays byte-identical
and the cold classify stage finishes ≥ 2× faster in wall clock.
Exports the machine-readable ``BENCH_geometry_batch.json`` under
``benchmarks/results/``.

The harness owns private store directories under
``benchmarks/.solvecache/`` (gitignored) and wipes them before each
cold pass — the controlled cold start is the point of the measurement.
"""

import json
import os
import pathlib
import shutil
import time

from repro.analysis import CacheAnalysis
from repro.analysis.classify import ENGINE_ENV
from repro.analysis.geometry_batch import grouped_analysis
from repro.pipeline.stages import (SUITE_MECHANISMS, line_groups,
                                   required_classifications)
from repro.pwcet import EstimatorConfig
from repro.suite import load
from repro.sweep import format_sweep_report, geometry_grid, run_sweep

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
CACHE_ROOT = pathlib.Path(__file__).parent / ".solvecache" / "bench_geometry"

#: One benchmark per Figure-4 behaviour category (the full 25-benchmark
#: axis is the CLI's job); the *geometry* axis is the full default grid
#: — that axis is what this harness measures.
SUBSET = ("nsichneu", "fibcall", "ud", "adpcm")


def _classify_everything(cfg, groups, engine):
    """One benchmark's whole cold classification work, grid-wide."""
    for group in groups:
        if engine == "batch":
            grouped_analysis(cfg, group, SUITE_MECHANISMS, cache="off")
            continue
        for geometry in group:
            analysis = CacheAnalysis(cfg, geometry, cache="off",
                                     engine=engine)
            assocs, needs_srb = required_classifications(
                SUITE_MECHANISMS, geometry.ways)
            for assoc in assocs:
                analysis.classification(assoc)
            if needs_srb:
                analysis.srb_always_hits()


def _classify_stage_seconds(cfgs, groups, engine):
    start = time.perf_counter()
    for cfg in cfgs:
        _classify_everything(cfg, groups, engine)
    return time.perf_counter() - start


def _cold_sweep(geometries, engine):
    cache = CACHE_ROOT / engine
    shutil.rmtree(cache, ignore_errors=True)
    previous = os.environ.get(ENGINE_ENV)
    os.environ[ENGINE_ENV] = engine
    try:
        result = run_sweep(geometries, benchmarks=SUBSET,
                           config=EstimatorConfig(cache=str(cache)))
    finally:
        if previous is None:
            os.environ.pop(ENGINE_ENV, None)
        else:
            os.environ[ENGINE_ENV] = previous
    return result


def test_geometry_batched_classification(benchmark, emit):
    geometries = geometry_grid()
    groups = line_groups(geometries)
    assert len(geometries) == 16 and len(groups) == 2

    # --- classify-stage wall clock, isolated from solver/convolution.
    # Pre-warm the per-(CFG, line size) block-stream memo so both
    # engines time the same post-memo work, then take the best of
    # three rounds each to damp scheduler noise.
    cfgs = [load(name).cfg for name in SUBSET]
    for engine in ("vector", "batch"):
        _classify_stage_seconds(cfgs, groups, engine)
    vector_seconds = min(_classify_stage_seconds(cfgs, groups, "vector")
                         for _ in range(3))
    benchmark.pedantic(_classify_stage_seconds,
                       args=(cfgs, groups, "batch"),
                       rounds=3, iterations=1)
    batch_seconds = min(benchmark.stats.stats.data)

    # --- full cold sweeps under both engines: fixpoint budget and
    # byte-identity of the report.
    batched = _cold_sweep(geometries, "batch")
    vector = _cold_sweep(geometries, "vector")
    batch_fixpoints = int(batched.solver_totals["fixpoints_run"])
    vector_fixpoints = int(vector.solver_totals["fixpoints_run"])
    assert format_sweep_report(batched) == format_sweep_report(vector)
    # <= 1 stacked pair (+ 1 shared SRB) per (benchmark, line size).
    assert batch_fixpoints <= len(SUBSET) * len(groups) * 3
    assert vector_fixpoints >= 8 * batch_fixpoints

    # Warm rerun of the batched store: still zero fixpoints and ILPs.
    previous = os.environ.get(ENGINE_ENV)
    os.environ.pop(ENGINE_ENV, None)
    try:
        rewarm = run_sweep(geometries, benchmarks=SUBSET,
                           config=EstimatorConfig(
                               cache=str(CACHE_ROOT / "batch")))
    finally:
        if previous is not None:
            os.environ[ENGINE_ENV] = previous
    assert rewarm.solver_totals["fixpoints_run"] == 0
    assert rewarm.solver_totals["ilp_solved"] == 0
    # Every reported number matches the cold run exactly (the summary
    # footer differs by design: the warm run reports its store reuse).
    assert rewarm.points == batched.points

    payload = {
        "benchmarks": list(SUBSET),
        "grid_geometries": len(geometries),
        "line_size_groups": len(groups),
        "classify_vector_seconds": vector_seconds,
        "classify_batch_seconds": batch_seconds,
        "classify_speedup": vector_seconds / batch_seconds,
        "cold_fixpoints_vector": vector_fixpoints,
        "cold_fixpoints_batch": batch_fixpoints,
        "fixpoint_reduction": vector_fixpoints / batch_fixpoints,
        "classify_batched_rows":
            int(batched.solver_totals["classify_batched_rows"]),
        "geometry_group_runs":
            int(batched.solver_totals["geometry_groups"]),
        "warm_fixpoints": int(rewarm.solver_totals["fixpoints_run"]),
        "warm_ilp_solved": int(rewarm.solver_totals["ilp_solved"]),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_geometry_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("geometry_batch_kernel", json.dumps(payload, indent=2))
    assert payload["fixpoint_reduction"] >= 8
    assert payload["classify_speedup"] >= 2
