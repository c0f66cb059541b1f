"""Aggregate ``benchmarks/results/BENCH_*.json`` into one summary.

Each harness module exports a machine-readable ``BENCH_<name>.json``
next to its printed artefact.  This collector folds them into a single
top-level ``BENCH_summary.json`` so the repo's perf trajectory is
machine-readable at a glance (CI uploads it as an artifact; trend
tooling diffs it across commits):

    python benchmarks/collect.py [--results DIR] [--output FILE]

The summary carries every per-harness payload verbatim under its
harness name, plus a ``headline`` section surfacing the cross-harness
numbers that gate acceptance criteria (warm-run zero-work properties,
kernel speedups, store reuse).  Harnesses that have not been run are
simply absent — the collector never fails on missing inputs, so it can
run after any subset of the harnesses.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_OUTPUT = RESULTS_DIR / "BENCH_summary.json"

#: (harness key, payload key) pairs promoted into the headline section
#: when present — the numbers the acceptance criteria and CI job
#: summaries quote.
HEADLINES = (
    ("sweep", "warm_speedup"),
    ("sweep", "warm_ilp_solved"),
    ("geometry_batch", "fixpoint_reduction"),
    ("geometry_batch", "classify_speedup"),
    ("geometry_batch", "warm_fixpoints"),
    ("distribution", "batched_vs_scalar_cell_speedup"),
    ("distribution", "axis_amortised_speedup_vs_scalar"),
    ("incremental", "warm_speedup"),
    ("incremental", "one_edit_speedup"),
    ("analysis", "vector_speedup"),
    ("analysis", "warm_fixpoints"),
    ("solver", "speedup"),
    ("solver", "dedup_hit_rate"),
)


def collect(results_dir: pathlib.Path) -> dict:
    """Read every BENCH_*.json (summary excluded) into one document."""
    harnesses: dict[str, object] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name == "summary":
            continue
        try:
            harnesses[name] = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            # A torn or corrupt export degrades to absence, mirroring
            # the stores' silent-repair discipline — but loudly.
            print(f"collect: skipping {path.name}: {error}",
                  file=sys.stderr)
    headline = {}
    for harness, key in HEADLINES:
        payload = harnesses.get(harness)
        if isinstance(payload, dict) and key in payload:
            headline[f"{harness}.{key}"] = payload[key]
    return {
        "harnesses_collected": sorted(harnesses),
        "headline": headline,
        "results": harnesses,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=RESULTS_DIR,
                        help="directory holding BENCH_*.json exports")
    parser.add_argument("--output", type=pathlib.Path,
                        default=DEFAULT_OUTPUT,
                        help="summary file to write")
    args = parser.parse_args(argv)
    summary = collect(args.results)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"collected {len(summary['harnesses_collected'])} harness "
          f"exports -> {args.output}")
    for key, value in summary["headline"].items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
