"""Figure 4 reproduction: the RW/SRB trade-off over the whole suite.

Runs the 25-benchmark suite through the pipeline and prints the
normalised pWCETs, the four behaviour categories and the average/min
gains the paper quotes (SRB 40% avg / 25% min, RW 48% avg / 26% min).

This is the heaviest example (~10 s: 25 benchmarks x 3 mechanisms,
each involving dozens of integer linear programs).

Run with:  python examples/mechanism_tradeoff.py
"""

from repro.experiments import fig4_rows, format_fig4, run_suite


def main() -> None:
    rows = fig4_rows(run_suite())
    print(format_fig4(rows))

    print("\nreading a stacked bar (matmult, like the paper's example):")
    row = next(r for r in rows if r.name == "matmult")
    print(f"  no protection : 1.000 (reference)")
    print(f"  SRB benefit   : {1 - row.normalized_srb:.3f} "
          "(top stack segment)")
    print(f"  extra RW gain : {row.normalized_srb - row.normalized_rw:.3f} "
          "(middle segment)")
    print(f"  fault-free    : {row.normalized_fault_free:.3f} (bottom)")


if __name__ == "__main__":
    main()
