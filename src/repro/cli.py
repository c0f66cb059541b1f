"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``estimate``   pWCET of one suite benchmark for chosen mechanisms.
``suite``      the Figure 4 survey over all 25 benchmarks.
``curve``      exceedance series (Figure 3) for one benchmark.
``fmm``        print a benchmark's fault miss map (Figure 1.a style).
``tradeoff``   pWCET gain vs hardware cost (the §I trade-off).
``sweep``      (geometry x pfail) design-space sweep, Pareto fronts;
               ``--workers N`` runs the grid's one task DAG on an
               N-wide process pool and streams per-cell progress as
               cells complete.
``cache gc``   remove foreign-schema store directories, drop corrupt
               rows and VACUUM every store database (``--dry-run``
               for a statistics report only).
``list``       list the available benchmarks with size metadata.

Every estimation command runs the task DAG of
:mod:`repro.pipeline.stages` (``estimate``, ``curve`` and ``fmm`` for
one benchmark and exactly their ``--mechanisms``), so all of them
consult the persistent caches — the three
stores (solve, classification, cell) share one directory
(``REPRO_CACHE=off|<path>``, ``--cache``): a warm re-run of any
command performs zero backend ILP solves and zero
abstract-interpretation fixpoints.

Bad input — an out-of-range probability, an unknown benchmark, a
geometry grid with no feasible cache — is reported as one ``error:``
line with exit code 2; argparse checks probabilities and counts before
any work runs.  A stage error (say, a solver failure)
aborts any estimation command with a traceback and a non-zero exit; a
pool worker that dies is replaced and its work resubmitted.  See
README "Pool recovery & chaos testing".
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable

from repro.errors import ConfigurationError, EstimationError
from repro.pwcet import EstimatorConfig
from repro.pwcet.estimator import TARGET_EXCEEDANCE
from repro.suite import EVALUATED_BENCHMARKS, info
from repro.sweep.grid import DEFAULT_LINES, DEFAULT_SIZES, DEFAULT_WAYS
from repro.util.validate import check_probability

_MECHANISM_CHOICES = ("none", "srb", "rw", "srb+")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pfail", type=_probability("pfail"),
                        default=1e-4,
                        help="SRAM cell failure probability "
                             "(default 1e-4, the paper's value)")
    parser.add_argument("--probability",
                        type=_probability("probability", allow_zero=False,
                                          allow_one=False),
                        default=TARGET_EXCEEDANCE,
                        help="target exceedance probability "
                             "(default 1e-15)")
    parser.add_argument("--relaxed", action="store_true",
                        help="solve LP relaxations (sound, faster)")
    parser.add_argument("--cache", default=None, metavar="off|PATH",
                        help="persistent store directory; 'off' "
                             "disables it (default: REPRO_CACHE, "
                             "else the user cache dir)")


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    """``--workers`` for the commands that run the task DAG."""
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="process-pool width of the task DAG "
                             "(default 1: in-process)")


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _probability(name: str, **interval: bool) -> Callable[[str], float]:
    """argparse ``type=`` for a probability; ``interval`` takes
    :func:`~repro.util.validate.check_probability`'s switches."""
    def parse(text: str) -> float:
        try:
            return check_probability(text, name, **interval)
        except ConfigurationError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return parse


def _check_benchmarks(names) -> None:
    for name in names:
        if name not in EVALUATED_BENCHMARKS:
            raise ConfigurationError(f"unknown benchmark {name!r}; "
                                     "see `python -m repro list`")


def _config_from(arguments: argparse.Namespace) -> EstimatorConfig:
    # Single-benchmark commands run in-process and take no --workers.
    return EstimatorConfig(pfail=arguments.pfail,
                           relaxed=arguments.relaxed,
                           workers=getattr(arguments, "workers", 1),
                           cache=arguments.cache)


def _run_benchmark(arguments: argparse.Namespace):
    """The one-benchmark DAG over exactly the requested mechanisms."""
    from repro.experiments import run_suite
    _check_benchmarks((arguments.benchmark,))
    (result,) = run_suite(_config_from(arguments),
                          target_probability=arguments.probability,
                          benchmarks=(arguments.benchmark,),
                          mechanisms=tuple(arguments.mechanisms))
    return result


def _command_estimate(arguments: argparse.Namespace) -> int:
    result = _run_benchmark(arguments)
    print(f"benchmark {arguments.benchmark}: "
          f"fault-free WCET {result.wcet_fault_free} cycles")
    for mechanism in arguments.mechanisms:
        estimate = result.estimates[mechanism]
        try:
            value = estimate.pwcet(arguments.probability)
        except EstimationError as error:
            # A refined analysis may refuse a tail below its excluded mass.
            print(f"  {mechanism:>5s}: unavailable ({error})")
            continue
        print(f"  {mechanism:>5s}: pWCET@{arguments.probability:.0e} "
              f"= {value} cycles")
    return 0


def _command_suite(arguments: argparse.Namespace) -> int:
    from repro.experiments import fig4_rows, format_fig4, run_suite
    results = run_suite(_config_from(arguments),
                        target_probability=arguments.probability)
    print(format_fig4(fig4_rows(results)))
    return 0


def _command_curve(arguments: argparse.Namespace) -> int:
    result = _run_benchmark(arguments)
    for mechanism in arguments.mechanisms:
        # Refolded in full from the row's FMM.
        curve = result.estimates[mechanism].exceedance_curve()
        print(f"# {arguments.benchmark} / {mechanism}")
        for value, probability in curve.rows()[:arguments.max_points]:
            print(f"{value} {probability:.6e}")
    return 0


def _command_fmm(arguments: argparse.Namespace) -> int:
    (estimate,) = _run_benchmark(arguments).estimates.values()
    print(estimate.fmm.format_table())
    return 0


def _command_tradeoff(arguments: argparse.Namespace) -> int:
    from repro.experiments import run_suite
    from repro.hwcost.tradeoff import format_tradeoff, tradeoff_points
    benchmarks = tuple(arguments.benchmark or ("fibcall", "ud", "adpcm"))
    _check_benchmarks(benchmarks)
    results = run_suite(_config_from(arguments),
                        target_probability=arguments.probability,
                        benchmarks=benchmarks)
    print(format_tradeoff(tradeoff_points(results)))
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    from repro.sweep import format_sweep_report, geometry_grid, run_sweep
    benchmarks = tuple(arguments.benchmarks or EVALUATED_BENCHMARKS)
    _check_benchmarks(benchmarks)
    geometries = geometry_grid(sizes=tuple(arguments.sizes),
                               ways=tuple(arguments.ways),
                               lines=tuple(arguments.lines))
    # --pfails defines the grid axis; without it, the shared --pfail
    # value becomes a one-point axis instead of being ignored.
    pfails = (tuple(arguments.pfails) if arguments.pfails is not None
              else (arguments.pfail,))

    def stream_cell(cell, points, completed, total):
        # Streams to stderr as cells finish (completion order under
        # --workers); stdout stays byte-identical to the sequential
        # report, which is always assembled in grid order.
        best = max((point for point in points if point.mechanism != "none"),
                   key=lambda point: point.mean_gain)
        print(f"[{completed:>3d}/{total}] {cell.label}: best gain "
              f"{best.mean_gain:.1%} ({best.mechanism})",
              file=sys.stderr, flush=True)

    # --workers sizes the one pool every task of the grid shares.
    result = run_sweep(geometries,
                       pfails=pfails,
                       benchmarks=benchmarks,
                       config=_config_from(arguments),
                       on_cell=stream_cell,
                       probability=arguments.probability)
    text = format_sweep_report(result)
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(text + "\n")
        print(f"sweep report written to {arguments.output}")
    else:
        print(text)
    return 0


def _command_cache_gc(arguments: argparse.Namespace) -> int:
    from repro.solve.gc import gc_cache
    reports = gc_cache(arguments.cache, dry_run=arguments.dry_run)
    if not reports:
        print("cache gc: nothing to compact (no stores found, or the "
              "cache is disabled)")
        return 0
    for report in reports:
        print(report.format_row())
    total_saved = sum(report.bytes_saved for report in reports)
    verb = "would save" if arguments.dry_run else "saved"
    noun = "directory" if len(reports) == 1 else "directories"
    print(f"cache gc: {verb} {total_saved} bytes across "
          f"{len(reports)} store {noun}")
    total_corrupt = sum(report.corrupt_dropped for report in reports)
    if total_corrupt:
        # Silent store repair made visible: every reader already
        # served these rows as misses; they are (or would be) dropped
        # for good here.
        verb = "would drop" if arguments.dry_run else "dropped"
        print(f"cache gc: {verb} {total_corrupt} corrupt "
              f"row(s) recovered by re-computation")
    return 0


def _command_list(_arguments: argparse.Namespace) -> int:
    print(f"{'benchmark':14s} {'bytes':>7s} {'instrs':>7s}  description")
    for name in EVALUATED_BENCHMARKS:
        metadata = info(name)
        print(f"{name:14s} {metadata.code_bytes:7d} "
              f"{metadata.instruction_count:7d}  {metadata.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-aware probabilistic WCET estimation "
                    "(Hardy, Puaut & Sazeides, DATE 2016)")
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser(
        "estimate", help="pWCET of one benchmark")
    estimate.add_argument("benchmark")
    estimate.add_argument("--mechanisms", nargs="+",
                          choices=_MECHANISM_CHOICES,
                          default=["none", "srb", "rw"])
    _add_config_arguments(estimate)
    estimate.set_defaults(handler=_command_estimate)

    suite = commands.add_parser(
        "suite", help="the Figure 4 survey over all 25 benchmarks")
    _add_config_arguments(suite)
    _add_workers_argument(suite)
    suite.set_defaults(handler=_command_suite)

    curve = commands.add_parser(
        "curve", help="exceedance series (Figure 3) for one benchmark")
    curve.add_argument("benchmark")
    curve.add_argument("--mechanisms", nargs="+",
                       choices=_MECHANISM_CHOICES,
                       default=["none", "srb", "rw"])
    curve.add_argument("--max-points", type=_positive_int, default=50)
    _add_config_arguments(curve)
    curve.set_defaults(handler=_command_curve)

    fmm = commands.add_parser(
        "fmm", help="fault miss map of one benchmark")
    fmm.add_argument("benchmark")
    fmm.add_argument("--mechanisms", nargs=1,
                     choices=_MECHANISM_CHOICES, default=["none"])
    _add_config_arguments(fmm)
    fmm.set_defaults(handler=_command_fmm)

    tradeoff = commands.add_parser(
        "tradeoff", help="pWCET gain vs hardware cost")
    tradeoff.add_argument("benchmark", nargs="*")
    _add_config_arguments(tradeoff)
    tradeoff.set_defaults(handler=_command_tradeoff)

    sweep = commands.add_parser(
        "sweep", help="multi-geometry design-space sweep "
                      "(Pareto fronts of pWCET gain vs hardware cost)")
    sweep.add_argument("--sizes", type=int, nargs="+",
                       default=list(DEFAULT_SIZES),
                       help="cache capacities in bytes")
    sweep.add_argument("--ways", type=int, nargs="+",
                       default=list(DEFAULT_WAYS),
                       help="associativities")
    sweep.add_argument("--lines", type=int, nargs="+",
                       default=list(DEFAULT_LINES),
                       help="line sizes in bytes")
    sweep.add_argument("--pfails", type=_probability("pfail"), nargs="+",
                       default=None,
                       help="cell failure probability axis (cells "
                            "along it reuse every cached solve; "
                            "default: the --pfail value)")
    sweep.add_argument("--benchmarks", nargs="+", default=None,
                       help="suite subset (default: all 25)")
    sweep.add_argument("--output", default=None,
                       help="write the report to a file")
    _add_config_arguments(sweep)
    _add_workers_argument(sweep)
    sweep.set_defaults(handler=_command_sweep)

    cache = commands.add_parser(
        "cache", help="persistent store maintenance")
    cache_commands = cache.add_subparsers(dest="cache_command",
                                          required=True)
    cache_gc = cache_commands.add_parser(
        "gc", help="remove foreign-schema store directories, drop "
                   "corrupt rows and VACUUM every store")
    cache_gc.add_argument("--cache", default=None, metavar="off|PATH",
                          help="cache directory to compact (default: "
                               "REPRO_CACHE, else the user cache "
                               "dir)")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what gc would do without "
                               "touching any store")
    cache_gc.set_defaults(handler=_command_cache_gc)

    listing = commands.add_parser("list", help="available benchmarks")
    listing.set_defaults(handler=_command_list)

    report = commands.add_parser(
        "report", help="full reproduction report (all artefacts)")
    report.add_argument("--output", default=None,
                        help="write the markdown report to a file")
    _add_config_arguments(report)
    _add_workers_argument(report)
    report.set_defaults(handler=_command_report)
    return parser


def _command_report(arguments: argparse.Namespace) -> int:
    from repro.experiments.report import full_report
    text = full_report(_config_from(arguments))
    if arguments.output:
        with open(arguments.output, "w") as handle:
            handle.write(text + "\n")
        print(f"report written to {arguments.output}")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        code = arguments.handler(arguments)
        # Flush inside the try, so a closed pipe is caught below and
        # not at interpreter exit.
        sys.stdout.flush()
        return code
    except ConfigurationError as error:
        # Bad input argparse could not see: report it the way argparse
        # reports its own (one line, exit 2), not as a traceback.
        parser.exit(2, f"{parser.prog}: error: {error}\n")
    except BrokenPipeError:
        # The reader went away (``repro list | head -1``).  Point stdout
        # at devnull so the exit-time flush cannot fail again, and exit
        # 1 with no traceback, as the ``signal`` module docs advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
