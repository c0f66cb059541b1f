"""Multi-geometry sweep service: design-stage pWCET exploration.

Fans the estimation pipeline out over a (cache geometry × pfail) grid
and reports Pareto fronts of pWCET gain versus hardware cost, turning
the single-configuration reproduction into the pre-silicon
exploration tool of the ROADMAP (Lee et al.-style design-space
search).  The failure rate never changes an ILP objective, so the
pfail axis costs no solves: one solve task per (benchmark, line size)
serves every pfail in-process, and one cells task per (benchmark,
geometry) batches the whole pfail axis.  A rerun of the sweep is
served from the persistent stores.

* :mod:`repro.sweep.grid` — geometry/pfail grid construction;
* :mod:`repro.sweep.service` — cell execution and Pareto extraction;
* :mod:`repro.sweep.report` — text rendering for the CLI and the
  benchmark artefacts.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_LINES": ".grid",
    "DEFAULT_PFAILS": ".grid",
    "DEFAULT_SIZES": ".grid",
    "DEFAULT_WAYS": ".grid",
    "SweepCell": ".grid",
    "geometry_grid": ".grid",
    "sweep_cells": ".grid",
    "DesignPoint": ".service",
    "SweepResult": ".service",
    "pareto_front": ".service",
    "run_sweep": ".service",
    "format_pareto_fronts": ".report",
    "format_sweep_report": ".report",
    "format_sweep_table": ".report",
})
