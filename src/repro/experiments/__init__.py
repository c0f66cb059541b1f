"""Experiment drivers regenerating the paper's figures and statistics.

One module per evaluation artefact, plus the report that gathers them
(Figures 3 and 4 format results of
:func:`~repro.experiments.runner.run_suite`):

* :mod:`repro.experiments.fig1` — the FMM / convolution walkthrough;
* :mod:`repro.experiments.fig3` — adpcm exceedance curves;
* :mod:`repro.experiments.fig4` — the 25-benchmark survey, category
  classification and gain statistics;
* :mod:`repro.experiments.report` — all of them plus the extension
  tables, as the one document ``repro report`` prints
  (``tests/golden/report.txt``).

The geometry and pfail sensitivity studies are what ``repro sweep``
computes over its ``--sizes``, ``--ways``, ``--lines`` and ``--pfails``
axes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "BenchmarkResult": ".runner",
    "run_suite": ".runner",
    "exceedance_curves": ".fig3",
    "format_fig3": ".fig3",
    "Category": ".fig4",
    "Fig4Row": ".fig4",
    "GainSummary": ".fig4",
    "classify_category": ".fig4",
    "fig4_rows": ".fig4",
    "format_fig4": ".fig4",
    "gain_summary": ".fig4",
})
