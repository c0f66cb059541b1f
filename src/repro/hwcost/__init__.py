"""Hardware cost model for the reliability mechanisms.

The paper's conclusion lists "an extensive analysis of the impact of
the proposed mechanisms on die area and power consumption" as future
work, and its introduction motivates the two mechanisms as points on a
pWCET/cost trade-off curve.  This package provides the missing cost
side: an analytical SRAM-array model (cell counts, hardened-cell
overhead, leakage) and a combined cost/benefit report.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CellTechnology": ".model",
    "HardwareCost": ".model",
    "MechanismCostModel": ".model",
    "TradeoffPoint": ".tradeoff",
    "tradeoff_points": ".tradeoff",
})
