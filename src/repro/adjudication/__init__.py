"""Adjudication and redundant-architecture substrate (Fig. 1 of the paper).

The paper studies the simplest diverse-redundant configuration: two versions
with perfect adjudication ("simple OR combination of binary outputs, giving a
1-out-of-2 diverse system"), the classic dual-channel plant-protection
arrangement of Fig. 1.  This subpackage provides that adjudicator, its natural
generalisations (1-out-of-N, M-out-of-N majority voting), and an N-version
system simulator that runs developed versions demand-by-demand against an
operational profile.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.adjudication.adjudicators": (
        "Adjudicator", "MOutOfNAdjudicator", "OneOutOfNAdjudicator", "UnanimityAdjudicator",
    ),
    "repro.adjudication.architectures": ("DemandSimulationResult", "NVersionSystem"),
})
