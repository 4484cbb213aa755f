"""Demand-space substrate (Section 2.1 and Fig. 2 of the paper).

The paper models the operation of a protection system as a series of *demands*
drawn from a *demand space*; a design fault corresponds to a *failure region*,
a subset of the demand space on which the version fails; the fault's
contribution ``q_i`` to unreliability is the probability, under the
operational profile, that a demand falls inside its failure region.

This subpackage provides concrete demand spaces, geometric failure regions of
the kinds reported in the literature the paper cites (boxes, balls, arrays of
isolated points, unions of such shapes), operational profiles over those
spaces, and the machinery to compute or estimate ``q_i`` as the profile measure
of a region.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.demandspace.measure": ("estimate_region_probability", "region_probability"),
    "repro.demandspace.profiles": (
        "EmpiricalProfile", "GridProfile", "MixtureProfile", "OperationalProfile",
        "ProductProfile", "TruncatedNormalMarginal", "UniformMarginal",
    ),
    "repro.demandspace.regions": (
        "BallRegion", "BoxRegion", "EmptyRegion", "FailureRegion", "HalfSpaceRegion",
        "PointSetRegion", "UnionRegion",
    ),
    "repro.demandspace.space": (
        "ContinuousDemandSpace", "DemandSpace", "DiscreteDemandSpace",
    ),
})
