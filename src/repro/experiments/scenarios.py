"""Canonical scenarios shared by the examples, tests and benchmark harness.

Three scenarios cover the regimes the paper distinguishes, plus the
failure-region layout of Fig. 2:

* :func:`high_quality_scenario` -- Section 4's regime: few potential faults,
  all with small introduction probability, where the question is the
  probability of *no* common fault;
* :func:`many_small_faults_scenario` -- Section 5's regime: many potential
  faults with small individual impact, where the normal approximation and its
  confidence bounds apply;
* :func:`protection_system_scenario` -- the Fig. 1 dual-channel plant
  protection system with an explicit two-dimensional demand space, operational
  profile and failure-region geometry (used by the architecture simulation and
  the Fig. 2 reproduction);
* :func:`fig2_failure_regions` -- the Fig. 2 layout on its own: a handful of
  simple-shaped regions plus a non-connected array of failure points.

numpy and the model code load when a scenario is built, not when this module
is imported: listing the scenario names (the CLI parser's ``--scenario``
choices) loads neither.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.stats.rng import ensure_rng

if TYPE_CHECKING:
    import numpy as np

    from repro.core.fault_model import FaultModel
    from repro.demandspace.profiles import OperationalProfile
    from repro.demandspace.regions import FailureRegion
    from repro.demandspace.space import ContinuousDemandSpace

__all__ = [
    "ProtectionSystemScenario",
    "ScenarioEntry",
    "SCENARIOS",
    "fig2_failure_regions",
    "get_scenario",
    "high_quality_scenario",
    "many_small_faults_scenario",
    "protection_system_model",
    "protection_system_scenario",
    "scenario_names",
]


def high_quality_scenario() -> FaultModel:
    """Section 4 regime: very high-quality software with a handful of unlikely faults.

    Five potential faults with introduction probabilities between 0.5% and 5%
    and small failure regions; the expected number of faults per version is
    about 0.12, so versions are usually fault-free.
    """
    import numpy as np

    from repro.core.fault_model import FaultModel

    return FaultModel(
        p=np.array([0.05, 0.03, 0.02, 0.01, 0.005]),
        q=np.array([1e-4, 5e-5, 2e-4, 1e-5, 5e-4]),
        names=(
            "trip-threshold off by one",
            "unit conversion error",
            "missed sensor-saturation case",
            "race on mode switch",
            "stale-input timeout mishandled",
        ),
    )


def many_small_faults_scenario(
    n: int = 200, rng: int | np.random.Generator | None = 7
) -> FaultModel:
    """Section 5 regime: very many possible faults, each with small probability and impact.

    Fault probabilities are log-uniform in ``[0.002, 0.08]`` and failure-region
    probabilities are a Dirichlet split of a total impact of 0.3, generated
    reproducibly from the given seed.
    """
    from repro.core.fault_model import FaultModel

    generator = ensure_rng(rng)
    return FaultModel.random(
        generator,
        n=n,
        p_range=(0.002, 0.08),
        total_impact=0.3,
        impact_dispersion=0.7,
    )


def fig2_failure_regions(space: ContinuousDemandSpace | None = None) -> list[FailureRegion]:
    """The Fig. 2-style failure-region layout over a two-variable demand space.

    Five regions, mirroring the figure's five numbered shapes and the
    literature's observations quoted alongside it: two compact blobs, one thin
    stripe, one box near a corner, and one non-connected array of isolated
    failure points.
    """
    import numpy as np

    from repro.demandspace.regions import BallRegion, BoxRegion, PointSetRegion
    from repro.demandspace.space import ContinuousDemandSpace

    space = space or ContinuousDemandSpace.unit_square()
    if space.dimension != 2:
        raise ValueError("the Fig. 2 layout needs a two-dimensional demand space")
    low, width = space.lower, space.widths

    def scale(point: tuple[float, float]) -> np.ndarray:
        return low + np.asarray(point) * width

    point_array = np.stack([scale((0.1 + 0.05 * i, 0.85)) for i in range(8)])
    return [
        BallRegion(center=scale((0.25, 0.3)), radius=0.06 * float(width.min())),
        BallRegion(center=scale((0.7, 0.65)), radius=0.09 * float(width.min())),
        BoxRegion(lower=scale((0.45, 0.05)), upper=scale((0.5, 0.95))),
        BoxRegion(lower=scale((0.8, 0.05)), upper=scale((0.95, 0.2))),
        PointSetRegion(points=point_array, tolerance=0.004 * float(width.min())),
    ]


@dataclass(frozen=True)
class ProtectionSystemScenario:
    """A complete Fig. 1 scenario: demand space, profile, regions and fault model."""

    space: ContinuousDemandSpace
    profile: OperationalProfile
    regions: tuple[FailureRegion, ...]
    model: FaultModel

    @property
    def n(self) -> int:
        """Number of potential faults."""
        return self.model.n


def protection_system_scenario(
    rng: int | np.random.Generator | None = 11,
) -> ProtectionSystemScenario:
    """Build the canonical dual-channel plant-protection scenario.

    The demand space has two sensed plant variables (pressure in bar and
    temperature in Celsius).  Demands cluster around two upset classes (a
    pressure excursion and a temperature excursion) modelled as a mixture of
    truncated-normal product profiles.  Six potential faults have failure
    regions of the shapes discussed with Fig. 2; their ``q_i`` are computed by
    Monte Carlo against the profile, so the resulting fault model is consistent
    with the geometry by construction.
    """
    import numpy as np

    from repro.core.fault_model import FaultModel
    from repro.demandspace.profiles import (
        MixtureProfile,
        ProductProfile,
        TruncatedNormalMarginal,
        UniformMarginal,
    )
    from repro.demandspace.regions import BallRegion, BoxRegion, PointSetRegion, UnionRegion
    from repro.demandspace.space import ContinuousDemandSpace

    generator = ensure_rng(rng)
    space = ContinuousDemandSpace(
        lower=np.array([40.0, 200.0]),
        upper=np.array([220.0, 520.0]),
        names=("pressure_bar", "temperature_c"),
    )
    pressure_upset = ProductProfile(
        space,
        [
            TruncatedNormalMarginal(mean=170.0, std=18.0, lower=40.0, upper=220.0),
            TruncatedNormalMarginal(mean=330.0, std=40.0, lower=200.0, upper=520.0),
        ],
    )
    temperature_upset = ProductProfile(
        space,
        [
            TruncatedNormalMarginal(mean=120.0, std=25.0, lower=40.0, upper=220.0),
            TruncatedNormalMarginal(mean=450.0, std=28.0, lower=200.0, upper=520.0),
        ],
    )
    background = ProductProfile(
        space,
        [UniformMarginal(40.0, 220.0), UniformMarginal(200.0, 520.0)],
    )
    profile = MixtureProfile(
        components=[pressure_upset, temperature_upset, background],
        weights=[0.55, 0.35, 0.10],
    )
    regions: list[FailureRegion] = [
        # Mis-set high-pressure trip threshold: fails on a band just above the
        # correct set point.
        BoxRegion(lower=np.array([185.0, 200.0]), upper=np.array([197.0, 520.0])),
        # Temperature compensation bug near the upper temperature range.
        BoxRegion(lower=np.array([40.0, 470.0]), upper=np.array([220.0, 492.0])),
        # Sensor-saturation corner case: both variables near their maxima.
        BoxRegion(lower=np.array([205.0, 495.0]), upper=np.array([220.0, 520.0])),
        # Numerical instability blob around a particular operating point.
        BallRegion(center=np.array([150.0, 430.0]), radius=12.0),
        # Mode-switch race: a thin stripe in pressure.
        BoxRegion(lower=np.array([99.0, 200.0]), upper=np.array([101.5, 520.0])),
        # Table-interpolation error: a non-connected array of isolated points.
        UnionRegion(
            [
                PointSetRegion(
                    points=np.array([[60.0 + 15.0 * i, 260.0 + 20.0 * i] for i in range(6)]),
                    tolerance=1.5,
                )
            ]
        ),
    ]
    probabilities = [0.04, 0.03, 0.02, 0.015, 0.01, 0.025]
    names = (
        "mis-set pressure trip",
        "temperature compensation bug",
        "sensor saturation corner case",
        "numerical instability",
        "mode-switch race",
        "interpolation table error",
    )
    model = FaultModel.from_regions(
        probabilities=probabilities,
        regions=regions,
        profile=profile,
        rng=generator,
        sample_size=60_000,
        names=names,
    )
    return ProtectionSystemScenario(
        space=space, profile=profile, regions=tuple(regions), model=model
    )


def protection_system_model(rng: int | np.random.Generator | None = 11) -> FaultModel:
    """The plain :class:`FaultModel` view of :func:`protection_system_scenario`.

    This is the registry-facing entry point: callers that only need the
    ``(p_i, q_i)`` parameters (the CLI, the study runner) get the fault model
    without handling the full geometry bundle.
    """
    return protection_system_scenario(rng).model


# --------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def factory_signature(factory: Callable) -> inspect.Signature:
    """Memoised :func:`inspect.signature` (called per point when planning studies)."""
    return inspect.signature(factory)


@dataclass(frozen=True)
class ScenarioEntry:
    """A named, documented scenario addressable from the CLI and study specs.

    ``factory`` returns the scenario's :class:`FaultModel`; keyword arguments
    it declares (e.g. ``n`` or ``rng``) may be overridden through
    :func:`get_scenario`.
    """

    name: str
    description: str
    factory: Callable[..., FaultModel]

    def parameters(self) -> tuple[str, ...]:
        """Names of the keyword arguments the factory accepts."""
        return tuple(factory_signature(self.factory).parameters)


#: Built-in scenarios, shared by ``repro assess``/``simulate``/``study``,
#: ``repro scenarios``, the benchmark harness and the examples.
SCENARIOS: dict[str, ScenarioEntry] = {
    "high-quality": ScenarioEntry(
        name="high-quality",
        description="Section 4 regime: five unlikely faults, versions usually fault-free",
        factory=high_quality_scenario,
    ),
    "many-small-faults": ScenarioEntry(
        name="many-small-faults",
        description="Section 5 regime: n log-uniform faults with small individual impact",
        factory=many_small_faults_scenario,
    ),
    "protection-system": ScenarioEntry(
        name="protection-system",
        description="Fig. 1 dual-channel plant protection system (fault-model view)",
        factory=protection_system_model,
    ),
}


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str, **overrides) -> FaultModel:
    """Build the named scenario's fault model, applying factory overrides.

    ``overrides`` must be keyword arguments declared by the scenario's
    factory (e.g. ``n=500`` for ``many-small-faults``); anything else raises
    ``ValueError`` naming the accepted parameters, so study specs fail loudly
    on axes the scenario cannot interpret.
    """
    try:
        entry = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        ) from None
    accepted = entry.parameters()
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise ValueError(
            f"scenario {name!r} does not accept parameter(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(accepted) or '(none)'}"
        )
    return entry.factory(**overrides)
