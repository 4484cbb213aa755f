"""Monte Carlo substrate.

Simulation of the fault creation process end to end, used to validate every
analytic result of the core model (and to evaluate the model once the paper's
assumptions -- independence, non-overlap -- are relaxed, where no closed form
exists).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.montecarlo.engine": ("MonteCarloEngine",),
    "repro.montecarlo.results": ("PairSimulationResult", "SimulationResult"),
    "repro.montecarlo.streaming": ("StreamingSimulationResult",),
    "repro.montecarlo.sweep": ("SweepPointResult", "simulate_scaled_sweep"),
})
