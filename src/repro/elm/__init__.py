"""Eckhardt-Lee and Littlewood-Miller baseline models.

The paper positions the fault-creation model against the two classic
conceptual models of coincident failure in multi-version software, which it
calls the "EL" and "LM" models:

* **Eckhardt & Lee (1985)** -- versions are sampled independently from a
  population; each demand ``x`` has a *difficulty* ``theta(x)``, the
  probability that a randomly developed version fails on ``x``.  The mean PFD
  of a single version is ``E[theta(X)]`` and of an (independent-development)
  two-version system ``E[theta(X)^2] >= (E[theta(X)])^2`` -- the celebrated
  result that independent development does not imply independent failure.
* **Littlewood & Miller (1989)** -- the two channels may be developed by
  *different* methodologies with difficulty functions ``theta_A`` and
  ``theta_B``; the system mean becomes ``E[theta_A(X) theta_B(X)]``, which can
  be *smaller* than the product of the means when the difficulties are
  negatively correlated over the demand space (the formal argument for forced
  diversity).

The fault-creation model refines these by describing *how* the difficulty
function arises from the population of potential faults; the
:mod:`~repro.elm.comparison` module builds that bridge explicitly.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.elm.comparison": ("difficulty_from_fault_model",),
    "repro.elm.difficulty": ("DifficultyFunction",),
    "repro.elm.eckhardt_lee": ("EckhardtLeeModel",),
    "repro.elm.littlewood_miller": ("LittlewoodMillerModel",),
})
