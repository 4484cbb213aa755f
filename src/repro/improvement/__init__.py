"""Process-improvement mechanisms acting on the fault model.

Section 4.2 of the paper studies process improvement abstractly, as changes to
the ``p_i`` parameters; Section 4.2.3 notes that "a similar observation on the
effect of fault removal on the reliability gain given by fault tolerance has
been reported in [13]" (Djambazov & Popov, ISSRE'95: the effects of testing on
the reliability of single-version and 1-out-of-2 software).  This subpackage
provides a concrete mechanism of that kind:

* :mod:`~repro.improvement.testing` -- a pre-release testing campaign that
  detects faults with a probability depending on their failure-region size
  ``q_i`` (faults that fail often are found first), removing detected faults
  and thereby transforming the model's ``p_i``.  Because the transformation is
  *not* proportional, it realises exactly the situation of Appendix A where a
  process improvement can reduce the gain from diversity.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.improvement.testing": ("TestingCampaign", "TestingTrajectory"),
})
