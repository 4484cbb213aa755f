"""Version-generation substrate: the fault creation process itself (Section 2.2).

"Developing versions for a given application under a regime of separate
development means choosing, randomly and independently, possible subsets of
this set of possible faults."  This subpackage simulates exactly that:

* :class:`~repro.versions.version.DevelopedVersion` -- a concrete version,
  i.e. a subset of the potential faults, with its PFD;
* :class:`~repro.versions.generation.IndependentDevelopmentProcess` -- the
  paper's baseline process: every fault is introduced independently with
  probability ``p_i``;
* :class:`~repro.versions.correlated.CommonCauseDevelopmentProcess` and
  :class:`~repro.versions.correlated.CopulaDevelopmentProcess` -- relaxations
  of the independence assumption used for the Section 6.1 sensitivity study;
* :class:`~repro.versions.forced_diversity.ForcedDiversityPair` -- two
  channels developed by *different* processes (different ``p`` vectors over
  the same fault population), the "forced diversity" scenario the paper treats
  as out of scope but motivates studying.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.versions.correlated": (
        "CommonCauseDevelopmentProcess", "CopulaDevelopmentProcess",
    ),
    "repro.versions.forced_diversity": ("ForcedDiversityPair",),
    "repro.versions.generation": ("DevelopmentProcess", "IndependentDevelopmentProcess"),
    "repro.versions.version": ("DevelopedVersion", "VersionPair"),
})
