"""The fault-creation model parameters (Section 2.2 of the paper).

The model is fully specified by a collection of *potential faults*
``{F_1 .. F_n}``, each characterised by two numbers:

* ``p_i`` -- the probability that the fault is actually produced (and not
  removed) in a newly, independently developed version;
* ``q_i`` -- the probability that an operational demand falls inside the
  fault's failure region, i.e. the fault's contribution to the PFD when it is
  present.

The model's assumptions (stated explicitly in the paper, Section 2.2):

1. one-to-one mapping between faults and failure regions;
2. non-overlapping failure regions, so the PFD of a version is the *sum* of
   the ``q_i`` of the faults present in it;
3. statistically independent introduction of faults ("as though the design
   team ... tossed dice to decide whether to insert it or not").

:class:`FaultModel` stores the parameter vectors, validates them with the
content rules of :mod:`repro.core.model_content` (the numpy-free module the
service wire parser shares, so both accept and reject the same content with
the same messages), and offers constructors for the scenarios used throughout
the paper (homogeneous models, randomly generated models, and models derived
from failure-region geometry via :mod:`repro.demandspace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.model_content import (
    ModelContent,
    check_p_scale,
    check_values,
    fault_names,
    parse_content,
    parse_scale,
)

__all__ = ["FaultClass", "FaultModel"]


@dataclass(frozen=True)
class FaultClass:
    """A single potential fault.

    Parameters
    ----------
    probability:
        ``p_i`` -- probability that the fault is present in a randomly
        developed version, in ``[0, 1]``.
    impact:
        ``q_i`` -- probability of a demand hitting the fault's failure region,
        in ``[0, 1]``.
    name:
        Optional human-readable label (e.g. "mis-set trip threshold").
    """

    probability: float
    impact: float
    name: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 <= self.impact <= 1.0:
            raise ValueError(f"impact must be in [0, 1], got {self.impact}")


@dataclass(frozen=True)
class FaultModel:
    """The complete parameter set ``{(p_i, q_i)}`` of the fault-creation model.

    Parameters
    ----------
    p:
        Vector of fault-introduction probabilities ``p_i``.
    q:
        Vector of failure-region probabilities ``q_i`` (same length as ``p``).
    names:
        Optional per-fault labels.
    strict:
        When ``True`` (default) the non-overlap assumption is enforced by
        requiring ``sum(q) <= 1``.  Passing ``strict=False`` allows
        ``sum(q) > 1``, which the paper discusses as an acceptable pessimistic
        relaxation (Section 6.2); the flag is recorded on the instance.

    Construction applies :func:`~repro.core.model_content.check_values`
    (equal lengths, at least one fault, finite values in ``[0, 1]``, the
    strict ``math.fsum(q) <= 1 + 1e-9``) and
    :func:`~repro.core.model_content.fault_names`.
    """

    p: np.ndarray
    q: np.ndarray
    names: tuple[str, ...] = ()
    strict: bool = True
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if p.ndim != 1 or q.ndim != 1:
            raise ValueError("p and q must be 1-D arrays")
        check_values(p.tolist(), q.tolist(), self.strict)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "names", fault_names(self.names, p.size))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of potential faults (the paper's ``n``)."""
        return int(self.p.size)

    def _cached(self, key, compute):
        """Memoise ``compute()`` under ``key`` in the instance cache.

        The model is immutable, so every derived quantity is computed at most
        once per instance; the cache is excluded from equality and repr.
        """
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def p_max(self) -> float:
        """``max{p_1 .. p_n}`` -- the quantity driving the paper's bounds."""
        return self._cached("p_max", lambda: float(np.max(self.p)))

    @property
    def p_min(self) -> float:
        """``min{p_1 .. p_n}``."""
        return self._cached("p_min", lambda: float(np.min(self.p)))

    @property
    def total_impact(self) -> float:
        """``sum(q_i)`` -- the largest PFD any version can attain."""
        return self._cached("total_impact", lambda: float(np.sum(self.q)))

    def poisson_binomial(self, versions: int = 1):
        """Memoised Poisson-binomial view of the (common-)fault count.

        ``versions=1`` is the distribution of ``N_1`` (faults in one version);
        ``versions=r`` the distribution of ``N_r`` (faults common to ``r``
        independently developed versions, probabilities ``p_i**r``).  Because
        the :class:`~repro.stats.poisson_binomial.PoissonBinomial` caches its
        exact PMF, memoising the view here means the ``O(n^2)`` dynamic
        programming recursion runs at most once per model and exponent.
        """
        from repro.stats.poisson_binomial import PoissonBinomial

        if versions < 1:
            raise ValueError(f"versions must be a positive integer, got {versions}")
        return self._cached(
            ("poisson_binomial", versions), lambda: PoissonBinomial(self.p**versions)
        )

    def powered(self, versions: int) -> "FaultModel":
        """Memoised model with every ``p_i`` raised to ``versions``.

        This is the "system view" of the model: a fault is present in all
        ``versions`` independently developed versions with probability
        ``p_i**versions`` (Section 2.2), so the 1-out-of-r system behaves like
        a single version developed from the powered model.
        """
        if versions < 1:
            raise ValueError(f"versions must be a positive integer, got {versions}")
        if versions == 1:
            return self
        return self._cached(
            ("powered", versions),
            lambda: FaultModel(
                p=self.p**versions, q=self.q.copy(), names=self.names, strict=self.strict
            ),
        )

    def fault_classes(self) -> list[FaultClass]:
        """The model as a list of :class:`FaultClass` value objects."""
        return [
            FaultClass(probability=float(self.p[i]), impact=float(self.q[i]), name=self.names[i])
            for i in range(self.n)
        ]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_fault_classes(faults: Iterable[FaultClass], strict: bool = True) -> "FaultModel":
        """Build a model from :class:`FaultClass` instances."""
        fault_list = list(faults)
        if not fault_list:
            raise ValueError("at least one fault class is required")
        return FaultModel(
            p=np.array([fault.probability for fault in fault_list]),
            q=np.array([fault.impact for fault in fault_list]),
            names=tuple(fault.name or f"fault_{i + 1}" for i, fault in enumerate(fault_list)),
            strict=strict,
        )

    @staticmethod
    def homogeneous(n: int, probability: float, impact: float, strict: bool = True) -> "FaultModel":
        """A model with ``n`` identical faults (all ``p_i = probability``, ``q_i = impact``).

        The simplest scenario used by the paper's numerical illustrations.
        """
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        return FaultModel(
            p=np.full(n, float(probability)), q=np.full(n, float(impact)), strict=strict
        )

    @staticmethod
    def random(
        rng: np.random.Generator,
        n: int,
        p_range: tuple[float, float] = (0.001, 0.1),
        total_impact: float = 0.5,
        impact_dispersion: float = 1.0,
        strict: bool = True,
    ) -> "FaultModel":
        """Generate a random model, for simulation studies and property tests.

        Fault probabilities are drawn log-uniformly from ``p_range`` (so that
        rare and common fault types are both represented), and impacts are a
        Dirichlet split of ``total_impact`` with concentration
        ``impact_dispersion`` (smaller values give more unequal failure-region
        sizes, matching the observation that some regions are much "larger"
        than others).
        """
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        low, high = p_range
        if not 0.0 < low <= high <= 1.0:
            raise ValueError(f"p_range must satisfy 0 < low <= high <= 1, got {p_range}")
        if not 0.0 < total_impact <= 1.0:
            raise ValueError(f"total_impact must be in (0, 1], got {total_impact}")
        if impact_dispersion <= 0.0:
            raise ValueError(f"impact_dispersion must be positive, got {impact_dispersion}")
        log_p = rng.uniform(math.log(low), math.log(high), size=n)
        p = np.exp(log_p)
        shares = rng.dirichlet(np.full(n, impact_dispersion))
        q = shares * total_impact
        return FaultModel(p=p, q=q, strict=strict)

    @staticmethod
    def from_regions(
        probabilities: Sequence[float],
        regions: Sequence,
        profile,
        rng: np.random.Generator | None = None,
        sample_size: int = 100_000,
        names: Sequence[str] | None = None,
        strict: bool = True,
    ) -> "FaultModel":
        """Build a model from failure-region geometry and an operational profile.

        Each fault's ``q_i`` is the probability of its failure region under
        ``profile``, computed analytically when possible and otherwise
        estimated by Monte Carlo (``rng`` is then required).

        Parameters
        ----------
        probabilities:
            The ``p_i`` of each fault.
        regions:
            The corresponding :class:`repro.demandspace.FailureRegion` objects.
        profile:
            An :class:`repro.demandspace.OperationalProfile`.
        rng, sample_size:
            Monte Carlo fallback parameters.
        """
        from repro.demandspace.measure import estimate_region_probability, region_probability

        if len(probabilities) != len(regions):
            raise ValueError("probabilities and regions must have the same length")
        impacts: list[float] = []
        for region in regions:
            analytic = region_probability(region, profile)
            if analytic is not None:
                impacts.append(analytic)
                continue
            if rng is None:
                raise ValueError(
                    "no analytic probability available for a region; provide rng for "
                    "Monte Carlo estimation"
                )
            impacts.append(estimate_region_probability(region, profile, rng, sample_size).value)
        return FaultModel(
            p=np.asarray(probabilities, dtype=float),
            q=np.asarray(impacts, dtype=float),
            names=tuple(names) if names is not None else (),
            strict=strict,
        )

    # ------------------------------------------------------------------ #
    # Derived models
    # ------------------------------------------------------------------ #
    def scaled(self, k: float) -> "FaultModel":
        """The model with every ``p_i`` multiplied by ``k`` (``p_i = k b_i``).

        This is the parameterisation of Appendix B: the fault probabilities of
        the current model play the role of the base rates ``b_i`` and ``k``
        expresses overall process quality (smaller ``k`` means a better
        process).
        """
        check_p_scale(self.p_max, k)
        return FaultModel(p=self.p * k, q=self.q.copy(), names=self.names, strict=self.strict)

    def rescaled(self, p_scale: float = 1.0, q_scale: float = 1.0) -> "FaultModel":
        """The model with every ``p_i`` times ``p_scale`` and every ``q_i`` times ``q_scale``.

        This is the sweep-point transform used by study axes and
        :func:`repro.evaluate_sweep`: :meth:`scaled` (Appendix B process
        quality) composed with a uniform failure-region scaling.  Neutral
        scales return ``self`` unchanged, so derived-quantity caches survive.
        Both scales are typed as the service wire types them
        (:func:`~repro.core.model_content.parse_scale`): a NaN, infinite or
        negative scale raises the wire's ``ValueError``.
        """
        p_scale = parse_scale(p_scale, "p_scale")
        q_scale = parse_scale(q_scale, "q_scale")
        if p_scale == 1.0 and q_scale == 1.0:
            return self
        model = self.scaled(p_scale) if p_scale != 1.0 else self
        if q_scale == 1.0:
            return model
        return FaultModel(
            p=model.p.copy(), q=model.q * q_scale, names=model.names, strict=model.strict
        )

    def with_probability(self, index: int, probability: float) -> "FaultModel":
        """The model with ``p_index`` replaced (the Section 4.2.1 single-fault change)."""
        if not 0 <= index < self.n:
            raise IndexError(f"fault index {index} out of range for n={self.n}")
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        new_p = self.p.copy()
        new_p[index] = probability
        return FaultModel(p=new_p, q=self.q.copy(), names=self.names, strict=self.strict)

    def with_impact(self, index: int, impact: float) -> "FaultModel":
        """The model with ``q_index`` replaced."""
        if not 0 <= index < self.n:
            raise IndexError(f"fault index {index} out of range for n={self.n}")
        if not 0.0 <= impact <= 1.0:
            raise ValueError(f"impact must be in [0, 1], got {impact}")
        new_q = self.q.copy()
        new_q[index] = impact
        return FaultModel(p=self.p.copy(), q=new_q, names=self.names, strict=self.strict)

    def subset(self, indices: Sequence[int]) -> "FaultModel":
        """A model restricted to the given fault indices."""
        index_array = np.asarray(indices, dtype=int)
        if index_array.size == 0:
            raise ValueError("subset requires at least one fault index")
        return FaultModel(
            p=self.p[index_array],
            q=self.q[index_array],
            names=tuple(self.names[i] for i in index_array),
            strict=self.strict,
        )

    def merged(self, other: "FaultModel") -> "FaultModel":
        """Concatenate two fault models into one (disjoint fault populations)."""
        return FaultModel(
            p=np.concatenate([self.p, other.p]),
            q=np.concatenate([self.q, other.q]),
            names=self.names + other.names,
            strict=self.strict and other.strict,
        )

    def merge_faults(self, indices: Sequence[int], name: str = "") -> "FaultModel":
        """Merge several faults into a single fault.

        The merged fault is present whenever *any* of the originals would have
        been (probability ``1 - prod(1 - p_i)``) and its failure region is the
        union of the originals (impact ``sum(q_i)`` under the non-overlap
        assumption).  This is the paper's Section 6.1 device for representing
        perfectly positively correlated mistakes: "they can be considered as
        one mistake, with a resulting failure region which is the union of
        those associated to the two mistakes".
        """
        index_array = np.asarray(sorted(set(int(i) for i in indices)), dtype=int)
        if index_array.size < 2:
            raise ValueError("merging requires at least two distinct fault indices")
        if index_array[0] < 0 or index_array[-1] >= self.n:
            raise IndexError("fault index out of range")
        keep_mask = np.ones(self.n, dtype=bool)
        keep_mask[index_array] = False
        merged_probability = 1.0 - float(np.prod(1.0 - self.p[index_array]))
        merged_impact = float(np.sum(self.q[index_array]))
        merged_name = name or "+".join(self.names[i] for i in index_array)
        new_p = np.concatenate([self.p[keep_mask], [merged_probability]])
        new_q = np.concatenate([self.q[keep_mask], [min(merged_impact, 1.0)]])
        new_names = tuple(np.asarray(self.names, dtype=object)[keep_mask]) + (merged_name,)
        return FaultModel(p=new_p, q=new_q, names=new_names, strict=self.strict)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-Python representation (suitable for JSON serialisation)."""
        return {
            "p": self.p.tolist(),
            "q": self.q.tolist(),
            "names": list(self.names),
            "strict": self.strict,
        }

    def content(self) -> ModelContent:
        """The model as the service carries it: ``p`` and ``q`` as
        little-endian float64 bytes (:class:`~repro.core.model_content.ModelContent`)."""
        return ModelContent(
            np.ascontiguousarray(self.p, dtype="<f8").tobytes(),
            np.ascontiguousarray(self.q, dtype="<f8").tobytes(),
            self.names,
            self.strict,
        )

    @staticmethod
    def from_content(content: ModelContent) -> "FaultModel":
        """The model of a :class:`~repro.core.model_content.ModelContent`,
        its vectors read straight from the bytes with ``np.frombuffer``."""
        return FaultModel(
            p=np.frombuffer(content.p, dtype="<f8"),
            q=np.frombuffer(content.q, dtype="<f8"),
            names=content.names,
            strict=content.strict,
        )

    @staticmethod
    def from_dict(data: Mapping) -> "FaultModel":
        """Reconstruct a model from :meth:`to_dict` output (or any JSON model).

        The JSON typing of :func:`~repro.core.model_content.parse_content`
        applies: ``p`` and ``q`` are arrays of numbers (or their bytes
        spelling ``p_f64`` / ``q_f64``), ``names`` is absent or an array of
        strings, ``strict`` is absent or a boolean.
        """
        return FaultModel.from_content(parse_content(data))

    def __len__(self) -> int:
        return self.n
