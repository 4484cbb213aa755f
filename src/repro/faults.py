"""Deterministic fault injection: named failpoints for tests and chaos runs.

Production code is sprinkled with cheap, named *failpoints*::

    from repro import faults
    faults.hit("worker.evaluate")

A failpoint does nothing until armed.  Tests (and the CI chaos job) arm them
through the API or the ``REPRO_FAULTS`` environment variable::

    faults.inject("worker.evaluate", error=RuntimeError("boom"), every=3)
    # or, from outside the process:
    REPRO_FAULTS="worker.evaluate:error=RuntimeError,message=boom,every=3"

and from then on every third ``hit("worker.evaluate")`` raises.  Injection is
**deterministic** -- a per-process hit counter, no randomness -- so a chaos
scenario replays exactly, and **off by default**: with nothing armed,
:func:`hit` is one truthiness check on an empty dict.

Arming through :func:`inject` also exports the configuration to
``os.environ`` (disable with ``export_env=False``), so worker *processes*
spawned afterwards -- the service's ``--workers`` pool, the study runner's
job pool -- arm the same failpoints when they import this module.  Each
process counts its own hits; that is what makes crash-restart scenarios
deterministic (a freshly rebuilt worker starts counting from zero).

Directives (API keyword / env spelling):

=====================  ========================================================
``error=`` / `error=`  exception *class* (or builtin exception name) to raise
``message=``           exception message (default names the failpoint)
``every=N``            fire on every Nth hit (default 1: every hit)
``times=M``            stop firing after M fires (default: unlimited)
``crash`` / `crash`    ``os._exit(70)`` instead of raising -- simulates a
                       worker-process crash (``BrokenExecutor`` upstream)
=====================  ========================================================

Failpoints in the tree (grep for ``faults.hit`` to refresh this list):

========================  =====================================================
``worker.evaluate``       one evaluation inside a service/pool worker
``worker.group``          one coalesced batch group inside a worker
``worker.crash``          worker-process entry (arm with ``crash`` to kill it)
``studies.point``         one study point in the runner
``router.replica_write``  one write-all cache ``PUT`` to a replica shard --
                          firing it models a replica missing a warm entry
``health.probe``          one router ``/healthz`` probe -- firing it blinds
                          the prober (the probe reads as failed)
========================  =====================================================
"""

from __future__ import annotations

import builtins
import os
import threading
from dataclasses import dataclass, field

__all__ = ["FaultInjected", "active", "clear", "hit", "inject"]

#: Environment variable holding the cross-process failpoint configuration.
ENV_VAR = "REPRO_FAULTS"

#: ``os._exit`` status for ``crash`` failpoints (EX_SOFTWARE; distinctive in
#: worker-crash logs).
CRASH_EXIT_CODE = 70


class FaultInjected(RuntimeError):
    """The default error a fired failpoint raises (no ``error=`` given)."""


@dataclass
class _FailPoint:
    """One armed failpoint and its per-process firing state."""

    name: str
    error: type[BaseException] = FaultInjected
    message: str | None = None
    every: int = 1
    times: int | None = None
    crash: bool = False
    hits: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def should_fire(self) -> bool:
        """Count one hit; decide deterministically whether this one fires."""
        self.hits += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.hits % self.every != 0:
            return False
        self.fired += 1
        return True

    def raise_now(self) -> None:
        if self.crash:
            os._exit(CRASH_EXIT_CODE)
        raise self.error(self.message or f"failpoint {self.name!r} fired")

    def spec(self) -> str:
        """The env-var spelling of this failpoint (round-trips via parsing)."""
        directives = []
        if self.crash:
            directives.append("crash")
        else:
            directives.append(f"error={self.error.__name__}")
            if self.message is not None:
                directives.append(f"message={self.message}")
        if self.every != 1:
            directives.append(f"every={self.every}")
        if self.times is not None:
            directives.append(f"times={self.times}")
        return f"{self.name}:{','.join(directives)}"


_registry: dict[str, _FailPoint] = {}
_lock = threading.Lock()


def hit(name: str) -> None:
    """Pass through a failpoint; raises (or crashes) when it is armed and due.

    The disabled-path cost is one empty-dict truthiness check, so call sites
    can stay armed in hot paths.
    """
    if not _registry:
        return
    with _lock:
        point = _registry.get(name)
        if point is None or not point.should_fire():
            return
    point.raise_now()


def inject(
    name: str,
    *,
    error: type[BaseException] | BaseException | str | None = None,
    message: str | None = None,
    every: int = 1,
    times: int | None = None,
    crash: bool = False,
    export_env: bool = True,
) -> None:
    """Arm the failpoint ``name``; replaces any previous arming of it.

    ``error`` accepts an exception class, an instance (its type and message
    are taken) or a builtin exception name.  ``export_env=True`` (default)
    mirrors the whole registry into ``REPRO_FAULTS`` so worker processes
    spawned from now on arm themselves identically.
    """
    if every < 1:
        raise ValueError(f"every must be a positive integer, got {every}")
    if times is not None and times < 1:
        raise ValueError(f"times must be a positive integer or None, got {times}")
    if isinstance(error, BaseException):
        message = message if message is not None else (str(error) or None)
        error = type(error)
    elif isinstance(error, str):
        error = _resolve_error(error)
    elif error is None:
        error = FaultInjected
    elif not (isinstance(error, type) and issubclass(error, BaseException)):
        raise ValueError(f"error must be an exception class, instance or name, got {error!r}")
    with _lock:
        _registry[name] = _FailPoint(
            name=name, error=error, message=message, every=every, times=times, crash=crash
        )
        if export_env:
            _export_locked()


def clear(name: str | None = None) -> None:
    """Disarm one failpoint (or all of them) and update the exported env var."""
    with _lock:
        if name is None:
            _registry.clear()
        else:
            _registry.pop(name, None)
        _export_locked()


def active() -> dict[str, str]:
    """The armed failpoints as ``{name: spec}`` (introspection and tests)."""
    with _lock:
        return {name: point.spec() for name, point in _registry.items()}


def _export_locked() -> None:
    if _registry:
        os.environ[ENV_VAR] = ";".join(point.spec() for point in _registry.values())
    else:
        os.environ.pop(ENV_VAR, None)


def _resolve_error(name: str) -> type[BaseException]:
    candidate = getattr(builtins, name, None)
    if isinstance(candidate, type) and issubclass(candidate, BaseException):
        return candidate
    if name == FaultInjected.__name__:
        return FaultInjected
    raise ValueError(f"unknown exception name {name!r} in failpoint spec")


def _parse_spec(configuration: str) -> dict[str, _FailPoint]:
    """Parse a ``REPRO_FAULTS`` value; raises ``ValueError`` on bad specs."""
    points: dict[str, _FailPoint] = {}
    for entry in configuration.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        name, separator, rest = entry.partition(":")
        name = name.strip()
        if not name or not separator:
            raise ValueError(
                f"bad failpoint entry {entry!r}; expected 'name:directive,...'"
            )
        point = _FailPoint(name=name)
        for directive in rest.split(","):
            directive = directive.strip()
            if not directive:
                continue
            key, has_value, value = directive.partition("=")
            if key == "crash" and not has_value:
                point.crash = True
            elif key == "error" and has_value:
                point.error = _resolve_error(value)
            elif key == "message" and has_value:
                point.message = value
            elif key == "every" and has_value:
                point.every = _parse_positive(value, "every")
            elif key == "times" and has_value:
                point.times = _parse_positive(value, "times")
            else:
                raise ValueError(
                    f"unknown failpoint directive {directive!r} in {entry!r}"
                )
        points[name] = point
    return points


def _parse_positive(value: str, what: str) -> int:
    try:
        parsed = int(value)
    except ValueError as error:
        raise ValueError(f"failpoint {what}= expects an integer, got {value!r}") from error
    if parsed < 1:
        raise ValueError(f"failpoint {what}= must be positive, got {parsed}")
    return parsed


def _load_env() -> None:
    """Arm failpoints from ``REPRO_FAULTS`` (worker-process startup path)."""
    configuration = os.environ.get(ENV_VAR)
    if not configuration:
        return
    # A malformed spec must fail loudly: silently running *without* the
    # requested faults would make a chaos run vacuously green.
    _registry.update(_parse_spec(configuration))


_load_env()
