"""Layer probes for the traced run.

A :class:`LayerTracer` wraps public entry points of the program's layers
*from outside*: it swaps the attribute a caller looks the function up
through (a module global or a class attribute) for a wrapper that counts
calls, busy time and failures, and restores the original on exit.
Nothing under ``src/`` is edited.  Because a wrapper only sees calls made
through the attribute it replaced, a refactor that moves a call site
leaves the probe at zero calls — :func:`require_calls` turns that
into a loud failure instead of a silently empty layer.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping


class AttributionError(RuntimeError):
    """A layer boundary that should have run recorded no calls."""


#: ``measure(args, kwargs, result) -> {quantity: amount}``.
Measure = Callable[[tuple, dict, Any], Mapping[str, float]]
#: ``before(args, kwargs) -> {quantity: amount}``, evaluated untimed.
Before = Callable[[tuple, dict], Mapping[str, float]]


@dataclass
class Probe:
    """Counts, busy seconds, failures and extra quantities of one boundary."""

    name: str
    keep_samples: bool = False
    calls: int = 0
    failures: int = 0
    busy_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)
    #: Per-call durations in call order (only with ``keep_samples``).
    samples: list[float] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def add(self, elapsed: float, *, failed: bool = False,
            extra: Mapping[str, float] | None = None) -> None:
        with self._lock:
            self.calls += 1
            self.busy_s += elapsed
            if failed:
                self.failures += 1
            if self.keep_samples:
                self.samples.append(elapsed)
            for key, amount in (extra or {}).items():
                self.extra[key] = self.extra.get(key, 0.0) + amount

    def get(self, key: str) -> float:
        return self.extra.get(key, 0.0)


class LayerTracer:
    """Installs timing wrappers and undoes them on :meth:`close`."""

    def __init__(self) -> None:
        self.probes: dict[str, Probe] = {}
        self._undo: list[Callable[[], None]] = []

    def probe(self, name: str, *, keep_samples: bool = False) -> Probe:
        probe = self.probes.get(name)
        if probe is None:
            probe = Probe(name, keep_samples=keep_samples)
            self.probes[name] = probe
        return probe

    def wrap(self, owner: Any, attr: str, name: str, *,
             measure: Measure | None = None, before: Before | None = None,
             keep_samples: bool = False,
             key: Callable[[tuple], str] | None = None) -> None:
        """Time every call to ``owner.attr`` into probe ``name``.

        ``owner`` is a module (for a module-level function) or a class
        (for a method or classmethod).  Generator functions are timed
        while they produce items, not when they are called.  ``key``
        picks a per-call probe suffix from the arguments (one probe per
        HTTP path, say).
        """
        raw = owner.__dict__[attr] if inspect.isclass(owner) else \
            getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        inner = raw.__func__ if is_classmethod else raw
        self.probe(name, keep_samples=keep_samples)

        def probe_for(args: tuple) -> Probe:
            if key is None:
                return self.probes[name]
            return self.probe(f"{name}{key(args)}", keep_samples=keep_samples)

        if inspect.isgeneratorfunction(inner):
            wrapper = _generator_wrapper(inner, probe_for, measure)
        else:
            wrapper = _call_wrapper(inner, probe_for, measure, before)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def busy(self, name: str) -> float:
        probe = self.probes.get(name)
        return probe.busy_s if probe is not None else 0.0

    def calls(self, name: str) -> int:
        probe = self.probes.get(name)
        return probe.calls if probe is not None else 0

    def extra(self, name: str, quantity: str) -> float:
        probe = self.probes.get(name)
        return probe.get(quantity) if probe is not None else 0.0

    def failures(self) -> int:
        return sum(probe.failures for probe in self.probes.values())

    def close(self) -> None:
        """Restore every wrapped attribute (recorded data is kept)."""
        while self._undo:
            self._undo.pop()()


def require_calls(tracers: list[LayerTracer], names: tuple[str, ...]) -> None:
    """Fail when a boundary expected on this workload never ran."""
    silent = [name for name in names
              if not any(tracer.calls(name) for tracer in tracers)]
    if silent:
        raise AttributionError(
            f"layer boundaries recorded zero calls: {silent}; a call site "
            "moved away from the attribute its probe wraps")


def _call_wrapper(inner: Callable, probe_for: Callable[[tuple], Probe],
                  measure: Measure | None, before: Before | None,
                  ) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        probe = probe_for(args)
        extra = dict(before(args, kwargs)) if before is not None else {}
        start = time.perf_counter()
        try:
            result = inner(*args, **kwargs)
        except BaseException:
            probe.add(time.perf_counter() - start, failed=True, extra=extra)
            raise
        elapsed = time.perf_counter() - start
        if measure is not None:
            extra.update(measure(args, kwargs, result))
        probe.add(elapsed, extra=extra)
        return result

    wrapper.__wrapped__ = inner  # type: ignore[attr-defined]
    return wrapper


def _generator_wrapper(inner: Callable, probe_for: Callable[[tuple], Probe],
                       measure: Measure | None) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        probe = probe_for(args)
        items = inner(*args, **kwargs)
        busy = 0.0
        extra: dict[str, float] = {}
        failed = False
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    busy += time.perf_counter() - start
                    break
                busy += time.perf_counter() - start
                if measure is not None:
                    for quantity, amount in measure(args, kwargs,
                                                    item).items():
                        extra[quantity] = extra.get(quantity, 0.0) + amount
                yield item
        except GeneratorExit:
            raise
        except BaseException:
            failed = True
            raise
        finally:
            probe.add(busy, failed=failed, extra=extra)

    wrapper.__wrapped__ = inner  # type: ignore[attr-defined]
    return wrapper
