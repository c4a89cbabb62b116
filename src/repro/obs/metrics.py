"""Metrics registry — counters, gauges, histograms (the PAPI_FP_OPS side).

Section V.B reports *metrics*, not traces: sustained Tflop/s from
``PAPI_FP_OPS / wall-clock``, message and byte counts, I/O overhead
percentages.  :class:`MetricsRegistry` is the process-wide registry those
numbers land in:

* :class:`Counter` — monotonically increasing totals (flops, bytes, spans);
* :class:`Gauge` — last-value instruments (``sustained_gflops``);
* :class:`Histogram` — sample distributions with percentile summaries
  (per-step wall times, message latencies).

The existing :class:`~repro.core.profiling.FlopCounter` (the repo's PAPI
stand-in) is re-exported here and feeds the registry via
:meth:`MetricsRegistry.observe_flops`, which sets the ``sustained_gflops``
gauge the way the paper divides PAPI_FP_OPS by measured wall time.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any

from ..core.profiling import FlopCounter, stencil_flops_per_point

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "FlopCounter",
    "stencil_flops_per_point",
]


class Counter:
    """Monotonically increasing counter."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """Last-value instrument."""

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Sample distribution with percentile summaries.

    Percentiles use linear interpolation between order statistics, so
    ``percentile(50)`` of ``[1, 2, 3, 4]`` is 2.5 — the same convention as
    ``numpy.percentile``'s default.
    """

    def __init__(self, name: str):
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @contextlib.contextmanager
    def time(self):
        """Context manager observing the block's elapsed wall seconds.

        Usage::

            with registry.histogram("step.wall_s").time():
                solver.run(1)

        The sample is recorded even if the block raises.
        """
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(time.perf_counter() - t0)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self._values else 0.0

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def _ordered(self) -> list[float]:
        """One locked snapshot of the samples, sorted."""
        with self._lock:
            return sorted(self._values)

    @staticmethod
    def _interpolate(ordered: list[float], q: float) -> float:
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if not ordered:
            return 0.0
        pos = (len(ordered) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def percentile(self, q: float) -> float:
        """The q-th percentile (0 <= q <= 100) of the observed samples."""
        return self._interpolate(self._ordered(), q)

    def percentiles(self, qs=(50, 90, 95, 99)) -> dict[str, float]:
        """``{"p50": ..., ...}`` for each requested percentile, all from
        one sorted snapshot.

        Empty histograms report 0.0 everywhere, matching
        :meth:`percentile`.
        """
        ordered = self._ordered()
        return {f"p{q:g}": self._interpolate(ordered, q) for q in qs}

    def summary(self) -> dict[str, float]:
        with self._lock:
            values = list(self._values)
        ordered = sorted(values)
        n = len(ordered)
        # summed in arrival order, like the ``mean`` property
        out = {"count": float(n), "mean": sum(values) / n if n else 0.0,
               "min": ordered[0] if n else 0.0,
               "max": ordered[-1] if n else 0.0}
        out.update((f"p{q}", self._interpolate(ordered, q))
                   for q in (50, 90, 95, 99))
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named get-or-create registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls):
        with self._lock:
            m = self._metrics.get(name)
            if m is None:
                m = self._metrics[name] = cls(name)
            elif not isinstance(m, cls):
                raise TypeError(f"metric {name!r} already registered as "
                                f"{type(m).__name__}, not {cls.__name__}")
            return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- FlopCounter bridge (the PAPI_FP_OPS / wall-clock division) ------
    def observe_flops(self, counter: FlopCounter) -> Gauge:
        """Feed one FlopCounter's measurements into the registry.

        Sets the ``sustained_gflops`` gauge (and its Mcell-updates/s
        companion) and accumulates ``flops_total`` / ``steps_total``
        counters.  Safe on an untimed counter: the gauges read 0.
        """
        self.gauge("sustained_gflops").set(counter.sustained_flops() / 1e9)
        self.gauge("mcell_updates_per_second").set(
            counter.cell_updates_per_second() / 1e6)
        self.counter("flops_total").inc(counter.total_flops)
        self.counter("steps_total").inc(counter.steps)
        return self.gauge("sustained_gflops")

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Plain-data view: counters/gauges -> value, histograms -> summary."""
        out: dict[str, Any] = {}
        with self._lock:
            items = list(self._metrics.items())
        for name, m in sorted(items):
            out[name] = m.summary() if isinstance(m, Histogram) else m.value
        return out

    def report(self) -> str:
        lines = ["metrics:"]
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                body = ", ".join(f"{k}={v:.4g}" for k, v in value.items())
                lines.append(f"  {name:<32} {body}")
            else:
                lines.append(f"  {name:<32} {value if value is not None else '-'}")
        return "\n".join(lines)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default
