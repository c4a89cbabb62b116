"""Tracing from outside the program: spans around the calls into each layer.

The ledger records spans from its own files only.  An :class:`Instrument`
owns a :class:`repro.obs.Tracer` and shadows public bound methods of live
objects (``solver.sponge.apply`` ...) with timing wrappers set as
*instance* attributes, so no class is patched and :meth:`Instrument.unwrap`
restores every object by deleting the shadow.  Span names are the layer
rows of the ledger (``core.kernel``, ``io.checkpoint_write`` ...);
:func:`rollup` turns a list of spans into per-row self time and call counts.

Workload code is written once against this interface: the untraced run gets
a :class:`NullInstrument` whose ``span`` is a shared no-op context and whose
``wrap`` does nothing.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import nullcontext

from repro.obs import Tracer

#: trace-report phase bucket per ledger layer (anything else -> "other")
_PHASE = {"core": "compute", "io": "io", "parallel": "halo"}

_NULL = nullcontext()


class NullInstrument:
    """Tracing off: nothing is recorded and nothing is wrapped."""

    enabled = False

    def span(self, name: str, **attrs):
        return _NULL

    def wrap(self, obj, attr: str, name: str) -> None:
        pass

    def solver(self, solver) -> None:
        pass

    def unwrap(self) -> None:
        pass


class Instrument:
    """Tracing on: a harness-owned tracer plus removable method shadows."""

    enabled = True

    def __init__(self):
        self.tracer = Tracer()
        self._shadows: list[tuple[object, str]] = []

    def span(self, name: str, **attrs):
        return self.tracer.span(
            name, category=_PHASE.get(name.split(".", 1)[0], "other"),
            **attrs)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a wrapper that records span ``name``."""
        fn = getattr(obj, attr)
        tracer = self.tracer
        category = _PHASE.get(name.split(".", 1)[0], "other")

        def timed(*args, **kwargs):
            with tracer.span(name, category=category):
                return fn(*args, **kwargs)

        setattr(obj, attr, timed)
        self._shadows.append((obj, attr))

    def solver(self, solver) -> None:
        """Wrap the public callables one ``WaveSolver.step`` goes through."""
        if solver.fused is not None:
            self.wrap(solver.fused, "step_velocity", "core.kernel")
            self.wrap(solver.fused, "step_stress", "core.kernel")
        self.wrap(solver.kernel, "update_velocity", "core.kernel")
        self.wrap(solver.kernel, "update_stress", "core.kernel")
        if solver.sponge is not None:
            self.wrap(solver.sponge, "apply", "core.sponge")
        if solver.free_surface is not None:
            self.wrap(solver.free_surface, "apply_velocity",
                      "core.free_surface")
            self.wrap(solver.free_surface, "apply_stress",
                      "core.free_surface")
        if solver.pml is not None:
            self.wrap(solver.pml, "update", "core.pml")
        if solver.lts is not None:
            self.wrap(solver.lts, "substep", "core.lts_substep")
        for src in (*solver.moment_sources, *solver.force_sources):
            self.wrap(src, "inject", "core.source_inject")
        for rec in solver.receivers:
            self.wrap(rec, "record", "core.record")
        if solver.surface_recorder is not None:
            self.wrap(solver.surface_recorder, "maybe_record", "core.record")

    def unwrap(self) -> None:
        """Delete every shadow, restoring the objects' own methods."""
        for obj, attr in self._shadows:
            vars(obj).pop(attr, None)
        self._shadows.clear()

    def mark(self) -> int:
        return len(self.tracer)

    def since(self, mark: int) -> list:
        return self.tracer.spans[mark:]


def rollup(spans) -> dict[str, tuple[float, int]]:
    """``{span name: (self seconds, calls)}``.

    A span's self time is its duration minus the part its direct children
    cover, so the rows of one root span add up to its wall time exactly.
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            covered[sp.parent_id] += sp.duration
    rows: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for sp in spans:
        row = rows[sp.name]
        row[0] += sp.duration - covered.get(sp.span_id, 0.0)
        row[1] += 1
    return {name: (s, n) for name, (s, n) in rows.items()}
