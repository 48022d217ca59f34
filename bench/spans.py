"""In-memory spans around the calls into each ``mbplan`` layer.

The benchmark does not edit the package: :func:`install` replaces public
functions with timing wrappers at the names the calling modules look them
up by (``mbplan.report.feasibility_report``, ``mbplan.spectrum.assign_spectrum``
and so on), and :func:`uninstall` puts the originals back. Spans record op
id, parent, name and start/end in ``perf_counter_ns``; layer self times are
computed afterwards from the parent links.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import json
from dataclasses import dataclass, field
from time import perf_counter_ns

#: the package's modules, which are the benchmark's layers
LAYERS = ("scenario", "dimensioning", "costing", "spectrum", "report", "cli")

#: span name of everything the CLI does to turn results into output text
RENDER = "cli.render"

#: ``PhysicalTopology`` methods that derive the parent and hub maps
MAP_METHODS = ("hl3_parent_map", "hl12_hub_map")


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans for the current op; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self.op, len(spans), stack[-1] if stack else None, name, perf_counter_ns())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns, **s.attrs}) + "\n")


def _record_rsa(span: Span, assignment) -> None:
    span.attrs["placed"] = len(assignment.lightpaths)
    span.attrs["blocked"] = len(assignment.blocked)


class _Proxy:
    """A module with some attributes replaced; the rest pass through."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        vars(self).update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedWriter(_Proxy):
    """``csv.writer`` whose rows count as CLI rendering."""

    def __init__(self, tracer: Tracer, writer) -> None:
        super().__init__(writer, writerow=tracer.wrap(writer.writerow, RENDER))


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced name; returns what :func:`uninstall` restores.

    Module-level public functions of each layer are wrapped in every layer
    module that holds them, their own module included, so calls inside a
    module (``feasibility_report`` -> ``assign_spectrum``) are spans too.
    The ``to_dict`` methods and the CLI's ``json``/``csv`` output count as
    rendering, whichever module defines them.
    """
    modules = {name: importlib.import_module(f"mbplan.{name}") for name in LAYERS}
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = RENDER if attr == "render_comparison" else f"{layer}.{attr}"
            on_result = _record_rsa if name == "spectrum.assign_spectrum" else None
            wrapped[id(fn)] = tracer.wrap(fn, name, on_result)
    for module in modules.values():
        for attr, fn in list(vars(module).items()):
            if id(fn) in wrapped:
                patch(module, attr, wrapped[id(fn)])

    topology = modules["scenario"].PhysicalTopology
    for attr in MAP_METHODS:
        patch(topology, attr, tracer.wrap(getattr(topology, attr), f"scenario.{attr}"))
    for module in modules.values():
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ and "to_dict" in vars(cls):
                patch(cls, "to_dict", tracer.wrap(vars(cls)["to_dict"], RENDER))

    cli = modules["cli"]
    patch(cli, "json", _Proxy(json, dumps=tracer.wrap(json.dumps, RENDER)))
    patch(cli, "csv", _Proxy(csv, writer=lambda *a, **k: _TracedWriter(tracer, csv.writer(*a, **k))))
    return patches


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread and nest, so the children of a span are
    disjoint sub-intervals of it and their durations simply add up.
    """
    own = {s.id: s.end_ns - s.start_ns for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end_ns - s.start_ns
    return {sid: ns / 1e9 for sid, ns in own.items()}


def outermost(spans: list[Span], match) -> list[Span]:
    """Spans that match, leaving out those nested in another match."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if not match(s):
            continue
        p = by_id.get(s.parent)
        while p is not None and not match(p):
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics, per op, from the spans of ``ops`` traced ops.

    ``_s`` is inclusive time of the outermost matching spans, ``self_s`` is
    time minus child spans of any name, ``calls`` counts outermost spans.
    """
    own = self_seconds(spans)

    def named(*names):
        return lambda s: s.name in names

    def layer(name):
        return lambda s: s.layer == name

    def incl(match):
        return sum(s.seconds for s in outermost(spans, match))

    def calls(match):
        return len(outermost(spans, match))

    def self_s(match):
        return sum(own[s.id] for s in spans if match(s))

    maps = named(*(f"scenario.{m}" for m in MAP_METHODS))
    rsa = named("spectrum.assign_spectrum")
    totals = {
        "scenario.load_s": incl(named("scenario.load_scenario")),
        "scenario.topology_s": incl(named("scenario.generate_topology")),
        "scenario.topology_calls": calls(named("scenario.generate_topology")),
        "scenario.maps_s": incl(maps),
        "scenario.maps_calls": calls(maps),
        "dimensioning.s": incl(layer("dimensioning")),
        "dimensioning.self_s": self_s(layer("dimensioning")),
        "dimensioning.calls": calls(layer("dimensioning")),
        "costing.s": incl(layer("costing")),
        "costing.calls": calls(layer("costing")),
        "spectrum.demands_s": incl(named("spectrum.demands_for")),
        "spectrum.demands_self_s": self_s(named("spectrum.demands_for")),
        "spectrum.rsa_s": incl(rsa),
        "spectrum.rsa_calls": calls(rsa),
        "spectrum.feasibility_self_s": self_s(named("spectrum.feasibility_report")),
        "report.build_s": incl(named("report.build_comparison")),
        "report.self_s": self_s(layer("report")),
        "cli.main_s": incl(named("cli.main")),
        "cli.self_s": self_s(layer("cli")),
        "cli.render_s": incl(named(RENDER)),
    }
    per_op = {name: value / ops for name, value in totals.items()}
    rsa_spans = [s for s in spans if rsa(s)]
    placed = sum(s.attrs.get("placed", 0) for s in rsa_spans)
    blocked = sum(s.attrs.get("blocked", 0) for s in rsa_spans)
    requested = placed + blocked
    per_op["spectrum.channels_requested"] = requested / ops
    per_op["spectrum.channels_blocked"] = blocked / ops
    # with nothing requested, nothing failed to place
    per_op["spectrum.place_ratio"] = placed / requested if requested else 1.0
    per_op["spectrum.rsa_us_per_channel"] = totals["spectrum.rsa_s"] / requested * 1e6 if requested else 0.0
    return per_op
