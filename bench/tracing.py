"""Spans around the program's layer functions, for the traced run.

Each traced function is replaced, in every quiverstab module that binds
it by name, by a wrapper that opens a span.  Spans nest on a stack; when
one closes, its duration is charged to its parent's child time, and its
self time (duration minus the time its child spans cover) is added to
the per-layer totals.  Spans are aggregated per layer as they close, so
a pass with hundreds of thousands of eliminations keeps a small
footprint; the aggregate is written as JSON at the end.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # child time of each open span
        self.layers = defaultdict(lambda: [0, 0.0])  # span -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.patches = []

    # -- spans ---------------------------------------------------------------------

    def _close(self, name, started, child):
        duration = perf_counter() - started
        if self.stack:
            self.stack[-1] += duration
        own = duration - child
        layer = self.layers[name]
        layer[0] += 1
        layer[1] += own

    def span(self, name, fn, enter=None, leave=None):
        """A wrapper of fn that records a span; enter/leave update counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            token = enter(args) if enter else None
            tracer.stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                child = tracer.stack.pop()
                tracer._close(name, started, child)
            if leave:
                leave(token, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, fn):
        """Run one benchmark operation as the root span of its layer spans."""
        self.stack.append(0.0)
        started = perf_counter()
        try:
            return fn()
        finally:
            child = self.stack.pop()
            self._close("op", started, child)

    # -- installing wrappers -------------------------------------------------------

    def patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, getattr(owner, attr), wrapper))

    def patch_everywhere(self, fn, wrapper):
        """Replace fn in every quiverstab module that binds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "quiverstab" and not mod_name.startswith("quiverstab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def install(self):
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)


def layer_tracer() -> Tracer:
    """A tracer with spans at the layer boundaries named in the benchmark README."""
    import quiverstab.cli as cli
    import quiverstab.fieldops as fieldops
    import quiverstab.geom2d as geom2d
    import quiverstab.mckay as mckay
    import quiverstab.quiverrep as quiverrep
    import quiverstab.rootsys as rootsys
    import quiverstab.stabcheck as stabcheck
    import quiverstab.stability as stability
    import quiverstab.walls as walls

    tracer = Tracer()
    counts = tracer.counts
    state = {"hn_depth": 0}

    def simple(name, fn):
        tracer.patch_everywhere(fn, tracer.span(name, fn))

    # stabcheck: lattice size, joins (one rref per vertex each) and HN rebuilds
    def lattice_enter(args):
        return counts["stabcheck.join_rref"]

    def lattice_leave(before, args, result):
        rep = args[0]
        vertices = len(rep.quiver.rs.vertices) + 1
        counts["stabcheck.join_calls"] += (counts["stabcheck.join_rref"] - before) // vertices
        counts["stabcheck.lattice_nodes"] += len(result.nodes)
        counts["stabcheck.lattice_relations"] += len(result.relations)
        if state["hn_depth"]:
            counts["stabcheck.lattices_in_hn"] += 1

    lattice = stabcheck.submodule_lattice
    tracer.patch_everywhere(
        lattice, tracer.span("stabcheck.lattice", lattice, lattice_enter, lattice_leave)
    )

    def hn_enter(args):
        state["hn_depth"] += 1

    def hn_leave(token, args, result):
        state["hn_depth"] -= 1

    hn = stabcheck.hn_filtration
    tracer.patch_everywhere(hn, tracer.span("stabcheck.hn", hn, hn_enter, hn_leave))

    rref = fieldops.rref
    traced_rref = tracer.span("fieldops.rref", rref)

    def join_rref(*args, **kwargs):
        counts["stabcheck.join_rref"] += 1
        return traced_rref(*args, **kwargs)

    tracer.patch(fieldops, "rref", traced_rref)
    tracer.patch(stabcheck, "rref", join_rref)  # only the join step calls it there

    for name, fn in [
        ("stabcheck.spin", stabcheck.spin),
        ("stabcheck.tangent", stabcheck.tangent_dimension),
        ("fieldops.rank", fieldops.rank),
        ("quiverrep.moment_defect", quiverrep.moment_defect),
        ("cli.build_parser", cli.build_parser),
        ("cli.doc_load", cli._load_json),
        ("cli.doc_load", cli.rep_from_doc),
        ("cli.doc_load", cli.theta_from_doc),
        ("rootsys.build", rootsys.build_root_system),
        ("walls.build_arrangement", walls.build_arrangement),
        ("walls.sign_vector", walls.sign_vector),
        ("walls.render_slice", walls.render_slice),
        ("walls.interior_point", walls.interior_point),
        ("stability.cone_membership", stability.cone_membership),
        ("mckay.build_mckay", mckay.build_mckay),
        ("mckay.verify", mckay.verify_correspondence),
    ]:
        simple(name, fn)

    def cells_leave(token, args, result):
        counts["geom2d.lines"] += len(args[0])
        counts["geom2d.cells"] += len(result)

    cells = geom2d.arrangement_cells
    tracer.patch_everywhere(
        cells, tracer.span("geom2d.arrangement_cells", cells, leave=cells_leave)
    )

    init = quiverrep.FramedRep.__init__

    def counted_init(self, *args, **kwargs):
        counts["quiverrep.framedrep_inits"] += 1
        init(self, *args, **kwargs)

    tracer.patch(quiverrep.FramedRep, "__init__", counted_init)
    return tracer


def per_layer_metrics(tracer: Tracer, passes: int, overhead_pct: float):
    """The per-layer metrics of BENCHMARK.json, per traced pass."""
    layers, counts = tracer.layers, tracer.counts

    def calls(name):
        return layers[name][0] / passes if name in layers else 0.0

    def ms(name):
        return layers[name][1] * 1000.0 / passes if name in layers else 0.0

    def count(name):
        return counts.get(name, 0) / passes

    joins = counts.get("stabcheck.join_calls", 0)
    hn_calls = layers["stabcheck.hn"][0] if "stabcheck.hn" in layers else 0
    values = {
        "stabcheck.lattice_calls": (calls("stabcheck.lattice"), "count"),
        "stabcheck.lattice_ms": (ms("stabcheck.lattice"), "ms"),
        "stabcheck.lattice_nodes": (count("stabcheck.lattice_nodes"), "count"),
        "stabcheck.lattice_relations": (count("stabcheck.lattice_relations"), "count"),
        "stabcheck.join_calls": (count("stabcheck.join_calls"), "count"),
        "stabcheck.join_yield": (
            counts.get("stabcheck.lattice_nodes", 0) / joins if joins else 0.0, "nodes/join"),
        "stabcheck.lattices_per_hn": (
            counts.get("stabcheck.lattices_in_hn", 0) / hn_calls if hn_calls else 0.0, "count"),
        "fieldops.rref_calls": (calls("fieldops.rref"), "count"),
        "fieldops.rref_ms": (ms("fieldops.rref"), "ms"),
        "cli.build_parser_ms": (ms("cli.build_parser"), "ms"),
        "cli.doc_load_ms": (ms("cli.doc_load"), "ms"),
        "rootsys.build_calls": (calls("rootsys.build"), "count"),
        "rootsys.build_ms": (ms("rootsys.build"), "ms"),
        "stabcheck.spin_calls": (calls("stabcheck.spin"), "count"),
        "stabcheck.spin_ms": (ms("stabcheck.spin"), "ms"),
        "stabcheck.tangent_ms": (ms("stabcheck.tangent"), "ms"),
        "fieldops.rank_ms": (ms("fieldops.rank"), "ms"),
        "quiverrep.framedrep_inits": (count("quiverrep.framedrep_inits"), "count"),
        "quiverrep.moment_defect_ms": (ms("quiverrep.moment_defect"), "ms"),
        "geom2d.arrangement_cells_ms": (ms("geom2d.arrangement_cells"), "ms"),
        "geom2d.lines": (count("geom2d.lines"), "count"),
        "geom2d.cells": (count("geom2d.cells"), "count"),
        "walls.build_arrangement_ms": (ms("walls.build_arrangement"), "ms"),
        "walls.sign_vector_calls": (calls("walls.sign_vector"), "count"),
        "walls.sign_vector_ms": (ms("walls.sign_vector"), "ms"),
        "walls.render_slice_ms": (ms("walls.render_slice"), "ms"),
        "stability.cone_membership_ms": (ms("stability.cone_membership"), "ms"),
        "walls.interior_point_ms": (ms("walls.interior_point"), "ms"),
        "mckay.build_mckay_ms": (ms("mckay.build_mckay"), "ms"),
        "mckay.verify_ms": (ms("mckay.verify"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def trace_document(tracer: Tracer, passes: int, metrics):
    """Per-layer JSON: the metrics, plus calls and self time per layer."""

    def table(stats):
        return {
            name: {"calls": calls / passes, "self_ms": secs * 1000.0 / passes}
            for name, (calls, secs) in sorted(stats.items())
        }

    return {
        "passes": passes,
        "metrics": metrics,
        "layers": table(tracer.layers),
        "counts": {k: v / passes for k, v in sorted(tracer.counts.items())},
    }
