"""Span tracing of affscat layers, installed from outside the package.

`install` replaces the layer entry points listed in LAYERS with wrappers that
record one span per call: span id, parent span id, name, start and end.  The
spans of one operation share its operation id and stay in memory until
`Tracer.write` stores them at the end of the operation.  A wrapper replaces
the original everywhere it is bound inside the package, including names that
other modules re-import (`cli.build_dcscat`, `sortable.enumerate_up_to_length`,
`scattering.path_product`, ...), so no call goes around it.

Wrappers only observe: they pass arguments and results through unchanged,
which the benchmark confirms by checking output digests on traced runs too.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array


def _add_len(counter):
    def on_result(tracer, args, result):
        tracer.counts[counter] = tracer.counts.get(counter, 0) + len(result)

    return on_result


def _add_walls(tracer, args, result):
    tracer.counts["scattering.walls"] = tracer.counts.get("scattering.walls", 0) + len(
        result.walls
    )


def _add_report(tracer, args, result):
    for key, counter in (("faces", "scattering.faces"), ("checked", "scattering.loops_checked")):
        tracer.counts[counter] = tracer.counts.get(counter, 0) + result[key]


def _dd_key(tracer, args, result):
    cone = args[0]
    tracer.dd_keys.add((cone.dim_ambient, cone.eqs, cone.ineqs))


# (module, attribute, span name, result hook).  An attribute "Class.method"
# wraps a method; a span name of None records the hook without a span, so the
# caller's self time still covers the call.
LAYERS = (
    ("weyl", "enumerate_up_to_length", "weyl.enumerate", _add_len("weyl.elements")),
    ("sortable", "SortableContext.sortables_up_to_length", None, _add_len("sortable.sortables")),
    ("sortable", "SortableContext.ji_sortables", "sortable.ji_sortables", _add_len("sortable.ji_found")),
    ("shards", "ShardContext.cut_set", "shards.cut_set", None),
    ("shards", "ShardContext.shard_from_ji", "shards.shard_from_ji", None),
    ("shards", "ShardContext.shard_from_root", "shards.shard_from_root", None),
    ("cones", "Cone.generators", "cones.dd", _dd_key),
    # Every double description, also those of Cone.from_rays.
    ("cones", "_double_description", "cones.double_description", None),
    ("cones", "Cone.contains", "cones.contains", None),
    ("cones", "Cone.contains_cone", "cones.contains_cone", None),
    ("linalg", "rref", "linalg.rref", None),
    ("series", "wall_cross", "series.wall_cross", None),
    ("series", "path_product", "series.path_product", None),
    ("scattering", "build_dcscat", "scattering.build_dcscat", _add_walls),
    ("scattering", "build_easy_scat", "scattering.build_easy_scat", _add_walls),
    ("scattering", "check_consistency", "scattering.check_consistency", _add_report),
    ("scattering", "loop_crossings", "scattering.loop_crossings", None),
    ("scattering", "rank2_complete", "scattering.rank2_complete", None),
    ("scattering", "rampart_set", "scattering.rampart_set", None),
    ("scattering", "scat_cone_eq", "scattering.scat_cone_eq", None),
    ("almost_positive", "APContext.fan_cones", "almost_positive.fan_cones", None),
    ("almost_positive", "APContext.compatibility_degree", "almost_positive.compat", None),
    ("mutation", "b_class_probe", "mutation.b_class_probe", None),
    ("mutation", "fans_compare", "mutation.fans_compare", None),
    ("cartan", "CartanMatrix.real_roots_up_to_height", "cartan.real_roots", None),
    ("jsonio", "diagram_json", "jsonio.diagram_json", None),
    ("jsonio", "dumps", "jsonio.dumps", None),
)


class Tracer:
    """Spans of one operation, kept in compact arrays until `write`."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.names: list = []
        self._name_index: dict = {}
        self.parent = array("q")
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack = [-1]
        self._active: dict = {}
        self.counts: dict = {}
        self.dd_keys: set = set()

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name, fn, on_result=None):
        if name is None:

            @functools.wraps(fn)
            def hook_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(self, args, result)
                return result

            return hook_only

        idx = self._intern(name)
        clock = time.perf_counter_ns
        stack, active = self._stack, self._active
        parent, names, start, end, nested = self.parent, self.name, self.start, self.end, self.nested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(parent)
            parent.append(stack[-1])
            names.append(idx)
            start.append(0)
            end.append(0)
            depth = active.get(idx, 0)
            nested.append(1 if depth else 0)
            active[idx] = depth + 1
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                active[idx] = depth
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans only, so
        recursion is not counted twice) and self seconds (duration minus the
        time covered by direct child spans)."""
        child_ns = [0] * len(self.parent)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(len(self.parent)):
            rec = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            rec["calls"] += 1
            if not self.nested[sid]:
                rec["incl_s"] += dur / 1e9
            rec["self_s"] += (dur - child_ns[sid]) / 1e9
        return out

    def write(self, path) -> None:
        """Store every span as a tab-separated line:
        op_id, span_id, parent_id, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.parent)):
                fh.write(
                    f"{self.op_id}\t{sid}\t{self.parent[sid]}\t{self.names[self.name[sid]]}"
                    f"\t{self.start[sid]}\t{self.end[sid]}\n"
                )


def _rebind(old, new) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "affscat" or modname.startswith("affscat."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in LAYERS; the package must already be imported."""
    for modname, attr, name, on_result in LAYERS:
        owner = importlib.import_module(f"affscat.{modname}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = owner.__dict__[attr]
        if isinstance(original, functools.cached_property):
            # First computations only: later reads hit the instance dict.
            wrapped = functools.cached_property(tracer.wrap(name, original.func, on_result))
            wrapped.__set_name__(owner, attr)
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(name, original, on_result)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type(sys)):
            _rebind(original, wrapped)
