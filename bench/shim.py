"""Run one ``fhc`` command with per-layer tracing, from outside the program.

Usage: python3 bench/shim.py TRACE_FILE INVOCATION_ID ARG...

The shim imports ``fhc``, replaces the functions named in ``LAYERS`` at every
module attribute that binds them (``fhc.cli`` binds ``parse_forest`` by
``from ... import``, so both ``fhc.cli.parse_forest`` and
``fhc.notation.parse_forest`` are patched), calls ``fhc.cli.main(ARG...)``
and exits with its status.  Standard output is the program's own, byte for
byte; the trace goes to TRACE_FILE as one JSON object.

Only the outermost call of a layer is timed, so recursive and cached
functions (``interpret``, ``canonical_tree``) are not counted twice; every
call is counted.  Calls of ``SPAN`` layers are kept as spans
``[id, layer, start, end, parent id]``; ``HOT`` layers, called hundreds of
thousands of times per run, keep only counters.  A module's self time is the
time inside its wrapped functions not covered by another wrapped call.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

SPAN, HOT = "span", "hot"


def _classes(segment) -> int:
    return len(segment.classes)


#: (module, function, layer, kind, (counter, size of the result) or None)
LAYERS = (
    ("fhc.cli", "main", "cli.main", SPAN, None),
    ("fhc.notation", "parse_forest", "notation.parse_forest", SPAN, None),
    ("fhc.notation", "parse_term", "notation.parse_term", SPAN, None),
    ("fhc.notation", "serialize_forest", "notation.serialize", SPAN, None),
    ("fhc.notation", "serialize_tree", "notation.serialize", SPAN, None),
    ("fhc.notation", "serialize_term", "notation.serialize", SPAN, None),
    ("fhc.iterated", "enumerate_forests", "iterated.enumerate_forests", SPAN,
     ("iterated.raw_forests", len)),
    ("fhc.iterated", "count_forests", "iterated.count_forests", SPAN, None),
    ("fhc.iterated", "iminimize", "iterated.iminimize", SPAN, None),
    ("fhc.iterated", "canonical", "iterated.canonical", SPAN, None),
    ("fhc.iterated", "canonical_tree", "iterated.canonical", SPAN, None),
    ("fhc.iterated", "unlift", "iterated.unlift", SPAN, None),
    ("fhc.iterated", "colim_leq", "iterated.colim_leq", HOT, None),
    ("fhc.iterated", "colim_leq_oracle", "iterated.colim_leq_oracle", SPAN, None),
    ("fhc.forests", "h_leq", "forests.h_leq", HOT, None),
    ("fhc.forests", "minimize", "forests.minimize", SPAN, None),
    ("fhc.terms", "encode", "terms.encode", SPAN, None),
    ("fhc.terms", "interpret", "terms.interpret", SPAN, None),
    ("fhc.terms", "s_to_g", "terms.s_to_g", SPAN, None),
    ("fhc.terms", "g_to_s", "terms.g_to_s", SPAN, None),
    ("fhc.terms", "jump_height", "terms.jump_height", SPAN, None),
    ("fhc.terms", "restrict_level", "terms.normalize", SPAN, None),
    ("fhc.terms", "window_normalize", "terms.normalize", SPAN, None),
    ("fhc.ordinals", "parse_ordinal", "ordinals.parse_ordinal", SPAN, None),
    ("fhc.ordinals", "build_t", "ordinals.build_t", SPAN, None),
    ("fhc.hierarchy", "level_relation", "hierarchy.level_relation", SPAN, None),
    ("fhc.hierarchy", "complete_witness", "hierarchy.complete_witness", SPAN, None),
    ("fhc.hierarchy", "enumerate_segment", "hierarchy.enumerate_segment", SPAN,
     ("hierarchy.classes", _classes)),
    ("fhc.hierarchy", "_transitive_reduction", "hierarchy.covers", SPAN, None),
    ("fhc.hierarchy", "write_segment", "hierarchy.write", SPAN, None),
    ("fhc.hierarchy", "hasse_dot", "hierarchy.write", SPAN, None),
)

#: ``lru_cache``s whose ``cache_info()`` the trace reports
CACHES = (("fhc.iterated", "forest_leq0"), ("fhc.iterated", "tree_leq0"))


class Tracer:
    """Spans and counters of one invocation."""

    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open frames: [layer, span id, child time]
        self.active: set[str] = set()  # layers with an open frame
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.self_time: Counter = Counter()
        self.callers: Counter = Counter()  # "layer<caller layer" -> calls
        self.counts: Counter = Counter()
        self.next_id = 0

    def wrap(self, fn, layer: str, kind: str, counts):
        tracer = self
        module = layer.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            stack = tracer.stack
            if stack:
                tracer.callers[f"{layer}<{stack[-1][0]}"] += 1
            if layer in tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            tracer.active.add(layer)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active.discard(layer)
                took = end - start
                tracer.time[layer] += took
                tracer.self_time[module] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                if kind == SPAN:
                    tracer.spans.append((span_id, layer, start, end, parent))
            if counts is not None:
                tracer.counts[counts[0]] += counts[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fhc" or name.startswith("fhc."))]
        for mod_name, fn_name, layer, kind, counts in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name)
            traced = self.wrap(original, layer, kind, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def dump(self, path: str) -> None:
        caches = {}
        for mod_name, fn_name in CACHES:
            info = getattr(sys.modules[mod_name], fn_name).cache_info()
            caches[fn_name] = [info.hits, info.misses, info.currsize]
        payload = {
            "invocation": self.invocation,
            "spans": self.spans,
            "calls": self.calls,
            "time": self.time,
            "self": self.self_time,
            "callers": self.callers,
            "counts": self.counts,
            "caches": caches,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    trace_file, invocation, args = argv[0], argv[1], argv[2:]
    import fhc.cli

    tracer = Tracer(invocation)
    tracer.install()
    try:
        code = fhc.cli.main(args)
    except SystemExit as exc:  # argparse refusals exit from inside main
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
