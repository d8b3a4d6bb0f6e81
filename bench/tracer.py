"""Outside-in tracing of rvar's layers.

`install()` rebinds each traced function in every loaded `rvar.*` namespace,
package re-exports included, because modules bind these functions with
`from .core import ...`.  Each call records a span (name, parent, start,
end) in a flat in-memory array; nothing is written until `dump`/`drain`.
A function that no longer exists is skipped and reports zero calls.
"""

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> public functions timed as that layer
LAYERS = {
    "core": ("from_generators", "msg", "intersect", "remove_element",
             "restricted_frobenius", "is_subset", "union_with_tail", "add_element"),
    "chains": ("is_member", "rmonoid_generated", "minimal_rsystem",
               "minimal_system_from_members"),
    "engine": ("_walk", "build_tree", "genus_level", "members_of",
               "restrict_variety", "check_rvariety_axioms"),
    "closures": ("variety_closure", "minimal_vsystem", "restricted_closure"),
}
CACHED = ("core.intersect", "core.union_with_tail")
MAIN = "cli.main"
TRACED = tuple("%s.%s" % (layer, fn) for layer, fns in LAYERS.items() for fn in fns)

_FIELDS = 4  # name index, parent span, start ns, end ns


class Tracer:
    def __init__(self):
        self.names = []
        self.originals = {}
        self.spans = array("q")
        self.stack = [-1]
        self.active = [True]  # a one-item cell, so wrappers see pause() at once
        self.walk_rows = 0

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter_ns
        count_rows = name == "engine._walk"

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            sid = len(spans) // _FIELDS
            spans.extend((idx, stack[-1], clock(), 0))
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid * _FIELDS + 3] = clock()
            if count_rows and isinstance(out, tuple):  # _walk returns (rows, complete)
                self.walk_rows += len(out[0])
            return out

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, with_main=False):
        """Import every rvar module and rebind the traced functions everywhere."""
        for mod in ("rvar", "rvar.cli"):
            importlib.import_module(mod)
        targets = list(TRACED) + ([MAIN] if with_main else [])
        rebind = {}
        for name in targets:
            layer, fn = name.split(".")
            orig = getattr(sys.modules["rvar." + layer], fn, None)
            if orig is not None:
                rebind[id(orig)] = (orig, self.wrap(name, orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "rvar" and not modname.startswith("rvar."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    @contextmanager
    def paused(self):
        """Run the body untraced, e.g. the benchmark's own formatting of answers."""
        self.active[0] = False
        try:
            yield
        finally:
            self.active[0] = True

    def cache_counts(self):
        """{name: (hits, misses)} for the traced functions that carry an lru_cache."""
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                ci = info()
                out[name] = (ci.hits, ci.misses)
        return out

    def drain(self):
        """Per-function [calls, self ns] over the recorded spans, then forget them.

        Self time is a span's duration minus that of its direct child spans.
        """
        spans = self.spans
        n = len(spans) // _FIELDS
        child_ns = [0] * n
        for i in range(n):
            parent = spans[i * _FIELDS + 1]
            if parent >= 0:
                child_ns[parent] += spans[i * _FIELDS + 3] - spans[i * _FIELDS + 2]
        out = {}
        for i in range(n):
            name = self.names[spans[i * _FIELDS]]
            dur = spans[i * _FIELDS + 3] - spans[i * _FIELDS + 2]
            acc = out.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += dur - child_ns[i]
        del spans[:]
        return out

    def dump(self, path):
        """Write the recorded spans as tab-separated text, one span per line."""
        s = self.spans
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(s) // _FIELDS):
                b = i * _FIELDS
                fh.write("%d\t%d\t%s\t%d\t%d\n"
                         % (i, s[b + 1], self.names[s[b]], s[b + 2], s[b + 3]))
