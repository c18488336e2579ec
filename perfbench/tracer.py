"""In-memory spans around the public functions of raca's layers.

The tracer replaces a function at every name its callers look it up by (for
example `raca.census.validate`, `raca.polyhedra.validate` and
`networkx.check_planarity`), records one span per call and restores the
originals on exit.  Spans stay in memory; `write` dumps them once, at the end
of the child process.  Nothing here imports raca: the child passes modules in.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# public functions of raca.polyhedra whose calls and self time are reported
POLYHEDRA_FNS = (
    "validate",
    "canonical_form",
    "andreev_check",
    "prismatic_circuits",
    "face_statistics",
    "polyhedron_from_certificate",
)
NETWORKX_FNS = ("is_connected", "check_planarity")


class Tracer:
    def __init__(self):
        # one list per span: name, site, ctx, op, start_ns, end_ns, parent, code
        self.spans = []
        self.counts = Counter()
        self.ctx = ""
        self.op = -1
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def call(self, name, site, fn, args, kwargs, on_result=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, site, self.ctx, self.op, time.perf_counter_ns(), 0, parent, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[7] = getattr(exc, "code", type(exc).__name__)
            raise
        finally:
            span[5] = time.perf_counter_ns()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    def begin_op(self, index):
        self.op = index

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap_everywhere(self, name, original, modules, on_result=None, ctx_of=None):
        """Replace `original` at every module attribute that is bound to it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is not original:
                    continue
                site = module.__name__
                self._patch(module, attr, self._wrapper(
                    name, site, original, on_result, ctx_of))

    def _wrapper(self, name, site, original, on_result, ctx_of):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if ctx_of is None:
                return tracer.call(name, site, original, args, kwargs, on_result)
            outer = tracer.ctx
            tracer.ctx = ctx_of(args, kwargs)
            try:
                return tracer.call(name, site, original, args, kwargs, on_result)
            finally:
                tracer.ctx = outer

        return wrapper

    def count_method(self, cls, attr, key):
        original = getattr(cls, attr)
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return original(*args)

        self._patch(cls, attr, counted)

    def install(self):
        """Wrap the layers of an imported raca at their call sites."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "raca" or n.startswith("raca."))]
        polyhedra = sys.modules["raca.polyhedra"]
        for fn in POLYHEDRA_FNS:
            self.wrap_everywhere(f"polyhedra.{fn}", getattr(polyhedra, fn), modules)

        census = sys.modules["raca.census"]

        def pair_ctx(args, kwargs):
            pair = args[0] if args else kwargs["pair"]
            vi, vf = (pair.v_inf, pair.v_f) if hasattr(pair, "v_inf") else tuple(pair)
            reading = kwargs.get("condition3_reading", "disjoint_endpoints")
            return f"pair_{vi}_{vf}.{reading}"

        def realizable(record):
            self.counts[(self.ctx, "realizable")] += len(record.realizable_types)

        self.wrap_everywhere("census.enumerate_types", census.enumerate_types, modules,
                             on_result=realizable, ctx_of=pair_ctx)

        nx = sys.modules.get("networkx")
        if nx is not None:
            def planarity(result):
                if not result[0]:
                    self.counts[(self.ctx, "nonplanar")] += 1

            for fn in NETWORKX_FNS:
                if hasattr(nx, fn):
                    self.wrap_everywhere(f"networkx.{fn}", getattr(nx, fn), [nx],
                                         on_result=planarity if fn == "check_planarity" else None)

        surd = sys.modules["raca.surd"].SurdInteger
        self.count_method(surd, "__mul__", ("", "surd.mul"))
        self.count_method(surd, "__rmul__", ("", "surd.mul"))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self nanoseconds per (ctx, name), plus counters.

        A span's self time is its duration minus the durations of the spans
        it directly caused.
        """
        child_ns = [0] * len(self.spans)
        for name, site, ctx, op, start, end, parent, code in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        agg = defaultdict(lambda: [0, 0, 0])
        rejects = Counter()
        for i, (name, site, ctx, op, start, end, parent, code) in enumerate(self.spans):
            for key in ((ctx, name), ("", name)) if ctx else (("", name),):
                row = agg[key]
                row[0] += 1
                row[1] += end - start
                row[2] += end - start - child_ns[i]
            if code is not None:
                rejects[(ctx, f"{name}.reject.{code}")] += 1
                if ctx:
                    rejects[("", f"{name}.reject.{code}")] += 1
        return {
            "spans": [[ctx, name, *row] for (ctx, name), row in sorted(agg.items())],
            "counts": [[ctx, name, n] for (ctx, name), n in
                       sorted((rejects + self.counts).items())],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, site, ctx, op, start, end, parent, code = span
                fh.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                     "site": site, "ctx": ctx, "start_ns": start,
                                     "end_ns": end, "code": code}) + "\n")
