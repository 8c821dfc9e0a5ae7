"""Span tracing of phl layers, done from outside the package.

`Tracer.install` wraps a fixed list of public phl functions and rebinds each
wrapper at every site that holds the original: module attributes (the
package uses `from .x import f` throughout), closure cells (registry targets
capture suite functions by value) and default arguments.  `uninstall`
restores every site.  Nothing under src/phl is edited.

Each wrapped call becomes a span (name, start, end, parent span, op id).
The hot leaves named in HOT are called hundreds of thousands of times per
pass, so for them only a count and a duration per (function, parent) are
kept.  Generator-returning functions are timed over creation and every
resumption, not just creation.  Spans stay in memory until `dump`.
"""

import inspect
import json
import time
from collections import defaultdict

WRAPPED = {
    "parser": ["parse_theory"],
    "structures": ["sequent_witness", "canonical_key", "product"],
    "closure": [
        "enumerate_models", "load_universe", "save_universe",
        "closure_P", "closure_Sc", "closure_Hloc", "product_embedding_closure",
        "hsp_closure", "operator_law_report", "check_theory_morphism_bounded",
    ],
    "homsearch": ["find_hom", "iter_homs", "enumerate_homs",
                  "local_retraction_check"],
    "sigma": ["build_hom_quiver", "condense_sigma", "acc_probe",
              "gset_sigma_check", "verify_fam_theorem"],
    "suites": ["probe_property_suite", "definable_fixpoint_suite",
               "sigma_invariant_suite"],
    "report": ["run_target", "emit_report"],
}
HOT = {"structures.sequent_witness", "structures.canonical_key",
       "structures.product", "homsearch.find_hom", "homsearch.iter_homs"}
GENERATORS = {"homsearch.iter_homs"}


def _size(X) -> int:
    return sum(len(c) for c in X.carriers.values())


def _observe(tracer, name, args, result):
    """Work counts that need a call's arguments or result."""
    c = tracer.counts
    if name == "structures.sequent_witness":
        c[name + ".rejects"] += result is not None
    elif name == "structures.canonical_key":
        c[name + ".elements"] += _size(args[0])
    elif name == "closure.enumerate_models":
        c[name + ".models"] += len(result.members)
    elif name == "closure.closure_P":
        c[name + ".added"] += len(result.indices) - len(args[0].indices)
    elif name == "homsearch.find_hom":
        c[name + ".hits"] += result is not None
    elif name == "homsearch.enumerate_homs":
        c[name + ".homs"] += len(result)
    elif name == "homsearch.local_retraction_check":
        c[name + ".maps_checked"] += result.maps_checked
    elif name == "sigma.build_hom_quiver":
        n = len(args[0])
        c[name + ".pairs"] += n * (n - 1)


class _Frame:
    __slots__ = ("name", "start", "child", "span", "parent")

    def __init__(self, name, start, span, parent):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.parent = parent


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = []  # (id, name, start, end, parent id, op id)
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, s]
        self.counts = defaultdict(int)  # "<fn>.calls" and work counts
        self.busy = defaultdict(float)  # "<fn>.s", outermost activations only
        self.self_time = defaultdict(float)  # "<fn>.self_s"
        self.depth = defaultdict(int)
        self.op = None
        self._sites = []
        self._next_span = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, op=None):
        """Context manager for a benchmark-side span, e.g. one op."""
        return _Span(self, name, op)

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        span = None
        if name not in HOT:
            span = self._next_span
            self._next_span += 1
        frame = _Frame(name, 0.0, span, parent)
        self.stack.append(frame)
        self.depth[name] += 1
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame, count=True):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame.start
        name = frame.name
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.busy[name] += dur
        self.self_time[name] += dur - frame.child
        if count:
            self.counts[name + ".calls"] += 1
        parent = frame.parent
        if parent is not None:
            parent.child += dur
        if frame.span is None:
            leaf = self.leaves[(name, parent.name if parent else None)]
            leaf[0] += count
            leaf[1] += dur
        else:
            self.spans.append((frame.span, name, frame.start, end,
                               parent.span if parent else None, self.op))

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name in GENERATORS:
            def resume(it):
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame, count=False)
                        yield item
                finally:
                    close = getattr(it, "close", None)
                    if close is not None:
                        close()

            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    it = iter(fn(*args, **kwargs))
                finally:
                    tracer._exit(frame)
                return resume(it)
        else:
            def wrapper(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                _observe(tracer, name, args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, mods: dict, extra_functions=()) -> None:
        """Rebind wrappers everywhere the originals are reachable.

        `mods` maps short module names ("closure", ...) to the imported phl
        modules; `extra_functions` are further callables whose closure cells
        may hold originals (the registry targets' run functions)."""
        if self._sites:
            raise RuntimeError("tracer already installed")
        swap = {}
        for short, names in WRAPPED.items():
            for fname in names:
                orig = getattr(mods[short], fname)
                swap[id(orig)] = (orig, self._wrap(f"{short}.{fname}", orig))
        seen = set()

        def visit_function(fn):
            if id(fn) in seen:
                return
            seen.add(id(fn))
            for cell in fn.__closure__ or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append(("cell", cell, value))
                    cell.cell_contents = hit[1]
                elif inspect.isfunction(value):
                    visit_function(value)
            if fn.__defaults__ and any(id(d) in swap for d in fn.__defaults__):
                self._sites.append(("defaults", fn, fn.__defaults__))
                fn.__defaults__ = tuple(
                    swap[id(d)][1] if id(d) in swap and swap[id(d)][0] is d
                    else d for d in fn.__defaults__)

        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    self._sites.append(("attr", mod, (attr, value)))
                    setattr(mod, attr, hit[1])
                elif inspect.isfunction(value):
                    visit_function(value)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for member in vars(value).values():
                        if inspect.isfunction(member):
                            visit_function(member)
        for fn in extra_functions:
            visit_function(fn)

    def uninstall(self) -> None:
        for kind, where, what in reversed(self._sites):
            if kind == "attr":
                setattr(where, what[0], what[1])
            elif kind == "cell":
                where.cell_contents = what
            else:
                where.__defaults__ = what
        self._sites = []

    # -- results -----------------------------------------------------------

    def leaf_calls(self, name, parent) -> int:
        return self.leaves.get((name, parent), (0, 0.0))[0]

    def metrics(self) -> dict:
        """Per-layer metrics by the names listed in BENCHMARK.json."""
        c, busy, own = self.counts, self.busy, self.self_time
        out = {}
        for short, names in WRAPPED.items():
            for fname in names:
                name = f"{short}.{fname}"
                out[name + ".calls"] = c[name + ".calls"]
                out[name + ".s"] = busy[name]
                out[name + ".self_s"] = own[name]

        def ratio(num, den):
            return num / den if den else 0.0

        sw, ck = "structures.sequent_witness", "structures.canonical_key"
        em, cp = "closure.enumerate_models", "closure.closure_P"
        fh = "homsearch.find_hom"
        out[sw + ".reject_ratio"] = ratio(c[sw + ".rejects"], c[sw + ".calls"])
        out[ck + ".mean_size"] = ratio(c[ck + ".elements"], c[ck + ".calls"])
        out[em + ".models"] = c[em + ".models"]
        out[em + ".keys_per_model"] = ratio(self.leaf_calls(ck, em),
                                            c[em + ".models"])
        out[cp + ".useful_ratio"] = ratio(
            c[cp + ".added"], self.leaf_calls("structures.product", cp))
        out[fh + ".hit_ratio"] = ratio(c[fh + ".hits"], c[fh + ".calls"])
        out["homsearch.enumerate_homs.homs"] = c["homsearch.enumerate_homs.homs"]
        lr = "homsearch.local_retraction_check"
        out[lr + ".maps_checked"] = c[lr + ".maps_checked"]
        out["sigma.build_hom_quiver.pairs"] = c["sigma.build_hom_quiver.pairs"]
        return out

    def dump(self, path, meta: dict) -> None:
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "leaves": [{"name": n, "parent": p, "calls": k, "s": s}
                       for (n, p), (k, s) in sorted(
                           self.leaves.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


class _Span:
    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        self.tracer.op = self.op
        self.frame = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        self.tracer.op = None
        return False
