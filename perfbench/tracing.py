"""Span tracing of the fanoscaffold layers, installed from outside the library.

A traced run wraps every public function of each layer module wherever a
``fanoscaffold`` module bound the name, and the public methods of the
layer's classes (plus ``LaurentPolynomial`` multiplication).  Each call
records one span: name, start, end, parent span and op id.  Spans stay in
flat arrays until the run ends; per-layer self time and counters are
computed from them afterwards.  ``Tracer.uninstall`` puts every original
object back, so untraced code runs the library exactly as shipped.
"""

import importlib
import inspect
from array import array
from time import perf_counter

# Layers, in pipeline order.  Each is one module of the package.
LAYERS = (
    "exact",
    "polyhedra",
    "toric",
    "laurent",
    "forward",
    "scaffolding",
    "inversion",
    "mutations",
    "nefpart",
    "amenable",
    "fixtures",
    "jsonio",
    "cli",
)

# Vector helpers that take well under a microsecond per call.  A wrapper
# costs more than they do, so wrapping them would time the wrapper; their
# time stays in the self time of whichever span called them.
UNWRAPPED = (
    "exact.dot",
    "exact.vadd",
    "exact.vsub",
    "exact.vscale",
    "exact.mat_vec",
    "exact.primitive_vector",
)

# Dunder methods traced in addition to the public ones.
EXTRA_METHODS = {"LaurentPolynomial": ("__mul__", "__rmul__")}

ROWREDUCE = tuple(
    "exact." + n
    for n in (
        "rank",
        "det",
        "unimodular_inverse",
        "solve_linear",
        "kernel_basis",
        "hermite_normal_form",
    )
)
MUL = ("laurent.LaurentPolynomial.__mul__", "laurent.LaurentPolynomial.__rmul__")


def _terms(product):
    # __mul__ returns NotImplemented for operands it does not handle.
    return len(product.terms) if hasattr(product, "terms") else 0


# Counters read off return values: span name -> (counter, value of result).
RESULT_COUNTERS = {
    "polyhedra.dd_cone": ("polyhedra.dd_rays_out", lambda res: len(res[0])),
    "polyhedra.Polytope.integral_points": ("polyhedra.lattice_points_out", len),
    "toric.covers": ("toric.cover_hits", lambda res: 1 if res else 0),
    MUL[0]: ("laurent.mul_terms_out", _terms),
    MUL[1]: ("laurent.mul_terms_out", _terms),
    "jsonio.dumps": ("jsonio.bytes_out", lambda res: len(res.encode("utf-8"))),
}


class SpanLog:
    """Spans of a run, one entry per traced call, in call order.

    A span's parent has a smaller index than the span itself; -1 marks a
    span with no traced caller.
    """

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.ops = array("i")
        self._index = {}

    def name_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def add(self, name, start, end, parent, op):
        """Append a finished span; used to build span trees by hand."""
        self.name_ids.append(self.name_id(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        return len(self.starts) - 1

    def __len__(self):
        return len(self.starts)

    def name(self, i):
        return self.names[self.name_ids[i]]


def self_times(log):
    """Self time of every span: its duration minus its children's."""
    n = len(log)
    out = [log.ends[i] - log.starts[i] for i in range(n)]
    for i in range(n):
        p = log.parents[i]
        if p >= 0:
            out[p] -= log.ends[i] - log.starts[i]
    return out


def layer_self_times(log):
    """Sum of span self times per layer (the module part of the name)."""
    totals = {}
    for i, t in enumerate(self_times(log)):
        layer = log.name(i).split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals


def outer_time(log, names):
    """Time inside spans named in `names`, counting nested ones once."""
    wanted = {log._index[n] for n in names if n in log._index}
    inside = [False] * len(log)
    total = 0.0
    for i in range(len(log)):
        p = log.parents[i]
        nested = p >= 0 and (inside[p] or log.name_ids[p] in wanted)
        inside[i] = nested
        if log.name_ids[i] in wanted and not nested:
            total += log.ends[i] - log.starts[i]
    return total


def call_count(log, names):
    wanted = {log._index[n] for n in names if n in log._index}
    return sum(1 for k in log.name_ids if k in wanted)


class Tracer:
    """Installs span-recording wrappers into the fanoscaffold modules."""

    def __init__(self):
        self.log = SpanLog()
        self.counters = {}
        self.current = -1
        self.op = -1
        self._patches = []

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        log = self.log
        nid = log.name_id(name)
        name_ids, starts, ends = log.name_ids, log.starts, log.ends
        parents, ops = log.parents, log.ops
        tracer = self
        hook = RESULT_COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(tracer.current)
            ops.append(tracer.op)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                tracer.current = parents[idx]
            if hook is not None:
                key, value = hook
                tracer.counters[key] = tracer.counters.get(key, 0) + value(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every traceable callable; returns the list of span names."""
        modules = {m: importlib.import_module("fanoscaffold." + m) for m in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                full = layer + "." + attr
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and full not in UNWRAPPED
                ):
                    replaced[obj] = self._wrap(obj, full)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # Rebind the wrappers wherever any package module imported the name.
        package = [importlib.import_module("fanoscaffold")] + list(modules.values())
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return sorted(self.log.names)

    def _wrap_class(self, layer, cls):
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            full = "%s.%s.%s" % (layer, cls.__name__, attr)
            if inspect.isfunction(raw):
                new = self._wrap(raw, full)
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, full))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, full))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.current = -1

    # -- results ----------------------------------------------------------

    def metrics(self, untraced_s, traced_s):
        """The per-layer metrics as {name: (value, unit)}.

        untraced_s and traced_s time the same ops without and with tracing;
        their ratio is the tracing overhead.
        """
        log = self.log
        selfs = layer_self_times(log)
        count = lambda *names: call_count(log, names)
        outer = lambda *names: outer_time(log, names)
        counter = lambda key: self.counters.get(key, 0)
        covers = count("toric.covers")
        out = {
            "exact.lp_calls": (count("exact.simplex_max"), "count"),
            "exact.lp_s": (outer("exact.simplex_max"), "s"),
            "exact.rowreduce_calls": (count(*ROWREDUCE), "count"),
            "exact.rowreduce_s": (outer(*ROWREDUCE), "s"),
            "polyhedra.dd_calls": (count("polyhedra.dd_cone"), "count"),
            "polyhedra.dd_s": (outer("polyhedra.dd_cone"), "s"),
            "polyhedra.dd_rays_out": (counter("polyhedra.dd_rays_out"), "count"),
            "polyhedra.from_points_calls": (
                count("polyhedra.Polytope.from_points"),
                "count",
            ),
            "polyhedra.from_points_s": (
                outer("polyhedra.Polytope.from_points"),
                "s",
            ),
            "polyhedra.lattice_points_out": (
                counter("polyhedra.lattice_points_out"),
                "count",
            ),
            "toric.stacky_fan_calls": (count("toric.git_to_stacky_fan"), "count"),
            "toric.stacky_fan_s": (outer("toric.git_to_stacky_fan"), "s"),
            "toric.cover_tests": (covers, "count"),
            "toric.cover_hit_ratio": (
                counter("toric.cover_hits") / covers if covers else 0.0,
                "ratio",
            ),
            "toric.secondary_fan_s": (outer("toric.secondary_fan"), "s"),
            "laurent.period_calls": (count("laurent.classical_period"), "count"),
            "laurent.period_s": (outer("laurent.classical_period"), "s"),
            "laurent.mul_calls": (count(*MUL), "count"),
            "laurent.mul_terms_out": (counter("laurent.mul_terms_out"), "count"),
            "laurent.mutation_s": (outer("laurent.algebraic_mutation"), "s"),
            "forward.przyjalkowski_s": (outer("forward.przyjalkowski"), "s"),
            "forward.validate_partition_calls": (
                count("forward.validate_partition"),
                "count",
            ),
            "scaffolding.validate_calls": (
                count("scaffolding.validate_scaffolding"),
                "count",
            ),
            "scaffolding.validate_s": (outer("scaffolding.validate_scaffolding"), "s"),
            "scaffolding.dual_check_s": (outer("scaffolding.dual_cone_check"), "s"),
            "inversion.invert_s": (outer("inversion.laurent_inversion"), "s"),
            "inversion.verify_embedding_s": (outer("inversion.verify_embedding"), "s"),
            "fixtures.build_calls": (count("fixtures.fixture"), "count"),
            "fixtures.build_s": (outer("fixtures.fixture"), "s"),
            "jsonio.bytes_out": (counter("jsonio.bytes_out"), "B"),
            "trace.spans": (len(log), "count"),
            "trace.overhead_ratio": (
                traced_s / untraced_s if untraced_s else 0.0,
                "ratio",
            ),
        }
        for layer in LAYERS:
            out[layer + ".self_s"] = (selfs.get(layer, 0.0), "s")
        return out
