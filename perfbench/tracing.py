"""Span tracing of the ahweyl layers, installed from outside the package.

`Tracer.install()` replaces every public function of each ahweyl module,
and every public method (plus the arithmetic dunders) of each class the
module defines, with a wrapper. Imported names such as
`from .weyl import commutator` and module-level lists of functions are
rebound too, so every call goes through a wrapper. Wrappers in the `fields`
layer, and on the trivial queries of the value classes (`is_*`, `zero`,
`one`, `coefficient`), only count calls: a span would cost more than the
call. All others record a span: name, start, end, parent span and job id,
kept in memory in flat arrays and written out at the end. Self time is
computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "fields",
    "poly",
    "weyl",
    "centerpoly",
    "linalg",
    "context",
    "derivations",
    "hochschild",
    "verify",
    "parse",
    "cli",
)
COUNT_ONLY_LAYERS = ("fields",)
DUNDERS = (
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "__divmod__",
    "__floordiv__",
    "__mod__",
)
EXTRA_METHODS = {"AhContext": ("__init__",)}
QUERY_METHODS = ("zero", "one", "coefficient")

# Operation groups of the per-layer metrics: group -> qualified names.
OPS = {
    "fields.coerce": ("fields.FieldSpec.coerce",),
    "fields.scalar_ops": tuple(
        f"fields.FieldSpec.{m}" for m in ("add", "sub", "mul", "neg", "inv", "div")
    ),
    "poly.mul": ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
    "poly.add": ("poly.Poly.__add__", "poly.Poly.__sub__"),
    "poly.divmod": ("poly.Poly.__divmod__",),
    "poly.gcd": ("poly.Poly.gcd_monic", "poly.Poly.xgcd"),
    "poly.pow": ("poly.Poly.__pow__",),
    "poly.derivative": ("poly.Poly.derivative",),
    "weyl.mul": ("weyl.WeylElement.__mul__", "weyl.WeylElement.__rmul__"),
    "weyl.commutator": ("weyl.commutator",),
    "weyl.to_text": ("weyl.WeylElement.to_text",),
    "centerpoly.mul": ("centerpoly.CenterPoly.__mul__", "centerpoly.CenterPoly.__rmul__"),
    "linalg.nullspace": ("linalg.nullspace",),
    "linalg.solver_add": ("linalg.LinearSolver.add",),
    "context.init": ("context.AhContext.__init__",),
    "context.yhat_power": ("context.AhContext.yhat_power",),
    "context.theta": tuple(
        f"context.AhContext.{m}"
        for m in (
            "theta_complement_S",
            "split_theta",
            "split_center_commutator",
            "split_Dhi_plus_Fxp",
            "theta_of",
            "theta_p_map",
            "in_theta",
            "im_delta_preimage",
        )
    ),
    "context.center_basis": tuple(
        f"context.AhContext.{m}" for m in ("zbasis_collect", "center_value", "center_coords")
    ),
    "context.yhat_collect": ("context.AhContext.yhat_collect",),
    "derivations.make": ("derivations.make_derivation",),
    "derivations.apply": ("derivations.Derivation.apply",),
    "derivations.image_of_zeta": ("derivations.Derivation.image_of_zeta",),
    "derivations.bracket": ("derivations.Derivation.bracket",),
    "derivations.decompose": ("derivations.decompose_Ah_char0", "derivations.decompose_Ah_charp"),
    "derivations.is_inner": ("derivations.is_inner",),
    "derivations.ad": ("derivations.ad",),
    "hochschild.charp_report": ("hochschild.freeness_and_module_report_charp",),
    "hochschild.char0_report": ("hochschild.structure_report_char0",),
}

LARGE_OPERAND = 32  # coefficients; poly.mul.large_share counts products above it


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _is_query(name: str) -> bool:
    return name.startswith("is_") or name in QUERY_METHODS


def _length(poly) -> int:
    """Coefficient count through the public degree (-inf for zero)."""
    deg = poly.degree
    return 0 if deg < 0 else int(deg) + 1


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> qualified name
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.job = [-1]
        self.counts = defaultdict(int)  # qualified name -> calls (count-only layers)
        self.extra = defaultdict(int)  # named counters fed by the hooks below
        self._patched = []  # (owner, attribute, original) to restore

    # -- wrappers ----------------------------------------------------------------

    def _counting(self, qualname, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, qualname, fn, hook=None):
        if qualname not in self.name_ids:
            self.name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        name_id = self.name_ids[qualname]
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends, stack, job = self.span_start, self.span_end, self.stack, self.job
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(job[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _hooks(self):
        extra = self.extra
        poly_mod = importlib.import_module("ahweyl.poly")
        weyl_mod = importlib.import_module("ahweyl.weyl")
        Poly, WeylElement = poly_mod.Poly, weyl_mod.WeylElement
        parse_names = set()

        def poly_mul(args):
            a, b = args[0], args[1]
            if isinstance(b, Poly):
                la, lb = _length(a), _length(b)
                extra["poly.mul.products"] += 1
                extra["poly.mul.coeff_products"] += la * lb
                if la > LARGE_OPERAND or lb > LARGE_OPERAND:
                    extra["poly.mul.large"] += 1

        def weyl_mul(args):
            a, b = args[0], args[1]
            if isinstance(b, WeylElement):
                extra["weyl.mul.term_pairs"] += len(a.terms) * len(b.terms)
            elif isinstance(b, Poly):
                extra["weyl.mul.term_pairs"] += len(a.terms)

        def nullspace(args):
            extra["linalg.nullspace.cells"] += len(args[1]) * args[2]

        def parse(args):
            # only the outermost parse call counts its text
            top = self.stack[-1]
            if top < 0 or self.names[self.span_name[top]] not in parse_names:
                if args and isinstance(args[0], str):
                    extra["parse.input_bytes"] += len(args[0])

        hooks = {
            "poly.Poly.__mul__": poly_mul,
            "weyl.WeylElement.__mul__": weyl_mul,
            "linalg.nullspace": nullspace,
        }
        return hooks, parse, parse_names

    # -- installation ----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        hooks, parse_hook, parse_names = self._hooks()
        replaced = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"ahweyl.{layer}")
            count_only = layer in COUNT_ONLY_LAYERS

            def wrap(qualname, fn, query=False):
                if count_only or query:
                    return self._counting(qualname, fn)
                hook = hooks.get(qualname)
                if layer == "parse":
                    parse_names.add(qualname)
                    hook = parse_hook
                return self._spanning(qualname, fn, hook)

            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and _is_public(attr):
                    wrapper = wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj):
                    extra = EXTRA_METHODS.get(obj.__name__, ())
                    for mname, member in list(vars(obj).items()):
                        if not (_is_public(mname) or mname in DUNDERS or mname in extra):
                            continue
                        qualname = f"{layer}.{obj.__name__}.{mname}"
                        query = _is_query(mname)
                        if inspect.isfunction(member):
                            self._set(obj, mname, wrap(qualname, member, query))
                        elif isinstance(member, (classmethod, staticmethod)):
                            kind = type(member)
                            self._set(obj, mname, kind(wrap(qualname, member.__func__, query)))
        self._rebind(replaced)

    def _rebind(self, replaced):
        """Point imported names and module-level containers at the wrappers."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ahweyl" or name.startswith("ahweyl.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
                elif isinstance(obj, list) and any(id(v) in replaced for v in obj):
                    self._set(mod, attr, [replaced.get(id(v), v) for v in obj])
                elif isinstance(obj, tuple) and any(id(v) in replaced for v in obj):
                    self._set(mod, attr, tuple(replaced.get(id(v), v) for v in obj))
                elif isinstance(obj, dict) and any(id(v) in replaced for v in obj.values()):
                    self._set(mod, attr, {k: replaced.get(id(v), v) for k, v in obj.items()})

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------------------

    def _columns(self):
        return (
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
            ("job", self.span_job),
        )

    def write_spans(self, path):
        """Gzip of one JSON header line (span names, column types, span
        count), then each column as the raw bytes of its array, in header
        order."""
        header = {
            "names": self.names,
            "columns": [[name, col.typecode] for name, col in self._columns()],
            "count": len(self.span_name),
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for _, col in self._columns():
                out.write(col.tobytes())


def read_spans(path):
    """(names, {column: array}) as written by Tracer.write_spans."""
    with gzip.open(path, "rb") as src:
        header = json.loads(src.readline())
        columns = {}
        for name, typecode in header["columns"]:
            col = array(typecode)
            col.frombytes(src.read(col.itemsize * header["count"]))
            columns[name] = col
    return header["names"], columns


def self_times(parents, starts, ends):
    """Per span: (self time, has children). Self time is the span's duration
    minus the durations of its direct children; calls nest, so children
    never overlap one another."""
    n = len(parents)
    child_time = [0.0] * n
    has_child = [False] * n
    for i in range(n):
        par = parents[i]
        if par >= 0:
            child_time[par] += ends[i] - starts[i]
            has_child[par] = True
    return [ends[i] - starts[i] - child_time[i] for i in range(n)], has_child


def layer_metrics(tracer: Tracer) -> dict:
    """Counts and self times per operation group and per layer."""
    selfs, has_child = self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    group_of = {}
    for group, qualnames in OPS.items():
        for q in qualnames:
            group_of[q] = group
    by_name_self = defaultdict(float)
    by_name_calls = defaultdict(int)
    yhat_id = tracer.name_ids.get("context.AhContext.yhat_power")
    yhat_hits = 0
    for i, name_id in enumerate(tracer.span_name):
        by_name_self[name_id] += selfs[i]
        by_name_calls[name_id] += 1
        if name_id == yhat_id and not has_child[i]:
            yhat_hits += 1
    out = defaultdict(int)
    for name_id, total in by_name_self.items():
        qualname = tracer.names[name_id]
        layer = qualname.split(".", 1)[0]
        out[f"{layer}.self_s"] += total
        group = group_of.get(qualname)
        if group:
            out[f"{group}.self_s"] += total
            out[f"{group}.calls"] += by_name_calls[name_id]
    for qualname, calls in tracer.counts.items():
        group = group_of.get(qualname)
        if group:
            out[f"{group}.calls"] += calls
    for key in ("poly.mul.coeff_products", "weyl.mul.term_pairs", "linalg.nullspace.cells", "parse.input_bytes"):
        out[key] = tracer.extra[key]
    products = tracer.extra["poly.mul.products"]
    out["poly.mul.large_share"] = tracer.extra["poly.mul.large"] / products if products else 0.0
    calls = out["context.yhat_power.calls"]
    out["context.yhat_power.hit_ratio"] = yhat_hits / calls if calls else 0.0
    out["spans"] = len(tracer.span_name)
    return dict(out)
