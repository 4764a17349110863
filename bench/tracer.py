"""Layer spans for superbethe, recorded from outside the package.

``Tracer.install`` replaces each layer's public entry points by timing
wrappers: in every loaded ``superbethe`` module that refers to them (module
globals and default arguments, such as ``bilinear_sum(builder=build_vector)``)
and on the classes whose methods are entry points. ``Tracer.uninstall`` puts
the originals back, so untraced rounds run the program untouched.

A span is (name, parent, start, end), with times read from the clock the
tracer is given (speedclock.SpeedClock.now in the benchmark, so spans are in
reference-speed seconds). Spans stay in memory as flat arrays and are written
out once, when the run ends. A span's self time is its
duration minus the time covered by its child spans. Grouped time metrics
(``graded.compose_s``, ``bethe.build_s``, ...) are inclusive: the duration of
the outermost span of the group, so nested calls are not counted twice.

Counts are taken at the same boundaries and are deterministic: they depend
only on the inputs, never on timing, so two runs must agree on them exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from math import comb

# the program's layers; spans the benchmark opens around its own checks
# belong to "bench" and are not reported
LAYERS = ("scalars", "graded", "monodromy", "bethe", "composite", "cli")

EPS_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)

def partition_terms(a, b):
    """Number of (uI, vI) splits with #uI = #vI: sum_n C(a,n) C(b,n)."""
    return sum(comb(a, n) * comb(b, n) for n in range(min(a, b) + 1))


def _post_compose(tracer, args, result):
    tracer.counts["graded.compose_out_nnz"] += result.nnz()


def _post_embed(tracer, args, result):
    tracer.counts["graded.embed_out_nnz"] += result.nnz()


def _post_build(tracer, args, result):
    tracer.counts["monodromy.build_out_nnz"] += result.nnz()
    if isinstance(args[4], tracer.eps_type):
        tracer.counts["monodromy.builds_eps"] += 1


def _post_vector(tracer, args, result):
    tracer.counts["bethe.partition_terms"] += partition_terms(len(args[1]), len(args[2]))


def _post_bilinear(tracer, args, result):
    # us and vs each split into two free parts: 2^a * 2^b terms
    tracer.counts["composite.bilinear_terms"] += 2 ** (len(args[2]) + len(args[3]))


# (module, attribute, span name, layer, time group, calls counter, post hook)
# A dotted attribute is a method; its class is patched.
ENTRY_POINTS = [
    ("superbethe.scalars", "izergin", "scalars.izergin", "scalars", "scalars.izergin_s", "scalars.izergin_calls", None),
    ("superbethe.scalars", "eps_limit", "scalars.eps_limit", "scalars", None, "scalars.eps_limit_calls", None),
    ("superbethe.graded", "GradedOperator.compose", "graded.compose", "graded", "graded.compose_s", "graded.compose_calls", _post_compose),
    ("superbethe.graded", "GradedOperator.apply", "graded.apply", "graded", "graded.apply_s", "graded.apply_calls", None),
    ("superbethe.graded", "GradedOperator.apply_dual", "graded.apply_dual", "graded", "graded.apply_s", "graded.apply_calls", None),
    ("superbethe.graded", "embed", "graded.embed", "graded", "graded.embed_s", "graded.embed_calls", _post_embed),
    ("superbethe.graded", "koszul_tensor", "graded.koszul_tensor", "graded", "graded.koszul_tensor_s", None, None),
    ("superbethe.graded", "r_matrix", "graded.r_matrix", "graded", None, None, None),
    ("superbethe.graded", "check_ybe", "graded.check_ybe", "graded", None, None, None),
    ("superbethe.monodromy", "build_factor_product", "monodromy.build", "monodromy", "monodromy.build_s", "monodromy.builds", _post_build),
    ("superbethe.monodromy", "extract_entries", "monodromy.extract", "monodromy", "monodromy.extract_s", "monodromy.extracts", None),
    ("superbethe.monodromy", "check_rtt", "monodromy.check_rtt", "monodromy", None, None, None),
    ("superbethe.monodromy", "check_supercommutator", "monodromy.check_supercommutator", "monodromy", None, None, None),
    ("superbethe.monodromy", "vacuum_residuals", "monodromy.vacuum_residuals", "monodromy", None, None, None),
    ("superbethe.bethe", "build_vector", "bethe.build_vector", "bethe", "bethe.build_s", "bethe.vectors", _post_vector),
    ("superbethe.bethe", "build_dual_vector", "bethe.build_dual_vector", "bethe", "bethe.build_s", "bethe.vectors", _post_vector),
    ("superbethe.bethe", "build_vector_limit", "bethe.build_vector_limit", "bethe", "bethe.build_s", "bethe.limit_vectors", None),
    ("superbethe.bethe", "build_dual_vector_limit", "bethe.build_dual_vector_limit", "bethe", "bethe.build_s", "bethe.limit_vectors", None),
    ("superbethe.gl12", "build_tilde_vector", "bethe.build_tilde_vector", "bethe", "bethe.build_s", "bethe.vectors", _post_vector),
    ("superbethe.gl12", "build_tilde_dual_vector", "bethe.build_tilde_dual_vector", "bethe", "bethe.build_s", "bethe.vectors", _post_vector),
    ("superbethe.gl12", "check_tilde_factorization", "bethe.check_tilde_factorization", "bethe", None, None, None),
    ("superbethe.gl12", "check_tilde_dual_factorization", "bethe.check_tilde_dual_factorization", "bethe", None, None, None),
    ("superbethe.gl12", "resolve_sign", "bethe.resolve_sign", "bethe", None, None, None),
    ("superbethe.composite", "bilinear_sum", "composite.bilinear_sum", "composite", "composite.bilinear_s", "composite.bilinear_sums", _post_bilinear),
    ("superbethe.composite", "bilinear_sum_limit", "composite.bilinear_sum_limit", "composite", "composite.bilinear_s", None, None),
    ("superbethe.composite", "check_bethe_factorization", "composite.check_bethe_factorization", "composite", None, None, None),
    ("superbethe.composite", "check_dual_bethe_factorization", "composite.check_dual_bethe_factorization", "composite", None, None, None),
    ("superbethe.composite", "check_factor_exchange", "composite.check_factor_exchange", "composite", None, None, None),
    ("superbethe.composite", "check_recursion", "composite.check_recursion", "composite", None, None, None),
    ("superbethe.composite", "check_composite_creation_actions", "composite.check_composite_creation_actions", "composite", None, None, None),
    ("superbethe.composite", "action_decomposition_report", "composite.action_decomposition_report", "composite", None, None, None),
    ("superbethe.composite", "compose_monodromy", "composite.compose_monodromy", "composite", None, None, None),
    ("superbethe.actions", "action_check", "actions.action_check", "composite", None, "actions.action_checks", None),
    ("superbethe.actions", "action_rhs", "actions.action_rhs", "composite", "actions.rhs_s", None, None),
    ("superbethe.notation", "eval_expr", "notation.eval_expr", "composite", "notation.eval_s", None, None),
] + [
    ("superbethe.scalars", "EpsScalar." + op, "scalars.eps" + op, "scalars", "scalars.eps_s", "scalars.eps_ops", None)
    for op in EPS_OPS
]

# time groups whose functions recurse into themselves: only the outermost
# call gets a span
RECURSIVE_GROUPS = {"notation.eval_s"}

TIME_GROUPS = sorted({e[4] for e in ENTRY_POINTS if e[4]})
COUNTERS = sorted({e[5] for e in ENTRY_POINTS if e[5]}) + [
    "bethe.partition_terms",
    "composite.bilinear_terms",
    "composite.partial_cache_calls",
    "composite.partial_cache_hits",
    "graded.compose_out_nnz",
    "graded.embed_out_nnz",
    "monodromy.build_out_nnz",
    "monodromy.builds_eps",
    "monodromy.cache_calls",
    "monodromy.cache_hits",
    "monodromy.entries_cache_calls",
    "monodromy.entries_cache_hits",
]


def _resolve(module_name, attr):
    mod = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, now):
        self._now = now
        self.names = []
        self.layer_of = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._child = []
        self._undo = []
        self.new_round()

    # -- recording -----------------------------------------------------------

    def name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def new_round(self):
        """Start fresh per-round aggregates; spans keep accumulating."""
        self.counts = Counter()
        self.group_time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.depth = Counter()
        self.round_first_span = len(self.span_start)

    def enter(self, nid, group):
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        stack.append(len(self.span_start))
        self._child.append(0.0)
        if group:
            self.depth[group] += 1
        self.span_end.append(0.0)
        self.span_start.append(self._now())

    def exit(self, group):
        end = self._now()
        idx = self._stack.pop()
        child = self._child.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_time[self.span_name[idx]] += dur - child
        if self._child:
            self._child[-1] += dur
        if group:
            d = self.depth[group] - 1
            self.depth[group] = d
            if not d:
                self.group_time[group] += dur

    def span(self, name, layer):
        """Context manager for spans opened by the benchmark itself."""
        return _Span(self, self.name_id(name, layer))

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, nid, group, calls_key, post):
        tracer = self
        recursive = group in RECURSIVE_GROUPS

        def wrapper(*args, **kwargs):
            if recursive and tracer.depth[group]:
                return fn(*args, **kwargs)
            tracer.enter(nid, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(group)
            if calls_key:
                tracer.counts[calls_key] += 1
            if post is not None:
                post(tracer, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _cache_probe(self, fn, calls_key, hits_key, build_keys):
        """Count calls, and hits: calls during which no build happened."""
        tracer = self

        def wrapper(*args, **kwargs):
            counts = tracer.counts
            before = sum(counts[k] for k in build_keys)
            result = fn(*args, **kwargs)
            counts[calls_key] += 1
            if sum(counts[k] for k in build_keys) == before:
                counts[hits_key] += 1
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every entry point; the program itself is not edited."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.eps_type = importlib.import_module("superbethe.scalars").EpsScalar
        replacements = {}
        for module_name, attr, span_name, layer, group, calls_key, post in ENTRY_POINTS:
            owner, name = _resolve(module_name, attr)
            orig = owner.__dict__[name]
            wrapper = self._wrap(orig, self.name_id(span_name, layer), group, calls_key, post)
            if owner.__class__ is type:
                self._set(owner, name, wrapper)
            else:
                replacements[id(orig)] = (orig, wrapper)
        monodromy = importlib.import_module("superbethe.monodromy")
        composite = importlib.import_module("superbethe.composite")
        self._set(
            monodromy.Model,
            "monodromy_op",
            self._cache_probe(
                monodromy.Model.monodromy_op, "monodromy.cache_calls", "monodromy.cache_hits", ("monodromy.builds",)
            ),
        )
        self._set(
            monodromy.Model,
            "monodromy",
            self._cache_probe(
                monodromy.Model.monodromy,
                "monodromy.entries_cache_calls",
                "monodromy.entries_cache_hits",
                ("monodromy.extracts",),
            ),
        )
        self._set(
            composite.PartialCache,
            "get",
            self._cache_probe(
                composite.PartialCache.get,
                "composite.partial_cache_calls",
                "composite.partial_cache_hits",
                ("bethe.vectors", "bethe.limit_vectors"),
            ),
        )
        self._rebind(replacements)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind(self, replacements):
        """Point module globals and default arguments at the wrappers."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "superbethe" or n.startswith("superbethe.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, hit[1])
        for mod in modules:
            for value in list(vars(mod).values()):
                for fn in _functions_of(value, mod.__name__):
                    self._rebind_defaults(fn, replacements)

    def _rebind_defaults(self, fn, replacements):
        defaults = fn.__defaults__
        if defaults and any(id(d) in replacements for d in defaults):
            new = tuple(replacements[id(d)][1] if id(d) in replacements else d for d in defaults)
            self._undo.append((fn, "__defaults__", defaults))
            fn.__defaults__ = new
        kwdefaults = fn.__kwdefaults__
        if kwdefaults and any(id(d) in replacements for d in kwdefaults.values()):
            new = {k: replacements[id(d)][1] if id(d) in replacements else d for k, d in kwdefaults.items()}
            self._undo.append((fn, "__kwdefaults__", kwdefaults))
            fn.__kwdefaults__ = new

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ------------------------------------------------------------

    def round_summary(self):
        """Counts and times of the round since the last new_round()."""
        layer_self = defaultdict(float)
        for nid, t in self.self_time.items():
            layer_self[self.layer_of[nid]] += t
        return {
            "counts": {k: self.counts[k] for k in COUNTERS},
            "group_s": {k: self.group_time[k] for k in TIME_GROUPS},
            "layer_self_s": {layer: layer_self[layer] for layer in LAYERS},
            "named_s": {self.names[nid]: t for nid, t in self.self_time.items()},
            "spans": len(self.span_start) - self.round_first_span,
        }

    def spans_json(self):
        return {
            "names": self.names,
            "layers": self.layer_of,
            "columns": ["name", "parent", "start", "end"],
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
        }


class _Span:
    __slots__ = ("tracer", "nid")

    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.tracer.enter(self.nid, None)

    def __exit__(self, *exc):
        self.tracer.exit(None)


def _functions_of(value, module_name):
    """Plain functions defined in the module: top-level ones and methods."""
    if callable(value) and getattr(value, "__module__", None) == module_name and hasattr(value, "__defaults__"):
        yield value
    elif isinstance(value, type) and value.__module__ == module_name:
        for member in vars(value).values():
            if hasattr(member, "__defaults__") and hasattr(member, "__code__"):
                yield member
