"""src/ holds what a shipped command runs.

The shipped commands (verify, report and bethe eval at (u, v) = (3, 1) and
(3, 3), on configs/quick.json) run in process under sys.setprofile, which
records the code object of every Python function called. Every module-level
function and class member of the package must be among them, or be named in
ALLOWED with the reason it stays. Functions are told apart by code object
(Python 3.10 has no co_qualname): a functools.cache wrapper counts as the
function it wraps, a property as its getter. An entry of ALLOWED that names
nothing, or names a function the commands reach, fails the test too, so the
list stays the list of what no command runs.
"""

import inspect
import os
import pkgutil
import sys
from contextlib import redirect_stdout
from importlib import import_module
from io import StringIO

import superbethe
from superbethe.cli import main

QUICK = os.path.join(os.path.dirname(__file__), "..", "configs", "quick.json")

ALLOWED = {
    # bench/ calls them, or bench/tracer.py resolves them by name
    "bethe.build_vector_limit": "bench/tracer.py wraps it by name",
    "bethe.build_dual_vector_limit": "bench/tracer.py wraps it by name",
    "composite.bilinear_sum_limit": "bench/tracer.py wraps it by name",
    "graded.GradedOperator.nnz": "bench/tracer.py reads the size of the operators it wraps",
    "graded.GradedOperator.apply": "bench/ applies T_ii(u) to Omega; the tracer wraps it by name",
    "graded.GradedOperator.apply_dual": "bench/tracer.py wraps it by name",
    "graded.r_matrix": "bench/ composes R(u,v) R(v,u); the tracer wraps it by name",
    "monodromy.build_factor_product": "bench/tracer.py wraps it by name",
    "monodromy.Monodromy.entry": "bench/ reads T_ij(u) through Model.T",
    "monodromy.Model.monodromy_op": "bench/tracer.py probes it by name",
    "monodromy.Model.T": "bench/ reads every entry of T(u)",
    "gl12.resolve_sign": "bench/ calls it and bench/tracer.py wraps it by name, until a benchmark change drops it",
    # EpsScalar, which no shipped command builds any more, stays as the
    # surface bench/tracer.py wraps by name until a benchmark change drops it
    "scalars.eps_limit": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__add__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__sub__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__rsub__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__mul__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__truediv__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__rtruediv__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__neg__": "bench/tracer.py wraps it by name",
    "scalars.EpsScalar.__bool__": "a predicate of the EpsScalar surface bench/tracer.py wraps by name",
    "scalars.EpsScalar.__hash__": "a predicate of the EpsScalar surface bench/tracer.py wraps by name",
    "scalars.EpsScalar.__eq__": "a predicate of the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._series": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._top": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._add": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._mul": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._div": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._scale": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._neg": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._divisor": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    "scalars._limit_of_quotient": "series arithmetic under the EpsScalar surface bench/tracer.py wraps by name",
    # error paths and guards
    "errors.SchemaError.__init__": "raised on a malformed config or formula table",
    "graded.unpack": "reads a residual back only when it is nonzero",
    "notation.ExprSyntaxError.__init__": "raised on malformed shorthand",
    "notation._Parser.error": "raises ExprSyntaxError on malformed shorthand",
    "notation._Sets.__missing__": "raises UnboundName for a set no Binding binds",
    "scalars.EpsScalar.__new__": "refuses construction: values are built from EPS",
    "scalars.EpsScalar.__setattr__": "refuses mutation",
    # chains longer than the quick config's
    "monodromy._in_two_processes": "splits an RTT pass from L = 4 on; the quick config's chains stop at L = 3 and the full config's L = 4 chain runs it",
    # reprs and equality
    "graded.GradedOperator.__repr__": "debugging output",
    "graded.GradedOperator.__eq__": "tests compare operators",
    "graded.GradedVector.__repr__": "debugging output",
    "graded.GradedVector.__eq__": "tests compare vectors",
    "scalars.EpsScalar.__repr__": "debugging output",
    # waiting for a shipped caller
    "graded.DualGradedVector.pair": "the scalar products of ROADMAP item 10 will call it",
    # helpers that only the tests use
    "notation.print_expr": "tests print shorthand back",
    "graded.clear_denominators": "tests clear R(u, v) as _rtt_pass does",
    "monodromy.Model.lam": "tests read lam_i(u) as one value; the runs read its int pair (lam_pair)",
    "graded.GradedOperator.entry": "tests read single operator entries",
    "graded.GradedOperator.support_parity": "tests read the parity of an operator",
    "sampling.ParameterSampler.rational": "tests draw single rationals",
    "sampling.ParameterSampler.nonzero": "tests draw nonzero rationals",
    "sampling.ParameterSampler.twist": "tests draw twists",
}


def _members(scope):
    """What a module or class defines, a static or class method as its
    function and a property as its getter."""
    for value in vars(scope).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        yield value


def package_functions():
    """{code object: "module.qualname"} for every module-level function and
    class member defined in the package's source, and the functools cache
    wrappers among them."""
    root = os.path.dirname(superbethe.__file__)
    codes, caches = {}, []
    for info in pkgutil.iter_modules(superbethe.__path__):
        module = import_module(f"superbethe.{info.name}")
        classes = [v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == module.__name__]
        for scope in [module, *classes]:
            for value in _members(scope):
                if hasattr(value, "cache_clear"):
                    caches.append(value)
                func = inspect.unwrap(value)
                code = getattr(func, "__code__", None)
                if code is not None and os.path.dirname(code.co_filename) == root:
                    codes.setdefault(code, f"{info.name}.{func.__qualname__}")
    return codes, caches


def reached_by_shipped_commands(tmp_path, caches):
    """The code objects called while the shipped commands run, from cold
    caches, so that what an earlier test computed is computed again."""
    for wrapper in caches:
        wrapper.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    commands = (
        ["verify", "--config", QUICK],
        ["report", "--config", QUICK, "--out", str(tmp_path / "report.json")],
        ["bethe", "eval", "--config", QUICK, "--u", "3", "--v", "1"],
        ["bethe", "eval", "--config", QUICK, "--u", "3", "--v", "3"],
    )
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with redirect_stdout(StringIO()):
            codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(commands)
    return seen


def test_every_src_function_is_reached_or_allowed(tmp_path):
    codes, caches = package_functions()
    seen = reached_by_shipped_commands(tmp_path, caches)
    names = set(codes.values())
    unreached = {name for code, name in codes.items() if code not in seen}
    assert sorted(unreached - set(ALLOWED)) == [], "functions no shipped command runs"
    assert sorted(set(ALLOWED) - names) == [], "allowed names that the package does not define"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed names that a shipped command now runs"
