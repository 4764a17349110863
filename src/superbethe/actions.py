"""Action of monodromy entries on Bethe vectors, data-driven.

Each of the seven gl(2|1) formulas lives in data/action_formulas.json as a
list of terms (partition shape, coefficient expression, target vector
arguments), so every term is individually auditable. action_check compares

    T_el(z) / (lam2(z) h(vbar,z)) . B(ubar; vbar)

against the table-driven right-hand side; residuals are exactly zero. Target
vectors whose argument sets share z are evaluated through the eps-limit
builder. T31 and T32 have no tabulated action and are rejected.
"""

from __future__ import annotations

import json
from importlib import resources

from .bethe import build_vector, build_vector_limit
from .composite import PartialCache
from .graded import GL21, GradedVector
from .notation import Binding, PartSpec, PartitionSpec, enumerate_partitions, parse
from .scalars import h, prod_pairs

ELEMENTS = ("T11", "T22", "T33", "T13", "T23", "T12", "T21")

_DEFAULT_TABLE = None


def load_formula_table(path=None) -> dict:
    """Parse a formula table; with no path, the packaged default (cached)."""
    global _DEFAULT_TABLE
    if path is None:
        if _DEFAULT_TABLE is None:
            raw = resources.files("superbethe").joinpath("data/action_formulas.json").read_text()
            _DEFAULT_TABLE = _compile(json.loads(raw))
        return _DEFAULT_TABLE
    with open(path) as fh:
        return _compile(json.load(fh))


def _compile(raw) -> dict:
    table = {}
    for element, terms in raw.items():
        if element.startswith("_"):
            continue
        if element not in ELEMENTS:
            raise ValueError(f"unknown monodromy element {element!r} in formula table")
        compiled = []
        for term in terms:
            parts = []
            for entry in term["partitions"]:
                source, *singles, rest = entry
                parts.append(
                    PartitionSpec(source, tuple(PartSpec(s, 1) for s in singles) + (PartSpec(rest),))
                )
            compiled.append((tuple(parts), parse(term["coefficient"]), tuple(term["target"])))
        table[element] = compiled
    missing = [el for el in ELEMENTS if el not in table]
    if missing:
        raise ValueError(f"formula table lacks elements {missing}")
    return table


def _concat(binding, spec):
    if isinstance(spec, (list, tuple)):
        out = ()
        for name in spec:
            out = out + binding.sets[name]
        return out
    return binding.sets[spec]


def action_rhs(model, element, us, vs, z, table=None, cache=None):
    """Table-driven right-hand side of the normalized action of element at z."""
    table = table or load_formula_table()
    cache = cache if cache is not None else PartialCache(build_vector_limit)
    base = Binding(
        {"ubar": tuple(us), "vbar": tuple(vs), "z": (z,)},
        c=model.c,
        funcs={"r1": lambda x: model.r(1, x), "r3": lambda x: model.r(3, x)},
    )
    from .notation import eval_expr

    acc = GradedVector(model.sig, model.arity)
    for parts, coeff_ast, target in table[element]:
        bindings = [base]
        for spec in parts:
            bindings = [nb for b in bindings for nb in enumerate_partitions(spec, b.sets[spec.source], b)]
        for b in bindings:
            coef = eval_expr(coeff_ast, b)
            tu, tv = _concat(b, target[0]), _concat(b, target[1])
            acc = acc.add(cache.get("t", model, tu, tv).scale(coef))
    return acc


def action_check(model, element, us, vs, z, table=None, cache=None):
    """Normalized direct action minus the tabulated expansion; zero iff exact."""
    if model.sig != GL21:
        raise ValueError("action formulas are the gl(2|1) set")
    us, vs = tuple(us), tuple(vs)
    i, j = int(element[1]), int(element[2])
    norm = 1 / (model.lam(2, z) * prod_pairs(h, vs, (z,), model.c))
    lhs = model.apply_T(i, j, z, build_vector(model, us, vs)).scale(norm)
    return lhs.sub(action_rhs(model, element, us, vs, z, table=table, cache=cache))
