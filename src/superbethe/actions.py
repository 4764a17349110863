"""Action of monodromy entries on Bethe vectors, data-driven.

A table term is a partition shape, a shorthand coefficient and the target
vector's arguments, so every term is individually auditable. action_check
compares

    T_el(z) / (lam2(z) h(vbar,z)) . B(ubar; vbar)

against the table-driven right-hand side; residuals are exactly zero. Every
coefficient, and the normalization's h(vbar,z) (NORM), is shorthand
evaluated by notation, on one Binding of ubar, vbar and z per check. A
target vector whose argument sets share z is evaluated there: its builder
returns the nested vector (bethe.nested_vector). A term whose target is
zero by weight on the model (Model.weight_space_nonempty, through
bethe.weight_gated) is skipped whole: its coefficient is not read and its
target not built. T31 and T32 have no tabulated action and are rejected.
"""

from __future__ import annotations

import json
from functools import cache
from importlib import resources

from .bethe import PartialCache, build_vector, weight_gated
from .errors import SchemaError
from .graded import GL21, GradedVector
from .notation import Binding, compile_table, evaluate, partition_sum

ELEMENTS = ("T11", "T22", "T33", "T13", "T23", "T12", "T21")
_FUNCS = ("r1", "r3")

# the normalization of every action at z, but for the 1/lam2(z)
NORM = "1/h(vbar,z)"


def load_formula_table(path=None) -> dict:
    """Parse a formula table; with no path, the packaged default (cached)."""
    if path is None:
        return _packaged_table()
    with open(path) as fh:
        return _compile(json.load(fh))


@cache
def _packaged_table():
    return _compile(json.loads(resources.files("superbethe").joinpath("data/action_formulas.json").read_text()))


def _compile(raw) -> dict:
    table = compile_table(raw, ("ubar", "vbar", "z"), _FUNCS)
    unknown = [el for el in table if el not in ELEMENTS]
    if unknown:
        raise SchemaError(f"unknown monodromy element {unknown[0]!r}", "/" + unknown[0])
    missing = [el for el in ELEMENTS if el not in table]
    if missing:
        raise SchemaError(f"formula table lacks elements {missing}", "/")
    return table


def action_binding(model, us, vs, z) -> Binding:
    """The sets ubar, vbar, z and the ratio functions r1, r3 a table row reads."""
    return Binding(
        {"ubar": tuple(us), "vbar": tuple(vs), "z": (z,)},
        c=model.c,
        funcs={"r1": lambda x: model.r(1, x), "r3": lambda x: model.r(3, x)},
    )


def action_norm(model, vs, z, base=None):
    """1 / (lam2(z) h(vs,z)), the normalization of every action at z: NORM
    on base, a Binding of vbar and z (one of vs and z if not given), over
    lam2(z) from the point's record in Model.points."""
    lam2 = model.points[model.point_id(z)][1]
    return evaluate(NORM, base or Binding({"vbar": tuple(vs), "z": (z,)}, c=model.c), [lam2[::-1]])


def action_rhs(model, element, us, vs, z, table=None, builder=build_vector, base=None):
    """Table-driven right-hand side of the normalized action of element at
    z, summed over base (action_binding if not given), each target vector
    built once by builder(model, us, vs): by default the Bethe vector,
    which is the nested vector at coincident parameters
    (bethe.build_vector)."""
    table = table or load_formula_table()
    partials = PartialCache(builder)
    target = weight_gated(lambda args, keys: partials.get("t", model, *args, key=keys), model)
    base = base or action_binding(model, us, vs, z)
    return partition_sum(table[element], base, target, GradedVector(model.sig, model.arity))


def action_check(model, element, us, vs, z, table=None):
    """Normalized direct action minus the tabulated expansion; zero iff exact."""
    if model.sig != GL21:
        raise ValueError("action formulas are the gl(2|1) set")
    us, vs = tuple(us), tuple(vs)
    i, j = int(element[1]), int(element[2])
    base = action_binding(model, us, vs, z)
    norm = action_norm(model, vs, z, base)
    lhs = model.apply_T(i, j, z, build_vector(model, us, vs), norm)
    return lhs.sub(action_rhs(model, element, us, vs, z, table=table, base=base))
