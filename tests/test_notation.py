import json
from importlib import resources
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from superbethe.notation import (
    Binding,
    Call,
    Div,
    ExprSyntaxError,
    Mul,
    PartSpec,
    PartitionSpec,
    UnboundName,
    UnsatisfiableSpec,
    compile_terms,
    enumerate_partitions,
    evaluate,
    parse,
    partition_sum,
    print_expr,
)
from superbethe.bethe import BETHE_WEIGHT, _bethe_weight
from superbethe.errors import DivisionByZero, PoleAtZero
from superbethe.gl12 import TILDE_WEIGHT, _tilde_weight
from superbethe.graded import GL21, GradedVector
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import EPS, PairTable, ratio

from oracles import ORACLE_C, assert_shorthand_matches, outcome, packaged_bases


def test_parse_structure():
    ast = parse("f(uII,uI)*g(vI,vII)/f(vII,uI)")
    assert isinstance(ast, Div)
    assert isinstance(ast.left, Mul)
    assert ast.right == Call("f", ("vII", "uI"))
    assert parse("K(vI|uI)") == Call("K", ("vI", "uI"))


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("f(uII,uI")
    assert err.value.offset == 9


def test_roundtrip_on_package_formula_tables():
    raw = json.loads(resources.files("superbethe").joinpath("data/action_formulas.json").read_text())
    exprs = [t["coefficient"] for el, terms in raw.items() if not el.startswith("_") for t in terms]
    classes = json.loads(resources.files("superbethe").joinpath("data/composite_classes.json").read_text())
    exprs += [t["coefficient"] for name, terms in classes.items() if not name.startswith("_") for t in terms]
    from superbethe import composite, gl12

    exprs += [composite.KET_COEFF, composite.BRA_COEFF, gl12.TILDE_KET_COEFF, gl12.TILDE_BRA_COEFF]
    assert len(exprs) > 30
    for text in exprs:
        ast = parse(text)
        assert parse(print_expr(ast)) == ast


names = st.sampled_from(["uI", "uII", "vI", "vII", "z"])
calls = st.one_of(
    st.builds(Call, st.sampled_from(["f", "g", "h"]), st.tuples(names, names)),
    st.builds(Call, st.just("K"), st.tuples(names, names)),
)
exprs = st.recursive(calls, lambda inner: st.builds(Mul, inner, inner) | st.builds(Div, inner, calls), max_leaves=8)


@given(exprs)
def test_roundtrip_generated(ast):
    assert parse(print_expr(ast)) == ast


def test_evaluate_worked_example():
    b = Binding({"uI": (1,), "uII": (3,), "vI": (5,), "vII": (7,)}, c=1)
    assert evaluate("f(uII,uI)*g(vI,vII)/f(vII,uI)", b) == rat(-9, 14)
    assert evaluate("g(vI,vII)", Binding({"vI": (), "vII": (7,)}, c=1)) == 1
    assert evaluate("K(vI|uI)", Binding({"vI": (2,), "uI": (1,)}, c=1)) == 1


def test_evaluate_literals_and_powers():
    b = Binding({})
    assert evaluate("3*2/4", b) == rat(3, 2)
    assert evaluate("-(2)^3", b) == -8
    assert evaluate("(-1)^2", b) == 1


def test_unbound_name():
    with pytest.raises(UnboundName):
        evaluate("f(uI,uII)", Binding({"uI": (1,)}, c=1))
    with pytest.raises(UnboundName):
        evaluate("r9(uI)", Binding({"uI": (1,)}, c=1))


def test_call_arity_is_refused():
    """A pair function is refused for its arity before its sets are looked
    up; a unary one once its name is bound."""
    b = Binding({"uI": (1,)}, c=1, funcs={"r1": lambda x: x})
    for text in ("g(uI)", "f(uI,uII,vI)", "r1(uI,uI)"):
        with pytest.raises(ValueError, match="set argument"):
            evaluate(text, b)
    with pytest.raises(UnboundName):
        evaluate("r9(uI,uI)", b)


def test_eval_is_order_insensitive():
    b1 = Binding({"uI": (1, 4, 9), "vI": (2, 7)}, c=1)
    b2 = Binding({"uI": (9, 1, 4), "vI": (7, 2)}, c=1)
    for text in ("f(uI,vI)", "g(vI,uI)", "h(uI,uI)"):
        assert evaluate(text, b1) == evaluate(text, b2)


def test_partition_counts():
    free2 = PartitionSpec("u", (PartSpec("a"), PartSpec("b")))
    assert len(enumerate_partitions(free2, (1, 2))) == 4
    single = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("rest")))
    assert len(enumerate_partitions(single, (1, 2, 3))) == 3
    constrained = PartitionSpec("v", (PartSpec("vI", 0), PartSpec("vII")))
    out = enumerate_partitions(constrained, (1,))
    assert len(out) == 1 and out[0].sets["vII"] == (1,)


def test_partitions_exhaustive_and_duplicate_free():
    for n in range(5):
        universe = tuple(range(10, 10 + n))
        spec = PartitionSpec("u", (PartSpec("a"), PartSpec("b")))
        got = {(b.sets["a"], b.sets["b"]) for b in enumerate_partitions(spec, universe)}
        brute = set()
        for mask in product((0, 1), repeat=n):
            a = tuple(universe[i] for i in range(n) if mask[i] == 0)
            b = tuple(universe[i] for i in range(n) if mask[i] == 1)
            brute.add((a, b))
        assert got == brute
        assert len(enumerate_partitions(spec, universe)) == 2 ** n


def test_ordered_singleton_pairs():
    spec = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("u1", 1), PartSpec("rest")))
    out = enumerate_partitions(spec, (5, 6))
    assert {(b.sets["u0"], b.sets["u1"]) for b in out} == {((5,), (6,)), ((6,), (5,))}


def test_empty_family_vs_unsatisfiable():
    single = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("rest")))
    assert enumerate_partitions(single, ()) == []
    dup = PartitionSpec("u", (PartSpec("x"), PartSpec("x")))
    with pytest.raises(UnsatisfiableSpec):
        enumerate_partitions(dup, (1,))


def test_binding_rejects_rebinds():
    b = Binding({"u": (1,)})
    with pytest.raises(ValueError):
        b.with_sets({"u": (2,)})


def test_partition_sum_takes_the_limit_of_eps_coefficients():
    """An EpsScalar coefficient enters as its value at eps = 0; one with a
    pole raises, and its term is never dropped."""
    omega = GradedVector.basis(GL21, (1,))
    target = lambda b, args: omega
    base = Binding({"u": (rat(3),), "v": (rat(3) + EPS,), "w": (rat(5),)})

    def total(coefficient):
        raw = [{"partitions": [], "coefficient": coefficient, "target": ["u", "v"]}]
        return partition_sum(compile_terms(raw, ("u", "v", "w"), ()), base, target, GradedVector(GL21, 1))

    assert total("h(u,v)*g(u,w)") == omega.scale(rat(-1, 2))  # h(3,3) g(3,5)
    assert total("1/f(u,v)").is_zero()  # a zero of order one at eps = 0
    with pytest.raises(PoleAtZero):
        total("g(u,v)")


@pytest.mark.parametrize("shifted", [False, True], ids=["rational", "eps-shifted"])
def test_packaged_coefficients_match_the_per_pair_oracle(shifted):
    """Every coefficient of the action table and the class table, at every
    partition of a seeded binding at (a,b) = (2,2), equals the eps-limit of
    its pair-by-pair evaluation; at the shifted binding ubar and vbar share
    a parameter up to eps."""
    count = 0
    for terms, base in packaged_bases(2, 2, "shorthand-oracle", shifted):
        count += len(assert_shorthand_matches(terms, base))
    assert count == 252


def test_a_coefficient_with_a_pole_raises_on_both_paths():
    (terms, base), *_ = packaged_bases(2, 2, "shorthand-oracle", shifted=True)
    raw = [{"partitions": [], "coefficient": "r1(z)*g(vbar,ubar)", "target": ["ubar", "vbar"]}]
    assert assert_shorthand_matches(compile_terms(raw, ("ubar", "vbar", "z"), ("r1",)), base) == [PoleAtZero]


@pytest.mark.parametrize("shifted", [False, True], ids=["rational", "eps-shifted"])
@pytest.mark.parametrize("text, weight", [(BETHE_WEIGHT, _bethe_weight), (TILDE_WEIGHT, _tilde_weight)])
def test_weight_strings_match_the_oracle_and_their_compiled_form(text, weight, shifted):
    """Each Bethe-vector weight at every split with #uI = #vI: eval_expr, the
    per-pair oracle and the compiled weight over a PairTable agree, on a
    value or on the pole a weight alone may have at the shifted point."""
    ps = ParameterSampler("weight-oracle", ORACLE_C).generic(6)
    xs = ps[:5] + ((ps[0] + EPS,) if shifted else ps[5:])
    terms = compile_terms([{"partitions": [], "coefficient": text, "target": ["uI", "vI"]}], ("uI", "uII", "vI", "vII"), ())
    table = PairTable(xs, ORACLE_C)
    for n in range(3):
        for u1, v1 in product(combinations(range(3), n), combinations(range(3, 6), n)):
            u2 = tuple(k for k in range(3) if k not in u1)
            v2 = tuple(k for k in range(3, 6) if k not in v1)
            sets = {name: tuple(xs[k] for k in idx) for name, idx in zip(("uI", "uII", "vI", "vII"), (u1, u2, v1, v2))}
            (got,) = assert_shorthand_matches(terms, Binding(sets, c=ORACLE_C))
            assert outcome(lambda: rat(*ratio(*weight(table, u1, u2, v1, v2)))) == got


def test_coincident_arguments():
    """g and f raise at coincident arguments, as scalars.g does, across
    sets too; h is 1 there."""
    b = Binding({"uI": (rat(1, 3),), "vI": (rat(1, 3),), "w": (rat(2),)}, c=1)
    for text in ("g(uI,uI)", "f(uI,uI)", "g(uI,vI)*h(w,uI)", "K(uI|vI)"):
        with pytest.raises(DivisionByZero):
            evaluate(text, b)
    assert evaluate("h(uI,uI)", b) == 1
    assert evaluate("h(uI,vI)*g(w,uI)", b) == rat(3, 5)
