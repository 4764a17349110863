import json
from importlib import resources
from itertools import product

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
    compile_plan,
    compile_terms,
    enumerate_partitions,
    eval_expr,
    evaluate,
    parse,
    partition_sum,
    plan_value,
    print_expr,
    splits,
)
from superbethe import composite
from superbethe.actions import NORM, action_binding, load_formula_table
from superbethe.bethe import BETHE_WEIGHT, _weight_plan, separate_collision
from superbethe.composite import BRA_COEFF, EXCHANGE_COEFFS, KET_COEFF, RECURSION_COEFFS, ratio_funcs
from superbethe.errors import DivisionByZero, PoleAtZero, SchemaError
from superbethe.gl12 import TILDE_BRA_COEFF, TILDE_KET_COEFF, TILDE_WEIGHT
from superbethe.graded import GL21, GradedVector
from superbethe.monodromy import ChainModel
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import EPS, PairTable, ratio

from oracles import ORACLE_C, ORACLE_CHAIN, ORACLE_SPLIT, assert_shorthand_matches, outcome, packaged_bases


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


def test_binding_holds_each_value_once():
    """Equal rationals share one index whatever their type, the value kept
    is the first seen, and an eps-shifted value is told apart from its
    rational part."""
    b = Binding({"uI": (3, rat(1, 2), rat(6, 2)), "vI": (rat(1, 2) + EPS, rat(2, 4), rat(1, 2) + EPS)}, c=1)
    assert b.values == (3, rat(1, 2), rat(1, 2) + EPS)
    assert type(b.values[0]) is int
    assert b.sets["uI"] == (0, 1, 0) and b.sets["vI"] == (2, 1, 2)


def test_partition_counts():
    free2 = PartitionSpec("u", (PartSpec("a"), PartSpec("b")))
    assert len(enumerate_partitions(free2, (1, 2))) == 4
    single = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("rest")))
    assert len(enumerate_partitions(single, (1, 2, 3))) == 3
    constrained = PartitionSpec("v", (PartSpec("vI", 0), PartSpec("vII")))
    assert enumerate_partitions(constrained, (1,)) == [{"vI": (), "vII": (1,)}]


def test_partitions_exhaustive_and_duplicate_free():
    for n in range(5):
        universe = tuple(range(10, 10 + n))
        spec = PartitionSpec("u", (PartSpec("a"), PartSpec("b")))
        out = enumerate_partitions(spec, universe)
        got = {(split["a"], split["b"]) for split in out}
        brute = set()
        for mask in product((0, 1), repeat=n):
            a = tuple(universe[i] for i in range(n) if mask[i] == 0)
            b = tuple(universe[i] for i in range(n) if mask[i] == 1)
            brute.add((a, b))
        assert got == brute
        assert len(out) == 2 ** n


def test_ordered_singleton_pairs():
    spec = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("u1", 1), PartSpec("rest")))
    out = enumerate_partitions(spec, (5, 6))
    assert out == [{"u0": (5,), "u1": (6,), "rest": ()}, {"u0": (6,), "u1": (5,), "rest": ()}]


def test_empty_family_vs_unsatisfiable():
    single = PartitionSpec("u", (PartSpec("u0", 1), PartSpec("rest")))
    assert enumerate_partitions(single, ()) == []
    dup = PartitionSpec("u", (PartSpec("x"), PartSpec("x")))
    with pytest.raises(UnsatisfiableSpec):
        enumerate_partitions(dup, (1,))


def test_splits_at_fixed_sizes_are_exhaustive_and_lexicographic():
    """Every split of up to 5 elements into up to 4 parts of fixed sizes:
    each assignment of elements to parts once, in lexicographic order of
    the parts' element positions."""
    for n, parts in product(range(6), range(1, 5)):
        universe = tuple(range(20, 20 + n))
        for sizes in product(range(n + 1), repeat=parts):
            if sum(sizes) != n:
                continue
            out = splits(universe, sizes)
            labels = [tuple(sorted((universe.index(x), p) for p, part in enumerate(split) for x in part)) for split in out]
            brute = {
                tuple(enumerate(mask))
                for mask in product(range(parts), repeat=n)
                if all(mask.count(p) == size for p, size in enumerate(sizes))
            }
            assert len(labels) == len(set(labels)) and set(labels) == brute, (n, sizes)
            positions = [tuple(tuple(universe.index(x) for x in part) for part in split) for split in out]
            assert positions == sorted(positions), (n, sizes)


def test_compile_terms_refuses_a_partition_that_rebinds_a_set():
    raw = [{"partitions": [["ubar", "vbar", "rest"]], "coefficient": "1", "target": ["rest", "vbar"]}]
    with pytest.raises(SchemaError) as err:
        compile_terms(raw, ("ubar", "vbar"), ())
    assert err.value.pointer == "/0/partitions/0/1"


def test_partition_sum_takes_the_limit_of_eps_coefficients():
    """An EpsScalar coefficient enters as its value at eps = 0; one with a
    pole raises, and its term is never dropped."""
    omega = GradedVector.basis(GL21, (1,))
    target = lambda args, keys: omega
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
@pytest.mark.parametrize("text", [BETHE_WEIGHT, TILDE_WEIGHT])
def test_weight_strings_match_the_oracle_and_their_compiled_form(text, shifted):
    """Each Bethe-vector weight at every split with #uI = #vI: the plan
    bethe._partition_terms reads (bethe._weight_plan, splits in the order of
    notation.splits), eval_expr at a Binding, the per-pair oracle and
    eval_expr over the index tuples of a bare PairTable agree, on a value or
    on the pole a weight alone may have at the shifted point."""
    ps = ParameterSampler("weight-oracle", ORACLE_C).generic(6)
    xs = ps[:5] + ((ps[0] + EPS,) if shifted else ps[5:])
    terms = compile_terms([{"partitions": [], "coefficient": text, "target": ["uI", "vI"]}], ("uI", "uII", "vI", "vII"), ())
    table = PairTable(xs, ORACLE_C)
    plan = _weight_plan(text, 3, 3)
    order = [(u2, v2, v1) for n in range(4) for (_, u2), (v1, v2) in product(splits((0, 1, 2), (n, 3 - n)), splits((3, 4, 5), (n, 3 - n)))]
    assert [entry[:3] for entry in plan] == order
    for u2, v2, v1, reads in plan:
        idx = {"uI": tuple(k for k in (0, 1, 2) if k not in u2), "uII": u2, "vI": v1, "vII": v2}
        (got,) = assert_shorthand_matches(terms, Binding({name: tuple(xs[k] for k in ks) for name, ks in idx.items()}, c=ORACLE_C))
        assert outcome(lambda: rat(*ratio(*eval_expr(parse(text), table, idx)))) == got
        assert outcome(lambda: rat(*ratio(*plan_value(reads, table)))) == got


def _single(text, names, funcs=(), partitions=()):
    """text compiled as the coefficient of one term over the sets names."""
    return compile_terms([{"partitions": list(partitions), "coefficient": text, "target": [names[0], names[0]]}], names, funcs)


def _coefficient_bases(shifted):
    """(compiled terms, base) for every packaged coefficient outside the
    action and class tables, and for a literal, a negation and a power: a
    ubar and vbar of two each and a z, sharing a parameter up to eps if
    shifted."""
    ps = ParameterSampler("plan-oracle", ORACLE_C).generic(5, avoid=(0, rat(1, 3)))
    us, vs, z = ps[:2], ps[2:4], ps[4]
    if shifted:
        us, vs, _ = separate_collision(us, (us[0],) + vs[1:])
    funcs = ratio_funcs(ChainModel(ORACLE_SPLIT.part1), ChainModel(ORACLE_SPLIT.part2))
    parts = Binding({"ubar": us, "vbar": vs}, c=ORACLE_C, funcs=funcs)
    action = action_binding(ChainModel(ORACLE_CHAIN), us, vs, z)
    plain = Binding({"ubar": us, "vbar": vs, "z": (z,)}, c=ORACLE_C)
    first_t11 = load_formula_table()["T11"][0][1]
    singles = [["ubar", "uI", "uII"], ["vbar", "vI", "vII"]]
    return [
        *((composite._bilinear_terms(coeff), parts) for coeff in (KET_COEFF, BRA_COEFF, TILDE_KET_COEFF, TILDE_BRA_COEFF)),
        (_single(RECURSION_COEFFS[0], ("ubar", "vbar", "z")), plain),
        (composite._recursion_terms(RECURSION_COEFFS[1]), plain),
        *((_single(coeff, ("vI", "vII")), Binding({"vI": vs, "vII": (us[1], z)}, c=ORACLE_C)) for coeff in EXCHANGE_COEFFS),
        (_single(NORM, ("vbar", "z")), Binding({"vbar": vs, "z": (z,)}, c=ORACLE_C)),
        *((_single(weight, ("ubar", "vbar"), partitions=singles), plain) for weight in (BETHE_WEIGHT, TILDE_WEIGHT)),
        (_single("2*" + print_expr(first_t11), ("ubar", "vbar", "z"), ("r1", "r3")), action),
        (_single("-(h(vbar,z)*r1(z))^2/3", ("ubar", "vbar", "z"), ("r1", "r3")), action),
    ]


@pytest.mark.parametrize("shifted", [False, True], ids=["rational", "eps-shifted"])
def test_every_other_packaged_coefficient_matches_the_oracle_by_plan(shifted):
    """The composite coefficients (KET_COEFF, BRA_COEFF and their tilde
    forms), both recursion and both exchange coefficients, NORM, both
    Bethe-vector weights, and a literal, a negation and a power (the "2*"
    shape of the perturbed-table control), each read off its plan at every
    split, equal the per-pair oracle's eps-limit."""
    count = 0
    for terms, base in _coefficient_bases(shifted):
        outcomes = assert_shorthand_matches(terms, base)
        assert outcomes
        count += len(outcomes)
    assert count == 4 * 16 + 1 + 2 + 2 + 1 + 2 * 4 + 2


def _halves(xs):
    """Every free split of xs into two parts, as enumerate_partitions orders
    them, as parameter tuples."""
    spec = PartitionSpec("x", (PartSpec("a"), PartSpec("b")))
    return [(tuple(xs[k] for k in split["a"]), tuple(xs[k] for k in split["b"])) for split in enumerate_partitions(spec, range(len(xs)))]


def test_plans_are_shared_by_layout_and_told_apart_by_ast():
    """A plan is keyed by the AST and the base's index tuples: two bases of
    the same shape share one plan object; a base whose sets share a value,
    which a Binding holds once, has another layout and another plan, which
    partition_sum reads (a plan keyed by the set sizes alone would read
    past that base's values); and an AST with one leaf's arguments swapped
    has its own plan, with other values."""
    ps = ParameterSampler("plan-shape", ORACLE_C).generic(8)
    specs = composite._FREE_SPLITS
    node = parse(KET_COEFF)
    funcs = ratio_funcs(ChainModel(ORACLE_SPLIT.part1), ChainModel(ORACLE_SPLIT.part2))
    first, second = (Binding({"ubar": ps[k : k + 2], "vbar": ps[k + 2 : k + 4]}, c=ORACLE_C, funcs=funcs) for k in (0, 4))
    assert first.values != second.values and first.layout == second.layout
    assert compile_plan(node, first.layout, specs) is compile_plan(node, second.layout, specs)
    shared = Binding({"ubar": ps[:2], "vbar": (ps[0], ps[3])}, c=ORACLE_C, funcs=funcs)
    assert shared.layout != first.layout
    assert compile_plan(node, shared.layout, specs) is not compile_plan(node, first.layout, specs)
    # partition_sum reads the shared base's own plan: each term's coefficient
    # is the oracle's and each target gets that split's parameters (the
    # coefficient pairs the shared value with itself only through h, which
    # is 1 there on both paths)
    text = "r1_2(uI)*r3_1(vII)*g(vI,vII)*h(uII,vI)/f(uI,uII)"
    raw = [{"partitions": [], "coefficient": text, "target": [["uI", "vI"], ["uII", "vII"]]}]
    terms = compile_terms(raw, ("ubar", "vbar"), tuple(funcs), specs, juxtaposed=True)
    outcomes = assert_shorthand_matches(terms, shared)
    seen = []

    def target(args, keys):
        # the k-th split's target is the k-th basis vector, so the sum holds
        # each split's coefficient at its own key
        seen.append(args)
        return GradedVector.from_ints(GL21, 3, {len(seen) - 1: 1})

    total = partition_sum(terms, shared, target, GradedVector(GL21, 3))
    us, vs = ps[:2], (ps[0], ps[3])
    want = [((u1, v1), (u2, v2)) for u1, u2 in _halves(us) for v1, v2 in _halves(vs)]
    assert [total.entries.get(k, 0) for k in range(len(seen))] == outcomes
    assert [((a[0], a[1]), (a[2], a[3])) for a in seen] == want
    swapped = parse(KET_COEFF.replace("g(vI,vII)", "g(vII,vI)"))
    assert swapped != node
    assert compile_plan(swapped, first.layout, specs) is not compile_plan(node, first.layout, specs)

    def values(ast):
        _, plan = compile_plan(ast, first.layout, specs)
        return [rat(*ratio(*plan_value(reads, first.table, first.unary))) for _, reads in plan]

    assert values(swapped) != values(node)


def test_coincident_arguments():
    """g, f and K raise at coincident arguments, as scalars.g does, across
    sets too, and so do their reciprocals; h is 1 there."""
    b = Binding({"uI": (rat(1, 3),), "vI": (rat(1, 3),), "w": (rat(2),)}, c=1)
    for text in ("g(uI,uI)", "f(uI,uI)", "g(uI,vI)*h(w,uI)", "K(uI|vI)"):
        for text in (text, f"1/({text})^1"):
            with pytest.raises(DivisionByZero):
                evaluate(text, b)
    for text in ("1/f(uI,vI)", "1/g(uI,vI)", "1/K(uI|vI)", "h(w,uI)/g(vI,uI)"):
        with pytest.raises(DivisionByZero):
            evaluate(text, b)
    assert evaluate("h(uI,uI)", b) == 1 and evaluate("1/h(uI,vI)", b) == 1
    assert evaluate("h(uI,vI)*g(w,uI)", b) == rat(3, 5)


def test_a_reciprocal_at_coincident_arguments_raises_as_the_oracle_does():
    """KET_COEFF divides by f(vII,uI): at a base whose ubar and vbar share a
    value, every split that puts it in both uI and vII raises
    DivisionByZero on the plan, as on the per-pair oracle (not 0), and the
    other splits keep their values; a K block of two sets that share a
    value raises either way up."""
    ps = ParameterSampler("coincident-reciprocal", ORACLE_C).generic(4)
    funcs = ratio_funcs(ChainModel(ORACLE_SPLIT.part1), ChainModel(ORACLE_SPLIT.part2))
    shared = Binding({"ubar": ps[:2], "vbar": (ps[0], ps[3])}, c=ORACLE_C, funcs=funcs)
    outcomes = assert_shorthand_matches(composite._bilinear_terms(KET_COEFF), shared)
    assert len(outcomes) == 16
    raised = [x for x in outcomes if x is DivisionByZero]
    assert 0 < len(raised) < 16 and 0 not in outcomes
    for text in ("K(ubar|vbar)", "1/K(ubar|vbar)"):
        with pytest.raises(DivisionByZero):
            evaluate(text, shared)
