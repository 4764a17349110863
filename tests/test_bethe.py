from collections import Counter
from functools import partial, reduce
from itertools import combinations, permutations
from math import comb, prod

import pytest

from superbethe import bethe
from superbethe.actions import action_check
from superbethe.errors import DivisionByZero, PoleAtZero
from superbethe.gl12 import TILDE_WEIGHT, build_tilde_dual_vector, build_tilde_vector
from superbethe.graded import GL12, GL21, DualGradedVector, GradedOperator, GradedVector
from superbethe import monodromy
from superbethe.monodromy import ChainModel, ChainSpec, extract_entries
from superbethe.bethe import (
    BETHE_WEIGHT,
    at_limit,
    build_family,
    build_dual_vector,
    build_dual_vector_limit,
    build_vector,
    build_vector_limit,
    grading_of,
    separate_collision,
    vector_to_json,
)
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import PairTable, eps_limit, f, g, h, izergin

from oracles import assert_coefficients_match, assert_izergin_matches, embedded_product, prod_pairs, sym_odd_product


def chain(length, xi, twist=(1, 1, 1), sig=GL21, c=1):
    return ChainModel(ChainSpec(length, xi, twist, sig, c))


@pytest.fixture
def site():
    return chain(1, (0,))


@pytest.fixture
def twisted2():
    return chain(2, (0, rat(1, 2)), twist=(2, 1, -3))


def test_empty_vector_is_reference_state(site):
    assert build_vector(site, (), ()) == site.omega()
    assert build_dual_vector(site, (), ()) == site.omega_dual()


def test_single_u_parameter(site):
    got = build_vector(site, (2,), ())
    assert got == site.T(1, 2, 2).apply(site.omega()).scale(1 / site.lam(2, 2))
    dual = build_dual_vector(site, (2,), ())
    assert dual == site.T(2, 1, 2).apply_dual(site.omega_dual()).scale(1 / site.lam(2, 2))


def test_worked_example_against_independent_matrices(site):
    # expansion g(v,u)/f(v,u) T13(v) + 1/f(v,u) T23(v) T12(u) on the reference
    # state, with the L=1 site operators written out by hand:
    #   T12(w) = g(w,0) E21,  T13(w) = -g(w,0) E31,  T23(w) = -g(w,0) E32
    u, v = rat(3), rat(1)
    gvu = rat(1) / (v - u)  # g(1,3) = -1/2
    fvu = 1 + gvu
    e3 = GradedVector.basis(GL21, (3,))
    t13_omega = e3.scale(-1 / v)  # -g(v,0) E31 . e1
    t23_t12_omega = e3.scale((-1 / v) * (1 / u))  # -g(v,0) E32 . g(u,0) E21 . e1
    by_hand = t13_omega.scale(gvu / fvu).add(t23_t12_omega.scale(1 / fvu))
    got = build_vector(site, (u,), (v,))
    assert got == by_hand
    assert vector_to_json(got) == {"3": "1/3"}


def test_sym_product_edges(twisted2):
    v = rat(9, 4)
    assert sym_odd_product(twisted2, "T13", (v,)) == twisted2.T(1, 3, v)
    a, b = rat(4), rat(9, 2)
    assert sym_odd_product(twisted2, "T13", (a, b)) == sym_odd_product(twisted2, "T13", (b, a))
    assert sym_odd_product(twisted2, "T32", (a, b)) == sym_odd_product(twisted2, "T32", (b, a))
    with pytest.raises(DivisionByZero):
        sym_odd_product(twisted2, "T13", (a, a - 1))  # u_k - u_j = -c


def test_t12_factors_commute(twisted2):
    a, b = rat(4), rat(9, 2)
    x = twisted2.T(1, 2, a).compose(twisted2.T(1, 2, b))
    y = twisted2.T(1, 2, b).compose(twisted2.T(1, 2, a))
    assert x == y


def test_permutation_invariance(twisted2):
    smp = ParameterSampler("bethe-perm", 1)
    for _ in range(3):
        us = smp.generic(2, avoid=twisted2.spec.xi)
        vs = smp.generic(2, avoid=tuple(twisted2.spec.xi) + us)
        base = build_vector(twisted2, us, vs)
        assert base == build_vector(twisted2, (us[1], us[0]), (vs[1], vs[0]))
        dual = build_dual_vector(twisted2, us, vs)
        assert dual == build_dual_vector(twisted2, (us[1], us[0]), (vs[1], vs[0]))


def test_gradation(twisted2):
    smp = ParameterSampler("bethe-grade", 1)
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)):
        ps = smp.generic(a + b, avoid=twisted2.spec.xi)
        vec = build_vector(twisted2, ps[:a], ps[a:])
        dual = build_dual_vector(twisted2, ps[:a], ps[a:])
        assert grading_of(vec, b % 2) == b % 2, (a, b)
        assert grading_of(dual, b % 2) == b % 2, (a, b)
    assert grading_of(GradedVector(GL21, 2), "vacuous") == "vacuous"


def test_coincidence_limit(twisted2):
    smp = ParameterSampler("bethe-limit", 1)
    for _ in range(5):
        z = smp.generic_one(avoid=twisted2.spec.xi)
        lim = build_vector_limit(twisted2, (z,), (z,))
        direct = twisted2.T(1, 3, z).apply(twisted2.omega()).scale(1 / twisted2.lam(2, z))
        assert lim == direct


def test_collision_separation_rules():
    us, vs, shifted = separate_collision((1, 2), (3, 4))
    assert not shifted and vs == (3, 4)
    us, vs, shifted = separate_collision((1, 2), (2, 4))
    assert shifted and vs[1] == 4 and vs[0] != 2
    with pytest.raises(ValueError):
        separate_collision((1, 2), (1, 2))


ALL_BUILDERS = ((GL21, build_vector), (GL21, build_dual_vector), (GL12, build_tilde_vector), (GL12, build_tilde_dual_vector))


def test_rejects_plain_coincident_families():
    """Coincident parameters within us or within vs raise ValueError on every
    builder, also at an (a, b) whose vector the weight rule makes zero on
    L=2: (1,2), (0,2) and (3,0). The message names the value in the config
    wire format."""
    cases = (
        ((rat(3), rat(3)), ()),
        ((rat(3),), (rat(5), rat(5))),
        ((), (rat(5), rat(5))),
        ((rat(3), rat(3), rat(4)), ()),
        ((rat(3), rat(1, 3)), (rat(-7, 2), rat(-7, 2))),
    )
    for sig, build in ALL_BUILDERS:
        for us, vs in cases:
            with pytest.raises(ValueError, match=r"^coincident parameters within (us: 3|vs: 5|vs: -7/2)$"):
                build(chain(2, (0, rat(1, 2)), twist=(2, 1, -3), sig=sig), us, vs)


@pytest.mark.parametrize(
    "us, vs",
    [
        ((rat(3),), (rat(3),)),
        ((rat(3), rat(5)), (rat(7), rat(5))),
        ((rat(3),), (rat(7), rat(3))),
        ((rat(3), rat(5), rat(6)), (rat(5),)),
    ],
)
def test_a_u_equal_to_a_v_without_eps_raises(us, vs):
    """At a u equal to a v with no eps shift every builder raises and none
    returns a vector: the coefficients' table keeps the u and the v apart,
    and their g is singular. The weight rule does not hide it where it makes
    the vector zero on L=2, at (1,2) and (3,1)."""
    for sig, build in ALL_BUILDERS:
        with pytest.raises(DivisionByZero):
            build(chain(2, (0, rat(1, 2)), twist=(2, 1, -3), sig=sig), us, vs)


def test_a_pole_of_a_rule_empty_coefficient_gives_zero():
    """With v - u = -c (u - v = -c on gl(1|2)) every coefficient has the pole
    1/f(vs,us) (1/f(us,vs)), and at (1,1) on L=2 every builder raises. At
    (1,2) the vector each coefficient multiplies is zero at every parameter
    value, so the builders return the zero vector of their type."""
    for sig, build in ALL_BUILDERS:
        m = chain(2, (0, rat(1, 2)), twist=(2, 1, -3), sig=sig)
        v = rat(2) if sig == GL21 else rat(4)
        with pytest.raises(DivisionByZero):
            build(m, (rat(3),), (v,))
        vec = build(m, (rat(3),), (v, rat(7)))
        assert vec.is_zero() and (vec.sig, vec.arity) == (sig, 2), build.__name__
        assert type(vec) is (DualGradedVector if "dual" in build.__name__ else GradedVector), build.__name__


def test_partition_terms_count_the_equal_size_splits(twisted2):
    for a in range(4):
        for b in range(4):
            ps = ParameterSampler(f"split-count:{a},{b}", 1).generic(a + b, avoid=twisted2.spec.xi)
            _, terms = bethe._partition_terms(twisted2, ps[:a], ps[a:], BETHE_WEIGHT)
            assert len(terms) == sum(comb(a, n) * comb(b, n) for n in range(min(a, b) + 1)), (a, b)


def test_guard_rejects_other_signature():
    m = ChainModel(ChainSpec(1, (0,), (1, 1, 1), GL12, 1))
    with pytest.raises(ValueError):
        build_vector(m, (), ())


def test_dual_collision_limit(twisted2):
    # the dual coincidence mirrors the primal: C at {z};{z} equals the
    # normalized T31 right-action on the dual reference state
    z = rat(13, 3)
    lim = build_dual_vector_limit(twisted2, (z,), (z,))
    direct = twisted2.T(3, 1, z).apply_dual(twisted2.omega_dual()).scale(1 / twisted2.lam(2, z))
    assert lim == direct


def _ordered(model, i, j, params):
    """T_ij(x1)...T_ij(xn) as one operator, unnormalized."""
    acc = GradedOperator.identity(model.sig, model.arity)
    for x in params:
        acc = acc.compose(model.T(i, j, x))
    return acc


def _splits(xs, n):
    for picked in combinations(range(len(xs)), n):
        yield tuple(xs[k] for k in picked), tuple(xs[k] for k in range(len(xs)) if k not in picked)


class _HeldEntries:
    """The model's T(i, j, x) read from its embedded factor product, built
    once per point: it shares no code with the walk and evaluates at
    eps-shifted points too."""

    def __init__(self, model, points):
        self.sig, self.arity, self.c = model.sig, model.arity, model.c
        factors = model.factors
        self._entries = {
            x: extract_entries(embedded_product(self.sig, self.c, self.arity, factors, x), self.sig, self.arity)
            for x in points
        }

    def T(self, i, j, x):
        return self._entries[x][i, j]


def _materialized(model, us, vs, dual):
    """B, C (gl(2|1)) or B~, C~ (gl(1|2)) as written in the docstrings of
    bethe.py and gl12.py, every block a materialized operator: the bra is
    Omega^+ times the transposed blocks in reverse order, with its own sign.
    At an eps-shifted point the vector is taken to its entrywise eps-limit."""
    c, gl21, a, b = model.c, model.sig == GL21, len(us), len(vs)
    held = _HeldEntries(model, us + vs)
    sym = lambda which, xs: sym_odd_product(held, which, xs)
    lam2 = lambda xs: prod((model.lam(2, x) for x in xs), start=rat(1))
    base = lam2(vs) * (prod_pairs(f, vs, us, c) if gl21 else prod_pairs(f, us, vs, c))
    acc = (DualGradedVector if dual else GradedVector)(model.sig, model.arity)
    for n in range(min(a, b) + 1):
        for u1, u2 in _splits(us, n):
            for v1, v2 in _splits(vs, n):
                if gl21:
                    w = izergin(v1, u1, c) * prod_pairs(f, u1, u2, c) * prod_pairs(g, v2, v1, c)
                    ket = (sym("T13", v1), sym("T23", v2), _ordered(held, 1, 2, u2))
                    bra = (_ordered(held, 2, 1, u2), sym("T32", v2), sym("T31", v1))
                else:
                    w = prod_pairs(g, u1, v1, c) * prod_pairs(f, v1, v2, c) * prod_pairs(g, u2, u1, c)
                    w = w * prod((h(x, y, c) for x, y in permutations(v1, 2)), start=rat(1))
                    ket = (sym("T~13", v1), _ordered(held, 2, 3, v2), sym("T~12", u2))
                    bra = (sym("T~21", u2), _ordered(held, 3, 2, v2), sym("T~31", v1))
                op = reduce(GradedOperator.compose, bra if dual else ket)
                term = op.apply_dual(model.omega_dual()) if dual else op.apply(model.omega())
                acc = acc.add(term.scale(w / (lam2(u2) * base)))
    odd = b if gl21 else a
    if dual:
        sign = (-1) ** (odd * (odd - 1) // 2)
    else:
        sign = 1 if gl21 else (-1) ** a
    return type(acc)(acc.sig, acc.arity, {k: eps_limit(x * sign) for k, x in acc.entries.items()})


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_all_four_builders_match_the_materialized_formula(sig):
    m = chain(2, (0, rat(1, 2)), twist=(2, 1, -3), sig=sig)
    builders = (build_vector, build_dual_vector) if sig == GL21 else (build_tilde_vector, build_tilde_dual_vector)
    ps = ParameterSampler(f"materialized:{sig.name}", 1).generic(4, avoid=m.spec.xi)
    for a in range(3):
        for b in range(3):
            us, vs = ps[:a], ps[2 : 2 + b]
            for dual, build in enumerate(builders):
                want = _materialized(m, us, vs, dual)
                # a vector leaves a - b sites at level 2, so it vanishes for b > a
                assert want.is_zero() == (b > a), (sig.name, a, b, dual)
                assert build(m, us, vs) == want, (sig.name, a, b, dual)


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_weight_rule_matches_the_materialized_terms(sig, length):
    """Model.weight_space_nonempty against the entries themselves, without
    build_family: at every (a,b) up to (L+1, L+1), every plan term
    T13(vI) T23(vII) T12(uII) . Omega and its mirror
    Omega^+ T21(uII) T32(vII) T31(vI), with the entries read from the
    embedded factor product, is zero where the rule says the weight space
    is empty and nonzero where it is not."""
    xi = INT_WALK_XI[:length]
    m = chain(length, xi, twist=INT_WALK_TWIST, sig=sig)
    ps = ParameterSampler(f"weight-rule:{sig.name}:{length}", 1).generic(2 * length + 2, avoid=xi)
    held = _HeldEntries(m, ps)
    for a in range(length + 2):
        for b in range(length + 2):
            us, vs = ps[:a], ps[length + 1 : length + 1 + b]
            nonempty = m.weight_space_nonempty(a, b)
            for n in range(min(a, b) + 1):
                for _, u2 in _splits(us, n):
                    for v1, v2 in _splits(vs, n):
                        ket, bra = m.omega(), m.omega_dual()
                        for (i, j), xs in zip(((1, 2), (2, 3), (1, 3)), (u2, v2, v1)):
                            for x in xs:
                                ket = held.T(i, j, x).apply(ket)
                                bra = held.T(j, i, x).apply_dual(bra)
                        assert ket.is_zero() != nonempty, (a, b, u2, v2, v1)
                        assert bra.is_zero() != nonempty, (a, b, u2, v2, v1)


def _weight_values(weights):
    """Every number _apply_factor multiplies a state by."""
    if weights[0] == "diag":
        return weights[1]
    _, _, _, coef, gd = weights
    return [*coef, gd]


@pytest.fixture
def walked(monkeypatch):
    """Counter of the type names of every factor weight and state value
    _apply_factor multiplies or produces, the last factor of a walk, which
    keeps one auxiliary digit, included."""
    seen = Counter()
    honest = monodromy._apply_factor

    def apply_factor(length, weights, state, keep=None):
        seen.update(type(x).__name__ for x in _weight_values(weights))
        seen.update(type(x).__name__ for x in state.values())
        out = honest(length, weights, state, keep)
        seen.update(type(x).__name__ for x in out.values())
        return out

    monkeypatch.setattr(monodromy, "_apply_factor", apply_factor)
    return seen


def _only_ints(seen):
    return seen["int"] > 0 and set(seen) == {"int"}


INT_WALK_XI = (0, rat(1, 3), rat(-2, 5))
INT_WALK_TWIST = (rat(2, 3), 1, rat(-3, 2))


def test_vector_walks_multiply_only_ints(walked):
    """At rational points all four builders walk plain ints: every factor
    weight and every state value is an int, a Fraction anywhere fails this
    test. At a coincident point the limit builder's nested vector walks
    its auxiliary chain and its entries on ints too, and equals the
    eps-limit of the materialized formula."""
    ps = ParameterSampler("int-walk", 1).generic(4, avoid=INT_WALK_XI)
    us, vs = ps[:2], ps[2:]
    for sig, builders in ((GL21, (build_vector, build_dual_vector)), (GL12, (build_tilde_vector, build_tilde_dual_vector))):
        m = chain(3, INT_WALK_XI, twist=INT_WALK_TWIST, sig=sig)
        for build in builders:
            assert not build(m, us, vs).is_zero(), (sig.name, build.__name__)
    assert _only_ints(walked), walked

    z = ps[0]
    us, vs = (z, ps[1]), (z, ps[2])
    for sig, dual, build in (
        (GL21, False, build_vector),
        (GL21, True, build_dual_vector),
        (GL12, False, build_tilde_vector),
    ):
        walked.clear()
        m = chain(3, INT_WALK_XI, twist=INT_WALK_TWIST, sig=sig)
        lim = build_vector_limit(m, us, vs, builder=build)
        assert _only_ints(walked), (build.__name__, walked)
        assert not lim.is_zero(), build.__name__
        assert lim == at_limit(partial(_materialized, m, dual=dual), us, vs), build.__name__


def test_action_check_walks_a_rational_vector_on_ints(walked):
    m = chain(3, INT_WALK_XI, twist=INT_WALK_TWIST)
    ps = ParameterSampler("int-walk-action", 1).generic(4, avoid=INT_WALK_XI)
    us, vs, z = ps[:2], ps[2:3], ps[3]
    assert any(type(x) is not int for x in build_vector(m, us, vs).entries.values())
    walked.clear()
    for el in ("T13", "T22", "T21"):
        assert action_check(m, el, us, vs, z).is_zero(), el
    assert _only_ints(walked), walked


def test_singular_coefficients_are_loud(twisted2):
    """A coefficient with a pole at eps = 0 raises; its term is never
    dropped. With an extra g(uI,vI), only the split that pairs u = 3 with
    v = 3 + eps is singular, so the terms before it evaluate and the pole
    is still found."""
    us, vs, _ = separate_collision((rat(3), rat(7, 2)), (rat(3),))
    assert not build_family(twisted2, us, vs, BETHE_WEIGHT, dual=False).is_zero()
    for dual in (False, True):
        with pytest.raises(PoleAtZero):
            build_family(twisted2, us, vs, BETHE_WEIGHT + "*g(uI,vI)", dual=dual)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_partition_coefficients_match_the_formula(sig):
    """Every tabulated coefficient, under both weights, at every split up to
    (a,b) = (3,3), equals the closed formula evaluated pair by pair, at a
    rational point and at a coincident point shifted by eps."""
    # c and lam2 both non-integral, so every clearing step is exercised
    m = chain(1, (0,), twist=(2, rat(2, 3), -3), sig=sig, c=rat(3, 2))
    ps = ParameterSampler(f"coefficients:{sig.name}", 1).generic(6, avoid=m.spec.xi)
    for a in range(4):
        for b in range(4):
            us, vs = ps[:a], ps[3 : 3 + b]
            assert_coefficients_match(m, us, vs)
            if a and b:
                us, vs, _ = separate_collision(us, (us[-1],) + vs[1:])
                assert_coefficients_match(m, us, vs)


def test_tabulated_izergin_matches_the_determinant():
    ps = ParameterSampler("tabulated-izergin", 1).generic(6)
    for c in (1, rat(3, 2), rat(-2, 5)):
        table = PairTable(ps, c)
        for n in (2, 3):
            assert_izergin_matches(table, ps, c, n)


def test_partition_coefficients_multiply_only_ints(fraction_ops):
    """At a rational point build_family does no rational arithmetic. With
    the walks' weights and the points' records (lam2 among them) held by
    the model, a fresh coefficient list and the sum make no Fraction: the
    vector is returned as int numerators over one int denominator."""
    ps = ParameterSampler("int-coefficients", 1).generic(5, avoid=INT_WALK_XI)
    us, vs = ps[:3], ps[3:]
    for sig, weight in ((GL21, BETHE_WEIGHT), (GL12, TILDE_WEIGHT)):
        m = chain(3, INT_WALK_XI, twist=INT_WALK_TWIST, sig=sig)
        for dual in (False, True):
            build_family(m, us, vs, weight, dual)
            m.coefficients.clear()
            fraction_ops.clear()
            vec = build_family(m, us, vs, weight, dual)
            (_, terms), = m.coefficients.values()
            ops = sum(fraction_ops.values())
            assert not vec.is_zero()
            assert ops == 0, (sig.name, dual, fraction_ops, len(terms), len(vec.num))


@pytest.fixture
def evaluations(monkeypatch):
    """Counts the calls of bethe._partition_terms."""
    count = Counter()
    honest = bethe._partition_terms

    def partition_terms(*args):
        count["calls"] += 1
        return honest(*args)

    monkeypatch.setattr(bethe, "_partition_terms", partition_terms)
    return count


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ket_and_bra_share_one_coefficient_list(sig, evaluations):
    ket, bra = (build_vector, build_dual_vector) if sig == GL21 else (build_tilde_vector, build_tilde_dual_vector)
    spec = ChainSpec(2, (0, rat(1, 2)), (2, 1, -3), sig, 1)
    m = ChainModel(spec)
    us, vs = (rat(3), rat(7, 2)), (rat(17, 4), rat(-5, 3))
    first = ket(m, us, vs), bra(m, us, vs)
    assert evaluations["calls"] == 1
    assert ket(m, us, vs) == first[0] and bra(m, us, vs) == first[1]
    assert evaluations["calls"] == 1
    # the reversed tuples of the symmetry check are a second computation
    assert ket(m, us[::-1], vs[::-1]) == first[0]
    assert bra(m, us[::-1], vs[::-1]) == first[1]
    assert evaluations["calls"] == 2
    # and so is the same point on another model
    assert ket(ChainModel(spec), us, vs) == first[0]
    assert evaluations["calls"] == 3


@pytest.fixture
def walk_steps(monkeypatch):
    """Counts the single-entry walks, the Model.apply_T_scaled calls."""
    count = Counter()
    honest = monodromy.Model.apply_T_scaled

    def apply_T_scaled(self, *args):
        count["steps"] += 1
        return honest(self, *args)

    monkeypatch.setattr(monodromy.Model, "apply_T_scaled", apply_T_scaled)
    return count


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_walk_trie_reuses_only_identical_walks(sig, walk_steps):
    """B, C (gl(2|1)) and B~, C~ (gl(1|2)) at (2,2) on L=3 are the same on a
    fresh model and on one whose walk tries were filled by other builds that
    share their step prefixes: a ket and a bra of fewer parameters, the
    reversed tuples and the limit at a u/v collision, a nested vector
    whose v takes the point id of the u it equals. A vector returned by a build
    shares nothing with the tries, so a build repeated after the caller
    cleared the first result gives it again, with no walk."""
    builders = (build_vector, build_dual_vector) if sig == GL21 else (build_tilde_vector, build_tilde_dual_vector)
    ps = ParameterSampler(f"walk-trie:{sig.name}", 1).generic(5, avoid=INT_WALK_XI)
    us, vs, w = ps[:2], ps[2:4], ps[4]
    model = lambda: chain(3, INT_WALK_XI, twist=INT_WALK_TWIST, sig=sig)
    fresh = {}
    for build in builders:
        walk_steps.clear()
        fresh[build] = build(model(), us, vs)
        fresh[build, "steps"] = walk_steps["steps"]
        assert not fresh[build].is_zero(), build.__name__
    collision = (us[0], w), (us[0], vs[1])
    warm = model()
    for build in builders:
        build(warm, us[:1], vs[:1])
        build(warm, us, vs[:1])
        build(warm, us[::-1], vs[::-1])
        limit = build_vector_limit(warm, *collision, builder=build)
        assert limit == build_vector_limit(model(), *collision, builder=build), build.__name__
    # the coincident v took the point id of the u it equals
    assert sorted(warm.point_ids.values()) == list(range(5))
    for build in builders:
        walk_steps.clear()
        got = build(warm, us, vs)
        assert 0 < walk_steps["steps"] < fresh[build, "steps"], (build.__name__, walk_steps)
        assert got.entries == fresh[build].entries, build.__name__
        got.num.clear()
        walk_steps.clear()
        assert build(warm, us, vs).entries == fresh[build].entries, build.__name__
        assert walk_steps["steps"] == 0, build.__name__


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_rule_empty_builds_compute_nothing(sig, evaluations, walk_steps):
    """A build the weight rule makes zero returns the zero vector of its type
    with no coefficient list and no walk, and leaves the model's coefficient
    lists, walk tries, point ids and per-point records empty, with no factor
    skeleton built."""
    builders = [build for s, build in ALL_BUILDERS if s == sig]
    m = chain(2, (0, rat(1, 2)), twist=(2, 1, -3), sig=sig)
    ps = ParameterSampler(f"rule-empty:{sig.name}", 1).generic(6, avoid=m.spec.xi)
    for a, b in ((0, 1), (1, 2), (3, 0), (3, 3)):
        for dual, build in enumerate(builders):
            vec = build(m, ps[:a], ps[3 : 3 + b])
            assert vec.is_zero() and type(vec) is (DualGradedVector if dual else GradedVector), (a, b, dual)
    assert evaluations["calls"] == 0 and walk_steps["steps"] == 0
    assert m.coefficients == {} and m.walks == ({}, {}) and m.point_ids == {}
    assert m.points == [] and m._weights == {} and m._skeleton is None
