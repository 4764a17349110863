"""The nested algebraic Bethe ansatz (bethe.nested_vector) as an oracle of
the formula builders: B, C, B~ and C~ built from T(u) alone equal the
partition sums at generic points, and equal their limits where a u equals
a v, where the partition sums have no value of their own: the limit of the
formula builder at v = u + t, t -> 0, read by interpolation
(oracles.vector_at_coincidence). At one coincidence and at two at once,
every builder returns the nested vector there."""

import pytest

from superbethe import bethe
from superbethe.bethe import build_dual_vector, build_vector, nested_vector
from superbethe.composite import (
    BRA_COEFF,
    CompositeModel,
    SplitChain,
    bilinear_sum,
    check_bethe_factorization,
    check_dual_bethe_factorization,
)
from superbethe.errors import DivisionByZero
from superbethe.gl12 import (
    build_tilde_dual_vector,
    build_tilde_vector,
    check_tilde_dual_factorization,
    check_tilde_factorization,
)
from superbethe.graded import GL12, GL21, DualGradedVector
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

from oracles import vector_at_coincidence

# (dual, builder) per signature
FAMILIES = {
    GL21: ((False, build_vector), (True, build_dual_vector)),
    GL12: ((False, build_tilde_vector), (True, build_tilde_dual_vector)),
}
CS = (1, rat(3, 2), rat(-2, 7))


def _chains(tag, sig):
    """(spec, sampler) on L = 2..4 sites for every c of CS, each with generic
    inhomogeneities and a random twist."""
    for length in (2, 3, 4):
        for c in CS:
            smp = ParameterSampler(f"{tag}:{sig.name}:{length}:{c}", c)
            yield ChainSpec(length, smp.generic(length), smp.twist(), sig, c), smp


def _grid(length, lowest=0):
    """Every (a, b) with lowest <= b <= a <= min(length, 3)."""
    return [(a, b) for a in range(lowest, min(length, 3) + 1) for b in range(lowest, a + 1)]


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_nested_vector_equals_the_formula_builders(sig):
    """At generic points, on fresh models of their own, every (a, b) the
    weight rule allows."""
    nonzero = 0
    for spec, smp in _chains("nested-generic", sig):
        assert spec.twist != (1, 1, 1)
        for a, b in _grid(spec.length):
            ps = smp.generic(a + b, avoid=spec.xi)
            for dual, build in FAMILIES[sig]:
                formula = build(ChainModel(spec), ps[:a], ps[a:])
                assert nested_vector(ChainModel(spec), ps[:a], ps[a:], dual) == formula, (spec, a, b, dual)
                nonzero += not formula.is_zero()
    assert nonzero == 2 * 3 * (6 + 10 + 10)


# signature -> draws of the coincidence test, 45 points each
SEEDS = {GL21: 3, GL12: 2}


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_nested_vector_is_the_eps_limit_at_a_coincidence(sig):
    """With u_1 = v_1, the nested vector, which every builder returns there,
    equals the limit of the formula builder at v_1 = u_1 + t, t -> 0, read
    by interpolation, and is nonzero, at every 1 <= b <= a <= min(L, 3):
    the ket at every other point and the bra at the rest, 135 points on
    gl(2|1) and 90 on gl(1|2)."""
    cases = 0
    for seed in range(SEEDS[sig]):
        for spec, smp in _chains(f"nested-coincident:{seed}", sig):
            for a, b in _grid(spec.length, lowest=1):
                ps = smp.generic(a + b, avoid=spec.xi)
                us, vs = ps[:a], (ps[0],) + ps[a + 1 :]
                dual, build = FAMILIES[sig][cases % 2]
                limit = vector_at_coincidence(build, ChainModel(spec), us, vs, (1,) + (0,) * (b - 1))
                assert not limit.is_zero()
                assert nested_vector(ChainModel(spec), us, vs, dual) == limit, (spec, a, b, dual)
                assert build(ChainModel(spec), us, vs) == limit
                cases += 1
    assert cases == SEEDS[sig] * 3 * (3 + 6 + 6)


def _proportional(x, y):
    """Whether the vectors x and y are nonzero multiples of each other."""
    if x.is_zero() or y.is_zero() or x.entries.keys() != y.entries.keys():
        return False
    key = next(iter(x.entries))
    return x.scale(y.entries[key]) == y.scale(x.entries[key])


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_reversed_auxiliary_sites_break_the_nested_vector(sig, monkeypatch):
    """Negative control: the u's of the auxiliary chain in reverse order.
    At (2,1) on L=2 the ket is then no multiple of the formula's."""
    spec = ChainSpec(2, (0, rat(1, 2)), (2, rat(3, 2), -3), sig, 1)
    us, vs = (rat(3), rat(-7, 4)), (rat(5, 3),)
    (_, ket), _ = FAMILIES[sig]
    formula = ket(ChainModel(spec), us, vs)
    assert _proportional(nested_vector(ChainModel(spec), us, vs), formula)
    honest = bethe.cleared_chain_orders
    monkeypatch.setattr(bethe, "cleared_chain_orders", lambda sig, c, sites, u: honest(sig, c, sites[::-1], u))
    assert not _proportional(nested_vector(ChainModel(spec), us, vs), formula)


def test_nested_vector_keeps_the_builders_refusals():
    """Coincident parameters within us or vs raise ValueError, a vanishing
    normalizer DivisionByZero, and a pair the weight rule rules out gives
    the zero vector of the side's type."""
    m = ChainModel(ChainSpec(2, (0, rat(1, 2)), (2, 1, -3), GL21, 1))
    with pytest.raises(ValueError):
        nested_vector(m, (rat(3), rat(3)), (rat(5),))
    with pytest.raises(DivisionByZero):
        nested_vector(m, (rat(3),), (rat(2),))  # v - u = -c: f(v, u) vanishes
    zero = nested_vector(m, (rat(3),), (rat(5), rat(7)), dual=True)
    assert zero.is_zero() and type(zero) is DualGradedVector


# the builders of the double coincidence test: B, C and B~
DOUBLE = ((GL21, build_vector), (GL21, build_dual_vector), (GL12, build_tilde_vector))


def test_two_coincidences_at_once():
    """With u_1 = v_1 and u_2 = v_2, which no single shift of one v
    separates, B, C and B~ equal their limit along v = u + t (1, 2),
    t -> 0, read by interpolation, and are nonzero: on L = 2 at (2,2) and
    on L = 3 at (2,2) and (3,2), with c = 3/2."""
    c, cases = rat(3, 2), 0
    for length, a in ((2, 2), (3, 2), (3, 3)):
        for sig, build in DOUBLE:
            smp = ParameterSampler(f"double-coincidence:{sig.name}:{length}:{a}", c)
            spec = ChainSpec(length, smp.generic(length), smp.twist(), sig, c)
            us = smp.generic(a, avoid=spec.xi)
            limit = vector_at_coincidence(build, ChainModel(spec), us, us[:2], (1, 2))
            assert not limit.is_zero(), (spec, a, build.__name__)
            assert build(ChainModel(spec), us, us[:2]) == limit, (spec, a, build.__name__)
            cases += 1
    assert cases == 9


def _coincident_split(sig):
    """A 2+2 split with c = 3/2 and six generic draws off its sites."""
    c = rat(3, 2)
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), sig, c), ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), sig, c)
    )
    return sp, ParameterSampler(f"coincident-split:{sig.name}", c).generic(6, avoid=sp.part1.xi + sp.part2.xi)


# signature -> (builder, factorization residual) of kets and of bras
FACTORIZATIONS = {
    GL21: ((build_vector, check_bethe_factorization), (build_dual_vector, check_dual_bethe_factorization)),
    GL12: ((build_tilde_vector, check_tilde_factorization), (build_tilde_dual_vector, check_tilde_dual_factorization)),
}


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_factorizations_at_a_coincidence(sig):
    """With u_1 = v_1 the composite expansion of the total vector holds
    exactly, ket and dual, at every 1 <= b <= a <= 3, on nonzero vectors:
    the total is its nested vector, and bilinear_sum reads 1/f(z,z) as 0
    in its coefficients and builds the partials that hold the pair as
    nested vectors."""
    sp, ps = _coincident_split(sig)
    cases = 0
    for a, b in [(a, b) for a in (1, 2, 3) for b in range(1, a + 1)]:
        us, vs = ps[:a], (ps[0],) + ps[3 : 2 + b]
        total = CompositeModel(sp)
        for build, residual in FACTORIZATIONS[sig]:
            assert not build(total, us, vs).is_zero(), (a, b, build.__name__)
            assert residual(total, us, vs).is_zero(), (a, b, build.__name__)
            cases += 1
    assert cases == 12


def test_a_composite_nested_vector_is_its_bilinear_sum():
    """The nested vector of a composite's total equals bilinear_sum over
    its parts, ket and dual, at one coincidence (u_1 = v_1) and at two
    (u_1 = v_1 and u_2 = v_2), and is nonzero."""
    sp, ps = _coincident_split(GL21)
    dual_sum = {"coeff": BRA_COEFF, "builder": build_dual_vector, "dual": True, "part1_written_first": True}
    for us, vs in ((ps[:2], (ps[0], ps[2])), (ps[:2], ps[:2])):
        total = CompositeModel(sp)
        for dual, kw in ((False, {}), (True, dual_sum)):
            nested = nested_vector(total, us, vs, dual)
            assert not nested.is_zero() and nested == bilinear_sum(total.part1, total.part2, us, vs, **kw), (us, vs, dual)
