"""The nested algebraic Bethe ansatz (bethe.nested_vector) as an oracle of
the formula builders: B, C, B~ and C~ built from T(u) alone equal the
partition sums at generic points, and equal their eps-limits where a u
equals a v, where the formula builders have no value of their own."""

from functools import partial

import pytest

from superbethe import bethe
from superbethe.bethe import at_limit, build_dual_vector, build_vector, build_vector_limit, nested_vector
from superbethe.errors import DivisionByZero
from superbethe.gl12 import build_tilde_dual_vector, build_tilde_vector
from superbethe.graded import GL12, GL21, DualGradedVector
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

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


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_nested_vector_is_the_eps_limit_at_a_coincidence(sig):
    """With u_1 = v_1, the nested vector, which build_vector_limit returns,
    equals the eps path (at_limit over the formula builder), and is
    nonzero, at every 1 <= b <= a <= min(L, 3), three draws each."""
    cases = 0
    for seed in range(3):
        for spec, smp in _chains(f"nested-coincident:{seed}", sig):
            for a, b in _grid(spec.length, lowest=1):
                ps = smp.generic(a + b, avoid=spec.xi)
                us, vs = ps[:a], (ps[0],) + ps[a + 1 :]
                for dual, build in FAMILIES[sig]:
                    eps_path = at_limit(partial(build, ChainModel(spec)), us, vs)
                    assert not eps_path.is_zero()
                    assert nested_vector(ChainModel(spec), us, vs, dual) == eps_path, (spec, a, b, dual)
                    assert build_vector_limit(ChainModel(spec), us, vs, builder=build) == eps_path
                    cases += 1
    assert cases == 2 * 3 * 3 * (3 + 6 + 6)


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
