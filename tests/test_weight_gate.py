"""The weight gate of notation.partition_sum (bethe.weight_gated).

A term whose vector is zero by Model.weight_space_nonempty is skipped whole:
no coefficient is read and no partial vector is built for it. With the rule
patched to pass every pair, every term is evaluated again, and the sums must
come out equal to the gated ones.
"""

from collections import Counter

import pytest

from superbethe import actions, notation
from superbethe.actions import ELEMENTS, action_rhs
from superbethe.bethe import build_dual_vector, build_vector
from superbethe.composite import (
    BRA_COEFF,
    CompositeModel,
    SplitChain,
    action_decomposition_report,
    bilinear_sum,
)
from superbethe.gl12 import TILDE_BRA_COEFF, TILDE_KET_COEFF, build_tilde_dual_vector, build_tilde_vector
from superbethe.graded import GL12, GL21
from superbethe.monodromy import ChainModel, ChainSpec, Model
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

AB = [(a, b) for a in range(3) for b in range(3)]


def split(name, sig=GL21):
    part2 = {
        "2+1": ChainSpec(1, (1,), (1, 1, -1), sig, 1),
        "2+2": ChainSpec(2, (1, rat(5, 3)), (1, rat(1, 2), -1), sig, 1),
    }[name]
    return SplitChain(ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), sig, 1), part2)


def draws(tag, n, avoid):
    return ParameterSampler(f"weight-gate:{tag}", 1).generic(n, avoid=avoid)


def gated_and_ungated(fn):
    """fn() as it is, and fn() with every term evaluated (the weight rule
    patched to pass every pair); fn builds its own models each time."""
    gated = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Model, "weight_space_nonempty", lambda self, a, b: True)
        return gated, fn()


# signature -> (builder, keyword arguments of bilinear_sum) for kets and bras
FAMILIES = {
    GL21: (
        (build_vector, {}),
        (build_dual_vector, {"coeff": BRA_COEFF, "dual": True, "part1_written_first": True}),
    ),
    GL12: (
        (build_tilde_vector, {"coeff": TILDE_KET_COEFF, "part2_written_first": False}),
        (build_tilde_dual_vector, {"coeff": TILDE_BRA_COEFF, "dual": True, "part1_written_first": False}),
    ),
}


@pytest.mark.parametrize("sig", [GL21, GL12], ids=["gl21", "gl12"])
@pytest.mark.parametrize("name", ["2+1", "2+2"])
def test_bilinear_sums_equal_the_sums_of_every_term(name, sig):
    sp = split(name, sig)
    ps = draws(f"bilinear:{name}", 4, sp.part1.xi + sp.part2.xi)
    for builder, kw in FAMILIES[sig]:
        for a, b in AB:
            us, vs = ps[:a], ps[2 : 2 + b]

            def summed():
                total = CompositeModel(sp)
                return bilinear_sum(total.part1, total.part2, us, vs, builder=builder, **kw)

            gated, every = gated_and_ungated(summed)
            assert gated == every, (builder.__name__, a, b)


@pytest.mark.parametrize("name", ["2+1", "2+2"])
def test_bilinear_limits_equal_the_sums_of_every_term(name):
    """At a coincident u/v pair, where a composite sum is a plain
    evaluation, the gated sum equals the sum of every term."""
    sp = split(name)
    ps = draws(f"limit:{name}", 3, sp.part1.xi + sp.part2.xi)
    for a, b in AB:
        if a and b:
            # vs starts with us[0]: one coincident u/v pair
            us, vs = ps[:a], ps[:1] + ps[2 : 1 + b]

            def summed():
                total = CompositeModel(sp)
                return bilinear_sum(total.part1, total.part2, us, vs)

            gated, every = gated_and_ungated(summed)
            assert gated == every, (a, b)


def test_action_right_hand_sides_equal_the_sums_of_every_term():
    xi = (0, rat(1, 3))
    ps = draws("actions", 5, xi)
    for a, b in AB:
        us, vs, z = ps[:a], ps[2 : 2 + b], ps[4]
        for element in ELEMENTS:
            gated, every = gated_and_ungated(
                lambda: action_rhs(ChainModel(ChainSpec(2, xi, (2, 1, -3), GL21, 1)), element, us, vs, z)
            )
            assert gated == every, (element, a, b)


@pytest.mark.parametrize("name", ["2+1", "2+2"])
def test_replay_equals_the_sums_of_every_term(name):
    sp = split(name)
    ps = draws(f"replay:{name}", 5, sp.part1.xi + sp.part2.xi)
    for a, b in AB:
        us, vs, z = ps[:a], ps[2 : 2 + b], ps[4]
        gated, every = gated_and_ungated(lambda: action_decomposition_report(sp, us, vs, z))
        assert gated == every, (a, b)


@pytest.fixture
def coefficients(monkeypatch):
    """Counts the coefficients partition_sum reads (notation.plan_value)."""
    count = Counter()
    honest = notation.plan_value

    def counted(*args, **kw):
        count["coefficients"] += 1
        return honest(*args, **kw)

    monkeypatch.setattr(notation, "plan_value", counted)
    return count


# (split, a, b) -> live splits of ubar and vbar, of 2^(a+b): a split is live
# where (#uI, #vI) is live on part 1 and (#uII, #vII) on part 2
LIVE = {("2+1", 1, 2): 0, ("2+1", 2, 2): 5, ("2+2", 1, 2): 0, ("2+2", 2, 2): 6}


@pytest.mark.parametrize("name, a, b", sorted(LIVE))
def test_a_bilinear_sum_builds_and_reads_only_live_terms(name, a, b, coefficients):
    sp = split(name)
    total = CompositeModel(sp)
    ps = draws(f"count:{name}", 4, sp.part1.xi + sp.part2.xi)
    us, vs = ps[:a], ps[2 : 2 + b]
    built = []

    def builder(model, us, vs):
        built.append((model, len(us), len(vs)))
        return build_vector(model, us, vs)

    bilinear_sum(total.part1, total.part2, us, vs, builder=builder)
    live = LIVE[name, a, b]
    assert coefficients["coefficients"] == live
    assert len(built) == 2 * live
    assert all(model.weight_space_nonempty(a, b) for model, a, b in built)

    coefficients.clear()
    built.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Model, "weight_space_nonempty", lambda self, a, b: True)
        bilinear_sum(total.part1, total.part2, us, vs, builder=builder)
    assert coefficients["coefficients"] == 2 ** (a + b) and len(built) == 2 ** (a + b + 1)


def test_a_live_term_that_is_zero_by_value_reads_its_coefficient(coefficients, monkeypatch):
    """On L=2 with xi = (0, 1) and c = 1, a fusion point, B_{2,2} is zero at
    every parameter value, although its weight space is nonempty. The gate
    skips by weight only, so the terms of the T22 action that target
    B_{2,2} still read their coefficients: where a coefficient has a pole,
    the sum must still raise."""
    model = ChainModel(ChainSpec(2, (0, 1), (1, 1, 1), GL21, 1))
    ps = draws("fusion", 5, (0, 1))
    us, vs, z = ps[:2], ps[2:4], ps[4]
    assert model.weight_space_nonempty(2, 2) and build_vector(model, us, vs).is_zero()
    seen = []
    honest = actions.partition_sum

    def recording(terms, base, target, acc):
        def looked_at(args, keys):
            vec = target(args, keys)
            seen.append((tuple(map(len, args)), vec))
            return vec

        return honest(terms, base, looked_at, acc)

    monkeypatch.setattr(actions, "partition_sum", recording)
    action_rhs(model, "T22", us, vs, z)
    live = [(sizes, vec) for sizes, vec in seen if vec is not None]
    assert any(sizes == (2, 2) and vec.is_zero() for sizes, vec in live)
    assert coefficients["coefficients"] == len(live)
