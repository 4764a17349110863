"""Opt-in checks above the default caps (set SUPERBETHE_EXTENDED=1).

The default suite caps the parameter families at a,b <= 2; partition counts
grow fast beyond that, so the larger grids are gated here rather than run on
every invocation. They exercise the same code paths at (3,3) and on the
longest configured chains, check the partition coefficients against
their closed formula at (4,4), and every packaged shorthand coefficient
against its pair-by-pair evaluation at (3,3).
"""

import os

import pytest

from superbethe.actions import ELEMENTS, action_check
from superbethe.bethe import build_vector, grading_of, separate_collision
from superbethe.composite import (
    SplitChain,
    check_bethe_factorization,
    check_dual_bethe_factorization,
    check_recursion,
)
from superbethe.gl12 import check_tilde_factorization
from superbethe.graded import GL12, GL21
from superbethe.monodromy import ChainModel, ChainSpec, check_rtt
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

from oracles import assert_coefficients_match, assert_shorthand_matches, packaged_bases

pytestmark = pytest.mark.skipif(
    not os.environ.get("SUPERBETHE_EXTENDED"),
    reason="extended grid is opt-in (SUPERBETHE_EXTENDED=1)",
)


def test_factorizations_at_3_3():
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL21, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL21, 1),
    )
    smp = ParameterSampler("ext33", 1)
    drawn = smp.generic(6, avoid=sp.part1.xi + sp.part2.xi)
    assert check_bethe_factorization(sp, drawn[:3], drawn[3:]).is_zero()
    assert check_dual_bethe_factorization(sp, drawn[:3], drawn[3:]).is_zero()


def test_tilde_factorization_at_3_2():
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL12, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL12, 1),
    )
    smp = ParameterSampler("ext32", 1)
    drawn = smp.generic(5, avoid=sp.part1.xi + sp.part2.xi)
    assert check_tilde_factorization(sp, drawn[:3], drawn[3:], sign=1).is_zero()


def test_recursion_at_3_3():
    smp = ParameterSampler("extrec", 1)
    xi = smp.generic(3)
    model = ChainModel(ChainSpec(3, xi, (2, 1, -3), GL21, 1))
    ps = smp.generic(5, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    assert check_recursion(model, ps[:3], ps[3:], z).is_zero()


def test_actions_at_2_2():
    smp = ParameterSampler("extact", 1)
    xi = smp.generic(2)
    model = ChainModel(ChainSpec(2, xi, (2, 1, -3), GL21, 1))
    ps = smp.generic(4, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    for el in ELEMENTS:
        assert action_check(model, el, ps[:2], ps[2:], z).is_zero(), el


def test_longest_chain_cap():
    smp = ParameterSampler("extl4", 1)
    xi = smp.generic(4)
    model = ChainModel(ChainSpec(4, xi, (2, 1, 3), GL21, 1))
    u, v = smp.generic(2, avoid=xi)
    assert check_rtt(model, u, v).is_zero()
    ps = smp.generic(4, avoid=xi)
    vec = build_vector(model, ps[:2], ps[2:])
    assert not vec.is_zero() and grading_of(vec) == 0


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_partition_coefficients_at_4_4(sig):
    """The tabulated coefficients of both weights against the closed formula
    at (4,4), 70 splits each, at a rational and an eps-shifted point."""
    model = ChainModel(ChainSpec(1, (0,), (2, rat(2, 3), -3), sig, rat(3, 2)))
    ps = ParameterSampler(f"ext-coefficients:{sig.name}", 1).generic(8, avoid=model.spec.xi)
    us, vs = ps[:4], ps[4:]
    assert_coefficients_match(model, us, vs)
    us, vs, shifted = separate_collision(us, (us[-1],) + vs[1:])
    assert shifted
    assert_coefficients_match(model, us, vs)


@pytest.mark.parametrize("shifted", [False, True], ids=["rational", "eps-shifted"])
def test_packaged_coefficients_at_3_3(shifted):
    """Every coefficient of the action table and the class table at every
    partition at (a,b) = (3,3) against the per-pair oracle."""
    count = 0
    for terms, base in packaged_bases(3, 3, "ext-shorthand-oracle", shifted):
        count += len(assert_shorthand_matches(terms, base))
    assert count == 1290
