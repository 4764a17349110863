"""Opt-in checks above the default caps (set SUPERBETHE_EXTENDED=1).

Partition counts and the rational references grow fast beyond the default
caps, so the costly grids are gated here rather than run on every
invocation; the vector-side checks at (3,3) and on the longest configured
chain take well under a second and run in the default suite (the
factorizations and the recursion in test_composite.py and test_gl12.py,
the actions in test_actions.py, the longest-chain cap in
test_monodromy.py). Here the partition coefficients are checked against
their closed formula at (4,4), and every packaged shorthand coefficient
against its pair-by-pair evaluation at (3,3). B, C, B~ and C~ at (3,3) on
L = 4 at one, two and three coincidences u_k = v_k at once equal their
limits read by interpolation. RTT runs at L=4 with a
perturbed entry against the rational formula, and at L=5, the largest
arity-L weight spaces and entry products, under a memory pin. The
exchange relations, signed blocks of the RTT residuals at (u, v) and
(v, u) from the same pass, run at L=4, all 81 tuples, honest and with a
perturbed entry, against the rational formulas.
"""

import os
import tracemalloc

import pytest

from superbethe.bethe import build_dual_vector, build_vector
from superbethe.gl12 import build_tilde_dual_vector, build_tilde_vector
from superbethe.graded import GL12, GL21
from superbethe.monodromy import ChainModel, ChainSpec, Model, check_rtt
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

from oracles import (
    all_supercommutators,
    assert_coefficients_match,
    assert_shorthand_matches,
    packaged_bases,
    perturb_at,
    rtt_reference,
    vector_at_coincidence,
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("SUPERBETHE_EXTENDED"),
    reason="extended grid is opt-in (SUPERBETHE_EXTENDED=1)",
)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_partition_coefficients_at_4_4(sig):
    """The tabulated coefficients of both weights against the closed formula
    at (4,4), 70 splits each."""
    model = ChainModel(ChainSpec(1, (0,), (2, rat(2, 3), -3), sig, rat(3, 2)))
    ps = ParameterSampler(f"ext-coefficients:{sig.name}", 1).generic(8, avoid=model.spec.xi)
    assert_coefficients_match(model, ps[:4], ps[4:])


def test_packaged_coefficients_at_3_3():
    """Every coefficient of the action table and the class table at every
    partition at (a,b) = (3,3) against the per-pair oracle."""
    count = 0
    for terms, base in packaged_bases(3, 3, "ext-shorthand-oracle"):
        count += len(assert_shorthand_matches(terms, base))
    assert count == 1290


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_coincidences_at_3_3_on_l4(sig):
    """B, C (gl(2|1)) and B~, C~ (gl(1|2)) at (3,3) on L = 4 with
    u_k = v_k for the first one, two and three k at once, which every
    builder evaluates by its nested vector, equal their limits along
    v = u + t (1, 2, 3), t -> 0, read by interpolation, and are nonzero."""
    builders = (build_vector, build_dual_vector) if sig == GL21 else (build_tilde_vector, build_tilde_dual_vector)
    smp = ParameterSampler(f"ext-coincidences:{sig.name}", rat(3, 2))
    spec = ChainSpec(4, smp.generic(4), smp.twist(), sig, rat(3, 2))
    ps = smp.generic(6, avoid=spec.xi)
    us = ps[:3]
    for k in (1, 2, 3):
        vs, steps = us[:k] + ps[3 : 6 - k], tuple(range(1, k + 1)) + (0,) * (3 - k)
        for build in builders:
            limit = vector_at_coincidence(build, ChainModel(spec), us, vs, steps)
            assert not limit.is_zero(), (k, build.__name__)
            assert build(ChainModel(spec), us, vs) == limit, (k, build.__name__)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("delta", [1, 2**200], ids=["1", "2^200"])
def test_rtt_with_a_perturbed_entry_at_l4(sig, delta, monkeypatch):
    smp = ParameterSampler(f"ext-rtt-perturbed:{sig.name}", 1)
    xi = smp.generic(4)
    model = ChainModel(ChainSpec(4, xi, smp.twist(), sig, 1))
    u, v = smp.generic(2, avoid=xi)
    perturb_at(monkeypatch, v, delta)
    res = check_rtt(model, u, v)
    assert not res.is_zero() and res == rtt_reference(model, u, v, build=Model.monodromy_op)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_rtt_at_l5_is_zero_within_its_memory_pin(sig):
    """One L=5 RTT check holds the blocks of the two cleared T's, their
    packed columns and the entry products of one chain column at a time:
    its tracemalloc peak stays under 5.3 MB."""
    smp = ParameterSampler(f"ext-rtt5:{sig.name}", 1)
    xi = smp.generic(5)
    model = ChainModel(ChainSpec(5, xi, smp.twist(), sig, 1))
    u, v = smp.generic(2, avoid=xi)
    check_rtt(model, u, v)  # fills the parity tables, the weight spaces, the plan and the cached P first
    tracemalloc.start()
    try:
        assert check_rtt(model, u, v).is_zero()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.3 * 10**6, peak


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("perturbed", [False, True], ids=["honest", "perturbed"])
def test_supercommutator_at_l4_equals_rational_formula(sig, perturbed, monkeypatch):
    """All 81 tuples, both forms, at L=4 against the rational formulas;
    perturbed, one entry of N*T(u) is 2^200 off and the residuals are
    nonzero."""
    smp = ParameterSampler(f"ext-comm4:{sig.name}", 1)
    xi = smp.generic(4)
    model = ChainModel(ChainSpec(4, xi, smp.twist(), sig, 1))
    u, v = smp.generic(2, avoid=xi)
    if perturbed:
        perturb_at(monkeypatch, u, 2**200)
    pairs = all_supercommutators(model, u, v)
    assert all(got == want for got, want in pairs.values())
    assert any(not r.is_zero() for got, _ in pairs.values() for r in got) == perturbed
