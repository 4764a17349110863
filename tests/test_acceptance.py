"""Acceptance suite: one test per criterion, exact-zero tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line with the
measured runtime per criterion. Every residual asserted here is an exact
rational (or exact operator/vector of rationals); there are no numerical
tolerances anywhere.
"""

import os
import time
from itertools import permutations, product

from oracles import NegatedComposite
from superbethe.actions import ELEMENTS, action_check, load_formula_table
from superbethe.bethe import build_dual_vector, build_vector, grading_of
from superbethe.composite import (
    CompositeModel,
    SplitChain,
    action_decomposition_report,
    check_bethe_factorization,
    check_dual_bethe_factorization,
    check_factor_exchange,
    check_recursion,
)
from superbethe.gl12 import check_tilde_dual_factorization, check_tilde_factorization
from superbethe.graded import (
    GL12,
    GL21,
    GradedOperator,
    check_ybe,
    embed,
    koszul_tensor,
    r_matrix,
)
from superbethe.monodromy import (
    ChainModel,
    ChainSpec,
    check_rtt,
    check_supercommutator,
    vacuum_residuals,
)
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import f, g, is_zero, izergin, three_term_witness

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
TWISTS = ((1, 1, 1), (2, 1, 3))


def _stamp(number, text, t0):
    print(f"\nPASS criterion {number}: {text} ({time.perf_counter() - t0:.2f}s)")


def chain(length, xi, twist=(1, 1, 1), sig=GL21, c=1):
    return ChainModel(ChainSpec(length, tuple(xi), tuple(twist), sig, c))


def test_criterion_01_rtt_exchange_relation():
    t0 = time.perf_counter()
    for sig in (GL21, GL12):
        for twist in TWISTS:
            for length in (1, 2, 3):
                smp = ParameterSampler(f"acc1:{sig.name}:{twist}:{length}", 1)
                xi = smp.generic(length)
                model = chain(length, xi, twist=twist, sig=sig)
                for _ in range(20):
                    u, v = smp.generic(2, avoid=xi)
                    assert check_rtt(model, u, v).is_zero()
    _stamp(1, "RTT residual exactly 0, L in {1,2,3}, both signatures, 20 draws each", t0)


def test_criterion_02_yang_baxter_and_unitarity():
    t0 = time.perf_counter()
    for sig in (GL21, GL12):
        smp = ParameterSampler(f"acc2:{sig.name}", 1)
        for _ in range(20):
            u, v, w = smp.generic(3)
            assert check_ybe(u, v, w, sig, 1).is_zero()
            gv = g(u, v, 1)
            lhs = r_matrix(u, v, sig, 1).compose(r_matrix(v, u, sig, 1))
            assert lhs == GradedOperator.identity(sig, 2).scale(1 - gv * gv)
    _stamp(2, "Yang-Baxter and unitarity exact, 20 draws per signature", t0)


def test_criterion_03_exchange_relations_all_81():
    t0 = time.perf_counter()
    for sig in (GL21, GL12):
        smp = ParameterSampler(f"acc3:{sig.name}", 1)
        xi = smp.generic(2)
        model = chain(2, xi, twist=(2, 1, 3), sig=sig)
        u, v = smp.generic(2, avoid=xi)
        for i, j, k, l in product(range(1, 4), repeat=4):
            r1, r2 = check_supercommutator(model, i, j, k, l, u, v)
            assert r1.is_zero() and r2.is_zero(), (sig.name, i, j, k, l)
    _stamp(3, "both exchange-relation forms, all 81 index tuples, L=2", t0)


def test_criterion_04_vacuum_axioms_and_closed_forms():
    t0 = time.perf_counter()
    for sig in (GL21, GL12):
        for twist in TWISTS:
            for length in (0, 1, 2, 3):
                smp = ParameterSampler(f"acc4:{sig.name}:{twist}:{length}", 1)
                xi = smp.generic(length)
                model = chain(length, xi, twist=twist, sig=sig)
                for _ in range(10):
                    u = smp.generic_one(avoid=xi)
                    assert all(ok for _, ok in vacuum_residuals(model, u))
                    # closed forms pin the site ordering
                    lam1 = 1 * model.spec.twist[0]
                    for x in xi:
                        lam1 = lam1 * f(u, x, 1)
                    assert model.lam(1, u) == lam1
                    assert model.lam(2, u) == model.spec.twist[1]
                    assert model.lam(3, u) == model.spec.twist[2]
    _stamp(4, "vacuum axioms and eigenvalue closed forms, 10 draws, L<=3", t0)


def test_criterion_05_izergin_oracles():
    t0 = time.perf_counter()
    smp = ParameterSampler("acc5", 1)
    for _ in range(10):
        v, u = smp.generic(2)
        assert izergin((v,), (u,), 1) == g(v, u, 1)
    assert izergin((5, 6), (1, 2), 1) == rat(1, 6)  # hand-expanded determinant
    for n in (2, 3):
        vs = smp.generic(n)
        us = smp.generic(n, avoid=vs)
        base = izergin(vs, us, 1)
        for pv in permutations(vs):
            for pu in permutations(us):
                assert izergin(pv, pu, 1) == base
    _stamp(5, "Izergin oracle: K1=g, K2=1/6 frozen, permutation invariance n<=3", t0)


def test_criterion_06_action_formulas():
    t0 = time.perf_counter()
    grid = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
    for twist in TWISTS:
        for length in (1, 2):
            smp = ParameterSampler(f"acc6:{twist}:{length}", 1)
            xi = smp.generic(length)
            model = chain(length, xi, twist=twist)
            for a, b in grid:
                ps = smp.generic(a + b, avoid=xi)
                z = smp.generic_one(avoid=tuple(xi) + ps)
                for el in ELEMENTS:
                    assert action_check(model, el, ps[:a], ps[a:], z).is_zero(), (el, a, b)
    _stamp(6, "all seven action formulas over the (a,b) grid, L in {1,2}, coincident targets included", t0)


def test_criterion_07_recursion_relation():
    t0 = time.perf_counter()
    for length in (1, 2, 3):
        smp = ParameterSampler(f"acc7:{length}", 1)
        xi = smp.generic(length)
        model = chain(length, xi, twist=(2, 1, 3))
        for a in range(3):
            for b in range(1, 3):
                ps = smp.generic(a + b - 1, avoid=xi)
                z = smp.generic_one(avoid=tuple(xi) + ps)
                assert check_recursion(model, ps[:a], ps[a:], z).is_zero(), (length, a, b)
    _stamp(7, "recursion relation residual 0 up to (a,b)=(2,2), L<=3", t0)


def _two_plus_two():
    return SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL21, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL21, 1),
    )


def test_criterion_08_bilinear_factorization():
    t0 = time.perf_counter()
    split = _two_plus_two()
    xi = split.part1.xi + split.part2.xi
    smp = ParameterSampler("acc8", 1)
    for _ in range(10):
        drawn = smp.generic(4, avoid=xi)
        for a in range(3):
            for b in range(3):
                assert check_bethe_factorization(split, drawn[:a], drawn[2 : 2 + b]).is_zero(), (a, b)
    _stamp(8, "bilinear factorization of Bethe vectors, a,b<=2, L=2+2 twisted, 10 campaigns", t0)


def test_criterion_09_dual_bilinear_factorization():
    t0 = time.perf_counter()
    split = _two_plus_two()
    xi = split.part1.xi + split.part2.xi
    smp = ParameterSampler("acc9", 1)
    for _ in range(10):
        drawn = smp.generic(4, avoid=xi)
        for a in range(3):
            for b in range(3):
                assert check_dual_bethe_factorization(split, drawn[:a], drawn[2 : 2 + b]).is_zero(), (a, b)
    _stamp(9, "dual bilinear factorization, same grid, 10 campaigns", t0)


def test_criterion_10_action_decomposition_replay():
    t0 = time.perf_counter()
    split = SplitChain(
        ChainSpec(1, (0,), (2, 1, 3), GL21, 1), ChainSpec(1, (1,), (1, 1, -1), GL21, 1)
    )
    xi = split.part1.xi + split.part2.xi
    smp = ParameterSampler("acc10", 1)
    for a, b in ((1, 1), (2, 1)):
        ps = smp.generic(a + b - 2, avoid=xi)
        z = smp.generic_one(avoid=tuple(xi) + ps)
        report = action_decomposition_report(split, ps[: a - 1], ps[a - 1 :], z)
        for name, residual in report.items():
            ok = residual.is_zero() if hasattr(residual, "is_zero") else is_zero(residual)
            assert ok, (a, b, name)
    assert is_zero(three_term_witness(1, 2, 3, 1))
    _stamp(10, "creation-action decomposition: class sums, pairwise and three-term cancellations", t0)


def test_criterion_11_gl12_composite():
    t0 = time.perf_counter()
    splits = {
        "1+1": SplitChain(
            ChainSpec(1, (0,), (2, 1, 3), GL12, 1), ChainSpec(1, (1,), (1, 2, -1), GL12, 1)
        ),
        "2+1": SplitChain(
            ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL12, 1),
            ChainSpec(1, (1,), (1, 2, -1), GL12, 1),
        ),
    }
    smp = ParameterSampler("acc11", 1)
    for split in splits.values():
        xi = split.part1.xi + split.part2.xi
        # the composite's eigenvalues, the parts' products, agree with its
        # T(u); stated negated, they fail the six T_ii eigenvalue axioms
        total, negated = CompositeModel(split), NegatedComposite(split)
        for u in smp.generic(5, avoid=xi):
            assert all(ok for _, ok in vacuum_residuals(total, u)), u
            assert sum(not ok for _, ok in vacuum_residuals(negated, u)) == 6, u
        drawn = smp.generic(4, avoid=xi)
        for a in range(3):
            for b in range(3):
                us, vs = drawn[:a], drawn[2 : 2 + b]
                assert check_tilde_factorization(total, us, vs).is_zero(), (a, b)
                assert check_tilde_dual_factorization(total, us, vs).is_zero(), (a, b)
        us, vs = drawn[:1], drawn[2:3]
        assert not check_tilde_factorization(negated, us, vs).is_zero()
        assert not check_tilde_dual_factorization(negated, us, vs).is_zero()
    _stamp(11, "gl(1|2): composite vacuum eigenvalues are the parts' products; both factorizations, a,b<=2", t0)


def test_criterion_12_gradation_and_factor_exchange():
    t0 = time.perf_counter()
    model = chain(2, (0, rat(1, 2)), twist=(2, 1, -3))
    smp = ParameterSampler("acc12", 1)
    for a in range(3):
        for b in range(3):
            ps = smp.generic(a + b, avoid=model.spec.xi)
            vec = build_vector(model, ps[:a], ps[a:])
            dual = build_dual_vector(model, ps[:a], ps[a:])
            assert grading_of(vec, b % 2) == b % 2, (a, b)
            assert grading_of(dual, b % 2) == b % 2, (a, b)
    split = _two_plus_two()
    xi = split.part1.xi + split.part2.xi
    for b1 in range(3):
        for b2 in range(3):
            drawn = smp.generic(2 + b1 + b2, avoid=xi)
            assert check_factor_exchange(
                split, drawn[:1], drawn[2 : 2 + b1], drawn[1:2], drawn[2 + b1 :]
            ).is_zero(), (b1, b2)
    _stamp(12, "parity-homogeneous gradation b mod 2; factor-exchange identity b1,b2<=2", t0)


def test_criterion_13_negative_controls():
    t0 = time.perf_counter()
    # corrupted coefficient fixture must produce a nonzero residual
    table = load_formula_table(os.path.join(FIXTURES, "corrupted_action_formulas.json"))
    model = chain(1, (0,), twist=(2, 1, -3))
    residual = action_check(model, "T23", (rat(3),), (), rat(7, 2), table=table)
    assert not residual.is_zero()

    # sign-flipped Koszul convention must break the Yang-Baxter check
    def flipped_permutation(sig):
        acc = GradedOperator(sig, 2)
        for i in range(1, 4):
            for j in range(1, 4):
                term = koszul_tensor(GradedOperator.unit(sig, i, j), GradedOperator.unit(sig, j, i))
                # wrong index: row parity instead of column parity
                acc = acc.add(term.scale(-1) if sig.par(i) else term)
        return acc

    for sig in (GL21, GL12):
        u, v, w = rat(3), rat(2), rat(1)

        def rm(a, b):
            return GradedOperator.identity(sig, 2).add(flipped_permutation(sig).scale(g(a, b, 1)))

        r12 = embed(rm(u, v), (1, 2), 3)
        r13 = embed(rm(u, w), (1, 3), 3)
        r23 = embed(rm(v, w), (2, 3), 3)
        bad = r12.compose(r13).compose(r23).sub(r23.compose(r13).compose(r12))
        assert not bad.is_zero()
    _stamp(13, "negative controls: corrupted coefficient and sign-flipped Koszul both fail", t0)
