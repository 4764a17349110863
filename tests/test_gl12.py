import pytest

from oracles import NegatedComposite
from superbethe.composite import CompositeModel, SplitChain
from superbethe.gl12 import (
    build_tilde_dual_vector,
    build_tilde_vector,
    check_tilde_dual_factorization,
    check_tilde_factorization,
    resolve_sign,
)
from superbethe.bethe import grading_of
from superbethe.graded import GL12, GL21, GradedVector, vector_tensor
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler


def cs(length, xi, twist=(1, 1, 1)):
    return ChainSpec(length, tuple(xi), tuple(twist), GL12, 1)


@pytest.fixture
def split12():
    return SplitChain(cs(1, (0,), (2, 1, 3)), cs(1, (1,), (1, 2, -1)))


@pytest.fixture
def split12_21():
    return SplitChain(cs(2, (0, rat(1, 3)), (2, 1, 3)), cs(1, (1,), (1, 2, -1)))


def test_gradation_relation_between_signatures():
    # [i] on gl(2|1) equals [4-i] on gl(1|2) plus one, mod 2
    assert all(GL21.par(i) == (GL12.par(4 - i) + 1) % 2 for i in (1, 2, 3))
    assert [GL21.par(i) for i in (1, 2, 3)] == [0, 0, 1]
    assert [GL12.par(i) for i in (1, 2, 3)] == [0, 1, 1]


def test_reference_state_and_single_parameter():
    m = ChainModel(cs(1, (0,)))
    assert build_tilde_vector(m, (), ()) == m.omega()
    assert build_tilde_dual_vector(m, (), ()) == m.omega_dual()
    u = rat(2)
    assert build_tilde_vector(m, (u,), ()) == m.T(1, 2, u).apply(m.omega()).scale(-1 / m.lam(2, u))


def test_tilde_gradation_is_a_mod_2():
    m = ChainModel(cs(2, (0, rat(1, 2)), (2, 1, -3)))
    smp = ParameterSampler("tilde-grade", 1)
    for a, b in ((1, 0), (1, 1), (2, 1), (2, 2)):
        ps = smp.generic(a + b, avoid=m.spec.xi)
        vec = build_tilde_vector(m, ps[:a], ps[a:])
        dual = build_tilde_dual_vector(m, ps[:a], ps[a:])
        assert not vec.is_zero() and grading_of(vec) == a % 2, (a, b)
        assert not dual.is_zero() and grading_of(dual) == a % 2, (a, b)


def test_guard_rejects_gl21_chain():
    m = ChainModel(ChainSpec(1, (0,), (1, 1, 1), GL21, 1))
    with pytest.raises(ValueError):
        build_tilde_vector(m, (), ())


def test_ratio_functions_multiply_across_split(split12):
    total = CompositeModel(split12)
    u = rat(9, 4)
    for i in (1, 3):
        assert total.r(i, u) == total.part1.r(i, u) * total.part2.r(i, u)


def test_resolve_sign_is_stable(split12, split12_21):
    """resolve_sign derives the sign from the vacuum axioms at every point
    it is given: 1 at every probe, and ValueError on the composite that
    states negated eigenvalues."""
    smp = ParameterSampler("resolve", 1)
    for sp in (split12, split12_21):
        xi = sp.part1.xi + sp.part2.xi
        for _ in range(5):
            ps = smp.generic(2, avoid=xi)
            assert resolve_sign(sp, ps[:1], ps[1:]) == 1
        with pytest.raises(ValueError):
            resolve_sign(NegatedComposite(sp), ps[:1], ps[1:])


def test_resolve_sign_probes_on_shared_models(split12):
    """Probing with the split's model, built once, gives the sign a fresh
    model per probe gives, and each probe walks the model at its points."""
    smp = ParameterSampler("resolve-shared", 1)
    total = CompositeModel(split12)
    for _ in range(3):
        ps = smp.generic(2, avoid=split12.part1.xi + split12.part2.xi)
        walked = len(total.point_ids)
        assert resolve_sign(total, ps[:1], ps[1:]) == resolve_sign(split12, ps[:1], ps[1:]) == 1
        assert len(total.point_ids) == walked + 2


def test_wrong_sign_fails(split12_21):
    """The tilde ket and dual factorizations at (1,1) and (2,1) fail on the
    composite that states negated eigenvalues; a sign other than 1 is
    refused."""
    sp = split12_21
    negated = NegatedComposite(sp)
    drawn = ParameterSampler("wrong-sign", 1).generic(3, avoid=sp.part1.xi + sp.part2.xi)
    for a, b in ((1, 1), (2, 1)):
        us, vs = drawn[:a], drawn[2 : 2 + b]
        for check in (check_tilde_factorization, check_tilde_dual_factorization):
            assert check(sp, us, vs).is_zero(), (a, b)
            assert not check(negated, us, vs).is_zero(), (a, b)
            with pytest.raises(ValueError):
                check(sp, us, vs, sign=-1)


def test_one_model_serves_every_check(split12_21):
    """A suite's CompositeModel gives every check the residual a fresh one
    gives."""
    smp = ParameterSampler("shared-model", 1)
    drawn = smp.generic(4, avoid=split12_21.part1.xi + split12_21.part2.xi)
    total = CompositeModel(split12_21)
    for check in (check_tilde_factorization, check_tilde_dual_factorization):
        for a, b in ((1, 1), (2, 1), (1, 2), (2, 2)):
            us, vs = drawn[:a], drawn[2 : 2 + b]
            assert check(total, us, vs) == check(split12_21, us, vs), (a, b)


@pytest.mark.parametrize("shape", ["1+1", "2+1"])
def test_factorization_grid(shape, split12, split12_21):
    sp = split12 if shape == "1+1" else split12_21
    smp = ParameterSampler(f"tilde-grid:{shape}", 1)
    xi = sp.part1.xi + sp.part2.xi
    for campaign in range(2):
        drawn = smp.generic(4, avoid=xi)
        for a in range(3):
            for b in range(3):
                us, vs = drawn[:a], drawn[2 : 2 + b]
                assert check_tilde_factorization(sp, us, vs).is_zero(), (a, b)
                assert check_tilde_dual_factorization(sp, us, vs).is_zero(), (a, b)


def test_degenerate_empty_part():
    sp = SplitChain(cs(0, ()), cs(2, (0, rat(1, 3)), (2, 1, 3)))
    total = CompositeModel(sp)
    us, vs = (rat(3), rat(13, 2)), (rat(17, 4),)
    b2 = build_tilde_vector(total.part2, us, vs)
    assert build_tilde_vector(total, us, vs) == vector_tensor(GradedVector.basis(GL12, ()), b2)
    assert check_tilde_factorization(sp, us, vs).is_zero()


def test_tilde_factorization_at_3_2():
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL12, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL12, 1),
    )
    smp = ParameterSampler("ext32", 1)
    drawn = smp.generic(5, avoid=sp.part1.xi + sp.part2.xi)
    assert check_tilde_factorization(sp, drawn[:3], drawn[3:]).is_zero()
