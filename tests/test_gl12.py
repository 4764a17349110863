import pytest

from superbethe.composite import CompositeModel, SplitChain
from superbethe.gl12 import (
    AmbiguousConvention,
    _sign_from_outcomes,
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
    total = CompositeModel(split12, lambda_sign=-1)
    u = rat(9, 4)
    for i in (1, 3):
        assert total.r(i, u) == total.part1.r(i, u) * total.part2.r(i, u)


def test_resolve_sign_is_stable(split12, split12_21):
    smp = ParameterSampler("resolve", 1)
    xi = split12.part1.xi + split12.part2.xi
    signs = set()
    for _ in range(5):
        ps = smp.generic(2, avoid=xi)
        signs.add(resolve_sign(split12, ps[:1], ps[1:]))
    assert signs == {1}
    ps = smp.generic(2, avoid=split12_21.part1.xi + split12_21.part2.xi)
    assert resolve_sign(split12_21, ps[:1], ps[1:]) == 1


def test_resolve_sign_probes_on_shared_models(split12):
    """Probing with the split's two signed models, built once, gives the
    sign a fresh pair per probe gives, and each probe walks both models."""
    smp = ParameterSampler("resolve-shared", 1)
    xi = split12.part1.xi + split12.part2.xi
    models = {sign: CompositeModel(split12, lambda_sign=sign) for sign in (1, -1)}
    for _ in range(3):
        ps = smp.generic(2, avoid=xi)
        walked = [len(m.point_ids) for m in models.values()]
        assert resolve_sign(models, ps[:1], ps[1:]) == resolve_sign(split12, ps[:1], ps[1:]) == 1
        assert all(len(m.point_ids) > n for m, n in zip(models.values(), walked))


def test_sign_disambiguation_paths():
    assert _sign_from_outcomes({1: True, -1: False}) == 1
    assert _sign_from_outcomes({1: False, -1: True}) == -1
    with pytest.raises(AmbiguousConvention):
        _sign_from_outcomes({1: True, -1: True})
    with pytest.raises(AmbiguousConvention):
        _sign_from_outcomes({1: False, -1: False})


def test_wrong_sign_fails(split12):
    smp = ParameterSampler("wrong-sign", 1)
    ps = smp.generic(2, avoid=split12.part1.xi + split12.part2.xi)
    assert not check_tilde_factorization(split12, ps[:1], ps[1:], sign=-1).is_zero()


def test_one_model_serves_every_check_of_its_sign(split12_21):
    """A suite's CompositeModel gives every check the residual a fresh one
    gives, the wrong sign's checks included; a model of the other sign is
    refused."""
    smp = ParameterSampler("shared-model", 1)
    drawn = smp.generic(4, avoid=split12_21.part1.xi + split12_21.part2.xi)
    for sign in (1, -1):
        total = CompositeModel(split12_21, lambda_sign=sign)
        for check in (check_tilde_factorization, check_tilde_dual_factorization):
            for a, b in ((1, 1), (2, 1), (1, 2), (2, 2)):
                us, vs = drawn[:a], drawn[2 : 2 + b]
                assert check(total, us, vs, sign=sign) == check(split12_21, us, vs, sign=sign), (sign, a, b)
            with pytest.raises(ValueError):
                check(total, drawn[:1], drawn[2:3], sign=-sign)


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
                assert check_tilde_factorization(sp, us, vs, sign=1).is_zero(), (a, b)
                assert check_tilde_dual_factorization(sp, us, vs, sign=1).is_zero(), (a, b)


def test_degenerate_empty_part():
    sp = SplitChain(cs(0, ()), cs(2, (0, rat(1, 3)), (2, 1, 3)))
    total = CompositeModel(sp)
    us, vs = (rat(3), rat(13, 2)), (rat(17, 4),)
    b2 = build_tilde_vector(total.part2, us, vs)
    assert build_tilde_vector(total, us, vs) == vector_tensor(GradedVector.basis(GL12, ()), b2)
    assert check_tilde_factorization(sp, us, vs, sign=1).is_zero()


def test_tilde_factorization_at_3_2():
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL12, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL12, 1),
    )
    smp = ParameterSampler("ext32", 1)
    drawn = smp.generic(5, avoid=sp.part1.xi + sp.part2.xi)
    assert check_tilde_factorization(sp, drawn[:3], drawn[3:], sign=1).is_zero()
