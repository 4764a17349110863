import pytest

from superbethe import monodromy
from superbethe.actions import action_check
from superbethe.bethe import build_dual_vector, build_vector
from superbethe.composite import CompositeModel, SplitChain, check_bethe_factorization, check_recursion
from superbethe.errors import DivisionByZero
from superbethe.gl12 import build_tilde_vector
from superbethe.graded import GL12, GL21, DualGradedVector, GradedOperator, GradedVector
from superbethe.monodromy import (
    ChainModel,
    ChainSpec,
    check_rtt,
    check_supercommutator,
    vacuum_residuals,
)
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import EPS, EpsScalar


def chain(length, xi, twist=(1, 1, 1), sig=GL21, c=1):
    return ChainModel(ChainSpec(length, xi, twist, sig, c))


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(2, (1, 1), (1, 1, 1), GL21, 1)
    with pytest.raises(ValueError):
        ChainSpec(1, (0,), (1, 0, 1), GL21, 1)
    with pytest.raises(ValueError):
        ChainSpec(1, (0,), (1, 1, 1), GL21, 0)


def test_single_site_entries():
    m = chain(1, (0,))
    assert m.T(1, 3, 1) == GradedOperator.unit(GL21, 3, 1).scale(-1)
    assert m.T(1, 1, 2).apply(m.omega()) == m.omega().scale(rat(3, 2))


def test_empty_chain_is_twist_diagonal():
    m = chain(0, (), twist=(2, 3, 5))
    for i in range(1, 4):
        for j in range(1, 4):
            op = m.T(i, j, rat(7, 2))
            if i == j:
                assert op == GradedOperator.identity(GL21, 0).scale(m.spec.twist[i - 1])
            else:
                assert op.is_zero()


def test_spectral_point_on_inhomogeneity():
    m = chain(2, (0, 1))
    with pytest.raises(DivisionByZero):
        m.T(1, 1, 1)


def test_vacuum_eigenvalue_closed_forms():
    m = chain(2, (0, rat(1, 2)))
    assert m.lam(1, 2) == rat(5, 2)  # f(2,0) f(2,1/2)
    assert m.lam(2, 2) == 1
    m = chain(2, (0, rat(1, 2)), twist=(1, 1, -2))
    assert m.r(3, rat(22, 7)) == -2


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("twist", [(1, 1, 1), (2, rat(1, 3), -3)])
def test_vacuum_axioms(sig, twist):
    for length in (0, 1, 2, 3):
        smp = ParameterSampler(f"vac:{sig.name}:{length}", 1)
        xi = smp.generic(length)
        model = chain(length, xi, twist=twist, sig=sig)
        for _ in range(10):
            u = smp.generic_one(avoid=xi)
            assert all(ok for _, ok in vacuum_residuals(model, u))


def test_entry_parity():
    m = chain(2, (0, 1), twist=(2, 1, 3))
    for i in range(1, 4):
        for j in range(1, 4):
            op = m.T(i, j, rat(9, 2))
            assert not op.is_zero()
            assert op.support_parity() == (GL21.par(i) ^ GL21.par(j))


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("twist", [(1, 1, 1), (2, 1, 3)])
def test_rtt_relation(sig, twist):
    for length in (1, 2, 3):
        smp = ParameterSampler(f"rtt:{sig.name}:{length}:{twist}", 1)
        xi = smp.generic(length)
        model = chain(length, xi, twist=twist, sig=sig)
        for _ in range(3):
            u, v = smp.generic(2, avoid=xi)
            assert check_rtt(model, u, v).is_zero()


def test_rtt_coincident_points():
    with pytest.raises(DivisionByZero):
        check_rtt(chain(1, (0,)), rat(2), rat(2))


def test_supercommutator_all_indices():
    smp = ParameterSampler("comm", 1)
    for sig in (GL21, GL12):
        xi = smp.generic(2)
        model = chain(2, xi, twist=(2, 1, 3), sig=sig)
        u, v = smp.generic(2, avoid=xi)
        for i in range(1, 4):
            for j in range(1, 4):
                for k in range(1, 4):
                    for l in range(1, 4):
                        r1, r2 = check_supercommutator(model, i, j, k, l, u, v)
                        assert r1.is_zero() and r2.is_zero(), (sig.name, i, j, k, l)


def test_anticommutator_case_is_nontrivial():
    # odd-odd indices take the anticommutator branch; check it against a
    # directly computed product difference on L=1
    m = chain(1, (0,), twist=(2, 1, 3))
    u, v = rat(5, 2), rat(-3, 7)
    lhs_plus = m.T(1, 3, u).compose(m.T(1, 3, v)).add(m.T(1, 3, v).compose(m.T(1, 3, u)))
    r1, _ = check_supercommutator(m, 1, 3, 1, 3, u, v)
    from superbethe.scalars import g

    rhs = m.T(1, 3, u).compose(m.T(1, 3, v)).sub(m.T(1, 3, v).compose(m.T(1, 3, u))).scale(-g(u, v, 1))
    assert r1 == lhs_plus.sub(rhs)


# ---------------------------------------------------------------------------
# matrix-free entry action against the materialized entries
# ---------------------------------------------------------------------------


def _sparse_pair(smp, sig, length, nnz=3):
    keys = [smp.rng.randrange(3**length) for _ in range(nnz)]
    ket = GradedVector(sig, length, {k: smp.nonzero() for k in keys})
    keys = [smp.rng.randrange(3**length) for _ in range(nnz)]
    bra = DualGradedVector(sig, length, {k: smp.nonzero() for k in keys})
    return ket, bra


def _assert_actions_match(model, u, ket, bra):
    for i in range(1, 4):
        for j in range(1, 4):
            entry = model.T(i, j, u)
            assert model.apply_T(i, j, u, ket) == entry.apply(ket), (i, j)
            assert model.apply_T_dual(i, j, u, bra) == entry.apply_dual(bra), (i, j)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_apply_T_equals_materialized_entries(sig, length):
    smp = ParameterSampler(f"apply:{sig.name}:{length}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=smp.twist(), sig=sig)
    u = smp.generic_one(avoid=xi)
    for _ in range(2):
        _assert_actions_match(model, u, *_sparse_pair(smp, sig, length))


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_apply_T_on_two_twist_composite_at_eps_point(sig):
    smp = ParameterSampler(f"apply-composite:{sig.name}", 1)
    xi = smp.generic(3)
    split = SplitChain(
        ChainSpec(1, xi[:1], smp.twist(), sig, 1),
        ChainSpec(2, xi[1:], smp.twist(), sig, 1),
    )
    total = CompositeModel(split)
    u = smp.generic_one(avoid=xi) + EPS
    ket, bra = _sparse_pair(smp, sig, 3, nnz=4)
    _assert_actions_match(total, u, ket, bra)
    assert any(isinstance(x, EpsScalar) for x in total.apply_T(1, 3, u, ket).entries.values())


def test_apply_T_on_inhomogeneity():
    m = chain(2, (0, 1))
    with pytest.raises(DivisionByZero):
        m.apply_T(1, 1, 1, m.omega())
    with pytest.raises(DivisionByZero):
        m.apply_T_dual(1, 1, 0, m.omega_dual())


def test_vector_side_never_materializes_T(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("T(u) materialized")

    monkeypatch.setattr(monodromy, "build_factor_product", refuse)
    smp = ParameterSampler("matrix-free", 1)
    xi = smp.generic(3)
    m21 = chain(3, xi, twist=(2, 1, 3))
    m12 = chain(3, xi, twist=(2, 1, 3), sig=GL12)
    vs = smp.generic(1, avoid=xi)
    us = smp.generic(2, avoid=xi + vs)
    z = smp.generic_one(avoid=xi + us + vs)
    assert not build_vector(m21, us, vs).is_zero()
    assert not build_dual_vector(m21, us, vs).is_zero()
    assert not build_tilde_vector(m12, us, vs).is_zero()
    assert action_check(m21, "T13", us, vs, z).is_zero()
    assert check_recursion(m21, us, vs, z).is_zero()


_HONEST_SWAP_SIGN = monodromy.swap_sign
_FLIPPED_SWAP_SIGNS = {
    # (-1)^{pa pb}: only an odd auxiliary digit meeting an odd site digit
    "odd-odd": lambda pa, pb, between: -_HONEST_SWAP_SIGN(pa, pb, between) if pa & pb else _HONEST_SWAP_SIGN(pa, pb, between),
    # (-1)^{(pa+pb) between}: an odd digit moved past odd site digits
    "between": lambda pa, pb, between: -_HONEST_SWAP_SIGN(pa, pb, between)
    if (pa ^ pb) & between
    else _HONEST_SWAP_SIGN(pa, pb, between),
}


@pytest.mark.parametrize("flip", sorted(_FLIPPED_SWAP_SIGNS))
def test_flipped_swap_sign_breaks_factorization(monkeypatch, flip):
    split = SplitChain(
        ChainSpec(1, (rat(0),), (rat(2), rat(1), rat(3)), GL21, 1),
        ChainSpec(1, (rat(1, 3),), (rat(-1), rat(1), rat(5)), GL21, 1),
    )
    # a = b = 2: below b = 2 no state carries two odd digits, so neither
    # sign is ever -1 on gl(2|1) and both flips would go unseen
    us, vs = (rat(3, 2), rat(-2, 7)), (rat(-5, 3), rat(11, 4))
    assert check_bethe_factorization(split, us, vs).is_zero()
    monkeypatch.setattr(monodromy, "swap_sign", _FLIPPED_SWAP_SIGNS[flip])
    assert not check_bethe_factorization(split, us, vs).is_zero()
