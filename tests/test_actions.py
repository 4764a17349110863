import os

import pytest

from superbethe.actions import ELEMENTS, action_check, action_rhs, load_formula_table
from superbethe.graded import GL12, GL21
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def chain(length, xi, twist=(1, 1, 1), sig=GL21):
    return ChainModel(ChainSpec(length, tuple(xi), tuple(twist), sig, 1))


@pytest.fixture(scope="module")
def site():
    return chain(1, (0,), twist=(2, 1, -3))


def test_table_covers_all_seven_elements():
    table = load_formula_table()
    assert set(table) == set(ELEMENTS)
    assert [len(table[el]) for el in ("T11", "T22", "T33", "T13", "T23", "T12", "T21")] == [3, 4, 3, 1, 2, 2, 5]


def test_diagonal_action_on_reference_state(site):
    # T22 at a=b=0: the single surviving term has coefficient 1
    z = rat(7, 2)
    rhs = action_rhs(site, "T22", (), (), z)
    norm = 1 / (site.lam(2, z) * 1)
    assert rhs == site.T(2, 2, z).apply(site.omega()).scale(norm)
    assert rhs == site.omega()  # f(z,empty) g(empty,z) = 1 and T22 Omega = lam2 Omega


def test_creation_action_produces_coincident_vector(site):
    z = rat(7, 2)
    rhs = action_rhs(site, "T13", (), (), z)
    assert rhs == site.T(1, 3, z).apply(site.omega()).scale(1 / site.lam(2, z))


def test_annihilation_action_against_direct_matrices(site):
    # T21 at (a,b)=(1,0) on one site: cross-checked by direct operator algebra
    u, z = rat(3), rat(7, 2)
    lhs = site.T(2, 1, z).apply(site.T(1, 2, u).apply(site.omega())).scale(
        1 / (site.lam(2, z) * site.lam(2, u))
    )
    assert lhs == action_rhs(site, "T21", (u,), (), z)


# the last twist has d_2 != 1, so lam2(z) != 1 and the normalization
# 1/lam2(z) of every action (action_norm) is read
@pytest.mark.parametrize("twist", [(1, 1, 1), (2, 1, -3), (rat(3, 2), rat(5, 3), rat(-2, 7))])
@pytest.mark.parametrize("length", [1, 2])
def test_all_elements_grid(length, twist):
    smp = ParameterSampler(f"actions:{length}:{twist}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=twist)
    for a, b in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
        ps = smp.generic(a + b, avoid=xi)
        us, vs = ps[:a], ps[a:]
        z = smp.generic_one(avoid=tuple(xi) + ps)
        for el in ELEMENTS:
            residual = action_check(model, el, us, vs, z)
            assert residual.is_zero(), (el, a, b, length, twist)


def test_double_singleton_partitions_of_t21():
    smp = ParameterSampler("actions:t21", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=(2, 1, -3))
    ps = smp.generic(3, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    assert action_check(model, "T21", ps[:2], ps[2:], z).is_zero()


def test_unknown_element_rejected(site):
    with pytest.raises(KeyError):
        action_rhs(site, "T31", (), (), rat(5))


def test_gl12_chain_rejected():
    m = ChainModel(ChainSpec(1, (0,), (1, 1, 1), GL12, 1))
    with pytest.raises(ValueError):
        action_check(m, "T13", (), (), rat(5))


def test_corrupted_table_is_detected(site):
    table = load_formula_table(os.path.join(FIXTURES, "corrupted_action_formulas.json"))
    z = rat(7, 2)
    residual = action_check(site, "T23", (rat(3),), (), z, table=table)
    assert not residual.is_zero()
    # the same check against the shipped table passes
    assert action_check(site, "T23", (rat(3),), (), z).is_zero()


def test_actions_at_2_2():
    smp = ParameterSampler("extact", 1)
    xi = smp.generic(2)
    model = ChainModel(ChainSpec(2, xi, (2, 1, -3), GL21, 1))
    ps = smp.generic(4, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    for el in ELEMENTS:
        assert action_check(model, el, ps[:2], ps[2:], z).is_zero(), el
