import json
from importlib import resources

import pytest

from superbethe import composite
from superbethe.bethe import build_dual_vector, build_vector
from superbethe.composite import (
    CompositeModel,
    SplitChain,
    action_decomposition_report,
    bilinear_sum,
    check_bethe_factorization,
    check_composite_creation_actions,
    check_dual_bethe_factorization,
    check_factor_exchange,
    check_recursion,
    compose_ket,
    compose_monodromy,
)
from superbethe.errors import SignatureMismatch
from superbethe.graded import GL12, GL21, GradedVector, vector_tensor
from superbethe.monodromy import ChainModel, ChainSpec
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import f, is_zero


def cs(length, xi, twist=(1, 1, 1), sig=GL21, c=1):
    return ChainSpec(length, tuple(xi), tuple(twist), sig, c)


@pytest.fixture
def split21():
    return SplitChain(cs(2, (0, rat(1, 3)), (2, 1, 3)), cs(1, (1,), (1, 1, -1)))


def all_zero(residuals):
    return all(r.is_zero() for r in residuals.values())


def test_split_validation():
    with pytest.raises(SignatureMismatch):
        SplitChain(cs(1, (0,)), cs(1, (1,), sig=GL12))
    with pytest.raises(ValueError):
        SplitChain(cs(1, (0,)), cs(1, (0,)))
    with pytest.raises(ValueError):
        SplitChain(cs(1, (0,), c=1), cs(1, (1,), c=2))


def test_compose_monodromy_matches_direct():
    sp = SplitChain(cs(1, (0,)), cs(1, (1,)))
    _, res = compose_monodromy(sp, rat(7, 2))
    assert all_zero(res)
    sp = SplitChain(cs(2, (0, rat(1, 3)), (2, 1, 3)), cs(1, (1,), (1, 1, -1)))
    _, res = compose_monodromy(sp, rat(-9, 4))
    assert all_zero(res)


def test_total_vacuum_eigenvalue_is_product():
    sp = SplitChain(cs(2, (0, 1), (2, 1, 1)), cs(1, (2,), (5, 1, 1)))
    total = CompositeModel(sp)
    assert total.lam(1, 3) == 10 * f(3, 0, 1) * f(3, 1, 1) * f(3, 2, 1)
    u = rat(11, 6)
    for i in (1, 3):
        assert total.r(i, u) == total.part1.r(i, u) * total.part2.r(i, u)


def test_factorization_smallest_cases(split21):
    total = CompositeModel(split21)
    m1, m2 = total.part1, total.part2
    # (0,0): single empty partition, the product of reference states
    assert bilinear_sum(m1, m2, (), ()) == total.omega()
    # (1,0): hand expansion r1_2(u) B1 x Omega2 + Omega1 x B2
    u = rat(17, 5)
    expect = vector_tensor(build_vector(m1, (u,), ()), m2.omega()).scale(m2.r(1, u)).add(
        vector_tensor(m1.omega(), build_vector(m2, (u,), ()))
    )
    assert bilinear_sum(m1, m2, (u,), ()) == expect
    assert check_bethe_factorization(split21, (u,), ()).is_zero()
    # (0,1) dual: hand expansion r3_2(v) C1 x Omega2 + Omega1 x C2
    v = rat(-8, 3)
    dual_expect = vector_tensor(build_dual_vector(m1, (), (v,)), m2.omega_dual()).scale(
        m2.r(3, v)
    ).add(vector_tensor(m1.omega_dual(), build_dual_vector(m2, (), (v,))))
    assert bilinear_sum(
        m1, m2, (), (v,),
        coeff="r1_1(uII)*r3_2(vI)*f(uI,uII)*g(vII,vI)/f(vI,uII)",
        builder=build_dual_vector, dual=True, part1_written_first=True,
    ) == dual_expect
    assert check_dual_bethe_factorization(split21, (), (v,)).is_zero()


def test_factorization_grid_on_2_plus_2():
    smp = ParameterSampler("thm-grid", 1)
    sp = SplitChain(
        cs(2, (0, rat(1, 3)), (2, 1, 3)),
        cs(2, (1, rat(5, 3)), (1, rat(1, 2), -1)),
    )
    xi = sp.part1.xi + sp.part2.xi
    total = CompositeModel(sp)  # one model for every check, as a suite holds it
    for campaign in range(2):
        drawn = smp.generic(4, avoid=xi)
        for a in range(3):
            for b in range(3):
                us, vs = drawn[:a], drawn[2 : 2 + b]
                for split in (sp, total):
                    assert check_bethe_factorization(split, us, vs).is_zero(), (a, b)
                    assert check_dual_bethe_factorization(split, us, vs).is_zero(), (a, b)
    with pytest.raises(ValueError):
        check_bethe_factorization(CompositeModel(sp, lambda_sign=-1), drawn[:1], drawn[2:3])


def test_degenerate_empty_part(split21):
    # untwisted empty first part: the total vector is the part-2 vector
    sp = SplitChain(cs(0, ()), cs(2, (0, rat(1, 3)), (2, 1, 3)))
    total = CompositeModel(sp)
    us, vs = (rat(3),), (rat(17, 4),)
    b2 = build_vector(total.part2, us, vs)
    assert build_vector(total, us, vs) == vector_tensor(GradedVector.basis(GL21, ()), b2)
    assert check_bethe_factorization(sp, us, vs).is_zero()
    # twisted empty part: factorization still exact, with part-1 scalars
    sp = SplitChain(cs(0, (), (3, 2, 7)), cs(2, (0, rat(1, 3)), (2, 1, 3)))
    assert check_bethe_factorization(sp, us, vs).is_zero()


def test_factor_exchange_remark(split21):
    smp = ParameterSampler("remark", 1)
    xi = split21.part1.xi + split21.part2.xi
    for b1, b2 in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2)):
        drawn = smp.generic(2 + b1 + b2, avoid=xi)
        us1, us2 = (drawn[0],), (drawn[1],)
        vs1, vs2 = drawn[2 : 2 + b1], drawn[2 + b1 :]
        assert check_factor_exchange(split21, us1, vs1, us2, vs2).is_zero(), (b1, b2)


def test_compose_ket_sign_depends_on_parities(split21):
    total = CompositeModel(split21)
    m1, m2 = total.part1, total.part2
    odd1 = build_vector(m1, (rat(7),), (rat(5),))
    odd2 = build_vector(m2, (rat(9),), (rat(11, 2),))
    assert compose_ket(odd1, odd2, True) == vector_tensor(odd1, odd2).scale(-1)
    even1 = build_vector(m1, (rat(7),), ())
    assert compose_ket(even1, odd2, True) == vector_tensor(even1, odd2)


def test_recursion_relation():
    smp = ParameterSampler("recursion", 1)
    for length in (2, 3):
        xi = smp.generic(length)
        model = ChainModel(cs(length, xi, (2, 1, -3)))
        for a, b in ((0, 1), (1, 1), (2, 2)):
            ps = smp.generic(a + b - 1, avoid=xi)
            us, vs = ps[:a], ps[a:]
            z = smp.generic_one(avoid=tuple(xi) + ps)
            assert check_recursion(model, us, vs, z).is_zero(), (length, a, b)


@pytest.mark.parametrize("a", (1, 2))
def test_recursion_with_swapped_g_arguments_fails(monkeypatch, a):
    """The recursion term with g(z,u0) in place of g(u0,z) leaves a nonzero
    residual at (a,b) = (a,1) on a gl(2|1) L=2 chain."""
    model = ChainModel(cs(2, (0, rat(1, 3)), (2, 1, -3)))
    ps = ParameterSampler("recursion-control", 1).generic(a + 1, avoid=(0, rat(1, 3)))
    us, z = ps[:a], ps[a]
    assert check_recursion(model, us, (), z).is_zero()
    assert composite.RECURSION_COEFFS == ("f(z,ubar)", "g(u0,z)*f(u0,ubar0)")
    monkeypatch.setattr(composite, "RECURSION_COEFFS", ("f(z,ubar)", "g(z,u0)*f(u0,ubar0)"))
    assert not check_recursion(model, us, (), z).is_zero()


def test_factor_exchange_with_one_g_on_both_sides_fails(monkeypatch):
    """g(vI,vII) on both sides of the factor exchange leaves a nonzero
    residual at b = 1 on a gl(2|1) L=2 split: both partial vectors are odd,
    so B2 B1 = -B1 B2."""
    split = SplitChain(cs(1, (0,), (2, 1, 3)), cs(1, (rat(1, 3),), (1, 1, -1)))
    us1, us2, vs1, vs2 = ((x,) for x in ParameterSampler("exchange-control", 1).generic(4, avoid=(0, rat(1, 3))))
    assert check_factor_exchange(split, us1, vs1, us2, vs2).is_zero()
    assert composite.EXCHANGE_COEFFS == ("g(vI,vII)", "g(vII,vI)")
    monkeypatch.setattr(composite, "EXCHANGE_COEFFS", ("g(vI,vII)", "g(vI,vII)"))
    assert not check_factor_exchange(split, us1, vs1, us2, vs2).is_zero()


def test_composite_creation_actions(split21):
    smp = ParameterSampler("interm", 1)
    xi = split21.part1.xi + split21.part2.xi
    for a, b in ((0, 0), (1, 1)):
        ps = smp.generic(a + b, avoid=xi)
        z = smp.generic_one(avoid=tuple(xi) + ps)
        r13, r23 = check_composite_creation_actions(split21, ps[:a], ps[a:], z)
        assert r13.is_zero() and r23.is_zero(), (a, b)
    # degenerate split reduces the identities to the plain action formulas
    spd = SplitChain(cs(0, ()), cs(2, (0, rat(1, 3)), (2, 1, 3)))
    ps = smp.generic(2, avoid=(rat(0), rat(1, 3)))
    z = smp.generic_one(avoid=(rat(0), rat(1, 3)) + ps)
    r13, r23 = check_composite_creation_actions(spd, ps[:1], ps[1:], z)
    assert r13.is_zero() and r23.is_zero()


def test_nongeneric_parameters_raise(split21):
    from superbethe.errors import DivisionByZero

    total = CompositeModel(split21)
    with pytest.raises(DivisionByZero):
        build_vector(total, (rat(5),), (rat(4),))  # v - u = -c


def test_action_decomposition_replay(split21):
    smp = ParameterSampler("replay", 1)
    xi = split21.part1.xi + split21.part2.xi
    for a, b in ((1, 1), (2, 1), (2, 2)):
        ps = smp.generic(a + b - 2, avoid=xi)
        us, vs = ps[: a - 1], ps[a - 1 :]
        z = smp.generic_one(avoid=tuple(xi) + ps)
        report = action_decomposition_report(split21, us, vs, z)
        for name, residual in report.items():
            ok = residual.is_zero() if hasattr(residual, "is_zero") else is_zero(residual)
            assert ok, (a, b, name)


def test_replay_classes_from_data_still_bite(split21, monkeypatch):
    import json
    from importlib import resources

    from superbethe import composite

    smp = ParameterSampler("replay-control", 1)
    xi = split21.part1.xi + split21.part2.xi
    ps = smp.generic(2, avoid=xi)
    us, vs = ps[:1], ps[1:]
    z = smp.generic_one(avoid=tuple(xi) + ps)
    report = action_decomposition_report(split21, us, vs, z)
    assert all(r.is_zero() if hasattr(r, "is_zero") else is_zero(r) for r in report.values())

    raw = json.loads(resources.files("superbethe").joinpath("data/composite_classes.json").read_text())
    c23 = raw["C23"][0]
    assert c23["coefficient"].endswith("/h(vi,z)")
    c23["coefficient"] = c23["coefficient"][: -len("/h(vi,z)")]
    perturbed = composite._compile_classes(raw)
    monkeypatch.setattr(composite, "load_class_table", lambda: perturbed)
    report = action_decomposition_report(split21, us, vs, z)
    assert not report["cancellation_c23_c32"].is_zero()


def test_replay_c13_c24_c33_bite_at_2_2(split21, monkeypatch):
    """The replay at (a,b) = (2,2), one u and one v beside z, fills the
    classes C13, C24 and C33, so their cancellation can fail there:
    dropping h(vi,ui) from the C13 coefficient breaks it at (2,2) and leaves
    it zero at (1,1), where those classes have no terms."""
    from superbethe import composite

    table = composite.load_class_table()
    names = {id(terms): name for name, terms in table.items()}
    classes = {}
    honest = composite.partition_sum

    def recording(terms, base, target, acc):
        out = honest(terms, base, target, acc)
        if id(terms) in names:
            classes[names[id(terms)]] = out
        return out

    monkeypatch.setattr(composite, "load_class_table", lambda: table)
    monkeypatch.setattr(composite, "partition_sum", recording)
    smp = ParameterSampler("replay-2-2", 1)
    xi = split21.part1.xi + split21.part2.xi
    ps = smp.generic(2, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    points = {(1, 1): ((), ()), (2, 2): (ps[:1], ps[1:])}
    report = action_decomposition_report(split21, *points[2, 2], z)
    assert all(r.is_zero() if hasattr(r, "is_zero") else is_zero(r) for r in report.values())
    for name in ("C13", "C24", "C33"):
        assert not classes[name].is_zero(), name

    raw = json.loads(resources.files("superbethe").joinpath("data/composite_classes.json").read_text())
    c13 = raw["C13"][0]
    assert c13["coefficient"].endswith("*h(vi,z)*h(vi,ui))")
    c13["coefficient"] = c13["coefficient"][: -len("*h(vi,ui))")] + ")"
    table = composite._compile_classes(raw)
    names = {id(terms): name for name, terms in table.items()}
    for ab, broken in (((2, 2), True), ((1, 1), False)):
        report = action_decomposition_report(split21, *points[ab], z)
        assert (not report["cancellation_c13_c24_c33"].is_zero()) == broken, ab
    assert all(classes[name].is_zero() for name in ("C13", "C24", "C33"))


def test_g_identity_witness_follows_the_replay(monkeypatch):
    from superbethe import composite

    calls = []
    honest = composite.three_term_witness

    def recording(u, v, z, c):
        calls.append((u, v, z, c))
        return honest(u, v, z, c)

    monkeypatch.setattr(composite, "three_term_witness", recording)
    split = SplitChain(cs(1, (0,), (2, 1, 3)), cs(1, (1,), (1, 1, -1)))
    smp = ParameterSampler("witness", 1)
    ps = smp.generic(2, avoid=(0, 1))
    us, vs = ps[:1], ps[1:]
    zs = smp.generic(2, avoid=(0, 1) + ps)
    for z in zs:
        assert is_zero(action_decomposition_report(split, us, vs, z)["g_identity_witness"])
    assert calls == [(us[0], vs[0], z, 1) for z in zs]
    assert is_zero(action_decomposition_report(split, (), (), zs[0])["g_identity_witness"])
    assert len(calls) == 2


def test_factorizations_at_3_3():
    sp = SplitChain(
        ChainSpec(2, (0, rat(1, 3)), (2, 1, 3), GL21, 1),
        ChainSpec(2, (1, rat(5, 3)), (rat(1, 2), 1, -1), GL21, 1),
    )
    smp = ParameterSampler("ext33", 1)
    drawn = smp.generic(6, avoid=sp.part1.xi + sp.part2.xi)
    assert check_bethe_factorization(sp, drawn[:3], drawn[3:]).is_zero()
    assert check_dual_bethe_factorization(sp, drawn[:3], drawn[3:]).is_zero()


def test_recursion_at_3_3():
    smp = ParameterSampler("extrec", 1)
    xi = smp.generic(3)
    model = ChainModel(ChainSpec(3, xi, (2, 1, -3), GL21, 1))
    ps = smp.generic(5, avoid=xi)
    z = smp.generic_one(avoid=tuple(xi) + ps)
    assert check_recursion(model, ps[:3], ps[3:], z).is_zero()
