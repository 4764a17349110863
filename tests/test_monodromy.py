import errno
import gc
import marshal
import os
import threading
import time
import tracemalloc
import warnings
import weakref
from collections import Counter
from itertools import product
from math import prod
from types import SimpleNamespace

import pytest

from superbethe import composite, graded, monodromy
from superbethe.actions import action_check
from superbethe.bethe import build_dual_vector, build_vector, grading_of
from superbethe.composite import (
    CompositeModel,
    SplitChain,
    check_bethe_factorization,
    check_recursion,
    compose_monodromy,
)
from superbethe.errors import DivisionByZero
from superbethe.gl12 import build_tilde_vector
from superbethe.graded import (
    GL12,
    GL21,
    DualGradedVector,
    GradedOperator,
    GradedVector,
    check_unitarity,
    check_ybe,
    clear_denominators,
    embed,
    r_matrix,
    slot_width,
    weight_spaces,
)
from superbethe.monodromy import (
    ChainModel,
    ChainSpec,
    Model,
    check_rtt,
    check_supercommutator,
    extract_entries,
    extraction_sign,
    vacuum_residuals,
)
from superbethe.rational import rat
from superbethe.sampling import ParameterSampler
from superbethe.scalars import EPS, f, g

from oracles import (
    all_supercommutators,
    embedded_monodromy,
    insert_identity,
    pass_layout,
    perturb_at,
    rational_entries,
    rtt_reference,
    take_rtt_path,
)


def chain(length, xi, twist=(1, 1, 1), sig=GL21, c=1):
    return ChainModel(ChainSpec(length, xi, twist, sig, c))


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(2, (1, 1), (1, 1, 1), GL21, 1)
    with pytest.raises(ValueError):
        ChainSpec(1, (0,), (1, 0, 1), GL21, 1)
    with pytest.raises(ValueError):
        ChainSpec(1, (0,), (1, 1, 1), GL21, 0)


def _hand_written_factor_sequence(model):
    """The reference factor list of a chain, its twist then its sites
    L..1, or of a composite, its part-2 twist and sites L..l1+1, then its
    part-1 twist and sites l1..1, written out case by case."""
    if isinstance(model, CompositeModel):
        part1, part2 = model.split.part1, model.split.part2
        l1 = part1.length
        fs = [("diag", tuple(part2.twist))]
        fs += [("site", site, part2.xi[site - l1 - 1]) for site in range(model.arity, l1, -1)]
        fs.append(("diag", tuple(part1.twist)))
        return fs + [("site", site, part1.xi[site - 1]) for site in range(l1, 0, -1)]
    spec = model.spec
    return [("diag", tuple(spec.twist))] + [("site", site, spec.xi[site - 1]) for site in range(spec.length, 0, -1)]


def test_factor_tuple_is_the_hand_written_sequence():
    smp = ParameterSampler("factor-tuple", 1)
    models = [chain(length, smp.generic(length), twist=smp.twist()) for length in range(6)]
    for l1, l2 in ((1, 2), (2, 1), (2, 2)):
        xi = smp.generic(l1 + l2)
        split = SplitChain(ChainSpec(l1, xi[:l1], smp.twist(), GL21, 1), ChainSpec(l2, xi[l1:], smp.twist(), GL21, 1))
        models.append(CompositeModel(split))
    for model in models:
        assert type(model.factors) is tuple and list(model.factors) == _hand_written_factor_sequence(model), model.arity


def test_single_site_entries():
    m = chain(1, (0,))
    assert m.T(1, 3, 1) == GradedOperator.unit(GL21, 3, 1).scale(-1)
    assert m.T(1, 1, 2).apply(m.omega()) == m.omega().scale(rat(3, 2))


def test_empty_chain_is_twist_diagonal():
    m = chain(0, (), twist=(2, 3, 5))
    mono = m.monodromy(rat(7, 2))
    for i in range(1, 4):
        for j in range(1, 4):
            op = mono.entry(i, j)
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
def test_lam_equals_the_product_of_f(sig):
    """lam_i(u), computed on ints at a rational u, is d_i prod_k f(u, xi_k)
    for i = 1 and d_i otherwise, on a composite with d the product of the
    parts' twists and xi both parts' sites, evaluated one f at a time, a
    Fraction, at u = -c (a zero of lam_1) too; it raises at an
    inhomogeneity."""
    c = rat(3, 2)
    part1 = ChainSpec(2, (0, rat(1, 3)), (2, rat(2, 3), -3), sig, c)
    part2 = ChainSpec(1, (rat(-5, 4),), (rat(1, 2), 3, 5), sig, c)
    twist = [x * y for x, y in zip(part1.twist, part2.twist)]
    for model, d, xi in (
        (ChainModel(part1), part1.twist, part1.xi),
        (CompositeModel(SplitChain(part1, part2)), twist, part1.xi + part2.xi),
    ):
        for u in (rat(7, 2), 3, rat(-2, 9), -c):
            for i in (1, 2, 3):
                want = rat(d[i - 1]) * (prod((f(u, x, c) for x in xi), start=rat(1)) if i == 1 else 1)
                got = model.lam(i, u)
                assert type(got) is type(rat(1)) and got == want, (i, u)
                assert model.r(i, u) == want / rat(d[1]), (i, u)
        for x in xi:
            with pytest.raises(DivisionByZero):
                model.lam(1, x)


def test_point_ids_key_the_cleared_pair():
    """An int and the equal rational are one walk point: one id, one record
    of the cleared pair and lam2."""
    m = chain(2, (0, rat(1, 2)), twist=(1, 3, 1))
    assert m.point_id(3) == m.point_id(rat(3)) == 0
    assert m.point_id(rat(6, 4)) == m.point_id(rat(3, 2)) == 1
    assert m.point_ids == {(3, 1): 0, (3, 2): 1}
    assert m.points == [((3, 1), (3, 1)), ((3, 2), (3, 1))]


def _read_r(sig, c, u, v):
    """The entries of clear_denominators(r_matrix(...)) at (u, v) and (v, u)
    as _rtt_pass reads them, flattened as 81 side + 9 row + col (side 0 at
    (u, v), side 1 at (v, u)), and the scale of each side."""
    scales, read = [], {}
    for side, (x, y) in enumerate(((u, v), (v, u))):
        n, r = clear_denominators(r_matrix(x, y, sig, c))
        scales.append(n)
        read.update((81 * side + 9 * row + col, val) for col, colmap in r.cols.items() for row, val in colmap.items())
    return scales, read


@pytest.mark.parametrize("flipped", [False, True], ids=["honest", "flipped"])
@pytest.mark.parametrize("c", [1, rat(3, 2)])
@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_rtt_pass_reads_the_cleared_r_matrix(sig, c, flipped, request):
    """The R(u,v) and R(v,u) that the passes at (u, v) and (v, u) build on
    ints are clear_denominators(r_matrix(...)) entry for entry, scale
    included, and under a replaced super_permutation they read the
    replacement; at u - v = c one diagonal entry of R(u,v) is 0 and is not
    stored."""
    if flipped:
        request.getfixturevalue("flipped_koszul")
    smp = ParameterSampler(f"cleared-r:{sig.name}:{c}", 1)
    pairs = [smp.generic(2) for _ in range(3)] + [(rat(5, 2), rat(5, 2) - c), (3, 1)]
    for u, v in pairs:
        (gd, read), (gd_vu, read_vu) = monodromy._cleared_r(sig, c, u, v), monodromy._cleared_r(sig, c, v, u)
        assert ([gd, gd_vu], read | {81 + k: x for k, x in read_vu.items()}) == _read_r(sig, c, u, v), (u, v)


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
    mono = m.monodromy(rat(9, 2))
    for i in range(1, 4):
        for j in range(1, 4):
            op = mono.entry(i, j)
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
    mono = model.monodromy(u)
    for i in range(1, 4):
        for j in range(1, 4):
            entry = mono.entry(i, j)
            assert model.apply_T(i, j, u, ket) == entry.apply(ket), (i, j)
            m, scaled = model.apply_T_scaled(i, j, u, bra)
            assert scaled == entry.apply_dual(bra).scale(m), (i, j)


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
def test_apply_T_on_two_twist_composite(sig):
    smp = ParameterSampler(f"apply-composite:{sig.name}", 1)
    xi = smp.generic(3)
    split = SplitChain(
        ChainSpec(1, xi[:1], smp.twist(), sig, 1),
        ChainSpec(2, xi[1:], smp.twist(), sig, 1),
    )
    total = CompositeModel(split)
    u = smp.generic_one(avoid=xi)
    ket, bra = _sparse_pair(smp, sig, 3, nnz=4)
    _assert_actions_match(total, u, ket, bra)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_apply_T_acts_on_bras_from_the_left(sig):
    """The walk reads its side off the vector: on a bra, Model.apply_T is
    bra . T_ij(u), as T(i, j, u).apply_dual gives it, for all nine entries
    and every basis bra of an L=2 chain."""
    m = chain(2, (0, rat(1, 3)), twist=(2, rat(3, 2), -1), sig=sig)
    u = rat(5, 7)
    for i, j in product(range(1, 4), repeat=2):
        entry = m.T(i, j, u)
        for digits in product(range(1, 4), repeat=2):
            bra = DualGradedVector.basis(sig, digits)
            assert m.apply_T(i, j, u, bra) == entry.apply_dual(bra), (i, j, digits)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_a_walk_to_several_ends_gives_each_entry(sig):
    """A walk with ends, one column of T(u) on a ket and one row on a bra,
    gives each entry's action as its single-entry walk does, on a twisted
    chain of every length up to 3 (the twist-only L=0 chain included) and
    on a two-twist composite, at every column (row) and basis vector."""
    smp = ParameterSampler(f"walk-ends:{sig.name}", 1)
    xi = smp.generic(3)
    models = [chain(length, xi[:length], twist=smp.twist(), sig=sig) for length in range(4)]
    models.append(CompositeModel(SplitChain(ChainSpec(1, xi[:1], smp.twist(), sig, 1), ChainSpec(2, xi[1:], smp.twist(), sig, 1))))
    u = smp.generic_one(avoid=xi)
    for model in models:
        _, orders = model._walk_weights(model.point_id(u))
        for digits in product(range(1, 4), repeat=model.arity):
            for vec in (GradedVector.basis(sig, digits), DualGradedVector.basis(sig, digits)):
                for k in range(1, 4):
                    ends = monodromy._walk(sig, model.arity, k, k, vec, orders, range(1, 4))
                    for e, got in ends.items():
                        i, j = (k, e) if isinstance(vec, DualGradedVector) else (e, k)
                        assert got == monodromy._walk(sig, model.arity, i, j, vec, orders), (model.arity, digits, i, j)


def test_walk_refuses_an_eps_shifted_point():
    """T(u) is walked at rational points only: a coincidence is evaluated
    where it is, so no operator or vector holds an EpsScalar."""
    m = chain(2, (0, rat(1, 3)))
    u = rat(5, 2) + EPS
    with pytest.raises(TypeError, match="rational points only"):
        m.monodromy(u)
    with pytest.raises(TypeError, match="rational points only"):
        m.apply_T(1, 3, u, m.omega())
    with pytest.raises(TypeError, match="rational points only"):
        m.apply_T_scaled(3, 1, u, m.omega_dual())


def test_apply_T_on_inhomogeneity():
    m = chain(2, (0, 1))
    with pytest.raises(DivisionByZero):
        m.apply_T(1, 1, 1, m.omega())
    with pytest.raises(DivisionByZero):
        m.apply_T_scaled(1, 1, 0, m.omega_dual())


def test_vector_side_never_materializes_T(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("T(u) materialized")

    monkeypatch.setattr(monodromy, "build_factor_product", refuse)
    monkeypatch.setattr(monodromy, "build_cleared_product", refuse)
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
    for model in (m21, m12):
        assert all(ok for _, ok in vacuum_residuals(model, z))


_HONEST_SWAP_SIGN = monodromy.swap_sign
_FLIPPED_SWAP_SIGNS = {
    # (-1)^{pa pb}: only an odd auxiliary digit meeting an odd site digit
    "odd-odd": lambda pa, pb, between: -_HONEST_SWAP_SIGN(pa, pb, between) if pa & pb else _HONEST_SWAP_SIGN(pa, pb, between),
    # (-1)^{(pa+pb) between}: an odd digit moved past odd site digits
    "between": lambda pa, pb, between: -_HONEST_SWAP_SIGN(pa, pb, between)
    if (pa ^ pb) & between
    else _HONEST_SWAP_SIGN(pa, pb, between),
}
# the flips above are symmetric in (pa, pb), so under them a key goes to its
# swap with the sign of the way back; "odd-even" flips only an odd auxiliary
# digit swapped with an even site digit, so the two signs differ and P_{0k}
# is no longer a symmetric matrix. The bra walk applies each factor as it
# applies it to kets, which takes a symmetric factor, so only kets are
# walked under it (test_honest_swap_sign_is_symmetric)
_ASYMMETRIC_SWAP_SIGNS = {
    "odd-even": lambda pa, pb, between: -_HONEST_SWAP_SIGN(pa, pb, between) if pa > pb else _HONEST_SWAP_SIGN(pa, pb, between),
}
_SWAP_SIGN_RULES = {**_FLIPPED_SWAP_SIGNS, **_ASYMMETRIC_SWAP_SIGNS}


def test_honest_swap_sign_is_symmetric():
    """The premise of walking bras with the kets' factor map: the honest
    sign of P_{0k} is the same both ways, and the asymmetric control's is
    not."""
    cases = list(product((0, 1), repeat=3))
    assert all(monodromy.swap_sign(pa, pb, p) == monodromy.swap_sign(pb, pa, p) for pa, pb, p in cases)
    rule = _ASYMMETRIC_SWAP_SIGNS["odd-even"]
    assert any(rule(pa, pb, p) != rule(pb, pa, p) for pa, pb, p in cases)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("flip", ["honest", *sorted(_SWAP_SIGN_RULES)])
def test_every_entry_carries_its_extraction_sign(monkeypatch, sig, flip):
    """The premise of extraction_sign: every nonzero entry of the block T_ij
    of T(u) has par(row) + par(col) = [i] + [j], so the sign
    (-1)^{[j](par(row) + par(col))} of reading it off is the constant
    eps_ij, with the honest swap signs and with every replaced rule."""
    if flip != "honest":
        monkeypatch.setattr(monodromy, "swap_sign", _SWAP_SIGN_RULES[flip])
    for length in range(4):
        smp = ParameterSampler(f"extraction-sign:{sig.name}:{length}", 1)
        xi = smp.generic(length)
        model = chain(length, xi, twist=smp.twist(), sig=sig)
        par = graded.parity_table(sig, length)
        for (i, j), op in model.monodromy(smp.generic_one(avoid=xi)).scaled.items():
            assert op.cols or length == 0 and i != j, (length, i, j)
            for col, rows in op.cols.items():
                for row in rows:
                    assert par[row] ^ par[col] == sig.par(i) ^ sig.par(j), (length, i, j, row, col)
                    assert (-1) ** (sig.par(j) * (par[row] ^ par[col])) == extraction_sign(sig, i, j)


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


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("flip", sorted(_SWAP_SIGN_RULES))
def test_swap_sign_replaced_before_the_first_walk_reaches_the_skeleton(monkeypatch, sig, flip):
    """A model builds its factor skeleton, which holds the swap signs, on its
    first walk: a model made under the honest swap_sign and first walked
    after the rule was replaced walks with the replaced rule, like the T(u)
    built then, while a model walked before keeps the honest signs."""
    smp = ParameterSampler(f"skeleton-swap-sign:{sig.name}", 1)
    xi = smp.generic(2)
    u = smp.generic_one(avoid=xi)
    twist = smp.twist()
    honest, late = chain(2, xi, twist, sig), chain(2, xi, twist, sig)
    basis = [GradedVector.basis(sig, digits) for digits in product((1, 2, 3), repeat=2)]
    walked = lambda model: [model.apply_T(i, j, u, vec) for i, j in product(range(1, 4), repeat=2) for vec in basis]
    before = walked(honest)
    monkeypatch.setattr(monodromy, "swap_sign", _SWAP_SIGN_RULES[flip])
    after = walked(late)
    assert after != before and walked(honest) == before
    built = late.monodromy(u)
    assert after == [built.entry(i, j).apply(vec) for i, j in product(range(1, 4), repeat=2) for vec in basis]


def _assert_walk_is_built_block(model, u, bras=True):
    """Model.apply_T_scaled, on every basis ket and on a ket with every key
    and, with bras, on the same bras, for all nine (i, j), is m times the
    block (i, j) of T(u) as build_factor_product gives it. A basis vector
    never holds a key and its swap at the site being walked (the digits of
    the sites not yet walked are its own), so only the full vector walks
    the two into one another."""
    sig, length = model.sig, model.arity
    op = monodromy.build_factor_product(sig, model.c, length, model.factors, u)
    blocks = extract_entries(op, sig, length)
    vectors = [{key: 1} for key in range(3**length)] + [{key: rat(2 * key + 1, 3) for key in range(3**length)}]
    for key, entries in enumerate(vectors):
        ket, bra = GradedVector(sig, length, entries), DualGradedVector(sig, length, entries)
        for (i, j), block in blocks.items():
            m, scaled = model.apply_T_scaled(i, j, u, ket)
            assert scaled == block.apply(ket).scale(m), (key, i, j)
            if bras:
                m, scaled = model.apply_T_scaled(i, j, u, bra)
                assert scaled == block.apply_dual(bra).scale(m), (key, i, j)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("flip", ["honest", *sorted(_SWAP_SIGN_RULES)])
def test_routed_walk_equals_the_built_blocks(monkeypatch, sig, flip):
    """The walk through the per-site routes against the built T(u) on
    chains of 1..5 sites and on two composites, whose twists sit mid
    sequence, under the honest swap_sign and each replaced one (the build
    reads the rule too), at a drawn point and, up to four sites, at
    u = min(xi) - c, where one coefficient gd + gn of a site factor is 0.
    Under the asymmetric rule, which tells a key's way to its swap from the
    way back, the kets are walked only."""
    if flip != "honest":
        monkeypatch.setattr(monodromy, "swap_sign", _SWAP_SIGN_RULES[flip])
    smp = ParameterSampler(f"routed-walk:{sig.name}", 1)
    c = rat(3, 2)
    models = []
    for length in range(1, 6):
        xi = smp.generic(length)
        models.append(chain(length, xi, twist=smp.twist(), sig=sig, c=c))
    for l1, l2 in ((1, 2), (2, 2)):
        xi = smp.generic(l1 + l2)
        split = SplitChain(ChainSpec(l1, xi[:l1], smp.twist(), sig, c), ChainSpec(l2, xi[l1:], smp.twist(), sig, c))
        models.append(CompositeModel(split))
    for model in models:
        xi = [x for kind, *rest in model.factors if kind == "site" for x in rest[1:]]
        for u in (smp.generic_one(avoid=xi), min(xi) - c)[: 1 + (model.arity < 5)]:
            _assert_walk_is_built_block(model, u, bras=flip not in _ASYMMETRIC_SWAP_SIGNS)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_models_of_one_shape_share_their_routes(monkeypatch, sig):
    """A route depends on the signature, the chain length, the site and the
    swap-sign rule only: two chains of one length, walked at different
    points, hold the same route object per site, one byte per key of
    auxiliary x chain, and a build of T(u) after them computes no route of
    its own; a chain walked under a flipped rule holds its own."""
    smp = ParameterSampler(f"shared-routes:{sig.name}", 1)
    length = 3

    def routes(model, u):
        model.apply_T(1, 2, u, model.omega())
        _, ((_, factors, last, _), _) = model._walk_weights(model.point_id(u))
        return [data[2][0] for data in (*factors, last) if data[0] == "site"]

    first, second = (chain(length, smp.generic(length), twist=smp.twist(), sig=sig) for _ in range(2))
    u, v = smp.generic(2, avoid=first.spec.xi + second.spec.xi)
    shared = routes(first, u)
    assert len(shared) == length and all(type(code) is bytes and len(code) == 3 ** (length + 1) for code in shared)
    assert all(a is b for a, b in zip(shared, routes(second, v)))
    # a build of T(u) reads the same routes as the walks: it computes none
    misses = monodromy._route.cache_info().misses
    second.monodromy(u)
    assert monodromy._route.cache_info().misses == misses
    monkeypatch.setattr(monodromy, "swap_sign", _FLIPPED_SWAP_SIGNS["between"])
    flipped = routes(chain(length, first.spec.xi, twist=first.spec.twist, sig=sig), u)
    assert all(a is not b for a, b in zip(shared, flipped))


# ---------------------------------------------------------------------------
# integer-scaled operator identities against the rational formulas
# ---------------------------------------------------------------------------


def _compose_monodromy_reference(split, u):
    total = CompositeModel(split)
    l1, length = total.part1.arity, total.arity
    pos1, pos2 = tuple(range(1, l1 + 1)), tuple(range(l1 + 1, length + 1))
    m1, m2 = rational_entries(total.part1, u), rational_entries(total.part2, u)
    direct = rational_entries(total, u)
    out = {}
    for i, j in product(range(1, 4), repeat=2):
        acc = GradedOperator(total.sig, length)
        for k in range(1, 4):
            acc = acc.add(embed(m1[k, j], pos1, length).compose(embed(m2[i, k], pos2, length)))
        out[i, j] = acc.sub(direct[i, j])
    return out


def _vacuum_reference(model, u):
    t = rational_entries(model, u)
    omega, dual = model.omega(), model.omega_dual()
    out = []
    for i in range(1, 4):
        lam = model.lam(i, u)
        out.append((f"T{i}{i} ket eigenvalue", t[i, i].apply(omega).sub(omega.scale(lam)).is_zero()))
        out.append((f"T{i}{i} bra eigenvalue", t[i, i].apply_dual(dual).sub(dual.scale(lam)).is_zero()))
    for i, j in product(range(1, 4), repeat=2):
        if i > j:
            out.append((f"T{i}{j} annihilates ket", t[i, j].apply(omega).is_zero()))
        elif i < j:
            out.append((f"T{i}{j} annihilates bra", t[i, j].apply_dual(dual).is_zero()))
    return out


def _split_2_2(sig, seed):
    smp = ParameterSampler(f"split:{sig.name}:{seed}", 1)
    xi = smp.generic(4)
    split = SplitChain(ChainSpec(2, xi[:2], smp.twist(), sig, 1), ChainSpec(2, xi[2:], smp.twist(), sig, 1))
    return split, smp.generic_one(avoid=xi)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_rtt_equals_rational_formula(sig, length):
    smp = ParameterSampler(f"rtt-oracle:{sig.name}:{length}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    res = check_rtt(model, u, v)
    assert res.is_zero() and res == rtt_reference(model, u, v)
    assert vacuum_residuals(model, u) == _vacuum_reference(model, u)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("length", [1, 2, 3])
def test_supercommutator_equals_rational_formula(sig, length):
    smp = ParameterSampler(f"comm-oracle:{sig.name}:{length}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    for t, (got, want) in all_supercommutators(model, u, v).items():
        assert got == want, t
        assert got[0].is_zero() and got[1].is_zero(), t


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_compose_monodromy_equals_rational_formula(sig):
    split, u = _split_2_2(sig, 1)
    composed, residuals = compose_monodromy(split, u)
    assert residuals == _compose_monodromy_reference(split, u)
    assert all(r.is_zero() for r in residuals.values())
    direct = CompositeModel(split).monodromy(u)
    assert all(composed.entry(i, j) == direct.entry(i, j) for i, j in product(range(1, 4), repeat=2))


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_identities_under_flipped_koszul_sign(sig, flipped_koszul):
    smp = ParameterSampler(f"flip-oracle:{sig.name}", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    res = check_rtt(model, u, v)
    # the walk builds T(u) with swap_sign, not with the flipped P, so only
    # R(u,v) is flipped: the embedded product, flipped throughout, differs
    assert not res.is_zero() and res != rtt_reference(model, u, v)
    assert res == rtt_reference(model, u, v, build=Model.monodromy_op)
    # the exchange residuals are blocks of RTT residuals, so they read the
    # flipped R(u,v) and R(v,u) too, and some of them fail
    blocks = {form: _rtt_blocks(rtt_reference(model, *pts, build=Model.monodromy_op), sig, 2) for form, pts in ((1, (v, u)), (2, (u, v)))}
    failing = 0
    for t in product(range(1, 4), repeat=4):
        got = check_supercommutator(model, *t, u, v)
        assert got == tuple(_exchange_form(sig, blocks[form], form, *t) for form in (1, 2)), t
        failing += any(not r.is_zero() for r in got)
    assert failing > 0
    split, x = _split_2_2(sig, 2)
    _, residuals = compose_monodromy(split, x)
    assert residuals == _compose_monodromy_reference(split, x)


def _perturb_twist_at(monkeypatch, point):
    """Add 1 to the first entry of the cleared twist, M d_1, in the factor
    data of point (monodromy._point_weights) computed from now on: the walks
    and every N*T(point) built read it."""
    honest = monodromy._point_weights

    def perturbed(skeleton, up, uq):
        m, weights = honest(skeleton, up, uq)
        if rat(up, uq) != point:
            return m, weights
        return m, [("diag", (w[1][0] + 1, *w[1][1:])) if w[0] == "diag" else w for w in weights]

    monkeypatch.setattr(monodromy, "_point_weights", perturbed)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_identities_with_a_perturbed_monodromy_entry(sig, monkeypatch):
    smp = ParameterSampler(f"perturb-oracle:{sig.name}", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    split, x = _split_2_2(sig, 3)
    # the vacuum axioms walk the factors, so their control perturbs the
    # factors themselves, which the materialized entries read as well
    with monkeypatch.context() as patched:
        _perturb_twist_at(patched, u)
        vacuum = vacuum_residuals(model, u)
        assert vacuum == _vacuum_reference(model, u)
        assert ("T11 ket eigenvalue", False) in vacuum and ("T11 bra eigenvalue", False) in vacuum
    perturb_at(monkeypatch, u)
    res = check_rtt(model, u, v)
    assert not res.is_zero() and res == rtt_reference(model, u, v, build=Model.monodromy_op)
    pairs = all_supercommutators(model, u, v)
    assert all(got == want for got, want in pairs.values())
    assert any(not r.is_zero() for got, _ in pairs.values() for r in got)
    perturb_at(monkeypatch, x)
    _, residuals = compose_monodromy(split, x)
    assert residuals == _compose_monodromy_reference(split, x)
    assert any(not r.is_zero() for r in residuals.values())


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("at_u", [True, False], ids=["at-u", "at-v"])
@pytest.mark.parametrize("delta", [1, 2**200], ids=["1", "2^200"])
def test_supercommutator_with_a_perturbed_entry_equals_rational_formula(sig, at_u, delta, monkeypatch):
    """Nonzero exchange residuals, unpacked from their packed columns, equal
    the rational formulas on the perturbed entries tuple for tuple, also
    when one entry of N*T is 2^200 off and the slot width grows with it."""
    smp = ParameterSampler(f"comm-perturbed:{sig.name}", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    perturb_at(monkeypatch, u if at_u else v, delta)
    pairs = all_supercommutators(model, u, v)
    assert all(got == want for got, want in pairs.values())
    assert any(not r.is_zero() for got, _ in pairs.values() for r in got)


def _plant_foreign_entry(monkeypatch):
    """Make every N*T(u) built from now on hold one entry that breaks the
    weight: 1 in column (1, 1, ..., 1) at the row with site 1 on digit 2."""
    honest = monodromy.build_cleared_product

    def planted(sig, c, length, factors, x):
        n, op = honest(sig, c, length, factors, x)
        cols = {col: dict(colmap) for col, colmap in op.cols.items()}
        cols[0][3 ** (length - 1)] = 1
        return n, GradedOperator(op.sig, op.arity, cols)

    monkeypatch.setattr(monodromy, "build_cleared_product", planted)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_exchange_residual_near_its_width_bound_fits_its_slots(sig, monkeypatch):
    """With N*T planted at every point as 2^100 in every slot of every
    weight class and g(u,v) = 1/1000, anticommutator residual entries of
    the cleared blocks reach 2 gd S a b, 0.999 of the bound 2 r S a b,
    r = gd + gn, that sizes the slots of RTT and the exchange relations
    alike, one equal bound for each of the pair's passes at (u, v) and
    (v, u), so slots one bit narrower than theirs would not hold them; the
    unpacked residuals still equal the rational formulas."""
    honest = monodromy.build_cleared_product

    def dense(sig, c, length, factors, x):
        n, _ = honest(sig, c, length, factors, x)
        cols = {col: {row: 2**100 for row in keys} for keys in weight_spaces(length + 1).values() for col in keys}
        return n, GradedOperator(sig, length + 1, cols)

    bounds = []
    monkeypatch.setattr(monodromy, "build_cleared_product", dense)
    monkeypatch.setattr(monodromy, "slot_width", lambda bound: bounds.append(bound) or slot_width(bound))
    model = chain(2, (rat(1, 3), rat(-2, 5)), twist=(2, rat(1, 3), -3), sig=sig)
    u, v = rat(1001, 2), rat(-999, 2)
    pairs = all_supercommutators(model, u, v)
    assert all(got == want for got, want in pairs.values())
    cleared = [clear_denominators(r_matrix(x, y, sig, model.c)) for x, y in ((u, v), (v, u))]
    assert [n for n, _ in cleared] == [1000, 1000]
    r = max(abs(x) for _, op in cleared for m in op.cols.values() for x in m.values())
    assert r == 1001 and bounds == [2 * r * max(map(len, weight_spaces(2).values())) * 2**200] * 2
    largest = max(abs(x) for _, nonzero in model._pair_blocks[1:] for cols in nonzero for rows in cols.values() for x in rows.values())
    assert largest >= 2 ** (slot_width(bounds[0]) - 2)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_an_entry_that_breaks_the_weight_raises(sig, monkeypatch):
    """RTT and the exchange relations pack each column into the weight
    class its weight predicts, so an entry outside it fails the slot lookup:
    they raise rather than return a residual."""
    smp = ParameterSampler(f"foreign-entry:{sig.name}", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    _plant_foreign_entry(monkeypatch)
    assert model.monodromy(u).scaled[1, 1].entry(3, 0) == 1  # the planted entry, site 1 on digit 2
    with pytest.raises(KeyError):
        check_rtt(model, u, v)
    with pytest.raises(KeyError):
        check_supercommutator(model, 1, 1, 1, 1, u, v)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("delta", [1, 2**200], ids=["1", "2^200"])
def test_rtt_with_a_perturbed_entry_equals_rational_formula(sig, delta, monkeypatch):
    """A nonzero residual, unpacked from its weight classes, equals the
    rational formula's entry for entry, also when one entry of N*T(v) is
    2^200 off and the slot width grows with it."""
    smp = ParameterSampler(f"rtt-perturbed:{sig.name}", 1)
    xi = smp.generic(3)
    model = chain(3, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    perturb_at(monkeypatch, v, delta)
    res = check_rtt(model, u, v)
    assert not res.is_zero() and res == rtt_reference(model, u, v, build=Model.monodromy_op)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_rtt_residual_beyond_the_entry_product_fits_its_slots(sig, monkeypatch):
    """With 2^100 added to every entry of N*T at every point, residual
    entries exceed r*a*b, the product of the largest cleared entries of R,
    T(u) and T(v), so a slot sized without the 2*S factor would not hold
    them; the unpacked residual still equals the rational formula."""
    honest = monodromy.build_cleared_product

    def shifted(*args):
        n, op = honest(*args)
        return n, GradedOperator(op.sig, op.arity, {c: {r: x + 2**100 for r, x in m.items()} for c, m in op.cols.items()})

    monkeypatch.setattr(monodromy, "build_cleared_product", shifted)
    smp = ParameterSampler(f"rtt-dense:{sig.name}", 1)
    xi = smp.generic(3)
    model = chain(3, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    res = check_rtt(model, u, v)
    assert res == rtt_reference(model, u, v, build=Model.monodromy_op)
    (na, a), (nb, b) = (shifted(sig, model.c, 3, model.factors, x) for x in (u, v))
    nr, r = clear_denominators(r_matrix(u, v, sig, model.c))
    largest = lambda op: max(abs(x) for m in op.cols.values() for x in m.values())
    cleared = res.scale(na * nb * nr)
    assert largest(cleared) > largest(r) * largest(a) * largest(b)


def _rtt_blocks(res, sig, length):
    """{(a, b, c, d): block ((a,b),(c,d))} of an RTT residual, the block
    with rows (a, b, m) and columns (c, d, n) as an operator on the chain."""
    shift = 3**length
    blocks = {}
    for col, colmap in res.cols.items():
        for row, x in colmap.items():
            blocks.setdefault((row // shift, col // shift), {}).setdefault(col % shift, {})[row % shift] = x
    return {(a, b, c, d): GradedOperator(sig, length, blocks.get((3 * a + b - 4, 3 * c + d - 4), {})) for a, b, c, d in product(range(1, 4), repeat=4)}


def _exchange_form(sig, blocks, form, i, j, k, l):
    """Exchange form 1 (2) of the tuple (i, j, k, l) read off the _rtt_blocks
    of the RTT residual at (v, u) (at (u, v)), by the sign table of
    check_supercommutator: -s(i,j) s(k,l) (-1)^{[j]([k]+[l])} block
    ((k,i),(l,j)), resp. s(i,j) s(k,l) (-1)^{[k]([i]+[j])} block
    ((i,k),(j,l)), with s(a,b) = -1 iff [b] = 1 and [a] = 0, the extraction
    sign of the entry T_ab."""
    p = [None, *sig.parity]
    s = (-1 if p[j] and not p[i] else 1) * (-1 if p[l] and not p[k] else 1)
    if form == 1:
        return blocks[k, i, l, j].scale(s if p[j] & (p[k] ^ p[l]) else -s)
    return blocks[i, k, j, l].scale(-s if p[k] & (p[i] ^ p[j]) else s)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize(
    "at_u, form", [(True, 2), (False, 2), (True, 1), (False, 1)], ids=["at-u", "at-v", "at-u-form-1", "at-v-form-1"]
)
def test_rtt_blocks_are_the_exchange_relations(sig, at_u, form, monkeypatch):
    """The blocks of the RTT residual at (v, u) are the first exchange forms
    and those at (u, v) the second ones (Kulish-Sklyanin 1982), signed as
    _exchange_form reads them. With the first entry of N*T(u) (of N*T(v))
    perturbed, 12 (8) blocks at (u, v) and 8 (12) at (v, u) are nonzero."""
    for length in (1, 2, 3):
        smp = ParameterSampler(f"rtt-blocks:{sig.name}:{length}", 1)
        xi = smp.generic(length)
        model = chain(length, xi, twist=smp.twist(), sig=sig)
        u, v = smp.generic(2, avoid=xi)
        with monkeypatch.context() as patched:
            perturb_at(patched, u if at_u else v)
            blocks = _rtt_blocks(check_rtt(model, *((v, u) if form == 1 else (u, v))), sig, length)
            nonzero = 0
            for t in product(range(1, 4), repeat=4):
                got = check_supercommutator(model, *t, u, v)[form - 1]
                assert got == _exchange_form(sig, blocks, form, *t), (length, t)
                nonzero += not got.is_zero()
        assert nonzero == (12 if at_u == (form == 2) else 8), (length, nonzero)


def test_operator_identities_multiply_only_ints(monkeypatch):
    """Every compose, column product, packed column and linear combination
    of the operator identities multiplies plain ints, and T(u) itself is
    built on ints: a Fraction anywhere fails this test."""
    seen = Counter()
    honest_compose = GradedOperator.compose
    honest_kernel = graded.column_product
    honest_pack = graded.pack
    honest_packed_products = graded.packed_products
    honest_combination = graded.linear_combination
    honest_build = monodromy.build_cleared_product

    def entry_types(op):
        return (type(v).__name__ for m in op.cols.values() for v in m.values())

    def compose(self, other):
        seen.update(t for op in (self, other) for t in entry_types(op))
        return honest_compose(self, other)

    def kernel(cols, column):
        seen.update(type(x).__name__ for x in column.values())
        seen.update(type(a).__name__ for k in column for a in (cols.get(k) or {}).values())
        return honest_kernel(cols, column)

    def pack(column, shifts):
        seen["packed kernel calls"] += 1
        seen.update(type(x).__name__ for x in column.values())
        return honest_pack(column, shifts)

    def packed_products(rows, column):
        seen["packed kernel calls"] += 1
        seen.update(type(x).__name__ for x in column.values())
        seen.update(type(p).__name__ for k in column for p in rows[k])
        return honest_packed_products(rows, column)

    def combination(terms):
        seen["linear combinations"] += 1
        seen.update(type(coef).__name__ for coef, _ in terms)
        seen.update(t for _, op in terms for t in entry_types(op))
        return honest_combination(terms)

    def build(*args):
        n, op = honest_build(*args)
        seen.update(entry_types(op))
        return n, op

    def refuse(*args):
        raise AssertionError("rational T(u) built")

    monkeypatch.setattr(GradedOperator, "compose", compose)
    monkeypatch.setattr(graded, "column_product", kernel)
    monkeypatch.setattr(monodromy, "pack", pack)
    monkeypatch.setattr(monodromy, "packed_products", packed_products)
    monkeypatch.setattr(composite, "linear_combination", combination)
    monkeypatch.setattr(monodromy, "build_cleared_product", build)
    monkeypatch.setattr(monodromy, "build_factor_product", refuse)
    smp = ParameterSampler("int-gate", 1)
    xi = smp.generic(3)
    u, v, w = smp.generic(3, avoid=xi)
    assert check_rtt(chain(3, xi, twist=smp.twist()), u, v).is_zero()
    # RTT multiplies through the packed kernel, nine entry products at a time
    assert seen.pop("packed kernel calls") > 0
    model = chain(2, xi[:2], twist=smp.twist(), sig=GL12)
    for t in product(range(1, 4), repeat=4):
        assert all(r.is_zero() for r in check_supercommutator(model, *t, u, v))
    # and so do the exchange relations, on the packed entries of their pair
    assert seen.pop("packed kernel calls") > 0
    # the Yang-Baxter residual is one linear combination of the cached
    # permutation products, which are built on ints: here, afresh
    graded._products_of.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(graded, "linear_combination", combination)
        assert check_ybe(u, v, w, GL21, 1).is_zero()
    assert seen.pop("linear combinations") > 0 and seen["int"] > 0
    assert check_unitarity(u, v, GL12, 1).is_zero()
    split, x = _split_2_2(GL21, 4)
    assert all(r.is_zero() for r in compose_monodromy(split, x)[1].values())
    assert seen.pop("linear combinations") > 0
    assert seen["int"] > 0 and set(seen) == {"int"}, seen


def test_rtt_streams_its_residual(monkeypatch):
    """One L=4 RTT check holds no product of its arity-6 factors: its
    tracemalloc peak stays under 3 MB, where the four materialized products
    peak above 6 MB. The pass runs serially, so the pin covers all of its
    chain columns (tracemalloc sees this process only)."""
    forks = take_rtt_path(monkeypatch, False)
    model = chain(4, (rat(0), rat(1, 3), rat(-2, 5), rat(7, 4)), twist=(rat(2), rat(1, 3), rat(-3)))
    u, v = rat(5, 2), rat(-3, 7)
    check_rtt(model, u, v)  # fills the parity tables, the plan and the cached P first
    tracemalloc.start()
    try:
        assert check_rtt(model, u, v).is_zero()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 10**6, peak
    assert forks == []


def _l4_pair(sig, seed):
    smp = ParameterSampler(f"{seed}:{sig.name}", 1)
    xi = smp.generic(4)
    spec = ChainSpec(4, xi, smp.twist(), sig, 1)
    return spec, *smp.generic(2, avoid=xi)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("at", ["honest", "u", "v", "both"])
def test_forked_rtt_pass_equals_the_serial_pass(sig, at, monkeypatch):
    """At L = 4, with the upper half of its chain columns in one forked
    child, the pass returns the serial pass's scale and blocks, every
    block's columns in the same key order, at (u, v) and (v, u), honest and
    with N*T perturbed at u, at v and at both; check_rtt and all 162 forms
    of check_supercommutator give the same residuals and witnesses on both
    paths, and the forked path leaves no process behind."""
    spec, u, v = _l4_pair(sig, "forked-pass")
    if at in ("u", "both"):
        perturb_at(monkeypatch, u)
    if at in ("v", "both"):
        perturb_at(monkeypatch, v, 3)
    got = []
    for forked in (False, True):
        forks = take_rtt_path(monkeypatch, forked)
        model = ChainModel(spec)
        passes = [pass_layout(monodromy._rtt_pass(model, x, y)) for x, y in ((u, v), (v, u))]
        residuals = [check_rtt(model, u, v)] + [r for t in product(range(1, 4), repeat=4) for r in check_supercommutator(model, *t, u, v)]
        got.append((passes, residuals, [r.first_nonzero() for r in residuals]))
        # two passes, check_rtt's and the exchange pair's at (u, v), and at (v, u) where it fails
        assert len(forks) == forked * (4 + (at != "honest"))
    assert got[0] == got[1]
    assert residuals[0].is_zero() == (at == "honest")
    # a failing pass has blocks with columns on both sides of the split
    half = 3**4 // 2
    assert any(min(block)[0] < half <= max(block)[0] for _, blocks in passes for block in blocks if block) == (at != "honest")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_pass_whose_fork_fails_runs_its_columns_here(monkeypatch):
    """Where os.fork raises, the pass runs every chain column here and
    returns the serial pass, perturbed so that it has blocks."""
    spec, u, v = _l4_pair(GL12, "forked-hygiene")
    perturb_at(monkeypatch, u)
    take_rtt_path(monkeypatch, False)
    serial = pass_layout(monodromy._rtt_pass(ChainModel(spec), u, v))
    take_rtt_path(monkeypatch, True)

    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process to be had")

    monkeypatch.setattr(os, "fork", fork)
    assert pass_layout(monodromy._rtt_pass(ChainModel(spec), u, v)) == serial
    assert any(block for block in serial[1])


def test_a_failing_parent_half_kills_and_reaps_its_child(monkeypatch):
    """The exception of the parent's half comes through unchanged, and its
    child, here at work for 30 s before it fails, is killed and reaped at
    once."""
    forks = take_rtt_path(monkeypatch, True)
    spec, u, v = _l4_pair(GL21, "forked-hygiene")
    parent, boom = os.getpid(), ValueError("the parent's half")

    def packed_products(rows, column):
        if os.getpid() == parent:
            raise boom
        time.sleep(30)
        raise ValueError("the child's half")

    monkeypatch.setattr(monodromy, "packed_products", packed_products)
    start = time.monotonic()
    with pytest.raises(ValueError) as raised:
        check_rtt(ChainModel(spec), u, v)
    assert raised.value is boom and len(forks) == 1
    assert time.monotonic() - start < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault", ["raises", "short"])
def test_a_failing_child_raises_one_line_and_returns_no_block(fault, monkeypatch):
    """A child that raises (and so exits nonzero) or sends bytes one short
    of its blocks makes the pass raise a one-line ChildProcessError, and
    the child is reaped."""
    forks = take_rtt_path(monkeypatch, True)
    spec, u, v = _l4_pair(GL21, "forked-hygiene")
    parent = os.getpid()
    if fault == "raises":
        honest = monodromy.packed_products

        def packed_products(rows, column):
            if os.getpid() != parent:
                raise ValueError("the child's half")
            return honest(rows, column)

        monkeypatch.setattr(monodromy, "packed_products", packed_products)
    else:
        monkeypatch.setattr(monodromy, "marshal", SimpleNamespace(dumps=lambda x: marshal.dumps(x)[:-1], loads=marshal.loads))
    with pytest.raises(ChildProcessError) as raised:
        check_rtt(ChainModel(spec), u, v)
    message = str(raised.value)
    assert "forked half" in message and "\n" not in message
    assert ("exit status 1" in message) == (fault == "raises")
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fallback_predicate():
    """The pass forks from L = 4 on, where os.fork exists, the process may
    run on two CPUs and no other thread is alive, and runs serially
    otherwise."""
    if not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        pytest.skip("this process cannot fork onto a second CPU")
    assert monodromy._FORK_COLUMNS == 3**4
    assert monodromy._forks(3**4) and monodromy._forks(3**5) and not monodromy._forks(3**3)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not monodromy._forks(3**4)
    with pytest.MonkeyPatch.context() as patched:
        patched.delattr(os, "fork")
        assert not monodromy._forks(3**4)


def test_a_pass_with_another_thread_alive_runs_serially(monkeypatch):
    """With a second thread alive the pass takes the serial path, through
    the predicate as it is, and forks nothing, so it emits no warning."""
    forks, honest = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or honest())
    spec, u, v = _l4_pair(GL12, "forked-thread")
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not monodromy._forks(3**4)
            assert check_rtt(ChainModel(spec), u, v).is_zero()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive() and forks == []


def test_exchange_products_are_composed_once_per_pair(monkeypatch):
    """The exchange relations compose no operator: each of the 162 entry
    products of a pair is computed once on packed columns, the nine that
    share a right-hand column in one packed_products call, for all 81
    tuples, and the model keeps only nonzero block columns, of the latest
    pair only; an honest pair, all zero at (u, v), keeps no pass at
    (v, u)."""
    calls = Counter()
    honest = GradedOperator.compose
    honest_packed_products = monodromy.packed_products

    def compose(self, other):
        calls["compose"] += 1
        return honest(self, other)

    def packed_products(rows, column):
        calls["packed_products"] += 1
        return honest_packed_products(rows, column)

    smp = ParameterSampler("pair-products", 1)
    xi = smp.generic(2)
    twist = smp.twist()
    u, v, w = smp.generic(3, avoid=xi)
    monkeypatch.setattr(GradedOperator, "compose", compose)
    monkeypatch.setattr(monodromy, "packed_products", packed_products)
    model = chain(2, xi, twist=twist, sig=GL12)
    tuples = list(product(range(1, 4), repeat=4))
    for t in tuples:
        assert all(r.is_zero() for r in check_supercommutator(model, *t, u, v)), t
    assert calls["compose"] == 0
    assert calls["packed_products"] <= 18 * 3**2
    assert model._pair_blocks[0] == (u, v) and not any(model._pair_blocks[1][1]) and model._pair_blocks[2] is None
    # with T(u) perturbed the residuals at (u, v), (v, u) and (u, w) are
    # nonzero and differ, so a product kept from another pair would show
    perturb_at(monkeypatch, u)
    model = chain(2, xi, twist=twist, sig=GL12)
    nonzero = 0
    for t in tuples:
        for x, y in ((u, v), (v, u), (u, w)):
            got = check_supercommutator(model, *t, x, y)
            assert got == check_supercommutator(chain(2, xi, twist=twist, sig=GL12), *t, x, y), (t, x, y)
            nonzero += any(not r.is_zero() for r in got)
    assert nonzero > 0
    assert model._pair_blocks[0] == (u, w)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("at", ["u", "v", "both"])
def test_rtt_residuals_at_uv_and_vu_are_conjugate(sig, length, at, monkeypatch):
    """R(u,v) Res(v,u) R(u,v) = -(1 - g^2) P Res(u,v) P, g = g(u,v), Res the
    RTT residual of check_rtt and R, P placed on the two auxiliary factors
    by embed: unitarity, P R P = R and P T_1 P = T_2 give it for any T(u)
    that conserves the weight, so it holds with N*T perturbed where RTT
    fails, as long as each point's perturbation is the same on every build.
    It is why check_supercommutator skips the pass at (v, u) where every
    block at (u, v) is zero and R(u,v) is invertible."""
    smp = ParameterSampler(f"rtt-conjugate:{sig.name}:{length}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=smp.twist(), sig=sig)
    u, v = smp.generic(2, avoid=xi)
    if at in ("u", "both"):
        perturb_at(monkeypatch, u)
    if at in ("v", "both"):
        perturb_at(monkeypatch, v, 3)
    res_uv, res_vu = check_rtt(model, u, v), check_rtt(model, v, u)
    r = embed(r_matrix(u, v, sig, model.c), (1, 2), length + 2)
    p = embed(graded.super_permutation(sig), (1, 2), length + 2)
    assert not res_uv.is_zero() and not res_vu.is_zero()
    assert r.compose(res_vu).compose(r) == p.compose(res_uv).compose(p).scale(g(u, v, model.c) ** 2 - 1)


def _counted_passes(monkeypatch):
    """Count the calls of monodromy._rtt_pass from now on, by (u, v)."""
    calls = Counter()
    honest = monodromy._rtt_pass

    def counted(model, u, v):
        calls[u, v] += 1
        return honest(model, u, v)

    monkeypatch.setattr(monodromy, "_rtt_pass", counted)
    return calls


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_exchange_pair_runs_its_vu_pass_only_where_it_can_be_nonzero(sig, monkeypatch):
    """An honest pair makes one _rtt_pass for all 162 forms of all 81
    tuples, per model and pair, and returns zero; with N*T perturbed it
    makes two, at (u, v) and (v, u), and every form equals the rational
    formula."""
    smp = ParameterSampler(f"vu-pass:{sig.name}", 1)
    xi = smp.generic(2)
    twist = smp.twist()
    u, v, w = smp.generic(3, avoid=xi)
    calls = _counted_passes(monkeypatch)
    models = [chain(2, xi, twist=twist, sig=sig) for _ in range(2)]
    for x, y in ((u, v), (v, w)):
        for model in models:
            for t in product(range(1, 4), repeat=4):
                assert all(r.is_zero() for r in check_supercommutator(model, *t, x, y)), t
            assert model._pair_blocks[2] is None
    assert calls == {(u, v): 2, (v, w): 2}
    calls.clear()
    perturb_at(monkeypatch, u)
    pairs = all_supercommutators(chain(2, xi, twist=twist, sig=sig), u, v)
    assert calls == {(u, v): 1, (v, u): 1}
    assert all(got == want for got, want in pairs.values())
    assert any(not r.is_zero() for got, _ in pairs.values() for r in got)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("sign", [1, -1], ids=["c", "-c"])
def test_exchange_pair_at_a_singular_r_runs_its_vu_pass(sig, sign, monkeypatch):
    """At u - v = +-c, R(u,v) is singular and the identity behind the
    shortcut reads 0 = 0, so an honest pair also runs its pass at (v, u);
    every form is zero there."""
    smp = ParameterSampler(f"singular-r:{sig.name}", rat(3, 2))
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist(), sig=sig, c=rat(3, 2))
    u = smp.generic_one(avoid=xi)
    v = u - sign * model.c
    calls = _counted_passes(monkeypatch)
    for t in product(range(1, 4), repeat=4):
        assert all(r.is_zero() for r in check_supercommutator(model, *t, u, v)), t
    assert calls == {(u, v): 1, (v, u): 1}
    assert model._pair_blocks[2] is not None and not any(model._pair_blocks[2][1])


def test_model_holds_no_monodromy():
    """Model.monodromy keeps no entries: every Monodromy it returns, at four
    points and again at one of them, dies once the caller drops it, and a
    second call at a point builds equal entries anew."""
    smp = ParameterSampler("one-monodromy", 1)
    xi = smp.generic(2)
    model = chain(2, xi, twist=smp.twist())
    points = smp.generic(4, avoid=xi)
    refs = []
    for u in points + (points[1],):
        mono = model.monodromy(u)
        refs.append(weakref.ref(mono))
        again = model.monodromy(u)
        assert again is not mono and again == mono
    del mono, again
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# the column walk against the embedded factor product
# ---------------------------------------------------------------------------


def _assert_walk_matches(model, u):
    oracle = embedded_monodromy(model, u)
    want = extract_entries(oracle, model.sig, model.arity)
    assert extract_entries(model.monodromy_op(u), model.sig, model.arity) == want
    mono = model.monodromy(u)
    assert all(mono.entry(i, j) == want[i, j] for i, j in product(range(1, 4), repeat=2))
    return oracle, mono


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_walk_equals_embedded_factor_product(sig, length):
    """The build against the embedded factor product at a drawn point and at
    every u = xi_k - c (xi_k + c), where g(u, xi_k) = -1 (1) makes one
    coefficient gd +- gn of a state that R_{0k} keeps 0, which no random
    draw reaches: there some entry of the generic 3*5^L vanishes, and the
    build stores no zero entry and no empty column, as
    GradedOperator.from_pruned requires."""
    smp = ParameterSampler(f"walk-oracle:{sig.name}:{length}", 1)
    xi = smp.generic(length)
    model = chain(length, xi, twist=smp.twist(), sig=sig, c=rat(3, 2))
    u = smp.generic_one(avoid=xi)
    oracle, mono = _assert_walk_matches(model, u)
    scale, cleared = clear_denominators(oracle)
    assert monodromy.build_cleared_product(sig, model.c, length, model.factors, u) == (scale, cleared)
    assert mono.scale == scale and mono.scaled == extract_entries(cleared, sig, length)
    n = length + 2
    chain_pos = tuple(range(3, n + 1))
    assert insert_identity(cleared, 2) == embed(cleared, (1,) + chain_pos, n)
    assert insert_identity(cleared, 1) == embed(cleared, (2,) + chain_pos, n)
    for u in [x + s for x in xi for s in (-model.c, model.c)]:
        oracle, mono = _assert_walk_matches(model, u)
        scale, built = monodromy.build_cleared_product(sig, model.c, length, model.factors, u)
        assert (scale, built) == clear_denominators(oracle), u
        assert all(colmap and all(colmap.values()) for colmap in built.cols.values()), u
        assert built.nnz() < 3 * 5**length, u


def test_walk_equals_embedded_product_on_two_twist_composite():
    smp = ParameterSampler("walk-oracle-composite", 1)
    xi = smp.generic(3)
    split = SplitChain(ChainSpec(1, xi[:1], smp.twist(), GL12, 1), ChainSpec(2, xi[1:], smp.twist(), GL12, 1))
    total = CompositeModel(split)
    u = smp.generic_one(avoid=xi)
    _assert_walk_matches(total, u)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
@pytest.mark.parametrize("flip", sorted(_FLIPPED_SWAP_SIGNS))
def test_flipped_swap_sign_breaks_rtt(monkeypatch, sig, flip):
    smp = ParameterSampler(f"rtt-flip:{sig.name}", 1)
    xi = smp.generic(2)
    u, v = smp.generic(2, avoid=xi)
    twist = smp.twist()
    assert check_rtt(chain(2, xi, twist=twist, sig=sig), u, v).is_zero()
    monkeypatch.setattr(monodromy, "swap_sign", _FLIPPED_SWAP_SIGNS[flip])
    assert not check_rtt(chain(2, xi, twist=twist, sig=sig), u, v).is_zero()
    # with one site no digit sits between the auxiliary space and the site,
    # so only the odd-odd flip can show
    one_site = check_rtt(chain(1, xi[:1], twist=twist, sig=sig), u, v)
    assert one_site.is_zero() == (flip == "between")


def test_longest_chain_cap():
    smp = ParameterSampler("extl4", 1)
    xi = smp.generic(4)
    model = ChainModel(ChainSpec(4, xi, (2, 1, 3), GL21, 1))
    u, v = smp.generic(2, avoid=xi)
    assert check_rtt(model, u, v).is_zero()
    ps = smp.generic(4, avoid=xi)
    vec = build_vector(model, ps[:2], ps[2:])
    assert not vec.is_zero() and grading_of(vec) == 0
