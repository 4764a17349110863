import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from superbethe import graded
from superbethe.errors import ArityMismatch, DivisionByZero, SignatureMismatch
from superbethe.graded import (
    GL12,
    GL21,
    DualGradedVector,
    GradedOperator,
    GradedVector,
    check_unitarity,
    check_ybe,
    clear_denominators,
    column_product,
    embed,
    encode,
    decode,
    digit_string,
    koszul_tensor,
    pack,
    packed_products,
    parity_table,
    r_matrix,
    slot_shifts,
    slot_width,
    super_permutation,
    unpack,
    vector_tensor,
    weight_spaces,
)
from superbethe.rational import is_rational, rat
from superbethe.scalars import EPS

from oracles import insert_identity, packed_product, ybe_reference


def unit(sig, i, j):
    return GradedOperator.unit(sig, i, j)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_matrix_unit_product_rule_exhaustive(sig):
    # (E_ij x E_kl)(E_mn x E_pq) = (-1)^{([k]+[l])([m]+[n])} E_ij E_mn x E_kl E_pq
    units = {(i, j): unit(sig, i, j) for i in range(1, 4) for j in range(1, 4)}
    for i, j, k, l in product(range(1, 4), repeat=4):
        left = koszul_tensor(units[i, j], units[k, l])
        for m, n, p, q in product(range(1, 4), repeat=4):
            got = left.compose(koszul_tensor(units[m, n], units[p, q]))
            if j == m and l == p:
                sign = -1 if (sig.par(k) ^ sig.par(l)) and (sig.par(m) ^ sig.par(n)) else 1
                expect = koszul_tensor(units[i, n], units[k, q]).scale(sign)
            else:
                expect = GradedOperator(sig, 2)
            assert got.sub(expect).is_zero(), (i, j, k, l, m, n, p, q)


def test_koszul_worked_examples():
    lhs = koszul_tensor(unit(GL21, 1, 1), unit(GL21, 1, 3)).compose(
        koszul_tensor(unit(GL21, 1, 3), unit(GL21, 3, 1))
    )
    assert lhs == koszul_tensor(unit(GL21, 1, 3), unit(GL21, 1, 1)).scale(-1)
    ident = GradedOperator.identity(GL21, 1)
    assert koszul_tensor(ident, ident) == GradedOperator.identity(GL21, 2)
    allev = koszul_tensor(unit(GL21, 1, 1), unit(GL21, 1, 1))
    assert allev.compose(allev) == allev


def test_superpermutation():
    p = super_permutation(GL21)
    assert p.apply(GradedVector.basis(GL21, (1, 2))) == GradedVector.basis(GL21, (2, 1))
    assert p.apply(GradedVector.basis(GL21, (3, 3))) == GradedVector.basis(GL21, (3, 3)).scale(-1)
    for sig in (GL21, GL12):
        psig = super_permutation(sig)
        assert psig.compose(psig) == GradedOperator.identity(sig, 2)


def test_r_matrix_entries():
    r = r_matrix(2, 1, GL21, 1)
    assert r.entry(encode((1, 1)), encode((1, 1))) == 2
    assert r.entry(encode((3, 3)), encode((3, 3))) == 0
    assert r_matrix(3, 1, GL21, 1).compose(r_matrix(1, 3, GL21, 1)) == GradedOperator.identity(
        GL21, 2
    ).scale(rat(3, 4))


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_unitarity_and_ybe_random(sig):
    rng = random.Random(f"ybe-{sig.name}")
    from superbethe.sampling import ParameterSampler
    from superbethe.scalars import g

    for k in range(20):
        c = rat(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        smp = ParameterSampler(f"{sig.name}:{k}", c)
        u, v, w = smp.generic(3)
        gv = g(u, v, c)
        lhs = r_matrix(u, v, sig, c).compose(r_matrix(v, u, sig, c))
        assert lhs == GradedOperator.identity(sig, 2).scale(1 - gv * gv)
        assert check_ybe(u, v, w, sig, c).is_zero()


def test_ybe_coincident_arguments():
    with pytest.raises(DivisionByZero):
        check_ybe(1, 1, 3, GL21, 1)


def _random_site_op(sig, rng):
    cols = {}
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        cols.setdefault(j - 1, {})[i - 1] = rat(rng.randint(-5, 5), rng.randint(1, 4))
    return GradedOperator(sig, 1, cols)


def test_koszul_associativity():
    rng = random.Random(99)
    for sig in (GL21, GL12):
        for _ in range(10):
            a, b, c = (_random_site_op(sig, rng) for _ in range(3))
            left = koszul_tensor(koszul_tensor(a, b), c)
            right = koszul_tensor(a, koszul_tensor(b, c))
            assert left.sub(right).is_zero()


def test_embed_consistency():
    rng = random.Random(7)
    sig = GL21
    a, b = _random_site_op(sig, rng), _random_site_op(sig, rng)
    # identity embedding
    t = koszul_tensor(a, b)
    assert embed(t, (1, 2), 2) == t
    # tensor on positions (p, q) equals product of single embeddings
    for n in (3, 4):
        for p, q in [(1, 2), (1, n), (2, n)]:
            if p >= q:
                continue
            via_units = embed(a, (p,), n).compose(embed(b, (q,), n))
            assert embed(koszul_tensor(a, b), (p, q), n) == via_units


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_insert_identity_equals_embed(sig):
    rng = random.Random(11)
    arity = 3
    par = parity_table(sig, arity)
    cols = {}
    for _ in range(60):
        r, c = rng.randrange(3**arity), rng.randrange(3**arity)
        if par[r] == par[c]:
            cols.setdefault(c, {})[r] = rat(rng.randint(-5, 5), rng.randint(1, 4))
    even = GradedOperator(sig, arity, cols)
    assert even.support_parity() == 0
    for pos in range(1, arity + 2):
        others = tuple(p for p in range(1, arity + 2) if p != pos)
        assert insert_identity(even, pos) == embed(even, others, arity + 1), pos


# ---------------------------------------------------------------------------
# packed columns
# ---------------------------------------------------------------------------


def _round_trip(column, keys, width):
    return unpack(pack(column, slot_shifts(keys, width)), keys, width)


def test_weight_classes_group_the_keys_by_digit_counts():
    for arity in range(5):
        spaces = weight_spaces(arity)
        classes = tuple(spaces.values())
        assert sorted(k for keys in classes for k in keys) == list(range(3**arity))
        assert len(classes) == comb(arity + 2, 2)
        for keys in classes:
            assert list(keys) == sorted(keys)
            assert len({tuple(sorted(decode(k, arity))) for k in keys}) == 1
        for (n1, n2), keys in spaces.items():
            assert all(decode(k, arity).count(1) == n1 and decode(k, arity).count(2) == n2 for k in keys)


@pytest.mark.parametrize("width", [2, 3, 8, 31, 64, 200])
def test_packed_columns_round_trip_up_to_the_slot_bound(width):
    """Every entry with |x| <= 2^(width-1) - 1, the largest that
    slot_width gives this width for, is read back exactly: at +-top, at 0,
    in single-slot classes and with mixed signs; only the zero column packs
    to 0."""
    top = 2 ** (width - 1) - 1
    assert slot_width(top) == width
    rng = random.Random(width)
    classes = tuple(weight_spaces(3).values())
    assert any(len(keys) == 1 for keys in classes)
    for keys in classes:
        columns = [
            {k: top for k in keys},
            {k: -top for k in keys},
            {k: top if i % 2 else -top for i, k in enumerate(keys)},
            {k: rng.choice((-top, -1, 0, 0, 1, top, rng.randint(-top, top))) for k in keys},
            {keys[-1]: -top},
        ]
        for column in columns:
            nonzero = {k: x for k, x in column.items() if x}
            assert _round_trip(column, keys, width) == nonzero
            assert (pack(column, slot_shifts(keys, width)) == 0) == (not nonzero)
        assert pack({}, slot_shifts(keys, width)) == 0 and unpack(0, keys, width) == {}


@pytest.mark.parametrize("width", [3, 8, 64])
def test_one_bit_less_than_the_slot_bound_fails(width):
    """At width - 1 bits the largest entries are read back wrong, and a
    nonzero column whose entries exceed its slots packs to 0: the width
    bound is what makes a packed zero an exact zero."""
    top = 2 ** (width - 1) - 1
    keys = weight_spaces(2)[1, 1]
    assert len(keys) == 2
    assert _round_trip({keys[0]: top}, keys, width) == {keys[0]: top}
    assert _round_trip({keys[0]: top}, keys, width - 1) != {keys[0]: top}
    assert _round_trip({keys[0]: -top, keys[1]: top}, keys, width - 1) != {keys[0]: -top, keys[1]: top}
    assert pack({keys[0]: 2 ** (width - 1), keys[1]: -1}, slot_shifts(keys, width - 1)) == 0


_BIG = st.one_of(st.sampled_from((0, 1, -1, 2**200, -(2**200))), st.integers(-(2**200), 2**200))


@st.composite
def _nine_operators(draw):
    """(keys, ops, column): a weight space of arity 1 to 3, nine operators
    on it as columns {k: {row: value}}, one of them zero and one key a
    column of none of them (an all-zero row of the packed kernel), and a
    sparse column, every value up to 2^200 in absolute value."""
    keys = draw(st.sampled_from([keys for arity in (1, 2, 3) for keys in weight_spaces(arity).values()]))
    key = st.sampled_from(keys)
    ops = draw(st.lists(st.dictionaries(key, st.dictionaries(key, _BIG, max_size=3), max_size=len(keys)), min_size=9, max_size=9))
    ops[draw(st.integers(0, 8))] = {}
    dead = draw(key)
    ops = [{k: col for k, col in op.items() if k != dead} for op in ops]
    return keys, ops, draw(st.dictionaries(key, _BIG, max_size=3))


@given(_nine_operators())
def test_packed_products_are_nine_column_products(case):
    """packed_products gives the nine packed products of one column, in the
    order of its rows' tuples: each equals the one-operator oracle and the
    packed column_product, and unpack reads it back exactly at the width
    slot_width gives for the bound of the nine, on the drawn column and on
    its empty and one-entry prefixes."""
    keys, ops, column = case
    for col in (column, {}, dict([*column.items()][:1])):
        bound = max(sum(abs(x) * max(map(abs, op.get(k, {}).values()), default=0) for k, x in col.items()) for op in ops)
        width = slot_width(bound)
        shifts = slot_shifts(keys, width)
        packed = [{k: pack(op.get(k, {}), shifts) for k in keys} for op in ops]
        rows = {k: tuple(p[k] for p in packed) for k in keys}
        assert any(row == (0,) * 9 for row in rows.values())
        got = packed_products(rows, col)
        assert type(got) is tuple and len(got) == 9
        for x, op, p in zip(got, ops, packed):
            want = column_product(op, col)
            assert x == packed_product(p, col) == pack(want, shifts)
            assert unpack(x, keys, width) == want


def test_packed_product_is_the_packed_column_product():
    rng = random.Random(5)
    for keys in weight_spaces(3).values():
        cols = {k: {r: rng.randint(-9, 9) for r in rng.sample(keys, min(len(keys), 3))} for k in keys}
        column = {k: rng.randint(-2**70, 2**70) for k in keys}
        width = slot_width(len(keys) * 9 * 2**70)
        shifts = slot_shifts(keys, width)
        packed = {k: pack(col, shifts) for k, col in cols.items()}
        assert packed_product(packed, column) == pack(column_product(cols, column), shifts)
        assert unpack(packed_product(packed, column), keys, width) == column_product(cols, column)


def test_disjoint_embeds_supercommute():
    sig = GL21
    todd = unit(sig, 1, 3)  # odd
    sodd = unit(sig, 3, 2)  # odd
    x, y = embed(todd, (1,), 3), embed(sodd, (3,), 3)
    assert x.compose(y) == y.compose(x).scale(-1)
    teven = unit(sig, 1, 2)
    xe = embed(teven, (1,), 3)
    assert xe.compose(y) == y.compose(xe)


def test_embed_validates_positions():
    a = unit(GL21, 1, 2)
    with pytest.raises(ArityMismatch):
        embed(a, (0,), 2)
    with pytest.raises(ArityMismatch):
        embed(koszul_tensor(a, a), (2, 1), 3)


def test_parity_bookkeeping():
    sig = GL21
    o = unit(sig, 1, 3)
    e = unit(sig, 2, 1)
    assert o.support_parity() == 1
    assert e.support_parity() == 0
    prod_ = o.compose(unit(sig, 3, 2))  # E13 E32 = E12, parities add mod 2
    assert prod_.support_parity() == 0
    t = koszul_tensor(o, o)
    assert t.support_parity() == 0
    mixed = o.add(e)
    assert mixed.support_parity() == "mixed"


def test_signature_and_arity_guards():
    with pytest.raises(SignatureMismatch):
        koszul_tensor(unit(GL21, 1, 1), unit(GL12, 1, 1))
    with pytest.raises(ArityMismatch):
        unit(GL21, 1, 1).compose(GradedOperator.identity(GL21, 2))


def test_encode_decode_roundtrip():
    for digits in product((1, 2, 3), repeat=4):
        assert decode(encode(digits), 4) == digits
    assert parity_table(GL21, 2)[encode((3, 3))] == 0
    assert parity_table(GL12, 2)[encode((1, 2))] == 1


def test_zero_entries_are_dropped():
    entries = {0: rat(2), 4: rat(0), 7: 0}
    v = GradedVector(GL21, 2, entries)
    assert v.entries == {0: rat(2)} and entries == {0: rat(2), 4: rat(0), 7: 0}
    assert GradedVector(GL21, 2, {4: 0}).is_zero() and GradedVector(GL21, 2).is_zero()
    assert v == GradedVector(GL21, 2, {0: rat(2)})


def test_dual_pairing_and_tensor():
    v = GradedVector(GL21, 1, {0: rat(2), 2: rat(3)})
    w = GradedVector.basis(GL21, (2,))
    tv = vector_tensor(v, w)
    assert tv.entries == {encode((1, 2)): rat(2), encode((3, 2)): rat(3)}
    d = DualGradedVector(GL21, 1, {2: rat(5)})
    assert d.pair(v) == 15
    # both denominators above 1 (6 and 20): the pairing divides by their product
    d = DualGradedVector(GL21, 1, {0: rat(1, 2), 2: rat(5, 3)})
    x = GradedVector(GL21, 1, {0: rat(3, 4), 1: rat(7), 2: rat(2, 5)})
    assert (d.den, x.den) == (6, 20)
    assert d.pair(x) == rat(25, 24)


# ---------------------------------------------------------------------------
# vectors as int numerators over one denominator, against plain Fractions
# ---------------------------------------------------------------------------

_rationals = st.builds(rat, st.integers(-30, 30), st.integers(1, 12))
# an EpsScalar entry, as the materialized oracle of the Bethe-vector tests
# builds them
_series = st.builds(lambda r, k: r + k * EPS, _rationals, st.integers(-3, 3).filter(bool))
_scalars = st.one_of(st.integers(-6, 6), _rationals, st.just(0), st.just(-1), st.just(rat(-1)))


def _entries(values):
    return st.dictionaries(st.integers(0, 8), values, max_size=6)


def _reference_merge(a, b, sign):
    out = {k: v for k, v in a.items() if v}
    for k, v in b.items():
        if v:
            s = out.get(k, 0) + (v if sign > 0 else -v)
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _assert_holds(vec, want, arity=2):
    """vec has the values want (no zero among them), stored as int
    numerators over a positive int denominator wherever want is rational,
    and prints its least entry as want's does."""
    assert vec.den > 0 and type(vec.den) is int and 0 not in vec.num.values()
    if all(map(is_rational, want.values())):
        assert all(type(x) is int for x in vec.num.values()), vec.num
    assert vec.entries == want and vec.is_zero() == (not want)
    least = min(want, default=None)
    assert vec.first_nonzero() == (None if least is None else f"[{digit_string(least, arity)}]={want[least]}")
    assert vec == type(vec)(vec.sig, arity, dict(want))


@given(_entries(_rationals), _entries(st.one_of(_rationals, _series)), _scalars, st.booleans())
def test_vector_arithmetic_matches_plain_fractions(a, b, c, dual):
    """add, sub, scale (by an int, a rational, 0 and -1), vector_tensor,
    pair and == on num/den vectors give the values of the same arithmetic on
    {key: Fraction} dicts, for b with EpsScalar entries too; == holds across
    different denominators of one value."""
    cls = DualGradedVector if dual else GradedVector
    x, y = cls(GL21, 2, dict(a)), cls(GL21, 2, dict(b))
    ra, rb = {k: v for k, v in a.items() if v}, {k: v for k, v in b.items() if v}
    for vec, want in ((x, ra), (y, rb)):
        _assert_holds(vec, want)
        assert type(vec) is cls and vec.entries is vec.entries
    _assert_holds(x.add(y), _reference_merge(ra, rb, 1))
    _assert_holds(x.sub(y), _reference_merge(ra, rb, -1))
    _assert_holds(y.sub(x), _reference_merge(rb, ra, -1))
    _assert_holds(x.scale(c), {k: c * v for k, v in ra.items()} if c else {})
    _assert_holds(y.scale(c), {k: c * v for k, v in rb.items()} if c else {})
    tensor = vector_tensor(x, y)
    assert type(tensor) is cls
    _assert_holds(tensor, {kx * 9 + ky: vx * vy for kx, vx in ra.items() for ky, vy in rb.items()}, arity=4)
    if dual:
        assert x.pair(GradedVector(GL21, 2, dict(b))) == sum((v * rb[k] for k, v in ra.items() if k in rb), start=rat(0))
    third = x.scale(3).scale(rat(1, 3))
    assert third == x and third.den == 3 * x.den
    assert (x != x.scale(2)) == bool(ra) and x != GradedVector(GL12, 2, dict(a)) and x != cls(GL21, 3, dict(a))


def test_vector_storage():
    """Rational entries are cleared once into int numerators over the lcm
    of their denominators; from_ints adopts ints and moves a negative
    denominator's sign into them; at den 1 entries is num itself."""
    v = GradedVector(GL21, 2, {1: rat(1, 2), 4: rat(-2, 3), 5: 0, 7: rat(4)})
    assert (v.num, v.den) == ({1: 3, 4: -4, 7: 24}, 6)
    assert v.entries == {1: rat(1, 2), 4: rat(-2, 3), 7: 4}
    w = GradedVector.from_ints(GL21, 2, {1: -3, 4: 4, 5: 0, 7: -24}, -6)
    assert (w.num, w.den) == ({1: 3, 4: -4, 7: 24}, 6) and w == v
    ints = GradedVector(GL21, 2, {0: 2, 3: -1})
    assert ints.den == 1 and ints.entries is ints.num
    shifted = GradedVector(GL21, 2, {0: rat(1, 2) + EPS, 3: rat(1, 3)})
    assert shifted.den == 1 and shifted.num[3] == rat(1, 3)


# ---------------------------------------------------------------------------
# integer-scaled identities against the rational formulas
# ---------------------------------------------------------------------------


def test_clear_denominators_int_only():
    op = GradedOperator(GL21, 1, {0: {0: 2, 1: -3}, 2: {2: 5}})
    n, scaled = clear_denominators(op)
    assert n == 1 and scaled == op
    assert all(type(v) is int for m in scaled.cols.values() for v in m.values())


def test_clear_denominators_negative_and_mixed():
    op = GradedOperator(GL21, 1, {0: {0: rat(3, -4), 1: 2}, 1: {2: rat(5, 6)}, 2: {0: rat(-7, 9)}})
    n, scaled = clear_denominators(op)
    assert n == 36
    assert scaled.cols == {0: {0: -27, 1: 72}, 1: {2: 30}, 2: {0: -28}}
    assert all(type(v) is int for m in scaled.cols.values() for v in m.values())
    assert scaled.scale(rat(1, n)) == op


def test_clear_denominators_zero_operator():
    n, scaled = clear_denominators(GradedOperator(GL12, 2))
    assert n == 1 and scaled.is_zero() and scaled.arity == 2


def _ybe_reference(u, v, w, sig, c):
    r12 = embed(r_matrix(u, v, sig, c), (1, 2), 3)
    r13 = embed(r_matrix(u, w, sig, c), (1, 3), 3)
    r23 = embed(r_matrix(v, w, sig, c), (2, 3), 3)
    return r12.compose(r13).compose(r23).sub(r23.compose(r13).compose(r12))


def _unitarity_reference(u, v, sig, c):
    from superbethe.scalars import g

    gv = g(u, v, c)
    return r_matrix(u, v, sig, c).compose(r_matrix(v, u, sig, c)).sub(GradedOperator.identity(sig, 2).scale(1 - gv * gv))


def _ybe_and_unitarity_draws(sig):
    from superbethe.sampling import ParameterSampler

    rng = random.Random(f"ybe-oracle-{sig.name}")
    for k in range(5):
        c = rat(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        yield c, ParameterSampler(f"ybe-oracle:{sig.name}:{k}", c).generic(3)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ybe_and_unitarity_equal_rational_formulas(sig):
    for c, (u, v, w) in _ybe_and_unitarity_draws(sig):
        assert check_ybe(u, v, w, sig, c) == _ybe_reference(u, v, w, sig, c)
        assert check_unitarity(u, v, sig, c) == _unitarity_reference(u, v, sig, c)
        assert check_unitarity(u, v, sig, c).is_zero()


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ybe_and_unitarity_under_flipped_koszul_sign(sig, flipped_koszul):
    for c, (u, v, w) in _ybe_and_unitarity_draws(sig):
        res = check_ybe(u, v, w, sig, c)
        assert not res.is_zero()
        assert res == _ybe_reference(u, v, w, sig, c)
        assert check_unitarity(u, v, sig, c) == _unitarity_reference(u, v, sig, c)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_unitarity_with_a_perturbed_permutation_equals_the_composed_formula(sig, monkeypatch):
    """check_unitarity reads P through the module global: with one entry of
    P perturbed, P^2 != I, and the residual -g^2 (P^2 - I) is nonzero and
    equals R(u,v) R(v,u) - (1 - g^2) I composed."""
    cols = {col: dict(colmap) for col, colmap in graded.super_permutation(sig).cols.items()}
    cols[0][0] += 1
    monkeypatch.setattr(graded, "super_permutation", lambda s: GradedOperator(s, 2, cols))
    for c, (u, v, w) in _ybe_and_unitarity_draws(sig):
        res = check_unitarity(u, v, sig, c)
        assert not res.is_zero() and res == _unitarity_reference(u, v, sig, c)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ybe_equals_the_embedded_product(sig):
    """The expansion of check_ybe in the four permutation products equals
    the embedded, composed product of the cleared R factors."""
    for c, (u, v, w) in _ybe_and_unitarity_draws(sig):
        res = check_ybe(u, v, w, sig, c)
        assert res.is_zero() and res == ybe_reference(u, v, w, sig, c)


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ybe_equals_the_embedded_product_under_flipped_koszul_sign(sig, flipped_koszul):
    for c, (u, v, w) in _ybe_and_unitarity_draws(sig):
        res = check_ybe(u, v, w, sig, c)
        assert not res.is_zero() and res == ybe_reference(u, v, w, sig, c)


def _signed_permutation(odd):
    """P with E_ij x E_ji signed by (-1)^odd([i], [j]); odd = [j] is honest."""

    def permutation(sig):
        acc = GradedOperator(sig, 2)
        for i in range(1, 4):
            for j in range(1, 4):
                term = koszul_tensor(unit(sig, i, j), unit(sig, j, i))
                acc = acc.add(term.scale(-1) if odd(sig.par(i), sig.par(j)) else term)
        return acc

    return permutation


@pytest.mark.parametrize("sig", [GL21, GL12], ids=lambda s: s.name)
def test_ybe_follows_each_replaced_permutation(sig, monkeypatch):
    """check_ybe caches its permutation products on P's entries, not on the
    signature: two replacements of super_permutation in one process each
    take effect, and the honest P is back after them."""
    u, v, w = rat(3), rat(2), rat(1)
    assert check_ybe(u, v, w, sig, 1).is_zero()
    results = []
    for odd in (lambda pi, pj: pi, lambda pi, pj: pi | pj):
        monkeypatch.setattr(graded, "super_permutation", _signed_permutation(odd))
        res = check_ybe(u, v, w, sig, 1)
        assert not res.is_zero() and res == ybe_reference(u, v, w, sig, 1)
        results.append(res)
    assert results[0] != results[1]
    monkeypatch.undo()
    assert check_ybe(u, v, w, sig, 1).is_zero()
