import pytest
from hypothesis import assume, example, given, strategies as st

from superbethe import scalars
from superbethe.errors import CardinalityMismatch, DivisionByZero, PoleAtZero
from superbethe.rational import ONE, ZERO, is_rational, rat, rat_from_str, rat_to_str
from superbethe.scalars import (
    EPS,
    EpsScalar,
    bareiss_det,
    eps_limit,
    f,
    g,
    h,
    is_zero,
    izergin,
    set_product,
    three_term_witness,
)

rationals = st.builds(rat, st.integers(-40, 40), st.integers(1, 24))


def test_spot_values():
    assert g(2, 1, 1) == 1
    assert f(2, 1, 1) == 2
    assert h(2, 1, 1) == 2
    assert h(5, 5, 1) == 1  # h is regular on the diagonal


def test_g_raises_on_coincident_arguments():
    with pytest.raises(DivisionByZero):
        g(rat(1, 3), rat(1, 3), 1)
    with pytest.raises(DivisionByZero):
        f(2, 2, 1)


@given(rationals, rationals, rationals)
def test_function_relations(u, v, c):
    assume(not is_zero(u - v) and not is_zero(c))
    assert g(u, v, c) == -g(v, u, c)
    assert f(u, v, c) == 1 + g(u, v, c)
    assert h(u, v, c) * g(u, v, c) == f(u, v, c)


def test_three_term_identity_spot():
    # -1 + 1/2 + 1/2
    assert g(2, 3, 1) * g(2, 1, 1) == -1
    assert three_term_witness(1, 2, 3, 1) == 0


@given(rationals, rationals, rationals, rationals)
def test_three_term_identity(u, v, z, c):
    assume(not is_zero(c))
    assume(not is_zero(u - v) and not is_zero(u - z) and not is_zero(v - z))
    assert is_zero(three_term_witness(u, v, z, c))


def test_set_products():
    assert set_product("f", (3, 4), (1,), 1) == 2
    assert set_product("g", (), (5,), 1) == 1
    assert h(2, 1, 1) * h(3, 1, 1) == 6
    funcs = {"r1": lambda x: x * x}
    assert set_product("r1", (2, 3), (), 1, unary_funcs=funcs) == 36
    with pytest.raises(KeyError):
        set_product("q", (1,), (2,), 1)


def test_izergin_small():
    assert izergin((), (), 1) == 1
    assert izergin((2,), (1,), 1) == 1
    # hand-expanded 2x2 oracle
    assert izergin((5, 6), (1, 2), 1) == rat(1, 6)


def test_izergin_reduces_to_g_for_n1():
    import random

    rng = random.Random(41)
    for _ in range(10):
        v, u = rat(rng.randint(-30, 30), rng.randint(1, 9)), rat(rng.randint(-30, 30), rng.randint(1, 9))
        if is_zero(v - u):
            continue
        assert izergin((v,), (u,), rat(2, 3)) == g(v, u, rat(2, 3))


def test_izergin_permutation_invariance():
    from itertools import permutations

    vs = (rat(5), rat(13, 2), rat(-1, 3))
    us = (rat(1), rat(2), rat(9, 4))
    base = izergin(vs, us, 1)
    for pv in permutations(vs):
        for pu in permutations(us):
            assert izergin(pv, pu, 1) == base


def test_izergin_errors():
    with pytest.raises(CardinalityMismatch):
        izergin((1, 2), (3,), 1)
    with pytest.raises(DivisionByZero):
        izergin((1,), (1,), 1)


def test_eps_generator():
    assert g(rat(7), rat(7) + EPS, 1) == -1 / EPS
    assert eps_limit((EPS * EPS + EPS) / (2 * EPS)) == rat(1, 2)
    assert eps_limit(rat(5)) == 5
    with pytest.raises(PoleAtZero):
        eps_limit(1 / EPS)


@given(rationals, rationals, rationals, rationals)
def test_eps_limit_matches_direct_evaluation(a, b, c, d):
    assume(not is_zero(d))
    # ((a + b eps + c eps^2) eps) / (eps (d + a eps)) -> a/d
    expr = ((a + b * EPS + c * EPS * EPS) * EPS) / (EPS * (d + a * EPS))
    assert eps_limit(expr) == a / d


def test_eps_demotes_when_dependence_cancels():
    x = (2 + EPS) - EPS
    assert x == 2 and not hasattr(x, "num")
    for x in (EPS * 0, 0 * EPS, EPS - EPS):
        assert x == 0 and is_rational(x)
    y = (1 + EPS) * (1 - EPS) + EPS * EPS
    assert y == 1


# -- canonical form of EpsScalar arithmetic ---------------------------------

small = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))
nonzero_small = small.filter(bool)


def _linear(a):
    return (-rat(a), ONE)  # eps - a


def _poly_from_roots(k, roots):
    p = (k,)
    for a in roots:
        p = scalars._pmul(p, _linear(a))
    return p


# roots from a small set, so numerators and denominators of one operand and
# of two operands share linear factors often
roots = st.lists(st.integers(-1, 1), max_size=2)
factored = st.builds(_poly_from_roots, nonzero_small, roots)
dense = st.lists(small, min_size=1, max_size=3).map(scalars._trim).filter(bool)
polys = st.one_of(factored, dense)


def _eps_operand(common):
    """num/den through the reducing constructor: a factor shared by num and
    den, and `common` factors in the den, shared with the other operand."""

    @st.composite
    def build(draw):
        shared = _poly_from_roots(ONE, draw(roots))
        num = scalars._pmul(draw(st.one_of(polys, st.just(()))), shared)
        den = scalars._pmul(scalars._pmul(draw(polys), shared), _poly_from_roots(ONE, common))
        return EpsScalar(num, den)

    return build()


@st.composite
def operand_pairs(draw):
    common = draw(roots)
    return draw(_eps_operand(common)), draw(st.one_of(_eps_operand(common), small, st.integers(-3, 3)))


def _demoted(x):
    if len(x.den) == 1 and len(x.num) <= 1:
        return x.num[0] if x.num else ZERO
    return x


def _pair(x):
    if isinstance(x, EpsScalar):
        return x.num, x.den
    return scalars._trim((rat(x),)), (ONE,)


def _form(x):
    if isinstance(x, EpsScalar):
        assert x.den[-1] == ONE and x.num[-1:] != (ZERO,)
        return ("eps", x.num, x.den)
    assert is_rational(x) and type(x) is type(ZERO)
    return ("rational", x)


def _reference(name, x, y):
    """x.name(y) from unreduced products, reduced once by the constructor."""
    mul, add, neg = scalars._pmul, scalars._padd, scalars._pneg
    a, b = _pair(x)
    c, d = _pair(y)
    num, den = {
        "__add__": (add(mul(a, d), mul(c, b)), mul(b, d)),
        "__radd__": (add(mul(c, b), mul(a, d)), mul(d, b)),
        "__sub__": (add(mul(a, d), neg(mul(c, b))), mul(b, d)),
        "__rsub__": (add(mul(c, b), neg(mul(a, d))), mul(d, b)),
        "__mul__": (mul(a, c), mul(b, d)),
        "__rmul__": (mul(c, a), mul(d, b)),
        "__truediv__": (mul(a, d), mul(b, c)),
        "__rtruediv__": (mul(c, b), mul(d, a)),
        "__neg__": (neg(a), b),
    }[name]
    return _demoted(EpsScalar(num, den))


EPS_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__"
)


# 1/(eps(eps-1)) + 1/(eps(eps+1)) = 2/((eps-1)(eps+1)): the shared factor eps
# of the dens cancels from the sum as well
_SHARED = (EpsScalar((1,), (0, -1, 1)), EpsScalar((1,), (0, 1, 1)))


@pytest.mark.parametrize("name", EPS_OPERATORS)
@given(pair=operand_pairs())
@example(pair=_SHARED)
@example(pair=(_SHARED[0], -_SHARED[1]))
@example(pair=(_SHARED[0], _SHARED[0]))
def test_eps_arithmetic_is_in_canonical_form(name, pair):
    x, y = pair
    if name == "__neg__":
        result = -x
    else:
        assume(name != "__truediv__" or y)
        assume(name != "__rtruediv__" or x)
        result = getattr(x, name)(y)
    assert _form(result) == _form(_reference(name, x, y))


def test_rational_operand_needs_no_gcd(monkeypatch):
    xs = (EPS, (EPS + 1) * (EPS - rat(1, 2)) / ((EPS - 2) * (3 * EPS + 1)), (EPS * EPS + 1) / rat(3))
    ks = (rat(-3, 7), 2, 0)
    cases = [(name, x, k) for x in xs for k in ks for name in EPS_OPERATORS if k or name != "__truediv__"]

    def no_gcd(a, b):
        raise AssertionError("gcd with a rational operand")

    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    results = [-x if name == "__neg__" else getattr(x, name)(k) for name, x, k in cases]
    monkeypatch.undo()
    for (name, x, k), result in zip(cases, results):
        assert _form(result) == _form(_reference(name, x, k)), (name, x, k)


def test_eps_division_by_zero():
    with pytest.raises(DivisionByZero):
        EPS / 0
    with pytest.raises(DivisionByZero):
        EPS / (EPS - EPS)
    with pytest.raises(DivisionByZero):
        1 / EpsScalar(())
    with pytest.raises(DivisionByZero):
        EPS / EpsScalar((), (1, 1))
    with pytest.raises(DivisionByZero):
        EpsScalar((1,), ())


def test_bareiss_det():
    rows = [[rat(2), rat(1), rat(0)], [rat(1), rat(3), rat(1)], [rat(0), rat(1), rat(4)]]
    assert bareiss_det(rows) == 2 * (3 * 4 - 1) - 1 * 4
    rows = [[rat(1), rat(2)], [rat(2), rat(4)]]
    assert bareiss_det(rows) == 0
    # pivot swap path
    rows = [[rat(0), rat(1)], [rat(1), rat(0)]]
    assert bareiss_det(rows) == -1


def test_rational_wire_format():
    assert rat_to_str(rat(-1, 2)) == "-1/2"
    assert rat_to_str(rat(10, 5)) == "2"
    assert rat_from_str("7/3") == rat(7, 3)
    with pytest.raises(ValueError):
        rat_from_str("1/0")
    with pytest.raises(ValueError):
        rat_from_str("x")
