import os
import subprocess
import sys
from math import prod

import pytest
from hypothesis import assume, given, strategies as st

from superbethe.errors import CardinalityMismatch, DivisionByZero, PoleAtZero, PrecisionExhausted
from superbethe.notation import Binding, UnboundName, evaluate
from superbethe.rational import ONE, rat, rat_from_str, rat_to_str
from superbethe.scalars import (
    EPS,
    EPS_PRECISION,
    EpsScalar,
    as_pair,
    bareiss_det,
    eps_limit,
    f,
    g,
    h,
    is_zero,
    izergin,
    ratio,
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
    assert evaluate("f(uI,vI)", Binding({"uI": (3, 4), "vI": (1,)}, c=1)) == 2
    assert evaluate("g(uI,vI)", Binding({"uI": (), "vI": (5,)}, c=1)) == 1
    assert evaluate("h(uI,vI)*f(uII,vI)", Binding({"uI": (2, 3), "uII": (), "vI": (1,)}, c=1)) == 6
    assert evaluate("r1(uI)", Binding({"uI": (2, 3)}, funcs={"r1": lambda x: x * x})) == 36
    with pytest.raises(UnboundName):
        evaluate("q(uI,vI)", Binding({"uI": (1,), "vI": (2,)}, c=1))


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


def test_eps_limit_needs_the_kept_coefficients():
    # 1/(1 - eps) = 1 + eps + eps^2 + ...; taking off its first m terms and
    # dividing by eps^m gives back a constant term 1 that needs coefficient
    # m of the series, which only m <= EPS_PRECISION keeps
    def tail(m):
        x, power = 1 / (1 - EPS), ONE
        for _ in range(m):
            x, power = x - power, power * EPS
        return x / power

    assert eps_limit(tail(EPS_PRECISION)) == 1
    with pytest.raises(PrecisionExhausted):
        eps_limit(tail(EPS_PRECISION + 1))
    assert EPS - EPS and eps_limit(EPS - EPS) == 0  # undetermined, but of positive order


linear_factors = st.tuples(rationals, rationals).filter(any)


@given(st.lists(st.tuples(linear_factors, st.booleans()), min_size=1, max_size=6))
def test_eps_limit_of_linear_factors(factors):
    # a + b eps has order 0 and leading coefficient a, or order 1 and b
    num = [ab for ab, divide in factors if not divide]
    den = [ab for ab, divide in factors if divide]
    order = sum(not a for a, _ in num) - sum(not a for a, _ in den)
    assume(order >= 0)
    x = ONE
    for (a, b), divide in factors:
        x = x / (a + b * EPS) if divide else x * (a + b * EPS)
    ratio = prod((a or b for a, b in num), start=ONE) / prod((a or b for a, b in den), start=ONE)
    assert eps_limit(x) == (ratio if order == 0 else 0)


def test_eps_division_by_zero():
    with pytest.raises(DivisionByZero):
        EPS / 0
    for undetermined in (EPS - EPS, (1 + EPS) - (1 + EPS)):
        with pytest.raises(PrecisionExhausted):
            EPS / undetermined
        with pytest.raises(PrecisionExhausted):
            1 / undetermined


def _eps_power(m):
    """eps^m, known to the relative precision EPS_PRECISION."""
    x = EPS / EPS
    for _ in range(abs(m)):
        x = x * EPS if m > 0 else x / EPS
    return x


def test_eps_coefficients_are_ints_until_a_division():
    assert all(type(c) is int for c in EPS.coeffs)
    x = (rat(7, 2) + EPS) * 2 - 1
    assert x.coeffs == (6, 2, 0, 0) and all(type(c) is int for c in x.coeffs)
    assert all(type(c) is int for c in ((3 + EPS) * (3 - EPS) / (3 + EPS)).coeffs)
    assert (1 / (3 + EPS)).coeffs[0] == rat(1, 3)
    assert type(eps_limit(x)) is type(rat(6)) and eps_limit(x) == 6


_EPS_ERRORS = (PoleAtZero, PrecisionExhausted, DivisionByZero)


def test_ratio_reads_the_limit_off_the_leading_terms():
    """ratio(num, den) with an EpsScalar operand is the eps-limit of the
    series quotient, and raises the quotient's exception where that has no
    limit, on series of valuation -1..2, undetermined zeros O(eps^k) for
    k = -1..2, rationals and zero."""
    determined = [_eps_power(v) * (a + b * EPS) for v in range(-1, 3) for a, b in ((rat(3), 1), (rat(-2, 5), 4))]
    undetermined = []
    for k in range(-1, 3):
        power = _eps_power(k - EPS_PRECISION)
        undetermined.append(power - power)
    assert [z.val for z in undetermined] == list(range(-1, 3)) and not any(z.coeffs for z in undetermined)
    nums = determined + undetermined + [0, rat(0), 5, rat(-7, 3)]
    dens = determined + undetermined + [0, 4, rat(-2, 3)]
    checked = raised = 0
    for num in nums:
        for den in dens:
            if not isinstance(num, EpsScalar) and not isinstance(den, EpsScalar):
                continue
            try:
                want = as_pair(eps_limit(num / den))
            except _EPS_ERRORS as exc:
                with pytest.raises(type(exc)):
                    ratio(num, den)
                raised += 1
                continue
            assert ratio(num, den) == want, (num, den)
            checked += 1
    assert checked and raised
    # an undetermined numerator of higher order than the denominator, and a
    # zero numerator over a series of positive order, have the limit 0
    assert ratio(undetermined[2], determined[0]) == (0, 1)
    assert ratio(0, _eps_power(2)) == (0, 1)


def test_eps_scalar_has_no_constructor():
    for args in ((), (1,), (0, (1,))):
        with pytest.raises(TypeError, match="EPS"):
            EpsScalar(*args)
    assert isinstance(EPS * 2 + 1, EpsScalar)


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
    # the two-argument Fraction refuses inexact input: no float or string
    # becomes an exact parameter
    with pytest.raises(TypeError):
        rat(1.5)
    with pytest.raises(TypeError):
        rat("1/2")


def test_gmpy2_on_the_path_is_ignored(tmp_path):
    """The rationals are fractions.Fraction whatever else is importable: a
    gmpy2 module with an mpq on the path changes neither BACKEND nor the
    type rat returns."""
    (tmp_path / "gmpy2.py").write_text("from fractions import Fraction\n\n\nclass mpq(Fraction):\n    pass\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    probe = "from fractions import Fraction; from superbethe import rational; print(rational.BACKEND, type(rational.rat(1, 2)) is Fraction)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tmp_path), src)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["fractions", "True"], out
