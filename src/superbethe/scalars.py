"""Exact field arithmetic for the rational structure constants.

Two layers:

* plain rationals (see rational.py) carry every generic computation;
* EpsScalar extends them to univariate rational functions of one formal
  infinitesimal ``eps``, used to evaluate vectors at coincident spectral
  parameters as exact one-sided limits.

EpsScalar results demote themselves back to plain rationals as soon as the
eps-dependence cancels, so the hot paths never pay for polynomial arithmetic.
Polynomials are little-endian coefficient tuples over the rational backend.
An EpsScalar is stored as num/den with gcd(num, den) = 1 and den monic; that
form is unique, which makes equality structural and lets eps_limit detect
removable singularities.

Reduction (the Henrici scheme of Knuth, TAOCP 4.5.1, which fractions.Fraction
uses for integers) runs a gcd only where a common factor can appear. With
a/b and c/d reduced and k a rational:

* k*(a/b) = (k*a)/b, (a/b)/k = (a/k)/b, a/b + k = (a + k*b)/b and
  k/(a/b) = (k*b)/a need no gcd: gcd(a + k*b, b) = gcd(a, b) = 1;
* (a/b)*(c/d) cancels gcd(a, d) and gcd(c, b) before multiplying, and the
  product is then reduced;
* a/b + c/d with g = gcd(b, d): if g = 1, (a*d + c*b)/(b*d) is reduced;
  otherwise t = a*(d/g) + c*(b/g) is coprime to b/g and d/g, so only
  gcd(t, g) is divided out.

The public constructor EpsScalar(num, den) reduces arbitrary input in full;
results of arithmetic are built by the trusted _reduced.

Also hosts the pairwise set-products of g/f/h in the shorthand semantics and
the domain-wall partition function (Izergin determinant), evaluated by
fraction-free Bareiss elimination.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CardinalityMismatch, DivisionByZero, PoleAtZero
from .rational import ONE, ZERO, is_rational, rat

# ---------------------------------------------------------------------------
# polynomial helpers: little-endian tuples, () is the zero polynomial
# ---------------------------------------------------------------------------


def _trim(t):
    n = len(t)
    while n and not t[n - 1]:
        n -= 1
    return tuple(t[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return _trim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def _pdivmod(a, b):
    # exact division over the rational field; b != ()
    rem = list(a)
    quo = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = ONE / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1] * inv_lead
        if coef:
            quo[shift] = coef
            for i, y in enumerate(b):
                rem[shift + i] = rem[shift + i] - coef * y
    return _trim(quo), _trim(rem)


def _pscale(a, k):
    return tuple(x * k for x in a)


def _pgcd(a, b):
    """Monic gcd; () only when both are ()."""
    while b:
        if len(a) == 1 or len(b) == 1:
            return (ONE,)  # a nonzero constant is coprime to everything
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    inv = ONE / a[-1]
    return tuple(x * inv for x in a)  # monic


def _pquo(a, g):
    """a / g for a monic divisor g of a."""
    return a if len(g) == 1 else _pdivmod(a, g)[0]


def _pmonic(num, den):
    lead = den[-1]
    if lead == ONE:
        return num, den
    inv = ONE / lead
    return _pscale(num, inv), _pscale(den, inv)


# ---------------------------------------------------------------------------
# EpsScalar arithmetic on reduced (num, den) pairs; see the module docstring
# ---------------------------------------------------------------------------


def _reduced(num, den):
    """num/den already in stored form (trimmed, coprime, den monic; a zero
    num may come with any den); demotes to a plain rational when eps drops
    out."""
    if not num:
        return ZERO
    if len(num) == 1 and len(den) == 1:
        return num[0]
    val = object.__new__(EpsScalar)
    object.__setattr__(val, "num", num)
    object.__setattr__(val, "den", den)
    return val


def _shifted(a, b, k):
    """a/b + k for a rational k: gcd(a + k*b, b) = gcd(a, b) = 1."""
    return _reduced(_padd(a, _pscale(b, k)), b)


def _scaled(a, b, k):
    """k*a/b for a rational k and coprime a, b (b need not be monic)."""
    if not k:
        return ZERO
    return _reduced(*_pmonic(_pscale(a, k), b))


def _sum(a, b, c, d):
    """a/b + c/d: with g = gcd(b, d), the sum t/(b*d/g) can only share a
    factor with g."""
    g = _pgcd(b, d)
    if len(g) == 1:
        return _reduced(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
    b1 = _pdivmod(b, g)[0]
    t = _padd(_pmul(a, _pdivmod(d, g)[0]), _pmul(c, b1))
    g = _pgcd(t, g)
    return _reduced(_pquo(t, g), _pmul(b1, _pquo(d, g)))


def _product(a, b, c, d):
    """(a/b) * (c/d) by cross-cancellation: only gcd(a, d) and gcd(c, b) can
    be nontrivial. d need not be monic (division passes a reciprocal)."""
    g1, g2 = _pgcd(a, d), _pgcd(c, b)
    num = _pmul(_pquo(a, g1), _pquo(c, g2))
    den = _pmul(_pquo(b, g2), _pquo(d, g1))
    return _reduced(*_pmonic(num, den))


class EpsScalar:
    """Reduced fraction of polynomials in the formal infinitesimal eps."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(ONE,)):
        num = _trim(tuple(rat(x) for x in num))
        den = _trim(tuple(rat(x) for x in den))
        if not den:
            raise DivisionByZero("denominator polynomial is identically zero")
        g = _pgcd(num, den)
        num, den = _pmonic(_pquo(num, g), _pquo(den, g))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("EpsScalar is immutable")

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, EpsScalar):
            return self.num == other.num and self.den == other.den
        if is_rational(other):
            return len(self.den) == 1 and self.num == _trim((rat(other),))
        return NotImplemented

    def __hash__(self):
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(self.num[0] if self.num else ZERO)
        return hash((self.num, self.den))

    def __repr__(self):
        def fmt(p):
            return " + ".join(f"({c})*eps^{i}" if i else f"({c})" for i, c in enumerate(p) if c) or "0"

        return f"({fmt(self.num)}) / ({fmt(self.den)})"

    # -- arithmetic: each operator calls the helpers above, never another
    # operator, so every operation is one dunder call -----------------------

    def _reciprocal(self):
        if not self.num:
            raise DivisionByZero("division by identically zero scalar")
        return self.den, self.num

    def __add__(self, other):
        if isinstance(other, EpsScalar):
            return _sum(self.num, self.den, other.num, other.den)
        if is_rational(other):
            return _shifted(self.num, self.den, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _reduced(_pneg(self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, EpsScalar):
            return _sum(self.num, self.den, _pneg(other.num), other.den)
        if is_rational(other):
            return _shifted(self.num, self.den, -other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, EpsScalar):
            return _sum(other.num, other.den, _pneg(self.num), self.den)
        if is_rational(other):
            return _shifted(_pneg(self.num), self.den, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, EpsScalar):
            return _product(self.num, self.den, other.num, other.den)
        if is_rational(other):
            return _scaled(self.num, self.den, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, EpsScalar):
            return _product(self.num, self.den, *other._reciprocal())
        if is_rational(other):
            if not other:
                raise DivisionByZero("division by identically zero scalar")
            return _scaled(self.num, self.den, ONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, EpsScalar):
            return _product(other.num, other.den, *self._reciprocal())
        if is_rational(other):
            return _scaled(*self._reciprocal(), other)
        return NotImplemented


EPS = EpsScalar((ZERO, ONE))


def is_zero(x) -> bool:
    return not x


def eps_limit(x):
    """Value at eps = 0 after cancellation of common factors."""
    if is_rational(x):
        return rat(x)
    if not isinstance(x, EpsScalar):
        raise TypeError(f"no eps-limit of {type(x).__name__}")
    if not x.den[0]:
        raise PoleAtZero(f"pole at eps=0 in {x!r}")
    return (x.num[0] if x.num else ZERO) / x.den[0]


# ---------------------------------------------------------------------------
# the rational structure functions and their set products
# ---------------------------------------------------------------------------


def g(u, v, c):
    d = u - v
    if is_zero(d):
        raise DivisionByZero("g(u,v) at coincident arguments")
    return (ONE * c) / d


def f(u, v, c):
    return 1 + g(u, v, c)


def h(u, v, c):
    # equals f/g wherever g is defined, but is regular at u == v (value 1)
    return (u - v + ONE * c) / (ONE * c)


_PAIR_FN = {"g": g, "f": f, "h": h}


def prod_pairs(fn, left, right, c):
    """prod over l in left, r in right of fn(l, r, c); empty product is 1."""
    acc = ONE
    for l in left:
        for r in right:
            acc = acc * fn(l, r, c)
    return acc


def prod_unary(fn, xs):
    acc = ONE
    for x in xs:
        acc = acc * fn(x)
    return acc


def set_product(kind, left, right, c, unary_funcs=None):
    """Shorthand set-product. kind in {g,f,h} takes two sets; r1/r3-style
    kinds resolve through unary_funcs and take the left set only."""
    if kind in _PAIR_FN:
        return prod_pairs(_PAIR_FN[kind], left, right, c)
    if unary_funcs and kind in unary_funcs:
        if right:
            raise ValueError(f"{kind} is a one-set product")
        return prod_unary(unary_funcs[kind], left)
    raise KeyError(f"unknown product kind {kind!r}")


def bareiss_det(rows):
    """Fraction-free determinant over the exact field; rows is consumed."""
    n = len(rows)
    if n == 0:
        return ONE
    sign = ONE
    prev = ONE
    for k in range(n - 1):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) / prev
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def izergin(vs, us, c):
    """Domain-wall partition function K_n(vs | us); K_0 = 1.

    Determinant representation: prod_{i<j} g(v_i,v_j) g(u_j,u_i) times
    f(vs,us)/g(vs,us) times det[ g^2(v_k,u_l) / f(v_k,u_l) ].
    """
    n = len(vs)
    if n != len(us):
        raise CardinalityMismatch(f"|vs|={n} vs |us|={len(us)}")
    if n == 0:
        return ONE
    pref = ONE
    for i, j in combinations(range(n), 2):
        pref = pref * g(vs[i], vs[j], c) * g(us[j], us[i], c)
    for v in vs:
        for u in us:
            pref = pref * h(v, u, c)  # f/g pairwise
    rows = []
    for v in vs:
        row = []
        for u in us:
            gv = g(v, u, c)
            row.append(gv * gv / f(v, u, c))
        rows.append(row)
    return pref * bareiss_det(rows)


def three_term_witness(u, v, z, c):
    """g(v,z)g(v,u) + g(v,z)g(u,z) + g(z,u)g(v,u); identically zero."""
    return g(v, z, c) * g(v, u, c) + g(v, z, c) * g(u, z, c) + g(z, u, c) * g(v, u, c)
