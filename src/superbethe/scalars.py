"""Exact field arithmetic for the rational structure constants.

EpsScalar extends the plain rationals of rational.py, which carry every
generic computation, to truncated Laurent series in one formal
infinitesimal ``eps``, to evaluate the partition coefficients at coincident
spectral parameters as exact one-sided limits.

An EpsScalar is eps^val * (c_0 + c_1 eps + ... + c_{n-1} eps^{n-1}) +
O(eps^{val+n}) with c_0 != 0, or, for n = 0, the undetermined zero
O(eps^val) left when every kept coefficient cancels. n is the relative
precision and val + n the absolute one. A sum keeps the smaller absolute
precision, a product or quotient the smaller relative one, and a quotient
inverts the divisor's leading coefficient (power-series arithmetic, Knuth,
TAOCP vol. 2, 4.7), so no polynomial gcd is ever taken. Rationals take part
as exact values. A coefficient is stored as an int wherever its value is
integral: EPS is built from ints, and only a rational operand or a division
that does not come out even makes one a Fraction (eps_limit still returns a
Fraction). EPS is known to the fixed relative precision EPS_PRECISION, and
an eps-limit never returns a constant term the kept coefficients do not
fix: it raises PrecisionExhausted, as does a division by an undetermined
zero.

Limits are taken of scalars only: ratio takes the eps-limit of each term's
coefficient (why this is exact: bethe.py), and raises for one with no
limit. It reads the limit of num/den off the leading terms, with no series
division: the quotient has the order val(num) - val(den) and the leading
coefficient c0(num)/c0(den), and ratio raises exactly where
eps_limit(num / den) raises (_limit_of_quotient). bareiss_det and an
explicit / keep the series division. There is no retry at a higher
precision because the builders shift only one parameter
(bethe.separate_collision refuses larger overlaps): K(vI|uI) has at most a
simple pole in eps and 1/f(vs,us) a simple zero, so every partition
coefficient is regular at eps = 0 and the only singular products resolved
are 0 * inf.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import CardinalityMismatch, DivisionByZero, PoleAtZero, PrecisionExhausted
from .rational import ONE, ZERO, is_rational, rat

# Coefficients EPS carries. Every test and shipped config passes from 1 up
# (EPS known to O(eps^2)); 3 keeps two orders in hand.
EPS_PRECISION = 3

# ---------------------------------------------------------------------------
# series helpers on (val, coefficient tuple) pairs; see the module docstring
# ---------------------------------------------------------------------------


def _series(val, coeffs):
    """eps^val * coeffs + O(eps^(val + len(coeffs))), leading zeros moved
    into val and every integral coefficient stored as an int."""
    k = 0
    while k < len(coeffs) and not coeffs[k]:
        k += 1
    x = object.__new__(EpsScalar)
    object.__setattr__(x, "val", val + k)
    object.__setattr__(x, "coeffs", tuple(c if type(c) is int or c.denominator != 1 else int(c) for c in coeffs[k:]))
    return x


def _top(x):
    """Absolute precision of an EpsScalar."""
    return x.val + len(x.coeffs)


def _add(v1, a, v2, b, top):
    """eps^v1 * a + eps^v2 * b + O(eps^top)."""
    lo = min(v1, v2)
    out = [0] * (top - lo)
    for v, cs in ((v1, a), (v2, b)):
        for i, x in enumerate(cs[: max(top - v, 0)], v - lo):
            out[i] += x
    return _series(lo, out)


def _mul(v1, a, v2, b):
    n = min(len(a), len(b))
    return _series(v1 + v2, [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)])


def _quotient(x, y):
    """x / y exactly: an int where an int y divides an int x, else a
    rational."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return rat(x, y) if r else q
    return x / y


def _div(v1, a, v2, b):
    """(eps^v1 * a) / (eps^v2 * b) for b[0] != 0."""
    q = []
    for k in range(min(len(a), len(b))):
        q.append(_quotient(a[k] - sum(b[i] * q[k - i] for i in range(1, k + 1)), b[0]))
    return _series(v1 - v2, q)


def _scale(x, k):
    return _series(x.val, [c * k for c in x.coeffs]) if k else ZERO


def _neg(cs):
    return [-c for c in cs]


def _divisor(x):
    if not x.coeffs:
        raise PrecisionExhausted(f"division by the undetermined zero {x!r}")
    return x.val, x.coeffs


class EpsScalar:
    """Truncated Laurent series in the formal infinitesimal eps."""

    __slots__ = ("val", "coeffs")

    def __new__(cls, *args, **kwargs):
        raise TypeError("EpsScalar has no constructor: build values from EPS by arithmetic")

    def __setattr__(self, *a):
        raise AttributeError("EpsScalar is immutable")

    # -- predicates: structural; every value is truthy, since an undetermined
    # zero may be nonzero ---------------------------------------------------

    def __bool__(self):
        return True

    def __eq__(self, other):
        return isinstance(other, EpsScalar) and self.val == other.val and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.val, self.coeffs))

    def __repr__(self):
        terms = " + ".join(f"({c})*eps^{self.val + i}" for i, c in enumerate(self.coeffs) if c)
        return f"{terms or '0'} + O(eps^{_top(self)})"

    # -- arithmetic: each operator calls the helpers above, never another
    # operator, so every operation is one dunder call -----------------------

    def __add__(self, other):
        if isinstance(other, EpsScalar):
            return _add(self.val, self.coeffs, other.val, other.coeffs, min(_top(self), _top(other)))
        if is_rational(other):
            return _add(self.val, self.coeffs, 0, (other,), _top(self))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _series(self.val, _neg(self.coeffs))

    def __sub__(self, other):
        if isinstance(other, EpsScalar):
            return _add(self.val, self.coeffs, other.val, _neg(other.coeffs), min(_top(self), _top(other)))
        if is_rational(other):
            return _add(self.val, self.coeffs, 0, (-other,), _top(self))
        return NotImplemented

    def __rsub__(self, other):
        if is_rational(other):
            return _add(0, (other,), self.val, _neg(self.coeffs), _top(self))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, EpsScalar):
            return _mul(self.val, self.coeffs, other.val, other.coeffs)
        if is_rational(other):
            return _scale(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, EpsScalar):
            return _div(self.val, self.coeffs, *_divisor(other))
        if is_rational(other):
            if not other:
                raise DivisionByZero("division by identically zero scalar")
            return _scale(self, ONE / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rational(other):
            val, coeffs = _divisor(self)
            if not other:
                return ZERO
            return _div(0, (other,) + (0,) * (len(coeffs) - 1), val, coeffs)
        return NotImplemented


EPS = _series(1, (1,) + (0,) * (EPS_PRECISION - 1))


def is_zero(x) -> bool:
    return not x


def eps_limit(x):
    """Value at eps = 0: 0 above order zero, the constant term at it.

    Raises PoleAtZero for a known negative order and PrecisionExhausted when
    the kept coefficients do not fix the constant term. An EpsScalar's limit
    is that of the quotient x/1 (_limit_of_quotient)."""
    if is_rational(x):
        return rat(x)
    if not isinstance(x, EpsScalar):
        raise TypeError(f"no eps-limit of {type(x).__name__}")
    return rat(*_limit_of_quotient(x, 1))


# ---------------------------------------------------------------------------
# the rational structure functions, one pair at a time
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


def bareiss_det(rows):
    """Fraction-free determinant of a matrix of ints, rationals or
    EpsScalars; rows is consumed. Every division is exact, so an int matrix
    is eliminated on ints."""
    n = len(rows)
    if n == 0:
        return ONE
    negate = False
    for k in range(n - 1):
        if not rows[k][k]:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    negate = not negate
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                x = rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]
                rows[i][j] = _quotient(x, prev) if k else x
        prev = rows[k][k]
    return -rows[n - 1][n - 1] if negate else rows[n - 1][n - 1]


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


# ---------------------------------------------------------------------------
# pair tables: g, f and h of one parameter family as integer pairs
# ---------------------------------------------------------------------------


def as_pair(x):
    """(num, den) of x: numerator and positive denominator as ints for an
    exact rational; (x, 1) for an EpsScalar."""
    if isinstance(x, EpsScalar):
        return x, 1
    return x.numerator, x.denominator


_ZERO_DENOMINATOR = "zero denominator: a g or f at coincident arguments, or a zero divisor"


def ratio(num, den):
    """num/den as (p, q) ints in lowest terms with q > 0. Either operand may
    be an EpsScalar; then p/q is the eps-limit of the quotient, read from
    the leading terms (_limit_of_quotient), with no series division."""
    if type(num) is int and type(den) is int:
        if not den:
            raise DivisionByZero(_ZERO_DENOMINATOR)
        k = gcd(num, den) if den > 0 else -gcd(num, den)
        return num // k, den // k
    if isinstance(num, EpsScalar) or isinstance(den, EpsScalar):
        return ratio(*_limit_of_quotient(num, den))
    if not den:
        raise DivisionByZero(_ZERO_DENOMINATOR)
    return as_pair(num / den)


def _limit_of_quotient(num, den):
    """Rationals (a, b), b != 0, with a/b the value of num/den at eps = 0,
    the one rule of every eps-limit (eps_limit(x) is that of x/1). A
    rational operand has order 0 and is its own leading coefficient. The
    quotient has the order val(num) - val(den) and the leading coefficient
    c0(num)/c0(den), so it is read off the leading terms, with the checks
    of the series division first: a denominator that is an undetermined
    zero raises PrecisionExhausted, a zero numerator gives 0, a positive
    order 0, an undetermined numerator raises PrecisionExhausted and a
    negative order PoleAtZero."""
    if isinstance(den, EpsScalar):
        dv, (dc, *_) = _divisor(den)
    elif not den:
        raise DivisionByZero(_ZERO_DENOMINATOR)
    else:
        dv, dc = 0, den
    if not isinstance(num, EpsScalar):
        if not num:
            return 0, 1
        nv, nc = 0, num
    else:
        nv, nc = num.val, num.coeffs[0] if num.coeffs else None
    order = nv - dv
    if order > 0:
        return 0, 1
    if nc is None:
        raise PrecisionExhausted(f"constant term of ({num!r})/({den!r}) not determined at eps precision {EPS_PRECISION}")
    if order < 0:
        raise PoleAtZero(f"pole of order {-order} at eps=0 in ({num!r})/({den!r})")
    return nc, dc


def _cleared(x):
    """(p, q) with x = p/q and q a positive int: p is an int at a rational
    x and an EpsScalar at an eps-shifted one, q the denominator of x at
    eps = 0."""
    if isinstance(x, EpsScalar):
        q = eps_limit(x).denominator
        return x * q, q
    return as_pair(x)


class PairTable:
    """g, f and h of every ordered pair of a parameter family xs, tabulated
    once as (num, den) pairs, indexed [i][j]; the source of every shorthand
    coefficient (the plans of notation, the Bethe-vector weights among them).

    Each parameter is cleared once as x = p/q (p an EpsScalar at an
    eps-shifted x, q always an int), or read from cleared, the pairs a
    caller already holds (bethe.py reads them from Model.points), and with
    c = cn/cd the pair (i, j),
    i != j, has g(x_i, x_j) = gn/gd with gn = cn q_i q_j and
    gd = cd (p_i q_j - p_j q_i), f = (gd + gn)/gd and h = (gd + gn)/gn.
    On the diagonal h = 1, and g and f are (0, 0), which read either way
    up keeps the denominator 0, so ratio raises DivisionByZero on a product
    that has one, or its reciprocal, as a factor; so does a K block that
    pairs a parameter with itself. At a
    rational point every entry is an int; at an eps-shifted point the pairs
    of the shifted parameter are EpsScalars, and the products carry them.
    """

    __slots__ = ("g", "f", "h")

    def __init__(self, xs, c, cleared=None):
        cn, cd = as_pair(c)
        cleared = cleared or [_cleared(x) for x in xs]
        size = len(xs)
        self.g = [[(0, 0)] * size for _ in range(size)]
        self.f = [[(0, 0)] * size for _ in range(size)]
        self.h = [[(1, 1)] * size for _ in range(size)]
        for i, j in combinations(range(size), 2):
            (pi, qi), (pj, qj) = cleared[i], cleared[j]
            gn = cn * qi * qj
            gd = pi * (cd * qj) - pj * (cd * qi)
            if is_zero(gd):
                raise DivisionByZero("g(u,v) at coincident arguments")
            up, down = gd + gn, gn - gd
            self.g[i][j], self.g[j][i] = (gn, gd), (gn, -gd)
            self.f[i][j], self.f[j][i] = (up, gd), (down, -gd)
            self.h[i][j], self.h[j][i] = (up, gn), (down, gn)

    @staticmethod
    def product(pairs):
        """prod of (num, den) pairs, as (num, den); the empty one is (1, 1).
        Pairs with an EpsScalar are multiplied apart from the int ones and
        joined once, so an int factor costs no series operation."""
        num = den = 1
        series = None
        for n, d in pairs:
            if type(n) is int and type(d) is int:
                num *= n
                den *= d
            elif series is None:
                series = n, d
            else:
                series = series[0] * n, series[1] * d
        if series is None:
            return num, den
        return series[0] * num, series[1] * den

    def izergin(self, vs, us):
        """K_n(x_vs | x_us) as (num, den), vs and us index tuples.

        K_1 is the tabulated g. For n >= 2 it is the determinant form of
        izergin: the row of v in det[g^2/f], g^2/f = gn^2 / (gd (gd + gn)),
        is multiplied by the product of its entries' denominators, which
        leaves ints (EpsScalars in the shifted parameter's row or column) for
        bareiss_det, and the f-parts of those multipliers cancel the
        prefactor prod h(vs, us), so
        K = prod_{i<j} g(v_i,v_j) g(u_j,u_i) det M / prod (gn gd)(vs, us).
        """
        n = len(vs)
        if n != len(us):
            raise CardinalityMismatch(f"|vs|={n} vs |us|={len(us)}")
        if n == 0:
            return 1, 1
        if n == 1:
            return self.g[vs[0]][us[0]]
        g, f = self.g, self.f
        num, den = self.product(
            pair for i, j in combinations(range(n), 2) for pair in (g[vs[i]][vs[j]], g[us[j]][us[i]])
        )
        rows = []
        for v in vs:
            gs = [g[v][u] for u in us]
            dens = [gd * f[v][u][0] for u, (_, gd) in zip(us, gs)]
            row = []
            for l, (gn, _) in enumerate(gs):
                x = gn * gn
                for k, d in enumerate(dens):
                    if k != l:
                        x = x * d
                row.append(x)
            rows.append(row)
            for gn, gd in gs:
                den = den * gn * gd
        return num * bareiss_det(rows), den


def three_term_witness(u, v, z, c):
    """g(v,z)g(v,u) + g(v,z)g(u,z) + g(z,u)g(v,u); identically zero."""
    return g(v, z, c) * g(v, u, c) + g(v, z, c) * g(u, z, c) + g(z, u, c) * g(v, u, c)
