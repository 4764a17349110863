"""Concrete monodromy matrices on inhomogeneous, diagonally twisted chains.

A chain realization is the ordered operator product

    T(u) = D . R_{0L}(u, xi_L) ... R_{01}(u, xi_1)

on (auxiliary factor) x (sites 1..L), auxiliary factor first, with
D = diag(d_1, d_2, d_3) acting in the auxiliary space. Entries T_ij(u) are
read off the auxiliary matrix units with the Koszul extraction sign
(-1)^{(par(row)+par(col)) [j]}; the L=1 worked value T_13(u) = -g(u,0) E_31
and the closed forms lambda_1 = d_1 f(u, xi), lambda_2 = d_2, lambda_3 = d_3
pin this convention against the vacuum axioms.

The factor-sequence form is deliberately more general than a single chain:
composite totals interleave two diagonal twists between the site blocks,
which no single-twist chain reproduces (a twist does not commute past the
other part's R factors).

One walk engine for T(u). Each R_{0k} = I + g(u, xi_k) P_{0k} sends a basis
state to itself plus the state with the auxiliary and site-k digits swapped,
with the graded sign given by swap_sign, and D scales by the auxiliary digit;
_apply_factor pushes a sparse state through the integer multiple of one
factor: the twist times the lcm of its denominators, and
gd*R_{0k} = gd*I + gn*P_{0k} for g = gn/gd. Every factor is symmetric, so
the same factors serve kets (walked rightmost first) and bras (leftmost
first). It is used in two ways:

* Whole operators. build_cleared_product pushes each of the 3^(L+1) basis
  columns through the factors and divides out the common factor, which
  gives exactly the (N_u, N_u*T(u)) of graded.clear_denominators with no
  Fraction arithmetic. Model.monodromy returns the nine entry operators of
  N_u*T(u) and keeps those of the latest point only, since every caller
  asks for a point once in a row. The operator identities run on these
  integer operators and scale their residuals back. check_rtt clears T(u),
  T(v) and R(u,v) once each, lifts T into the two-auxiliary space by
  graded.insert_identity, and streams the residual one column at a time
  through graded.column_product, walking the columns in orbits of the swap
  of the two auxiliary digits (where R(u,v) has its entries), so no product
  of the arity-(L+2) operators is ever held.
  check_supercommutator takes its six products from the PairProducts of
  (u, v): the at most 162 products T_ab(x) T_cd(y) of the cached entries,
  each composed once for all 81 tuples, kept for the latest pair only; with
  g(u,v) = gn/gd each residual is one graded.linear_combination
  gd*lhs - gn*rhs of four of them. composite.compose_monodromy and
  vacuum_residuals (eigenvalues scaled by N_u) use the cached entries too.
  build_factor_product / Model.monodromy_op return the rational T(u) from
  the same walk; Model.T / Monodromy.entry scale a cached entry back to
  T_ij(u), for the symmetrized odd products and any caller that needs
  T_ij(u) itself.
* Single entries on vectors. Model.apply_T_scaled applies one entry
  T_ij(u) to a sparse ket or bra without building any operator: the vector
  is lifted to |j> x w (or <i| x w), walked through the factors and
  projected back onto the other auxiliary index, with the extraction sign
  on both ends. It clears the denominators of vec (every Bethe-vector walk
  starts from the int reference state, where there are none), walks the
  integer multiples of the factors and returns (m, m*T_ij(u)*vec), m the
  product of their multipliers and of the cleared denominators, so only
  ints are multiplied. One cache per model holds these (m, weights) pairs
  per point, the only walk state this path keeps. Model.apply_T /
  Model.apply_T_dual scale by 1/m once at the end, and apply_T folds a
  caller's factor into that one scaling. Every Bethe-vector builder and
  every vector-side check (actions, recursion, composite creation actions,
  the decomposition replay) goes this way.

The walk shares no sign with graded.embed / koszul_tensor, so the tests keep
the embedded product of the factors as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import DivisionByZero
from .graded import (
    DualGradedVector,
    GradedOperator,
    GradedVector,
    Signature,
    _check_pair,
    clear_denominators,
    column_product,
    embed,
    insert_identity,
    linear_combination,
    parity_table,
    r_matrix,
)
from .rational import is_rational, rat
from .scalars import as_pair, is_zero
from .scalars import f as f_fn
from .scalars import g as g_fn


@dataclass(frozen=True)
class ChainSpec:
    length: int
    xi: tuple
    twist: tuple = (1, 1, 1)
    sig: Signature = None
    c: object = 1

    def __post_init__(self):
        if self.sig is None:
            raise ValueError("a chain needs a signature")
        if self.length < 0 or len(self.xi) != self.length:
            raise ValueError(f"need {self.length} inhomogeneities, got {len(self.xi)}")
        if len(set(self.xi)) != self.length:
            raise ValueError("inhomogeneities must be pairwise distinct")
        if len(self.twist) != 3 or any(is_zero(d) for d in self.twist):
            raise ValueError("twist must be three nonzero rationals")
        if is_zero(self.c):
            raise ValueError("c must be nonzero")


def build_factor_product(sig, c, length, factors, u) -> GradedOperator:
    """Product of auxiliary-diagonal and R_{0,site} factors, left to right.

    factors: sequence of ("diag", (d1,d2,d3)) or ("site", site_index, xi).
    Returns the operator on arity length+1 (auxiliary factor is position 1):
    the cleared product at the rational u, scaled back.
    """
    n, op = build_cleared_product(sig, c, length, factors, u)
    return op.scale(rat(1, n))


def build_cleared_product(sig, c, length, factors, u):
    """(N, N*T(u)) for the factor product at a rational u, exactly what
    clear_denominators(build_factor_product(...)) returns, built on ints.

    Each factor is walked as an integer multiple of itself: the twist times
    the lcm of its denominators, and with g(u, xi_k) = gn/gd,
    gd*R_{0k} = gd*I + gn*P_{0k}. The product W of those multiples is
    M*T(u) with M the product of the multipliers; dividing W and M by
    gcd(M, entries of W) leaves the lcm of the entry denominators of T(u)."""
    scale, weights = _cleared_sequence(sig, c, length, factors, u)
    cols = _walk_columns(length, weights)
    common = scale
    for colmap in cols.values():
        if common == 1:
            break
        common = gcd(common, *colmap.values())
    if common > 1:
        scale //= common
        cols = {col: {r: v // common for r, v in colmap.items()} for col, colmap in cols.items()}
    return scale, GradedOperator.from_pruned(sig, length + 1, cols)


def _cleared_sequence(sig, c, length, factors, u):
    """(M, data) for the integer multiples of every factor at a rational u:
    their _cleared_weights, leftmost factor first, and M the product of
    their multipliers."""
    if not is_rational(u):
        raise TypeError(f"T(u) is walked at rational points only, not at u = {u!r}")
    scale = 1
    weights = []
    for factor in factors:
        m, w = _cleared_weights(sig, c, length, factor, u)
        scale *= m
        weights.append(w)
    return scale, weights


def _walk_columns(length, weights):
    """The columns {col: {row: value}} of the product of the factors whose
    _apply_factor data is `weights` (leftmost factor first): each basis
    state of auxiliary x chain is pushed through the factors, rightmost
    first."""
    order = weights[::-1]
    cols = {}
    for col in range(3 ** (length + 1)):
        state = {col: 1}
        for w in order:
            state = _apply_factor(length, w, state)
        if state:
            cols[col] = state
    return cols


def swap_sign(pa, pb, between):
    """Sign of P_{0k} swapping an auxiliary digit of parity pa with a site-k
    digit of parity pb, when the digits of sites 1..k-1 have total parity
    `between`: (-1)^{pa pb + (pa + pb) between}."""
    return -1 if (pa & pb) ^ ((pa ^ pb) & between) else 1


def _cleared_weights(sig, c, length, factor, u):
    """(m, data) for the integer multiple m*F of one factor F at a rational
    u, with the data _apply_factor needs: m the lcm of the twist
    denominators and ("diag", m*d), or, with g(u, xi_k) = gn/gd, m = gd and
    ("site", place of site k, parity table of the sites before it, swap
    weights, stay weights, gd) for gd*I + gn*P_{0k}."""
    kind, *payload = factor
    if kind == "diag":
        pairs = [as_pair(d) for d in payload[0]]
        m = lcm(*(q for _, q in pairs))
        return m, ("diag", tuple(p * (m // q) for p, q in pairs))
    if kind != "site":
        raise ValueError(f"unknown factor kind {kind!r}")
    site, xi = payload
    if is_zero(u - xi):
        raise DivisionByZero(f"spectral point hits inhomogeneity {xi}")
    gn, gd = as_pair(g_fn(u, xi, c))
    signed = {1: gn, -1: -gn}
    par = sig.parity
    # swap[a][b][p]: weight of the swapped state for auxiliary digit a, site
    # digit b and parity p of the sites before site k
    swap = [[[signed[swap_sign(par[a], par[b], p)] for p in (0, 1)] for b in range(3)] for a in range(3)]
    stay = {1: gd + gn, -1: gd - gn}
    stay = [stay[swap_sign(par[a], par[a], 0)] for a in range(3)]
    return gd, ("site", 3 ** (length - site), parity_table(sig, site - 1), swap, stay, gd)


def _apply_factor(length, weights, state):
    """One factor applied to a sparse state on arity length+1.

    Every factor is a symmetric matrix, so the same map serves kets and bras.
    """
    shift = 3 ** length
    out = {}
    if weights[0] == "diag":
        d = weights[1]
        for key, x in state.items():
            out[key] = d[key // shift] * x
        return out
    _, place, prefix, swap, stay, ident = weights
    for key, x in state.items():
        a, rest = divmod(key, shift)
        b = rest // place % 3
        if a == b:
            s = out.get(key)
            y = stay[a] * x
            out[key] = y if s is None else s + y
            continue
        y = ident * x
        s = out.get(key)
        out[key] = y if s is None else s + y
        swapped = key + (b - a) * (shift - place)
        y = swap[a][b][prefix[rest // (place * 3)]] * x
        s = out.get(swapped)
        out[swapped] = y if s is None else s + y
    return {key: x for key, x in out.items() if x}


def extract_entries(big: GradedOperator, sig, length):
    """Split an auxiliary x chain operator into its nine auxiliary blocks."""
    shift = 3 ** length
    par = parity_table(sig, length)
    out = {(i, j): {} for i in range(1, 4) for j in range(1, 4)}
    for col, colmap in big.cols.items():
        j, n = divmod(col, shift)
        pj = sig.par(j + 1)
        for row, val in colmap.items():
            i, m = divmod(row, shift)
            if pj and (par[m] ^ par[n]):
                val = -val
            out[(i + 1, j + 1)].setdefault(n, {})[m] = val
    return {ij: GradedOperator.from_pruned(sig, length, cols) for ij, cols in out.items()}


@dataclass
class Monodromy:
    """The nine entry operators of T(u) at one rational spectral point, held
    as the int entries of scale*T(u), one common scale."""

    scale: int
    scaled: dict

    def entry(self, i, j) -> GradedOperator:
        """The rational entry T_ij(u)."""
        return self.scaled[(i, j)].scale(rat(1, self.scale))


class PairProducts(dict):
    """The products T_ab(x) T_cd(y) of the scaled entries at one spectral
    pair (u, v), x and y the two points in either order: at most 162, keyed
    (x is u, ab, cd), each composed on its first lookup. Every product
    carries the scale N_u N_v."""

    def __init__(self, mu: Monodromy, mv: Monodromy):
        super().__init__()
        self.scale = mu.scale * mv.scale
        self._sides = {True: (mu.scaled, mv.scaled), False: (mv.scaled, mu.scaled)}

    def __missing__(self, key):
        at_u, ab, cd = key
        left, right = self._sides[at_u]
        op = self[key] = left[ab].compose(right[cd])
        return op


class Model:
    """Shared realization machinery: cached entries, vacuum data, references.

    Subclasses provide sig, c, arity, factor_sequence() and lam(i, u).
    """

    def __init__(self):
        # the Monodromy of the latest spectral point only, as (u, Monodromy)
        self._entries = None
        self._weights = {}
        # the PairProducts of the latest spectral pair only
        self._pair = None
        self._products = None
        # partition-coefficient lists of the Bethe-vector builders, filled
        # by bethe._coefficients
        self.coefficients = {}

    def factor_sequence(self):
        raise NotImplementedError

    def lam(self, i, u):
        raise NotImplementedError

    def monodromy_op(self, u) -> GradedOperator:
        return build_factor_product(self.sig, self.c, self.arity, self.factor_sequence(), u)

    def monodromy(self, u) -> Monodromy:
        """T(u) split into its entries. Only the latest spectral point is
        kept: a call at another point replaces it."""
        if self._entries is not None and self._entries[0] == u:
            return self._entries[1]
        scale, op = build_cleared_product(self.sig, self.c, self.arity, self.factor_sequence(), u)
        mono = Monodromy(scale, extract_entries(op, self.sig, self.arity))
        self._entries = u, mono
        return mono

    def T(self, i, j, u) -> GradedOperator:
        return self.monodromy(u).entry(i, j)

    def pair_products(self, u, v) -> PairProducts:
        """The PairProducts of (u, v). Only the latest pair is kept: a call
        at another pair replaces it, so at most 162 products are held."""
        if self._pair != (u, v):
            self._pair = u, v
            self._products = PairProducts(self.monodromy(u), self.monodromy(v))
        return self._products

    def apply_T(self, i, j, u, vec: GradedVector, factor=1) -> GradedVector:
        """factor * T_ij(u) . vec, equal to T(i, j, u).apply(vec) scaled by
        factor, matrix-free; the walk's 1/m is folded into factor, so the
        result is scaled once."""
        return _rescaled(*self.apply_T_scaled(i, j, u, vec), factor)

    def apply_T_dual(self, i, j, u, dual: DualGradedVector) -> DualGradedVector:
        """dual . T_ij(u), equal to T(i, j, u).apply_dual(dual), matrix-free."""
        return _rescaled(*self.apply_T_scaled(i, j, u, dual, dual=True))

    def apply_T_scaled(self, i, j, u, vec, dual=False):
        """(m, m*T_ij(u) . vec), or with dual (m, m*vec . T_ij(u)), at a
        rational u. The entries of vec are multiplied by the lcm n of their
        denominators and the walk takes the integer multiples of the
        factors, with M the product of their multipliers, so that only ints
        are multiplied; then m = M*n."""
        m, weights = self._walk_weights(u)
        n, vec = _cleared_vector(vec)
        m *= n
        if dual:
            return m, self._walk(i, j, j, vec, weights)
        return m, self._walk(j, i, j, vec, reversed(weights))

    def _walk_weights(self, u):
        """The _cleared_sequence of the whole factor sequence, cached per u."""
        hit = self._weights.get(u)
        if hit is None:
            hit = self._weights[u] = _cleared_sequence(self.sig, self.c, self.arity, self.factor_sequence(), u)
        return hit

    def _walk(self, start, end, j, vec, factors):
        """Lift vec to auxiliary index start, apply the factors in the given
        order and project onto auxiliary index end; both ends carry the
        extraction sign (-1)^{[j] par(chain digits)}."""
        _check_pair(self, vec)
        shift = 3 ** self.arity
        par = parity_table(self.sig, self.arity)
        odd = self.sig.par(j)
        lo = (start - 1) * shift
        state = {lo + n: (-x if odd and par[n] else x) for n, x in vec.entries.items()}
        for weights in factors:
            state = _apply_factor(self.arity, weights, state)
        lo = (end - 1) * shift
        out = {}
        for key, x in state.items():
            m = key - lo
            if 0 <= m < shift:
                out[m] = -x if odd and par[m] else x
        return type(vec)(self.sig, self.arity, out)

    def r(self, i, u):
        return self.lam(i, u) / self.lam(2, u)

    def omega(self) -> GradedVector:
        return GradedVector.basis(self.sig, (1,) * self.arity)

    def omega_dual(self) -> DualGradedVector:
        return DualGradedVector.basis(self.sig, (1,) * self.arity)


def _rescaled(m, vec, factor=1):
    """factor/m times vec, not scaled at all when that is 1."""
    if m != 1:
        factor = factor * rat(1, m)
    return vec if factor == 1 else vec.scale(factor)


def _cleared_vector(vec):
    """(n, n*vec) with int entries, n the lcm of the entry denominators of
    a vector of rationals."""
    values = vec.entries.values()
    if all(type(x) is int for x in values):
        return 1, vec
    n = lcm(*(int(x.denominator) for x in values))
    entries = {k: int(x.numerator) * (n // int(x.denominator)) for k, x in vec.entries.items()}
    return n, type(vec)(vec.sig, vec.arity, entries)


class ChainModel(Model):
    """Evaluable realization of a single inhomogeneous twisted chain."""

    def __init__(self, spec: ChainSpec):
        super().__init__()
        self.spec = spec
        self.sig = spec.sig
        self.c = spec.c
        self.arity = spec.length

    def factor_sequence(self):
        fs = [("diag", tuple(self.spec.twist))]
        for site in range(self.spec.length, 0, -1):
            fs.append(("site", site, self.spec.xi[site - 1]))
        return fs

    def lam(self, i, u):
        d = rat(self.spec.twist[i - 1])
        if i == 1:
            for xi in self.spec.xi:
                d = d * f_fn(u, xi, self.c)
        return d


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------


def check_rtt(model, u, v) -> GradedOperator:
    """R(u,v)(T(u) x I)(I x T(v)) - (I x T(v))(T(u) x I)R(u,v); zero iff RTT holds.

    With A = T(u) x I, B = I x T(v) and R = R(u,v), the residual is streamed
    one column at a time and no product of them is materialized: column c
    of RAB is B e_c pushed through A, then R, and column c of BAR is
    sum_k R[k,c] BA e_k. R = I + g P has its column c entries at c and at
    c', c with the two auxiliary digits swapped, so the columns are walked
    in swap orbits {c, c'} and each BA e_k is computed once per orbit."""
    if is_zero(u - v):
        raise DivisionByZero("RTT needs u != v")
    factors = model.factor_sequence()
    na, a = build_cleared_product(model.sig, model.c, model.arity, factors, u)
    nb, b = build_cleared_product(model.sig, model.c, model.arity, factors, v)
    nr, r = clear_denominators(r_matrix(u, v, model.sig, model.c))
    # T(u) x I puts the second auxiliary digit after the first one, I x T(v)
    # in front of it; T is even, so both are index arithmetic (insert_identity)
    a = insert_identity(a, 2).cols
    b = insert_identity(b, 1).cols
    r = embed(r, (1, 2), model.arity + 2).cols
    mid = 3**model.arity  # place value of the second auxiliary digit
    high = 3 * mid
    out = {}
    for c in range(3 * high):
        first, second = c // high, c // mid % 3
        if second < first:
            continue  # walked with its orbit partner
        orbit = (c,) if first == second else (c, c + (second - first) * (high - mid))
        ba = {}  # BA e_k for every row k of the orbit's columns of R
        for col in orbit:
            rcol = r.get(col, {})
            for k in rcol:
                if k not in ba:
                    ba[k] = column_product(b, a.get(k, {}))
            res = column_product(r, column_product(a, b.get(col, {})))
            for row, x in column_product(ba, rcol).items():
                s = res.get(row, 0) - x
                if s:
                    res[row] = s
                else:
                    del res[row]
            if res:
                out[col] = res
    residual = GradedOperator.from_pruned(model.sig, model.arity + 2, out)
    return residual.scale(rat(1, na * nb * nr))


def check_supercommutator(model, i, j, k, l, u, v):
    """Residuals of both displayed forms of the bilinear exchange relation.

    Every product pairs an entry at u with one at v, so both sides carry the
    scale N_u N_v of the cached integer entries; with g(u,v) = gn/gd each
    residual is (gd*lhs - gn*rhs) / (gd N_u N_v). The six products of a
    tuple are looked up in the Model.pair_products of (u, v), so each of the
    162 is composed once for all 81 tuples, and each residual is one linear
    combination of four of them."""
    p = model.sig.par
    gn, gd = as_pair(g_fn(u, v, model.c))
    t = model.pair_products(u, v)
    ij, kl, il, kj = (i, j), (k, l), (i, l), (k, j)
    lhs = [(gd, t[True, ij, kl]), (gd if (p(i) ^ p(j)) and (p(k) ^ p(l)) else -gd, t[False, kl, ij])]
    s1 = (p(i) & p(j)) ^ (p(i) & p(l)) ^ (p(j) & p(l))
    c1 = -gn if s1 else gn
    r1 = linear_combination(lhs + [(-c1, t[True, il, kj]), (c1, t[False, il, kj])])
    s2 = (p(i) & p(k)) ^ (p(i) & p(l)) ^ (p(k) & p(l))
    c2 = gn if s2 else -gn
    r2 = linear_combination(lhs + [(-c2, t[True, kj, il]), (c2, t[False, kj, il])])
    back = rat(1, gd * t.scale)
    return r1.scale(back), r2.scale(back)


def vacuum_residuals(model, u):
    """Every vacuum-axiom residual at the spectral point u, as (name, is_zero).

    The axioms are homogeneous in T(u), so they are read off the cached
    entries of N_u*T(u), with the eigenvalues scaled by N_u as well."""
    mono = model.monodromy(u)
    t = mono.scaled
    omega = model.omega()
    dual = model.omega_dual()
    out = []
    for i in range(1, 4):
        lam = model.lam(i, u) * mono.scale
        res = t[i, i].apply(omega).sub(omega.scale(lam))
        out.append((f"T{i}{i} ket eigenvalue", res.is_zero()))
        dres = t[i, i].apply_dual(dual).sub(dual.scale(lam))
        out.append((f"T{i}{i} bra eigenvalue", dres.is_zero()))
    for i in range(1, 4):
        for j in range(1, 4):
            if i > j:
                out.append((f"T{i}{j} annihilates ket", t[i, j].apply(omega).is_zero()))
            elif i < j:
                out.append((f"T{i}{j} annihilates bra", t[i, j].apply_dual(dual).is_zero()))
    return out
