"""Concrete monodromy matrices on inhomogeneous, diagonally twisted chains
and on composites of them.

A chain realization is the ordered operator product

    T(u) = D . R_{0L}(u, xi_L) ... R_{01}(u, xi_1)

on (auxiliary factor) x (sites 1..L), auxiliary factor first, with
D = diag(d_1, d_2, d_3) acting in the auxiliary space. Entries T_ij(u) are
read off the auxiliary matrix units with the Koszul extraction sign
(-1)^{(par(row)+par(col)) [j]}, which is one constant per entry since T(u)
conserves the weight (extraction_sign, the one definition of it); the L=1
worked value T_13(u) = -g(u,0) E_31 and the closed forms
lambda_1 = d_1 f(u, xi), lambda_2 = d_2, lambda_3 = d_3 pin this convention
against the vacuum axioms.

A composite chain (Izergin-Korepin 1984) is the auxiliary-space product of
its parts' monodromies, T(u) = T^(2)(u) T^(1)(u), part 1 on the first
sites. One Model realizes a chain and a composite alike from a tuple of
ChainSpec parts that share sig and c: its factor tuple (Model.factors)
holds, for each part from last to first, the part's twist and then its
sites in descending order, each site offset by the lengths of the parts
before it, and lam_i(u) is the product of the parts' lam_i(u)
(Model.lam_pair), stated and not fitted: vacuum_residuals checks it
against the walk on a composite as on a chain. A composite's factors
interleave two diagonal twists between the site blocks, which no
single-twist chain reproduces (a twist does not commute past the other
part's R factors).

One walk engine for T(u). Each R_{0k} = I + g(u, xi_k) P_{0k} sends a basis
state to itself plus the state with the auxiliary and site-k digits swapped,
with the graded sign given by swap_sign, and D scales by the auxiliary digit.
Each factor is walked as its integer multiple: the twist times the lcm of
its denominators, and gd*R_{0k} = gd*I + gn*P_{0k} for g = gn/gd. Every
factor is symmetric, so the same factors serve kets (walked rightmost
first) and bras (leftmost first). T(u) is reached in two ways:

* Whole entries. build_cleared_product gives (N_u, N_u*T(u)) with int
  entries and no Fraction arithmetic, one site at a time, as the coproduct
  T^(j+1) = T^(j) L_{j+1} builds it (Faddeev 1996). It holds one level:
  the columns of every prefix (aux, s_1..s_j) of the sites walked so far.
  Site j+1 extends each prefix by a digit d in one pass over the level
  (_level_step): an entry (a; m) goes to (a; m, d) times kept if a = d,
  and otherwise to (a; m, d) times gd and to (d; m, a) times the signed
  gn. Every output row has one source, told apart by whether its
  auxiliary digit is d and whether its last digit is d, so the step adds
  nothing up; it drops an entry only where kept = gd +- gn is 0, at
  u = xi_k -+ c. The step reads its signs off the site's route, as the
  walk does, so the sign rule of P_{0k} lives in _route alone. Each
  twist scales the coefficients of the step before it.
  Model.monodromy splits the product into the nine signed entry operators
  of N_u*T(u) (extract_entries: each column split once by the auxiliary
  digit of its rows, a block column negated as a whole where the
  extraction sign is -1), built on every call; RTT, the exchange
  relations, the coproduct and Model.T read them, and the operator
  identities scale their residuals back. RTT and the exchange relations
  read one streamed pass, _rtt_pass: it packs each column of the 18
  entries of N_u*T(u) and N_v*T(v) into the weight space its weight shift
  predicts and, one chain column at a time, computes the 162 entry
  products, the nine that share a right-hand column in one
  graded.packed_products call (18 per chain column), and contracts them
  with the entries of R(u,v). From L = 4 on (_FORK_COLUMNS, 81 chain
  columns) it runs the upper half of the chain columns in one forked
  child, which sends its nonzero blocks back over a pipe as marshal bytes
  (_in_two_processes); the halves hold about equal work, and on two CPUs
  an L = 5 pass takes two thirds of its serial time and an L = 4 pass
  seven eighths. A fork round trip costs about 4 ms, more than half a
  whole pass at L = 3, which stays serial. The pass runs serially where
  os.fork is missing, the process may use one CPU only or another thread
  is alive (_forks, the one predicate), and where the fork fails; both
  paths return the same blocks key for key. check_rtt unpacks its blocks into its
  operator; the exchange relations, which are RTT written out in
  components, are signed blocks of the passes at (u, v) and (v, u), kept
  per model for the latest pair (check_supercommutator). The pass at
  (v, u) runs only where one at (u, v) has a nonzero block or R(u,v) is
  singular: by unitarity every block at (v, u) is zero otherwise.
  build_factor_product / Model.monodromy_op return the rational T(u);
  Model.T / Monodromy.entry scale an entry back to T_ij(u).
* Single entries on vectors. Model.apply_T_scaled applies one entry
  T_ij(u) to a sparse ket or bra without building any operator. A walk's
  side is its vector's type: a DualGradedVector is a bra, which T_ij(u)
  acts on from the right, as GradedOperator.apply_dual does. The walk
  takes the lifted numerators of the vector (num, over its den;
  Model._walk) on ints through one _apply_factor per factor and returns
  (m, m*T_ij(u)*vec), resp. (m, m*vec*T_ij(u)), as an int vector, den
  folded into m; the extraction sign is one factor of the walk's twist
  scalar. A site factor is walked
  through its route (_route), which no point changes: one byte per key of
  auxiliary x chain naming the key's auxiliary and site digits and the
  index of its coefficient among the point's gd + gn, gd - gn, gn, -gn,
  and per byte the step from a key to its swap. It is built once per
  signature, chain length, site and swap-sign rule and shared by every
  model and point, so a state entry costs a byte lookup, not its digits.
  A key and its swap are each other's only other source, so each output
  is written once, nothing is added up across entries and a zero is
  dropped only where a coefficient or a sum is 0. Each model builds its
  factor skeleton (_factor_skeleton: sites, xi cleared, the routes and
  the cleared twists; a site's head is ("site", k, route), the route its
  only copy of the graded signs) on its first walk, so a new point
  computes only g(u, xi_k) = gn/gd per site (_point_weights). The model keeps each point's (M, walk orders) by its
  point id, the ket and bra orders with the twists at either end taken
  out as scalars (_walk_orders).
  Model.points holds the rest of a point's int data: u cleared as (p, q)
  and lam2(u), which the Bethe-vector builders read. Model.apply_T scales
  by factor/m once at the end, on the vector's numerators and
  denominator. The vacuum axioms (vacuum_residuals) read their twelve
  entries off six walks of Omega and Omega^+ on the model's walk data, one
  per column on Omega and one per row on Omega^+ (_walk with ends). A
  nested Bethe vector's auxiliary chain is walked by the same _walk and
  _apply_factor, on factor data that cleared_chain_orders builds from the
  routes with no model.
* Walk tries. Each model holds one trie per side, Model.walks (kets, then
  bras), which bethe.build_family walks its terms through. A node is keyed
  by one step (i, j, point id) and holds (m, v, children): m the multiplier
  of its step's apply_T_scaled and v the int vector of its path from Omega
  (Omega^+), so a step sequence the model has walked before costs one dict
  lookup per step. Model.point_ids gives each walk point, a rational
  parameter keyed by its cleared pair (p, q), a small int, looked up once
  per parameter per build. The memo is exact: a walk is a pure function
  of the model and its steps, and only identical step sequences are
  reused, never an algebraic identity (commuting T12s, reversed orders). The tries, the skeleton and every
  per-point record live and die with their model.

The walk shares no sign with graded.embed / koszul_tensor, so the tests keep
the embedded product of the factors as an independent oracle.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, product, repeat
from math import lcm, prod
from operator import add, itemgetter, mul

from . import graded
from .errors import DivisionByZero
from .graded import (
    DualGradedVector,
    GradedOperator,
    GradedVector,
    Signature,
    _check_pair,
    pack,
    packed_products,
    parity_table,
    slot_shifts,
    slot_width,
    unpack,
    weight_spaces,
)
from .rational import is_rational, rat
from .scalars import as_pair, is_zero, ratio


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
    """(M, M*T(u)) for the factor product at a rational u, built on ints.

    Each factor is walked as an integer multiple of itself: the twist times
    the lcm of its denominators, and with g(u, xi_k) = gn/gd,
    gd*R_{0k} = gd*I + gn*P_{0k}. The product of those multiples is M*T(u)
    with M the product of the multipliers.

    The factors are walked rightmost first, which reaches the sites in the
    order 1..L. After the factors of sites 1..j a column's digits of sites
    j+1..L are untouched and the rest of its state depends only on its
    digits (aux, s_1..s_j), so the build holds one level: the columns of
    every such prefix, in prefix order, each a j-site chain. Site j+1
    extends prefix p by a digit d in one pass over the level (_level_step),
    and each twist is folded into the coefficients of the site step walked
    before it (or into the start, before any site)."""
    _require_rational(u)
    scale, weights = _point_weights(_factor_skeleton(sig, c, factors), *as_pair(u))
    steps, twist = [], [1, 1, 1]  # twist: the product of the twists since the last site
    for w in weights:
        if w[0] == "diag":
            twist = [*map(mul, twist, w[1])]
        else:
            steps.append((w, twist))
            twist = [1, 1, 1]
    steps.reverse()
    if [w[1] for w, _ in steps] != list(range(1, length + 1)):
        raise ValueError(f"the factors must reach the sites in the order 1..{length}")
    level = [{a: x} for a, x in enumerate(twist)]  # the column (a) of no site
    for w, after in steps:
        level = _level_step(level, w, after)
    cols = {col: state for col, state in enumerate(level) if state}
    return scale, GradedOperator.from_pruned(sig, length + 1, cols)


def _level_step(level, weights, twist):
    """The columns of every prefix of j+1 sites from those of j sites, for
    the factor of site j+1 and, after it, the twist (a product of twists).

    A column of prefix p = (c; s_1..s_j) is {(a; m): x} with m the digits
    of sites 1..j; extending p by the digit d puts d at site j+1 of every
    row, and gd*I + gn*P_{0,j+1} sends (a; m, d) to itself times
    kept = gd + gn*sign if a = d, and otherwise to itself times gd plus
    (d; m, a) times gn*sign. So the column 3p + d takes from each entry
    (a; m) of column p: (a; m, d) times kept or gd, and for a != d also
    (d; m, a). Its rows with auxiliary digit a != d end in d and come from
    (a; m); those with auxiliary digit d end in d (kept) or in a != d (the
    swap of (a; m)): every output row has one source, so the step adds
    nothing up and makes a zero only where kept is 0, at u = xi +- c. The
    coefficient of a row is read off the route bytes of its keys (a; m, x,
    1..1), x = 1..3 (_level_rows), and depends only on (a, the parity of
    m), so a move is built once per distinct three bytes, at most six; the
    twist only scales it by the row's new auxiliary digit."""
    _, site, (code, _), coef, ident = weights
    up = 3**site  # the auxiliary place of a row of j+1 sites
    kinds, rows = _level_rows(code, site)
    moves = []
    for three in kinds:
        a = three[0] // 12
        b, d = (x for x in range(3) if x != a)
        moves.append((a, coef[three[a] & 3] * twist[a], ident * twist[a], b, (b - a) * up + a, coef[three[b] & 3] * twist[b], d, (d - a) * up + a, coef[three[d] & 3] * twist[d]))
    table = [moves[k] for k in rows]
    out = []
    for col in level:
        children = ({}, {}, {})  # the columns 3p, 3p + 1, 3p + 2
        for key, x in col.items():
            a, ka, ia, b, rb, xb, d, rd, xd = table[key]
            key *= 3
            y = ia * x
            child = children[b]
            child[key + b] = y
            child[key + rb] = xb * x
            child = children[d]
            child[key + d] = y
            child[key + rd] = xd * x
            if ka:
                children[a][key + a] = ka * x
        out += children
    return out


@cache
def _level_rows(code, site):
    """The rows (a; m) of the level step of site, m the digits of the sites
    before it, read off the site's route code: (kinds, rows), kinds the
    distinct route bytes of the keys (a; m, x, 1..1), x = 1..3, and rows
    each row's index in kinds, in key order."""
    codes = code[:: len(code) // 3 ** (site + 1)]
    rows = [*zip(codes[::3], codes[1::3], codes[2::3])]
    kinds = sorted(set(rows))
    return kinds, [kinds.index(row) for row in rows]


def _require_rational(u):
    if not is_rational(u):
        raise TypeError(f"T(u) is walked at rational points only, not at u = {u!r}")


def swap_sign(pa, pb, between):
    """Sign of P_{0k} swapping an auxiliary digit of parity pa with a site-k
    digit of parity pb, when the digits of sites 1..k-1 have total parity
    `between`: (-1)^{pa pb + (pa + pb) between}."""
    return -1 if (pa & pb) ^ ((pa ^ pb) & between) else 1


@cache
def _route(sig, length, site, sign):
    """The route of R_{0,site} on auxiliary x (sites 1..length) under the
    sign rule sign, which no point changes: (code, delta). code holds one
    byte per key, 4 (3a + b) + k for the key's auxiliary digit a, its
    site digit b and the index k of its coefficient in a point's (gd + gn,
    gd - gn, gn, -gn) (_point_weights): for b == a the index of
    sign(pa, pa, 0) in (1, -1), else 2 + that of sign(pa, pb, p), p the
    parity of the sites before site and pa, pb the parities of a and b.
    delta[code] is (b - a)(3^length - 3^(length - site)), which turns a
    key into its swap (a and b exchanged), 0 where b == a. Every walk and
    build reads a site's signs here, and nowhere else."""
    par, prefix = sig.parity, parity_table(sig, site - 1)
    shift, place = 3**length, 3 ** (length - site)
    flip = lambda pa, pb, p: (1 - sign(pa, pb, p)) // 2  # the index of the sign in (1, -1)
    digits = ((key // shift, key // place % 3, prefix[key % shift // (3 * place)]) for key in range(3 * shift))
    code = bytes(4 * (3 * a + b) + (flip(par[a], par[a], 0) if a == b else 2 + flip(par[a], par[b], p)) for a, b, p in digits)
    return code, tuple((c // 4 % 3 - c // 12) * (shift - place) for c in range(36))


def _factor_skeleton(sig, c, factors):
    """The part of every factor's integer multiple that no point changes,
    leftmost first, on auxiliary x (sites 1..L), L the number of site
    factors: (m, ("diag", m*d)) for a twist d, m the lcm of its
    denominators, and for R_{0k}(u, xi) (xi, head, cn xq, cd xq, cd xp),
    head = ("site", k, _route) and c = cn/cd, xi = xp/xq: the route holds
    the site's signs, read through swap_sign here, so a rule replaced before
    the skeleton is built takes effect, with routes of its own."""
    cn, cd = as_pair(c)
    length = sum(kind == "site" for kind, *_ in factors)
    out = []
    for kind, *payload in factors:
        if kind == "diag":
            pairs = [as_pair(d) for d in payload[0]]
            m = lcm(*(q for _, q in pairs))
            out.append((m, ("diag", tuple(p * (m // q) for p, q in pairs))))
        elif kind == "site":
            site, xi = payload
            xp, xq = as_pair(xi)
            head = ("site", site, _route(sig, length, site, swap_sign))
            out.append((xi, head, cn * xq, cd * xq, cd * xp))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return out


def _point_weights(skeleton, up, uq):
    """(M, data) for the integer multiples m*F of the factors of a
    _factor_skeleton at u = up/uq, with the data _apply_factor needs and M
    the product of the multipliers: a twist as its skeleton has it, and
    with g(u, xi_k) = gn/gd, m = gd and head + ((gd + gn, gd - gn, gn,
    -gn), gd) for gd*I + gn*P_{0k}."""
    scale, weights = 1, []
    for entry in skeleton:
        if len(entry) == 2:
            m, data = entry
        else:
            xi, head, gn_x, gd_u, gd_x = entry
            diff = up * gd_u - uq * gd_x  # cd (u - xi) uq xq
            if not diff:
                raise DivisionByZero(f"spectral point hits inhomogeneity {xi}")
            gn, m = ratio(uq * gn_x, diff)
            data = (*head, (m + gn, m - gn, gn, -gn), m)
        scale *= m
        weights.append(data)
    return scale, weights


def _walk_orders(weights):
    """The factor data of a point in the order a ket walks them (rightmost
    first) and a bra (leftmost first), each as (head, factors, last, tail):
    a twist first in the order is taken out as head, one last as tail, and
    of the factors between them the last one as last (Model._walk); each
    is None where there is none."""
    orders = []
    for order in (weights[::-1], weights):
        head = tail = last = None
        if order and order[0][0] == "diag":
            head, order = order[0][1], order[1:]
        if order and order[-1][0] == "diag":
            tail, order = order[-1][1], order[:-1]
        if order:
            order, last = order[:-1], order[-1]
        orders.append((head, order, last, tail))
    return orders


def _apply_factor(length, weights, state, keep=None):
    """One factor applied to a sparse state on arity length+1; with keep,
    only the outputs on auxiliary digit keep. The output has no zero entry.

    Every factor is a symmetric matrix, so the same map serves kets and
    bras. gd*I + gn*P_{0k} reads each key's route code (_route): a key
    whose auxiliary and site-k digits agree goes to itself times its
    coefficient gd +- gn, and any other key to itself times gd and to its
    swap, key + delta, times its coefficient +-gn. Those two keys are each
    other's only other source, so an output is written once: a key and its
    swap both in the state each write their own sum.
    """
    if weights[0] == "diag":
        shift, d = 3**length, weights[1]
        return {key: d[key // shift] * x for key, x in state.items() if keep is None or key // shift == keep}
    _, _, (code, delta), coef, gd = weights
    out, find = {}, state.get
    for key, x in state.items():
        c = code[key]
        jump = delta[c]
        if keep is None or c // 12 == keep:
            if not jump:
                out[key] = coef[c & 3] * x
            elif (y := find(key + jump)) is not None:
                out[key] = gd * x + coef[code[key + jump] & 3] * y
            else:
                out[key] = gd * x
                if keep is None:
                    out[key + jump] = coef[c & 3] * x
        elif jump and c // 4 % 3 == keep and key + jump not in state:  # only its swap is kept
            out[key + jump] = coef[c & 3] * x
    return out if all(out.values()) else {key: x for key, x in out.items() if x}


def _walk(sig, length, i, j, vec, orders, ends=None):
    """T_ij . num for a ket vec, num . T_ij for a bra (a DualGradedVector)
    on auxiliary x (sites 1..length), for the _walk_orders of the factor
    data of some point and the numerators num of vec (its den is the
    caller's to take): num is lifted to auxiliary index j (i), the factors
    are applied rightmost (leftmost) first, one _apply_factor each, a site
    factor through its route, and the state is projected onto auxiliary
    index i (j). The extraction sign is one constant (extraction_sign), so
    it joins the twist scalar d. Nothing is computed that the projection
    would drop: a twist first in the order (head) meets only the lifted
    index and one last (tail) only the projected one, so each is the
    scalar of its entry there, and the last factor walked keeps only its
    outputs on the projected index.

    With ends, the projection is onto each index e in ends instead of i
    (j), from one walk whose last factor keeps every output: {e: T_ej .
    num} on a ket, {e: num . T_ie} on a bra, the entries of one column
    (row) of T(u), which share every factor."""
    dual = isinstance(vec, DualGradedVector)
    start, end = (i, j) if dual else (j, i)
    head, factors, last, tail = orders[dual]
    eps = _sign_table(sig.parity)[1]
    d = 1 if head is None else head[start - 1]
    if ends is None:
        d *= eps[i][j] if tail is None else eps[i][j] * tail[end - 1]
    shift = 3**length
    lo = (start - 1) * shift
    state = {lo + n: d * x for n, x in vec.num.items()}
    for weights in factors:
        state = _apply_factor(length, weights, state)
    if ends is not None:
        if last is not None:
            state = _apply_factor(length, last, state)
        scalars = [None] * 4  # the extraction sign and the tail's entry of each end
        for e in ends:
            r, s = (start, e) if dual else (e, start)
            scalars[e] = eps[r][s] if tail is None else eps[r][s] * tail[e - 1]
        parts = {e: {} for e in ends}
        for key, x in state.items():
            e = key // shift + 1
            if scalars[e] is not None:
                parts[e][key % shift] = scalars[e] * x
        return {e: type(vec).from_ints(sig, length, part) for e, part in parts.items()}
    if last is not None:
        state = _apply_factor(length, last, state, end - 1)
    elif start != end:
        state = {}  # no site factor: T(u) is the twist, diagonal
    lo = (end - 1) * shift
    return type(vec).from_ints(sig, length, {key - lo: x for key, x in state.items()} if lo else state)


def cleared_chain_orders(sig, c, sites, u):
    """(orders, pairs) for the untwisted chain on len(sites) sites at the
    points sites, walked at u, all given as cleared pairs (p, q): orders
    the _walk_orders of its factors, each R_{0k}(u, xi_k) in its unreduced
    cleared form gd*I + gn*P = cd uq xq ((u - xi_k) I + c P), gd = cd (up xq
    - xp uq) and gn = cn uq xq for c = cn/cd, and pairs the (gd, gn) of the
    sites, site 1 first. The form is finite at u = xi_k, where gd = 0, and
    nothing refuses that point. Each site's signs are read off its _route
    under swap_sign as it is at the call, as a model's skeleton reads them;
    no Model, skeleton or per-point record is built."""
    (up, uq), (cn, cd) = u, as_pair(c)
    pairs = [(cd * (up * xq - xp * uq), cn * uq * xq) for xp, xq in sites]
    length = len(sites)
    weights = [("site", k, _route(sig, length, k, swap_sign), (gd + gn, gd - gn, gn, -gn), gd) for k, (gd, gn) in enumerate(pairs, 1)]
    return _walk_orders(weights[::-1]), pairs


def extraction_sign(sig, i, j):
    """The Koszul sign eps_ij with which the entry T_ij is read off the
    auxiliary matrix units: -1 iff [j] = 1 and [i] = 0. Reading it off
    carries (-1)^{[j] (par(row) + par(col))}, and T(u) conserves the weight,
    so every nonzero entry of the block (i, j) has par(row) + par(col) =
    [i] + [j] and the sign is this one constant."""
    return -1 if sig.par(j) > sig.par(i) else 1


@cache
def _sign_table(parity):
    """(p, eps) for a signature's parity tuple (sig.parity, a cheaper key
    than the Signature): p[i] = [i] and eps[i][j] = extraction_sign(sig, i,
    j), indexed 1..3."""
    sig = Signature("", parity)
    return [None, *parity], [None] + [[None] + [extraction_sign(sig, i, j) for j in range(1, 4)] for i in range(1, 4)]


@cache
def _aux_split(length):
    """(auxiliary digit, chain key) of every key of auxiliary x chain."""
    return [divmod(key, 3**length) for key in range(3 ** (length + 1))]


def extract_entries(big: GradedOperator, sig, length):
    """Split an auxiliary x chain operator into its nine auxiliary blocks,
    T_ij the block (i, j) times extraction_sign(sig, i, j): each column is
    split once by the auxiliary digit of its rows, and a block column is
    negated as a whole where the sign is -1."""
    eps = _sign_table(sig.parity)[1]
    split = _aux_split(length)
    blocks = [{} for _ in range(9)]  # the columns of block (i, j) at 3j + i - 4
    negated = [eps[i][j] < 0 for j in range(1, 4) for i in range(1, 4)]
    for col, colmap in big.cols.items():
        j, n = split[col]
        parts = ({}, {}, {})
        for row, val in colmap.items():
            i, m = split[row]
            parts[i][m] = val
        for k, part in enumerate(parts, 3 * j):
            if part:
                blocks[k][n] = {m: -val for m, val in part.items()} if negated[k] else part
    return {(i, j): GradedOperator.from_pruned(sig, length, blocks[3 * j + i - 4]) for i in range(1, 4) for j in range(1, 4)}


@dataclass
class Monodromy:
    """The nine entry operators of T(u) at one rational spectral point, held
    as the int entries of scale*T(u), one common scale."""

    scale: int
    scaled: dict

    def entry(self, i, j) -> GradedOperator:
        """The rational entry T_ij(u)."""
        return self.scaled[(i, j)].scale(rat(1, self.scale))


def _shifted(weight, i, j, k, l):
    """The weight (count of digit 1, count of digit 2) shifted by
    e_j - e_i + e_l - e_k: that of T_ij T_kl applied to a key of the given
    weight."""
    n1, n2 = weight
    return n1 + (j == 1) - (i == 1) + (l == 1) - (k == 1), n2 + (j == 2) - (i == 2) + (l == 2) - (k == 2)


class Model:
    """The realization of a tuple of ChainSpec parts that share sig and c:
    one part for a chain (ChainModel), (part1, part2) for a composite
    (composite.CompositeModel). Its T(u) is the product of the parts'
    monodromies, their factors in one tuple (factors), and each vacuum
    eigenvalue is the product of the parts' (Izergin-Korepin), which the
    vacuum axioms check against the walk; lam and r are quotients of
    lam_pair.
    """

    def __init__(self, parts):
        self.parts = parts
        self.sig, self.c = parts[0].sig, parts[0].c
        self.arity = sum(part.length for part in parts)
        # ("diag", twist) and ("site", k, xi_k), leftmost first: each part
        # from last to first, its twist and then its sites, descending
        factors, offset = [], self.arity
        for part in reversed(parts):
            offset -= part.length
            factors.append(("diag", tuple(part.twist)))
            factors += (("site", offset + k, part.xi[k - 1]) for k in range(part.length, 0, -1))
        self.factors = tuple(factors)
        # point id of each walk point, a rational spectral parameter
        self.point_ids = {}
        # per point id: its cleared pair (p, q) and lam2 there as (num, den)
        self.points = []
        # the walk data (M, _walk_orders) of each walked point, keyed by
        # its point id, and the _factor_skeleton they are computed from,
        # built on the first walk
        self._weights = {}
        self._skeleton = None
        # the walk tries of bethe.build_family, kets first, then bras: the
        # children of Omega resp. Omega^+, each keyed by its step (i, j,
        # point id) and holding (m, v, children), m the multiplier of its
        # step and v the int vector of its path
        self.walks = ({}, {})
        # ((u, v), _rtt_pass(model, u, v), _rtt_pass(model, v, u) or None
        # where it is not run) of the latest spectral pair only, and the
        # two zero residuals that every tuple of an all-zero pair returns,
        # for check_supercommutator
        self._pair_blocks = None
        self._zero_pair = (GradedOperator(self.sig, self.arity),) * 2
        # partition-coefficient lists of the Bethe-vector builders, filled
        # by bethe._coefficients
        self.coefficients = {}

    def lam_pair(self, i, u):
        """lam_i(u) as (num, den), not necessarily in lowest terms: ints with
        den != 0 at a rational u = up/uq (as_pair). It is the product
        over the parts of each part's twist d_i, times prod_k f(u, xi_k)
        over the part's sites for i = 1, read from the parts, not from
        factors. With c = cn/cd and xi_k = xp/xq, f(u, xi_k) = (e + cn uq
        xq)/e for e = cd (up xq - xp uq)."""
        num, den = 1, 1
        for part in self.parts:
            dn, dd = as_pair(part.twist[i - 1])
            num, den = num * dn, den * dd
            if i == 1:
                (up, uq), (cn, cd) = as_pair(u), as_pair(self.c)
                for xp, xq in map(as_pair, part.xi):
                    e = cd * (up * xq - xp * uq)
                    if not e:
                        raise DivisionByZero("lam1(u) at an inhomogeneity")
                    num *= e + cn * uq * xq
                    den *= e
        return num, den

    def lam(self, i, u):
        """lam_i(u), the quotient of lam_pair."""
        return rat(*self.lam_pair(i, u))

    def monodromy_op(self, u) -> GradedOperator:
        return build_factor_product(self.sig, self.c, self.arity, self.factors, u)

    def monodromy(self, u) -> Monodromy:
        """T(u) split into its entries, built on every call."""
        scale, op = build_cleared_product(self.sig, self.c, self.arity, self.factors, u)
        return Monodromy(scale, extract_entries(op, self.sig, self.arity))

    def T(self, i, j, u) -> GradedOperator:
        return self.monodromy(u).entry(i, j)

    def apply_T(self, i, j, u, vec: GradedVector, factor=1) -> GradedVector:
        """factor * T_ij(u) . vec on a ket, factor * vec . T_ij(u) on a bra,
        equal to T(i, j, u).apply(vec), resp. apply_dual(vec), scaled by
        factor, matrix-free; the walk's 1/m is folded into factor, so the
        result is scaled once, on its numerators for a rational factor."""
        m, out = self.apply_T_scaled(i, j, u, vec)
        return out.scale(factor, m)

    def point_id(self, u):
        """The point id of a rational u (point_ids, keyed by u cleared as
        (p, q), so an int and the equal rational share one), given on first
        sight, when its points record is computed: (p, q) and lam2(u) as
        (num, den)."""
        _require_rational(u)
        pair = as_pair(u)
        pid = self.point_ids.setdefault(pair, len(self.points))
        if pid == len(self.points):
            self.points.append((pair, ratio(*self.lam_pair(2, u))))
        return pid

    def apply_T_scaled(self, i, j, u, vec, pid=None):
        """(m, m*T_ij(u) . vec) for a ket, (m, m*vec . T_ij(u)) for a bra, at
        a rational u, whose point id pid is looked up unless the caller holds
        it. The walk takes the numerators of vec, num with vec = num/den, and
        the integer multiples of the factors, with M the product of their
        multipliers, so that only ints are multiplied; then m = M*den."""
        _check_pair(self, vec)
        m, orders = self._walk_weights(self.point_id(u) if pid is None else pid)
        return m * vec.den, _walk(self.sig, self.arity, i, j, vec, orders)

    def _walk_weights(self, pid):
        """The walk data (M, _walk_orders) of the whole factor sequence at
        the point pid, computed on its first walk from the model's
        _factor_skeleton, which the model's first walk builds."""
        hit = self._weights.get(pid)
        if hit is None:
            if self._skeleton is None:
                self._skeleton = _factor_skeleton(self.sig, self.c, self.factors)
            m, weights = _point_weights(self._skeleton, *self.points[pid][0])
            hit = self._weights[pid] = m, _walk_orders(weights)
        return hit

    def weight_space_nonempty(self, a, b):
        """Whether a Bethe vector B_{a,b} (C, B~, C~ alike) can be nonzero
        here: 0 <= b <= a <= arity. Every site is fundamental and Omega has
        digit 1 at each. T(u) conserves the digit counts of the auxiliary
        factor and the sites together, so on a ket T12 moves one site from
        digit 1 to 2, T13 one from 1 to 3 and T23 one from 2 to 3 (a bra
        reads the same moves from the left). A term
        T13(vI) T23(vII) T12(uII) . Omega, #uI = #vI, makes #uII + #vI = a
        moves off digit 1 and #vII + #vI = b onto digit 3, so it lies in
        the weight space with digit counts (arity - a, a - b, b), which is
        empty unless b <= a <= arity, at every parameter value and on
        either signature. A site in another representation (a dual one)
        would need its own count."""
        return 0 <= b <= a <= self.arity

    def r(self, i, u):
        """lam_i(u) / lam_2(u), one quotient of the lam_pair pairs."""
        (num, den), (num2, den2) = self.lam_pair(i, u), self.lam_pair(2, u)
        return rat(num * den2, den * num2)

    def omega(self) -> GradedVector:
        return GradedVector.basis(self.sig, (1,) * self.arity)

    def omega_dual(self) -> DualGradedVector:
        return DualGradedVector.basis(self.sig, (1,) * self.arity)


class ChainModel(Model):
    """Evaluable realization of a single inhomogeneous twisted chain."""

    def __init__(self, spec: ChainSpec):
        super().__init__((spec,))
        self.spec = spec


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------


def check_rtt(model, u, v) -> GradedOperator:
    """R(u,v)(T(u) x I)(I x T(v)) - (I x T(v))(T(u) x I)R(u,v); zero iff RTT holds.

    In components RTT is the 81 exchange relations (Kulish-Sklyanin 1982).
    With T_xc the entries of N*T as Model.monodromy gives them and
    eps_xc = extraction_sign(sig, x, c), block ((a,b),(c,d)) of the cleared
    residual, rows (a, b, m) and columns (c, d, n), is

        sum_xy R[ab,xy] e eps_xc eps_yd T_xc(u) T_yd(v)
            - sum_c'd' R[c'd',cd] e' eps_ac' eps_bd' T_bd'(v) T_ac'(u),

    e = -1 iff [y]([x] + [c]) is odd and e' = -1 iff [d']([a] + [c']) is
    odd: the sign of T(u) x I, while I x T(v) and R x I carry none. The
    blocks are computed one chain column at a time (_rtt_pass), the same
    pass the exchange relations read (check_supercommutator)."""
    sig, length = model.sig, model.arity
    scale, nonzero = _rtt_pass(model, u, v)
    shift = 3**length
    out = {}
    for (a, b, c, d), cols in zip(product(range(1, 4), repeat=4), nonzero):
        for s, rows in cols.items():
            out.setdefault((3 * c + d - 4) * shift + s, {}).update({(3 * a + b - 4) * shift + m: y for m, y in rows.items()})
    return GradedOperator.from_pruned(sig, length + 2, out).scale(rat(1, scale))


def _rtt_pass(model, u, v):
    """The blocks of the cleared RTT residual at (u, v): (scale, nonzero).

    nonzero lists the 81 blocks ((a,b),(c,d)) at their number k in
    _rtt_plan, each as {s: column s} of its nonzero chain columns s only;
    the cleared residual is the rational one times scale, N_u N_v times the
    scale of the cleared R. R = I + gP has at most two entries in each row
    and column, so a block has at most four terms and each of the 162 entry
    products, T(u) T(v) and T(v) T(u), serves two blocks. The entries
    N*T(u) and N*T(v) are those of Model.monodromy, and R's entries are
    built on ints on every call (_cleared_r). Each column of the 18
    entries is packed (graded.pack) into the weight space its weight shift
    predicts, and a row outside it fails the slot lookup (KeyError). Each
    side's nine packed entries are zipped once into rows, row k the nine
    packed columns k, and for one chain column s at a time the nine
    product columns that share a right factor's column are one
    packed_products call, 18 per chain column, and each block column is
    the combination of its terms, a swap term only on the run of blocks
    that has one: no product is kept past its column. R's diagonal
    holds gd + gn and gd - gn, so r, the largest |entry| of the cleared
    R, is |gd| + |gn|, and no row or column of R sums to more than r in
    absolute value; each side of a block is then at most r S a b and every
    residual entry has |x| <= 2 r S a b, S the largest space and a, b the
    largest |entry| of N*T(u) and N*T(v). The slots are that wide
    (graded.slot_width), so a packed block column is 0 only if the residual
    column is, and only nonzero ones are unpacked. a and b are scanned off
    the entries actually packed, not bounded from the factor weights: a
    bound such as max|d| prod(|gd| + |gn|) over the factors would skip the
    scan, but it holds only for an honest build, and a wrong entry larger
    than it (a corrupt build) could then pack a nonzero residual column to
    0. The scan sizes the slots for whatever the build returned. Every chain
    column's blocks are computed apart from every other's, by one loop body
    (columns) over a range of them: from _FORK_COLUMNS columns on, where
    _forks allows it, the lower half runs here and the upper half in one
    forked child (_in_two_processes), and otherwise all run here."""
    sig, length = model.sig, model.arity
    gd, read = _cleared_r(sig, model.c, u, v)
    blocks, layers = _rtt_plan(sig)
    (t0, c0, _), (t1, c1, run1), (t2, c2, _), (t3, c3, run3) = [(take, [*map(mul, signs, map(read.get, reads, repeat(0)))], run) for take, signs, reads, run in layers]
    scale, largest, entries = 1, [max(map(abs, read.values()))], []
    for x in (u, v):
        mono = model.monodromy(x)
        scale *= mono.scale
        entries.append({ij: op.cols for ij, op in mono.scaled.items()})
        largest.append(max((max(map(abs, colmap.values())) for cols in entries[-1].values() for colmap in cols.values()), default=0))
    spaces = weight_spaces(length)
    width = slot_width(2 * max(map(len, spaces.values())) * prod(largest))
    weights = {key: weight for weight, keys in spaces.items() for key in keys}
    shifts = {weight: slot_shifts(keys, width) for weight, keys in spaces.items()}
    # T_ab maps the space of weight n to that of n + e_b - e_a ((k, l) = (1, 1) shifts nothing)
    targets = {ab: {w: shifts.get(_shifted(w, *ab, 1, 1), {}) for w in spaces} for ab in entries[0]}
    packed = [[pack(cols[k], targets[ab][weights[k]]) if k in cols else 0 for k in range(3**length)] for x in entries for ab, cols in x.items()]
    # rows[x][k]: packed column k of the nine entries of side x, in product order
    rows = [[*zip(*packed[9 * x : 9 * x + 9])] for x in (0, 1)]
    sides = [(rows[x], right) for x in (0, 1) for right in entries[1 - x].values()]
    nonzero = [{} for _ in blocks]

    def columns(first, stop):
        for s in range(first, stop):
            cols = [*chain.from_iterable(packed_products(left, col) if (col := right.get(s)) else (0,) * 9 for left, right in sides)]
            sums = [*map(add, map(mul, c0, t0(cols)), map(mul, c2, t2(cols)))]
            sums[run1] = map(add, sums[run1], map(mul, c1, t1(cols)))
            sums[run3] = map(add, sums[run3], map(mul, c3, t3(cols)))
            for block, x in compress(enumerate(sums), sums):
                k, a, b, c, d = blocks[block]
                nonzero[k][s] = unpack(x, spaces[_shifted(weights[s], a, c, b, d)], width)

    count = 3**length
    if _forks(count):
        _in_two_processes(columns, count, nonzero)
    else:
        columns(0, count)
    return gd * scale, nonzero


# An RTT pass splits its chain columns with one forked child from this many
# on, L >= 4. On a 2-vCPU x86_64 host (CPython 3.11, fractions) a fork round
# trip with no work costs a median 4.1 ms (p99 4.8 ms, 300 forks) in a
# 20 MB process, more than half a serial pass at L = 3 (27 columns): one
# pass, both T builds included, took a median 9.1 ms split against 6.0 ms
# serial there, 23.1 ms against 26.5 ms at L = 4 and 101 ms against 153 ms
# at L = 5.
_FORK_COLUMNS = 3**4


def _forks(count):
    """Whether _rtt_pass runs its count chain columns in two processes, the
    one predicate of its serial fallback: count is at least _FORK_COLUMNS,
    os.fork exists, the process may run on two CPUs or more
    (os.sched_getaffinity) and no other thread is alive. A fork with
    threads alive can deadlock the child, and Python 3.12+ warns of it;
    threads are counted as the kernel lists them (/proc/self/task), as that
    warning counts them, else by threading."""
    if count < _FORK_COLUMNS or not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        import threading

        return threading.active_count() == 1


def _in_two_processes(columns, count, nonzero):
    """Run columns(0, count // 2) here and columns(count // 2, count) in one
    forked child, into nonzero, the pass's 81 blocks, which are empty at
    the fork. The child sends its blocks, its columns only, back over a
    pipe as marshal bytes and leaves by os._exit, running no cleanup of
    this process; its collector is off, so it runs no finalizer and
    touches no more shared pages than its work does. Each child block is
    appended to the parent's, so every block's columns stay in ascending
    order and nonzero equals the serial pass's key for key. If the fork
    itself fails, all columns run here. If this half raises, the child is
    killed and reaped and the exception goes on unchanged; a child that
    exits nonzero or sends bytes that do not load raises ChildProcessError,
    and no block of it is kept."""
    half = count // 2
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the same loop, serially
        os.close(read)
        os.close(write)
        return columns(0, count)
    if not pid:
        try:
            import gc

            os.close(read)
            gc.disable()
            columns(half, count)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(nonzero))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            columns(0, half)
            data = pipe.read()
        except BaseException:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        theirs = None if status else marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        theirs = None
    if theirs is None:
        raise ChildProcessError(f"the forked half of an RTT pass failed (exit status {status}, {len(data)} bytes back)")
    for mine, block in zip(nonzero, theirs):
        mine.update(block)


def _cleared_r(sig, c, u, v):
    """(gd, read): with g(u,v) = gn/gd in lowest terms, gd > 0, the entries
    of gd R(u,v) = gd I + gn P on ints, as clear_denominators(r_matrix(...))
    gives them; read holds the nonzero ones at 9 row + col. R(v,u) is
    _cleared_r(sig, c, v, u), with the same gd and -gn. P is
    graded.super_permutation, looked up on every call, so a replacement
    (the flipped-Koszul control) takes effect here."""
    (up, uq), (vp, vq), (cn, cd) = as_pair(u), as_pair(v), as_pair(c)
    diff = cd * (up * vq - vp * uq)
    if not diff:
        raise DivisionByZero("RTT needs u != v")
    gn, gd = ratio(cn * uq * vq, diff)
    read = dict.fromkeys(range(0, 81, 10), gd)  # the diagonal, 9 k + k
    for col, colmap in graded.super_permutation(sig).cols.items():
        for row, x in colmap.items():
            read[9 * row + col] = read.get(9 * row + col, 0) + gn * x
    return gd, {key: x for key, x in read.items() if x}


# the classes of RTT blocks by (a = b, c = d), in _rtt_plan's order: the
# blocks with c != d, which have a swap term on T(v) T(u), are the first two
# classes and those with a != b, which have one on T(u) T(v), the middle
# two, so that each swap layer is one run of blocks
_RUNS = ((True, False), (False, False), (False, True), (True, True))


@cache
def _rtt_plan(sig):
    """The structure of the RTT residual's blocks for a signature:
    (blocks, layers).

    The 162 entry products are numbered 81 g + 9 j + i: T_ab(x) T_cd(y)
    with i = key(a, b), j = key(c, d), key(a, b) = 3a + b - 4, and x = u,
    y = v if g = 0, x = v, y = u if g = 1. The 81 blocks ((a,b),(c,d)) are
    numbered k = 9 key(a,b) + key(c,d), and blocks lists them as
    (k, a, b, c, d), ordered by _RUNS and then by k. Each of the four
    layers holds the terms of one run of blocks, as an itemgetter of their
    products, their signs, their entries of R, flattened as 9 row + col,
    and the run as a slice of blocks: R's diagonal and its swap, first on
    T(u) T(v) and then on T(v) T(u). Every block has both diagonal terms; a
    block with a = b (c = d) has no swap term on the first (second) side,
    and the blocks that have one form the run. A sign is e (e') times the
    extraction signs of the product's two entries (check_rtt). R(u,v) =
    I + gP, as r_matrix builds it for any signed permutation P, has no
    entry elsewhere."""
    p, eps = _sign_table(sig.parity)
    key = lambda x, y: 3 * x + y - 4
    blocks = [(9 * key(a, b) + key(c, d), a, b, c, d) for a, b, c, d in product(range(1, 4), repeat=4)]
    blocks.sort(key=lambda t: (_RUNS.index((t[1] == t[2], t[3] == t[4])), t[0]))
    terms = [{}, {}, {}, {}]  # position in blocks -> term, for each layer
    for at, (k, a, b, c, d) in enumerate(blocks):
        for swap, ((x, y), (e, f)) in enumerate((((a, b), (c, d)), ((b, a), (d, c)))):
            if not swap or a != b:
                sign = (1 - 2 * (p[y] & (p[x] ^ p[c]))) * eps[x][c] * eps[y][d]
                terms[swap][at] = 9 * key(y, d) + key(x, c), sign, 9 * key(a, b) + key(x, y)
            if not swap or c != d:
                sign = (2 * (p[f] & (p[a] ^ p[e])) - 1) * eps[a][e] * eps[b][f]
                terms[2 + swap][at] = 81 + 9 * key(a, e) + key(b, f), sign, 9 * key(e, f) + key(c, d)
    layers = [(itemgetter(*index), signs, reads, slice(min(layer), max(layer) + 1)) for layer in terms for index, signs, reads in [zip(*layer.values())]]
    return blocks, layers


def check_supercommutator(model, i, j, k, l, u, v):
    """Residuals of both displayed forms of the bilinear exchange relation.

    They are signed blocks of RTT residuals (check_rtt). With eps_ab =
    extraction_sign(sig, a, b),

        form 1 of (i,j,k,l) = -eps_ij eps_kl (-1)^{[j]([k]+[l])} block ((k,i),(l,j)) at (v, u),
        form 2 of (i,j,k,l) =  eps_ij eps_kl (-1)^{[k]([i]+[j])} block ((i,k),(j,l)) at (u, v).

    One _rtt_pass at (u, v) gives form 2 for all 81 tuples. Form 1 needs
    the pass at (v, u) only where the one at (u, v) has a nonzero block or
    R(u,v) is singular (u - v = +-c). With Res(u,v) the RTT residual, R = R(u,v)
    and P on the two auxiliary factors, unitarity R(u,v) R(v,u) =
    (1 - g^2) I, P R P = R and P T_1 P = T_2 give

        R Res(v,u) R = -(1 - g^2) P Res(u,v) P,    g = g(u,v),

    for any T(u) that conserves the weight, honest or not, so where
    Res(u,v) = 0 and R is invertible Res(v,u) = 0 and every tuple returns
    the model's one pair of zero operators. Otherwise the second pass
    computes the blocks at (v, u) in full. The model keeps both passes'
    nonzero columns for the latest pair only (Model._pair_blocks), (u, v)
    compared by identity first; each call scales its two blocks back by
    1/(gd N_u N_v), g(u,v) = gn/gd."""
    pair = model._pair_blocks
    if pair is None or (pair[0][0] is not u or pair[0][1] is not v) and pair[0] != (u, v):
        uv = _rtt_pass(model, u, v)
        vu = _rtt_pass(model, v, u) if any(uv[1]) or abs(u - v) == abs(model.c) else None
        pair = model._pair_blocks = (u, v), uv, vu
    if pair[2] is None:
        return model._zero_pair
    _, (n2, at_uv), (n1, at_vu) = pair
    p, eps = _sign_table(model.sig.parity)
    s = eps[i][j] * eps[k][l]
    # blocks 9 key(k,i) + key(l,j) at (v, u) and 9 key(i,k) + key(j,l) at (u, v), key as in _rtt_plan
    form1 = at_vu[27 * k + 9 * i + 3 * l + j - 40], s if p[j] & (p[k] ^ p[l]) else -s, n1
    form2 = at_uv[27 * i + 9 * k + 3 * j + l - 40], -s if p[k] & (p[i] ^ p[j]) else s, n2
    return tuple(GradedOperator.from_pruned(model.sig, model.arity, cols).scale(rat(sign, n)) if cols else model._zero_pair[0] for cols, sign, n in (form1, form2))


def vacuum_residuals(model, u):
    """Every vacuum-axiom residual at the spectral point u, as (name, is_zero).

    Each axiom applies one entry of T(u) to Omega or Omega^+. The entries
    T_ij, i >= j, that act on Omega come from one walk per column j, and
    the entries T_ij, i <= j, that act on Omega^+ from one walk per row i
    (_walk with ends), six walks on the model's walk data at u, each giving
    M times the entries' action, so the eigenvalue lam_i(u), which
    Model.lam_pair reads off the parts and not off the factors, is scaled
    by M as well, on its int pair. No entry of T(u) is materialized."""
    m, orders = model._walk_weights(model.point_id(u))
    omega, dual = model.omega(), model.omega_dual()
    # kets[k][e] = T_ek . Omega and bras[k][e] = Omega^+ . T_ke, e >= k
    kets, bras = ({k: _walk(model.sig, model.arity, k, k, vec, orders, range(k, 4)) for k in range(1, 4)} for vec in (omega, dual))
    out = []
    for i in range(1, 4):
        num, den = model.lam_pair(i, u)
        out.append((f"T{i}{i} ket eigenvalue", kets[i][i].sub(omega.scale(num * m, den)).is_zero()))
        out.append((f"T{i}{i} bra eigenvalue", bras[i][i].sub(dual.scale(num * m, den)).is_zero()))
    for i, j in product(range(1, 4), repeat=2):
        if i > j:
            out.append((f"T{i}{j} annihilates ket", kets[j][i].is_zero()))
        elif i < j:
            out.append((f"T{i}{j} annihilates bra", bras[i][j].is_zero()))
    return out
