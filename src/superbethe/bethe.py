"""Bethe vectors B, dual vectors C and their gl(1|2) tilde forms B~, C~.

All four are partition sums over the splits us = uI+uII, vs = vI+vII with
#uI = #vI (us of size a, vs of size b). A ket term is

    weight(uI,uII,vI,vII) / (lam2(uII) lam2(vs) f(vs,us))
        x  T13(vI) T23(vII) T12(uII) . Omega

with f(us,vs) in place of f(vs,us) on gl(1|2). A block whose entry is odd
under the signature (T13, T23 on gl(2|1); T13, T12 on gl(1|2)) is
symmetrized by the creation-type normalizer prod_{j<k} h(x_k, x_j); even
entries commute and go unnormalized. The mirror rule gives every bra: the
ket transposed and read from the left, (-1)^{m(m-1)/2} Omega^+ T21(uII)
T32(vII) T31(vI), with annihilation-type normalizers prod_{j<k} h(x_j, x_k)
and m the number of odd factors per term (b on gl(2|1), a on gl(1|2)).
build_family derives all four from the signature and the entry indices.

The coefficients are computed on ints. Each parameter family us + vs gets
one scalars.PairTable, g, f and h of every ordered pair as (num, den) ints;
a u equal to a v keeps its own entry there, so without an eps shift the
table raises DivisionByZero.
A weight is shorthand text (BETHE_WEIGHT, gl12.TILDE_WEIGHT), parsed once
and evaluated over that table by notation.eval_expr like every shorthand
coefficient, at the splits notation.splits enumerates. lam2 is evaluated
once per parameter, and each term's coefficient is one quotient, n/d in
lowest terms. The coefficient lists depend only on the
weight and the ordered parameter tuples, so each model keeps them per
(weight, us, vs): a ket and its bra built at the same point share one list.

Each block is walked by Model.apply_T_scaled on integer multiples of the
factors, and an odd block's h-normalizer is read from the same table, so a
term is n/d times an int vector. build_family sums the terms over one int
denominator, taking an lcm only when a term's d does not divide the current
one, folds the bra's sign into that denominator and builds each output
entry as one rational.

Coincident parameters across the two families (forced by the action
formulas, e.g. {z,us};{z,vs}) are handled by eps-separation: the colliding
v-side entry is shifted by the formal infinitesimal, and only scalars are
taken to the limit. A term is coef(eps) * W(eps), and W is regular at
eps = 0 because the walk at the unshifted point exists (a point on an
inhomogeneity raises DivisionByZero), so the term's limit is
lim coef * W(0). The same code serves: the shifted parameter clears to an
EpsScalar numerator, so its pairs in the table are EpsScalars (truncated
Laurent series), the coefficient's one quotient is an EpsScalar and n/d is
its eps-limit, and every block is walked at the eps-limit of its
parameters, on ints, with its h-normalizer taken there too. A coefficient
with no limit raises PoleAtZero or PrecisionExhausted, a normalizer that
vanishes there DivisionByZero; no term is dropped silently.
Only a single collision is supported; larger overlaps are refused, and with
one the coefficients stay regular at eps = 0 (see scalars.py).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import gcd, lcm

from .errors import DivisionByZero
from .graded import GL21, DualGradedVector, GradedVector, decode
from .notation import eval_expr, parse, splits
from .rational import rat, rat_to_str
from .scalars import EPS, EpsScalar, PairTable, as_pair, eps_limit, is_zero, ratio

# the entries of the ket T13(vI) T23(vII) T12(uII) . Omega in the order they
# are applied, to uII, vII and vI; the same for B and B~
_PLAN = ((1, 2), (2, 3), (1, 3))


def _is_odd(sig, i, j):
    return sig.par(i) != sig.par(j)


def _apply_entries(model, h_table, i, j, params, points, vec, dual):
    """(p, q, w) with (p/q) w = T_ij(x1)...T_ij(xn) . vec, or with dual the
    bra vec . T_ij(x1)...T_ij(xn), an odd T_ij divided by its normalizer
    (creation-type on kets, annihilation-type on bras). params are indices
    into points, the parameters at eps = 0, where the entries are walked; w
    is walked on ints, q is the product of the walks' multipliers times the
    normalizer's numerator and p its denominator, read from the h table of
    the family's PairTable (at eps = 0)."""
    p, q = 1, 1
    for k in params if dual else reversed(params):
        m, vec = model.apply_T_scaled(i, j, points[k], vec, dual)
        q *= m
    if len(params) > 1 and _is_odd(model.sig, i, j):
        pairs = combinations(params, 2)
        hn, hd = ratio(*PairTable.product(h_table[b][a] if not dual else h_table[a][b] for a, b in pairs))
        if not hn:
            raise DivisionByZero("h-pole in symmetrized product (u_k - u_j = -c)")
        p, q = hd, q * hn
    return p, q, vec


def _require_distinct(name, xs):
    seen = set()
    for x in xs:
        if x in seen:
            raise ValueError(f"coincident parameters within {name}: {x!r}")
        seen.add(x)


def _guard(model, sig):
    if model.sig != sig:
        raise ValueError(f"this constructor is the {sig.name} form, got {model.sig.name}")


def _partition_terms(model, us, vs, weight):
    """The h table of the PairTable of us + vs (us first), which the odd
    blocks' normalizers read, and every split us = u1+u2, vs = v1+v2 with
    #u1 = #v1, as (n, d, (u2, v2, v1)): index tuples into us + vs, and n/d
    in lowest terms the coefficient
    weight(u1, u2, v1, v2) / (lam2(u2) lam2(vs) f(vs,us)), with f(us,vs) in
    place of f(vs,us) on gl(1|2). weight is shorthand over uI, uII, vI and
    vII; the quotient is taken once per term, and at an eps-shifted point
    n/d is its eps-limit."""
    us, vs = tuple(us), tuple(vs)
    _require_distinct("us", us)
    _require_distinct("vs", vs)
    table, node = PairTable(us + vs, model.c), parse(weight)
    iu, iv = tuple(range(len(us))), tuple(range(len(us), len(us) + len(vs)))
    lam2 = [as_pair(model.lam(2, x)) for x in us + vs]
    names, left, right = ("vs,us", iv, iu) if model.sig == GL21 else ("us,vs", iu, iv)
    base_n, base_d = table.product(table.cross(table.f, left, right) + [lam2[k] for k in iv])
    if is_zero(base_n):
        raise DivisionByZero(f"f({names}) vanishes (a pair at difference -c); parameters not generic")
    terms = []
    for n in range(min(len(us), len(vs)) + 1):
        v_splits = splits(iv, (n, len(vs) - n))
        for u1, u2 in splits(iu, (n, len(us) - n)):
            # 1 / (lam2(u2) lam2(vs) f) as num/den
            num, den = table.product([(base_d, base_n), *(lam2[k][::-1] for k in u2)])
            for v1, v2 in v_splits:
                wn, wd = eval_expr(node, table, {"uI": u1, "uII": u2, "vI": v1, "vII": v2})
                terms.append((*ratio(wn * num, wd * den), (u2, v2, v1)))
    return table.h, terms


def _coefficients(model, us, vs, weight):
    """_partition_terms, computed once per model, weight and ordered
    parameter tuples, so that a ket and its bra share it."""
    key = weight, tuple(us), tuple(vs)
    hit = model.coefficients.get(key)
    if hit is None:
        hit = model.coefficients[key] = _partition_terms(model, us, vs, weight)
    return hit


def _accumulate(acc, den, n, d, entries):
    """Add (n/d) * entries to acc, which holds den times a sum of ints;
    returns the new den, the lcm of den and d in lowest terms."""
    if not n:
        return den
    k = gcd(n, d) if d > 0 else -gcd(n, d)
    n, d = n // k, d // k
    if den % d:
        grown = lcm(den, d)
        up = grown // den
        for key in acc:
            acc[key] *= up
        den = grown
    n *= den // d
    for key, x in entries.items():
        acc[key] = acc.get(key, 0) + n * x
    return den


def build_family(model, us, vs, weight, dual):
    """The partition sum of _PLAN under the given weight: the ket, or with
    dual its mirror bra (transposed entries, annihilation-type normalizers
    and the sign (-1)^{m(m-1)/2} for m odd factors per term). At eps-shifted
    parameters every term is its eps -> 0 limit. The terms, n/d times int
    vectors, are summed over one int denominator (see _accumulate), which
    also takes the bra's sign."""
    h_table, terms = _coefficients(model, us, vs, weight)
    points = [eps_limit(x) if isinstance(x, EpsScalar) else x for x in (*us, *vs)]  # at eps = 0
    start = model.omega_dual() if dual else model.omega()
    acc, den = {}, 1
    for n, d, blocks in terms:
        vec, odd = start, 0
        for (i, j), params in zip(_PLAN, blocks):
            if dual:
                i, j = j, i
            p, q, vec = _apply_entries(model, h_table, i, j, params, points, vec, dual)
            n, d = n * p, d * q
            odd += len(params) * _is_odd(model.sig, i, j)
        den = _accumulate(acc, den, n, d, vec.entries)
    if dual and odd * (odd - 1) // 2 % 2:
        den = -den
    return type(start)(model.sig, model.arity, {key: rat(x, den) for key, x in acc.items() if x})


BETHE_WEIGHT = "K(vI|uI)*f(uI,uII)*g(vII,vI)"


def build_vector(model, us, vs) -> GradedVector:
    """B_{a,b}(us; vs) on a gl(2|1) realization."""
    _guard(model, GL21)
    return build_family(model, us, vs, BETHE_WEIGHT, dual=False)


def build_dual_vector(model, us, vs) -> DualGradedVector:
    """C_{a,b}(us; vs), the mirror of B_{a,b}(us; vs)."""
    _guard(model, GL21)
    return build_family(model, us, vs, BETHE_WEIGHT, dual=True)


# ---------------------------------------------------------------------------
# coincident parameters
# ---------------------------------------------------------------------------


def separate_collision(us, vs):
    """Shift the (single) shared parameter on the v side by eps.

    Returns (us, vs', shifted?) where vs' is vs with the colliding entry
    replaced by entry + eps. Refuses overlaps of size >= 2: the machinery
    carries one infinitesimal only.
    """
    us, vs = tuple(us), tuple(vs)
    hits = [(i, j) for i, u in enumerate(us) for j, v in enumerate(vs) if is_zero(u - v)]
    if not hits:
        return us, vs, False
    if len(hits) > 1:
        raise ValueError(f"{len(hits)} coincident u/v pairs; only one collision is supported")
    _, j = hits[0]
    vs = vs[:j] + (vs[j] + EPS,) + vs[j + 1 :]
    return us, vs, True


def at_limit(build, us, vs):
    """build(us, vs) at possibly coincident us/vs via the exact eps -> 0
    limit, which the builders of this package take term by term
    (build_family, partition_sum) on the eps-separated parameters."""
    us, vs, _ = separate_collision(us, vs)
    return build(us, vs)


def build_vector_limit(model, us, vs, builder=build_vector):
    """Vector at possibly coincident us/vs via the exact eps -> 0 limit."""
    return at_limit(partial(builder, model), us, vs)


def build_dual_vector_limit(model, us, vs):
    return build_vector_limit(model, us, vs, builder=build_dual_vector)


class PartialCache:
    """Memo for partial Bethe vectors keyed by (tag, parameter tuples)."""

    def __init__(self, builder):
        self.builder = builder
        self.store = {}

    def get(self, tag, model, us, vs):
        key = (tag, tuple(us), tuple(vs))
        vec = self.store.get(key)
        if vec is None:
            vec = self.builder(model, us, vs)
            self.store[key] = vec
        return vec


# ---------------------------------------------------------------------------
# gradation and serialization
# ---------------------------------------------------------------------------


def grading_of(vec, vacuous=None):
    """Support parity: 0, 1, "mixed", or the vacuous default for zero vectors."""
    p = vec.support_parity()
    return vacuous if p is None else p


def vector_to_json(vec) -> dict:
    out = {}
    for key in sorted(vec.entries):
        digits = "".join(str(d) for d in decode(key, vec.arity))
        out[digits] = rat_to_str(vec.entries[key])
    return out
