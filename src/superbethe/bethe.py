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

Each term moves a sites off digit 1 of Omega and b onto digit 3, so on L
fundamental sites it lies in the weight space with digit counts
(L-a, a-b, b), empty unless b <= a <= L (Model.weight_space_nonempty).
build_family returns the zero vector for any other (a, b) before it
computes a coefficient or walks a step. That is exact: every term is
coef * W with W zero at every parameter value, so even a pole of coef
multiplies an identically zero vector. The refusals that need no
coefficient stay: coincident parameters within us or vs raise ValueError,
a u equal to a v with no eps shift DivisionByZero.

The coefficients are computed on ints. Each parameter family us + vs gets
one scalars.PairTable, g, f and h of every ordered pair as (num, den) ints,
built from the cleared pairs (p, q) of its points; a u equal to a v keeps
its own entry there, so without an eps shift the table raises
DivisionByZero. A weight is shorthand text (BETHE_WEIGHT,
gl12.TILDE_WEIGHT), compiled once per weight and (a, b) into a plan
(_weight_plan, from notation.compile_plan): for every split, in the order
notation.splits enumerates them, the table entries, K blocks and literals
its coefficient reads. A term's coefficient is then one
PairTable.product of those reads, of f and lam2 of the base and of lam2
of u2, and one quotient, n/d in lowest terms; nothing is parsed or
interpreted per split. The coefficient lists depend only on the weight and
the ordered parameter tuples, so each model keeps them per weight and
parameters: a ket and its bra built at the same point share one list.

build_family looks up each parameter's point id (Model.point_id, keyed by
its value at eps = 0) once, before the coefficient lookup, and that is the
one hash of a rational parameter a build makes. A point id's first lookup
computes the point's record (Model.points): its cleared pair and lam2 as
ints, which every later build on the model reads. The ids are read by the
refusal of coincident parameters within us or vs (two parameters coincide
when they are equal at eps = 0), the key of the coefficient lists (the
weight, the point ids, and a shifted entry's EpsScalar itself), the
points' records and the model's walk data of each point
(Model.apply_T_scaled).

Each block is walked by Model.apply_T_scaled on integer multiples of the
factors, and an odd block's h-normalizer is read from the same table, so a
term is n/d times an int vector. The steps of a term, T12(x) ... T13(y)
in the order they are applied, are walked through the model's walk trie
of its side (Model.walks, see monodromy.py), keyed by (i, j, point id).
A step on a path the model has walked before, in this build or
an earlier one (the kets of a symmetry check, the shifted sets of an
action's right-hand side, the partial vectors of a factorization), is one
dict lookup. Only identical step sequences are shared, so the reuse is
exact, and the returned vector is built anew from the trie's, which no
build mutates. build_family sums the terms over one int
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
Laurent series with int coefficients), the coefficient's one quotient has
EpsScalar terms and n/d is its eps-limit, read off their leading terms
(scalars.ratio), and every block is walked at the eps-limit of its
parameters, on ints, with its h-normalizer taken there too. A coefficient
with no limit raises PoleAtZero or PrecisionExhausted, a normalizer that
vanishes there DivisionByZero; no term is dropped silently.
Only a single collision is supported; larger overlaps are refused, and with
one the coefficients stay regular at eps = 0 (see scalars.py).
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations
from math import gcd, lcm

from .errors import DivisionByZero
from .graded import GL21, DualGradedVector, GradedVector, digit_string
from .notation import PartitionSpec, PartSpec, compile_plan, parse, plan_value
from .rational import rat, rat_to_str
from .scalars import EPS, EpsScalar, PairTable, eps_limit, is_zero, ratio

# the entries of the ket T13(vI) T23(vII) T12(uII) . Omega in the order they
# are applied, to uII, vII and vI; the same for B and B~
_PLAN = ((1, 2), (2, 3), (1, 3))


@cache
def _entry_plan(sig, dual):
    """_PLAN's entries as (i, j, odd), transposed for a bra, odd their parity
    under the signature."""
    entries = [(j, i) if dual else (i, j) for i, j in _PLAN]
    return tuple((i, j, sig.par(i) != sig.par(j)) for i, j in entries)


def _apply_entries(model, h_table, i, j, odd, params, points, node, dual):
    """(p, q, node) with (p/q) w = T_ij(x1)...T_ij(xn) . v, or with dual the
    bra v . T_ij(x1)...T_ij(xn), v the vector of the walk-trie node given
    and w that of the node returned, an odd T_ij (odd: its parity under the
    signature) divided by its normalizer (creation-type on kets,
    annihilation-type on bras). params are indices into points, the
    (point id, parameter at eps = 0) pairs where the entries are walked; a
    step is walked by Model.apply_T_scaled on its first visit only and read
    from the trie after that. w is an int vector, q is the product of the
    steps' multipliers times the normalizer's numerator and p its
    denominator, read from the h table of the family's PairTable (at
    eps = 0)."""
    p, q = 1, 1
    for k in params if dual else reversed(params):
        pid, x = points[k]
        step = i, j, pid
        child = node[2].get(step)
        if child is None:
            m, vec = model.apply_T_scaled(i, j, x, node[1], dual, pid)
            child = node[2][step] = m, vec, {}
        q *= child[0]
        node = child
    if odd and len(params) > 1:
        pairs = combinations(params, 2)
        hn, hd = ratio(*PairTable.product(h_table[b][a] if not dual else h_table[a][b] for a, b in pairs))
        if not hn:
            raise DivisionByZero("h-pole in symmetrized product (u_k - u_j = -c)")
        p, q = hd, q * hn
    return p, q, node


def _require_distinct(keys, points, a):
    """Refuse coincident parameters within us or within vs. keys[k] stands
    for parameter k of us + vs, a of them in us, and points[k] is its value
    at eps = 0, which the message gives in the config wire format."""
    for name, lo, hi in (("us", 0, a), ("vs", a, len(keys))):
        for k in range(lo + 1, hi):
            if keys[k] in keys[lo:k]:
                raise ValueError(f"coincident parameters within {name}: {rat_to_str(points[k])}")


def _guard(model, sig):
    if model.sig != sig:
        raise ValueError(f"this constructor is the {sig.name} form, got {model.sig.name}")


@cache
def _weight_plan(weight, a, b):
    """Every split us = u1+u2, vs = v1+v2 with #u1 = #v1 of a us (indices
    0..a-1) and b vs (a..a+b-1), as (u2, v2, v1, reads): index tuples and
    the reads of weight there, from notation.compile_plan, in the order of
    notation.splits. One plan per weight text and sizes; no value enters."""
    node, layout = parse(weight), (("us", tuple(range(a))), ("vs", tuple(range(a, a + b))))
    out = []
    for n in range(min(a, b) + 1):
        specs = (PartitionSpec("us", (PartSpec("uI", n), PartSpec("uII"))), PartitionSpec("vs", (PartSpec("vI", n), PartSpec("vII"))))
        names, splits = compile_plan(node, layout, specs)
        u2, v2, v1 = (names.index(name) for name in ("uII", "vII", "vI"))
        out += [(sets[u2], sets[v2], sets[v1], reads) for sets, reads in splits]
    return tuple(out)


def _partition_terms(model, us, vs, weight, ids=None):
    """The h table of the PairTable of us + vs (us first), which the odd
    blocks' normalizers read, and every split us = u1+u2, vs = v1+v2 with
    #u1 = #v1, as (n, d, (u2, v2, v1)): index tuples into us + vs, and n/d
    in lowest terms the coefficient
    weight(u1, u2, v1, v2) / (lam2(u2) lam2(vs) f(vs,us)), with f(us,vs) in
    place of f(vs,us) on gl(1|2). weight is shorthand over uI, uII, vI and
    vII, read at each split by its _weight_plan. The parameters' cleared
    pairs and lam2 come from Model.points by their point ids, ids (looked up
    if not given); a shifted parameter is cleared by its point's
    denominator, and lam2 is read at its eps-limit, which leaves the limit
    unchanged, as the coefficients are regular at eps = 0 (scalars.py). The
    quotient is taken once per term, and at an eps-shifted point n/d is its
    eps-limit."""
    us, vs = tuple(us), tuple(vs)
    xs, a = us + vs, len(us)
    if ids is None:
        ids = [model.point_id(eps_limit(x) if isinstance(x, EpsScalar) else x) for x in xs]
    points = [model.points[pid] for pid in ids]
    cleared = [(x * pq[1], pq[1]) if isinstance(x, EpsScalar) else pq for x, (pq, _) in zip(xs, points)]
    table = PairTable(xs, model.c, cleared)
    lam2 = [pair for _, pair in points]
    iu, iv = range(a), range(a, len(xs))
    names, left, right = ("vs,us", iv, iu) if model.sig == GL21 else ("us,vs", iu, iv)
    base_n, base_d = table.product(table.cross(table.f, left, right) + [lam2[k] for k in iv])
    if is_zero(base_n):
        raise DivisionByZero(f"f({names}) vanishes (a pair at difference -c); parameters not generic")
    base, inverse = (base_d, base_n), [pair[::-1] for pair in lam2]
    terms = []
    for u2, v2, v1, reads in _weight_plan(weight, a, len(vs)):
        # weight / (lam2(u2) lam2(vs) f) as num/den
        wn, wd = plan_value(reads, table, extra=[base, *(inverse[k] for k in u2)])
        terms.append((*ratio(wn, wd), (u2, v2, v1)))
    return table.h, terms


def _coefficients(model, us, vs, weight, ids):
    """_partition_terms, computed once per model, weight and ordered
    parameter tuples, so that a ket and its bra share it. The parameters are
    keyed by their point ids, ids, and a shifted one by its EpsScalar."""
    key = weight, len(us), *(x if isinstance(x, EpsScalar) else pid for x, pid in zip((*us, *vs), ids))
    hit = model.coefficients.get(key)
    if hit is None:
        hit = model.coefficients[key] = _partition_terms(model, us, vs, weight, ids)
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
    also takes the bra's sign. A pair (a, b) that Model.weight_space_nonempty
    rules out gives the zero vector, with no coefficient and no walk, even
    where a coefficient has a pole (exact, see above), after the refusals
    that need no coefficient."""
    a = len(us)
    at_zero = [eps_limit(x) if isinstance(x, EpsScalar) else x for x in (*us, *vs)]
    if not model.weight_space_nonempty(a, len(vs)):
        _require_distinct(at_zero, at_zero, a)
        if any(u == v for u in us for v in vs):
            raise DivisionByZero("g(u,v) at coincident arguments")
        return (DualGradedVector if dual else GradedVector)(model.sig, model.arity)
    ids = [model.point_id(x) for x in at_zero]
    _require_distinct(ids, at_zero, a)
    h_table, terms = _coefficients(model, us, vs, weight, ids)
    points = list(zip(ids, at_zero))
    plan = _entry_plan(model.sig, dual)
    start = model.omega_dual() if dual else model.omega()
    root = 1, start, model.walks[dual]
    acc, den = {}, 1
    for n, d, blocks in terms:
        node = root
        for (i, j, odd_entry), params in zip(plan, blocks):
            if params:
                p, q, node = _apply_entries(model, h_table, i, j, odd_entry, params, points, node, dual)
                n, d = n * p, d * q
        den = _accumulate(acc, den, n, d, node[1].entries)
    # every term has the same number of odd factors
    odd = sum(len(params) * odd_entry for (_, _, odd_entry), params in zip(plan, blocks))
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
    """Memo for partial Bethe vectors keyed by (tag, key): key the index
    tuples of us and vs into the one Binding of a partition sum
    (notation.partition_sum gives them to its target), so a lookup hashes
    ints only; without one, the parameter tuples themselves."""

    def __init__(self, builder):
        self.builder = builder
        self.store = {}

    def get(self, tag, model, us, vs, key=None):
        key = tag, key or (tuple(us), tuple(vs))
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
    return {digit_string(key, vec.arity): rat_to_str(vec.entries[key]) for key in sorted(vec.entries)}
