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
a u equal to a v DivisionByZero (the partition sum has no value there;
the builders route that point to nested_vector, below).

The coefficients are computed on ints. Each parameter family us + vs gets
one scalars.PairTable, g, f and h of every ordered pair as (num, den) ints,
built from the cleared pairs (p, q) of its points; a u equal to a v keeps
its own entry there, so the table raises DivisionByZero. A weight is
shorthand text (BETHE_WEIGHT, gl12.TILDE_WEIGHT), compiled once per
weight and (a, b) into a plan (_weight_plan, from notation.compile_plan):
for every split, in the order
notation.splits enumerates them, the table entries, K blocks and literals
its coefficient reads. A term's coefficient is then one
PairTable.product of those reads, of f and lam2 of the base and of lam2
of u2, and one quotient, n/d in lowest terms; nothing is parsed or
interpreted per split. The coefficient lists depend only on the weight and
the ordered parameter tuples, so each model keeps them per weight and
parameters: a ket and its bra built at the same point share one list.

build_family looks up each parameter's point id (Model.point_id, keyed by
its cleared pair) once, before the coefficient lookup, and that is the
one hash of a rational parameter a build makes. A point id's first lookup
computes the point's record (Model.points): its cleared pair and lam2 as
ints, which every later build on the model reads. The ids are read by the
refusal of coincident parameters within us or vs, the key of the
coefficient lists (the weight and the point ids), the points' records and
the model's walk data of each point (Model.apply_T_scaled).

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
denominator (graded.accumulate), taking an lcm only when a term's d does not
divide the current one, folds the bra's sign into that denominator and
returns the sum as it is, int numerators over that denominator
(GradedVector.from_ints): a build at a rational point makes no Fraction.

Coincident parameters across the two families (forced by the action
formulas, e.g. {z,us};{z,vs}) are evaluated by the nested algebraic Bethe
ansatz (Kulish-Reshetikhin 1983; Belliard-Ragoucy 2008), nested_vector,
which builds the four vectors from T(u) alone. T' is the monodromy of the
a-site auxiliary chain with xi = us, twist 1 and the model's c and
signature, each factor in its cleared form (v - u_j) I + c P, finite at
v = u_j (monodromy.cleared_chain_orders). F = T'23(v_b) ... T'23(v_1)
e_2^{x a} on a ket, F* = e_2^{*x a} T'32(v_1) ... T'32(v_b) on a bra; with
F^i its components with no digit 1, i in {2,3}^a and i_1 the digit of
auxiliary site 1,

    Psi  = sum_i F^i  T_{1,i_1}(u_1) ... T_{1,i_a}(u_a) . Omega,
    Psi* = sum_i F*^i Omega^+ . T_{i_1,1}(u_1) ... T_{i_a,1}(u_a),

walked through the model's walk trie like the partition terms, and

    B  = (-1)^b Psi            / (prod h(v_j,v_k) lam2(us) prod (v_k - u_j + c)),
    C  =        Psi*           / (prod h(v_j,v_k) lam2(us) prod (v_k - u_j + c)),
    B~ = (-1)^a Psi            / (prod h(u_k,u_j) lam2(us) prod (v_k - u_j - c)),
    C~ = (-1)^{a(a-1)/2} Psi*  / (prod h(u_j,u_k) lam2(us) prod (v_k - u_j - c)),

the h products over j < k and the last over every k and j: over the
uncleared factors it is f(vs,us) on gl(2|1) and f(us,vs) on gl(1|2), the
normalizers of ROADMAP Finding C (Finding L clears them). Nothing in it
vanishes or blows up at v_k = u_j, so the vector there, the limit of the
partition sum, is a plain evaluation, at one coincidence or at several.
The builders route coincidences themselves: each one sends a u equal to a
v (coincident, the one predicate) to nested_vector, and every other point
to build_family. The normalizers are ints, read from the points' cleared
pairs, and the auxiliary terms (components over normalizers, with their
steps) are kept per model, side and point ids in Model.coefficients,
beside the coefficient lists.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import prod

from .errors import DivisionByZero
from .graded import GL21, DualGradedVector, GradedVector, accumulate, decode, digit_string
from .monodromy import _walk, cleared_chain_orders
from .notation import PartitionSpec, PartSpec, compile_plan, parse, plan_value
from .rational import rat_to_str
from .scalars import PairTable, is_zero, ratio

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
    (point id, parameter) pairs where the entries are walked; a
    step is walked by Model.apply_T_scaled on its first visit only and read
    from the trie after that. w is an int vector, q is the product of the
    steps' multipliers times the normalizer's numerator and p its
    denominator, read from the h table of the family's PairTable."""
    p, q = 1, 1
    for k in params if dual else reversed(params):
        pid, x = points[k]
        step = i, j, pid
        child = node[2].get(step)
        if child is None:
            m, vec = model.apply_T_scaled(i, j, x, node[1], pid)
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
    for parameter k of us + vs, a of them in us, and points[k] is its
    value, which the message gives in the config wire format."""
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
    if not given). The quotient is taken once per term."""
    us, vs = tuple(us), tuple(vs)
    xs, a = us + vs, len(us)
    if ids is None:
        ids = [model.point_id(x) for x in xs]
    points = [model.points[pid] for pid in ids]
    table = PairTable(xs, model.c, [pq for pq, _ in points])
    lam2 = [pair for _, pair in points]
    iu, iv = range(a), range(a, len(xs))
    names, left, right = ("vs,us", iv, iu) if model.sig == GL21 else ("us,vs", iu, iv)
    base_n, base_d = table.product([table.f[i][j] for i in left for j in right] + [lam2[k] for k in iv])
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
    keyed by their point ids, ids."""
    key = weight, len(us), *ids
    hit = model.coefficients.get(key)
    if hit is None:
        hit = model.coefficients[key] = _partition_terms(model, us, vs, weight, ids)
    return hit


def build_family(model, us, vs, weight, dual):
    """The partition sum of _PLAN under the given weight: the ket, or with
    dual its mirror bra (transposed entries, annihilation-type normalizers
    and the sign (-1)^{m(m-1)/2} for m odd factors per term). The terms,
    n/d times int vectors, are summed over one int denominator
    (graded.accumulate), which also takes the bra's sign, and returned as
    those ints over it. A pair (a, b) that Model.weight_space_nonempty rules
    out gives the zero vector, with no coefficient and no walk, even where a
    coefficient has a pole (exact, see above), after the refusals that need
    no coefficient."""
    a, xs = len(us), (*us, *vs)
    if not model.weight_space_nonempty(a, len(vs)):
        _require_distinct(xs, xs, a)
        if coincident(us, vs):
            raise DivisionByZero("g(u,v) at coincident arguments")
        return (DualGradedVector if dual else GradedVector)(model.sig, model.arity)
    ids = [model.point_id(x) for x in xs]
    _require_distinct(ids, xs, a)
    h_table, terms = _coefficients(model, us, vs, weight, ids)
    plan = _entry_plan(model.sig, dual)
    # every term has the same number of odd factors
    odd = sum(len(params) * odd_entry for (_, _, odd_entry), params in zip(plan, terms[0][2]))
    sign = -1 if dual and odd * (odd - 1) // 2 % 2 else 1
    walks = ((n, d, zip(plan, blocks)) for n, d, blocks in terms)
    return _walk_terms(model, h_table, walks, list(zip(ids, xs)), dual, sign)


def _walk_terms(model, h_table, terms, points, dual, sign=1):
    """sign times the sum of n/d times the walk of steps from Omega (Omega^+
    with dual) over the terms (n, d, steps), each step ((i, j, odd), params)
    walked by _apply_entries through the model's walk trie of its side, in
    the order given: summed over one int denominator (graded.accumulate),
    which takes the sign, and returned as those ints over it."""
    start = model.omega_dual() if dual else model.omega()
    root = 1, start, model.walks[dual]
    acc, den = {}, 1
    for n, d, steps in terms:
        node = root
        for (i, j, odd), params in steps:
            if params:
                p, q, node = _apply_entries(model, h_table, i, j, odd, params, points, node, dual)
                n, d = n * p, d * q
        den = accumulate(acc, den, n, d, node[1].num)
    return type(start).from_ints(model.sig, model.arity, acc, sign * den)


def _nested_terms(model, ids, a, dual):
    """The terms (n, d, steps) of nested_vector at the point ids (us first,
    a of them) for _walk_terms: one per component F^i of the auxiliary
    vector with no digit 1, its steps the T_{1,i_k}(u_k) (T_{i_k,1}(u_k) on
    a bra) in the order they are applied, and n/d its int component times
    the sign over the normalizers. The auxiliary factors at v are walked as
    gd*I + gn*P = cd vq uq ((v - u) I + c P), so their walk over
    prod (gd + gn) = prod cd vq uq (v - u + c) is T'(v) / f(v, us), and over
    prod (gd - gn) = prod cd vq uq (v - u - c) it is T'(v) / f(us, v)."""
    sig, gl21 = model.sig, model.sig == GL21
    xs = [model.points[pid][0] for pid in ids]
    us, vs = xs[:a], xs[a:]
    vec = (DualGradedVector if dual else GradedVector).basis(sig, (2,) * a)
    den = 1
    for v in vs:
        orders, pairs = cleared_chain_orders(sig, model.c, us, v)
        vec = _walk(sig, a, *((3, 2) if dual else (2, 3)), vec, orders)
        den *= prod(gd + gn if gl21 else gd - gn for gd, gn in pairs)
    # the symmetrizer of the odd entries, j < k: h(v_j, v_k) of the T'23 on
    # gl(2|1), h(u_k, u_j) of the T_1i on gl(1|2) (h(u_j, u_k) on a bra)
    family = vs if gl21 else us
    h = PairTable(family, model.c, family).h
    sym = [h[j][k] if gl21 or dual else h[k][j] for j, k in combinations(range(len(family)), 2)]
    hn, hd = PairTable.product(sym + [model.points[pid][1] for pid in ids[:a]])
    den *= hn
    if not den:
        raise DivisionByZero("a nested normalizer vanishes (a pair at difference -c); parameters not generic")
    odd = (0 if dual else len(vs)) if gl21 else a * (a - 1) // 2 if dual else a
    sign = -1 if odd % 2 else 1
    terms = []
    for key, x in vec.num.items():
        digits = decode(key, a)
        if 1 not in digits:
            steps = [((d, 1, False) if dual else (1, d, False), (k,)) for k, d in enumerate(digits)]
            terms.append((sign * x * hd, den, steps if dual else steps[::-1]))
    return terms


def coincident(us, vs):
    """Whether a u equals a v: the one predicate by which every builder
    sends a point to nested_vector, where the partition sum has no value."""
    return any(u == v for u in us for v in vs)


def nested_vector(model, us, vs, dual=False):
    """B_{a,b}(us; vs) on gl(2|1), B~_{a,b}(us; vs) on gl(1|2), or with dual
    C_{a,b} resp. C~_{a,b}, by the cleared nested Bethe ansatz (see above),
    which is defined where a u equals a v, at any number of pairs. The
    refusals of build_family stay but that one: coincident parameters
    within us or vs raise ValueError, a vanishing normalizer
    DivisionByZero, and a pair (a, b) that Model.weight_space_nonempty
    rules out gives the zero vector."""
    us, vs = tuple(us), tuple(vs)
    a, xs = len(us), us + vs
    if not model.weight_space_nonempty(a, len(vs)):
        _require_distinct(xs, xs, a)
        return (DualGradedVector if dual else GradedVector)(model.sig, model.arity)
    ids = [model.point_id(x) for x in xs]
    _require_distinct(ids, xs, a)
    key = "nested", dual, a, *ids
    terms = model.coefficients.get(key)
    if terms is None:
        terms = model.coefficients[key] = _nested_terms(model, ids, a, dual)
    return _walk_terms(model, None, terms, list(zip(ids, xs)), dual)


BETHE_WEIGHT = "K(vI|uI)*f(uI,uII)*g(vII,vI)"


def build_vector(model, us, vs) -> GradedVector:
    """B_{a,b}(us; vs) on a gl(2|1) realization; where a u equals a v, by
    nested_vector."""
    _guard(model, GL21)
    if coincident(us, vs):
        return nested_vector(model, us, vs)
    return build_family(model, us, vs, BETHE_WEIGHT, dual=False)


def build_dual_vector(model, us, vs) -> DualGradedVector:
    """C_{a,b}(us; vs), the mirror of B_{a,b}(us; vs); where a u equals a v,
    by nested_vector."""
    _guard(model, GL21)
    if coincident(us, vs):
        return nested_vector(model, us, vs, dual=True)
    return build_family(model, us, vs, BETHE_WEIGHT, dual=True)


# bench/tracer.py wraps these two by name; every builder evaluates a
# coincidence itself
def build_vector_limit(model, us, vs, builder=build_vector):
    return builder(model, us, vs)


def build_dual_vector_limit(model, us, vs):
    return build_dual_vector(model, us, vs)


class PartialCache:
    """Memo for partial Bethe vectors keyed by (tag, key): key the index
    tuples of us and vs into the one Binding of a partition sum
    (notation.partition_sum gives them to its target), so a lookup hashes
    ints only."""

    def __init__(self, builder):
        self.builder = builder
        self.store = {}

    def get(self, tag, model, us, vs, key):
        key = tag, key
        vec = self.store.get(key)
        if vec is None:
            vec = self.builder(model, us, vs)
            self.store[key] = vec
        return vec


def weight_gated(target, *models):
    """target(args, keys) of notation.partition_sum behind the one weight
    gate: args hold a (us, vs) pair per model, in the order of models (one
    for a plain target, two for a juxtaposed one), and a term whose vector
    is zero on some model by Model.weight_space_nonempty gives None without
    calling target, so partition_sum skips it whole. The builders still
    return zero vectors to their direct callers."""

    def gated(args, keys):
        for model, us, vs in zip(models, args[::2], args[1::2]):
            if not model.weight_space_nonempty(len(us), len(vs)):
                return None
        return target(args, keys)

    return gated


# ---------------------------------------------------------------------------
# gradation and serialization
# ---------------------------------------------------------------------------


def grading_of(vec, vacuous=None):
    """Support parity: 0, 1, "mixed", or the vacuous default for zero vectors."""
    p = vec.support_parity()
    return vacuous if p is None else p


def vector_to_json(vec) -> dict:
    return {digit_string(key, vec.arity): rat_to_str(vec.entries[key]) for key in sorted(vec.entries)}
