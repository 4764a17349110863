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

Each block is walked by Model.apply_T_scaled, on integer multiples of the
factors at rational points, so a term's walk leaves d times its normalized
block product: the per-term divisor d is the product of the walk
multipliers and of the odd blocks' h-normalizers. The coefficient is
divided by d once (not at all when d = 1), and at rational points the
entries are ints until that coefficient scales them.

The partition coefficients depend only on the weight and the ordered
parameter tuples, so each model keeps their list per (weight, us, vs): a ket
and its bra built at the same point share one list.

Coincident parameters across the two families (forced by the action
formulas, e.g. {z,us};{z,vs}) are handled by eps-separation: the colliding
v-side entry is shifted by the formal infinitesimal, and only scalars are
taken to the limit. A term is coef(eps) * W(eps), and W is regular at
eps = 0 because the walk at the unshifted point exists (a point on an
inhomogeneity raises DivisionByZero), so the term's limit is
lim coef * W(0): the coefficient, divided by d, is computed over truncated
Laurent series (EpsScalar) and its eps-limit taken, and every block is
walked at the eps-limit of its parameters, on ints. A coefficient with no
limit raises PoleAtZero or PrecisionExhausted; no term is dropped silently.
Only a single collision is supported; larger overlaps are refused, and with
one the coefficients stay regular at eps = 0 (see scalars.py).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from math import prod

from .errors import DivisionByZero
from .graded import GL21, DualGradedVector, GradedOperator, GradedVector
from .rational import ONE
from .scalars import EPS, EpsScalar, eps_limit, f, g, h, is_zero, izergin, prod_pairs

# element -> (i, j) for the symmetrized odd products; tilde names belong to
# the gl(1|2) instance
SYM_ELEMENTS = {
    w: (int(w[-2]), int(w[-1])) for w in ("T13", "T23", "T31", "T32", "T~12", "T~13", "T~21", "T~31")
}

# the entries of the ket T13(vI) T23(vII) T12(uII) . Omega in the order they
# are applied, to uII, vII and vI; the same for B and B~
_PLAN = ((1, 2), (2, 3), (1, 3))


def _at_zero(x):
    """x at eps = 0; a rational is its own value."""
    return eps_limit(x) if isinstance(x, EpsScalar) else x


def _is_odd(sig, i, j):
    return sig.par(i) != sig.par(j)


def _h_normalizer(params, c, creation, acc=ONE):
    """acc times the normalizer prod_{j<k} h(x_k, x_j) of creation type, or
    prod_{j<k} h(x_j, x_k) of annihilation type."""
    for j, k in combinations(range(len(params)), 2):
        acc = acc * (h(params[k], params[j], c) if creation else h(params[j], params[k], c))
    if is_zero(acc):
        raise DivisionByZero("h-pole in symmetrized product (u_k - u_j = -c)")
    return acc


def sym_odd_product(model, which, params) -> GradedOperator:
    """The symmetrized product of odd entries as a single operator;
    creation-type for an entry above the diagonal."""
    i, j = SYM_ELEMENTS[which]
    if not params:
        return GradedOperator.identity(model.sig, model.arity)
    acc = model.T(i, j, params[0])
    for x in params[1:]:
        acc = acc.compose(model.T(i, j, x))
    return acc.scale(1 / _h_normalizer(params, model.c, i < j))


def _apply_entries(model, i, j, params, vec, dual):
    """(d, d * T_ij(x1)...T_ij(xn) . vec), or with dual the bra
    vec . T_ij(x1)...T_ij(xn) times d. d is the product of the walks'
    multipliers, times the normalizer of an odd T_ij (creation-type on kets,
    annihilation-type on bras) by which the block is divided."""
    d = 1
    for x in params if dual else reversed(params):
        m, vec = model.apply_T_scaled(i, j, _at_zero(x), vec, dual)
        d *= m
    if len(params) > 1 and _is_odd(model.sig, i, j):
        d = _h_normalizer(params, model.c, not dual, d)
    return d, vec


def _require_distinct(name, xs):
    for i, j in combinations(range(len(xs)), 2):
        if is_zero(xs[i] - xs[j]):
            raise ValueError(f"coincident parameters within {name}: {xs[i]!r}")


def _split(xs, picked):
    chosen = tuple(xs[i] for i in picked)
    rest = tuple(xs[i] for i in range(len(xs)) if i not in picked)
    return chosen, rest


def _guard(model, sig):
    if model.sig != sig:
        raise ValueError(f"this constructor is the {sig.name} form, got {model.sig.name}")


def _partition_terms(model, us, vs, weight):
    """Every split us = u1+u2, vs = v1+v2 with #u1 = #v1, and its coefficient
    weight(u1, u2, v1, v2, c) / (lam2(u2) lam2(vs) f(vs,us)), with f(us,vs)
    in place of f(vs,us) on gl(1|2)."""
    us, vs = tuple(us), tuple(vs)
    _require_distinct("us", us)
    _require_distinct("vs", vs)
    c = model.c
    lam2 = lambda xs: prod((model.lam(2, x) for x in xs), start=ONE)
    names, left, right = ("vs,us", vs, us) if model.sig == GL21 else ("us,vs", us, vs)
    base = lam2(vs) * prod_pairs(f, left, right, c)
    if is_zero(base):
        raise DivisionByZero(f"f({names}) vanishes (a pair at difference -c); parameters not generic")
    for n in range(min(len(us), len(vs)) + 1):
        for iu in combinations(range(len(us)), n):
            u1, u2 = _split(us, iu)
            for iv in combinations(range(len(vs)), n):
                v1, v2 = _split(vs, iv)
                yield weight(u1, u2, v1, v2, c) / (lam2(u2) * base), u1, u2, v1, v2


def _coefficients(model, us, vs, weight):
    """The list of _partition_terms, computed once per model, weight and
    ordered parameter tuples, so that a ket and its bra share it."""
    key = weight, tuple(us), tuple(vs)
    terms = model.coefficients.get(key)
    if terms is None:
        terms = model.coefficients[key] = list(_partition_terms(model, us, vs, weight))
    return terms


def build_family(model, us, vs, weight, dual):
    """The partition sum of _PLAN under the given weight: the ket, or with
    dual its mirror bra (transposed entries, annihilation-type normalizers
    and the sign (-1)^{m(m-1)/2} for m odd factors per term). At eps-shifted
    parameters every term is its eps -> 0 limit."""
    acc = (DualGradedVector if dual else GradedVector)(model.sig, model.arity)
    start = model.omega_dual() if dual else model.omega()
    for coef, _u1, u2, v1, v2 in _coefficients(model, us, vs, weight):
        vec, odd, div = start, 0, 1
        for (i, j), params in zip(_PLAN, (u2, v2, v1)):
            if dual:
                i, j = j, i
            d, vec = _apply_entries(model, i, j, params, vec, dual)
            # a product with 1 still costs an EpsScalar operation
            if d != 1:
                div = d if div == 1 else div * d
            odd += len(params) * _is_odd(model.sig, i, j)
        acc = acc.add(vec.scale(_at_zero(coef if div == 1 else coef / div)))
    if dual and odd * (odd - 1) // 2 % 2:
        acc = acc.scale(-1)
    return acc


def _bethe_weight(u1, u2, v1, v2, c):
    return izergin(v1, u1, c) * prod_pairs(f, u1, u2, c) * prod_pairs(g, v2, v1, c)


def build_vector(model, us, vs) -> GradedVector:
    """B_{a,b}(us; vs) on a gl(2|1) realization."""
    _guard(model, GL21)
    return build_family(model, us, vs, _bethe_weight, dual=False)


def build_dual_vector(model, us, vs) -> DualGradedVector:
    """C_{a,b}(us; vs), the mirror of B_{a,b}(us; vs)."""
    _guard(model, GL21)
    return build_family(model, us, vs, _bethe_weight, dual=True)


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
    """build(us, vs) at possibly coincident us/vs via the exact eps -> 0 limit.
    The builders of this package take it term by term (build_family,
    partition_sum); the entrywise limit at the end takes it of the series a
    vector-valued oracle returns."""
    us, vs, shifted = separate_collision(us, vs)
    vec = build(us, vs)
    return vec.map_values(eps_limit) if shifted else vec


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
    from .graded import decode
    from .rational import rat_to_str

    out = {}
    for key in sorted(vec.entries):
        digits = "".join(str(d) for d in decode(key, vec.arity))
        out[digits] = rat_to_str(vec.entries[key])
    return out


def vector_from_json(sig, arity, data) -> GradedVector:
    from .graded import encode
    from .rational import rat_from_str

    entries = {}
    for digits, val in data.items():
        if len(digits) != arity or any(ch not in "123" for ch in digits):
            raise ValueError(f"bad basis multi-index {digits!r}")
        entries[encode(tuple(int(ch) for ch in digits))] = rat_from_str(val)
    return GradedVector(sig, arity, entries)
